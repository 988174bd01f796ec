package main

import (
	"sort"
	"time"
)

// The host this benchmark was defined on, a 2-vCPU VM, changes speed by
// up to a third over tens of minutes, with no steal time to show for it:
// two back-to-back sets of ten runs of identical code read life-faults'
// median op at 137 ms and then 185 ms, while allocation per op, a proxy
// for the work done, matched within 0.2%. A reference computation timed
// by the clients between their ops moves with the host, so every reported
// time is scaled by refNominalMS over the run's median reference time.
// Scaled, ten runs at distinct seeds spread op_p50_ms over an
// interquartile range of 2-8% of the median, where raw readings spread
// 9-19%, and two such sets agree within 2.5%. The reference is
// standard-library code only, so a change to this repository does not
// move it; a new Go toolchain can, which is why reports record go_version
// and -compare refuses to cross it. Timing it only between ops matters:
// samples taken in bursts, or during set-up while the heap is small,
// tracked the host no better than the raw readings did.

// refNominalMS is the reference computation's median time on that host
// in a quiet hour: scaled times read as times on that host.
const refNominalMS = 0.4

// refEvery is the least time between one client's reference samples; it
// keeps the reference under 1% of a run.
const refEvery = 50 * time.Millisecond

var refSink int

// refWork sorts and hashes a fixed pseudo-random slice: branchy compares,
// map hashing and allocation, the mix the simulator's interpreter loop,
// placement scans and stores lean on.
func refWork() {
	xs := make([]int, 4096)
	v := uint64(7)
	for i := range xs {
		v = v*6364136223846793005 + 1442695040888963407
		xs[i] = int(v >> 33)
	}
	sort.Ints(xs)
	m := make(map[int]int, 512)
	for i, x := range xs {
		m[x&1023] += i
	}
	refSink += len(m)
}

// timeRef times one refWork in milliseconds.
func timeRef() float64 {
	t := time.Now()
	refWork()
	return ms(time.Since(t))
}
