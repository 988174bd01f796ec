package main

// Every workload input is a pure function of (seed, op index, stream)
// through splitmix64 hashing, so a seed names the same inputs on every
// machine and no draw depends on the order clients consume ops in.

// Streams keep independent draws of one op uncorrelated.
const (
	streamColumn uint64 = iota + 1
	streamScenarioSeed
	streamMix
	streamPattern
	streamTemp
	streamReplay
	streamFleetSeed
)

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// draw hashes (seed, stream, i) to 64 uniform bits.
func draw(seed, stream uint64, i int) uint64 {
	return splitmix64(splitmix64(splitmix64(seed)^stream) + uint64(i))
}

// unit maps draw to [0, 1).
func unit(seed, stream uint64, i int) float64 {
	return float64(draw(seed, stream, i)>>11) / (1 << 53)
}

// stratified returns op i's value in [0, k): ops come in rounds of k, and
// each round visits every value once in a seeded order. A run of n ops
// therefore holds each value n/k times, give or take one, whatever the
// seed — the per-op cost mix, and with it the medians, stays put while
// the order changes.
func stratified(seed, stream uint64, i, k int) int {
	round, pos := i/k, i%k
	perm := make([]int, k)
	for j := range perm {
		perm[j] = j
	}
	for j := k - 1; j > 0; j-- {
		r := int(draw(seed, stream, round*k+j) % uint64(j+1))
		perm[j], perm[r] = perm[r], perm[j]
	}
	return perm[pos]
}
