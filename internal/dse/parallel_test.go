package dse

import (
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"agingcgra/internal/dbt"
	"agingcgra/internal/fabric"
	"agingcgra/internal/gpp"
	"agingcgra/internal/prog"
)

// testOptions keeps parallel-equality runs fast: a suite subset at Tiny.
func testOptions(workers int) Options {
	return Options{
		Size:       prog.Tiny,
		Benchmarks: []string{"crc32", "bitcount", "stringsearch"},
		Workers:    workers,
	}
}

// TestSweepParallelMatchesSerial asserts the worker-pool sweep produces
// results identical to the serial path, point for point: same ordering,
// same cycle counts, same utilization maps.
func TestSweepParallelMatchesSerial(t *testing.T) {
	points := []GridPoint{{2, 8}, {4, 8}, {2, 16}, {4, 16}}

	serial, err := Sweep(points, ProposedFactory, testOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Sweep(points, ProposedFactory, testOptions(4))
	if err != nil {
		t.Fatal(err)
	}

	if len(serial) != len(parallel) {
		t.Fatalf("length mismatch: serial %d parallel %d", len(serial), len(parallel))
	}
	for i := range serial {
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Errorf("point %d (%v) diverges between serial and parallel sweeps", i, serial[i].Geom)
		}
	}
}

// TestRunPointsMixedFactories covers the geometry × allocator fan-out shape
// the experiment drivers use (same geometry, both allocators).
func TestRunPointsMixedFactories(t *testing.T) {
	g := fabric.NewGeometry(2, 16)
	points := []Point{
		{Geom: g, Factory: BaselineFactory},
		{Geom: g, Factory: ProposedFactory},
	}
	serial, err := RunPoints(points, testOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunPoints(points, testOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Errorf("point %d diverges between serial and parallel runs", i)
		}
	}
	if serial[0].AllocatorName == serial[1].AllocatorName {
		t.Errorf("expected distinct allocators per point, both %q", serial[0].AllocatorName)
	}
}

// TestRefCacheMatchesDirect asserts the memoized GPP reference, priced
// from the recorded retire stream, equals dbt.RunGPPOnly on a fresh core
// for every suite benchmark, and that repeated Gets are stable and share
// one stream.
func TestRefCacheMatchesDirect(t *testing.T) {
	refs := NewRefCache()
	for _, b := range prog.All() {
		ref, err := refs.Get(b, prog.Tiny, gpp.Timing{})
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		c, err := b.NewCore(prog.Tiny)
		if err != nil {
			t.Fatal(err)
		}
		cycles, classes, err := dbt.RunGPPOnly(c, gpp.Timing{}, b.MaxInstructions)
		c.Release()
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if ref.Cycles != cycles || ref.Classes != classes {
			t.Errorf("%s: memoized reference %d cycles %v, direct %d cycles %v",
				b.Name, ref.Cycles, ref.Classes, cycles, classes)
		}
	}

	b, _ := prog.ByName("crc32")
	r1, err := refs.Get(b, prog.Tiny, gpp.Timing{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := refs.Get(b, prog.Tiny, gpp.DefaultTiming())
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Errorf("zero timing should normalize to the default: %+v vs %+v", r1, r2)
	}
}

// TestForEachRecoversPanics pins the sweep primitive's panic safety: a
// panicking work item becomes that index's error with one worker and with
// several alike, and every other item still runs — one malformed design
// point must not crash or cut short a batch.
func TestForEachRecoversPanics(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var mu sync.Mutex
		done := make(map[int]bool)
		err := ForEach(8, workers, func(i int) error {
			if i == 3 {
				panic("design point exploded")
			}
			mu.Lock()
			done[i] = true
			mu.Unlock()
			return nil
		})
		if err == nil {
			t.Fatalf("workers=%d: panic should surface as an error", workers)
		}
		if !strings.Contains(err.Error(), "work item 3 panicked") {
			t.Errorf("workers=%d: error should name the panicking index, got: %v", workers, err)
		}
		for i := 0; i < 8; i++ {
			if i != 3 && !done[i] {
				t.Errorf("workers=%d: item %d not driven to completion", workers, i)
			}
		}
	}
}

// TestForEachDefaultWorkersFollowsGOMAXPROCS pins the Workers=0 default to
// runtime.GOMAXPROCS(0), not NumCPU: on a single-slot schedule the default
// must run the batch in order on the pool's single worker rather than spawn
// NumCPU goroutines that time-slice one core and lose to the serial sweep
// (the Fig6Sweep parallel-slower artifact).
func TestForEachDefaultWorkersFollowsGOMAXPROCS(t *testing.T) {
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)

	// Deliberately unsynchronized: legal only if one worker runs every
	// item, and the caller reads order only after the pool's wait. Under
	// `go test -race` this doubles as a single-worker proof.
	var order []int
	if err := ForEach(64, 0, func(i int) error {
		order = append(order, i)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(order) != 64 {
		t.Fatalf("ran %d of 64 items", len(order))
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("out-of-order execution at %d: got item %d; Workers=0 on GOMAXPROCS=1 must run serial", i, got)
		}
	}
}
