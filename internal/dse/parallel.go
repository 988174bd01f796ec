// Parallel sweep engine: every figure and table of the paper re-runs the
// suite across geometry × allocator design points, and the points are
// mutually independent (each owns its controller, allocator and engines),
// so they fan out over a worker pool. Two invariants keep the parallel path
// bit-identical to the serial one: results land at their point's index
// regardless of completion order, and the stand-alone GPP reference with
// the recorded retire stream every point replays — a pure function of
// (benchmark, size, timing) — is memoized in a RefCache shared across the
// pool. Pool (queue.go) is the one batch primitive: a bounded work queue
// with indexed results, the lowest-indexed error, panics recovered into
// that index's error, per-request cancellation and graceful drain. The
// lifetime service keeps one across requests; ForEach wraps a transient
// pool around a single batch (the sweep-command shape).
package dse

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"

	"agingcgra/internal/dbt"
	"agingcgra/internal/fabric"
	"agingcgra/internal/gpp"
	"agingcgra/internal/isa"
	"agingcgra/internal/memostore"
	"agingcgra/internal/prog"
)

// GPPRef is the stand-alone GPP outcome for one benchmark: the reference
// every design point is normalized against, the checksum the program left
// in a0, and the recorded retire stream every co-simulation of the
// benchmark replays.
type GPPRef struct {
	Cycles   uint64
	Classes  dbt.ClassCounts
	Checksum uint32
	// Stream and Words, the table pricing its words under the key's
	// timing, are shared by every caller of the cache and must not be
	// written.
	Stream *gpp.Stream
	Words  *dbt.Words
}

type refKey struct {
	bench  string
	size   prog.Size
	timing gpp.Timing
}

// RefCache memoizes GPP-only reference runs. The reference depends only on
// the benchmark, the input size and the timing model — not on the fabric
// geometry or allocator — so one cache serves an entire sweep, and the
// lifetime service holds a single process-wide instance so the references
// are shared across requests. Each entry holds the benchmark's retire
// stream (4 bytes per retire: at most about 0.5 MB per benchmark at tiny
// size, 2.7 MB at small). Safe for concurrent use; each key is computed
// exactly once (single-flight) even when several workers ask for it
// simultaneously. Backed by an unbounded memostore.Store, whose hit/miss
// counters the service's /v1/stats endpoint surfaces.
type RefCache struct {
	store *memostore.Store
}

// NewRefCache builds an empty reference memo.
func NewRefCache() *RefCache {
	return &RefCache{store: memostore.New(0)}
}

// Get returns the memoized reference for (b, size, timing), computing it on
// first use: the benchmark runs once on the interpreter, its result is
// validated with b.Check, and the reference cycles and classes are priced
// from the recorded stream exactly as dbt.RunGPPOnly prices a run. The
// zero timing normalizes to gpp.DefaultTiming, matching dbt.RunGPPOnly.
func (rc *RefCache) Get(b *prog.Benchmark, size prog.Size, timing gpp.Timing) (GPPRef, error) {
	if timing == (gpp.Timing{}) {
		timing = gpp.DefaultTiming()
	}
	key := refKey{bench: b.Name, size: size, timing: timing}
	v, err := rc.store.GetOrCompute(key, func() (any, error) {
		c, err := b.NewCore(size)
		if err != nil {
			return GPPRef{}, err
		}
		s, err := gpp.Record(c, b.MaxInstructions)
		if err != nil {
			return GPPRef{}, err
		}
		if err := b.Check(c.Mem, c.Regs[isa.A0], size); err != nil {
			return GPPRef{}, fmt.Errorf("dse: %s computed a wrong result: %w", b.Name, err)
		}
		ref := GPPRef{Checksum: c.Regs[isa.A0], Stream: s, Words: dbt.NewWords(s.Prog, timing)}
		ref.Cycles, ref.Classes = ref.Words.Price(s.Retires)
		return ref, nil
	})
	if err != nil {
		return GPPRef{}, err
	}
	return v.(GPPRef), nil
}

// Stats snapshots the underlying memo store's counters.
func (rc *RefCache) Stats() memostore.Stats { return rc.store.Stats() }

// Point is one design point of a sweep: a fabric geometry paired with the
// allocator strategy to run on it.
type Point struct {
	Geom    fabric.Geometry
	Factory AllocatorFactory
}

// ForEach runs fn(i) for every index in [0, n) on a transient Pool of
// workers goroutines (workers <= 0 selects the runnable-CPU bound,
// runtime.GOMAXPROCS; the count is clamped to n) and tears the pool down
// when the batch is done. Resolving the default against GOMAXPROCS rather
// than NumCPU matters on constrained boxes: a GOMAXPROCS=1 process gains
// nothing from extra goroutines, so the default collapses to a single
// worker (the historical Fig6Sweep "parallel slower than serial" artifact
// on 1-CPU runners). The contract is Pool.ForEach's: on failure the error
// of the lowest-indexed failing call is returned, and every item still
// runs — with workers == 1 too, so a serial batch runs its remaining
// items after a failure before returning that error. A panicking work
// item does not take down the pool or the process: the panic is recovered
// and surfaces as that index's error, so one malformed design point fails
// its sweep cleanly instead of crashing a batch of unrelated points. It is
// the shared sweep primitive behind RunPoints and the lifetime scenario
// batches; fn must be safe to call from multiple goroutines for distinct
// indices.
func ForEach(n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	p := NewPool(workers, 0)
	defer p.Close()
	return p.ForEach(context.Background(), n, fn)
}

// protect runs fn(i) and converts a panic into that index's error — the
// recovery contract of Pool.ForEach: one malformed work item fails its
// batch cleanly instead of crashing the process or killing a worker
// goroutine every other request depends on.
func protect(i int, fn func(i int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("dse: work item %d panicked: %v\n%s", i, r, debug.Stack())
		}
	}()
	return fn(i)
}

// RunPoints executes the suite on every design point, fanning the points
// out over opt.Workers goroutines (0 selects runtime.GOMAXPROCS; 1 forces
// the serial path). Results are ordered by point index and identical to running
// the points serially; on failure the error of the lowest-indexed failing
// point is returned, again matching the serial path.
func RunPoints(points []Point, opt Options) ([]*SuiteResult, error) {
	if opt.Refs == nil {
		opt.Refs = NewRefCache()
	}
	out := make([]*SuiteResult, len(points))
	err := ForEach(len(points), opt.Workers, func(i int) error {
		res, err := RunSuite(points[i].Geom, points[i].Factory, opt)
		out[i] = res
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
