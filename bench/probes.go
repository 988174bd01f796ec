package main

import (
	"fmt"
	"sort"
	"time"

	"agingcgra/internal/alloc"
	"agingcgra/internal/dbt"
	"agingcgra/internal/dse"
	"agingcgra/internal/explore"
	"agingcgra/internal/fabric"
	"agingcgra/internal/gpp"
	"agingcgra/internal/lifetime"
	"agingcgra/internal/memostore"
	"agingcgra/internal/prog"
	"agingcgra/internal/remap"
	"agingcgra/internal/stats"
	"agingcgra/internal/trace"
)

// probeReps is how many times each probe repeats; it reports the median.
const probeReps = 9

// runProbes times single layers on fixed crc32 inputs on the BE fabric,
// the same for every workload and seed. They are the unit costs
// bench.explained_frac prices counted work at, and they show a change to
// one layer without the noise of a whole scenario.
func runProbes(reps int) (map[string]float64, error) {
	b, _ := prog.ByName("crc32")
	g := fabric.NewGeometry(2, 16)
	m := make(map[string]float64)

	var gppNS, cosimNS []float64
	var cfgs []*fabric.Config
	for r := 0; r < reps; r++ {
		c, err := b.NewCore(prog.Tiny)
		if err != nil {
			return nil, err
		}
		t := time.Now()
		_, classes, err := dbt.RunGPPOnly(c, gpp.Timing{}, b.MaxInstructions)
		d := time.Since(t)
		c.Release()
		if err != nil {
			return nil, fmt.Errorf("gpp probe: %w", err)
		}
		gppNS = append(gppNS, float64(d)/float64(classes.Total()))

		eng, err := dbt.NewEngine(dbt.Options{Geom: g, Allocator: alloc.NewUtilizationAware(g)})
		if err != nil {
			return nil, err
		}
		if c, err = b.NewCore(prog.Tiny); err != nil {
			return nil, err
		}
		t = time.Now()
		rep, err := eng.Run(c, b.MaxInstructions)
		d = time.Since(t)
		c.Release()
		if err != nil {
			return nil, fmt.Errorf("co-sim probe: %w", err)
		}
		cosimNS = append(cosimNS, float64(d)/float64(rep.TotalInstrs))
		cfgs = eng.Cache().Configs()
	}
	m["gpp.ref_ns_per_instr"] = stats.Summarize(gppNS).Median
	m["dbt.cosim_ns_per_instr"] = stats.Summarize(cosimNS).Median

	// The mapping probes work on crc32's translated configurations: every
	// one for the per-rung mapping cost, the longest for the scans.
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("co-sim probe translated no configuration")
	}
	sort.Slice(cfgs, func(i, j int) bool {
		if cfgs[i].NumOps() != cfgs[j].NumOps() {
			return cfgs[i].NumOps() > cfgs[j].NumOps()
		}
		return cfgs[i].StartPC < cfgs[j].StartPC
	})
	cfg := cfgs[0]

	// Columns 0 and 8 dead: the fabric life-shapedbt's ladder and the
	// remap rescue work on.
	health, err := fabric.NewHealthWithDead(g, fabric.DeadColumnsCells(g, 0, 8))
	if err != nil {
		return nil, err
	}
	shapes := fabric.DefaultShapeLadder().Shapes(g)
	lat := fabric.DefaultLatencies()
	m["mapper.reshape_us"] = medianUS(reps, 4, func() {
		for _, c := range cfgs {
			for _, s := range shapes {
				remap.Reshape(c, s, fabric.Offset{}, g, health, lat)
			}
		}
	}) / float64(len(cfgs)*len(shapes))

	wear := fabric.NewWear(g)
	for i := 0; i < g.NumFUs(); i++ {
		wear.Add(fabric.Cell{Row: i / g.Cols, Col: i % g.Cols}, 0.01*float64(i%7))
	}
	ex := explore.New(g)
	ex.SetWear(wear)
	ex.ObserveStress(cfg.Cells(), fabric.Offset{}, 100)
	m["explore.scan_us"] = medianUS(reps, 200, func() { ex.Explore(cfg) })

	var rescueNS []float64
	for r := 0; r < reps; r++ {
		rm := remap.New(g)
		rm.SetHealth(health)
		rm.SetWear(wear)
		t := time.Now()
		rm.RemapConfig(cfg, fabric.Offset{}, false)
		rescueNS = append(rescueNS, float64(time.Since(t)))
	}
	m["remap.rescue_us"] = stats.Summarize(rescueNS).Median / 1e3

	const keys = 4096
	store := memostore.New(0)
	compute := func() (any, error) { return true, nil }
	next := 0
	m["memostore.miss_ns"] = medianUS(reps, keys, func() {
		store.GetOrCompute(next, compute)
		next++
	}) * 1e3
	hit := 0
	m["memostore.hit_ns"] = medianUS(reps, keys, func() {
		store.GetOrCompute(hit%keys, compute)
		hit++
	}) * 1e3

	var sink trace.Sink = &trace.Recorder{}
	ev := trace.Event{Scenario: "probe", Kind: trace.KindEpoch, Epoch: 1, Years: 0.5, Speedup: 1.5}
	m["trace.emit_ns"] = medianUS(reps, 1024, func() { sink.Emit(ev) }) * 1e3

	// A span's recorded length when it times nothing: the clock's own
	// share of every span, which the per-layer busy times subtract.
	spanNS := make([]float64, reps)
	for r := range spanNS {
		var sp spans
		for i := 0; i < 4096; i++ {
			sp.add(layerAllocNext, time.Now())
		}
		spanNS[r] = float64(sp[layerAllocNext].NS) / 4096
	}
	m["bench.span_ns"] = stats.Summarize(spanNS).Median

	overhead, err := traceOverhead(max(1, reps/3))
	if err != nil {
		return nil, err
	}
	m["trace.overhead_frac"] = overhead
	return m, nil
}

// medianUS runs fn inner times per repetition and returns the median
// per-call time in microseconds.
func medianUS(reps, inner int, fn func()) float64 {
	per := make([]float64, reps)
	for r := range per {
		t := time.Now()
		for i := 0; i < inner; i++ {
			fn()
		}
		per[r] = float64(time.Since(t)) / 1e3 / float64(inner)
	}
	return stats.Summarize(per).Median
}

// traceOverhead runs life-faults' warm-up scenario with and without a
// trace.Recorder attached, alternating, and returns the median traced time
// over the median untraced time, minus one.
func traceOverhead(pairs int) (float64, error) {
	refs := dse.NewRefCache()
	run := func(traced bool) (time.Duration, error) {
		c := faultsConfig(1)
		if traced {
			c.Trace = &trace.Recorder{}
		}
		sc, err := c.Scenario()
		if err != nil {
			return 0, err
		}
		sc.Refs = refs
		t := time.Now()
		if _, err := lifetime.Run(sc); err != nil {
			return 0, fmt.Errorf("trace probe: %w", err)
		}
		return time.Since(t), nil
	}
	if _, err := run(false); err != nil { // fills refs
		return 0, err
	}
	var plain, traced []float64
	for i := 0; i < pairs; i++ {
		p, err := run(false)
		if err != nil {
			return 0, err
		}
		t, err := run(true)
		if err != nil {
			return 0, err
		}
		plain, traced = append(plain, float64(p)), append(traced, float64(t))
	}
	return stats.Summarize(traced).Median/stats.Summarize(plain).Median - 1, nil
}
