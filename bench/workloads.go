package main

import (
	"fmt"
	"math"
	"time"

	"agingcgra"
	"agingcgra/internal/dse"
	"agingcgra/internal/lifetime"
	"agingcgra/internal/prog"
	"agingcgra/internal/searchcost"
)

// workload is one set of inputs the benchmark runs. Its why is the reason
// it exists: which layers it loads, and which it leaves alone.
type workload struct {
	name string
	why  string
	// clients is the number of closed-loop clients: each sends its next
	// op only after the previous one completed.
	clients int
	// newRunner builds the system under test, without state.
	newRunner func() runner
}

// runner is one workload's system under test.
type runner interface {
	// start builds fresh state and answers the canonical warm-up op, which
	// is the same for every seed; setup_s times it. traced also builds the
	// instrumented twin the traced pass compares against.
	start(traced bool) (digest, error)
	// prepare finishes the seed-dependent set-up, outside setup_s.
	prepare(seed uint64) error
	// op runs op i, untraced or traced, and checks its output.
	op(seed uint64, i int, traced bool) opRecord
	// verify runs the end-of-run output checks of an untraced pass.
	verify(seed uint64, recs []opRecord) error
	// layers derives the per-layer metrics from a traced pass's records
	// and the probes' unit costs.
	layers(recs []opRecord, probe map[string]float64) (map[string]float64, error)
	close()
}

var workloads = []workload{
	{
		name: "life-snake",
		why: "the paper's utilization-aware allocator with one dead column: co-sim engine, GPP stepping and the epoch memo do the work; " +
			"explore, remap and the ladder never run",
		clients: 1,
		newRunner: func() runner {
			return &lifeRunner{
				scenario: func(seed uint64, i int) agingcgra.LifetimeConfig {
					return snakeConfig(stratified(seed, streamColumn, i, 16))
				},
				canonical: snakeConfig(0),
			}
		},
	},
	{
		name: "life-shapedbt",
		why: "remap allocator with translation-time shape search on columns c and c+8 dead: ladder mapping, " +
			"remap rescue and explorer pivot scans dominate",
		clients: 1,
		newRunner: func() runner {
			return &lifeRunner{
				scenario: func(seed uint64, i int) agingcgra.LifetimeConfig {
					return shapedbtConfig(stratified(seed, streamColumn, i, 8))
				},
				canonical: shapedbtConfig(0),
			}
		},
	},
	{
		name: "life-faults",
		why: "explorer under intermittent faults with the recovery checker, quarantine and probation: " +
			"placement follows a shifting observed-health map and epochs rarely replay",
		clients: 1,
		newRunner: func() runner {
			return &lifeRunner{
				scenario: func(seed uint64, i int) agingcgra.LifetimeConfig {
					return faultsConfig(draw(seed, streamScenarioSeed, i) | 1)
				},
				canonical: faultsConfig(1),
			}
		},
	},
	{
		name: "fleet-cold",
		why: "2 clients send fleet queries of 1000 devices whose 8 combos miss both service stores: " +
			"request decode, pool fan-out, lifetime runs and store writes",
		clients:   2,
		newRunner: func() runner { return &fleetRunner{} },
	},
	{
		name: "fleet-warm",
		why: "1 client replays answered fleet queries that hit the result store: decode, device draws, " +
			"fingerprints and aggregation, with no simulation",
		clients:   1,
		newRunner: func() runner { return &fleetRunner{warm: true} },
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// snakeConfig is life-snake's scenario: the paper's allocator over a
// three-kernel mix with column col dead from the start.
func snakeConfig(col int) agingcgra.LifetimeConfig {
	return agingcgra.LifetimeConfig{
		Allocator:   "utilization-aware",
		Benchmarks:  []string{"crc32", "sha", "bitcount"},
		EpochYears:  0.5,
		MaxYears:    15,
		DeadPattern: fmt.Sprintf("column:%d", col),
	}
}

// shapedbtConfig is life-shapedbt's scenario: columns c and c+8 dead, so
// no pivot of a full-width translation is live and the ladder and the
// rescue decide every placement.
func shapedbtConfig(c int) agingcgra.LifetimeConfig {
	return agingcgra.LifetimeConfig{
		Allocator:         "remap",
		ShapeTranslations: true,
		Benchmarks:        []string{"crc32"},
		EpochYears:        0.5,
		MaxYears:          20,
		DeadPattern:       fmt.Sprintf("columns:%d+%d", c, c+8),
	}
}

// faultsConfig is life-faults' scenario with fault-injection seed s.
func faultsConfig(s uint64) agingcgra.LifetimeConfig {
	return agingcgra.LifetimeConfig{
		Allocator:  "explore",
		Benchmarks: []string{"crc32", "sha"},
		EpochYears: 0.5,
		MaxYears:   15,
		Seed:       s,
		Faults:     &agingcgra.FaultModel{},
		Recovery:   &agingcgra.RecoveryPolicy{},
	}
}

// lifeRunner runs one lifetime scenario per op, closed loop, through
// lifetime.Run: the path cgra-lifetime and every service combo take.
type lifeRunner struct {
	scenario  func(seed uint64, i int) agingcgra.LifetimeConfig
	canonical agingcgra.LifetimeConfig
	// refs memoizes the stand-alone GPP references; start builds it fresh,
	// so the warm-up op pays for them and timed ops do not.
	refs *dse.RefCache
	// instrsPerEpoch is the dynamic instruction count of the mix, which a
	// simulated epoch co-simulates once.
	instrsPerEpoch float64
}

func (r *lifeRunner) start(bool) (digest, error) {
	r.refs = dse.NewRefCache()
	res, err := r.run(r.canonical, nil)
	if err != nil {
		return digest{}, fmt.Errorf("warm-up scenario: %w", err)
	}
	sc, err := r.canonical.Scenario()
	if err != nil {
		return digest{}, err
	}
	r.instrsPerEpoch = 0
	for _, name := range sc.Mix {
		b, _ := prog.ByName(name)
		ref, err := r.refs.Get(b, sc.Size, sc.Engine.Timing)
		if err != nil {
			return digest{}, err
		}
		r.instrsPerEpoch += float64(ref.Classes.Total())
	}
	return digestJSON(res)
}

func (r *lifeRunner) prepare(uint64) error { return nil }

// run simulates one scenario; a non-nil sp times the allocator's layers.
func (r *lifeRunner) run(c agingcgra.LifetimeConfig, sp *spans) (*lifetime.Result, error) {
	sc, err := c.Scenario()
	if err != nil {
		return nil, err
	}
	sc.Refs = r.refs
	if sp != nil {
		sc.Factory = timedFactory(sc.Factory, sp)
	}
	res, err := lifetime.Run(sc)
	if err != nil {
		return nil, err
	}
	want := int(math.Ceil(c.MaxYears/c.EpochYears - 1e-9))
	if len(res.Timeline) != want {
		return nil, fmt.Errorf("timeline has %d epochs, want %d", len(res.Timeline), want)
	}
	if res.AliveFraction < 0 || res.AliveFraction > 1 {
		return nil, fmt.Errorf("alive fraction %v outside [0,1]", res.AliveFraction)
	}
	return res, nil
}

func (r *lifeRunner) op(seed uint64, i int, traced bool) opRecord {
	rec := opRecord{I: i}
	var sp *spans
	if traced {
		sp = &rec.Spans
	}
	t := time.Now()
	res, err := r.run(r.scenario(seed, i), sp)
	rec.Dur = time.Since(t)
	if err != nil {
		rec.Err = err
		return rec
	}
	rec.Digest, rec.Err = digestJSON(res)
	rec.Epochs = len(res.Timeline)
	for _, e := range res.Timeline {
		if e.Replayed {
			rec.Replayed++
		}
	}
	if res.Search != nil {
		rec.Search = res.Search.Counts
	}
	return rec
}

// verify has nothing left to check: every op already checked its own
// timeline, and the seeded digests cover the outputs.
func (r *lifeRunner) verify(uint64, []opRecord) error { return nil }

func (r *lifeRunner) layers(recs []opRecord, probe map[string]float64) (map[string]float64, error) {
	n := float64(len(recs))
	var epochs, replayed, opNS float64
	var sp spans
	var c searchcost.Counts
	for _, rec := range recs {
		epochs += float64(rec.Epochs)
		replayed += float64(rec.Replayed)
		opNS += float64(rec.Dur)
		for l := range sp {
			sp[l].Calls += rec.Spans[l].Calls
			sp[l].NS += rec.Spans[l].NS
		}
		c.Add(rec.Search)
	}
	// A layer's busy time is its span time minus the clock's share of
	// each span: the allocators' per-call work is a few nanoseconds, the
	// same order as one clock read.
	var busy [numLayers]float64
	spanNS := 0.0
	for l, s := range sp {
		busy[l] = max(0, float64(s.NS)-float64(s.Calls)*probe["bench.span_ns"])
		spanNS += busy[l]
	}
	perOp := func(x uint64) float64 { return float64(x) / n }
	callsPerOp := func(l layer) float64 { return float64(sp[l].Calls) / n }
	msPerOp := func(l layer) float64 { return busy[l] / 1e6 / n }
	// The explained op time: the allocator layers' busy time plus every
	// simulated epoch's instructions at the healthy-fabric co-simulation
	// cost. Search counts are not priced: they model the hardware and
	// include replayed epochs, which cost the simulator nothing. Shares are
	// of the untraced op time, which the timers do not inflate.
	simulated := epochs - replayed
	modeled := spanNS + simulated*r.instrsPerEpoch*probe["dbt.cosim_ns_per_instr"]
	return map[string]float64{
		"lifetime.epochs_per_op": epochs / n,
		"lifetime.replay_frac":   frac(replayed, epochs),
		"lifetime.residual_ms":   (opNS - spanNS) / 1e6 / n,
		"alloc.next_calls":       callsPerOp(layerAllocNext),
		"alloc.next_ms":          msPerOp(layerAllocNext),
		"explore.next_calls":     callsPerOp(layerExploreNext),
		"explore.next_ms":        msPerOp(layerExploreNext),
		"explore.observe_calls":  callsPerOp(layerExploreObserve),
		"explore.observe_ms":     msPerOp(layerExploreObserve),
		"explore.pivot_scans":    perOp(c.PivotScans),
		"explore.pivot_cells":    perOp(c.PivotCells),
		"explore.scan_frac":      frac(busy[layerExploreNext], opNS),
		"remap.config_calls":     callsPerOp(layerRemapConfig),
		"remap.config_ms":        msPerOp(layerRemapConfig),
		"remap.scans":            perOp(c.RemapScans),
		"remap.candidates":       perOp(c.RemapCandidates),
		"remap.scan_frac":        frac(busy[layerRemapConfig], opNS),
		"dbt.ladder_scans":       perOp(c.LadderScans),
		"dbt.ladder_candidates":  perOp(c.LadderCandidates),
		"mapper.probes":          perOp(c.LadderProbes + c.RemapProbes),
		"recover.checker_runs":   perOp(c.CheckerRuns),
		"recover.checker_instrs": perOp(c.CheckerInstrs),
		"recover.retry_execs":    perOp(c.RetryExecs),
		"recover.probes":         perOp(c.RecoveryProbes),
		"bench.explained_frac":   frac(modeled, opNS),
	}, nil
}

func (r *lifeRunner) close() {}
