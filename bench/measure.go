package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"agingcgra/internal/searchcost"
	"agingcgra/internal/stats"
)

// checkedOps is how many leading ops of seed 1 the committed digests
// cover; every run executes at least this many.
const checkedOps = 3

// options is one measurement's settings.
type options struct {
	seed    uint64
	seconds float64
	traced  bool
	// ops, when positive, runs exactly that many timed ops whatever
	// seconds says (the smoke test's reduced scale).
	ops       int
	setupRuns int
	probeReps int
	// digests is the committed digest file; update rewrites this
	// workload's entry instead of checking it.
	digests string
	update  bool
}

// digestEntry is one workload's committed digests: the canonical warm-up
// op, the same for every seed, and seed 1's first checkedOps ops.
type digestEntry struct {
	Setup string   `json:"setup"`
	Seed1 []string `json:"seed1"`
}

func loadDigests(path string) (map[string]digestEntry, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m := make(map[string]digestEntry)
	if err := json.Unmarshal(blob, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// measure sets a workload up setupRuns times, then runs its ops closed
// loop for the configured time and derives the metrics: the end-to-end
// ones untraced, the per-layer ones in a traced pass that runs every op
// untraced and traced and requires identical outputs.
func measure(w workload, o options) (*report, []opRecord, error) {
	want, err := loadDigests(o.digests)
	switch {
	case o.update && errors.Is(err, fs.ErrNotExist):
		want = make(map[string]digestEntry)
	case err != nil:
		return nil, nil, err
	}
	if o.update && o.seed != 1 {
		return nil, nil, fmt.Errorf("-update-digests records seed 1's ops; got -seed %d", o.seed)
	}
	rep := newReport(w, o)
	failed := 0
	problem := func(format string, args ...any) {
		failed++
		rep.Problems = append(rep.Problems, fmt.Sprintf(format, args...))
	}

	var r runner
	var setupS []float64
	var setup digest
	for i := 0; i < o.setupRuns; i++ {
		if r != nil {
			r.close()
		}
		r = w.newRunner()
		t := time.Now()
		d, err := r.start(o.traced)
		setupS = append(setupS, time.Since(t).Seconds())
		if err != nil {
			r.close()
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		if !o.update && d.String() != want[w.name].Setup {
			problem("set-up %d: warm-up output %s, committed %q", i, d, want[w.name].Setup)
		}
		setup = d
	}
	defer r.close()
	if err := r.prepare(o.seed); err != nil {
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}

	var probe map[string]float64
	if o.traced {
		if probe, err = runProbes(o.probeReps); err != nil {
			return nil, nil, err
		}
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	recs, refMS := drive(w.clients, o, func(i int) opRecord {
		if !o.traced {
			return r.op(o.seed, i, false)
		}
		u := r.op(o.seed, i, false)
		t := r.op(o.seed, i, true)
		t.Dur, t.TracedDur = u.Dur, t.Dur
		switch {
		case u.Err != nil:
			t.Err = u.Err
		case t.Err == nil && t.Digest != u.Digest:
			t.Err = errors.New("traced output differs from untraced")
		}
		return t
	})
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	rep.RefMS = stats.Summarize(refMS).Median

	if o.seed == 1 {
		got := make([]string, checkedOps)
		for k := range got {
			got[k] = recs[k].Digest.String()
		}
		if o.update {
			want[w.name] = digestEntry{Setup: setup.String(), Seed1: got}
			blob, err := json.MarshalIndent(want, "", "  ")
			if err != nil {
				return nil, nil, err
			}
			if err := os.WriteFile(o.digests, append(blob, '\n'), 0o644); err != nil {
				return nil, nil, err
			}
		} else {
			for k, g := range got {
				if exp := want[w.name].Seed1; recs[k].Err == nil && (len(exp) <= k || exp[k] != g) {
					recs[k].Err = fmt.Errorf("output %s differs from the committed seed-1 digest", g)
				}
			}
		}
	}
	for _, rec := range recs {
		if rec.Err != nil {
			problem("op %d: %v", rec.I, rec.Err)
		}
	}
	if !o.traced {
		if err := r.verify(o.seed, recs); err != nil {
			rep.Attempted++
			problem("end-of-run check: %v", err)
		}
	}
	rep.Attempted += o.setupRuns + len(recs)
	rep.Failed = failed
	rep.Correct = failed == 0
	rep.Samples = len(recs)

	lat := make([]float64, len(recs))
	for k, rec := range recs {
		lat[k] = ms(rec.Dur)
	}
	var got map[string]float64
	if o.traced {
		if got, err = r.layers(recs, probe); err != nil {
			return nil, nil, err
		}
		for name, v := range probe {
			got[name] = v
		}
		traced := make([]float64, len(recs))
		for k, rec := range recs {
			traced[k] = ms(rec.TracedDur)
		}
		got["bench.trace_overhead_frac"] = stats.Percentile(traced, 50)/stats.Percentile(lat, 50) - 1
		rep.Metrics, err = collect(perLayer, got)
	} else {
		n := float64(len(recs))
		scale := refNominalMS / rep.RefMS
		got = map[string]float64{
			"setup_s":          stats.Summarize(setupS).Median * scale,
			"op_p50_ms":        stats.Percentile(lat, 50) * scale,
			"op_p90_ms":        stats.Percentile(lat, 90) * scale,
			"ops_per_s":        n / elapsed.Seconds() / scale,
			"alloc_kib_per_op": float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / n,
		}
		rep.Metrics, err = collect(endToEnd, got)
	}
	if err != nil {
		return nil, nil, err
	}
	return rep, recs, nil
}

// drive runs ops 0, 1, 2, ... from closed-loop clients until the time is
// up and at least checkedOps ran (or, with o.ops set, until that many ran)
// and returns the records in op order and the reference timings the
// clients took between ops. A client checks the clock before claiming the
// next index, and every claimed index runs, so the ops run are always a
// prefix of the sequence.
func drive(clients int, o options, do func(i int) opRecord) ([]opRecord, []float64) {
	end := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	var next atomic.Int64
	var mu sync.Mutex
	var recs []opRecord
	var refMS []float64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sampled time.Time
			for {
				if o.ops <= 0 && !time.Now().Before(end) && next.Load() >= checkedOps {
					return
				}
				i := int(next.Add(1) - 1)
				if o.ops > 0 && i >= o.ops {
					return
				}
				rec := do(i)
				var ref float64
				if time.Since(sampled) >= refEvery {
					ref, sampled = timeRef(), time.Now()
				}
				mu.Lock()
				recs = append(recs, rec)
				if ref > 0 {
					refMS = append(refMS, ref)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	sort.Slice(recs, func(a, b int) bool { return recs[a].I < recs[b].I })
	return recs, refMS
}

// traceLine is one op of the -trace-out file.
type traceLine struct {
	Workload string             `json:"workload"`
	Op       int                `json:"op"`
	MS       float64            `json:"ms"`
	TracedMS float64            `json:"traced_ms"`
	Spans    map[string]span    `json:"spans,omitempty"`
	Epochs   int                `json:"epochs,omitempty"`
	Replayed int                `json:"replayed,omitempty"`
	Search   *searchcost.Counts `json:"search,omitempty"`
	Combos   int                `json:"combos,omitempty"`
	Handler  float64            `json:"handler_ms,omitempty"`
	Err      string             `json:"error,omitempty"`
}

// writeTrace writes one JSON line per op of a traced pass.
func writeTrace(path, name string, recs []opRecord) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, rec := range recs {
		line := traceLine{
			Workload: name, Op: rec.I, MS: ms(rec.Dur), TracedMS: ms(rec.TracedDur),
			Epochs: rec.Epochs, Replayed: rec.Replayed, Combos: rec.Combos, Handler: ms(rec.Handler),
		}
		for l, s := range rec.Spans {
			if s.Calls > 0 {
				if line.Spans == nil {
					line.Spans = make(map[string]span)
				}
				line.Spans[layerNames[l]] = s
			}
		}
		if !rec.Search.Zero() {
			line.Search = &rec.Search
		}
		if rec.Err != nil {
			line.Err = rec.Err.Error()
		}
		if err := enc.Encode(line); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
