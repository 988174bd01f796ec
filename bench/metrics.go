package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"
)

// metric declares one reported number. End-to-end metrics carry the bound
// BENCHMARK.json fixes for them: the share of the baseline median by which
// the metric may worsen before a change counts as a regression.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the simulator sees, measured with
// tracing off. Every workload reports every one of them; "op" is one
// lifetime scenario on the life-* workloads and one /v1/fleet request on
// the fleet-* workloads.
//
// Each bound is at least three times the spread measured on a 2-vCPU VM:
// over ten runs at distinct seeds, the reference-scaled timings spread
// over an interquartile range of at most 8.2% of their median, and
// allocation of at most 2.4%.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_p90_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"alloc_kib_per_op", "KiB", "lower", 0.1},
}

// perLayer are the traced pass's metrics, in the order they are printed.
// Counts and times are per op unless the name says otherwise; a layer that
// does not run on a workload reads 0 there.
var perLayer = []metric{
	{"lifetime.epochs_per_op", "count", "lower", 0},
	{"lifetime.replay_frac", "ratio", "higher", 0},
	{"lifetime.residual_ms", "ms", "lower", 0},
	{"alloc.next_calls", "count", "lower", 0},
	{"alloc.next_ms", "ms", "lower", 0},
	{"explore.next_calls", "count", "lower", 0},
	{"explore.next_ms", "ms", "lower", 0},
	{"explore.observe_calls", "count", "lower", 0},
	{"explore.observe_ms", "ms", "lower", 0},
	{"explore.pivot_scans", "count", "lower", 0},
	{"explore.pivot_cells", "count", "lower", 0},
	{"explore.scan_frac", "ratio", "lower", 0},
	{"remap.config_calls", "count", "lower", 0},
	{"remap.config_ms", "ms", "lower", 0},
	{"remap.scans", "count", "lower", 0},
	{"remap.candidates", "count", "lower", 0},
	{"remap.scan_frac", "ratio", "lower", 0},
	{"dbt.ladder_scans", "count", "lower", 0},
	{"dbt.ladder_candidates", "count", "lower", 0},
	{"mapper.probes", "count", "lower", 0},
	{"recover.checker_runs", "count", "lower", 0},
	{"recover.checker_instrs", "count", "lower", 0},
	{"recover.retry_execs", "count", "lower", 0},
	{"recover.probes", "count", "lower", 0},
	{"service.handler_ms", "ms", "lower", 0},
	{"service.transport_ms", "ms", "lower", 0},
	{"service.combos_per_req", "count", "lower", 0},
	{"memostore.results_hit_frac", "ratio", "higher", 0},
	{"memostore.epochs_hit_frac", "ratio", "higher", 0},
	{"memostore.refs_hit_frac", "ratio", "higher", 0},
	{"memostore.evictions_per_op", "count", "lower", 0},
	{"gpp.ref_ns_per_instr", "ns", "lower", 0},
	{"dbt.cosim_ns_per_instr", "ns", "lower", 0},
	{"mapper.reshape_us", "us", "lower", 0},
	{"explore.scan_us", "us", "lower", 0},
	{"remap.rescue_us", "us", "lower", 0},
	{"memostore.hit_ns", "ns", "lower", 0},
	{"memostore.miss_ns", "ns", "lower", 0},
	{"trace.emit_ns", "ns", "lower", 0},
	{"trace.overhead_frac", "ratio", "lower", 0},
	{"bench.span_ns", "ns", "lower", 0},
	{"bench.trace_overhead_frac", "ratio", "lower", 0},
	{"bench.explained_frac", "ratio", "higher", 0},
}

// value is one measured metric as printed.
type value struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
}

// collect orders measured values by a declaration list. A declared metric
// the measurement did not produce reads 0; a measured name that is not
// declared is an error, so the printed set always equals the declared one.
func collect(decl []metric, got map[string]float64) ([]value, error) {
	out := make([]value, 0, len(decl))
	known := make(map[string]bool, len(decl))
	for _, m := range decl {
		known[m.Name] = true
		v := got[m.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", m.Name, v)
		}
		out = append(out, value{Name: m.Name, Unit: m.Unit, Value: v})
	}
	var unknown []string
	for name := range got {
		if !known[name] {
			unknown = append(unknown, name)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return nil, fmt.Errorf("undeclared metrics %v", unknown)
	}
	return out, nil
}

// resultLine renders the one-line JSON result the benchmark prints last:
// correct, attempted, failed and the metrics in declaration order.
func resultLine(correct bool, attempted, failed int, vals []value) ([]byte, error) {
	var b bytes.Buffer
	fmt.Fprintf(&b, `{"correct":%t,"attempted":%d,"failed":%d,"metrics":{`, correct, attempted, failed)
	for i, v := range vals {
		if i > 0 {
			b.WriteByte(',')
		}
		num, err := json.Marshal(v.Value)
		if err != nil {
			return nil, fmt.Errorf("metric %s: %w", v.Name, err)
		}
		fmt.Fprintf(&b, `%q:{"value":%s,"unit":%q}`, v.Name, num, v.Unit)
	}
	b.WriteString("}}")
	return b.Bytes(), nil
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// frac divides, reading 0 when there is nothing to divide by.
func frac(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
