// Command cgra-perfbench is the repository benchmark: it measures the two
// ways the simulator serves its lifetime result — a lifetime scenario run
// through lifetime.Run, and a fleet query to an in-process cgra-lifetimed —
// end to end with tracing off, and layer by layer in a separate traced
// pass. BENCHMARK.json at the repository root declares the workloads and
// metrics; this package prints exactly that set.
//
// It is a module of its own (agingcgra/bench, with a replace directive to
// the simulator one directory up), so the simulator's go build and go test
// never see it. Run it from the repository root:
//
//	bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//	bash bench/run.sh -workload all -seed 1 -o out/report.json -trace-out out/spans.jsonl
//
// run.sh builds into .bench_build/ (Go build cache included) and execs the
// binary. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}},
// with the end-to-end metrics under --trace 0 and the per-layer metrics
// under --trace 1. A run whose outputs fail a check prints correct:false
// and exits 1. The run is pinned to GOMAXPROCS=2.
//
// # Workloads
//
// Every input is a pure function of (seed, op index) through splitmix64;
// nothing draws from a shared PRNG. All lifetime scenarios use tiny kernels
// on the BE 2x16 fabric with 0.5-year epochs. Each run sets up from empty
// state nine times (a traced run once) and reports the median as setup_s;
// the set-up op is a canonical scenario or query that is the same for
// every seed, so setup_s does not move with the seed. Ops then run closed
// loop for --seconds.
//
//   - life-snake (1 client): the paper's utilization-aware allocator, mix
//     crc32+sha+bitcount, 15 years, one dead column. The co-sim engine, GPP
//     stepping and the epoch memo (about 77% of epochs replay) do the work;
//     explore, remap, the ladder and the internal/pscan fan-out never run,
//     so it is the no-change workload for placement-search changes. The
//     dead column cycles through all 16 columns once per 16 ops in a
//     seeded order, which keeps the per-op cost mix, and so the medians,
//     the same for every seed.
//   - life-shapedbt (1 client): the remap allocator with ShapeTranslations,
//     crc32, 20 years, columns c and c+8 dead (c in [0,8), cycled like
//     life-snake's column). Translation-ladder mapping, the remap rescue and
//     explorer pivot scans dominate, and internal/pscan fans the ladder and
//     rescue scans out over the 2 cores; c = 3 and c = 4 cost about three
//     times the others and set op_p90_ms.
//   - life-faults (1 client): the explorer with the default FaultModel and
//     RecoveryPolicy, mix crc32+sha, 15 years, a seeded fault seed per
//     scenario. The recovery checker, quarantine and probation run, and the
//     explorer scans under an observed-health map that keeps changing, so
//     about 1% of epochs replay and no ladder runs.
//   - fleet-cold (2 clients): POST /v1/fleet of 1000 devices over 2
//     single-benchmark mixes × {healthy, one dead column} × 2 operating
//     points whose temperatures are continuous draws, so every query's 8
//     combos miss the result and epoch stores. It exercises request decode,
//     the dse.Pool fan-out (2 workers), lifetime runs and store writes. The
//     mix pair (of the 21 pairs of the suite minus the susan kernels) and
//     the column cycle like life-snake's column.
//   - fleet-warm (1 client): replays 16 queries answered during set-up, in
//     seeded order; every one hits the result store and simulates nothing,
//     leaving decode, the device draws, fingerprinting and aggregation. One
//     client, because two 2.5 ms requests on two cores drift in and out of
//     overlapping each other and the GC worker, which moved op_p50_ms by
//     16% between runs at unchanged throughput.
//
// # End-to-end metrics
//
// An op is one scenario on life-* and one request on fleet-*.
//
//	setup_s           median of the 9 set-ups: fresh GPP-reference memo
//	                  plus the canonical scenario, or server start plus the
//	                  canonical query
//	op_p50_ms         median op latency
//	op_p90_ms         90th percentile (nearest rank) op latency
//	ops_per_s         ops completed per second of the timed pass
//	alloc_kib_per_op  growth of runtime.MemStats.TotalAlloc over the timed
//	                  pass, per op
//
// The times are scaled to a fixed host speed. Each client times a fixed
// standard-library computation (refWork: sort and hash 4096 ints) after an
// op whenever 50 ms have passed since its last sample; setup_s, op_p50_ms
// and op_p90_ms are multiplied, and ops_per_s divided, by 0.4 ms over the
// run's median reference time. The host the benchmark was defined on
// drifts by up to a third over tens of minutes while the work done stays
// the same; the reference moves with it and cancels most of it (see
// reference.go). The report file (-o) records ref_ms, so the wall-clock
// readings are the reported times × ref_ms / 0.4.
//
// Failed ops (an error, a non-200 answer, a malformed answer or a digest
// mismatch) count in "failed"; the JSON's attempted/failed is the failure
// fraction. The report file also records num_cpu, gomaxprocs, go_version,
// the seed, the set-up runs and the sample count.
//
// # Correctness checks
//
// testdata/digests.json holds, per workload, the sha256 of the canonical
// set-up op's output (the Result JSON of a scenario, the response bytes of
// a query) and of seed 1's first three ops. Every run checks every set-up
// against it, and seed-1 runs check the three ops too. fleet-warm requires
// each warm answer to equal the bytes its query got cold; fleet-cold
// replays its first query warm after the timed pass and requires the same.
// The traced pass runs every op untraced and traced and requires identical
// outputs. Only -update-digests (at seed 1) rewrites the digest file.
//
// # Traced pass and per-layer metrics
//
// Every layer is timed from outside, in this package, around calls into
// public methods; there are no spans inside the simulator. Lifetime
// scenarios get their allocator through a wrapped Scenario.Factory whose
// decorators embed the concrete *alloc.UtilizationAware, *explore.Explorer
// or *remap.Remapper, so every optional interface the controller and engine
// type-assert is still promoted and the Result bytes are unchanged. The
// fleet's traced twin server sits behind a timing middleware. Counts come
// from lifetime.Result.Search (which models hardware work and so includes
// replayed epochs) and from /v1/stats deltas. A span's busy time subtracts
// bench.span_ns, the recorded length of an empty span, per call: snake's
// Next costs a few nanoseconds, the same order as a clock read. Per-op
// counts and times are averages over the pass's ops; a layer that does not
// run on a workload reads 0. Per-layer times are wall clock, not scaled by
// the reference.
//
// Each per-layer metric, the layer it measures, and the end-to-end metric
// and workload it should move:
//
//	lifetime.epochs_per_op, .replay_frac,   epoch loop and memo      ops_per_s, life-snake
//	  .residual_ms (op time outside the
//	  allocator spans)
//	alloc.next_calls, .next_ms              utilization-aware Next   op_p50_ms, life-snake (share ~0)
//	explore.next_calls, .next_ms,           explorer                 op_p50_ms, life-shapedbt and
//	  .observe_calls, .observe_ms,                                   life-faults; nothing on
//	  .pivot_scans, .pivot_cells,                                    life-snake or fleet-*
//	  .scan_frac (next busy / op time)
//	remap.config_calls, .config_ms,         remap rescue             op_p90_ms, life-shapedbt
//	  .scans, .candidates, .scan_frac
//	dbt.ladder_scans, .ladder_candidates,   translation ladder       op_p50_ms and op_p90_ms,
//	  mapper.probes                                                  life-shapedbt
//	recover.checker_runs, .checker_instrs,  recovery layer           op_p50_ms, life-faults
//	  .retry_execs, .probes
//	service.handler_ms, .transport_ms,      service handler, HTTP    op_p50_ms and ops_per_s,
//	  .combos_per_req                                                fleet-cold and fleet-warm
//	memostore.results_hit_frac,             service stores           fleet-cold (epochs, refs)
//	  .epochs_hit_frac, .refs_hit_frac,                              and fleet-warm (results)
//	  .evictions_per_op
//
// Fixed-input probes run before every traced pass, on crc32 (tiny) and the
// BE fabric, the same for every workload and seed; they are unit costs and
// show a change to one layer without a whole scenario's noise:
//
//	gpp.ref_ns_per_instr    dbt.RunGPPOnly, per instruction
//	dbt.cosim_ns_per_instr  Engine.Run with snake on a healthy fabric
//	mapper.reshape_us       remap.Reshape of every translated crc32
//	                        configuration on every halving-ladder rung, with
//	                        columns 0 and 8 dead, per rung
//	explore.scan_us         Explorer.Explore of the longest configuration
//	remap.rescue_us         a fresh Remapper's RemapConfig, columns 0+8 dead
//	memostore.hit_ns, .miss_ns  GetOrCompute on a present / new key
//	trace.emit_ns           trace.Recorder.Emit of one epoch event
//	trace.overhead_frac     life-faults' canonical scenario with a
//	                        trace.Recorder over without, minus 1
//	bench.span_ns           recorded length of an empty span
//
// bench.trace_overhead_frac is the traced pass's op_p50 over the untraced
// op_p50 of the same ops, minus 1. bench.explained_frac reconciles the
// layers with the op time:
//
//	life-*:  (Σ allocator busy time
//	          + simulated epochs × mix instructions per epoch × dbt.cosim_ns_per_instr)
//	         / Σ untraced op time
//	fleet-*: Σ handler time / Σ client-observed latency (traced server)
//
// Search counts are not priced into it: they include replayed epochs. On
// the fleet workloads it reads about 0.9, the rest being loopback HTTP.
// On the life workloads it reads about 0.35-0.5, and CPU profiles name the
// layer left unexplained: the engine's translation path on degraded
// fabrics — dbt.finalizeTrace re-mapping (mapper.Map) traces that cannot
// be placed or do not profit, every time they run, plus the translation
// ladder on life-shapedbt — for which no counter exists outside the engine.
//
// # -trace-out format
//
// One JSON object per line, one line per op of the traced pass, in op
// order: workload, op, ms (untraced latency), traced_ms, spans (layer name
// → {calls, ns}, raw clock time, non-zero layers only), epochs, replayed,
// search (searchcost.Counts, when non-zero), combos and handler_ms (fleet),
// error (when the op failed).
//
// # Comparing and re-baselining
//
// To compare a change, write reports with -o on both commits and gate one
// against the other:
//
//	bash bench/run.sh -workload life-shapedbt -seed 7 -o new.json
//	bash bench/run.sh -replay new.json -compare old.json
//
// -compare prints every metric and exits 1 when an end-to-end metric
// regressed past its BENCHMARK.json bound, a metric is missing or reads 0.
// It refuses reports from a different num_cpu, GOMAXPROCS or Go version
// unless -allow-env-mismatch. Single runs are noisy: a claim needs ten
// paired runs per side. When a change alters outputs on purpose, re-record
// the digests and review the diff of testdata/digests.json:
//
//	for w in life-snake life-shapedbt life-faults fleet-cold fleet-warm; do
//	  bash bench/run.sh -workload $w -seed 1 -seconds 1 -update-digests
//	done
//
// A change to a workload, a metric or a bound edits this package and
// BENCHMARK.json together; TestDeclarationsMatchBenchmarkJSON holds them
// equal. Run the package tests from bench/ with go test ./...: a smoke test
// runs every workload at reduced scale, untraced and traced.
package main
