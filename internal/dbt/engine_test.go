package dbt

import (
	"slices"
	"testing"

	"agingcgra/internal/alloc"
	"agingcgra/internal/fabric"
	"agingcgra/internal/gpp"
	"agingcgra/internal/isa"
	"agingcgra/internal/prog"
)

// loopProgram is a simple hot loop: the DBT must translate it and offload
// subsequent iterations.
const loopProgram = `
_start:
	li   s0, 0          # sum
	li   s1, 0          # i
	li   s2, 200        # iterations
loop:
	slli t0, s1, 1
	xor  t1, s1, s0
	add  t2, t0, t1
	add  s0, s0, t2
	addi s1, s1, 1
	blt  s1, s2, loop
	mv   a0, s0
	ecall
`

func loopCore(t *testing.T) *gpp.Core {
	t.Helper()
	p, err := isa.Assemble(loopProgram, isa.AsmOptions{TextBase: gpp.TextBase})
	if err != nil {
		t.Fatal(err)
	}
	return gpp.New(p)
}

func newTestEngine(t *testing.T, a alloc.Allocator) *Engine {
	t.Helper()
	e, err := NewEngine(Options{
		Geom:      fabric.NewGeometry(2, 16),
		Allocator: a,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestEngineAcceleratesLoop(t *testing.T) {
	// Reference GPP-only cycles.
	cRef := loopCore(t)
	gppCycles, _, err := RunGPPOnly(cRef, gpp.DefaultTiming(), 1_000_000)
	if err != nil {
		t.Fatal(err)
	}

	c := loopCore(t)
	e := newTestEngine(t, nil)
	rep, err := e.Run(c, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if c.Regs[isa.A0] != loopReference(200) {
		t.Fatalf("architectural result corrupted: %d", c.Regs[isa.A0])
	}
	if rep.Offloads == 0 {
		t.Fatal("hot loop never offloaded")
	}
	if rep.CGRAInstrs == 0 || rep.OffloadRate() < 0.5 {
		t.Errorf("offload rate = %v, want > 0.5 for a hot loop", rep.OffloadRate())
	}
	if rep.TotalCycles >= gppCycles {
		t.Errorf("no speedup: transrec %d vs gpp %d cycles", rep.TotalCycles, gppCycles)
	}
	if rep.TotalCycles != rep.GPPCycles+rep.CGRACycles {
		t.Error("cycle accounting inconsistent")
	}
	if rep.TotalInstrs != rep.GPPInstrs+rep.CGRAInstrs {
		t.Error("instruction accounting inconsistent")
	}
}

// loopReference mirrors loopProgram's arithmetic.
func loopReference(n int) uint32 {
	var sum uint32
	for i := uint32(0); i < uint32(n); i++ {
		sum += (i << 1) + (i ^ sum)
	}
	return sum
}

// Architectural results must be identical regardless of allocator: movement
// changes where configurations execute, never what they compute.
func TestAllocatorsPreserveArchitecturalState(t *testing.T) {
	g := fabric.NewGeometry(2, 16)
	allocators := []alloc.Allocator{
		alloc.Baseline{},
		alloc.NewUtilizationAware(g),
		alloc.NewUtilizationAware(g, WithDiagonal()),
		alloc.NewHealthAware(g),
	}
	var want uint32
	for i, a := range allocators {
		c := loopCore(t)
		e := newTestEngine(t, a)
		if _, err := e.Run(c, 1_000_000); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = c.Regs[isa.A0]
			continue
		}
		if c.Regs[isa.A0] != want {
			t.Errorf("%s changed the result: %d vs %d", a.Name(), c.Regs[isa.A0], want)
		}
	}
}

// WithDiagonal is a tiny helper to keep the table above readable.
func WithDiagonal() alloc.Option { return alloc.WithPattern(alloc.Diagonal{}) }

func TestBaselineUtilizationBiasedTopLeft(t *testing.T) {
	c := loopCore(t)
	e := newTestEngine(t, alloc.Baseline{})
	rep, err := e.Run(c, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	u := rep.Util
	maxD, cell := u.Max()
	if maxD == 0 {
		t.Fatal("no utilization recorded")
	}
	if cell.Col > 2 {
		t.Errorf("hottest FU at %v, expected near column 0 (greedy corner bias)", cell)
	}
	// Row 0 must be at least as hot as row 1 on average.
	var r0, r1 float64
	for col := 0; col < u.Geom.Cols; col++ {
		r0 += u.At(0, col)
		r1 += u.At(1, col)
	}
	if r0 < r1 {
		t.Errorf("row 0 avg %v < row 1 avg %v; greedy bias missing", r0, r1)
	}
}

func TestRotationFlattensUtilization(t *testing.T) {
	g := fabric.NewGeometry(2, 16)
	run := func(a alloc.Allocator) *Report {
		c := loopCore(t)
		e := newTestEngine(t, a)
		rep, err := e.Run(c, 1_000_000)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	base := run(alloc.Baseline{})
	rot := run(alloc.NewUtilizationAware(g))

	bMax, _ := base.Util.Max()
	rMax, _ := rot.Util.Max()
	if rMax >= bMax {
		t.Errorf("rotation did not reduce worst-case duty: %v vs %v", rMax, bMax)
	}
	// Averages should be close: rotation redistributes, it does not add
	// work (durations can differ slightly via reconfiguration charges).
	if ratio := rot.Util.Avg() / base.Util.Avg(); ratio < 0.8 || ratio > 1.25 {
		t.Errorf("rotation changed average duty too much: ratio %v", ratio)
	}
}

func TestRotationPerformanceOverheadNegligible(t *testing.T) {
	g := fabric.NewGeometry(2, 16)
	run := func(a alloc.Allocator) uint64 {
		c := loopCore(t)
		e := newTestEngine(t, a)
		rep, err := e.Run(c, 1_000_000)
		if err != nil {
			t.Fatal(err)
		}
		return rep.TotalCycles
	}
	base := run(alloc.Baseline{})
	rot := run(alloc.NewUtilizationAware(g))
	overhead := float64(rot)/float64(base) - 1
	if overhead > 0.02 {
		t.Errorf("rotation performance overhead %.2f%% exceeds 2%%", overhead*100)
	}
}

func TestEarlyExitOnDivergentBranch(t *testing.T) {
	// A loop with a data-dependent inner branch: configurations capturing
	// one direction must early-exit when the other direction occurs.
	src := `
	_start:
		li   s0, 0
		li   s1, 0
		li   s2, 300
	loop:
		andi t0, s1, 3
		beqz t0, skip
		addi s0, s0, 7
	skip:
		addi s0, s0, 1
		addi s1, s1, 1
		blt  s1, s2, loop
		mv   a0, s0
		ecall
	`
	p, err := isa.Assemble(src, isa.AsmOptions{TextBase: gpp.TextBase})
	if err != nil {
		t.Fatal(err)
	}
	c := gpp.New(p)
	e := newTestEngine(t, nil)
	rep, err := e.Run(c, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	want := uint32(300 + 225*7)
	if c.Regs[isa.A0] != want {
		t.Fatalf("result %d, want %d", c.Regs[isa.A0], want)
	}
	if rep.Offloads > 0 && rep.EarlyExits == 0 {
		t.Error("data-dependent branch never caused an early exit")
	}
}

func TestProfitGate(t *testing.T) {
	// With the gate on, no configuration may be projected slower than GPP.
	c := loopCore(t)
	e := newTestEngine(t, nil)
	rep, err := e.Run(c, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range e.Cache().Configs() {
		var gppCycles uint64
		tm := gpp.DefaultTiming()
		for _, op := range cfg.Ops {
			gppCycles += tm.CyclesFor(op.Inst, op.Taken)
		}
		if 4+cfg.ExecCycles() >= gppCycles {
			t.Errorf("unprofitable config at %#x cached", cfg.StartPC)
		}
	}
	_ = rep
}

func TestEngineOnRealBenchmark(t *testing.T) {
	b, _ := prog.ByName("crc32")
	c, err := b.NewCore(prog.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	e := newTestEngine(t, nil)
	rep, err := e.Run(c, b.MaxInstructions)
	if err != nil {
		t.Fatal(err)
	}
	// Architectural correctness through the whole engine.
	if err := b.Check(c.Mem, c.Regs[isa.A0], prog.Tiny); err != nil {
		t.Fatal(err)
	}
	if rep.Offloads == 0 {
		t.Error("crc32 hot loop never offloaded")
	}
	if rep.Translations == 0 || rep.Cache.Insertions == 0 {
		t.Error("no translations recorded")
	}
}

// hookAllocator is the baseline allocator with fabric events at chosen
// proposals: at[n] runs when Next is called the n-th time, so a test can
// move the fabric state between two offloads of one run, the way a
// quarantine moves the observed health map.
type hookAllocator struct {
	alloc.Baseline
	calls int
	at    map[int]func()
}

func (a *hookAllocator) Next(cfg *fabric.Config) fabric.Offset {
	a.calls++
	if f := a.at[a.calls]; f != nil {
		f()
	}
	return a.Baseline.Next(cfg)
}

// TestUnplaceableConfigFallsBackToGPP kills the whole fabric in the middle
// of a run, at the placement of its killAt-th offload: the cached
// configurations (translated healthy) have no live placement left, so the
// baseline allocator cannot move them and every later offload must fall
// back to the GPP — with the architectural result still correct and every
// later instruction attributed to the GPP.
func TestUnplaceableConfigFallsBackToGPP(t *testing.T) {
	const killAt = 5
	b, _ := prog.ByName("crc32")
	geom := fabric.NewGeometry(2, 8)
	run := func(kill bool) (*Report, *gpp.Core) {
		t.Helper()
		health := fabric.NewHealth(geom)
		a := &hookAllocator{}
		if kill {
			a.at = map[int]func(){killAt: func() {
				for r := 0; r < geom.Rows; r++ {
					for col := 0; col < geom.Cols; col++ {
						health.Kill(fabric.Cell{Row: r, Col: col})
					}
				}
			}}
		}
		e, err := NewEngine(Options{Geom: geom, Health: health, Allocator: a})
		if err != nil {
			t.Fatal(err)
		}
		c, err := b.NewCore(prog.Tiny)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := e.Run(c, b.MaxInstructions)
		if err != nil {
			t.Fatal(err)
		}
		return rep, c
	}

	healthy, _ := run(false)
	if healthy.Offloads <= killAt {
		t.Fatalf("healthy run offloaded %d times; the fallback test needs more than %d", healthy.Offloads, killAt)
	}
	rep, c := run(true)
	if err := b.Check(c.Mem, c.Regs[isa.A0], prog.Tiny); err != nil {
		t.Fatalf("wrong result on fully dead fabric: %v", err)
	}
	// The offload whose placement killed the fabric still ran; none after.
	if rep.Offloads != killAt {
		t.Errorf("dead fabric still offloaded: %d offloads, want %d", rep.Offloads, killAt)
	}
	if rep.GPPFallbacks == 0 {
		t.Error("no offload fell back to the GPP on the dead fabric")
	}
	if rep.CGRAInstrs >= healthy.CGRAInstrs {
		t.Errorf("dead fabric executed %d CGRA instructions, the healthy run %d", rep.CGRAInstrs, healthy.CGRAInstrs)
	}
	if got := rep.GPPInstrs + rep.CGRAInstrs; got != c.RetiredCount() {
		t.Errorf("report attributed %d instrs, want all %d retired", got, c.RetiredCount())
	}
}

// TestUnplaceableMemoSparesProposals pins what the unplaceable memo
// spares: once the controller's skip-scan has proposed every pivot of a
// configuration and found none live, later offloads of that configuration
// under the same fabric state fall back to the GPP without proposing again.
// The fabric dies whole at the killAt-th proposal, so every configuration
// offloaded afterwards is unplaceable and must see exactly one scan of
// NumFUs proposals however often it comes back.
func TestUnplaceableMemoSparesProposals(t *testing.T) {
	const killAt = 5
	b, _ := prog.ByName("crc32")
	geom := fabric.NewGeometry(2, 8)
	health := fabric.NewHealth(geom)
	a := &countingAllocator{after: killAt, proposals: make(map[uint32]int)}
	a.at = map[int]func(){killAt: func() {
		for r := 0; r < geom.Rows; r++ {
			for col := 0; col < geom.Cols; col++ {
				health.Kill(fabric.Cell{Row: r, Col: col})
			}
		}
	}}
	e, err := NewEngine(Options{Geom: geom, Health: health, Allocator: a})
	if err != nil {
		t.Fatal(err)
	}
	c, err := b.NewCore(prog.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Run(c, b.MaxInstructions)
	if err != nil {
		t.Fatal(err)
	}
	proposals := a.proposals
	if len(proposals) == 0 {
		t.Fatal("no configuration was offloaded on the dead fabric")
	}
	// Without repeats the memo would have nothing to spare.
	if rep.GPPFallbacks <= uint64(len(proposals)) {
		t.Fatalf("%d fallbacks for %d unplaceable configurations: no configuration came back",
			rep.GPPFallbacks, len(proposals))
	}
	for pc, n := range proposals {
		if n != geom.NumFUs() {
			t.Errorf("configuration at %#x saw %d proposals on the dead fabric, want one scan of %d",
				pc, n, geom.NumFUs())
		}
	}
}

// countingAllocator is a hookAllocator that counts, per StartPC, the
// proposals made after its after-th.
type countingAllocator struct {
	hookAllocator
	after     int
	proposals map[uint32]int
}

func (a *countingAllocator) Next(cfg *fabric.Config) fabric.Offset {
	off := a.hookAllocator.Next(cfg)
	if a.calls > a.after {
		a.proposals[cfg.StartPC]++
	}
	return off
}

func TestRunGPPOnlyMatchesInterpreter(t *testing.T) {
	c := loopCore(t)
	cycles, classes, err := RunGPPOnly(c, gpp.DefaultTiming(), 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if cycles == 0 || classes.Total() != c.RetiredCount() {
		t.Errorf("cycles=%d classTotal=%d retired=%d", cycles, classes.Total(), c.RetiredCount())
	}
	if c.Regs[isa.A0] != loopReference(200) {
		t.Error("GPP-only run corrupted result")
	}
}

// TestWordsPriceStreamAndGuardRuns checks a word table against the
// interpreter-driven pricing of RunGPPOnly, and that RunStream refuses a
// table of another program or timing.
func TestWordsPriceStreamAndGuardRuns(t *testing.T) {
	s, err := gpp.Record(loopCore(t), 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	cycles, classes, err := RunGPPOnly(loopCore(t), gpp.Timing{}, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWords(s.Prog, gpp.Timing{})
	if gotCycles, gotClasses := w.Price(s.Retires); gotCycles != cycles || gotClasses != classes {
		t.Errorf("table priced %d cycles %v, RunGPPOnly %d cycles %v", gotCycles, gotClasses, cycles, classes)
	}
	slow := gpp.DefaultTiming()
	slow.Load++
	foreign := loopCore(t).Program()
	for name, bad := range map[string]*Words{"timing": NewWords(s.Prog, slow), "program": NewWords(foreign, gpp.Timing{})} {
		if _, err := newTestEngine(t, nil).RunStream(s, bad); err == nil {
			t.Errorf("RunStream accepted a table of another %s", name)
		}
	}
	if _, err := newTestEngine(t, nil).RunStream(s, w); err != nil {
		t.Errorf("RunStream refused the stream's own table: %v", err)
	}
}

func TestEngineLimit(t *testing.T) {
	p, err := isa.Assemble("loop: j loop", isa.AsmOptions{TextBase: gpp.TextBase})
	if err != nil {
		t.Fatal(err)
	}
	e := newTestEngine(t, nil)
	if _, err := e.Run(gpp.New(p), 1000); err == nil {
		t.Fatal("expected instruction-limit error")
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := NewEngine(Options{}); err == nil {
		t.Error("zero geometry accepted")
	}
}

// TestReusedEngineMatchesFreshPerProgram runs one engine over a pair of
// suite programs and checks that the second run's report equals a fresh
// engine's report for that program: every run starts clean. The suite
// shares one text base, so an engine keeping the first program's PC-keyed
// translations or unplaceable memo would offload them in the second and
// account the first program's instruction classes there. Stale
// translations around dead columns fill the unplaceable memo. Under the
// baseline allocator's fixed pivot a configuration of the first program
// left on the fabric would spare the second a reconfiguration event.
func TestReusedEngineMatchesFreshPerProgram(t *testing.T) {
	g := fabric.NewGeometry(2, 16)
	dead, err := fabric.PatternCells("columns:0+8", g)
	if err != nil {
		t.Fatal(err)
	}
	// counts flattens the report's event counts.
	counts := func(r *Report) []uint64 {
		c := r.Cache
		out := []uint64{r.GPPCycles, r.CGRACycles, r.Translations, r.Offloads, r.ReconfigEvents,
			r.GPPFallbacks, c.Hits, c.Misses, c.Insertions, c.Evictions, c.Flushes}
		out = append(out, r.GPPClasses[:]...)
		return append(out, r.CGRAClasses[:]...)
	}
	run := func(e *Engine, b *prog.Benchmark) []uint64 {
		t.Helper()
		c, err := b.NewCore(prog.Tiny)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := e.Run(c, b.MaxInstructions)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		return counts(rep)
	}

	suite := prog.All()
	for _, tc := range []struct {
		rotate, stale bool
	}{{false, false}, {false, true}, {true, false}, {true, true}} {
		newEngine := func() *Engine {
			opts := Options{Geom: g}
			if tc.rotate {
				opts.Allocator = alloc.NewUtilizationAware(g)
			}
			if tc.stale {
				opts.StaleTranslations = true
				if opts.Health, err = fabric.NewHealthWithDead(g, dead); err != nil {
					t.Fatal(err)
				}
			}
			e, err := NewEngine(opts)
			if err != nil {
				t.Fatal(err)
			}
			return e
		}
		fresh := make([][]uint64, len(suite))
		for i, b := range suite {
			fresh[i] = run(newEngine(), b)
		}
		for i, a := range suite {
			// Every benchmark follows two others, and precedes two.
			for _, j := range []int{(i + 1) % len(suite), (i + 3) % len(suite)} {
				b := suite[j]
				e := newEngine()
				run(e, a)
				if got := run(e, b); !slices.Equal(got, fresh[j]) {
					t.Errorf("%+v: %s after %s: reused engine's report\n got  %v\n want %v",
						tc, b.Name, a.Name, got, fresh[j])
				}
			}
		}
	}
}
