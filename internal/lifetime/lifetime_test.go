package lifetime

import (
	"math"
	"testing"

	"agingcgra/internal/aging"
	"agingcgra/internal/dse"
	"agingcgra/internal/fabric"
)

// beScenario is the fast test scenario: the BE design with a single-kernel
// mix at tiny scale.
func beScenario(factory dse.AllocatorFactory, maxYears float64) Scenario {
	return Scenario{
		Geom:       fabric.NewGeometry(2, 16),
		Factory:    factory,
		Mix:        []string{"crc32"},
		EpochYears: 0.25,
		MaxYears:   maxYears,
	}
}

func TestRunBaselineTimeline(t *testing.T) {
	res, err := Run(beScenario(dse.BaselineFactory, 6))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(res.Timeline), 24; got != want {
		t.Fatalf("timeline length %d, want %d", got, want)
	}
	// The baseline concentrates stress: some FU sits at duty ~1, so the
	// first death lands at the model's 3-year calibration point.
	if math.Abs(res.FirstDeathYears-3.0) > 0.11 {
		t.Errorf("baseline first death at %v years, want ~3 (worst duty ~1)", res.FirstDeathYears)
	}
	if res.TotalDeaths == 0 || res.AliveFraction >= 1 {
		t.Errorf("expected deaths over 6 years: %d dead, alive %v", res.TotalDeaths, res.AliveFraction)
	}
	first := res.Timeline[0]
	if first.WorstUtil <= 0.9 {
		t.Errorf("baseline worst duty %v, want ~1 (Fig. 1's concentrated wear)", first.WorstUtil)
	}
	if first.Speedup <= 1 {
		t.Errorf("healthy BE fabric should accelerate crc32, got speedup %v", first.Speedup)
	}
	// Monotone time, alive fraction never increasing, guardband consistent.
	years := 0.0
	alive := 1.0
	for i, rec := range res.Timeline {
		if rec.Years <= years {
			t.Fatalf("epoch %d: years %v not increasing", i, rec.Years)
		}
		years = rec.Years
		if rec.AliveFraction > alive {
			t.Fatalf("epoch %d: alive fraction grew %v -> %v", i, alive, rec.AliveFraction)
		}
		alive = rec.AliveFraction
		if want := 1 / (1 + rec.WorstDelay); math.Abs(rec.GuardbandFreq-want) > 1e-12 {
			t.Fatalf("epoch %d: guardband %v inconsistent with delay %v", i, rec.GuardbandFreq, rec.WorstDelay)
		}
	}
}

func TestEpochMemoizationOnlyAcrossUnchangedHealth(t *testing.T) {
	res, err := Run(beScenario(dse.BaselineFactory, 6))
	if err != nil {
		t.Fatal(err)
	}
	if res.Timeline[0].Replayed {
		t.Error("first epoch can never be a replay")
	}
	sawReplay := false
	for i := 1; i < len(res.Timeline); i++ {
		prev, cur := res.Timeline[i-1], res.Timeline[i]
		if cur.Replayed {
			sawReplay = true
			if len(prev.Deaths) > 0 {
				t.Errorf("epoch %d replayed although epoch %d killed cells", i, i-1)
			}
			if cur.Speedup != prev.Speedup || cur.WorstUtil != prev.WorstUtil {
				t.Errorf("epoch %d: replayed run differs from predecessor", i)
			}
		} else if len(prev.Deaths) == 0 {
			t.Errorf("epoch %d re-simulated although health did not change", i)
		}
	}
	if !sawReplay {
		t.Error("expected memoized epochs between failure events")
	}
}

func TestRotationOutlivesBaseline(t *testing.T) {
	base, err := Run(beScenario(dse.BaselineFactory, 14))
	if err != nil {
		t.Fatal(err)
	}
	prop, err := Run(beScenario(dse.ProposedFactory, 14))
	if err != nil {
		t.Fatal(err)
	}
	if base.FirstDeathYears == 0 || prop.FirstDeathYears == 0 {
		t.Fatalf("expected deaths in both scenarios: base %v, prop %v",
			base.FirstDeathYears, prop.FirstDeathYears)
	}
	if prop.FirstDeathYears <= base.FirstDeathYears {
		t.Fatalf("utilization-aware first death %v should be after baseline %v",
			prop.FirstDeathYears, base.FirstDeathYears)
	}
}

func TestHotterConditionsShortenLifetime(t *testing.T) {
	nominal := beScenario(dse.BaselineFactory, 6)
	hot := beScenario(dse.BaselineFactory, 6)
	hot.Cond = aging.DefaultConditions()
	hot.Cond.TemperatureK += 30

	rn, err := Run(nominal)
	if err != nil {
		t.Fatal(err)
	}
	rh, err := Run(hot)
	if err != nil {
		t.Fatal(err)
	}
	if rn.FirstDeathYears == 0 || rh.FirstDeathYears == 0 {
		t.Fatal("expected deaths in both runs")
	}
	if rh.FirstDeathYears >= rn.FirstDeathYears {
		t.Errorf("hot part first death %v, want earlier than nominal %v",
			rh.FirstDeathYears, rn.FirstDeathYears)
	}
	af := rn.FirstDeathYears / rh.FirstDeathYears
	m := aging.NewModel()
	if want := m.AccelerationFactor(hot.Cond); math.Abs(af-want)/want > 0.15 {
		t.Errorf("lifetime ratio %v, want ~acceleration factor %v", af, want)
	}
}

func TestProfileSwitchesConditions(t *testing.T) {
	// Two years cool, then hot: the first death must land between the
	// all-cool and all-hot extremes.
	hot := aging.DefaultConditions()
	hot.TemperatureK += 30
	sc := beScenario(dse.BaselineFactory, 6)
	sc.Profile = []Phase{
		{UntilYears: 2, Cond: aging.DefaultConditions()},
		{UntilYears: math.Inf(1), Cond: hot},
	}
	mixed, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	allCool, err := Run(beScenario(dse.BaselineFactory, 6))
	if err != nil {
		t.Fatal(err)
	}
	scHot := beScenario(dse.BaselineFactory, 6)
	scHot.Cond = hot
	allHot, err := Run(scHot)
	if err != nil {
		t.Fatal(err)
	}
	if !(mixed.FirstDeathYears > allHot.FirstDeathYears &&
		mixed.FirstDeathYears < allCool.FirstDeathYears) {
		t.Errorf("mixed-profile first death %v, want within (%v, %v)",
			mixed.FirstDeathYears, allHot.FirstDeathYears, allCool.FirstDeathYears)
	}
}

func TestScenarioValidation(t *testing.T) {
	bad := beScenario(nil, 6)
	bad.Mix = []string{"no-such-kernel"}
	if _, err := Run(bad); err == nil {
		t.Error("unknown benchmark accepted")
	}
	bad = beScenario(nil, 6)
	bad.EpochYears = -1
	if _, err := Run(bad); err == nil {
		t.Error("negative epoch accepted")
	}
	bad = beScenario(nil, 0.1)
	bad.EpochYears = 0.5
	bad.MaxYears = 0.1
	if _, err := Run(bad); err == nil {
		t.Error("horizon shorter than one epoch accepted")
	}
}

func TestDeathAgesConsistent(t *testing.T) {
	res, err := Run(beScenario(dse.BaselineFactory, 8))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DeathAges) != res.TotalDeaths {
		t.Fatalf("%d death ages for %d deaths", len(res.DeathAges), res.TotalDeaths)
	}
	if res.TotalDeaths == 0 {
		t.Fatal("expected deaths within 8 years on the baseline")
	}
	if res.DeathAges[0] != res.FirstDeathYears {
		t.Errorf("DeathAges[0] = %v, FirstDeathYears = %v", res.DeathAges[0], res.FirstDeathYears)
	}
	for i := 1; i < len(res.DeathAges); i++ {
		if res.DeathAges[i] < res.DeathAges[i-1] {
			t.Fatalf("death ages not ascending at %d: %v", i, res.DeathAges)
		}
	}
	if res.NthDeathYears(1) != res.FirstDeathYears {
		t.Error("NthDeathYears(1) != FirstDeathYears")
	}
	if res.NthDeathYears(0) != 0 || res.NthDeathYears(len(res.DeathAges)+1) != 0 {
		t.Error("out-of-range NthDeathYears should read 0")
	}
}

// TestExplorerOutlivesSkipScanAfterFailures is the package-level form of the
// headline claim: with wear feedback the explorer's time to the second FU
// death is no earlier than the snake rotation's, whose skip-scan keeps
// re-concentrating post-failure wear on whichever survivors come next in
// the pattern.
func TestExplorerOutlivesSkipScanAfterFailures(t *testing.T) {
	snake, err := Run(beScenario(dse.ProposedFactory, 40))
	if err != nil {
		t.Fatal(err)
	}
	explored, err := Run(beScenario(dse.ExploreFactory, 40))
	if err != nil {
		t.Fatal(err)
	}
	if snake.NthDeathYears(2) == 0 || explored.NthDeathYears(2) == 0 {
		t.Fatalf("expected at least two deaths each: snake %v, explore %v",
			snake.DeathAges, explored.DeathAges)
	}
	if explored.NthDeathYears(2) < snake.NthDeathYears(2) {
		t.Errorf("explorer second death %v years, earlier than snake %v",
			explored.NthDeathYears(2), snake.NthDeathYears(2))
	}
}

// clusteredScenario injects a named failure pattern before the first epoch
// under stale translations: configurations are mapped for the pristine
// fabric, so the cluster decides who stays on the CGRA.
func clusteredScenario(factory dse.AllocatorFactory, pattern string, maxYears float64) Scenario {
	sc := beScenario(factory, maxYears)
	cells, err := fabric.PatternCells(pattern, sc.Geom)
	if err != nil {
		panic(err)
	}
	sc.InitialDead = cells
	sc.Engine.StaleTranslations = true
	return sc
}

// TestClusteredFailureRemapStaysOnFabric pins the lifetime-level headline
// of the shape-adaptive remapper: with everything dead but one row and
// stale translations, the explorer (translation-only) offloads nothing —
// its first epoch runs entirely on the GPP — while the remap allocator
// keeps the kernel on-fabric with a real speedup. Injected cells count
// toward the alive fraction but never toward the aging death ages.
func TestClusteredFailureRemapStaysOnFabric(t *testing.T) {
	exp, err := Run(clusteredScenario(dse.ExploreFactory, "survivor-row:1", 3))
	if err != nil {
		t.Fatal(err)
	}
	rmp, err := Run(clusteredScenario(dse.RemapFactory, "survivor-row:1", 3))
	if err != nil {
		t.Fatal(err)
	}

	if got := exp.Timeline[0].Offloads; got != 0 {
		t.Errorf("explorer offloaded %d times through a one-row fabric with stale translations; want 0", got)
	}
	if got := rmp.Timeline[0].Offloads; got == 0 {
		t.Error("remap allocator fell back to the GPP on the survivor row")
	}
	if exp.Timeline[0].Speedup > 1+1e-9 {
		t.Errorf("explorer speedup %v on a GPP-only epoch; want no acceleration", exp.Timeline[0].Speedup)
	}
	if rmp.InitialSpeedup <= 1 {
		t.Errorf("remap speedup %v under the clustered failure; want a real acceleration", rmp.InitialSpeedup)
	}
	if rmp.InitialSpeedup <= exp.InitialSpeedup {
		t.Errorf("remap speedup %v not above explorer's %v under the clustered failure",
			rmp.InitialSpeedup, exp.InitialSpeedup)
	}

	for _, r := range []*Result{exp, rmp} {
		if af := r.Timeline[0].AliveFraction; af > 0.5+1e-9 {
			t.Errorf("%s: alive fraction %v does not reflect the injected cluster", r.Name, af)
		}
		for _, age := range r.DeathAges {
			if age <= 0 {
				t.Errorf("%s: injected failure leaked into the death ages: %v", r.Name, r.DeathAges)
			}
		}
	}
}

// TestEpochMemoKeyCoversRemapState pins the memo-key extension for the
// shape-adaptive allocator: remap is wear-adaptive (its anchor choice and
// shape cache re-rank on every wear advance), so epochs must re-simulate
// while wear accrues; a wear-adaptive scenario whose fabric sees no duty
// at all — the explorer stuck on the GPP — accrues no wear and must replay
// from memo.
func TestEpochMemoKeyCoversRemapState(t *testing.T) {
	exp, err := Run(clusteredScenario(dse.ExploreFactory, "survivor-row:1", 2))
	if err != nil {
		t.Fatal(err)
	}
	rmp, err := Run(clusteredScenario(dse.RemapFactory, "survivor-row:1", 2))
	if err != nil {
		t.Fatal(err)
	}
	// GPP-only epochs leave wear untouched: the memo must kick in.
	if !exp.Timeline[1].Replayed {
		t.Error("explorer epoch 1 re-simulated although neither health nor wear changed")
	}
	// The remapped kernel keeps stressing the survivor row, so wear moves
	// every epoch and the memo must not replay stale shape decisions.
	if rmp.Timeline[1].Replayed {
		t.Error("remap epoch 1 replayed although wear (and the shape-cache ranking) advanced")
	}
}

// TestEpochMemoKeyCoversShapeTranslationState pins the memo-key extension
// for translation-time shape search: the engine's ladder search observes
// the wear map (the tie-break) and the translation cache keys on the
// (health, wear) state, so a scenario with ShapeTranslations is
// wear-adaptive even under a wear-blind allocator — while wear accrues,
// epochs must re-simulate, never replay a stale shape decision from memo.
func TestEpochMemoKeyCoversShapeTranslationState(t *testing.T) {
	sc := beScenario(dse.BaselineFactory, 2)
	sc.Engine.ShapeTranslations = true
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Timeline[0].Offloads == 0 {
		t.Fatal("shape-translating baseline scenario never offloaded; the memo property is vacuous")
	}
	if res.Timeline[1].Replayed {
		t.Error("shape-translation epoch 1 replayed although wear (and the ladder tie-break's input) advanced")
	}

	// The same allocator without shape translations is wear-blind: epoch 1
	// must replay from memo, proving the re-simulation above really keys on
	// the engine's shape-search state and not on something else.
	plain, err := Run(beScenario(dse.BaselineFactory, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Timeline[1].Replayed {
		t.Error("plain baseline epoch 1 re-simulated; health and wear key unchanged")
	}
}
