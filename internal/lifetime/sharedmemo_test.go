package lifetime

import (
	"encoding/json"
	"math"
	"testing"

	"agingcgra/internal/aging"
	"agingcgra/internal/dse"
	"agingcgra/internal/fabric"
	"agingcgra/internal/memostore"
	recov "agingcgra/internal/recover"
)

func sharedMemoScenario(maxYears float64) Scenario {
	return Scenario{
		Geom:        fabric.NewGeometry(2, 8),
		Factory:     dse.BaselineFactory,
		Mix:         []string{"crc32"},
		EpochYears:  0.5,
		MaxYears:    maxYears,
		Fingerprint: "test-shared-memo-crc32-2x8-baseline",
	}
}

// TestSharedEpochMemoWarmEqualsCold pins the service's determinism
// foundation: a run against a warm cross-request store is byte-identical to
// a cold run, and the warm run actually hits the store.
func TestSharedEpochMemoWarmEqualsCold(t *testing.T) {
	cold := sharedMemoScenario(3)
	coldRes, err := Run(cold)
	if err != nil {
		t.Fatal(err)
	}
	coldJSON, _ := json.Marshal(coldRes)

	store := memostore.New(0)
	first := sharedMemoScenario(3)
	first.EpochMemo = store
	if _, err := Run(first); err != nil {
		t.Fatal(err)
	}
	missesAfterFirst := store.Stats().Misses

	warm := sharedMemoScenario(3)
	warm.EpochMemo = store
	warmRes, err := Run(warm)
	if err != nil {
		t.Fatal(err)
	}
	warmJSON, _ := json.Marshal(warmRes)
	if string(coldJSON) != string(warmJSON) {
		t.Fatal("warm-store run differs from cold run")
	}
	st := store.Stats()
	if st.Hits == 0 {
		t.Fatalf("warm run never hit the shared store: %+v", st)
	}
	if st.Misses != missesAfterFirst {
		t.Fatalf("warm run of an identical scenario recomputed epochs: %+v", st)
	}
}

// TestSharedEpochMemoSharesAcrossHorizons pins the simplest case of the
// fingerprint's exclusions: scenarios differing only in MaxYears share a
// trajectory prefix, so a longer run reuses the shorter run's epochs and
// still matches its own cold computation byte for byte.
func TestSharedEpochMemoSharesAcrossHorizons(t *testing.T) {
	store := memostore.New(0)
	short := sharedMemoScenario(2)
	short.EpochMemo = store
	if _, err := Run(short); err != nil {
		t.Fatal(err)
	}

	long := sharedMemoScenario(4)
	long.EpochMemo = store
	longRes, err := Run(long)
	if err != nil {
		t.Fatal(err)
	}
	if store.Stats().Hits == 0 {
		t.Fatal("longer horizon never reused the shorter run's epochs")
	}

	coldLong, err := Run(sharedMemoScenario(4))
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(longRes)
	b, _ := json.Marshal(coldLong)
	if string(a) != string(b) {
		t.Fatal("store-assisted long run differs from cold long run")
	}
}

// TestSharedEpochMemoIgnoredWithRecovery pins the soundness guard: a
// recovery monitor's cross-epoch state mutates inside runEpoch, so such
// scenarios must never consult the shared store.
func TestSharedEpochMemoIgnoredWithRecovery(t *testing.T) {
	store := memostore.New(0)
	sc := sharedMemoScenario(2)
	sc.EpochMemo = store
	sc.Recovery = &recov.Policy{}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Recovery == nil {
		t.Fatal("recovery report missing")
	}
	st := store.Stats()
	if st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("recovery scenario touched the shared epoch store: %+v", st)
	}
}

// atKelvin returns sc at a constant operating point of k kelvin.
func atKelvin(sc Scenario, k float64) Scenario {
	sc.Cond = aging.DefaultConditions()
	sc.Cond.TemperatureK = k
	return sc
}

// runThroughStore runs every scenario cold and then against one shared
// store, in order, and requires each store-assisted run to equal its own
// cold run byte for byte. It returns the store's counters.
func runThroughStore(t *testing.T, scs []Scenario) memostore.Stats {
	t.Helper()
	store := memostore.New(0)
	for i, sc := range scs {
		cold, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		sc.EpochMemo = store
		warm, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		a, _ := json.Marshal(cold)
		b, _ := json.Marshal(warm)
		if string(a) != string(b) {
			t.Errorf("scenario %d (%s): store-assisted run differs from its cold run", i, cold.Name)
		}
	}
	return store.Stats()
}

// TestSharedEpochMemoSharesAcrossOperatingPoints pins the fingerprint's
// contract: it covers the co-simulation inputs only, so scenarios that
// differ in temperature, phase profile, epoch length or injected dead
// cells share one store. Each group below goes through one store, which
// must see hits (every group shares at least the states its runs start
// from), and every run must still equal its own cold run. The dead-pattern
// group also puts a healthy run and two dead-column runs under one
// fingerprint: their dead masks differ, so they must not collide.
func TestSharedEpochMemoSharesAcrossOperatingPoints(t *testing.T) {
	hot := aging.DefaultConditions()
	hot.TemperatureK = 365
	twoPhase := []Phase{
		{UntilYears: 2, Cond: aging.DefaultConditions()},
		{UntilYears: math.Inf(1), Cond: hot},
	}
	column, err := fabric.PatternCells("column:3", fabric.NewGeometry(2, 8))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct {
		name    string
		factory dse.AllocatorFactory
	}{
		{"baseline", dse.BaselineFactory},
		{"utilization-aware", dse.ProposedFactory},
	} {
		base := Scenario{
			Geom:        fabric.NewGeometry(2, 8),
			Factory:     f.factory,
			Mix:         []string{"crc32"},
			EpochYears:  0.5,
			MaxYears:    6,
			Fingerprint: "test-operating-points-crc32-2x8-" + f.name,
		}
		profiled := base
		profiled.Profile = twoPhase
		quarter := atKelvin(base, 350)
		quarter.EpochYears = 0.25
		dead := func(k float64) Scenario {
			sc := atKelvin(base, k)
			sc.InitialDead = column
			return sc
		}
		for _, g := range []struct {
			name string
			scs  []Scenario
		}{
			{"temperature", []Scenario{atKelvin(base, 335), atKelvin(base, 350), atKelvin(base, 365)}},
			{"profile", []Scenario{atKelvin(base, 350), profiled}},
			{"epoch length", []Scenario{atKelvin(base, 350), quarter}},
			{"dead pattern", []Scenario{atKelvin(base, 350), dead(335), dead(365)}},
		} {
			t.Run(f.name+"/"+g.name, func(t *testing.T) {
				if st := runThroughStore(t, g.scs); st.Hits == 0 {
					t.Fatalf("no scenario reused another's epochs: %+v", st)
				}
			})
		}
	}
}

// TestSharedEpochMemoKeysWearOnContent pins the wear half of the shared
// key. Wear-adaptive scenarios (the explorer; shape-aware translation)
// read the wear map, and at another operating point the same number of
// epochs accrues the same wear version with different content, so the
// shared key must carry the content. Runs at three temperatures go through
// one store; each must equal its own cold run, and the fresh-fabric epoch
// they all start from must be shared.
func TestSharedEpochMemoKeysWearOnContent(t *testing.T) {
	explore := Scenario{
		Geom:        fabric.NewGeometry(2, 8),
		Factory:     dse.ExploreFactory,
		Mix:         []string{"crc32"},
		EpochYears:  0.5,
		MaxYears:    6,
		Fingerprint: "test-wear-content-crc32-2x8-explore",
	}
	shaped := explore
	shaped.Factory = dse.BaselineFactory
	shaped.Engine.ShapeTranslations = true
	shaped.Fingerprint = "test-wear-content-crc32-2x8-baseline-shaped"
	for _, base := range []Scenario{explore, shaped} {
		t.Run(base.Fingerprint, func(t *testing.T) {
			st := runThroughStore(t, []Scenario{atKelvin(base, 335), atKelvin(base, 350), atKelvin(base, 365)})
			if st.Hits == 0 {
				t.Fatalf("no run reused the fresh-fabric epoch: %+v", st)
			}
		})
	}
}
