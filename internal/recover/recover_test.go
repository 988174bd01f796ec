package recover

import (
	"testing"

	"agingcgra/internal/fabric"
)

func TestPolicyDefaultsAndValidate(t *testing.T) {
	var p Policy
	p.ApplyDefaults()
	want := Policy{CheckEvery: 4, MaxRetries: 2, QuarantineAfter: 3, ProbationProbes: 8, ProbesPerEpoch: 4}
	if p != want {
		t.Errorf("defaults %+v, want %+v", p, want)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("defaults should validate: %v", err)
	}
	bad := Policy{CheckEvery: -1}
	if err := bad.Validate(); err == nil {
		t.Error("negative knob should fail validation")
	}
}

func TestDrawExecDeterministicAndHardDeathsAlwaysFault(t *testing.T) {
	g := fabric.NewGeometry(2, 4)
	truth := fabric.NewHealth(g)
	truth.Kill(fabric.Cell{Row: 0, Col: 1})
	faults := fabric.NewFaults(g)
	faults.Set(fabric.Cell{Row: 1, Col: 2}, 0.5)

	run := func() []bool {
		m := NewMonitor(g, Policy{}, truth, faults, 7)
		m.BeginEpoch(3)
		var out []bool
		dead := []fabric.Cell{{Row: 0, Col: 1}}
		risky := []fabric.Cell{{Row: 1, Col: 2}}
		clean := []fabric.Cell{{Row: 1, Col: 0}}
		for i := 0; i < 16; i++ {
			out = append(out, m.DrawExec(dead, fabric.Offset{}))
			out = append(out, m.DrawExec(risky, fabric.Offset{}))
			out = append(out, m.DrawExec(clean, fabric.Offset{}))
		}
		return out
	}
	a, b := run(), run()
	anyRisky, anyCleanRisky := false, false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs between identical monitors", i)
		}
		switch i % 3 {
		case 0:
			if !a[i] {
				t.Fatalf("draw %d: ground-truth-dead footprint must always fault", i)
			}
		case 1:
			if a[i] {
				anyRisky = true
			}
		case 2:
			if a[i] {
				anyCleanRisky = true
			}
		}
	}
	if !anyRisky {
		t.Error("a 0.5-probability cell should fault at least once in 16 draws")
	}
	if anyCleanRisky {
		t.Error("a zero-probability live cell must never fault")
	}
}

func TestDrawExecKeyedOnEpochAndSeed(t *testing.T) {
	g := fabric.NewGeometry(2, 4)
	truth := fabric.NewHealth(g)
	faults := fabric.NewFaults(g)
	faults.Set(fabric.Cell{Row: 0, Col: 0}, 0.5)
	cells := []fabric.Cell{{Row: 0, Col: 0}}

	draws := func(seed uint64, epoch int) []bool {
		m := NewMonitor(g, Policy{}, truth, faults, seed)
		m.BeginEpoch(epoch)
		var out []bool
		for i := 0; i < 32; i++ {
			out = append(out, m.DrawExec(cells, fabric.Offset{}))
		}
		return out
	}
	same := func(a, b []bool) bool {
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if same(draws(1, 0), draws(1, 1)) {
		t.Error("different epochs should decorrelate the draw sequence")
	}
	if same(draws(1, 0), draws(2, 0)) {
		t.Error("different seeds should decorrelate the draw sequence")
	}
}

func TestSampleCheckCadence(t *testing.T) {
	g := fabric.NewGeometry(2, 4)
	m := NewMonitor(g, Policy{CheckEvery: 3}, fabric.NewHealth(g), nil, 1)
	m.BeginEpoch(0)
	var got []bool
	for i := 0; i < 7; i++ {
		got = append(got, m.SampleCheck())
	}
	want := []bool{true, false, false, true, false, false, true}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SampleCheck cadence %v, want %v", got, want)
		}
	}
	all := NewMonitor(g, Policy{CheckEvery: 1}, fabric.NewHealth(g), nil, 1)
	all.BeginEpoch(0)
	for i := 0; i < 5; i++ {
		if !all.SampleCheck() {
			t.Fatal("CheckEvery=1 must verify every offload")
		}
	}
}

func TestRecordDetectionQuarantinesAtThreshold(t *testing.T) {
	g := fabric.NewGeometry(2, 4)
	truth := fabric.NewHealth(g)
	deadCell := fabric.Cell{Row: 0, Col: 0}
	liveCell := fabric.Cell{Row: 0, Col: 1}
	truth.Kill(deadCell)
	m := NewMonitor(g, Policy{QuarantineAfter: 3}, truth, nil, 1)
	m.BeginEpoch(0)

	foot := []fabric.Cell{deadCell, liveCell}
	for i := 0; i < 2; i++ {
		m.RecordDetection(foot, fabric.Offset{})
		if m.Observed().DeadCount() != 0 {
			t.Fatalf("quarantine before threshold (detection %d)", i+1)
		}
	}
	m.RecordDetection(foot, fabric.Offset{})
	if m.Observed().DeadCount() != 2 {
		t.Fatalf("both footprint cells should be quarantined at threshold, got %d", m.Observed().DeadCount())
	}
	st := m.Stats()
	if st.Quarantines != 2 || st.FalsePositiveQuarantines != 1 {
		t.Errorf("quarantines=%d fp=%d, want 2/1 (live cell blamed alongside the dead one)",
			st.Quarantines, st.FalsePositiveQuarantines)
	}
	ev := m.TakeEvents()
	if len(ev) != 2 {
		t.Fatalf("%d events, want 2", len(ev))
	}
	for _, e := range ev {
		if e.Kind != Quarantine {
			t.Errorf("event kind %v, want Quarantine", e.Kind)
		}
		if e.Cell == deadCell && !e.TruthDead {
			t.Error("dead cell's quarantine should be marked TruthDead")
		}
		if e.Cell == liveCell && e.TruthDead {
			t.Error("live cell's quarantine must not be marked TruthDead")
		}
	}
	if len(m.TakeEvents()) != 0 {
		t.Error("TakeEvents must drain")
	}
	// Further detections on an already-quarantined footprint are counted but
	// do not re-quarantine.
	m.RecordDetection(foot, fabric.Offset{})
	if m.Stats().Quarantines != 2 {
		t.Error("re-detection on quarantined cells must not double-quarantine")
	}
}

func TestProbationReinstatesOnlyFalsePositives(t *testing.T) {
	g := fabric.NewGeometry(2, 4)
	truth := fabric.NewHealth(g)
	deadCell := fabric.Cell{Row: 0, Col: 0}
	liveCell := fabric.Cell{Row: 1, Col: 3}
	truth.Kill(deadCell)
	// No intermittent faults: live-cell probes are always clean, so the
	// false positive reinstates after ceil(ProbationProbes/ProbesPerEpoch)
	// epochs while the truth-dead cell stays quarantined forever.
	m := NewMonitor(g, Policy{QuarantineAfter: 1, ProbationProbes: 8, ProbesPerEpoch: 4}, truth, nil, 1)
	m.BeginEpoch(0)
	m.RecordDetection([]fabric.Cell{deadCell, liveCell}, fabric.Offset{})
	if m.Observed().DeadCount() != 2 {
		t.Fatalf("observed dead %d, want 2", m.Observed().DeadCount())
	}
	m.TakeEvents()

	m.ProbeQuarantined() // streak 4
	if m.Observed().Dead(liveCell) != true {
		t.Fatal("reinstated before ProbationProbes clean probes")
	}
	m.BeginEpoch(1)
	m.ProbeQuarantined() // streak 8 -> reinstate
	if m.Observed().Dead(liveCell) {
		t.Error("false positive should be reinstated after 8 clean probes")
	}
	if !m.Observed().Dead(deadCell) {
		t.Error("ground-truth-dead cell must never be reinstated")
	}
	st := m.Stats()
	if st.Reinstatements != 1 {
		t.Errorf("reinstatements=%d, want 1", st.Reinstatements)
	}
	ev := m.TakeEvents()
	if len(ev) != 1 || ev[0].Kind != Reinstate || ev[0].Cell != liveCell {
		t.Errorf("events %+v, want one Reinstate of %v", ev, liveCell)
	}
	// Probe accounting: 2 cells × 4 probes in epoch 0; in epoch 1 the live
	// cell reinstates on its 4th probe and the dead cell burns 4 more.
	if st.Probes != 16 {
		t.Errorf("probes=%d, want 16", st.Probes)
	}
	if m.SearchCounts().RecoveryProbes != st.Probes {
		t.Error("search-cost probe count must match stats")
	}
}

func TestFailStopLatch(t *testing.T) {
	g := fabric.NewGeometry(2, 4)
	truth := fabric.NewHealth(g)
	m := NewMonitor(g, Policy{FailStop: true}, truth, nil, 1)
	m.BeginEpoch(0)
	if m.FabricDistrusted() {
		t.Fatal("fresh monitor must trust the fabric")
	}
	v0 := m.Version()
	m.RecordDetection([]fabric.Cell{{Row: 0, Col: 0}}, fabric.Offset{})
	if !m.FabricDistrusted() {
		t.Fatal("first detection under FailStop must latch distrust")
	}
	if m.Version() == v0 {
		t.Error("latching must bump the version")
	}
	if m.Observed().DeadCount() != 0 {
		t.Error("FailStop must not quarantine individual cells")
	}
	v1 := m.Version()
	m.RecordDetection([]fabric.Cell{{Row: 0, Col: 1}}, fabric.Offset{})
	if m.Version() != v1 {
		t.Error("re-latching must not move the version (memo stasis)")
	}
	m.ProbeQuarantined()
	if m.Stats().Probes != 0 {
		t.Error("a distrusted fabric must not be probed")
	}
}

// TestVersionExcludesPerEpochAndStatState pins the memo contract: draws,
// sampling phase and stats move without touching Version; only persistent
// observable state (suspects, quarantine, streaks, the latch) moves it.
func TestVersionExcludesPerEpochAndStatState(t *testing.T) {
	g := fabric.NewGeometry(2, 4)
	truth := fabric.NewHealth(g)
	faults := fabric.NewFaults(g)
	faults.Set(fabric.Cell{Row: 0, Col: 0}, 0.5)
	m := NewMonitor(g, Policy{}, truth, faults, 1)
	m.BeginEpoch(0)
	v := m.Version()
	cells := []fabric.Cell{{Row: 0, Col: 0}}
	for i := 0; i < 8; i++ {
		m.DrawExec(cells, fabric.Offset{})
		m.SampleCheck()
	}
	m.PriceCheck(100)
	m.RecordEscape()
	m.RecordRetry(32)
	m.RecordRetrySuccess()
	m.RecordBackoff()
	m.BeginEpoch(1)
	if m.Version() != v {
		t.Error("draws, sampling, pricing and stats must not move Version")
	}
	m.RecordDetection(cells, fabric.Offset{})
	if m.Version() == v {
		t.Error("a suspicion increment must move Version")
	}
}

// drawExecLoop is DrawExec without its early return: the per-cell loop
// every call ran before, the reference the fast path must match.
func drawExecLoop(m *Monitor, cells []fabric.Cell, off fabric.Offset) bool {
	faulted := false
	for _, c := range cells {
		p := off.Apply(c, m.geom)
		if m.truth.Dead(p) {
			faulted = true
			continue
		}
		if m.faults == nil || !m.faults.Risky() {
			continue
		}
		pr := m.faults.At(p)
		if pr <= 0 {
			continue
		}
		i := p.Row*m.geom.Cols + p.Col
		draw := m.execDraws[i]
		m.execDraws[i]++
		if m.uniform(streamExec, uint64(i), draw) < pr {
			faulted = true
		}
	}
	if faulted {
		m.stats.FaultedExecs++
	}
	return faulted
}

// TestDrawExecMatchesPerCellLoop checks DrawExec against the per-cell loop
// on random ground-truth dead sets and fault maps (absent, cleared back to
// reliable, and risky): the result, the Stats and every per-cell draw
// counter agree after each of repeated calls.
func TestDrawExecMatchesPerCellLoop(t *testing.T) {
	g := fabric.NewGeometry(2, 8)
	n := g.NumFUs()
	state := uint64(0x9e3779b97f4a7c15)
	next := func(k int) int {
		state = mix64(state + 0x9e3779b97f4a7c15)
		return int(state % uint64(k))
	}
	fastPaths := 0
	for trial := 0; trial < 300; trial++ {
		truth := fabric.NewHealth(g)
		for i, dead := 0, next(4)*next(3); i < dead; i++ {
			truth.Kill(fabric.Cell{Row: next(g.Rows), Col: next(g.Cols)})
		}
		var faults *fabric.Faults
		if kind := next(3); kind > 0 {
			faults = fabric.NewFaults(g)
			for i, m := 0, next(5); i < m; i++ {
				faults.Set(fabric.Cell{Row: next(g.Rows), Col: next(g.Cols)}, float64(1+next(8))/8)
			}
			if kind == 1 { // every cell set reliable again: not Risky
				for i := 0; i < n; i++ {
					faults.Set(fabric.Cell{Row: i / g.Cols, Col: i % g.Cols}, 0)
				}
			}
		}
		seed := uint64(trial)
		fast := NewMonitor(g, Policy{}, truth, faults, seed)
		ref := NewMonitor(g, Policy{}, truth, faults, seed)
		if (faults == nil || !faults.Risky()) && truth.DeadCount() == 0 {
			fastPaths++
		}
		for epoch := 0; epoch < 2; epoch++ {
			fast.BeginEpoch(epoch)
			ref.BeginEpoch(epoch)
			for call := 0; call < 20; call++ {
				cells := make([]fabric.Cell, 1+next(4))
				for i := range cells {
					cells[i] = fabric.Cell{Row: next(g.Rows), Col: next(g.Cols)}
				}
				off := fabric.Offset{Row: next(g.Rows), Col: next(g.Cols)}
				got, want := fast.DrawExec(cells, off), drawExecLoop(ref, cells, off)
				if got != want {
					t.Fatalf("trial %d epoch %d call %d: DrawExec %v, per-cell loop %v", trial, epoch, call, got, want)
				}
				if fast.Stats() != ref.Stats() {
					t.Fatalf("trial %d epoch %d call %d: stats %+v, want %+v", trial, epoch, call, fast.Stats(), ref.Stats())
				}
				for i := range fast.execDraws {
					if fast.execDraws[i] != ref.execDraws[i] {
						t.Fatalf("trial %d epoch %d call %d: cell %d drawn %d times, want %d",
							trial, epoch, call, i, fast.execDraws[i], ref.execDraws[i])
					}
				}
			}
		}
	}
	if fastPaths == 0 || fastPaths == 300 {
		t.Fatalf("%d of 300 trials took the fast path; the test needs both kinds", fastPaths)
	}
}
