package lifetime

import (
	"strings"
	"testing"

	"agingcgra/internal/alloc"
	"agingcgra/internal/dse"
	"agingcgra/internal/fabric"
	recov "agingcgra/internal/recover"
)

// faultScenario is the shared fault-enabled config: an accelerated operating
// point so cells cross the intermittent threshold (and die) well inside the
// horizon.
func faultScenario() Scenario {
	return Scenario{
		Geom:       fabric.NewGeometry(2, 16),
		Factory:    dse.BaselineFactory,
		Mix:        []string{"crc32"},
		EpochYears: 0.5,
		MaxYears:   8,
		Seed:       42,
		FaultModel: &FaultModel{IntermittentAt: 0.4, MaxProb: 0.05},
		Recovery:   &recov.Policy{CheckEvery: 1},
	}
}

// TestRunScenariosLeavesSharedPolicyUnmodified pins that defaulting a
// scenario never writes through its FaultModel and Recovery pointers: a
// batch whose scenarios share one zero-valued fault model and policy runs
// them concurrently, so writing defaults into the shared structs would race
// and leak into the caller's values.
func TestRunScenariosLeavesSharedPolicyUnmodified(t *testing.T) {
	fm, pol := &FaultModel{}, &recov.Policy{}
	scs := make([]Scenario, 3)
	for i := range scs {
		scs[i] = faultScenario()
		scs[i].MaxYears = 1
		scs[i].Seed = uint64(i + 1)
		scs[i].FaultModel, scs[i].Recovery = fm, pol
	}
	res, err := RunScenarios(scs, 3)
	if err != nil {
		t.Fatal(err)
	}
	if *fm != (FaultModel{}) {
		t.Errorf("caller's fault model modified: %+v", *fm)
	}
	if *pol != (recov.Policy{}) {
		t.Errorf("caller's recovery policy modified: %+v", *pol)
	}
	for i, r := range res {
		if r.Recovery == nil || r.Recovery.Fault == fm {
			t.Fatalf("scenario %d: recovery report must carry its own fault model copy", i)
		}
		if r.Recovery.Fault.IntermittentAt != 0.6 || r.Recovery.Policy.CheckEvery != 4 {
			t.Errorf("scenario %d: defaults not applied: fault %+v policy %+v", i, *r.Recovery.Fault, r.Recovery.Policy)
		}
	}
}

// TestEpochMemoKeyCoversFaultState pins the memo-key extension of PR 6: the
// epoch memo must re-simulate while the fault field or the monitor's
// observed state is moving and replay once they go quiescent. The fail-stop
// policy gives the crispest phases: (1) before any cell crosses the
// intermittent threshold the fault field is all-zero and constant, so the
// early epochs replay; (2) once probabilities ramp, the fault version moves
// every epoch and faults eventually fire, so those epochs re-simulate; (3)
// the first detection latches distrust, every offload routes to the GPP,
// wear freezes, all versions stop, and the tail replays.
func TestEpochMemoKeyCoversFaultState(t *testing.T) {
	sc := faultScenario()
	sc.Recovery = &recov.Policy{CheckEvery: 1, FailStop: true}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	var firstDetect, lastDetect = -1, -1
	for i, rec := range res.Timeline {
		if rec.Detected > 0 {
			if firstDetect < 0 {
				firstDetect = i
			}
			lastDetect = i
		}
		// Any epoch with detections changed monitor state during the
		// previous simulate, so it cannot itself be a replay... unless it
		// replayed a memoized epoch's stats. Under fail-stop the only
		// detection is the latching one, which moves the version, so:
		if rec.Detected > 0 && rec.Replayed {
			t.Errorf("epoch %d: detections recorded on a replayed epoch under fail-stop", i)
		}
	}
	if firstDetect < 0 {
		t.Fatal("scenario never detected a fault; accelerate the fault model")
	}
	replayedBefore := false
	for _, rec := range res.Timeline[:firstDetect] {
		if rec.Replayed {
			replayedBefore = true
		}
	}
	if !replayedBefore {
		t.Error("pre-fault epochs (all-zero fault field) should replay")
	}
	// Distrust stasis: after the latch (plus one re-simulated epoch that
	// observes the moved version), the tail must replay.
	tail := res.Timeline[lastDetect+2:]
	if len(tail) == 0 {
		t.Fatal("horizon too short: no epochs after distrust to check stasis")
	}
	for i, rec := range tail {
		if !rec.Replayed {
			t.Errorf("post-distrust epoch %d should replay (all-GPP stasis)", lastDetect+2+i)
		}
		if rec.Offloads != 0 {
			t.Errorf("post-distrust epoch %d offloaded %d times; distrusted fabric must not", lastDetect+2+i, rec.Offloads)
		}
	}
	if res.Recovery == nil {
		t.Fatal("recovery-enabled run must carry a RecoveryReport")
	}
	if res.Recovery.Stats.SilentEscapes != 0 {
		t.Errorf("CheckEvery=1 committed %d silent escapes", res.Recovery.Stats.SilentEscapes)
	}
}

// TestFaultMemoReSimulatesWhileVersionsMove is the quarantine-mode
// counterpart: while faults fire and quarantine/probation churn the observed
// map, epochs re-simulate; detections never land on replayed epochs.
func TestFaultMemoReSimulatesWhileVersionsMove(t *testing.T) {
	res, err := Run(faultScenario())
	if err != nil {
		t.Fatal(err)
	}
	simulated, detections := 0, uint64(0)
	for i, rec := range res.Timeline {
		if !rec.Replayed {
			simulated++
		}
		detections += rec.Detected
		if rec.Detected > 0 && rec.Replayed {
			// A replayed epoch re-adds memoized stat deltas, but the memo
			// only replays when the start key matched — and a detection in
			// the memoized epoch moved the monitor version, so its key can
			// never recur. Detections on a replay indicate a key leak.
			t.Errorf("epoch %d: detections on a replayed epoch", i)
		}
	}
	if detections == 0 {
		t.Fatal("fault-enabled scenario never detected a fault")
	}
	if simulated == len(res.Timeline) {
		t.Error("no epoch replayed; memo never engaged")
	}
	if res.Recovery.Stats.SilentEscapes != 0 {
		t.Errorf("CheckEvery=1 committed %d silent escapes", res.Recovery.Stats.SilentEscapes)
	}
}

// TestFaultModelRequiresRecovery pins validation: injecting faults with no
// detection layer would corrupt results invisibly, so the combination is
// rejected.
func TestFaultModelRequiresRecovery(t *testing.T) {
	sc := faultScenario()
	sc.Recovery = nil
	if _, err := Run(sc); err == nil {
		t.Fatal("FaultModel without Recovery should be rejected")
	}
	bad := faultScenario()
	bad.FaultModel = &FaultModel{IntermittentAt: 1.5}
	if _, err := Run(bad); err == nil {
		t.Fatal("IntermittentAt outside [0,1) should be rejected")
	}
}

// TestPanickingScenarioFailsCleanly rides the dse.ForEach panic recovery:
// a factory that panics must surface as the scenario's error, not crash the
// batch (or the process) — on the serial and the parallel path alike.
func TestPanickingScenarioFailsCleanly(t *testing.T) {
	scs := []Scenario{
		{Geom: fabric.NewGeometry(2, 16), Mix: []string{"crc32"}, EpochYears: 0.5, MaxYears: 1},
		{
			Geom:       fabric.NewGeometry(2, 16),
			Factory:    func(g fabric.Geometry) alloc.Allocator { panic("allocator factory exploded") },
			Mix:        []string{"crc32"},
			EpochYears: 0.5, MaxYears: 1,
		},
	}
	for _, workers := range []int{1, 4} {
		_, err := RunScenarios(scs, workers)
		if err == nil {
			t.Fatalf("workers=%d: panicking scenario should fail its batch", workers)
		}
		if !strings.Contains(err.Error(), "panicked") {
			t.Errorf("workers=%d: error should identify the panic, got: %v", workers, err)
		}
	}
}
