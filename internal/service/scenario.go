package service

import (
	"encoding/json"
	"fmt"

	"agingcgra"
	"agingcgra/internal/lifetime"
)

// ResultJSON is the JSON shape of one scenario outcome — the simulator's
// own result type, served verbatim.
type ResultJSON = lifetime.Result

// ScenarioRequest is the JSON shape of one lifetime scenario: the library
// facade's own configuration, decoded as is. Zero values select the
// facade's defaults: the BE design (2x16), the baseline allocator, the full
// ten-benchmark suite at tiny scale, half-year epochs over a 15-year
// horizon at the calibration corner. Its library-only fields (InitialDead,
// Trace) carry no JSON name, so a decoded request leaves them zero.
type ScenarioRequest = agingcgra.LifetimeConfig

// maxScenarioEpochs bounds a scenario's epochs, enforced on the defaulted
// request before anything sized by it is built: every epoch holds a pool
// worker and keeps a timeline record. The fabric's own cell cap
// (fabric.MaxCells) bounds its size.
const maxScenarioEpochs = 10000

// normalized fills defaulted fields with their effective values and drops
// fields that cannot affect the outcome, so equivalent requests share one
// fingerprint. Normalization is best-effort: a missed equivalence (e.g. an
// allocator alias) only costs a duplicate store entry, never correctness.
func normalized(r ScenarioRequest) ScenarioRequest {
	if r.Rows == 0 {
		r.Rows = 2
	}
	if r.Cols == 0 {
		r.Cols = 16
	}
	if r.Allocator == "" {
		r.Allocator = "baseline"
	}
	if len(r.Benchmarks) == 0 {
		r.Benchmarks = agingcgra.Benchmarks()
	}
	if r.EpochYears == 0 {
		r.EpochYears = 0.5
	}
	if r.MaxYears == 0 {
		r.MaxYears = 15
	}
	if len(r.Profile) > 0 {
		// The profile overrides the constant operating point entirely.
		r.TemperatureK, r.Vdd = 0, 0
	}
	if r.DeadPattern == "healthy" || r.DeadPattern == "none" {
		r.DeadPattern = ""
	}
	if r.Faults == nil && r.Recovery == nil {
		r.Seed = 0 // the PRNG is never consulted
	} else if r.Seed == 0 {
		r.Seed = 1 // the simulator's default
	}
	return r
}

// checkWork rejects a scenario beyond the per-scenario work bounds: a
// geometry Validate rejects, which covers the cell cap, or too many epochs.
func checkWork(r ScenarioRequest) error {
	n := normalized(r)
	if err := agingcgra.NewGeometry(n.Rows, n.Cols).Validate(); err != nil {
		return err
	}
	// ceil(x) > N exactly when x > N, for an integer N.
	if n.EpochYears > 0 && n.MaxYears/n.EpochYears > maxScenarioEpochs {
		return fmt.Errorf("max_years %v over epoch_years %v exceeds the per-scenario limit of %d epochs",
			n.MaxYears, n.EpochYears, maxScenarioEpochs)
	}
	return nil
}

// resultKey keys the result-level store.
type resultKey struct{ fp string }

// fingerprint content-addresses the full request for the result store:
// canonical JSON of the normalized request, covering every field that can
// influence the response bytes (including Name and MaxYears).
func fingerprint(r ScenarioRequest) string {
	return marshalKey(normalized(r))
}

// epochFingerprint content-addresses the scenario's co-simulation inputs
// for the shared epoch store. It drops the fields an epoch's co-simulation
// never reads: Name (a label); MaxYears, EpochYears, TemperatureK, Vdd and
// Profile (they shape the trajectory — when cells die, how much wear
// accrues — and the simulator keys each epoch on that state's content, not
// on the conditions that led to it); and DeadPattern (the dead cells are
// the health content in the state key). So devices that differ only in
// operating point, horizon or dead pattern share every epoch whose state
// they reach. The drop list is a deny-list: a field added later is keyed
// until someone shows the co-simulation ignores it. Only called for
// fault-free, recovery-free scenarios, where Seed/Faults/Recovery are
// already normalized away.
func epochFingerprint(r ScenarioRequest) string {
	n := normalized(r)
	n.Name = ""
	n.MaxYears, n.EpochYears = 0, 0
	n.TemperatureK, n.Vdd, n.Profile = 0, 0, nil
	n.DeadPattern = ""
	return marshalKey(n)
}

func marshalKey(r ScenarioRequest) string {
	b, err := json.Marshal(r)
	if err != nil {
		// Every encoded field is a plain value; marshal cannot fail.
		panic(fmt.Sprintf("service: fingerprinting scenario: %v", err))
	}
	return string(b)
}

// scenario is the one path from a request to a runnable scenario: it
// enforces the work bounds, resolves the request through the facade, and
// attaches the GPP-reference memo. The epoch store is attached only when
// the scenario runs (simulate), since its key costs a marshal that a
// result-store hit never needs.
func (s *Server) scenario(req ScenarioRequest) (lifetime.Scenario, error) {
	if err := checkWork(req); err != nil {
		return lifetime.Scenario{}, err
	}
	sc, err := req.Scenario()
	if err != nil {
		return lifetime.Scenario{}, err
	}
	sc.Refs = s.refs
	return sc, nil
}

// simulate runs sc, resolved from req, sharing the epoch store when the
// scenario is fault-free and recovery-free (a recovery monitor's
// cross-epoch state makes epoch outcomes non-shareable).
func (s *Server) simulate(req ScenarioRequest, sc lifetime.Scenario) (*ResultJSON, error) {
	if req.Faults == nil && req.Recovery == nil {
		sc.EpochMemo = s.epochs
		sc.Fingerprint = epochFingerprint(req)
	}
	return lifetime.Run(sc)
}

// stored returns the result store's completed answer for fingerprint fp;
// ok is false when the store holds none yet.
func (s *Server) stored(fp string) (res *ResultJSON, ok bool, err error) {
	v, ok, err := s.results.Get(resultKey{fp: fp})
	if !ok || err != nil {
		return nil, ok, err
	}
	return v.(*ResultJSON), true, nil
}

// runScenario resolves, runs and memoizes one scenario, whose
// fingerprint the caller passes in. The result comes
// from the result-level store when an identical request already ran;
// otherwise the run consults the shared epoch and GPP-reference stores.
// Results are immutable once stored; callers only read and marshal them.
func (s *Server) runScenario(req ScenarioRequest, fp string) (*ResultJSON, error) {
	sc, err := s.scenario(req)
	if err != nil {
		return nil, err
	}
	v, err := s.results.GetOrCompute(resultKey{fp: fp}, func() (any, error) {
		return s.simulate(req, sc)
	})
	if err != nil {
		return nil, err
	}
	return v.(*ResultJSON), nil
}
