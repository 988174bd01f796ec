package service

import (
	"context"
	"errors"
	"fmt"
	"math"

	"agingcgra"
	"agingcgra/internal/stats"
)

// maxFleetDevices bounds one fleet request; the cost driver is distinct
// combos, not devices, but the per-device bookkeeping is still linear.
const maxFleetDevices = 100000

// FleetRequest draws Devices scenario instances from seeded weighted
// distributions over workload mix, operating-point profile and
// dead-pattern, runs every distinct combination once, and aggregates the
// per-device outcomes into percentile curves. The draw is a pure function
// of (Seed, device index): the same request returns byte-identical JSON on
// every server at any worker count.
type FleetRequest struct {
	// Devices is the fleet size (1..100000).
	Devices int `json:"devices"`
	// Seed keys the device draws (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// Base is the scenario every device starts from; the drawn mix,
	// profile and pattern override the corresponding Base fields. When
	// Base enables Faults or Recovery, each device additionally gets a
	// distinct drawn PRNG seed (so no two devices share a fault history —
	// and result sharing across devices disappears by design).
	Base ScenarioRequest `json:"base"`
	// Mixes, Profiles and Patterns are the weighted distributions; an
	// empty list keeps the Base field for every device. Weights default
	// to 1 and must not be negative.
	Mixes    []WeightedMix     `json:"mixes,omitempty"`
	Profiles []WeightedProfile `json:"profiles,omitempty"`
	Patterns []WeightedPattern `json:"patterns,omitempty"`
	// Percentiles selects the reported points (default [50, 90, 99]),
	// each in (0, 100].
	Percentiles []float64 `json:"percentiles,omitempty"`
	// Deaths selects which Nth-death times to aggregate (default [1]:
	// time to first death), each >= 1.
	Deaths []int `json:"deaths,omitempty"`
}

// WeightedMix is one workload-mix option of a fleet distribution.
type WeightedMix struct {
	Weight     float64  `json:"weight,omitempty"`
	Benchmarks []string `json:"benchmarks"`
}

// WeightedProfile is one operating-point phase-profile option.
type WeightedProfile struct {
	Weight float64                   `json:"weight,omitempty"`
	Phases []agingcgra.LifetimePhase `json:"phases"`
}

// WeightedPattern is one dead-pattern option.
type WeightedPattern struct {
	Weight  float64 `json:"weight,omitempty"`
	Pattern string  `json:"pattern"`
}

// FleetResponse aggregates a fleet run. Every field is a pure function of
// the request: Memo holds the request-scoped sharing counters (devices
// minus distinct combos), not the cumulative store state of /v1/stats.
type FleetResponse struct {
	Devices int    `json:"devices"`
	Seed    uint64 `json:"seed"`
	// Combos counts distinct drawn scenario fingerprints — the number of
	// simulations actually run.
	Combos int          `json:"combos"`
	Memo   MemoCounters `json:"memo"`
	// Deaths has one curve per requested Nth death, in request order;
	// Throughput is the percentile curve of end-of-horizon on-fabric
	// speedup over the fleet.
	Deaths     []DeathCurve      `json:"deaths"`
	Throughput []ThroughputValue `json:"throughput"`
}

// MemoCounters is the request-scoped sharing summary of one fleet query.
type MemoCounters struct {
	Hits    int     `json:"hits"`
	Misses  int     `json:"misses"`
	HitRate float64 `json:"hit_rate"`
}

// DeathCurve is the fleet distribution of the time to the Nth FU death.
type DeathCurve struct {
	Nth int `json:"nth"`
	// Survivors counts devices whose fabric saw fewer than Nth deaths
	// within the horizon; they sort after every finite death age.
	Survivors   int               `json:"survivors"`
	Percentiles []PercentileValue `json:"percentiles"`
}

// PercentileValue is one point of a percentile curve. Survived marks a
// point that landed on a device which outlived the horizon (its death age
// is beyond the simulation, so Years is omitted).
type PercentileValue struct {
	P        float64 `json:"p"`
	Years    float64 `json:"years,omitempty"`
	Survived bool    `json:"survived,omitempty"`
}

// ThroughputValue is one point of the on-fabric throughput curve: the
// percentile of end-of-horizon speedup (GPP cycles / TransRec cycles)
// across the fleet. Lower percentiles are the worst-degraded devices.
type ThroughputValue struct {
	P       float64 `json:"p"`
	Speedup float64 `json:"speedup"`
}

// mix64 is the splitmix64 finalizer (the keyed-hash convention of
// internal/recover): device draws come from hashing (seed, device,
// stream), never from shared PRNG state, so draw d is independent of how
// many draws preceded it.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Draw streams: one per distribution, plus the per-device scenario seed.
const (
	streamMix = iota
	streamProfile
	streamPattern
	streamSeed
)

// devicePrefix is the hash of (seed, device) that every draw stream of the
// device continues from.
func devicePrefix(seed uint64, device int) uint64 {
	return mix64(seed ^ (uint64(device)+1)*0x9e3779b97f4a7c15)
}

// streamHash is one draw stream's hash, given its device's prefix.
func streamHash(prefix uint64, stream int) uint64 {
	return mix64(prefix ^ (uint64(stream)+1)*0xc2b2ae3d27d4eb4f)
}

// unitDraw maps a hash to a uniform draw in [0, 1).
func unitDraw(h uint64) float64 {
	return float64(h>>11) / (1 << 53)
}

// picker maps a uniform draw to an option index of one non-empty weighted
// distribution (weights already validated), with the effective weights
// and their total computed once.
type picker struct {
	weights []float64
	total   float64
}

func newPicker(ws []float64) picker {
	p := picker{weights: make([]float64, len(ws))}
	for i, w := range ws {
		p.weights[i] = effWeight(w)
		p.total += p.weights[i]
	}
	return p
}

// pick returns the first option at which u*total minus the weights so far
// turns negative, or the last option if none does. The running value only
// falls, so that option's index is the number of non-negative values among
// the first n-1 subtractions, counted here from the sign bit instead of
// with a branch per option. The count is exact: a difference of equal
// values is +0, so the running value is never -0, and the only NaN is
// 0*(+Inf) from a total that overflowed, which picks the last option.
func (p picker) pick(u float64) int {
	x := u * p.total
	if x != x {
		return len(p.weights) - 1
	}
	n := 0
	for _, w := range p.weights[:len(p.weights)-1] {
		x -= w
		n += int(^math.Float64bits(x) >> 63)
	}
	return n
}

// effWeight is the weight an option counts with: zero weights count as 1
// (the "unweighted list" convention).
func effWeight(w float64) float64 {
	if w == 0 {
		return 1
	}
	return w
}

func validateWeights(kind string, ws []float64) error {
	for i, w := range ws {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return fmt.Errorf("%s[%d]: weight %v must be a finite non-negative number", kind, i, w)
		}
	}
	return nil
}

// fleetWeights lists the option weights of fr's three distributions.
func fleetWeights(fr FleetRequest) (mixes, profiles, patterns []float64) {
	mixes = make([]float64, len(fr.Mixes))
	for i, m := range fr.Mixes {
		mixes[i] = m.Weight
	}
	profiles = make([]float64, len(fr.Profiles))
	for i, p := range fr.Profiles {
		profiles[i] = p.Weight
	}
	patterns = make([]float64, len(fr.Patterns))
	for i, p := range fr.Patterns {
		patterns[i] = p.Weight
	}
	return mixes, profiles, patterns
}

// fleetDraw is a fleet's devices deduplicated into combos: the distinct
// fingerprints in first-appearance order, each with one request that
// produces it, and the combo index of every device.
type fleetDraw struct {
	reqs    []ScenarioRequest
	fps     []string
	devices []int32
}

// drawFleet draws every device of fr (weights already validated) and
// deduplicates the draws into combos. A fault-free device's request is a
// function of its option indices alone, so they name a slot
// (mix*P + profile)*Q + pattern, where P and Q count the profile and
// pattern options (1 for an empty list), and the request and fingerprint
// are built once per slot: in a dense table when there are no more slots
// than devices, else in a map, which costs more per device than indexing
// the table but stays as small as the slots drawn. Slots whose
// fingerprints alias (two patterns that both mean a healthy fabric, two
// mixes with the same benchmarks) share a combo. A device of a fleet whose
// base enables faults or recovery also draws its own scenario seed, so
// every device builds its request and only the fingerprint deduplicates.
// The draw is keyed, not stateful, so the result is a pure function of
// (fr, seed).
func drawFleet(fr FleetRequest, seed uint64) fleetDraw {
	mixW, profW, patW := fleetWeights(fr)
	mixP, profP, patP := newPicker(mixW), newPicker(profW), newPicker(patW)
	seeded := fr.Base.Faults != nil || fr.Base.Recovery != nil
	fd := fleetDraw{devices: make([]int32, fr.Devices)}
	byFP := make(map[string]int32)
	combo := func(mix, profile, pattern int, devSeed uint64) int32 {
		req := fr.Base
		if len(fr.Mixes) > 0 {
			req.Benchmarks = fr.Mixes[mix].Benchmarks
		}
		if len(fr.Profiles) > 0 {
			req.Profile = fr.Profiles[profile].Phases
		}
		if len(fr.Patterns) > 0 {
			req.DeadPattern = fr.Patterns[pattern].Pattern
		}
		if seeded {
			req.Seed = devSeed
		}
		fp := fingerprint(req)
		c, ok := byFP[fp]
		if !ok {
			c = int32(len(fd.fps))
			byFP[fp] = c
			fd.reqs = append(fd.reqs, req)
			fd.fps = append(fd.fps, fp)
		}
		return c
	}

	P, Q := max(len(fr.Profiles), 1), max(len(fr.Patterns), 1)
	var table []int32
	var bySlot map[int]int32
	if !seeded {
		if slots := max(len(fr.Mixes), 1) * P * Q; slots <= fr.Devices {
			table = make([]int32, slots)
			for i := range table {
				table[i] = -1
			}
		} else {
			bySlot = make(map[int]int32)
		}
	}
	for d := range fd.devices {
		h := devicePrefix(seed, d)
		var mix, profile, pattern int
		if len(fr.Mixes) > 0 {
			mix = mixP.pick(unitDraw(streamHash(h, streamMix)))
		}
		if len(fr.Profiles) > 0 {
			profile = profP.pick(unitDraw(streamHash(h, streamProfile)))
		}
		if len(fr.Patterns) > 0 {
			pattern = patP.pick(unitDraw(streamHash(h, streamPattern)))
		}
		slot := (mix*P+profile)*Q + pattern
		var c int32
		switch {
		case seeded:
			c = combo(mix, profile, pattern, max(streamHash(h, streamSeed), 1))
		case table != nil:
			if c = table[slot]; c < 0 {
				c = combo(mix, profile, pattern, 0)
				table[slot] = c
			}
		default:
			var ok bool
			if c, ok = bySlot[slot]; !ok {
				c = combo(mix, profile, pattern, 0)
				bySlot[slot] = c
			}
		}
		fd.devices[d] = c
	}
	return fd
}

// errNotRun marks a combo the pool has not run (yet).
var errNotRun = errors.New("service: combo not run")

// fleet runs one fleet query: draw devices, deduplicate into distinct
// combos, answer each combo from the result store or run it once on the
// shared pool, aggregate by combo.
func (s *Server) fleet(ctx context.Context, fr FleetRequest) (*FleetResponse, error) {
	if fr.Devices <= 0 {
		return nil, fmt.Errorf("devices must be positive (got %d)", fr.Devices)
	}
	if fr.Devices > maxFleetDevices {
		return nil, fmt.Errorf("devices %d exceeds the per-request limit %d", fr.Devices, maxFleetDevices)
	}
	seed := fr.Seed
	if seed == 0 {
		seed = 1
	}
	mixW, profW, patW := fleetWeights(fr)
	if err := validateWeights("mixes", mixW); err != nil {
		return nil, err
	}
	if err := validateWeights("profiles", profW); err != nil {
		return nil, err
	}
	if err := validateWeights("patterns", patW); err != nil {
		return nil, err
	}
	percentiles := fr.Percentiles
	if len(percentiles) == 0 {
		percentiles = []float64{50, 90, 99}
	}
	for _, p := range percentiles {
		if !(p > 0 && p <= 100) {
			return nil, fmt.Errorf("percentile %v must be in (0, 100]", p)
		}
	}
	deaths := fr.Deaths
	if len(deaths) == 0 {
		deaths = []int{1}
	}
	for _, n := range deaths {
		if n < 1 {
			return nil, fmt.Errorf("nth death %d must be >= 1", n)
		}
	}

	fd := drawFleet(fr, seed)
	combos := len(fd.fps)

	// A request the pool would refuse fails before any combo is looked at,
	// so a canceled or shut-down request reads no store, warm or cold.
	if err := s.pool.Err(ctx); err != nil {
		return nil, err
	}
	// Validate every combo, answer the ones the result store holds, and
	// run only the rest on the pool: one simulation per missing combo.
	// errs[i] is combo i's error; the lowest index wins.
	results := make([]*ResultJSON, combos)
	errs := make([]error, combos)
	var misses []int
	for i, req := range fd.reqs {
		_, err := s.scenario(req)
		if err == nil {
			var ok bool
			if results[i], ok, err = s.stored(fd.fps[i]); !ok {
				// A miss the pool never runs (the request was canceled
				// or the server closed meanwhile) keeps errNotRun and
				// takes the pool's error, the lowest such miss's own.
				misses = append(misses, i)
				errs[i] = errNotRun
				continue
			}
		}
		if err != nil {
			errs[i] = fmt.Errorf("combo %d: %w", i, err)
		}
	}
	// A miss resolves its scenario again on its worker, which allocates
	// less than keeping the validated copy for it.
	poolErr := s.pool.ForEach(ctx, len(misses), func(j int) error {
		i := misses[j]
		res, err := s.runScenario(fd.reqs[i], fd.fps[i])
		results[i], errs[i] = res, nil
		if err != nil {
			errs[i] = fmt.Errorf("combo %d: %w", i, err)
		}
		return nil
	})
	for _, err := range errs {
		if err == errNotRun {
			return nil, poolErr
		}
		if err != nil {
			return nil, err
		}
	}

	// Every device of a combo shares its outcome, so each curve is a
	// percentile over the combos' values weighted by their device counts.
	counts := make([]int, combos)
	for _, c := range fd.devices {
		counts[c]++
	}
	resp := &FleetResponse{
		Devices: fr.Devices,
		Seed:    seed,
		Combos:  combos,
		Memo: MemoCounters{
			Hits:    fr.Devices - combos,
			Misses:  combos,
			HitRate: float64(fr.Devices-combos) / float64(fr.Devices),
		},
	}
	vals := make([]float64, combos)
	for _, nth := range deaths {
		survivors := 0
		for c, res := range results {
			if len(res.DeathAges) >= nth {
				vals[c] = res.DeathAges[nth-1]
			} else {
				vals[c] = math.Inf(1)
				survivors += counts[c]
			}
		}
		curve := DeathCurve{Nth: nth, Survivors: survivors}
		for i, v := range stats.CountedPercentiles(vals, counts, percentiles) {
			if math.IsInf(v, 1) {
				curve.Percentiles = append(curve.Percentiles, PercentileValue{P: percentiles[i], Survived: true})
			} else {
				curve.Percentiles = append(curve.Percentiles, PercentileValue{P: percentiles[i], Years: v})
			}
		}
		resp.Deaths = append(resp.Deaths, curve)
	}
	for c, res := range results {
		vals[c] = res.FinalSpeedup
	}
	for i, v := range stats.CountedPercentiles(vals, counts, percentiles) {
		resp.Throughput = append(resp.Throughput, ThroughputValue{P: percentiles[i], Speedup: v})
	}
	return resp, nil
}
