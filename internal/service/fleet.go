package service

import (
	"context"
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

// deviceDraw returns a uniform [0, 1) draw keyed on (seed, device, stream).
func deviceDraw(seed uint64, device, stream int) float64 {
	h := deviceHash(seed, device, stream)
	return float64(h>>11) / (1 << 53)
}

func deviceHash(seed uint64, device, stream int) uint64 {
	h := mix64(seed ^ (uint64(device)+1)*0x9e3779b97f4a7c15)
	return mix64(h ^ (uint64(stream)+1)*0xc2b2ae3d27d4eb4f)
}

// pickWeighted maps a uniform draw to an option index. Zero weights count
// as 1 (the "unweighted list" convention); weights were validated
// non-negative beforehand.
func pickWeighted(u float64, weights []float64) int {
	var total float64
	for _, w := range weights {
		total += effWeight(w)
	}
	x := u * total
	for i, w := range weights {
		x -= effWeight(w)
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

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

// drawKey is everything a device's draw decides: the option index of each
// distribution (0 for an empty list) and, for a fleet whose base enables
// faults or recovery, the device's scenario seed. A device's request is a
// function of its key alone.
type drawKey struct {
	mix, profile, pattern int
	seed                  uint64
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
// deduplicates the draws into combos. The request and fingerprint are
// built once per distinct draw key; keys whose fingerprints alias (two
// patterns that both mean a healthy fabric, two mixes with the same
// benchmarks) share a combo. The draw is keyed, not stateful, so the
// result is a pure function of (fr, seed).
func drawFleet(fr FleetRequest, seed uint64) fleetDraw {
	mixW, profW, patW := fleetWeights(fr)
	seeded := fr.Base.Faults != nil || fr.Base.Recovery != nil
	fd := fleetDraw{devices: make([]int32, fr.Devices)}
	byKey := make(map[drawKey]int32)
	byFP := make(map[string]int32)
	for d := range fd.devices {
		var k drawKey
		if len(fr.Mixes) > 0 {
			k.mix = pickWeighted(deviceDraw(seed, d, streamMix), mixW)
		}
		if len(fr.Profiles) > 0 {
			k.profile = pickWeighted(deviceDraw(seed, d, streamProfile), profW)
		}
		if len(fr.Patterns) > 0 {
			k.pattern = pickWeighted(deviceDraw(seed, d, streamPattern), patW)
		}
		if seeded {
			k.seed = max(deviceHash(seed, d, streamSeed), 1)
		}
		c, ok := byKey[k]
		if !ok {
			req := fr.Base
			if len(fr.Mixes) > 0 {
				req.Benchmarks = fr.Mixes[k.mix].Benchmarks
			}
			if len(fr.Profiles) > 0 {
				req.Profile = fr.Profiles[k.profile].Phases
			}
			if len(fr.Patterns) > 0 {
				req.DeadPattern = fr.Patterns[k.pattern].Pattern
			}
			if seeded {
				req.Seed = k.seed
			}
			fp := fingerprint(req)
			if c, ok = byFP[fp]; !ok {
				c = int32(len(fd.fps))
				byFP[fp] = c
				fd.reqs = append(fd.reqs, req)
				fd.fps = append(fd.fps, fp)
			}
			byKey[k] = c
		}
		fd.devices[d] = c
	}
	return fd
}

// fleet runs one fleet query: draw devices, deduplicate into distinct
// combos, run each combo once on the shared pool, aggregate by combo.
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

	// One simulation per distinct combo; wall-clock is the combo count,
	// not the device count.
	results := make([]*ResultJSON, combos)
	err := s.pool.ForEach(ctx, combos, func(i int) error {
		res, err := s.runScenario(fd.reqs[i], fd.fps[i])
		results[i] = res
		if err != nil {
			return fmt.Errorf("combo %d: %w", i, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
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
