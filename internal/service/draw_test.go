package service

import (
	"slices"
	"testing"

	"agingcgra"
)

// referenceDraw is the fleet draw done the direct way: every device builds
// its own request and fingerprint, and the combos are the distinct
// fingerprints in first-appearance order. It returns each device's
// fingerprint and the combo order.
func referenceDraw(fr FleetRequest, seed uint64) (fps, order []string) {
	mixW, profW, patW := fleetWeights(fr)
	seen := make(map[string]bool)
	for d := 0; d < fr.Devices; d++ {
		req := fr.Base
		if len(fr.Mixes) > 0 {
			req.Benchmarks = fr.Mixes[pickWeighted(deviceDraw(seed, d, streamMix), mixW)].Benchmarks
		}
		if len(fr.Profiles) > 0 {
			req.Profile = fr.Profiles[pickWeighted(deviceDraw(seed, d, streamProfile), profW)].Phases
		}
		if len(fr.Patterns) > 0 {
			req.DeadPattern = fr.Patterns[pickWeighted(deviceDraw(seed, d, streamPattern), patW)].Pattern
		}
		if req.Faults != nil || req.Recovery != nil {
			ds := deviceHash(seed, d, streamSeed)
			if ds == 0 {
				ds = 1
			}
			req.Seed = ds
		}
		fp := fingerprint(req)
		fps = append(fps, fp)
		if !seen[fp] {
			seen[fp] = true
			order = append(order, fp)
		}
	}
	return fps, order
}

// Option pools of the fuzzed fleets. Each holds aliases: duplicate mixes,
// an empty mix (the default suite), a profile equal to another, three
// patterns that all mean a healthy fabric.
var (
	drawMixes = [][]string{
		{"crc32"}, {"sha"}, {"crc32"}, {"crc32", "sha"}, {"sha", "crc32"}, nil,
	}
	drawProfiles = [][]agingcgra.LifetimePhase{
		{{UntilYears: 2, TemperatureK: 350}},
		{{UntilYears: 2, TemperatureK: 350}},
		{{UntilYears: 1}, {UntilYears: 2, TemperatureK: 340}},
		nil,
	}
	drawPatterns = []string{"healthy", "none", "", "column:0", "column:3"}
	drawWeights  = []float64{0, 1, 0.5, 2, 3}
)

// decodeFleet builds a fleet of at most 256 devices from data: up to four
// options per distribution from the pools above, weights zero included,
// and faults with recovery on or off. Missing bytes read as zero.
func decodeFleet(data []byte) (FleetRequest, uint64) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b
	}
	fr := FleetRequest{
		Devices: 1 + next(),
		Seed:    uint64(next()),
		Base:    ScenarioRequest{Rows: 2, Cols: 8, MaxYears: 2},
	}
	if flags := next(); flags&1 != 0 {
		fr.Base.Faults, fr.Base.Recovery = &agingcgra.FaultModel{}, &agingcgra.RecoveryPolicy{}
	} else if flags&2 != 0 {
		fr.Base.Seed = uint64(flags) // ignored by a fault-free scenario
	}
	for n := next() % 5; n > 0; n-- {
		fr.Mixes = append(fr.Mixes, WeightedMix{
			Benchmarks: drawMixes[next()%len(drawMixes)], Weight: drawWeights[next()%len(drawWeights)]})
	}
	for n := next() % 5; n > 0; n-- {
		fr.Profiles = append(fr.Profiles, WeightedProfile{
			Phases: drawProfiles[next()%len(drawProfiles)], Weight: drawWeights[next()%len(drawWeights)]})
	}
	for n := next() % 5; n > 0; n-- {
		fr.Patterns = append(fr.Patterns, WeightedPattern{
			Pattern: drawPatterns[next()%len(drawPatterns)], Weight: drawWeights[next()%len(drawWeights)]})
	}
	seed := fr.Seed
	if seed == 0 {
		seed = 1
	}
	return fr, seed
}

// FuzzFleetDraw checks drawFleet against referenceDraw: every device's
// combo has the device's own fingerprint, and the combos are the distinct
// fingerprints in the reference's first-appearance order.
func FuzzFleetDraw(f *testing.F) {
	f.Add([]byte{99, 3, 0, 2, 0, 1, 1, 1, 0, 2, 0, 1, 3, 1})
	f.Add([]byte{255, 9, 0, 3, 0, 1, 1, 0, 2, 3, 0, 3, 0, 1, 1, 0, 3, 1})
	f.Add([]byte{49, 5, 1, 0, 0, 2, 0, 1, 3, 1})
	f.Add([]byte{200, 0, 2, 4, 5, 0, 0, 1, 2, 2, 3, 3, 4, 0, 1, 2, 3, 4, 4, 0, 1, 1, 2, 2, 3, 3, 4, 4, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, seed := decodeFleet(data)
		wantFPs, wantOrder := referenceDraw(fr, seed)
		fd := drawFleet(fr, seed)
		if !slices.Equal(fd.fps, wantOrder) {
			t.Fatalf("combos %d, want %d (or out of first-appearance order)", len(fd.fps), len(wantOrder))
		}
		if len(fd.reqs) != len(fd.fps) || len(fd.devices) != fr.Devices {
			t.Fatalf("%d requests for %d combos, %d devices for %d", len(fd.reqs), len(fd.fps), len(fd.devices), fr.Devices)
		}
		for c, req := range fd.reqs {
			if fingerprint(req) != fd.fps[c] {
				t.Fatalf("combo %d's request does not have the combo's fingerprint", c)
			}
		}
		for d, c := range fd.devices {
			if fd.fps[c] != wantFPs[d] {
				t.Fatalf("device %d: combo %d's fingerprint is not the device's", d, c)
			}
		}
	})
}
