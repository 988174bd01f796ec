package service

import (
	"math"
	"testing"
)

// deviceHash, deviceDraw and pickWeighted are the device draw done the
// plain way: hash (seed, device, stream) from scratch, and walk the
// weights with a branch per option, summing them on every call.
// referenceDraw and FuzzFleetDraw check drawFleet against them.
func deviceHash(seed uint64, device, stream int) uint64 {
	h := mix64(seed ^ (uint64(device)+1)*0x9e3779b97f4a7c15)
	return mix64(h ^ (uint64(stream)+1)*0xc2b2ae3d27d4eb4f)
}

func deviceDraw(seed uint64, device, stream int) float64 {
	h := deviceHash(seed, device, stream)
	return float64(h>>11) / (1 << 53)
}

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

// TestPickerMatchesPickWeighted checks the branch-free pick against
// pickWeighted at every draw where an option boundary falls, found by
// bisecting pickWeighted over the 2^53 possible draws, one draw either
// side of it, and the extreme draws. The weight lists cover a single
// option, zero weights, subnormal and negative-zero weights, and a total
// that overflows to +Inf (where the zero draw makes a NaN).
func TestPickerMatchesPickWeighted(t *testing.T) {
	const draws = 1 << 53
	unit := func(k int64) float64 { return float64(k) / draws }
	for _, ws := range [][]float64{
		{0}, {1, 1}, {0.1, 0.2, 0.3}, {5e-324, 1}, {1, 5e-324, 1},
		{math.Copysign(0, -1), 1}, {1e308, 1e308},
	} {
		ks := []int64{0, 1, draws - 1}
		for i := 1; i < len(ws); i++ {
			// The first draw that picks option i or later.
			lo, hi := int64(0), int64(draws)
			for lo < hi {
				mid := lo + (hi-lo)/2
				if pickWeighted(unit(mid), ws) >= i {
					hi = mid
				} else {
					lo = mid + 1
				}
			}
			ks = append(ks, lo-1, lo, lo+1)
		}
		p := newPicker(ws)
		for _, k := range ks {
			if k < 0 || k >= draws {
				continue
			}
			if got, want := p.pick(unit(k)), pickWeighted(unit(k), ws); got != want {
				t.Errorf("weights %v, draw %d/2^53: pick %d, pickWeighted %d", ws, k, got, want)
			}
		}
	}
}

// TestFleetDrawReachesBothSlotIndexes states what FuzzFleetDraw covers:
// its fleets have 1 to 256 devices and up to 4x4x4 slots, so it reaches
// both the dense slot table (no more slots than devices) and the map
// (more slots than devices). One input of each kind is checked here.
func TestFleetDrawReachesBothSlotIndexes(t *testing.T) {
	for _, tc := range []struct {
		name  string
		data  []byte
		dense bool
	}{
		// 200 devices over 4 mixes, 4 profiles and 4 patterns: 64 slots.
		{"table", []byte{199, 7, 0, 4, 0, 1, 1, 2, 2, 3, 3, 4, 4, 0, 0, 1, 1, 2, 2, 3, 4, 0, 1, 1, 2, 2, 3, 3, 4}, true},
		// One device over 2 mixes and 3 patterns: 6 slots.
		{"map", []byte{0, 4, 0, 2, 0, 1, 3, 2, 0, 3, 1, 2, 4, 3}, false},
	} {
		fr, seed := decodeFleet(tc.data)
		slots := max(len(fr.Mixes), 1) * max(len(fr.Profiles), 1) * max(len(fr.Patterns), 1)
		if dense := slots <= fr.Devices; dense != tc.dense {
			t.Fatalf("%s: %d slots for %d devices", tc.name, slots, fr.Devices)
		}
		wantFPs, wantOrder := referenceDraw(fr, seed)
		fd := drawFleet(fr, seed)
		if len(fd.fps) != len(wantOrder) {
			t.Fatalf("%s: %d combos, want %d", tc.name, len(fd.fps), len(wantOrder))
		}
		for d, c := range fd.devices {
			if fd.fps[c] != wantFPs[d] || fd.fps[c] != wantOrder[c] {
				t.Fatalf("%s: device %d drew combo %d with the wrong fingerprint", tc.name, d, c)
			}
		}
	}
}
