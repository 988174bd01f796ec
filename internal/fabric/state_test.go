package fabric

import "testing"

// TestKeyOf pins the fabric-state key contract memos rely on: a nil layer
// reads as zero, each mutation moves only its own layer's component, a
// mutation that changes nothing keeps the key, and Update agrees with
// KeyOf.
func TestKeyOf(t *testing.T) {
	g := NewGeometry(2, 4)
	c := Cell{Row: 1, Col: 2}
	cases := []struct {
		name string
		// prep runs before the "before" key is taken, mutate after it.
		prep, mutate func(h *Health, w *Wear, f *Faults)
		// moved is the component the mutation must advance (0 none,
		// 1 health, 2 wear, 3 faults).
		moved int
	}{
		{name: "kill", mutate: func(h *Health, _ *Wear, _ *Faults) { h.Kill(c) }, moved: 1},
		{
			name:   "revive",
			prep:   func(h *Health, _ *Wear, _ *Faults) { h.Kill(c) },
			mutate: func(h *Health, _ *Wear, _ *Faults) { h.Revive(c) },
			moved:  1,
		},
		{name: "add", mutate: func(_ *Health, w *Wear, _ *Faults) { w.Add(c, 0.5) }, moved: 2},
		{name: "set", mutate: func(_ *Health, _ *Wear, f *Faults) { f.Set(c, 0.1) }, moved: 3},
		{
			name:   "repeat kill",
			prep:   func(h *Health, _ *Wear, _ *Faults) { h.Kill(c) },
			mutate: func(h *Health, _ *Wear, _ *Faults) { h.Kill(c) },
		},
		{name: "revive live cell", mutate: func(h *Health, _ *Wear, _ *Faults) { h.Revive(c) }},
		{
			name: "non-positive add",
			mutate: func(_ *Health, w *Wear, _ *Faults) {
				w.Add(c, 0)
				w.Add(c, -1)
			},
		},
		{
			name:   "unchanged set",
			prep:   func(_ *Health, _ *Wear, f *Faults) { f.Set(c, 0.1) },
			mutate: func(_ *Health, _ *Wear, f *Faults) { f.Set(c, 0.1) },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h, w, f := NewHealth(g), NewWear(g), NewFaults(g)
			if tc.prep != nil {
				tc.prep(h, w, f)
			}
			before := KeyOf(h, w, f)
			tc.mutate(h, w, f)
			after := KeyOf(h, w, f)
			want := before
			switch tc.moved {
			case 1:
				want.dead = after.dead
			case 2:
				want.wear = after.wear
			case 3:
				want.faults = after.faults
			}
			if after != want {
				t.Errorf("key %+v -> %+v: only component %d may move", before, after, tc.moved)
			}
			if tc.moved != 0 && after == before {
				t.Errorf("key %+v did not move", before)
			}
			u := before
			if moved := u.Update(h, w, f); moved != (after != before) || u != after {
				t.Errorf("Update moved = %v to %+v, KeyOf gives %+v", moved, u, after)
			}
		})
	}

	t.Run("health by content", func(t *testing.T) {
		a, b := NewHealth(g), NewHealth(g)
		before := KeyOf(a, nil, nil)
		a.Kill(c)
		b.Kill(c)
		if KeyOf(a, nil, nil) != KeyOf(b, nil, nil) {
			t.Error("two maps with the same dead cells give different keys")
		}
		a.Revive(c)
		if KeyOf(a, nil, nil) != before {
			t.Error("a Kill undone by a Revive did not restore the key")
		}
	})

	t.Run("nil layers", func(t *testing.T) {
		if k := KeyOf(nil, nil, nil); k != (StateKey{}) {
			t.Errorf("all-nil key = %+v, want zero", k)
		}
		h, w, f := NewHealth(g), NewWear(g), NewFaults(g)
		h.Kill(c)
		w.Add(c, 1)
		f.Set(c, 0.2)
		if k := KeyOf(nil, w, nil); k != (StateKey{wear: w.version}) {
			t.Errorf("wear-only key = %+v, want health and faults zero", k)
		}
		if k := KeyOf(h, nil, f); k != (StateKey{dead: h.Mask(), faults: f.version}) {
			t.Errorf("key without wear = %+v, want wear zero", k)
		}
	})
}
