package fabric

// StateKey identifies the observable fabric state a memoized decision was
// taken under: the health layer's dead cells by content, and the versions
// of the wear and fault layers. A memo keyed on the StateKey of exactly
// the layers it reads goes stale exactly when that state moves. The key is
// comparable. Equal dead sets are the same health state whichever map
// holds them, so a Kill undone by a Revive restores the key. Wear and
// fault versions move on every change to their map, but two different maps
// of one layer may share a version, so a memo that can see its wear or
// fault map swapped must watch the pointer too.
type StateKey struct {
	wear, faults uint64
	dead         Mask
}

// KeyOf returns the StateKey of the given layers. A nil layer — one the
// caller does not observe — reads as zero (a nil health map as all-alive).
func KeyOf(h *Health, w *Wear, f *Faults) StateKey {
	return StateKey{dead: h.Mask(), wear: w.ver(), faults: f.ver()}
}

// Update sets k to KeyOf(h, w, f) and reports whether that moved it. It
// compares only the mask words h's geometry uses, so it is the form for
// hot paths that hold one key across calls against maps of one geometry.
func (k *StateKey) Update(h *Health, w *Wear, f *Faults) (moved bool) {
	if k.wear == w.ver() && k.faults == f.ver() && h.Matches(&k.dead) {
		return false
	}
	*k = KeyOf(h, w, f)
	return true
}

func (w *Wear) ver() uint64 {
	if w == nil {
		return 0
	}
	return w.version
}

func (f *Faults) ver() uint64 {
	if f == nil {
		return 0
	}
	return f.version
}
