package fabric

// StateKey identifies the observable fabric state a memoized decision was
// taken under: the versions of the health, wear and fault layers. Each
// layer's version moves on every change to that layer, so a memo keyed on
// the StateKey of exactly the layers it reads goes stale exactly when that
// state moves. The key is comparable; equal keys taken from the same maps
// mean unchanged state. Keys from two different maps of one layer may
// collide, so a memo that can see its maps swapped must watch the pointers
// too.
type StateKey struct {
	health, wear, faults uint64
}

// KeyOf returns the StateKey of the given layers. A nil layer — one the
// caller does not observe — reads as zero.
func KeyOf(h *Health, w *Wear, f *Faults) StateKey {
	var k StateKey
	if h != nil {
		k.health = h.version
	}
	if w != nil {
		k.wear = w.version
	}
	if f != nil {
		k.faults = f.version
	}
	return k
}
