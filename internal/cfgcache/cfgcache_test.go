package cfgcache

import (
	"testing"

	"agingcgra/internal/fabric"
)

func cfg(pc uint32) *fabric.Config {
	return &fabric.Config{StartPC: pc, Geom: fabric.NewGeometry(2, 8)}
}

func TestLookupMissAndHit(t *testing.T) {
	c := New(4)
	if _, ok := c.Lookup(0x1000); ok {
		t.Fatal("hit on empty cache")
	}
	c.Insert(cfg(0x1000))
	got, ok := c.Lookup(0x1000)
	if !ok || got.StartPC != 0x1000 {
		t.Fatal("miss after insert")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Insertions != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.HitRate() != 0.5 {
		t.Errorf("hit rate = %v, want 0.5", st.HitRate())
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(2)
	c.Insert(cfg(0x1))
	c.Insert(cfg(0x2))
	c.Lookup(0x1) // make 0x1 most recent
	c.Insert(cfg(0x3))
	if c.Contains(0x2) {
		t.Error("0x2 should have been evicted (LRU)")
	}
	if !c.Contains(0x1) || !c.Contains(0x3) {
		t.Error("0x1 and 0x3 should be resident")
	}
	if c.Stats().Evictions != 1 {
		t.Errorf("evictions = %d, want 1", c.Stats().Evictions)
	}
}

func TestReplaceExisting(t *testing.T) {
	c := New(2)
	c.Insert(cfg(0x1))
	newer := cfg(0x1)
	newer.UsedCols = 5
	c.Insert(newer)
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1", c.Len())
	}
	got, _ := c.Lookup(0x1)
	if got.UsedCols != 5 {
		t.Error("replacement did not take effect")
	}
	if c.Stats().Evictions != 0 {
		t.Error("replacement should not evict")
	}
}

func TestRemoveAndClear(t *testing.T) {
	c := New(4)
	c.Insert(cfg(0x1))
	c.Insert(cfg(0x2))
	c.Remove(0x1)
	if c.Contains(0x1) || c.Len() != 1 {
		t.Error("Remove failed")
	}
	c.Remove(0x999) // no-op
	c.Clear()
	if c.Len() != 0 || c.Contains(0x2) {
		t.Error("Clear failed")
	}
	// Cache still usable after Clear.
	c.Insert(cfg(0x3))
	if !c.Contains(0x3) {
		t.Error("insert after Clear failed")
	}
}

func TestConfigsOrder(t *testing.T) {
	c := New(4)
	c.Insert(cfg(0x1))
	c.Insert(cfg(0x2))
	c.Insert(cfg(0x3))
	c.Lookup(0x1)
	got := c.Configs()
	want := []uint32{0x1, 0x3, 0x2}
	if len(got) != 3 {
		t.Fatalf("len = %d", len(got))
	}
	for i := range want {
		if got[i].StartPC != want[i] {
			t.Errorf("configs[%d] = %#x, want %#x", i, got[i].StartPC, want[i])
		}
	}
}

func TestCapacityFloor(t *testing.T) {
	c := New(0)
	if c.Capacity() != 1 {
		t.Errorf("capacity = %d, want 1", c.Capacity())
	}
	c.Insert(cfg(0x1))
	c.Insert(cfg(0x2))
	if c.Len() != 1 {
		t.Errorf("len = %d, want 1", c.Len())
	}
}

func TestNilInsert(t *testing.T) {
	c := New(2)
	c.Insert(nil)
	if c.Len() != 0 {
		t.Error("nil insert should be ignored")
	}
}

func TestManyInsertionsStayBounded(t *testing.T) {
	c := New(8)
	for pc := uint32(0); pc < 1000; pc += 4 {
		c.Insert(cfg(pc))
		if c.Len() > 8 {
			t.Fatalf("cache grew to %d entries", c.Len())
		}
	}
	if c.Len() != 8 {
		t.Errorf("len = %d, want 8", c.Len())
	}
	// The 8 most recent PCs must be resident.
	for pc := uint32(1000 - 8*4); pc < 1000; pc += 4 {
		if !c.Contains(pc) {
			t.Errorf("recent pc %#x missing", pc)
		}
	}
}

// denseCacheEqual checks every PC in window agrees between dense probes and
// the authoritative map.
func denseCacheEqual(t *testing.T, c *Cache, base uint32, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		pc := base + uint32(i)*4
		_, inMap := c.entries[pc]
		if got := c.Contains(pc); got != inMap {
			t.Errorf("pc %#x: dense Contains=%v, map residency=%v", pc, got, inMap)
		}
	}
}

func TestDenseTableTracksMutations(t *testing.T) {
	const base, window = 0x1000, 64
	c := New(4)
	c.Insert(cfg(base))         // resident before the table exists
	c.EnableDense(base, window) // must index existing entries
	denseCacheEqual(t, c, base, window)

	for _, pc := range []uint32{base + 8, base + 16, base + 24, base + 32} {
		c.Insert(cfg(pc)) // last insert evicts base through the dense slot
	}
	denseCacheEqual(t, c, base, window)
	if c.Contains(base) {
		t.Error("evicted entry still visible through dense table")
	}

	c.Remove(base + 16)
	denseCacheEqual(t, c, base, window)

	if _, ok := c.Lookup(base + 8); !ok {
		t.Error("dense lookup missed a resident entry")
	}
	if _, ok := c.Lookup(base + 16); ok {
		t.Error("dense lookup hit a removed entry")
	}

	c.Clear()
	denseCacheEqual(t, c, base, window)
	if c.Len() != 0 {
		t.Errorf("len after clear = %d", c.Len())
	}

	// Out-of-window and misaligned PCs fall back to the map path.
	out := base + uint32(window)*4 + 100
	c.Insert(cfg(out))
	if !c.Contains(out) {
		t.Error("out-of-window entry lost")
	}
	if c.Contains(base + 2) {
		t.Error("misaligned pc reported resident")
	}
}

func TestDenseLookupKeepsStatsAndRecency(t *testing.T) {
	const base = 0x1000
	plain := New(2)
	dense := New(2)
	dense.EnableDense(base, 32)
	ops := func(c *Cache) Stats {
		c.Insert(cfg(base))
		c.Insert(cfg(base + 4))
		c.Lookup(base)     // hit; moves base to front
		c.Lookup(base + 8) // miss
		c.Insert(cfg(base + 8))
		// base+4 was least recent, must have been evicted.
		c.Lookup(base + 4)
		return c.Stats()
	}
	if a, b := ops(plain), ops(dense); a != b {
		t.Errorf("stats diverge: plain %+v dense %+v", a, b)
	}
	if plain.Contains(base+4) || dense.Contains(base+4) {
		t.Error("LRU recency diverged from expectation")
	}
}

// TestSyncStateFlushesOnVersionMove pins the translation-cache state
// keying behind shape-aware translation: the first SyncState only records
// the fabric-state key, an unchanged state keeps every entry, and any
// health or wear move flushes wholesale — dense table included — and
// counts a flush.
func TestSyncStateFlushesOnVersionMove(t *testing.T) {
	g := fabric.NewGeometry(2, 4)
	h, w := fabric.NewHealth(g), fabric.NewWear(g)
	c := New(8)
	c.EnableDense(0x1000, 16)
	h.Kill(fabric.Cell{Row: 0, Col: 0})
	if c.SyncState(h, w) {
		t.Error("first SyncState flushed; it should only record the state")
	}
	c.Insert(cfg(0x1000))
	c.Insert(cfg(0x1008))
	if c.SyncState(h, w) {
		t.Error("unchanged state flushed")
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}

	h.Kill(fabric.Cell{Row: 1, Col: 2})
	if !c.SyncState(h, w) {
		t.Error("a death did not flush")
	}
	if c.Len() != 0 {
		t.Errorf("len = %d after health flush, want 0", c.Len())
	}
	if c.Contains(0x1000) {
		t.Error("dense table still reports a flushed translation")
	}

	c.Insert(cfg(0x1000))
	w.Add(fabric.Cell{Row: 0, Col: 1}, 0.5)
	if !c.SyncState(h, w) {
		t.Error("wear version move did not flush")
	}
	if got := c.Stats().Flushes; got != 2 {
		t.Errorf("flushes = %d, want 2", got)
	}

	// An empty cache observing a move records it without counting a flush.
	h.Kill(fabric.Cell{Row: 1, Col: 3})
	if c.SyncState(h, w) {
		t.Error("empty cache reported a flush")
	}
}
