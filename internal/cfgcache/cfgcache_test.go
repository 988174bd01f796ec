package cfgcache

import (
	"slices"
	"testing"

	"agingcgra/internal/fabric"
)

// base and window are the text segment the tests' caches cover.
const (
	base   = 0x1000
	window = 512
)

func cfg(pc uint32) *fabric.Config {
	return &fabric.Config{StartPC: pc, Geom: fabric.NewGeometry(2, 8)}
}

func newCache(capacity int) *Cache { return New(capacity, base, window) }

func TestLookupMissAndHit(t *testing.T) {
	c := newCache(4)
	if _, ok := c.Lookup(base); ok {
		t.Fatal("hit on empty cache")
	}
	c.Insert(cfg(base))
	got, ok := c.Lookup(base)
	if !ok || got.StartPC != base {
		t.Fatal("miss after insert")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Insertions != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	c := newCache(2)
	c.Insert(cfg(base + 4))
	c.Insert(cfg(base + 8))
	c.Lookup(base + 4) // make base+4 most recent
	c.Insert(cfg(base + 12))
	if c.Contains(base + 8) {
		t.Error("base+8 should have been evicted (LRU)")
	}
	if !c.Contains(base+4) || !c.Contains(base+12) {
		t.Error("base+4 and base+12 should be resident")
	}
	if c.Stats().Evictions != 1 {
		t.Errorf("evictions = %d, want 1", c.Stats().Evictions)
	}
}

func TestReplaceExisting(t *testing.T) {
	c := newCache(2)
	c.Insert(cfg(base))
	newer := cfg(base)
	newer.UsedCols = 5
	c.Insert(newer)
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1", c.Len())
	}
	got, _ := c.Lookup(base)
	if got.UsedCols != 5 {
		t.Error("replacement did not take effect")
	}
	if c.Stats().Evictions != 0 {
		t.Error("replacement should not evict")
	}
}

func TestClear(t *testing.T) {
	c := newCache(4)
	c.Insert(cfg(base + 4))
	c.Insert(cfg(base + 8))
	c.Clear()
	if c.Len() != 0 || c.Contains(base+4) || c.Contains(base+8) {
		t.Error("Clear failed")
	}
	if st := c.Stats(); st.Insertions != 2 || st.Flushes != 1 {
		t.Errorf("stats = %+v after Clear, want 2 insertions kept and 1 flush counted", st)
	}
	// Cache still usable after Clear.
	c.Insert(cfg(base + 12))
	if !c.Contains(base+12) || c.Len() != 1 {
		t.Error("insert after Clear failed")
	}
}

func TestConfigsOrder(t *testing.T) {
	c := newCache(4)
	c.Insert(cfg(base + 4))
	c.Insert(cfg(base + 8))
	c.Insert(cfg(base + 12))
	c.Lookup(base + 4)
	got := c.Configs()
	want := []uint32{base + 4, base + 12, base + 8}
	if len(got) != 3 {
		t.Fatalf("len = %d", len(got))
	}
	for i := range want {
		if got[i].StartPC != want[i] {
			t.Errorf("configs[%d] = %#x, want %#x", i, got[i].StartPC, want[i])
		}
	}
}

// TestLRUThroughHitsAndInserts fills a 2-entry cache through a mix of hits,
// misses and inserts, and checks the victim, the event counts and the
// recency order together: a hit renews a slot exactly as an insert does.
func TestLRUThroughHitsAndInserts(t *testing.T) {
	c := newCache(2)
	c.Insert(cfg(base))
	c.Insert(cfg(base + 4))
	c.Lookup(base)     // hit: base is now more recent than base+4
	c.Lookup(base + 8) // miss
	c.Insert(cfg(base + 8))
	if c.Contains(base + 4) {
		t.Error("base+4 was least recently used and should have been evicted")
	}
	c.Lookup(base + 4) // miss
	want := Stats{Hits: 1, Misses: 2, Insertions: 3, Evictions: 1}
	if got := c.Stats(); got != want {
		t.Errorf("stats = %+v, want %+v", got, want)
	}
	var pcs []uint32
	for _, cfg := range c.Configs() {
		pcs = append(pcs, cfg.StartPC)
	}
	if want := []uint32{base + 8, base}; !slices.Equal(pcs, want) {
		t.Errorf("configs start at %#x, want %#x", pcs, want)
	}
}

func TestManyInsertionsStayBounded(t *testing.T) {
	c := newCache(8)
	const end = base + 4*window
	for pc := uint32(base); pc < end; pc += 4 {
		c.Insert(cfg(pc))
		if c.Len() > 8 {
			t.Fatalf("cache grew to %d entries", c.Len())
		}
	}
	if c.Len() != 8 {
		t.Errorf("len = %d, want 8", c.Len())
	}
	// The 8 most recent PCs must be resident.
	for pc := uint32(end - 8*4); pc < end; pc += 4 {
		if !c.Contains(pc) {
			t.Errorf("recent pc %#x missing", pc)
		}
	}
	if got := c.Stats().Evictions; got != window-8 {
		t.Errorf("evictions = %d, want %d", got, window-8)
	}
}
