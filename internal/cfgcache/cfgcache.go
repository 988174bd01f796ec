// Package cfgcache implements TransRec's configuration cache: translated
// CGRA configurations indexed by the PC of their first instruction (Fig. 2,
// step 3/4 of the paper), with bounded capacity and LRU replacement.
//
// Two invariants carry the rest of the system:
//
//   - Probe cost: the hot loop probes once or twice per retired
//     instruction (CountMiss stands in for a probe known to miss), so the
//     cache is one table with a slot per instruction of the program's text
//     segment, indexed by (PC − TextBase)/4 — a probe is one array load.
//     Every probed PC is a retired one, so it lies in the text segment.
//   - State keying: a cached artifact is a decision taken under one
//     fabric state. Cache.SyncState flushes translations wholesale when
//     the observed fabric.StateKey moves (the shape-translating DBT's
//     contract), so the cache never serves an entry recorded under a
//     different state than the caller currently observes.
package cfgcache

import (
	"cmp"
	"slices"

	"agingcgra/internal/fabric"
)

// Stats counts cache events.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Insertions uint64
	Evictions  uint64
	// Flushes counts wholesale state invalidations (SyncState observing a
	// moved fabric-state key under shape-aware translation).
	Flushes uint64
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Insertions += o.Insertions
	s.Evictions += o.Evictions
	s.Flushes += o.Flushes
}

// slot holds the configuration resident for one text-segment PC (nil when
// none is) and the clock value of its last hit or insert.
type slot struct {
	cfg   *fabric.Config
	stamp uint64
}

// Cache is a PC-indexed configuration cache over one program's text
// segment. The zero value is not usable; call New.
type Cache struct {
	capacity int
	base     uint32
	slots    []slot
	resident int
	// clock orders the slots' stamps: the least recently used resident
	// configuration holds the smallest.
	clock uint64
	stats Stats

	// State keying for shape-aware translation (SyncState): the fabric
	// state the resident translations' shape decisions were taken under,
	// at first that of a pristine, unworn fabric.
	state fabric.StateKey
}

// New builds an LRU cache holding at most capacity configurations, for the
// text segment of n word-aligned instructions starting at base.
func New(capacity int, base uint32, n int) *Cache {
	return &Cache{capacity: capacity, base: base, slots: make([]slot, n)}
}

// at returns pc's slot; pc must lie in the text segment.
func (c *Cache) at(pc uint32) *slot { return &c.slots[(pc-c.base)>>2] }

// SyncState keys the resident translations on the fabric state their shape
// decisions were taken under: when the observed key moves off the recorded
// one, every resident translation's shape was chosen for a fabric that no
// longer exists — a death changes which shapes place, a wear advance
// changes which shape the wear tie-break prefers — so the cache flushes
// wholesale and reports it, and the engine lets the trace builder
// re-translate against the new state. An empty cache only records the
// state. Engines translating shape-unaware never call this and keep the
// plain PC-keyed behaviour.
func (c *Cache) SyncState(h *fabric.Health, w *fabric.Wear) (flushed bool) {
	if c.state.Update(h, w, nil) && c.resident > 0 {
		c.Clear()
		c.stats.Flushes++
		return true
	}
	return false
}

// Len returns the number of resident configurations.
func (c *Cache) Len() int { return c.resident }

// Stats returns the event counters.
func (c *Cache) Stats() Stats { return c.stats }

// Lookup finds the configuration starting at pc, updating hit/miss counts
// and recency.
func (c *Cache) Lookup(pc uint32) (*fabric.Config, bool) {
	s := c.at(pc)
	if s.cfg == nil {
		c.stats.Misses++
		return nil, false
	}
	c.stats.Hits++
	c.clock++
	s.stamp = c.clock
	return s.cfg, true
}

// CountMiss counts a Lookup the caller knows would miss — its PC failed a
// Contains probe and nothing was inserted since — without probing again.
func (c *Cache) CountMiss() { c.stats.Misses++ }

// Contains reports residency without touching stats or recency.
func (c *Cache) Contains(pc uint32) bool { return c.at(pc).cfg != nil }

// Insert stores a configuration, evicting the least recently used one if
// the cache is full. Re-inserting an existing StartPC replaces the old
// configuration.
func (c *Cache) Insert(cfg *fabric.Config) {
	s := c.at(cfg.StartPC)
	if s.cfg == nil {
		if c.resident >= c.capacity {
			c.evict()
		}
		c.resident++
	}
	s.cfg = cfg
	c.clock++
	s.stamp = c.clock
	c.stats.Insertions++
}

// Clear drops every entry, keeping statistics.
func (c *Cache) Clear() {
	clear(c.slots)
	c.resident = 0
}

// Configs returns the resident configurations from most to least recent.
func (c *Cache) Configs() []*fabric.Config {
	out := make([]*fabric.Config, 0, c.resident)
	for _, s := range c.slots {
		if s.cfg != nil {
			out = append(out, s.cfg)
		}
	}
	slices.SortFunc(out, func(a, b *fabric.Config) int {
		return cmp.Compare(c.at(b.StartPC).stamp, c.at(a.StartPC).stamp)
	})
	return out
}

// evict drops the resident configuration with the oldest stamp. No shipped
// workload fills the cache, so the O(slots) scan stays off the hot path.
func (c *Cache) evict() {
	var victim *slot
	for i := range c.slots {
		if s := &c.slots[i]; s.cfg != nil && (victim == nil || s.stamp < victim.stamp) {
			victim = s
		}
	}
	*victim = slot{}
	c.resident--
	c.stats.Evictions++
}
