// Package cfgcache implements TransRec's configuration cache: translated
// CGRA configurations indexed by the PC of their first instruction (Fig. 2,
// step 3/4 of the paper), with bounded capacity and LRU replacement.
//
// The hot loop probes once or twice per retired instruction (CountMiss
// stands in for a probe known to miss), so the cache is one table with a
// slot per instruction of the program's text segment, indexed by
// (PC − TextBase)/4 — a probe is one array load. Every probed PC is a
// retired one, so it lies in the text segment. The cache knows nothing of
// the fabric state; a caller whose entries go stale empties it with Clear.
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
	// Flushes counts Clear calls: wholesale invalidations, such as the
	// shape-translating DBT's when the fabric state moves.
	Flushes uint64
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
}

// New builds an LRU cache holding at most capacity configurations, for the
// text segment of n word-aligned instructions starting at base.
func New(capacity int, base uint32, n int) *Cache {
	return &Cache{capacity: capacity, base: base, slots: make([]slot, n)}
}

// at returns pc's slot; pc must lie in the text segment.
func (c *Cache) at(pc uint32) *slot { return &c.slots[(pc-c.base)>>2] }

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

// Clear drops every entry and counts a flush; the other statistics stay.
func (c *Cache) Clear() {
	clear(c.slots)
	c.resident = 0
	c.stats.Flushes++
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
