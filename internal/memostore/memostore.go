// Package memostore is the concurrency-safe, content-addressed memo store
// behind the fleet-scale lifetime service: a bounded LRU map from a
// caller-chosen content key to an immutable computed value, with
// single-flight computation and hit/miss/eviction counters.
//
// The store itself is policy-free — it does not know what a scenario or an
// epoch is. The *keying discipline* is the caller's contract, and it is the
// same rule the per-run epoch memo established in PRs 2–6: a key must cover
// every input the cached computation's outcome is a pure function of
// (co-simulation fingerprint, health content, wear content — whichever of
// those the computation observes; a version is comparable only within one
// trajectory, and a shared store serves many). A key that under-describes
// its inputs returns stale values silently; nothing in this package can
// detect that.
//
// Invariants later PRs must preserve:
//
//   - Values are immutable once stored. A value may be handed to any number
//     of concurrent readers (fleet requests share one *lifetime.Result per
//     distinct device key), so callers must never mutate a value obtained
//     from — or inserted into — the store.
//   - GetOrCompute is single-flight per key: concurrent callers of the same
//     key block on one computation instead of duplicating it, and the
//     computed value (or error — errors are memoized too, matching the
//     historical dse.RefCache contract) is shared.
//   - Determinism: the store only ever substitutes a value for a
//     computation of the same key. Provided callers key correctly, a warm
//     store and a cold store produce byte-identical results — the service's
//     repeat-request and serial-vs-parallel determinism tests pin this.
package memostore

import (
	"container/list"
	"sync"
)

// Stats is a point-in-time snapshot of the store's counters.
type Stats struct {
	// Hits counts lookups served from the store: a GetOrCompute that
	// found its key, completed or in flight, and a Get that found a
	// completed entry. Misses counts the GetOrCompute calls that had to
	// compute. A Get that finds nothing counts neither.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Evictions counts entries discarded by the LRU bound.
	Evictions uint64 `json:"evictions"`
	// Entries is the current entry count, Capacity the LRU bound
	// (0 = unbounded).
	Entries  int `json:"entries"`
	Capacity int `json:"capacity"`
}

// HitRate is Hits/(Hits+Misses); 0 before any lookup.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

type entry struct {
	key  any
	elem *list.Element
	once sync.Once
	val  any
	err  error
	// done reports that the single-flight computation has completed; it is
	// guarded by Store.mu. Entries still in flight are exempt from LRU
	// eviction (see evictLocked): evicting one would detach the map entry
	// from the running computation, so a racing caller of the same key
	// would silently start a duplicate.
	done bool
}

// Store is a content-addressed LRU memo map. Safe for concurrent use.
// Keys may be any comparable value; values are stored as written and must
// be treated as immutable by every caller.
type Store struct {
	mu  sync.Mutex
	cap int
	m   map[any]*entry
	lru *list.List // front = most recently used

	hits, misses, evictions uint64
}

// New builds an empty store bounded to capacity entries (<= 0: unbounded).
func New(capacity int) *Store {
	if capacity < 0 {
		capacity = 0
	}
	return &Store{cap: capacity, m: make(map[any]*entry), lru: list.New()}
}

// lookup returns the entry for key, creating (and LRU-inserting) it when
// absent. created reports whether this call created it.
func (s *Store) lookup(key any) (e *entry, created bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.m[key]; ok {
		s.hits++
		s.lru.MoveToFront(e.elem)
		return e, false
	}
	s.misses++
	e = &entry{key: key}
	e.elem = s.lru.PushFront(e)
	s.m[key] = e
	s.evictLocked()
	return e, true
}

// evictLocked trims the store to capacity, walking from the LRU tail and
// skipping entries whose computation is still in flight. The store may
// therefore sit temporarily over capacity while computations run;
// GetOrCompute re-trims as each one completes. Requires s.mu held.
func (s *Store) evictLocked() {
	if s.cap <= 0 {
		return
	}
	for back := s.lru.Back(); back != nil && len(s.m) > s.cap; {
		victim := back.Value.(*entry)
		prev := back.Prev()
		if victim.done {
			s.lru.Remove(back)
			delete(s.m, victim.key)
			s.evictions++
		}
		back = prev
	}
}

// GetOrCompute returns the memoized value for key, running compute at most
// once per resident key (single-flight: concurrent callers of the same key
// share one computation). Errors are memoized alongside values: a key whose
// computation failed keeps failing until the entry is evicted. The returned
// value must be treated as immutable.
func (s *Store) GetOrCompute(key any, compute func() (any, error)) (any, error) {
	e, _ := s.lookup(key)
	e.once.Do(func() {
		e.val, e.err = compute()
		// Only now may the LRU evict this entry; trim any over-capacity
		// slack that eviction deferred while the computation ran.
		s.mu.Lock()
		e.done = true
		s.evictLocked()
		s.mu.Unlock()
	})
	return e.val, e.err
}

// Get returns the value and memoized error of key's completed entry, and
// ok reports that there was one. A found entry counts a hit and becomes
// the most recently used, as with GetOrCompute. An absent key, or one
// whose computation is still in flight, counts nothing, so a caller that
// falls back to GetOrCompute counts that one lookup exactly once.
func (s *Store) Get(key any) (val any, ok bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, found := s.m[key]
	if !found || !e.done {
		return nil, false, nil
	}
	s.hits++
	s.lru.MoveToFront(e.elem)
	return e.val, true, e.err
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Hits:      s.hits,
		Misses:    s.misses,
		Evictions: s.evictions,
		Entries:   len(s.m),
		Capacity:  s.cap,
	}
}
