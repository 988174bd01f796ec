package mapper

import (
	"encoding/binary"

	"agingcgra/internal/fabric"
)

// Memo remembers Map's results by content, so a layer that maps the same
// trace into the same shape around the same dead cells again — the remap
// rescue on every simulated epoch, the DBT's shape ladder on every
// re-translation — reads the stored placement instead of re-running the
// greedy search.
//
// A result is keyed on everything Map reads: the trace's content (PC,
// instruction and direction of every entry; PCs collide across programs),
// Geom, Lat and the Dead mask. Wear, the anchor and the caller are not in
// the key, so a stored result never goes stale and one Memo serves every
// layer of a scenario.
//
// A hit re-adds the stored probe count to Options.Probes (the modelled
// hardware keeps no such memo, so search-cost totals are those of a
// re-mapping run) and returns the stored *fabric.Config itself. Every
// configuration Map returns is borrowed: callers read it and must not
// change it, and a caller that keeps one — inserts it in a cache, hands it
// to the controller, keys state on its pointer (the explorer's held pivot)
// — keeps Keep's clone instead, so no two kept configurations share a
// pointer.
//
// A nil *Memo maps directly. A Memo is not safe for concurrent use.
type Memo struct {
	traces  map[string]uint32      // encoded trace content -> id
	opts    map[optsKey]uint32     // Geom, Lat -> id
	masks   map[fabric.Mask]uint32 // dead cells in Geom's frame -> id
	results map[memoKey]memoResult
	buf     []byte // encoding scratch, reused by every lookup
}

// optsKey is everything of Options that Map reads besides Dead.
type optsKey struct {
	geom fabric.Geometry
	lat  fabric.LatencyTable
}

// memoKey names one Map call by the ids of its interned parts, so a result
// entry stays small however long the trace or wide the fabric.
type memoKey struct {
	trace, opts, dead uint32
}

// memoResult is one stored Map outcome; cfg is nil when nothing was placed.
type memoResult struct {
	cfg      *fabric.Config
	consumed int
	probes   uint64
}

// TraceKey is a trace interned in a Memo: encoded and hashed once by
// Memo.Key, then mapped into any number of shapes and masks.
type TraceKey struct {
	trace []TraceEntry
	id    uint32
}

// NewMemo returns an empty mapping memo.
func NewMemo() *Memo {
	return &Memo{
		traces:  make(map[string]uint32),
		opts:    make(map[optsKey]uint32),
		masks:   make(map[fabric.Mask]uint32),
		results: make(map[memoKey]memoResult),
	}
}

// Key interns trace's content. The key holds trace itself, which Map reads
// on a miss, so trace must not change while the key is in use.
func (m *Memo) Key(trace []TraceEntry) TraceKey {
	if m == nil {
		return TraceKey{trace: trace}
	}
	b := m.buf[:0]
	for _, e := range trace {
		taken := byte(0)
		if e.Taken {
			taken = 1
		}
		b = binary.LittleEndian.AppendUint32(b, e.PC)
		b = append(b, byte(e.Inst.Op), byte(e.Inst.Rd), byte(e.Inst.Rs1), byte(e.Inst.Rs2), taken)
		b = binary.LittleEndian.AppendUint32(b, uint32(e.Inst.Imm))
	}
	m.buf = b
	return TraceKey{trace: trace, id: intern(m.traces, b)}
}

// Map returns what Map(trace, opt) returns for the keyed trace, mapping it
// only the first time this (trace, Geom, Lat, dead mask) is seen. Every
// call returns the stored configuration, borrowed.
func (m *Memo) Map(k TraceKey, opt Options) (*fabric.Config, int) {
	if m == nil {
		return Map(k.trace, opt)
	}
	key := memoKey{
		trace: k.id,
		opts:  idOf(m.opts, optsKey{geom: opt.Geom, lat: opt.Lat}),
		dead:  idOf(m.masks, opt.Dead),
	}
	if r, hit := m.results[key]; hit {
		if opt.Probes != nil {
			*opt.Probes += r.probes
		}
		return r.cfg, r.consumed
	}
	var probes uint64
	o := opt
	o.Probes = &probes
	cfg, consumed := Map(k.trace, o)
	if cfg != nil {
		cfg.Cells() // computed once, shared by every borrower and clone
	}
	m.results[key] = memoResult{cfg: cfg, consumed: consumed, probes: probes}
	if opt.Probes != nil {
		*opt.Probes += probes
	}
	return cfg, consumed
}

// Keep returns a configuration the caller may keep in place of cfg, which
// Map returned: a clone sharing cfg's immutable ops and cells when cfg is
// the memo's, cfg itself from a nil Memo, which stores nothing.
func (m *Memo) Keep(cfg *fabric.Config) *fabric.Config {
	if m == nil || cfg == nil {
		return cfg
	}
	return cfg.Clone()
}

// idOf returns k's id in ids, assigning the next one on first sight.
func idOf[K comparable](ids map[K]uint32, k K) uint32 {
	id, ok := ids[k]
	if !ok {
		id = uint32(len(ids))
		ids[k] = id
	}
	return id
}

// intern returns b's id in ids, assigning the next one on first sight. The
// lookup does not allocate; only a new entry copies b.
func intern(ids map[string]uint32, b []byte) uint32 {
	if id, ok := ids[string(b)]; ok {
		return id
	}
	id := uint32(len(ids))
	ids[string(b)] = id
	return id
}
