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
// Geom, Lat and the Dead mask. A dead mask is interned by the words Geom's
// cells use (one word for a window of at most 64 cells): every bit past
// them is zero, and Geom is in the key. Wear, the anchor and the caller are
// not in the key, so a stored result never goes stale and one Memo serves
// every layer of a scenario.
//
// Scan memoizes one level up: the placing windows of a whole remap rescue
// scan, a list per (trace, ladder with its latency table, physical
// geometry, physical dead mask). The list holds no wear either, so a
// rescue that reruns because wear moved re-scores the stored list instead
// of looking up every window again.
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
	traces  map[string]uint32  // encoded trace content -> id
	opts    map[optsKey]uint32 // Geom, Lat -> id
	masks   map[string]uint32  // used words of a dead mask in Geom's frame -> id
	results map[memoKey]memoResult
	scans   map[string]scanResult // encoded Scan key -> its windows
	buf     []byte                // encoding scratch, reused by every lookup
	windows []Window              // Scan's collection scratch
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

// scanResult is one stored Scan outcome: its placing windows, sized
// exactly, and the probes every window of the scan counted.
type scanResult struct {
	windows []Window
	probes  uint64
}

// Window is one placing window of a Scan: the trace mapped into the shape
// Cfg.Geom anchored at Anchor, holding the first Consumed entries. Cfg is
// borrowed, as from Map.
type Window struct {
	Cfg      *fabric.Config
	Consumed int
	Anchor   fabric.Offset
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
		masks:   make(map[string]uint32),
		results: make(map[memoKey]memoResult),
		scans:   make(map[string]scanResult),
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
	m.buf = appendWords(m.buf[:0], &opt.Dead, opt.Geom)
	key := memoKey{
		trace: k.id,
		opts:  idOf(m.opts, optsKey{geom: opt.Geom, lat: opt.Lat}),
		dead:  intern(m.masks, m.buf),
	}
	if r, hit := m.results[key]; hit {
		addProbes(opt.Probes, r.probes)
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
	addProbes(opt.Probes, probes)
	return cfg, consumed
}

// Scan maps the keyed trace into every window of a rescue scan — each
// shape of the ladder anchored at each cell of phys, the shape's dead cells
// read from the physical dead mask through fabric.Mask.Window — through
// Map, and returns the windows that place on live physical cells, in shape
// order then row-major anchor order, adding every window's probes to
// *probes (when non-nil). The list is stored, sized exactly, under the
// trace, the shapes with lat, phys and the used words of dead; a later
// Scan of the same key returns it, borrowed, and re-adds the stored probes
// without a single Map lookup. A nil Memo builds the list afresh on every
// call.
func (m *Memo) Scan(k TraceKey, shapes []fabric.Geometry, lat fabric.LatencyTable, phys fabric.Geometry, dead fabric.Mask, probes *uint64) []Window {
	var (
		key string
		ws  []Window
	)
	if m != nil {
		b := binary.LittleEndian.AppendUint32(m.buf[:0], k.id)
		b = binary.LittleEndian.AppendUint32(b, idOf(m.opts, optsKey{geom: phys, lat: lat}))
		for _, g := range shapes {
			b = binary.LittleEndian.AppendUint32(b, idOf(m.opts, optsKey{geom: g, lat: lat}))
		}
		m.buf = appendWords(b, &dead, phys)
		if s, hit := m.scans[string(m.buf)]; hit {
			addProbes(probes, s.probes)
			return s.windows
		}
		key = string(m.buf)
		ws = m.windows[:0]
	}
	var s scanResult
	for _, shape := range shapes {
		for a := 0; a < phys.NumFUs(); a++ {
			anchor := fabric.Offset{Row: a / phys.Cols, Col: a % phys.Cols}
			cfg, consumed := m.Map(k, Options{
				Geom:   shape,
				Lat:    lat,
				Dead:   dead.Window(anchor, shape, phys),
				Probes: &s.probes,
			})
			// The window's mask keeps the placement off dead cells by
			// construction; checking the physical cells keeps that true
			// even for a shape that wraps onto itself.
			if cfg != nil && !dead.Hits(cfg.Cells(), anchor, phys) {
				ws = append(ws, Window{Cfg: cfg, Consumed: consumed, Anchor: anchor})
			}
		}
	}
	addProbes(probes, s.probes)
	if m == nil {
		return ws
	}
	s.windows = make([]Window, len(ws))
	copy(s.windows, ws)
	m.windows = ws
	m.scans[key] = s
	return s.windows
}

// Keep returns a configuration the caller may keep in place of cfg, which
// Map returned: when cfg is the memo's, a clone of its own identity that
// shares cfg's immutable ops and derived tables (fabric.Config.Clone), so
// a placement kept again in every epoch builds its cells, replay tables,
// live-pivot mask and cover tables once; cfg itself from a nil Memo, which
// stores nothing.
func (m *Memo) Keep(cfg *fabric.Config) *fabric.Config {
	if m == nil || cfg == nil {
		return cfg
	}
	return cfg.Clone()
}

// appendWords appends the words of dead that g's cells use.
func appendWords(b []byte, dead *fabric.Mask, g fabric.Geometry) []byte {
	for _, w := range dead[:min((g.NumFUs()+63)>>6, len(dead))] {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return b
}

// addProbes adds n to *probes when probes is non-nil.
func addProbes(probes *uint64, n uint64) {
	if probes != nil {
		*probes += n
	}
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
