package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"agingcgra/internal/alloc"
	"agingcgra/internal/dse"
	"agingcgra/internal/explore"
	"agingcgra/internal/fabric"
	"agingcgra/internal/remap"
	"agingcgra/internal/searchcost"
)

// layer is one span boundary the traced pass times from outside the
// simulator, around a call into a public method.
type layer int

const (
	layerAllocNext layer = iota
	layerExploreNext
	layerExploreObserve
	layerRemapConfig
	numLayers
)

var layerNames = [numLayers]string{"alloc.next", "explore.next", "explore.observe", "remap.config"}

// span totals one layer's calls and busy time within an op.
type span struct {
	Calls int64 `json:"calls"`
	NS    int64 `json:"ns"`
}

// spans holds one op's span totals. A lifetime scenario runs on one
// goroutine, so the decorators writing it need no locking.
type spans [numLayers]span

func (s *spans) add(l layer, start time.Time) {
	s[l].Calls++
	s[l].NS += int64(time.Since(start))
}

// timedFactory wraps the allocators a factory builds in timing decorators.
// Each decorator embeds the concrete allocator, so every optional interface
// the controller and the engine type-assert (HealthSetter, WearSetter,
// StressObserver, ConfigRemapper, searchcost.Instrumented) is still
// promoted, and Name is unchanged: a traced run produces the same Result
// bytes as an untraced one.
func timedFactory(f dse.AllocatorFactory, sp *spans) dse.AllocatorFactory {
	return func(g fabric.Geometry) alloc.Allocator {
		switch a := f(g).(type) {
		case *alloc.UtilizationAware:
			return &timedSnake{a, sp}
		case *explore.Explorer:
			return &timedExplorer{a, sp}
		case *remap.Remapper:
			return &timedRemapper{a, sp}
		default:
			return a
		}
	}
}

type timedSnake struct {
	*alloc.UtilizationAware
	sp *spans
}

func (a *timedSnake) Next(cfg *fabric.Config) fabric.Offset {
	t := time.Now()
	off := a.UtilizationAware.Next(cfg)
	a.sp.add(layerAllocNext, t)
	return off
}

type timedExplorer struct {
	*explore.Explorer
	sp *spans
}

func (a *timedExplorer) Next(cfg *fabric.Config) fabric.Offset {
	t := time.Now()
	off := a.Explorer.Next(cfg)
	a.sp.add(layerExploreNext, t)
	return off
}

func (a *timedExplorer) ObserveStress(cells []fabric.Cell, off fabric.Offset, cycles uint64) {
	t := time.Now()
	a.Explorer.ObserveStress(cells, off, cycles)
	a.sp.add(layerExploreObserve, t)
}

// timedRemapper books Next and ObserveStress as explorer time: the
// remapper delegates both to its embedded explorer.
type timedRemapper struct {
	*remap.Remapper
	sp *spans
}

func (a *timedRemapper) Next(cfg *fabric.Config) fabric.Offset {
	t := time.Now()
	off := a.Remapper.Next(cfg)
	a.sp.add(layerExploreNext, t)
	return off
}

func (a *timedRemapper) ObserveStress(cells []fabric.Cell, off fabric.Offset, cycles uint64) {
	t := time.Now()
	a.Remapper.ObserveStress(cells, off, cycles)
	a.sp.add(layerExploreObserve, t)
}

func (a *timedRemapper) RemapConfig(cfg *fabric.Config, off fabric.Offset, placed bool) (*fabric.Config, fabric.Offset, bool) {
	t := time.Now()
	c, o, ok := a.Remapper.RemapConfig(cfg, off, placed)
	a.sp.add(layerRemapConfig, t)
	return c, o, ok
}

var (
	_ alloc.StressObserver    = (*timedExplorer)(nil)
	_ alloc.WearSetter        = (*timedExplorer)(nil)
	_ alloc.ConfigRemapper    = (*timedRemapper)(nil)
	_ alloc.WearSetter        = (*timedRemapper)(nil)
	_ searchcost.Instrumented = (*timedRemapper)(nil)
)

// digest is the sha256 of an op's output: the Result JSON of a lifetime
// scenario, the response bytes of a fleet query.
type digest [sha256.Size]byte

func sha(b []byte) digest { return sha256.Sum256(b) }

func digestJSON(v any) (digest, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return digest{}, fmt.Errorf("encoding output: %w", err)
	}
	return sha(b), nil
}

func (d digest) String() string { return hex.EncodeToString(d[:]) }

// opRecord is everything the benchmark keeps about one op.
type opRecord struct {
	I int
	// Dur is the untraced op's latency; TracedDur the traced twin's, in
	// the traced pass.
	Dur, TracedDur time.Duration
	Digest         digest
	Err            error

	// Layer detail: the lifetime result's epoch and search counts, the
	// allocator spans (traced only), and a fleet answer's combo count and
	// in-server handler time (traced only).
	Epochs, Replayed int
	Search           searchcost.Counts
	Spans            spans
	Combos           int
	Handler          time.Duration
}
