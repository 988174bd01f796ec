package dbt

import (
	"reflect"
	"testing"

	"agingcgra/internal/fabric"
	"agingcgra/internal/mapper"
	"agingcgra/internal/prog"
)

// TestMappingMemoLeavesReportUnchanged runs each workload on a degraded
// fabric three times — mapping directly, through an empty memo, and through
// the memo the second run filled, so every mapping is a hit — on the
// single-shape path and the shape ladder, and pins identical Reports: the
// memo re-adds every hit's probes and changes no placement.
func TestMappingMemoLeavesReportUnchanged(t *testing.T) {
	g := fabric.NewGeometry(2, 16)
	for _, tc := range []struct{ bench, dead string }{
		{"crc32", "columns:0+8"},
		{"qsort", "columns:0+8"},
		{"bitcount", "column:5"},
	} {
		for _, shapes := range []bool{false, true} {
			name := tc.bench + "@" + tc.dead
			if shapes {
				name += "/ladder"
			}
			t.Run(name, func(t *testing.T) {
				cells, err := fabric.PatternCells(tc.dead, g)
				if err != nil {
					t.Fatal(err)
				}
				b, _ := prog.ByName(tc.bench)
				run := func(memo *mapper.Memo) *Report {
					h, err := fabric.NewHealthWithDead(g, cells)
					if err != nil {
						t.Fatal(err)
					}
					c, err := b.NewCore(prog.Tiny)
					if err != nil {
						t.Fatal(err)
					}
					e, err := NewEngine(Options{Geom: g, Health: h, ShapeTranslations: shapes})
					if err != nil {
						t.Fatal(err)
					}
					e.UseMemo(memo)
					rep, err := e.Run(c, b.MaxInstructions)
					if err != nil {
						t.Fatal(err)
					}
					return rep
				}
				want := run(nil)
				if want.Translations == 0 {
					t.Fatal("nothing translated: the memo is never consulted")
				}
				memo := mapper.NewMemo()
				for _, pass := range []string{"miss", "hit"} {
					if got := run(memo); !reflect.DeepEqual(got, want) {
						t.Errorf("%s: report through the memo diverges\ndirect: %+v\n  memo: %+v", pass, want, got)
					}
				}
			})
		}
	}
}

// TestCacheKeepsItsOwnConfigurations pins that the configuration cache
// never holds a configuration the mapping memo stores. loopProgram's two
// traces are placed whole on a fabric with one dead cell, so each resident
// configuration's ops are its captured trace, and mapping them again
// through the memo returns the stored configuration. Two engines share the
// memo — the first fills it, every translation of the second is a hit —
// on the single-shape path and the shape ladder. Each resident
// configuration shares the stored one's ops (a clone of it) but is never
// the stored pointer, and no two engines keep the same pointer.
func TestCacheKeepsItsOwnConfigurations(t *testing.T) {
	g := fabric.NewGeometry(2, 16)
	for _, shapes := range []bool{false, true} {
		h, err := fabric.NewHealthWithDead(g, []fabric.Cell{{Row: 1, Col: 5}})
		if err != nil {
			t.Fatal(err)
		}
		memo := mapper.NewMemo()
		kept := make(map[*fabric.Config]bool)
		for _, pass := range []string{"miss", "hit"} {
			e, err := NewEngine(Options{Geom: g, Health: h, ShapeTranslations: shapes})
			if err != nil {
				t.Fatal(err)
			}
			e.UseMemo(memo)
			if _, err := e.Run(loopCore(t), 1_000_000); err != nil {
				t.Fatal(err)
			}
			resident := e.Cache().Configs()
			if len(resident) != 2 {
				t.Fatalf("shapes=%v %s: %d resident configurations, want loopProgram's 2", shapes, pass, len(resident))
			}
			for _, cfg := range resident {
				trace := make([]mapper.TraceEntry, len(cfg.Ops))
				for i, op := range cfg.Ops {
					trace[i] = mapper.TraceEntry{PC: op.PC, Inst: op.Inst, Taken: op.Taken}
				}
				dead := h.Mask()
				stored, _ := memo.Map(memo.Key(trace), mapper.Options{
					Geom: cfg.Geom,
					Lat:  fabric.DefaultLatencies(),
					Dead: dead.Window(fabric.Offset{}, cfg.Geom, g),
				})
				if stored == nil || &stored.Ops[0] != &cfg.Ops[0] {
					t.Fatalf("shapes=%v %s: the configuration at %#x is not a copy of the memo's", shapes, pass, cfg.StartPC)
				}
				if cfg == stored {
					t.Fatalf("shapes=%v %s: the cache holds the memo's configuration at %#x", shapes, pass, cfg.StartPC)
				}
				if kept[cfg] {
					t.Fatalf("shapes=%v %s: two engines keep the configuration at %#x", shapes, pass, cfg.StartPC)
				}
				kept[cfg] = true
			}
		}
	}
}
