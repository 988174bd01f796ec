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
