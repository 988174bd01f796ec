package lifetime

import (
	"bytes"
	"encoding/json"
	"testing"

	"agingcgra/internal/dse"
	"agingcgra/internal/fabric"
	"agingcgra/internal/mapper"
)

// TestMappingMemoWarmEqualsEmpty pins that the scenario's mapping memo is
// content-addressed: a remap + shape-translation scenario with columns c
// and c+8 dead produces the same Result bytes from an empty memo and from
// one already warmed by another dead pattern and another mix: crc32 under
// other window masks, and dijkstra, whose traces repeat susan_edges' PCs
// and directions with other instructions. A key that aliased across masks
// or programs would hand the second run a wrong placement.
func TestMappingMemoWarmEqualsEmpty(t *testing.T) {
	g := fabric.NewGeometry(2, 16)
	scenario := func(mix []string, c int) Scenario {
		sc := beScenario(dse.RemapFactory, 3)
		sc.Mix = mix
		sc.Engine.ShapeTranslations = true
		sc.InitialDead = fabric.DeadColumnsCells(g, c, c+8)
		return sc
	}
	target := scenario([]string{"crc32", "susan_edges"}, 3)
	encode := func(memo *mapper.Memo) []byte {
		t.Helper()
		sc := target
		sc.mapMemo = memo
		res, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		if c := res.Search.Counts; c.RemapScans == 0 || c.LadderScans == 0 {
			t.Fatalf("no rescue or ladder scans (remap %d, ladder %d): the memo is never consulted",
				c.RemapScans, c.LadderScans)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	empty := encode(mapper.NewMemo())
	warm := mapper.NewMemo()
	other := scenario([]string{"dijkstra", "crc32"}, 0)
	other.mapMemo = warm
	if _, err := Run(other); err != nil {
		t.Fatal(err)
	}
	if got := encode(warm); !bytes.Equal(got, empty) {
		t.Fatalf("warm-memo result differs from the empty-memo result:\nempty: %s\nwarm:  %s", empty, got)
	}
}
