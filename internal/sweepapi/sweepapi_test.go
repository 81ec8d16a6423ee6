package sweepapi

import (
	"encoding/json"
	"testing"
)

// FuzzBuildGrid feeds arbitrary POST /sweep bodies to BuildGrid. No input
// may panic; an accepted grid's three slices must be index-aligned and
// within the cap; and every cell, re-expressed with CellRequest, must expand
// to exactly one job with the same key, hash and tag — the contract the
// fleet coordinator relies on when it dispatches a sweep cell by cell.
func FuzzBuildGrid(f *testing.F) {
	for _, body := range []string{
		`{"org":"cameo","benchmarks":["milc"]}`,
		`{"org":"cameo","benchmarks":["milc","gcc"],"sweep":"seed","values":[1,2,3]}`,
		`{"org":"baseline","benchmarks":[" lbm "],"sweep":"cores","values":[1,0,2048]}`,
		`{"org":"memcache","benchmarks":["mcf"],"sweep":"mempart","values":[25,75],"instr":1000,"scale":4096}`,
		`{"org":"gemini","benchmarks":["sphinx3"],"sweep":"ways","values":[2],"cores":4,"seed":9,"timeout_ms":5}`,
		`{"org":"tlm-dynamic","benchmarks":["milc"],"sweep":"scale","values":[3]}`,
		`{"org":"cameo","benchmarks":["milc"],"sweep":"none","values":[1]}`,
		`{"org":"cameo","benchmarks":["milc"],"cores":-1}`,
		`{"org":"cameo","benchmarks":["milc"],"sweep":"ratio","values":[18446744073709551615]}`,
	} {
		f.Add([]byte(body))
	}
	const maxCells = 64
	f.Fuzz(func(t *testing.T, body []byte) {
		var req Request
		if json.Unmarshal(body, &req) != nil {
			return
		}
		g, err := BuildGrid(req, maxCells)
		if err != nil {
			return
		}
		if len(g.Jobs) != len(g.Tags) || len(g.Jobs) != len(g.Cells) || len(g.Jobs) > maxCells {
			t.Fatalf("grid of %d jobs, %d tags, %d cells (cap %d)", len(g.Jobs), len(g.Tags), len(g.Cells), maxCells)
		}
		for i, spec := range g.Cells {
			one, err := BuildGrid(CellRequest(req, spec), maxCells)
			if err != nil {
				t.Fatalf("cell %d (%s) does not re-expand: %v", i, g.Tags[i], err)
			}
			if len(one.Jobs) != 1 {
				t.Fatalf("cell %d (%s) re-expands to %d jobs", i, g.Tags[i], len(one.Jobs))
			}
			if one.Jobs[0].Key() != g.Jobs[i].Key() || one.Jobs[0].Hash() != g.Jobs[i].Hash() || one.Tags[0] != g.Tags[i] {
				t.Fatalf("cell %d re-expands as %q %s, want %q %s",
					i, one.Tags[0], one.Jobs[0].Key(), g.Tags[i], g.Jobs[i].Key())
			}
		}
	})
}
