package experiments

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mixsoc/internal/core"
)

func TestGridCellsAndShardPartition(t *testing.T) {
	g := PaperGrid()
	cells := g.Cells()
	want := len(g.Table3Widths) + len(g.Table4Widths)*len(g.Table4Weights) + len(g.CurveWidths)
	if len(cells) != want {
		t.Fatalf("cells = %d, want %d", len(cells), want)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}

	// IDs are unique and carry the cell coordinates.
	ids := map[CellID]bool{}
	for _, c := range cells {
		if ids[c.ID] {
			t.Errorf("duplicate cell ID %s", c.ID)
		}
		ids[c.ID] = true
	}
	if id := table4CellID(40, core.Weights{Time: 0.25, Area: 0.75}); id != "table4/W=40/wT=0.25" {
		t.Errorf("table4 cell ID = %s", id)
	}

	// Every n-way split covers every cell exactly once, round-robin.
	for _, of := range []int{1, 2, 3, len(cells), len(cells) + 5} {
		seen := map[CellID]int{}
		for shard := 0; shard < of; shard++ {
			part, err := g.Shard(shard, of)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range part {
				seen[c.ID]++
			}
		}
		if len(seen) != len(cells) {
			t.Fatalf("of=%d: %d distinct cells, want %d", of, len(seen), len(cells))
		}
		for id, n := range seen {
			if n != 1 {
				t.Errorf("of=%d: cell %s computed %d times", of, id, n)
			}
		}
	}

	for _, bad := range [][2]int{{-1, 2}, {2, 2}, {0, 0}} {
		if _, err := g.Shard(bad[0], bad[1]); err == nil {
			t.Errorf("Shard(%d, %d) accepted", bad[0], bad[1])
		}
	}
}

// RoundRobin takes `of` straight from requests, so its capacity
// arithmetic must not overflow for a huge `of`.
func TestRoundRobinHugeOf(t *testing.T) {
	for _, tc := range []struct {
		n, shard, of int
		want         []int
	}{
		{2, 0, math.MaxInt, []int{0}},
		{2, 1, math.MaxInt, []int{1}},
		{2, 5, math.MaxInt, []int{}},
		{7, 2, 3, []int{2, 5}},
		{0, 0, 1, []int{}},
	} {
		got, err := RoundRobin(tc.n, tc.shard, tc.of)
		if err != nil {
			t.Fatalf("RoundRobin(%d, %d, %d): %v", tc.n, tc.shard, tc.of, err)
		}
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("RoundRobin(%d, %d, %d) = %v, want %v", tc.n, tc.shard, tc.of, got, tc.want)
		}
	}
}

func TestGridValidate(t *testing.T) {
	if err := (Grid{}).Validate(); err == nil {
		t.Error("empty grid accepted")
	}
	if err := (Grid{Table3Widths: []int{32, 32}}).Validate(); err == nil {
		t.Error("duplicate Table 3 width accepted")
	}
	if err := (Grid{Table4Widths: []int{32}}).Validate(); err == nil {
		t.Error("Table 4 widths without weight settings accepted")
	}
	if err := (Grid{Table4Weights: []core.Weights{core.EqualWeights}}).Validate(); err == nil {
		t.Error("Table 4 weight settings without widths accepted")
	}
	if err := PaperGrid().Validate(); err != nil {
		t.Error(err)
	}
}

// Merge's coverage accounting is pure bookkeeping, so its error paths
// are tested on hand-built parts without running any cell.
func TestMergeCoverageErrors(t *testing.T) {
	g := Grid{CurveWidths: []int{8, 16}}
	p0 := &ShardResult{Shard: 0, Of: 2, Grid: g,
		CellIDs: []CellID{curveCellID(8)}, Curve: []CurveSample{{Width: 8, Cycles: 100}}}
	p1 := &ShardResult{Shard: 1, Of: 2, Grid: g,
		CellIDs: []CellID{curveCellID(16)}, Curve: []CurveSample{{Width: 16, Cycles: 50}}}

	merged, err := Merge(p0, p1)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.Curve) != 2 || merged.Curve[0].Cycles != 100 || merged.Curve[1].Cycles != 50 {
		t.Fatalf("merged curve = %+v", merged.Curve)
	}
	if merged.Table3 != nil || merged.Table4 != nil {
		t.Error("merge invented table results for a curve-only grid")
	}

	if _, err := Merge(); err == nil {
		t.Error("empty merge accepted")
	}
	if _, err := Merge(p0); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Errorf("missing cell not reported: %v", err)
	}
	if _, err := Merge(p0, p0); err == nil || !strings.Contains(err.Error(), "both") {
		t.Errorf("duplicate cell not reported: %v", err)
	}
	other := &ShardResult{Shard: 0, Of: 1, Grid: Grid{CurveWidths: []int{8}},
		CellIDs: []CellID{curveCellID(8)}, Curve: []CurveSample{{Width: 8, Cycles: 1}}}
	if _, err := Merge(p0, other); err == nil || !strings.Contains(err.Error(), "different grid") {
		t.Errorf("grid mismatch not reported: %v", err)
	}
	stray := &ShardResult{Shard: 1, Of: 2, Grid: g,
		CellIDs: []CellID{curveCellID(16)},
		Curve:   []CurveSample{{Width: 16, Cycles: 50}, {Width: 99, Cycles: 1}}}
	if _, err := Merge(p0, stray); err == nil || !strings.Contains(err.Error(), "not in the grid") {
		t.Errorf("undeclared cell not reported: %v", err)
	}
	hollow := &ShardResult{Shard: 1, Of: 2, Grid: g, CellIDs: []CellID{curveCellID(16)}}
	if _, err := Merge(p0, hollow); err == nil || !strings.Contains(err.Error(), "no result") {
		t.Errorf("declared-but-absent cell not reported: %v", err)
	}

	// A truncated/hand-edited Table 3 partial must error, not panic.
	badT3 := &ShardResult{Shard: 0, Of: 1, Grid: Grid{Table3Widths: []int{32}},
		CellIDs: []CellID{table3CellID(32)},
		Table3:  &Table3Result{Widths: []int{32}}} // no spread/lowest/rows
	if _, err := Merge(badT3); err == nil || !strings.Contains(err.Error(), "malformed") {
		t.Errorf("malformed Table 3 partial not reported: %v", err)
	}
	badRow := &ShardResult{Shard: 0, Of: 1, Grid: Grid{Table3Widths: []int{32}},
		CellIDs: []CellID{table3CellID(32)},
		Table3: &Table3Result{Widths: []int{32}, Spread: []float64{1}, Lowest: []string{"x"},
			Rows: []Table3Row{{Label: "{A,B}", CT: nil}}}}
	if _, err := Merge(badRow); err == nil || !strings.Contains(err.Error(), "malformed") {
		t.Errorf("malformed Table 3 row not reported: %v", err)
	}
}

// TestShardMergeSmallGrid runs a reduced grid unsharded and as a 3-way
// shard (through the on-disk JSON format) and demands bit-identical
// tables — the same contract the golden test enforces on the full paper
// grid, cheap enough to run in -short mode.
func TestShardMergeSmallGrid(t *testing.T) {
	g := Grid{
		Table3Widths:  []int{24, 32},
		Table4Widths:  []int{24, 32},
		Table4Weights: []core.Weights{core.EqualWeights},
		CurveWidths:   []int{24, 32},
	}

	t3, err := Table3(nil, g.Table3Widths)
	if err != nil {
		t.Fatal(err)
	}
	t4, err := Table4(nil, g.Table4Widths, g.Table4Weights)
	if err != nil {
		t.Fatal(err)
	}
	d := Design()
	curve, err := core.WidthCurve(d, d.AllShare(), g.CurveWidths)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	const of = 3
	parts := make([]*ShardResult, of)
	for shard := 0; shard < of; shard++ {
		r, err := RunShard(nil, g, shard, of)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "shard.json")
		if err := WriteShardFile(path, r); err != nil {
			t.Fatal(err)
		}
		if parts[shard], err = ReadShardFile(path); err != nil {
			t.Fatal(err)
		}
	}
	merged, err := Merge(parts...)
	if err != nil {
		t.Fatal(err)
	}

	requireTable3Bits(t, merged.Table3, t3)
	requireTable4Bits(t, merged.Table4, t4)
	for i, w := range g.CurveWidths {
		if merged.Curve[i].Width != w || merged.Curve[i].Cycles != curve[i] {
			t.Errorf("curve[W=%d] = %+v, want %d cycles", w, merged.Curve[i], curve[i])
		}
	}
}

// requireTable3Bits demands got reproduce want bit for bit (raw float64
// bits, not epsilon).
func requireTable3Bits(t *testing.T, got, want *Table3Result) {
	t.Helper()
	if got == nil {
		t.Fatal("no merged Table 3")
	}
	if len(got.Widths) != len(want.Widths) || len(got.Rows) != len(want.Rows) {
		t.Fatalf("merged Table 3 shape (%d widths, %d rows) != unsharded (%d, %d)",
			len(got.Widths), len(got.Rows), len(want.Widths), len(want.Rows))
	}
	for i := range want.Widths {
		if got.Widths[i] != want.Widths[i] {
			t.Fatalf("widths = %v, want %v", got.Widths, want.Widths)
		}
		if math.Float64bits(got.Spread[i]) != math.Float64bits(want.Spread[i]) {
			t.Errorf("spread[W=%d] = %v, want %v (bits differ)", want.Widths[i], got.Spread[i], want.Spread[i])
		}
		if got.Lowest[i] != want.Lowest[i] {
			t.Errorf("lowest[W=%d] = %q, want %q", want.Widths[i], got.Lowest[i], want.Lowest[i])
		}
	}
	for ri, w := range want.Rows {
		gr := got.Rows[ri]
		if gr.Label != w.Label || gr.Wrappers != w.Wrappers {
			t.Errorf("row %d = (%d, %q), want (%d, %q)", ri, gr.Wrappers, gr.Label, w.Wrappers, w.Label)
			continue
		}
		for k := range w.CT {
			if math.Float64bits(gr.CT[k]) != math.Float64bits(w.CT[k]) {
				t.Errorf("row %s CT[W=%d]: bits differ (%v vs %v)", w.Label, want.Widths[k], gr.CT[k], w.CT[k])
			}
		}
	}
}

// requireTable4Bits demands got reproduce want bit for bit.
func requireTable4Bits(t *testing.T, got, want *Table4Result) {
	t.Helper()
	if got == nil {
		t.Fatal("no merged Table 4")
	}
	if len(got.Cells) != len(want.Cells) {
		t.Fatalf("merged Table 4 has %d cells, unsharded %d", len(got.Cells), len(want.Cells))
	}
	for i, w := range want.Cells {
		g := got.Cells[i]
		if g.Width != w.Width || g.Weights != w.Weights {
			t.Errorf("cell %d at (W=%d, wT=%v), want (W=%d, wT=%v)", i, g.Width, g.Weights.Time, w.Width, w.Weights.Time)
			continue
		}
		if math.Float64bits(g.ExhaustiveCost) != math.Float64bits(w.ExhaustiveCost) ||
			g.ExhaustiveNEval != w.ExhaustiveNEval || g.ExhaustiveSel != w.ExhaustiveSel ||
			math.Float64bits(g.HeuristicCost) != math.Float64bits(w.HeuristicCost) ||
			g.HeuristicNEval != w.HeuristicNEval || g.HeuristicSel != w.HeuristicSel ||
			math.Float64bits(g.ReductionPercent) != math.Float64bits(w.ReductionPercent) ||
			g.Optimal != w.Optimal {
			t.Errorf("cell %d (W=%d, wT=%v): merged %+v diverged from unsharded %+v", i, w.Width, w.Weights.Time, g, w)
		}
	}
}

// TestReadShardFileHostileInputs feeds the on-disk interchange the
// damaged partials a crashed or hostile producer could leave behind —
// zero-length files, truncated JSON, duplicate cells, mismatched
// declarations — and demands every one fails loudly at read time,
// never surviving into a silent merge. Design-hash disagreement is the
// one check only Merge can make (a single file has nothing to compare
// against), so it is asserted there.
func TestReadShardFileHostileInputs(t *testing.T) {
	dir := t.TempDir()
	write := func(name, data string) string {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	g := Grid{CurveWidths: []int{8, 16}}
	good := &ShardResult{Shard: 0, Of: 1, Grid: g, DesignHash: "aaaa",
		CellIDs: []CellID{curveCellID(8), curveCellID(16)},
		Curve:   []CurveSample{{Width: 8, Cycles: 100}, {Width: 16, Cycles: 50}}}
	goodPath := filepath.Join(dir, "good.json")
	if err := WriteShardFile(goodPath, good); err != nil {
		t.Fatal(err)
	}
	goodBytes, err := os.ReadFile(goodPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadShardFile(goodPath); err != nil {
		t.Fatalf("pristine shard file rejected: %v", err)
	}

	cases := []struct {
		name string
		path string
		want string // substring the error must carry
	}{
		{"zero-length file", write("empty.json", ""), "empty file"},
		{"whitespace-only file", write("blank.json", " \n\t"), "empty file"},
		{"truncated JSON", write("truncated.json", string(goodBytes[:len(goodBytes)/2])), "unexpected end"},
		{"not JSON at all", write("garbage.json", "certainly not JSON"), "invalid character"},
		{"bad shard geometry", write("geometry.json",
			`{"shard":3,"of":2,"grid":{"curve_widths":[8]},"cell_ids":["widthcurve/W=8"],"curve":[{"width":8,"cycles":1}]}`),
			"geometry out of range"},
		{"empty grid", write("nogrid.json", `{"shard":0,"of":1,"grid":{},"cell_ids":[]}`), "empty grid"},
		{"duplicate declared cell", write("dupdecl.json",
			`{"shard":0,"of":1,"grid":{"curve_widths":[8]},"cell_ids":["widthcurve/W=8","widthcurve/W=8"],"curve":[{"width":8,"cycles":1}]}`),
			"declares cell widthcurve/W=8 twice"},
		{"duplicate carried cell", write("dupcarry.json",
			`{"shard":0,"of":1,"grid":{"curve_widths":[8]},"cell_ids":["widthcurve/W=8"],"curve":[{"width":8,"cycles":1},{"width":8,"cycles":2}]}`),
			"duplicate results for cell widthcurve/W=8"},
		{"undeclared carried cell", write("undeclared.json",
			`{"shard":0,"of":1,"grid":{"curve_widths":[8,16]},"cell_ids":["widthcurve/W=8"],"curve":[{"width":8,"cycles":1},{"width":16,"cycles":2}]}`),
			"undeclared cell"},
		{"declared but missing cell", write("hollow.json",
			`{"shard":0,"of":1,"grid":{"curve_widths":[8]},"cell_ids":["widthcurve/W=8"]}`),
			"no result"},
		{"malformed Table 3 column", write("badt3.json",
			`{"shard":0,"of":1,"grid":{"table3_widths":[32]},"cell_ids":["table3/W=32"],"table3":{"Widths":[32]}}`),
			"malformed"},
	}
	for _, tc := range cases {
		if _, err := ReadShardFile(tc.path); err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}

	// Wrong design hash: each file is internally consistent, so the
	// mismatch can only surface — and must surface — when merging.
	g2 := Grid{CurveWidths: []int{8, 16}}
	p0 := &ShardResult{Shard: 0, Of: 2, Grid: g2, DesignHash: "aaaa",
		CellIDs: []CellID{curveCellID(8)}, Curve: []CurveSample{{Width: 8, Cycles: 100}}}
	p1 := &ShardResult{Shard: 1, Of: 2, Grid: g2, DesignHash: "bbbb",
		CellIDs: []CellID{curveCellID(16)}, Curve: []CurveSample{{Width: 16, Cycles: 50}}}
	for i, p := range []*ShardResult{p0, p1} {
		path := filepath.Join(dir, fmt.Sprintf("hash%d.json", i))
		if err := WriteShardFile(path, p); err != nil {
			t.Fatal(err)
		}
		var err error
		if []*ShardResult{p0, p1}[i], err = ReadShardFile(path); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Merge(p0, p1); err == nil || !strings.Contains(err.Error(), "design hash") {
		t.Errorf("design-hash mismatch not reported: %v", err)
	}
	// Hash-less legacy partials still merge with hashed ones.
	legacy := &ShardResult{Shard: 1, Of: 2, Grid: g2,
		CellIDs: []CellID{curveCellID(16)}, Curve: []CurveSample{{Width: 16, Cycles: 50}}}
	if _, err := Merge(p0, legacy); err != nil {
		t.Errorf("legacy hash-less partial rejected: %v", err)
	}
}

// TestWriteJSONFileAtomic pins the interchange's durability discipline:
// the write is temp-file-plus-rename, so the destination either holds
// the complete previous content or the complete new content — never a
// torn mix — and no temp litter survives a successful write.
func TestWriteJSONFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.json")
	if err := WriteJSONFile(path, map[string]int{"v": 1}); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSONFile(path, map[string]int{"v": 2}); err != nil {
		t.Fatal(err)
	}
	var got map[string]int
	if err := ReadJSONFile(path, &got); err != nil {
		t.Fatal(err)
	}
	if got["v"] != 2 {
		t.Fatalf("read back %v, want v=2", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries after two writes, want only the file itself", len(entries))
	}
}

// TestTable4SelectSubset checks the cell-selection path against the
// full grid directly (the shard runner relies on it).
func TestTable4SelectSubset(t *testing.T) {
	widths := []int{24, 32}
	weights := []core.Weights{{Time: 0.25, Area: 0.75}, core.EqualWeights}
	full, err := Table4(nil, widths, weights)
	if err != nil {
		t.Fatal(err)
	}
	sel := func(w int, wt core.Weights) bool { return w == 32 && wt == core.EqualWeights }
	cells, err := Table4Select(nil, widths, weights, sel)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 {
		t.Fatalf("selected %d cells, want 1", len(cells))
	}
	var want Table4Cell
	for _, c := range full.Cells {
		if sel(c.Width, c.Weights) {
			want = c
		}
	}
	if cells[0] != want {
		t.Errorf("selected cell %+v, want %+v", cells[0], want)
	}

	if _, err := Table4Select(nil, widths, weights, func(int, core.Weights) bool { return false }); err == nil {
		t.Error("empty selection accepted")
	}
}
