package experiments

// The sharded grid runner: the paper's evaluation is a grid of
// independent cells (Table 3 width columns, Table 4 (width, weights)
// points, width-curve samples), so the grid can be split across
// machines and the partial results recombined. Every cell has a stable
// CellID, RunShard computes a deterministic round-robin slice of the
// grid, and Merge reassembles the exact full-grid tables — bit-identical
// to an unsharded run, a property golden_test.go enforces through a
// JSON round trip. cmd/msoc-bench exposes the runner as -shard N/M and
// -merge; CI runs a 2-way sharded grid as a matrix job.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"mixsoc/internal/core"
)

// The experiment families a grid cell can belong to.
const (
	// GridTable3 cells are Table 3 width columns: all 26 sharing
	// combinations evaluated and normalized at one TAM width.
	GridTable3 = "table3"
	// GridTable4 cells are Table 4 points: exhaustive vs Cost_Optimizer
	// at one (width, weights) coordinate.
	GridTable4 = "table4"
	// GridCurve cells are width-curve samples: the all-share SOC test
	// time (the CT normalization configuration) at one TAM width.
	GridCurve = "widthcurve"
)

// CellID stably identifies one grid cell across processes and machines,
// e.g. "table3/W=32", "table4/W=40/wT=0.25", "widthcurve/W=56". IDs
// depend only on the cell's coordinates, never on shard geometry, so
// independently launched shards of the same Grid agree on them without
// coordination.
type CellID string

// Cell is one independently computable unit of the experiment grid.
type Cell struct {
	ID      CellID
	Table   string // GridTable3, GridTable4 or GridCurve
	Width   int
	Weights core.Weights // meaningful for GridTable4 cells only
}

func table3CellID(w int) CellID {
	return CellID(fmt.Sprintf("%s/W=%d", GridTable3, w))
}

func table4CellID(w int, wt core.Weights) CellID {
	return CellID(fmt.Sprintf("%s/W=%d/wT=%v", GridTable4, w, wt.Time))
}

func curveCellID(w int) CellID {
	return CellID(fmt.Sprintf("%s/W=%d", GridCurve, w))
}

// Grid declares an experiment grid: which Table 3 columns, Table 4
// points and width-curve samples to compute. The zero value is an empty
// grid; PaperGrid is the full paper evaluation.
type Grid struct {
	Table3Widths  []int          `json:"table3_widths,omitempty"`
	Table4Widths  []int          `json:"table4_widths,omitempty"`
	Table4Weights []core.Weights `json:"table4_weights,omitempty"`
	CurveWidths   []int          `json:"curve_widths,omitempty"`
}

// PaperGrid returns the full evaluation grid of the paper: Table 3 at
// W = 32/48/64, Table 4 over the five widths and three weight settings,
// and the all-share width curve over the Table 4 widths.
func PaperGrid() Grid {
	return Grid{
		Table3Widths:  slices.Clone(Table3Widths),
		Table4Widths:  slices.Clone(PaperWidths),
		Table4Weights: slices.Clone(PaperWeightSettings),
		CurveWidths:   slices.Clone(PaperWidths),
	}
}

// Table4Grid returns a grid holding only the Table 4 point set — what
// CI shards across its matrix job.
func Table4Grid() Grid {
	return Grid{
		Table4Widths:  slices.Clone(PaperWidths),
		Table4Weights: slices.Clone(PaperWeightSettings),
	}
}

// Cells enumerates every cell of the grid in canonical order: Table 3
// columns, then Table 4 points weights-major, then curve samples. Shard
// partitions this order, so it is part of the cross-machine contract —
// but CellIDs, not positions, are the durable names.
func (g Grid) Cells() []Cell {
	cells := make([]Cell, 0, len(g.Table3Widths)+len(g.Table4Widths)*len(g.Table4Weights)+len(g.CurveWidths))
	for _, w := range g.Table3Widths {
		cells = append(cells, Cell{ID: table3CellID(w), Table: GridTable3, Width: w})
	}
	for _, wt := range g.Table4Weights {
		for _, w := range g.Table4Widths {
			cells = append(cells, Cell{ID: table4CellID(w, wt), Table: GridTable4, Width: w, Weights: wt})
		}
	}
	for _, w := range g.CurveWidths {
		cells = append(cells, Cell{ID: curveCellID(w), Table: GridCurve, Width: w})
	}
	return cells
}

// Validate rejects grids whose cells are not uniquely addressable
// (duplicate coordinates), a Table 4 axis declared without the other,
// or an empty grid.
func (g Grid) Validate() error {
	if (len(g.Table4Widths) == 0) != (len(g.Table4Weights) == 0) {
		return fmt.Errorf("experiments: grid declares Table 4 %s without %s",
			axisName(len(g.Table4Widths) > 0), axisName(len(g.Table4Weights) > 0))
	}
	cells := g.Cells()
	if len(cells) == 0 {
		return fmt.Errorf("experiments: empty grid")
	}
	seen := make(map[CellID]bool, len(cells))
	for _, c := range cells {
		if seen[c.ID] {
			return fmt.Errorf("experiments: duplicate grid cell %s", c.ID)
		}
		seen[c.ID] = true
	}
	return nil
}

func axisName(widths bool) string {
	if widths {
		return "widths"
	}
	return "weight settings"
}

// Equal reports whether two grids declare the same cells in the same
// order — the compatibility check Merge applies to its parts.
func (g Grid) Equal(o Grid) bool {
	return slices.Equal(g.Table3Widths, o.Table3Widths) &&
		slices.Equal(g.Table4Widths, o.Table4Widths) &&
		slices.Equal(g.Table4Weights, o.Table4Weights) &&
		slices.Equal(g.CurveWidths, o.CurveWidths)
}

// RoundRobin returns the item indices of shard `shard` in an `of`-way
// round-robin split of n items: shard, shard+of, shard+2·of, …. It is
// the one partition rule every distributed runner in this repository
// shares — Grid.Shard applies it to the experiment grid's canonical
// cell order, and the serving layer's sweep coordinator applies it to a
// request's weights-major (width, weights) cells — so a shard index
// names the same slice of work regardless of transport.
func RoundRobin(n, shard, of int) ([]int, error) {
	if of < 1 || shard < 0 || shard >= of {
		return nil, fmt.Errorf("experiments: shard %d/%d out of range (want 0 <= shard < of)", shard, of)
	}
	// Count first and step by index: neither n+of nor i+of may be
	// formed, since of comes straight from requests and can be huge.
	size := 0
	if shard < n {
		size = (n-1-shard)/of + 1
	}
	idx := make([]int, size)
	for k := range idx {
		idx[k] = shard + k*of
	}
	return idx, nil
}

// Shard returns the cells of shard index `shard` in an `of`-way split:
// a round-robin over Cells(), so the shards are near-equal in size,
// deterministic, and together cover every cell exactly once.
func (g Grid) Shard(shard, of int) ([]Cell, error) {
	all := g.Cells()
	idx, err := RoundRobin(len(all), shard, of)
	if err != nil {
		return nil, err
	}
	cells := make([]Cell, 0, len(idx))
	for _, i := range idx {
		cells = append(cells, all[i])
	}
	return cells, nil
}

// CurveSample is one width-curve cell result: the all-share SOC test
// time at one TAM width.
type CurveSample struct {
	Width  int   `json:"width"`
	Cycles int64 `json:"cycles"`
}

// ShardResult is the partial output of RunShard: which cells were
// computed and their results. It marshals to JSON losslessly — Go
// prints a float64 in the shortest decimal form that parses back to the
// same bits — so partial results can travel between machines as files
// and still merge bit-identically (golden_test.go enforces the round
// trip through JSON).
type ShardResult struct {
	Shard int  `json:"shard"`
	Of    int  `json:"of"`
	Grid  Grid `json:"grid"`
	// DesignHash is the content hash (core.DesignHash) of the design
	// the shard was computed on; Merge refuses to combine parts whose
	// hashes disagree. Empty in files written before the field existed,
	// which Merge tolerates (no cross-check possible).
	DesignHash string   `json:"design_hash,omitempty"`
	CellIDs    []CellID `json:"cell_ids"`

	// Table3 holds the shard's Table 3 width columns (Widths is the
	// subset this shard owns); nil when the shard has no Table 3 cells.
	Table3 *Table3Result `json:"table3,omitempty"`
	// Table4 holds the shard's Table 4 cells in weights-major grid
	// order.
	Table4 []Table4Cell `json:"table4,omitempty"`
	// Curve holds the shard's width-curve samples.
	Curve []CurveSample `json:"curve,omitempty"`
}

// RunShard computes shard `shard` of an `of`-way split of grid g on
// design d (nil means the paper's benchmark SOC). Every cell's numbers
// are bit-identical to the same cell of an unsharded run: grid cells
// are mutually independent, caches only deduplicate deterministic work,
// and the staircase cache's prefix property makes the wrappers of a
// narrower sweep identical to those of a wider one.
func RunShard(d *core.Design, g Grid, shard, of int) (*ShardResult, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	cells, err := g.Shard(shard, of)
	if err != nil {
		return nil, err
	}
	if d == nil {
		d = Design()
	}
	hash, err := core.DesignHash(d)
	if err != nil {
		return nil, err
	}

	res := &ShardResult{Shard: shard, Of: of, Grid: g, DesignHash: hash, CellIDs: make([]CellID, 0, len(cells))}
	var t3Widths, curveWidths []int
	t4Cells := make(map[CellID]bool)
	for _, c := range cells {
		res.CellIDs = append(res.CellIDs, c.ID)
		switch c.Table {
		case GridTable3:
			t3Widths = append(t3Widths, c.Width)
		case GridTable4:
			t4Cells[c.ID] = true
		case GridCurve:
			curveWidths = append(curveWidths, c.Width)
		}
	}

	if len(t3Widths) > 0 {
		res.Table3, err = Table3(d, t3Widths)
		if err != nil {
			return nil, err
		}
	}
	if len(t4Cells) > 0 {
		res.Table4, err = Table4Select(d, g.Table4Widths, g.Table4Weights,
			func(w int, wt core.Weights) bool { return t4Cells[table4CellID(w, wt)] })
		if err != nil {
			return nil, err
		}
	}
	if len(curveWidths) > 0 {
		times, err := core.WidthCurve(d, d.AllShare(), curveWidths)
		if err != nil {
			return nil, err
		}
		res.Curve = make([]CurveSample, len(curveWidths))
		for i, w := range curveWidths {
			res.Curve[i] = CurveSample{Width: w, Cycles: times[i]}
		}
	}
	return res, nil
}

// GridResult is the recombined output of a fully covered sharded run.
// Table3 and Table4 are nil when the grid declares no such cells.
type GridResult struct {
	Grid   Grid
	Table3 *Table3Result
	Table4 *Table4Result
	Curve  []CurveSample
}

// Merge recombines the partial outputs of a sharded run into the full
// grid tables. The parts must come from the same Grid and together
// cover every cell exactly once; Merge fails loudly on a missing,
// duplicated, or undeclared cell rather than silently emitting a
// partial table. The merged tables are bit-identical to an unsharded
// run of the same grid.
func Merge(parts ...*ShardResult) (*GridResult, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("experiments: nothing to merge")
	}
	g := parts[0].Grid
	if err := g.Validate(); err != nil {
		return nil, err
	}
	for i, p := range parts[1:] {
		if !p.Grid.Equal(g) {
			return nil, fmt.Errorf("experiments: merge part %d (shard %d/%d) belongs to a different grid", i+1, p.Shard, p.Of)
		}
	}
	// Parts carrying a design hash must agree on it — partials of two
	// different designs must never combine into one table. Hash-less
	// parts (files from before the field existed) cannot be checked.
	hash := ""
	for _, p := range parts {
		switch {
		case p.DesignHash == "":
		case hash == "":
			hash = p.DesignHash
		case p.DesignHash != hash:
			return nil, fmt.Errorf("experiments: merge parts disagree on the design hash (%s vs %s from shard %d/%d)",
				hash, p.DesignHash, p.Shard, p.Of)
		}
	}

	known := make(map[CellID]bool)
	for _, c := range g.Cells() {
		known[c.ID] = true
	}
	owner := make(map[CellID]*ShardResult, len(known))
	claim := func(p *ShardResult, id CellID) error {
		if !known[id] {
			return fmt.Errorf("experiments: shard %d/%d carries cell %s, not in the grid", p.Shard, p.Of, id)
		}
		if prev := owner[id]; prev != nil {
			return fmt.Errorf("experiments: cell %s computed by both shard %d/%d and shard %d/%d",
				id, prev.Shard, prev.Of, p.Shard, p.Of)
		}
		owner[id] = p
		return nil
	}

	// Claim cells from the data each part actually carries (not its
	// CellIDs declaration, which is cross-checked afterwards).
	t3Cols := make(map[int]t3ColumnRef) // width -> owning column
	t4ByID := make(map[CellID]Table4Cell)
	curve := make(map[int]CurveSample) // width -> sample
	for _, p := range parts {
		carried := make(map[CellID]bool)
		if p.Table3 != nil {
			// A shard file is outside our process boundary: a truncated
			// or hand-edited partial must fail here, not panic when the
			// columns are indexed below.
			if err := checkTable3Shape(p); err != nil {
				return nil, err
			}
			for wi, w := range p.Table3.Widths {
				id := table3CellID(w)
				if err := claim(p, id); err != nil {
					return nil, err
				}
				carried[id] = true
				t3Cols[w] = t3ColumnRef{part: p, col: wi}
			}
		}
		for _, c := range p.Table4 {
			id := table4CellID(c.Width, c.Weights)
			if err := claim(p, id); err != nil {
				return nil, err
			}
			carried[id] = true
			t4ByID[id] = c
		}
		for _, s := range p.Curve {
			id := curveCellID(s.Width)
			if err := claim(p, id); err != nil {
				return nil, err
			}
			carried[id] = true
			curve[s.Width] = s
		}
		for _, id := range p.CellIDs {
			if !carried[id] {
				return nil, fmt.Errorf("experiments: shard %d/%d declares cell %s but carries no result for it", p.Shard, p.Of, id)
			}
		}
	}
	for _, c := range g.Cells() {
		if owner[c.ID] == nil {
			return nil, fmt.Errorf("experiments: cell %s missing from every shard", c.ID)
		}
	}

	res := &GridResult{Grid: g}
	if len(g.Table3Widths) > 0 {
		t3, err := mergeTable3(g, t3Cols)
		if err != nil {
			return nil, err
		}
		res.Table3 = t3
	}
	if len(g.Table4Widths) > 0 {
		cells := make([]Table4Cell, 0, len(g.Table4Widths)*len(g.Table4Weights))
		for _, wt := range g.Table4Weights {
			for _, w := range g.Table4Widths {
				cells = append(cells, t4ByID[table4CellID(w, wt)])
			}
		}
		res.Table4 = &Table4Result{
			Widths:  slices.Clone(g.Table4Widths),
			Weights: slices.Clone(g.Table4Weights),
			Cells:   cells,
		}
	}
	if len(g.CurveWidths) > 0 {
		res.Curve = make([]CurveSample, len(g.CurveWidths))
		for i, w := range g.CurveWidths {
			res.Curve[i] = curve[w]
		}
	}
	return res, nil
}

// checkTable3Shape validates the internal consistency of a shard's
// Table 3 partial: per-width slices and every row's CT must match the
// declared width count.
func checkTable3Shape(p *ShardResult) error {
	t3 := p.Table3
	if len(t3.Spread) != len(t3.Widths) || len(t3.Lowest) != len(t3.Widths) {
		return fmt.Errorf("experiments: shard %d/%d Table 3 partial is malformed: %d widths but %d spreads, %d lowest labels",
			p.Shard, p.Of, len(t3.Widths), len(t3.Spread), len(t3.Lowest))
	}
	for _, row := range t3.Rows {
		if len(row.CT) != len(t3.Widths) {
			return fmt.Errorf("experiments: shard %d/%d Table 3 row %q is malformed: %d CT values for %d widths",
				p.Shard, p.Of, row.Label, len(row.CT), len(t3.Widths))
		}
	}
	return nil
}

// mergeTable3 reassembles the full Table 3 from per-width columns
// scattered across shards. Every shard sorts its rows with the same
// total order (wrapper count descending, then label), so the row
// sequence of any one part is the row sequence of the merged table;
// mismatched row sets between parts are an input error.
func mergeTable3(g Grid, cols map[int]t3ColumnRef) (*Table3Result, error) {
	first := cols[g.Table3Widths[0]].part.Table3
	res := &Table3Result{
		Widths: slices.Clone(g.Table3Widths),
		Rows:   make([]Table3Row, len(first.Rows)),
		Spread: make([]float64, len(g.Table3Widths)),
		Lowest: make([]string, len(g.Table3Widths)),
	}
	for i, row := range first.Rows {
		res.Rows[i] = Table3Row{Wrappers: row.Wrappers, Label: row.Label, CT: make([]float64, len(g.Table3Widths))}
	}
	for wi, w := range g.Table3Widths {
		ref := cols[w]
		part := ref.part.Table3
		if len(part.Rows) != len(res.Rows) {
			return nil, fmt.Errorf("experiments: Table 3 shards disagree on the combination set (%d vs %d rows)",
				len(part.Rows), len(res.Rows))
		}
		res.Spread[wi] = part.Spread[ref.col]
		res.Lowest[wi] = part.Lowest[ref.col]
		for ri, row := range part.Rows {
			if row.Label != res.Rows[ri].Label {
				return nil, fmt.Errorf("experiments: Table 3 shards disagree on row %d: %q vs %q", ri, row.Label, res.Rows[ri].Label)
			}
			res.Rows[ri].CT[wi] = row.CT[ref.col]
		}
	}
	return res, nil
}

// t3ColumnRef locates one Table 3 width column inside a shard's partial
// result.
type t3ColumnRef struct {
	part *ShardResult
	col  int
}

// Validate checks a shard result's internal consistency — the checks a
// partial that crossed a process boundary (a file, a checkpoint, an
// HTTP body) must pass before anyone trusts it: a sane shard/of
// geometry, a valid grid, duplicate-free declared cells, well-shaped
// Table 3 columns, and an exact match between the declared CellIDs and
// the cells actually carried (no cell declared twice, carried twice,
// undeclared, or declared-but-missing). It is the loud-failure half of
// the interchange contract: a truncated, tampered or hand-edited
// partial must die here, never merge silently.
func (r *ShardResult) Validate() error {
	if r.Of < 1 || r.Shard < 0 || r.Shard >= r.Of {
		return fmt.Errorf("experiments: shard %d/%d geometry out of range", r.Shard, r.Of)
	}
	if err := r.Grid.Validate(); err != nil {
		return err
	}
	declared := make(map[CellID]bool, len(r.CellIDs))
	for _, id := range r.CellIDs {
		if declared[id] {
			return fmt.Errorf("experiments: shard %d/%d declares cell %s twice", r.Shard, r.Of, id)
		}
		declared[id] = true
	}
	if r.Table3 != nil {
		if err := checkTable3Shape(r); err != nil {
			return err
		}
	}
	carried := make(map[CellID]bool, len(r.CellIDs))
	carry := func(id CellID) error {
		if carried[id] {
			return fmt.Errorf("experiments: shard %d/%d carries duplicate results for cell %s", r.Shard, r.Of, id)
		}
		if !declared[id] {
			return fmt.Errorf("experiments: shard %d/%d carries undeclared cell %s", r.Shard, r.Of, id)
		}
		carried[id] = true
		return nil
	}
	if r.Table3 != nil {
		for _, w := range r.Table3.Widths {
			if err := carry(table3CellID(w)); err != nil {
				return err
			}
		}
	}
	for _, c := range r.Table4 {
		if err := carry(table4CellID(c.Width, c.Weights)); err != nil {
			return err
		}
	}
	for _, s := range r.Curve {
		if err := carry(curveCellID(s.Width)); err != nil {
			return err
		}
	}
	for _, id := range r.CellIDs {
		if !carried[id] {
			return fmt.Errorf("experiments: shard %d/%d declares cell %s but carries no result for it", r.Shard, r.Of, id)
		}
	}
	return nil
}

// WriteShardFile writes a shard result as indented JSON, the on-disk
// interchange format of a distributed grid run (what msoc-bench -shard
// emits, -merge consumes, and the serving layer's durable job store
// builds its checkpoints on). The write is atomic (WriteJSONFile), so
// a crash mid-checkpoint never leaves a torn partial.
func WriteShardFile(path string, r *ShardResult) error {
	return WriteJSONFile(path, r)
}

// ReadShardFile reads a shard result written by WriteShardFile,
// rejecting hostile or damaged inputs loudly: zero-length files,
// truncated or malformed JSON, invalid grids, and partials whose
// declared and carried cells disagree or duplicate (Validate).
func ReadShardFile(path string) (*ShardResult, error) {
	var r ShardResult
	if err := ReadJSONFile(path, &r); err != nil {
		return nil, err
	}
	if err := r.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// WriteJSONFile writes v as indented JSON with a trailing newline to
// path, atomically: the bytes land in a temp file in the same
// directory which is then renamed over path, so a crash mid-write can
// never leave a torn, half-written file behind. This is the durability
// discipline the shard interchange and the serving layer's job
// checkpoints share.
func WriteJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if err := errors.Join(werr, cerr, os.Chmod(tmp.Name(), 0o644)); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// ReadJSONFile reads a JSON file written by WriteJSONFile into v. It
// fails loudly on empty (zero-byte or whitespace-only) files — the
// tell-tale of a torn write on filesystems without atomic rename — and
// on malformed JSON, always naming the offending path.
func ReadJSONFile(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if len(bytes.TrimSpace(data)) == 0 {
		return fmt.Errorf("%s: empty file", path)
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
