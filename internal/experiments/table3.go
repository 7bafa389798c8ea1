package experiments

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"

	"mixsoc/internal/core"
	"mixsoc/internal/partition"
	"mixsoc/internal/wrapper"
)

// Table3Row is one sharing combination evaluated at every width.
type Table3Row struct {
	Wrappers int
	Label    string
	CT       []float64 // normalized test time per width, aligned with widths
}

// Table3Result is the full table plus the spread statistics the paper
// quotes ("the difference between the lowest and the highest test
// times ... are 2.45, 7.36, and 17.18").
type Table3Result struct {
	Widths []int
	Rows   []Table3Row
	Spread []float64 // max-min CT per width
	Lowest []string  // label of the lowest-CT combination per width
}

// Table3 runs the TAM optimizer for every candidate combination at every
// width and normalizes test times to the all-share case per width. The
// width columns are independent, so they are generated concurrently —
// and within each column the combination schedules are prefetched across
// the worker pool — with results merged by index, making the table
// identical to a sequential run. All columns share one wrapper
// staircase cache: each digital module's staircase is designed once at
// the widest column and served to the narrower ones as a prefix.
func Table3(d *core.Design, widths []int) (*Table3Result, error) {
	ctx := context.Background()
	if d == nil {
		d = Design()
	}
	if len(widths) == 0 {
		widths = Table3Widths
	}
	names := d.AnalogNames()
	combos := d.Candidates(partition.PaperPolicy)
	stairs := wrapper.NewStaircaseCache(slices.Max(widths))

	res := &Table3Result{Widths: widths}
	rows := make([]Table3Row, len(combos))
	for i, p := range combos {
		rows[i] = Table3Row{Wrappers: p.Wrappers(), Label: p.FormatShared(names), CT: make([]float64, len(widths))}
	}

	res.Spread = make([]float64, len(widths))
	res.Lowest = make([]string, len(widths))
	errs := make([]error, len(widths))
	outer, inner := core.SplitWorkers(core.DefaultWorkers(), len(widths))
	if err := core.ForEachCtx(ctx, len(widths), outer, func(wi int) {
		w := widths[wi]
		ev := core.NewEvaluator(d, w)
		ev.Staircases = stairs
		if inner > 1 {
			allShareP := d.AllShare()
			core.ForEachCtx(ctx, len(combos)+1, inner, func(i int) {
				if i == 0 {
					ev.PrefetchContext(ctx, allShareP)
					return
				}
				ev.PrefetchContext(ctx, combos[i-1])
			})
		}
		allShare, err := ev.TestTimeContext(ctx, d.AllShare())
		if err != nil {
			errs[wi] = err
			return
		}
		low, high := -1.0, -1.0
		for i, p := range combos {
			t, err := ev.TestTimeContext(ctx, p)
			if err != nil {
				errs[wi] = err
				return
			}
			ct := 100 * float64(t) / float64(allShare)
			rows[i].CT[wi] = ct
			if low < 0 || ct < low {
				low = ct
				res.Lowest[wi] = rows[i].Label
			}
			if ct > high {
				high = ct
			}
		}
		res.Spread[wi] = high - low
	}); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	sort.Slice(rows, func(a, b int) bool {
		if rows[a].Wrappers != rows[b].Wrappers {
			return rows[a].Wrappers > rows[b].Wrappers
		}
		return rows[a].Label < rows[b].Label
	})
	res.Rows = rows
	return res, nil
}

// RenderTable3 formats the result like the paper's Table 3.
func RenderTable3(r *Table3Result) string {
	var sb strings.Builder
	sb.WriteString("Table 3: normalized SOC test time CT per wrapper-sharing combination\n")
	sb.WriteString("(100 = all analog cores share one wrapper)\n\n")
	fmt.Fprintf(&sb, "%-3s  %-22s", "Nw", "sharing")
	for _, w := range r.Widths {
		fmt.Fprintf(&sb, "  %8s", fmt.Sprintf("W=%d", w))
	}
	sb.WriteByte('\n')
	prev := -1
	for _, row := range r.Rows {
		nw := ""
		if row.Wrappers != prev {
			nw = fmt.Sprintf("%d", row.Wrappers)
			prev = row.Wrappers
		}
		fmt.Fprintf(&sb, "%-3s  %-22s", nw, row.Label)
		for _, ct := range row.CT {
			fmt.Fprintf(&sb, "  %8.1f", ct)
		}
		sb.WriteByte('\n')
	}
	sb.WriteString("\nspread (max-min)       ")
	for _, s := range r.Spread {
		fmt.Fprintf(&sb, "  %8.2f", s)
	}
	sb.WriteString("\nlowest combination     ")
	for _, l := range r.Lowest {
		fmt.Fprintf(&sb, "  %s", l)
	}
	sb.WriteString("\n(paper spreads: 2.45, 7.36, 17.18 for W=32,48,64)\n")
	return sb.String()
}
