package main

// The -compare mode turns the BENCH_*.json perf trail into an
// enforceable contract: given an old and a new trail (single files or
// directories of them), it diffs wall times and headline metrics and
// exits non-zero when the new trail is slower beyond a threshold — or
// when a metric changed at all, because a "perf" change that moves
// results is a correctness change wearing a disguise. Metrics that only
// the new trail has and allocation counts are advisory: they are
// printed, never failed on.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// comparison is the outcome of diffing one benchmark pair.
type comparison struct {
	Name       string
	OldSeconds float64
	NewSeconds float64
	Regressed  bool     // time regression beyond the threshold
	Drifted    []string // metrics that changed value or disappeared
	Advisory   []string // new metrics and allocation changes; never a failure
	Notes      string
}

// loadReports reads one BENCH_*.json file or every one in a directory,
// keyed by benchmark name.
func loadReports(path string) (map[string]*report, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	files := []string{path}
	if info.IsDir() {
		files, err = filepath.Glob(filepath.Join(path, "BENCH_*.json"))
		if err != nil {
			return nil, err
		}
		if len(files) == 0 {
			return nil, fmt.Errorf("no BENCH_*.json files in %s", path)
		}
		sort.Strings(files)
	}
	out := make(map[string]*report, len(files))
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r report
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if r.Name == "" {
			return nil, fmt.Errorf("%s: report has no name", f)
		}
		out[r.Name] = &r
	}
	return out, nil
}

// comparePair diffs one old/new report pair. regressPct is the allowed
// wall-time growth in percent; pairs where both best times are under
// minSeconds are too noisy to time-compare and only checked for metric
// drift.
func comparePair(oldR, newR *report, regressPct, minSeconds float64) comparison {
	c := comparison{Name: newR.Name, OldSeconds: oldR.BestSeconds, NewSeconds: newR.BestSeconds}
	if oldR.BestSeconds >= minSeconds || newR.BestSeconds >= minSeconds {
		if newR.BestSeconds > oldR.BestSeconds*(1+regressPct/100) {
			c.Regressed = true
		}
	} else {
		c.Notes = fmt.Sprintf("both under %.3fs, time not compared", minSeconds)
	}
	keys := make([]string, 0, len(oldR.Metrics))
	for k := range oldR.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		nv, ok := newR.Metrics[k]
		switch {
		case !ok:
			c.Drifted = append(c.Drifted, fmt.Sprintf("%s: %v -> (missing)", k, oldR.Metrics[k]))
		case nv != oldR.Metrics[k]:
			c.Drifted = append(c.Drifted, fmt.Sprintf("%s: %v -> %v", k, oldR.Metrics[k], nv))
		}
	}
	added := make([]string, 0, len(newR.Metrics))
	for k := range newR.Metrics {
		if _, ok := oldR.Metrics[k]; !ok {
			added = append(added, k)
		}
	}
	sort.Strings(added)
	for _, k := range added {
		c.Advisory = append(c.Advisory, fmt.Sprintf("%s: (new) -> %v", k, newR.Metrics[k]))
	}
	c.Advisory = appendAllocChange(c.Advisory, "allocs", oldR.Allocs, newR.Allocs)
	c.Advisory = appendAllocChange(c.Advisory, "alloc_bytes", oldR.AllocBytes, newR.AllocBytes)
	return c
}

// appendAllocChange renders one allocation counter's change. A trail
// written before the counters existed reads 0, which means unknown: the
// change is then shown as new (or missing) instead of as a percentage.
func appendAllocChange(lines []string, name string, oldV, newV uint64) []string {
	switch {
	case oldV == 0 && newV == 0:
		return lines
	case oldV == 0:
		return append(lines, fmt.Sprintf("%s: (new) -> %d", name, newV))
	case newV == 0:
		return append(lines, fmt.Sprintf("%s: %d -> (missing)", name, oldV))
	}
	return append(lines, fmt.Sprintf("%s: %d -> %d (%+.1f%%)", name, oldV, newV,
		100*(float64(newV)-float64(oldV))/float64(oldV)))
}

// runCompare diffs two trails and renders a report as lines. The second
// return value names every failure precisely — which benchmark, and
// which metric with its old and new values, or the wall-time growth —
// so a failing CI log (or log.Fatal) says what drifted instead of just
// "see above"; it is empty when the trail is healthy. Metric drift is
// excluded from the failures (but still rendered) when allowDrift is
// set.
func runCompare(oldPath, newPath string, regressPct, minSeconds float64, allowDrift bool) (lines, failures []string, err error) {
	oldReps, err := loadReports(oldPath)
	if err != nil {
		return nil, nil, fmt.Errorf("old trail: %w", err)
	}
	newReps, err := loadReports(newPath)
	if err != nil {
		return nil, nil, fmt.Errorf("new trail: %w", err)
	}

	names := make([]string, 0, len(oldReps))
	for name := range oldReps {
		names = append(names, name)
	}
	sort.Strings(names)

	for _, name := range names {
		oldR := oldReps[name]
		newR, found := newReps[name]
		if !found {
			lines = append(lines, fmt.Sprintf("%-16s MISSING from new trail", name))
			failures = append(failures, fmt.Sprintf("%s: missing from new trail", name))
			continue
		}
		c := comparePair(oldR, newR, regressPct, minSeconds)
		delta := ""
		if c.OldSeconds > 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(c.NewSeconds-c.OldSeconds)/c.OldSeconds)
		}
		var statuses []string
		if c.Regressed {
			statuses = append(statuses, fmt.Sprintf("REGRESSED (> %.0f%%)", regressPct))
			failures = append(failures, fmt.Sprintf("%s: wall time %.3fs -> %.3fs (%s, limit %.0f%%)",
				name, c.OldSeconds, c.NewSeconds, delta, regressPct))
		}
		if len(c.Drifted) > 0 {
			if allowDrift {
				statuses = append(statuses, "metrics drifted (tolerated)")
			} else {
				statuses = append(statuses, "METRICS DRIFTED")
				failures = append(failures, fmt.Sprintf("%s: metric %s", name, strings.Join(c.Drifted, "; metric ")))
			}
		}
		status := "ok"
		if len(statuses) > 0 {
			status = strings.Join(statuses, ", ")
		}
		line := fmt.Sprintf("%-16s %8.3fs -> %8.3fs  %8s  %s", name, c.OldSeconds, c.NewSeconds, delta, status)
		if c.Notes != "" {
			line += " [" + c.Notes + "]"
		}
		lines = append(lines, line)
		for _, d := range c.Drifted {
			lines = append(lines, "                   "+d)
		}
		for _, a := range c.Advisory {
			lines = append(lines, "                   "+a)
		}
	}
	extra := make([]string, 0, len(newReps))
	for name := range newReps {
		if _, found := oldReps[name]; !found {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		lines = append(lines, fmt.Sprintf("%-16s new benchmark (%.3fs), no baseline", name, newReps[name].BestSeconds))
	}
	return lines, failures, nil
}
