package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeReport(t *testing.T, dir string, r report) {
	t.Helper()
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "BENCH_"+r.Name+".json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestComparePair(t *testing.T) {
	oldR := &report{Name: "x", BestSeconds: 1.0, Metrics: map[string]float64{"m": 2}}

	c := comparePair(oldR, &report{Name: "x", BestSeconds: 1.1, Metrics: map[string]float64{"m": 2}}, 15, 0.01)
	if c.Regressed || len(c.Drifted) != 0 {
		t.Errorf("10%% growth flagged: %+v", c)
	}
	c = comparePair(oldR, &report{Name: "x", BestSeconds: 1.2, Metrics: map[string]float64{"m": 2}}, 15, 0.01)
	if !c.Regressed {
		t.Error("20% growth not flagged at 15% threshold")
	}
	c = comparePair(oldR, &report{Name: "x", BestSeconds: 0.5, Metrics: map[string]float64{"m": 3}}, 15, 0.01)
	if c.Regressed || len(c.Drifted) != 1 {
		t.Errorf("metric drift not detected: %+v", c)
	}
	c = comparePair(oldR, &report{Name: "x", BestSeconds: 0.5, Metrics: nil}, 15, 0.01)
	if len(c.Drifted) != 1 || !strings.Contains(c.Drifted[0], "missing") {
		t.Errorf("missing metric not detected: %+v", c)
	}
	// Noise floor: microsecond benches are not time-compared.
	tiny := &report{Name: "x", BestSeconds: 0.0004, Metrics: map[string]float64{"m": 2}}
	c = comparePair(tiny, &report{Name: "x", BestSeconds: 0.002, Metrics: map[string]float64{"m": 2}}, 15, 0.01)
	if c.Regressed {
		t.Errorf("sub-floor timing compared: %+v", c)
	}
}

func TestRunCompareEndToEnd(t *testing.T) {
	oldDir, newDir := t.TempDir(), t.TempDir()
	writeReport(t, oldDir, report{Name: "a", BestSeconds: 1.0, Metrics: map[string]float64{"m": 1}})
	writeReport(t, oldDir, report{Name: "b", BestSeconds: 2.0, Metrics: map[string]float64{"n": 7}})
	writeReport(t, newDir, report{Name: "a", BestSeconds: 0.5, Metrics: map[string]float64{"m": 1}})
	writeReport(t, newDir, report{Name: "b", BestSeconds: 2.1, Metrics: map[string]float64{"n": 7}})
	writeReport(t, newDir, report{Name: "c", BestSeconds: 0.1, Metrics: nil})

	lines, failures, err := runCompare(oldDir, newDir, 15, 0.01, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(failures) != 0 {
		t.Errorf("healthy trail flagged: %v\n%s", failures, strings.Join(lines, "\n"))
	}
	joined := strings.Join(lines, "\n")
	for _, frag := range []string{"a  ", "b  ", "new benchmark"} {
		if !strings.Contains(joined, frag) {
			t.Errorf("report missing %q:\n%s", frag, joined)
		}
	}

	// Regress b beyond threshold; the failure names the benchmark and
	// both wall times.
	writeReport(t, newDir, report{Name: "b", BestSeconds: 2.5, Metrics: map[string]float64{"n": 7}})
	_, failures, err = runCompare(oldDir, newDir, 15, 0.01, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(failures) != 1 || !strings.Contains(failures[0], "b: wall time 2.000s -> 2.500s") {
		t.Errorf("25%% regression misreported: %v", failures)
	}

	// Regressing AND drifting reports both statuses, and tolerating the
	// drift must not wave the time regression through.
	writeReport(t, newDir, report{Name: "b", BestSeconds: 3.0, Metrics: map[string]float64{"n": 9}})
	lines, failures, err = runCompare(oldDir, newDir, 15, 0.01, false)
	if err != nil {
		t.Fatal(err)
	}
	joined = strings.Join(lines, "\n")
	if len(failures) != 2 || !strings.Contains(joined, "REGRESSED") || !strings.Contains(joined, "METRICS DRIFTED") {
		t.Errorf("combined regression+drift misreported (%v):\n%s", failures, joined)
	}
	// The drift failure names the metric and its values, so a many-entry
	// trail still tells the operator exactly what moved.
	if !strings.Contains(strings.Join(failures, "\n"), "b: metric n: 7 -> 9") {
		t.Errorf("drift failure does not name the metric: %v", failures)
	}
	if _, failures, _ = runCompare(oldDir, newDir, 15, 0.01, true); len(failures) != 1 {
		t.Errorf("-allow-metric-drift waved a time regression through: %v", failures)
	}

	// Drift a metric; tolerated only with allowDrift.
	writeReport(t, newDir, report{Name: "b", BestSeconds: 2.0, Metrics: map[string]float64{"n": 8}})
	_, failures, err = runCompare(oldDir, newDir, 15, 0.01, false)
	if err != nil || len(failures) != 1 || !strings.Contains(failures[0], "metric n: 7 -> 8") {
		t.Errorf("metric drift misreported (failures=%v err=%v)", failures, err)
	}
	_, failures, err = runCompare(oldDir, newDir, 15, 0.01, true)
	if err != nil || len(failures) != 0 {
		t.Errorf("tolerated drift still failed (failures=%v err=%v)", failures, err)
	}

	// A benchmark vanishing from the new trail fails the compare.
	if err := os.Remove(filepath.Join(newDir, "BENCH_a.json")); err != nil {
		t.Fatal(err)
	}
	writeReport(t, newDir, report{Name: "b", BestSeconds: 2.0, Metrics: map[string]float64{"n": 7}})
	_, failures, err = runCompare(oldDir, newDir, 15, 0.01, false)
	if err != nil || len(failures) != 1 || !strings.Contains(failures[0], "a: missing") {
		t.Errorf("missing benchmark misreported (failures=%v err=%v)", failures, err)
	}

	// Single-file form.
	_, failures, err = runCompare(filepath.Join(oldDir, "BENCH_b.json"), filepath.Join(newDir, "BENCH_b.json"), 15, 0.01, false)
	if err != nil || len(failures) != 0 {
		t.Errorf("single-file compare failed (failures=%v err=%v)", failures, err)
	}
}

// A metric only the new trail has is rendered as "(new) -> v", the way
// -trend shows it, and never fails the compare.
func TestCompareRendersNewMetrics(t *testing.T) {
	oldDir, newDir := t.TempDir(), t.TempDir()
	writeReport(t, oldDir, report{Name: "a", BestSeconds: 1.0, Metrics: map[string]float64{"m": 1}})
	writeReport(t, newDir, report{Name: "a", BestSeconds: 1.0, Metrics: map[string]float64{"m": 1, "n": 5}})
	lines, failures, err := runCompare(oldDir, newDir, 15, 0.01, false)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(lines, "\n")
	if len(failures) != 0 {
		t.Errorf("a new metric failed the compare: %v\n%s", failures, joined)
	}
	if !strings.Contains(joined, "n: (new) -> 5") {
		t.Errorf("new metric not rendered:\n%s", joined)
	}
	if strings.Contains(joined, "DRIFTED") {
		t.Errorf("a new metric reported as drift:\n%s", joined)
	}
}

// Allocation counts are advisory: their change is printed, never
// failed on, and a trail written before they existed (no alloc fields
// in its JSON) compares cleanly.
func TestCompareAllocsAdvisory(t *testing.T) {
	oldDir, newDir := t.TempDir(), t.TempDir()
	legacy := `{"name":"a","best_wall_seconds":1,"wall_seconds":[1],"metrics":{"m":1}}`
	if err := os.WriteFile(filepath.Join(oldDir, "BENCH_a.json"), []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	writeReport(t, oldDir, report{Name: "b", BestSeconds: 1.0, Metrics: map[string]float64{"m": 1}, Allocs: 1000, AllocBytes: 4000})
	writeReport(t, newDir, report{Name: "a", BestSeconds: 1.0, Metrics: map[string]float64{"m": 1}, Allocs: 10, AllocBytes: 20})
	writeReport(t, newDir, report{Name: "b", BestSeconds: 1.0, Metrics: map[string]float64{"m": 1}, Allocs: 1500, AllocBytes: 2000})
	lines, failures, err := runCompare(oldDir, newDir, 15, 0.01, false)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(lines, "\n")
	if len(failures) != 0 {
		t.Errorf("allocation changes failed the compare: %v\n%s", failures, joined)
	}
	for _, frag := range []string{"allocs: (new) -> 10", "alloc_bytes: (new) -> 20",
		"allocs: 1000 -> 1500 (+50.0%)", "alloc_bytes: 4000 -> 2000 (-50.0%)"} {
		if !strings.Contains(joined, frag) {
			t.Errorf("compare output missing %q:\n%s", frag, joined)
		}
	}
	// New trail without counters against an old one with them.
	_, failures, err = runCompare(newDir, oldDir, 15, 0.01, false)
	if err != nil || len(failures) != 0 {
		t.Errorf("reverse compare failed (failures=%v err=%v)", failures, err)
	}
}
