package tam

import (
	"strings"
	"testing"
)

func TestScheduleCSV(t *testing.T) {
	jobs := []*Job{
		fixedJob("b", 2, 10),
		groupJob("a,weird\"name", "g", 1, 5),
		groupJob("c", "g", 1, 5),
	}
	s, err := Optimize(jobs, 4)
	if err != nil {
		t.Fatal(err)
	}
	csv := s.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if lines[0] != "job,group,width,wire_lo,start,end" {
		t.Errorf("header = %q", lines[0])
	}
	if len(lines) != 4 {
		t.Fatalf("rows = %d, want 4 (header + 3)", len(lines))
	}
	// Escaping: the weird job ID must be quoted with doubled quotes.
	if !strings.Contains(csv, `"a,weird""name"`) {
		t.Errorf("CSV escaping broken:\n%s", csv)
	}
	// Round-trip sanity: every job appears exactly once.
	for _, id := range []string{"b", "c"} {
		if strings.Count(csv, "\n"+id+",") != 1 {
			t.Errorf("job %s not exactly once:\n%s", id, csv)
		}
	}
}

// ColdWinner runs Optimize up to the choice of winner and
// returns the winning schedule unpolished, with whether improve moved a
// job in it. It exposes the loops to the external property tests.
func ColdWinner(jobs []*Job, width int) (*Schedule, bool, error) {
	if err := validateJobs(jobs, width); err != nil {
		return nil, false, err
	}
	cfg := config{improvePasses: len(jobs), paretoOnly: true}
	return packCold(jobs, width, newFitter(newOptionTable(jobs, width, cfg), width, cfg))
}

// Polish runs Optimize's repack + improve polish on s in place, with
// Optimize's default options for the jobs.
func Polish(s *Schedule, jobs []*Job) {
	cfg := config{improvePasses: len(jobs), paretoOnly: true}
	f := newFitter(newOptionTable(jobs, s.Width, cfg), s.Width, cfg)
	repack(s, f)
	improve(s, f)
}
