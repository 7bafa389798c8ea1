package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// jobTestGrid is the sweep the durable-job tests run: two cells, so a
// standalone server splits it into two checkpointable shards while each
// cell stays a single fast plan.
var jobTestGrid = SweepRequest{Widths: []int{32, 40}, WTs: []float64{0.5}}

// newJobServer boots a standalone server with a durable job directory.
func newJobServer(t *testing.T, dir string) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Options{JobDir: dir})
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// submitJob posts one job submission and returns its parsed status.
func submitJob(t *testing.T, ts *httptest.Server, req SweepRequest, wantStatus int) *JobResponse {
	t.Helper()
	status, body := post(t, ts, "/v1/sweeps", req)
	if status != wantStatus {
		t.Fatalf("POST /v1/sweeps: status %d, want %d: %s", status, wantStatus, body)
	}
	var jr JobResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatalf("job response not JSON: %v: %s", err, body)
	}
	return &jr
}

// getJSON fetches one GET endpoint, returning status and body.
func getJSON(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

// waitJobState polls the job until it reaches the wanted state, failing
// after the deadline.
func waitJobState(t *testing.T, ts *httptest.Server, id, want string, deadline time.Duration) *JobResponse {
	t.Helper()
	timeout := time.After(deadline)
	for {
		status, body := getJSON(t, ts, "/v1/sweeps/"+id)
		if status != http.StatusOK {
			t.Fatalf("GET /v1/sweeps/%s: status %d: %s", id, status, body)
		}
		var jr JobResponse
		if err := json.Unmarshal(body, &jr); err != nil {
			t.Fatal(err)
		}
		if jr.State == want {
			return &jr
		}
		select {
		case <-timeout:
			t.Fatalf("job %s never reached %q within %v; last status: %s", id, want, deadline, body)
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// A submitted job must run detached, checkpoint every shard to the job
// directory, and serve a result byte-identical to a synchronous sweep
// of the same grid.
func TestJobRunsToCompletionWithSyncIdenticalBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("solver sweeps are slow")
	}
	want := inProcessSweepBytes(t, jobTestGrid)
	dir := t.TempDir()
	_, ts := newJobServer(t, dir)

	jr := submitJob(t, ts, jobTestGrid, http.StatusAccepted)
	if jr.State != JobStateRunning && jr.State != JobStateDone {
		t.Fatalf("fresh job state = %q", jr.State)
	}
	if jr.ShardsTotal != 2 {
		t.Fatalf("2-cell standalone job split into %d shards, want 2", jr.ShardsTotal)
	}
	final := waitJobState(t, ts, jr.ID, JobStateDone, 2*time.Minute)
	if final.ShardsDone != final.ShardsTotal {
		t.Fatalf("done job reports %d/%d shards", final.ShardsDone, final.ShardsTotal)
	}

	status, got := getJSON(t, ts, "/v1/sweeps/"+jr.ID+"/result")
	if status != http.StatusOK {
		t.Fatalf("result: status %d: %s", status, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("job result differs from synchronous sweep (%d vs %d bytes)", len(got), len(want))
	}

	// The durable layout: manifest, one checkpoint per shard, result.
	jobDir := filepath.Join(dir, jr.ID)
	for _, name := range []string{"job.json", "shard_0_of_2.json", "shard_1_of_2.json", "result.json"} {
		if _, err := os.Stat(filepath.Join(jobDir, name)); err != nil {
			t.Errorf("job dir lacks %s: %v", name, err)
		}
	}

	series := scrape(t, ts)
	if got := series[`msoc_jobs{state="done"}`]; got != 1 {
		t.Errorf("msoc_jobs{done} = %v, want 1", got)
	}
	if got := series[`msoc_job_submissions_total{result="accepted"}`]; got != 1 {
		t.Errorf("accepted submissions = %v, want 1", got)
	}
	if got := series[`msoc_job_shards_total{event="checkpointed"}`]; got != 2 {
		t.Errorf("checkpointed shards = %v, want 2", got)
	}
}

// Identical submissions — same design hash, grid and options — must
// land on one job ID, before and after completion; a different grid
// must not.
func TestJobDedupeByContentKey(t *testing.T) {
	if testing.Short() {
		t.Skip("solver sweeps are slow")
	}
	_, ts := newJobServer(t, t.TempDir())

	first := submitJob(t, ts, jobTestGrid, http.StatusAccepted)
	dup := submitJob(t, ts, jobTestGrid, http.StatusOK) // deduped, not re-admitted
	if dup.ID != first.ID {
		t.Fatalf("identical submission got job %s, want existing %s", dup.ID, first.ID)
	}
	waitJobState(t, ts, first.ID, JobStateDone, 2*time.Minute)
	done := submitJob(t, ts, jobTestGrid, http.StatusOK)
	if done.ID != first.ID || done.State != JobStateDone {
		t.Fatalf("post-completion resubmission: %+v, want done job %s", done, first.ID)
	}

	other := jobTestGrid
	other.Exhaustive = true
	otherJob := submitJob(t, ts, other, http.StatusAccepted)
	if otherJob.ID == first.ID {
		t.Fatal("exhaustive sweep shares the heuristic sweep's job ID")
	}
	if got := scrape(t, ts)[`msoc_job_submissions_total{result="deduped"}`]; got != 2 {
		t.Errorf("deduped submissions = %v, want 2", got)
	}
}

// Submission validation: options a detached, shardable job cannot honor
// are 400s, and unknown job IDs are 404s on every job endpoint.
func TestJobSubmitValidationAndLookupErrors(t *testing.T) {
	_, ts := newJobServer(t, t.TempDir())

	bad := []SweepRequest{
		{Widths: []int{32}, TimeoutMS: 1000},          // detached jobs have no request deadline
		{Widths: []int{32, 32}},                       // duplicate width axis
		{Widths: []int{32, 40}, WTs: []float64{1, 1}}, // duplicate weight axis
		{Widths: nil},      // no widths
		{Widths: []int{0}}, // width out of range
	}
	for _, req := range bad {
		if status, body := post(t, ts, "/v1/sweeps", req); status != http.StatusBadRequest {
			t.Errorf("submit %+v: status %d, want 400 (%s)", req, status, body)
		}
	}
	for _, path := range []string{"/v1/sweeps/nope", "/v1/sweeps/nope/result", "/v1/sweeps/nope/events"} {
		if status, body := getJSON(t, ts, path); status != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404 (%s)", path, status, body)
		}
	}
	if got := scrape(t, ts)[`msoc_job_submissions_total{result="rejected"}`]; got != float64(len(bad)) {
		t.Errorf("rejected submissions = %v, want %d", got, len(bad))
	}
}

// While a job is still running its result endpoint must answer 409 —
// and the events stream must replay completed shards, deliver live
// ones, and terminate with the job line. The worker pool is saturated
// first so the job is reliably observable mid-flight.
func TestJobResultNotReadyAndEventsStream(t *testing.T) {
	if testing.Short() {
		t.Skip("solver sweeps are slow")
	}
	s, ts := newJobServer(t, t.TempDir())

	// Hold every pool slot: the job's local shards queue behind us.
	for i := 0; i < cap(s.sem); i++ {
		s.sem <- struct{}{}
	}
	released := false
	release := func() {
		if !released {
			released = true
			for i := 0; i < cap(s.sem); i++ {
				<-s.sem
			}
		}
	}
	defer release()

	jr := submitJob(t, ts, jobTestGrid, http.StatusAccepted)
	if status, body := getJSON(t, ts, "/v1/sweeps/"+jr.ID+"/result"); status != http.StatusConflict {
		t.Fatalf("result of a running job: status %d, want 409 (%s)", status, body)
	}

	// Subscribe while nothing has completed, then let the job run.
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + jr.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("events Content-Type = %q", ct)
	}
	release()

	var shardEvents int
	var terminal *JobEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev JobEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		switch ev.Type {
		case "shard":
			if ev.Shard == nil || len(ev.Shard.Points) == 0 {
				t.Errorf("shard event carries no partial: %s", sc.Text())
			}
			shardEvents++
		case "job":
			terminal = &ev
		default:
			t.Errorf("unknown event type %q", ev.Type)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if shardEvents != jr.ShardsTotal {
		t.Errorf("stream delivered %d shard events, want %d", shardEvents, jr.ShardsTotal)
	}
	if terminal == nil || terminal.State != JobStateDone {
		t.Fatalf("stream terminal event = %+v, want done", terminal)
	}

	// Reconnecting after completion replays everything and terminates.
	status, body := getJSON(t, ts, "/v1/sweeps/"+jr.ID+"/events")
	if status != http.StatusOK {
		t.Fatalf("events replay: status %d", status)
	}
	if got := strings.Count(string(body), "\n"); got != jr.ShardsTotal+1 {
		t.Errorf("replay stream has %d lines, want %d", got, jr.ShardsTotal+1)
	}
}

// A restarted server must recover persisted jobs: a finished job's
// result serves verbatim with no recomputation, and a job missing
// shards (deleted or corrupted checkpoints) re-runs exactly those and
// converges to the same bytes.
func TestJobRecoveryAfterRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("solver sweeps are slow")
	}
	dir := t.TempDir()
	sA, tsA := newJobServer(t, dir)
	jr := submitJob(t, tsA, jobTestGrid, http.StatusAccepted)
	done := waitJobState(t, tsA, jr.ID, JobStateDone, 2*time.Minute)
	_, want := getJSON(t, tsA, "/v1/sweeps/"+jr.ID+"/result")
	wantEvents := jobEvents(t, tsA, jr.ID)
	tsA.Close()
	sA.Close()

	// Restart 1: intact directory. The job must come back done with the
	// identical bytes, straight from result.json, and with every shard's
	// partial exactly as merged: only the recovered flags may differ.
	sB, tsB := newJobServer(t, dir)
	status, body := getJSON(t, tsB, "/v1/sweeps/"+jr.ID)
	if status != http.StatusOK {
		t.Fatalf("recovered job status: %d: %s", status, body)
	}
	var recovered JobResponse
	if err := json.Unmarshal(body, &recovered); err != nil {
		t.Fatal(err)
	}
	if recovered.State != JobStateDone || !recovered.Recovered {
		t.Fatalf("recovered job = state %q recovered %t, want done/true", recovered.State, recovered.Recovered)
	}
	checkRecoveredShards(t, done, &recovered)
	if _, got := getJSON(t, tsB, "/v1/sweeps/"+jr.ID+"/result"); !bytes.Equal(got, want) {
		t.Fatal("recovered result differs from the original bytes")
	}
	checkRecoveredEvents(t, wantEvents, jobEvents(t, tsB, jr.ID))
	if got := scrape(t, tsB)[`msoc_job_recoveries_total`]; got != 1 {
		t.Errorf("recoveries = %v, want 1", got)
	}
	tsB.Close()
	sB.Close()

	// Restart 1b: a result.json with the right design and cell count but
	// two cells swapped fails the per-shard grid check. Recovery must
	// delete it and re-merge the checkpoints into the original bytes.
	resultPath := filepath.Join(dir, jr.ID, "result.json")
	var tampered SweepResponse
	if err := readJSONFile(resultPath, &tampered); err != nil {
		t.Fatal(err)
	}
	tampered.Points[0], tampered.Points[1] = tampered.Points[1], tampered.Points[0]
	if err := writeJSONFile(resultPath, &tampered); err != nil {
		t.Fatal(err)
	}
	sT, tsT := newJobServer(t, dir)
	waitJobState(t, tsT, jr.ID, JobStateDone, 2*time.Minute)
	if _, got := getJSON(t, tsT, "/v1/sweeps/"+jr.ID+"/result"); !bytes.Equal(got, want) {
		t.Fatal("a result.json with swapped cells was served instead of re-merged")
	}
	tsT.Close()
	sT.Close()

	// Restart 2: lose the result, delete one checkpoint, corrupt the
	// other. Recovery must re-verify, drop the corrupt file, re-run both
	// shards, and still produce the identical bytes.
	jobDir := filepath.Join(dir, jr.ID)
	if err := os.Remove(filepath.Join(jobDir, "result.json")); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(jobDir, "shard_0_of_2.json")); err != nil {
		t.Fatal(err)
	}
	corrupt := filepath.Join(jobDir, "shard_1_of_2.json")
	data, err := os.ReadFile(corrupt)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(corrupt, data[:len(data)/3], 0o644); err != nil {
		t.Fatal(err)
	}

	_, tsC := newJobServer(t, dir)
	final := waitJobState(t, tsC, jr.ID, JobStateDone, 2*time.Minute)
	if !final.Recovered {
		t.Error("resumed job not flagged recovered")
	}
	if _, got := getJSON(t, tsC, "/v1/sweeps/"+jr.ID+"/result"); !bytes.Equal(got, want) {
		t.Fatal("resumed result differs from the original bytes")
	}
	series := scrape(t, tsC)
	if got := series[`msoc_job_shards_total{event="invalid"}`]; got != 1 {
		t.Errorf("invalid checkpoints = %v, want 1 (the truncated file)", got)
	}
	if got := series[`msoc_job_shards_total{event="checkpointed"}`]; got != 2 {
		t.Errorf("re-checkpointed shards = %v, want 2", got)
	}
}

// jobEvents reads a finished job's whole /events stream, one line per
// event.
func jobEvents(t *testing.T, ts *httptest.Server, id string) [][]byte {
	t.Helper()
	status, body := getJSON(t, ts, "/v1/sweeps/"+id+"/events")
	if status != http.StatusOK {
		t.Fatalf("events: status %d: %s", status, body)
	}
	return bytes.SplitAfter(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
}

// checkRecoveredShards asserts a recovered job reports every shard as
// the original did, apart from the recovered flags.
func checkRecoveredShards(t *testing.T, orig, recovered *JobResponse) {
	t.Helper()
	if recovered.ShardsDone != orig.ShardsDone || len(recovered.Shards) != len(orig.Shards) {
		t.Fatalf("recovered job has %d/%d shards done, want %d/%d",
			recovered.ShardsDone, len(recovered.Shards), orig.ShardsDone, len(orig.Shards))
	}
	for i, sh := range recovered.Shards {
		if !sh.Recovered {
			t.Errorf("recovered shard %d not flagged recovered", i)
		}
		sh.Recovered = orig.Shards[i].Recovered
		if sh != orig.Shards[i] {
			t.Errorf("recovered shard %d = %+v, want %+v", i, sh, orig.Shards[i])
		}
	}
}

// checkRecoveredEvents asserts a recovered job's event stream replays
// the original's lines with byte-identical shard payloads, apart from
// the recovered flags.
func checkRecoveredEvents(t *testing.T, orig, recovered [][]byte) {
	t.Helper()
	type line struct {
		Type      string          `json:"type"`
		Shard     json.RawMessage `json:"shard"`
		Recovered bool            `json:"recovered"`
		State     string          `json:"state"`
		Error     string          `json:"error"`
	}
	parse := func(b []byte) line {
		var l line
		if err := json.Unmarshal(b, &l); err != nil {
			t.Fatalf("event line not JSON: %v: %s", err, b)
		}
		return l
	}
	if len(recovered) != len(orig) {
		t.Fatalf("recovered job replays %d events, want %d", len(recovered), len(orig))
	}
	for i := range orig {
		o, r := parse(orig[i]), parse(recovered[i])
		if r.Type == "shard" && !r.Recovered {
			t.Errorf("recovered event %d not flagged recovered", i)
		}
		if r.Type != o.Type || !bytes.Equal(r.Shard, o.Shard) || r.State != o.State || r.Error != o.Error {
			t.Errorf("recovered event %d differs:\n got %s\nwant %s", i, recovered[i], orig[i])
		}
	}
}

// An empty checkpoint — zero bytes, or only whitespace, the tell-tale
// of a torn write on a filesystem without atomic rename — must be
// counted invalid, deleted, and its shard recomputed to the same bytes
// as the original checkpoint and the same result.
func TestJobRecoveryRecomputesEmptyCheckpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("solver sweeps are slow")
	}
	for _, tc := range []struct{ name, data string }{
		{"zero-length", ""},
		{"whitespace-only", " \n\t\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			sA, tsA := newJobServer(t, dir)
			jr := submitJob(t, tsA, jobTestGrid, http.StatusAccepted)
			waitJobState(t, tsA, jr.ID, JobStateDone, 2*time.Minute)
			_, want := getJSON(t, tsA, "/v1/sweeps/"+jr.ID+"/result")
			tsA.Close()
			sA.Close()

			jobDir := filepath.Join(dir, jr.ID)
			if err := os.Remove(filepath.Join(jobDir, "result.json")); err != nil {
				t.Fatal(err)
			}
			empty := filepath.Join(jobDir, "shard_0_of_2.json")
			orig, err := os.ReadFile(empty)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(empty, []byte(tc.data), 0o644); err != nil {
				t.Fatal(err)
			}

			_, tsB := newJobServer(t, dir)
			waitJobState(t, tsB, jr.ID, JobStateDone, 2*time.Minute)
			series := scrape(t, tsB)
			if got := series[`msoc_job_shards_total{event="invalid"}`]; got != 1 {
				t.Errorf("invalid checkpoints = %v, want 1 (the empty file)", got)
			}
			if got := series[`msoc_job_shards_total{event="recovered"}`]; got != 1 {
				t.Errorf("recovered checkpoints = %v, want 1 (the intact shard)", got)
			}
			if got := series[`msoc_job_shards_total{event="checkpointed"}`]; got != 1 {
				t.Errorf("re-checkpointed shards = %v, want 1 (the empty one)", got)
			}
			redone, err := os.ReadFile(empty)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(redone, orig) {
				t.Error("recomputed checkpoint differs from the original bytes")
			}
			if _, got := getJSON(t, tsB, "/v1/sweeps/"+jr.ID+"/result"); !bytes.Equal(got, want) {
				t.Fatal("resumed result differs from the original bytes")
			}
		})
	}
}

// writeJSONFile is temp-file-plus-rename, so the destination either
// holds the complete previous content or the complete new content —
// never a torn mix — and no temp litter survives a successful write.
func TestWriteJSONFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.json")
	if err := writeJSONFile(path, map[string]int{"v": 1}); err != nil {
		t.Fatal(err)
	}
	if err := writeJSONFile(path, map[string]int{"v": 2}); err != nil {
		t.Fatal(err)
	}
	var got map[string]int
	if err := readJSONFile(path, &got); err != nil {
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

// A valid checkpoint must survive a restart untouched: only the missing
// shard is recomputed, and the recovered partial is flagged as such in
// the job's progress.
func TestJobRecoveryReusesValidCheckpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("solver sweeps are slow")
	}
	dir := t.TempDir()
	sA, tsA := newJobServer(t, dir)
	jr := submitJob(t, tsA, jobTestGrid, http.StatusAccepted)
	waitJobState(t, tsA, jr.ID, JobStateDone, 2*time.Minute)
	_, want := getJSON(t, tsA, "/v1/sweeps/"+jr.ID+"/result")
	tsA.Close()
	sA.Close()

	jobDir := filepath.Join(dir, jr.ID)
	if err := os.Remove(filepath.Join(jobDir, "result.json")); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(jobDir, "shard_1_of_2.json")); err != nil {
		t.Fatal(err)
	}
	kept, err := os.ReadFile(filepath.Join(jobDir, "shard_0_of_2.json"))
	if err != nil {
		t.Fatal(err)
	}

	_, tsB := newJobServer(t, dir)
	final := waitJobState(t, tsB, jr.ID, JobStateDone, 2*time.Minute)
	var states []string
	for _, sh := range final.Shards {
		label := sh.State
		if sh.Recovered {
			label += "/recovered"
		}
		states = append(states, label)
	}
	if states[0] != "done/recovered" || states[1] != "done" {
		t.Fatalf("shard states after resume = %v, want [done/recovered done]", states)
	}
	after, err := os.ReadFile(filepath.Join(jobDir, "shard_0_of_2.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(kept, after) {
		t.Error("resume rewrote the surviving checkpoint; it must be reused, not recomputed")
	}
	if _, got := getJSON(t, tsB, "/v1/sweeps/"+jr.ID+"/result"); !bytes.Equal(got, want) {
		t.Fatal("resumed result differs from the original bytes")
	}
}

// A job whose fleet fails every shard must land in "failed" with the
// per-worker detail, answer 502 on its result — and resubmitting the
// identical sweep must resume the same job, not mint a new one.
func TestJobFailureAndResubmissionResume(t *testing.T) {
	if testing.Short() {
		t.Skip("solver sweeps are slow")
	}
	broken := newBrokenWorker(t, "no planner here")
	s := New(Options{WorkerURLs: []string{broken.URL}, ShardAttempts: 1, RetryBackoff: time.Millisecond, JobDir: t.TempDir()})
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	jr := submitJob(t, ts, jobTestGrid, http.StatusAccepted)
	failed := waitJobState(t, ts, jr.ID, JobStateFailed, time.Minute)
	if failed.Error == "" || len(failed.Failures) == 0 {
		t.Fatalf("failed job lacks detail: %+v", failed)
	}
	status, body := getJSON(t, ts, "/v1/sweeps/"+jr.ID+"/result")
	if status != http.StatusBadGateway {
		t.Fatalf("failed job result: status %d, want 502 (%s)", status, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || len(er.Workers) == 0 {
		t.Fatalf("502 body lacks worker failures: %s", body)
	}

	// Heal the fleet by dropping the broken worker: the job then runs
	// in-process on resubmission.
	if err := s.fleet.update(nil, []string{broken.URL}); err != nil {
		t.Fatal(err)
	}
	resumed := submitJob(t, ts, jobTestGrid, http.StatusOK)
	if resumed.ID != jr.ID {
		t.Fatalf("resubmission minted job %s, want resumed %s", resumed.ID, jr.ID)
	}
	waitJobState(t, ts, jr.ID, JobStateDone, 2*time.Minute)
	want := inProcessSweepBytes(t, jobTestGrid)
	if _, got := getJSON(t, ts, "/v1/sweeps/"+jr.ID+"/result"); !bytes.Equal(got, want) {
		t.Fatal("resumed job's result differs from the synchronous sweep")
	}
	if got := scrape(t, ts)[`msoc_job_submissions_total{result="resumed"}`]; got != 1 {
		t.Errorf("resumed submissions = %v, want 1", got)
	}
}

// Terminal jobs past the retention window must be garbage-collected:
// state forgotten, directory removed — including the directory of a
// done job eviction left only on disk. A memory-only server honours the
// retention too: its sweeper runs without a job directory.
func TestJobRetentionGC(t *testing.T) {
	if testing.Short() {
		t.Skip("solver sweeps are slow")
	}
	t.Run("job-dir", func(t *testing.T) {
		dir := t.TempDir()
		s := New(Options{JobDir: dir, JobRetention: 10 * time.Millisecond})
		t.Cleanup(s.Close)
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)

		jr := submitJob(t, ts, jobTestGrid, http.StatusAccepted)
		waitJobState(t, ts, jr.ID, JobStateDone, 2*time.Minute)
		time.Sleep(20 * time.Millisecond)
		s.jobs.gcOnce() // the ticker fires every minute; drive one pass directly

		if status, _ := getJSON(t, ts, "/v1/sweeps/"+jr.ID); status != http.StatusNotFound {
			t.Errorf("expired job still answers status %d, want 404", status)
		}
		if _, err := os.Stat(filepath.Join(dir, jr.ID)); !os.IsNotExist(err) {
			t.Errorf("expired job directory still present (err=%v)", err)
		}

		// An evicted job lives on only in its directory; the sweeper
		// must expire that too.
		ev := submitJob(t, ts, SweepRequest{Widths: []int{32}, WTs: []float64{0.25}}, http.StatusAccepted)
		waitJobState(t, ts, ev.ID, JobStateDone, 2*time.Minute)
		s.jobs.mu.Lock()
		delete(s.jobs.jobs, ev.ID)
		s.jobs.mu.Unlock()
		time.Sleep(20 * time.Millisecond)
		s.jobs.gcOnce()
		if _, err := os.Stat(filepath.Join(dir, ev.ID)); !os.IsNotExist(err) {
			t.Errorf("expired evicted job directory still present (err=%v)", err)
		}
		if status, _ := getJSON(t, ts, "/v1/sweeps/"+ev.ID); status != http.StatusNotFound {
			t.Errorf("expired evicted job answers status %d, want 404", status)
		}
	})
	t.Run("memory-only", func(t *testing.T) {
		defer func(d time.Duration) { jobGCInterval = d }(jobGCInterval)
		jobGCInterval = 5 * time.Millisecond
		// The retention must outlast waitJobState's 10 ms poll, or the
		// sweeper can expire the job before the poll ever sees it done.
		s := New(Options{JobRetention: 500 * time.Millisecond})
		t.Cleanup(s.Close)
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)

		jr := submitJob(t, ts, jobTestGrid, http.StatusAccepted)
		waitJobState(t, ts, jr.ID, JobStateDone, 2*time.Minute)
		deadline := time.After(time.Minute)
		for {
			status, _ := getJSON(t, ts, "/v1/sweeps/"+jr.ID)
			if status == http.StatusNotFound {
				break
			}
			select {
			case <-deadline:
				t.Fatalf("memory-only job never expired (status %d)", status)
			case <-time.After(5 * time.Millisecond):
			}
		}
	})
}

// uniqueJobGrids returns n one-cell sweeps with distinct job IDs that
// share one width, so after the first every cell replays cached
// schedules.
func uniqueJobGrids(n int) []SweepRequest {
	grids := make([]SweepRequest, n)
	for i := range grids {
		grids[i] = SweepRequest{Widths: []int{32}, WTs: []float64{float64(i+1) / float64(n+2)}}
	}
	return grids
}

// runJobs submits each sweep as a new job, waits for all of them to
// finish, and returns their IDs and result bytes in submission order.
// Each job finishes before the next is submitted, so the eviction order
// is the submission order.
func runJobs(t *testing.T, ts *httptest.Server, grids []SweepRequest) (ids []string, results [][]byte) {
	t.Helper()
	for _, g := range grids {
		jr := submitJob(t, ts, g, http.StatusAccepted)
		waitJobState(t, ts, jr.ID, JobStateDone, 2*time.Minute)
		_, res := getJSON(t, ts, "/v1/sweeps/"+jr.ID+"/result")
		ids = append(ids, jr.ID)
		results = append(results, res)
	}
	return ids, results
}

// doneInMemory counts the done jobs the manager holds in memory.
func doneInMemory(s *Server) int { return s.jobs.stateCounts()[JobStateDone] }

// A memory-only server keeps at most maxDoneJobs done jobs: the jobs
// that finished first are evicted, answer 404, and an identical
// resubmission recomputes the same result bytes.
func TestJobStoreBoundedMemoryOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("solver sweeps are slow")
	}
	s := New(Options{})
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	const extra = 3
	grids := uniqueJobGrids(maxDoneJobs + extra)
	ids, results := runJobs(t, ts, grids)
	if got := doneInMemory(s); got != maxDoneJobs {
		t.Fatalf("%d done jobs in memory after %d submissions, want the cap %d", got, len(grids), maxDoneJobs)
	}
	for i, id := range ids {
		status, _ := getJSON(t, ts, "/v1/sweeps/"+id)
		if evicted := i < extra; evicted != (status == http.StatusNotFound) {
			t.Errorf("job %d (%s): status %d, evicted %t", i, id, status, evicted)
		}
	}

	again := submitJob(t, ts, grids[0], http.StatusAccepted)
	if again.ID != ids[0] {
		t.Fatalf("resubmission got ID %s, want %s", again.ID, ids[0])
	}
	waitJobState(t, ts, again.ID, JobStateDone, 2*time.Minute)
	if _, got := getJSON(t, ts, "/v1/sweeps/"+again.ID+"/result"); !bytes.Equal(got, results[0]) {
		t.Fatal("recomputed result of an evicted job differs from the original bytes")
	}
	if got := doneInMemory(s); got != maxDoneJobs {
		t.Errorf("%d done jobs in memory after the resubmission, want %d", got, maxDoneJobs)
	}
}

// With a job directory, an evicted done job is reloaded from disk by a
// lookup or a resubmission: /result and the /events shard payloads are
// the original bytes, the resubmission dedupes onto it instead of
// recomputing, and the reload is flagged recovered like a restart.
func TestJobStoreEvictionReloadsFromJobDir(t *testing.T) {
	if testing.Short() {
		t.Skip("solver sweeps are slow")
	}
	dir := t.TempDir()
	s, ts := newJobServer(t, dir)

	grids := uniqueJobGrids(maxDoneJobs + 2)
	first := submitJob(t, ts, grids[0], http.StatusAccepted)
	done := waitJobState(t, ts, first.ID, JobStateDone, 2*time.Minute)
	_, want := getJSON(t, ts, "/v1/sweeps/"+first.ID+"/result")
	wantEvents := jobEvents(t, ts, first.ID)
	runJobs(t, ts, grids[1:])

	evicted := func(id string) bool {
		s.jobs.mu.Lock()
		defer s.jobs.mu.Unlock()
		_, ok := s.jobs.jobs[id]
		return !ok
	}
	if !evicted(first.ID) {
		t.Fatal("the first job to finish was not evicted")
	}
	if got := doneInMemory(s); got != maxDoneJobs {
		t.Fatalf("%d done jobs in memory, want the cap %d", got, maxDoneJobs)
	}

	status, body := getJSON(t, ts, "/v1/sweeps/"+first.ID)
	if status != http.StatusOK {
		t.Fatalf("evicted job status: %d: %s", status, body)
	}
	var reloaded JobResponse
	if err := json.Unmarshal(body, &reloaded); err != nil {
		t.Fatal(err)
	}
	if reloaded.State != JobStateDone || !reloaded.Recovered {
		t.Fatalf("reloaded job = state %q recovered %t, want done/true", reloaded.State, reloaded.Recovered)
	}
	checkRecoveredShards(t, done, &reloaded)
	if _, got := getJSON(t, ts, "/v1/sweeps/"+first.ID+"/result"); !bytes.Equal(got, want) {
		t.Fatal("reloaded result differs from the original bytes")
	}
	checkRecoveredEvents(t, wantEvents, jobEvents(t, ts, first.ID))
	if got := doneInMemory(s); got > maxDoneJobs {
		t.Errorf("%d done jobs in memory after a reload, want at most %d", got, maxDoneJobs)
	}

	// Evict it again, then resubmit: the resubmission must dedupe onto
	// the job on disk rather than compute a fresh one.
	s.jobs.mu.Lock()
	delete(s.jobs.jobs, first.ID)
	s.jobs.mu.Unlock()
	again := submitJob(t, ts, grids[0], http.StatusOK)
	if again.ID != first.ID || again.State != JobStateDone || !again.Recovered {
		t.Fatalf("resubmission = %s %q recovered %t, want the done job %s reloaded", again.ID, again.State, again.Recovered, first.ID)
	}
	series := scrape(t, ts)
	if got := series[`msoc_job_submissions_total{result="deduped"}`]; got != 1 {
		t.Errorf("deduped submissions = %v, want 1", got)
	}
	if got := series[`msoc_job_submissions_total{result="accepted"}`]; got != float64(len(grids)) {
		t.Errorf("accepted submissions = %v, want %d (nothing recomputed)", got, len(grids))
	}
	if _, got := getJSON(t, ts, "/v1/sweeps/"+first.ID+"/result"); !bytes.Equal(got, want) {
		t.Fatal("result after a deduped resubmission differs from the original bytes")
	}
}

// Concurrent lookups of evicted jobs reload and re-evict them under the
// manager's lock: every reader sees the original bytes, and memory
// never holds more than the cap.
func TestJobStoreConcurrentReloads(t *testing.T) {
	if testing.Short() {
		t.Skip("solver sweeps are slow")
	}
	s, ts := newJobServer(t, t.TempDir())
	ids, results := runJobs(t, ts, uniqueJobGrids(maxDoneJobs+4))

	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range ids {
				// Each reader walks the IDs from its own offset, so evicted
				// and resident jobs are looked up at once.
				i := (k + g*len(ids)/4) % len(ids)
				resp, err := http.Get(ts.URL + "/v1/sweeps/" + ids[i] + "/result")
				if err != nil {
					t.Error(err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || !bytes.Equal(body, results[i]) {
					t.Errorf("job %d: status %d (err %v), result differs: %t", i, resp.StatusCode, err, !bytes.Equal(body, results[i]))
				}
			}
		}()
	}
	wg.Wait()
	if got := doneInMemory(s); got > maxDoneJobs {
		t.Errorf("%d done jobs in memory after concurrent reloads, want at most %d", got, maxDoneJobs)
	}
}

// Eviction drops only done jobs, those that finished first, and only
// down to the cap; running and failed jobs stay however old they are.
func TestEvictDoneKeepsRunningAndFailedJobs(t *testing.T) {
	m := &jobManager{jobs: map[string]*job{}}
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	add := func(id, state string, finished time.Time) {
		m.jobs[id] = &job{state: state, finishedAt: finished}
	}
	add("running", JobStateRunning, time.Time{})
	add("failed", JobStateFailed, base.Add(-time.Hour))
	for i := range maxDoneJobs + 3 {
		// Finish times descend with i, so the last three are the oldest.
		add(fmt.Sprintf("done%02d", i), JobStateDone, base.Add(-time.Duration(i)*time.Minute))
	}
	m.evictDoneLocked()
	for _, id := range []string{"running", "failed", "done00", fmt.Sprintf("done%02d", maxDoneJobs-1)} {
		if _, ok := m.jobs[id]; !ok {
			t.Errorf("%s evicted", id)
		}
	}
	for i := maxDoneJobs; i < maxDoneJobs+3; i++ {
		if id := fmt.Sprintf("done%02d", i); m.jobs[id] != nil {
			t.Errorf("%s, one of the oldest done jobs, kept", id)
		}
	}
	if len(m.jobs) != maxDoneJobs+2 {
		t.Errorf("%d jobs kept, want %d", len(m.jobs), maxDoneJobs+2)
	}
}

// Only IDs shaped like jobID's output ever reach the filesystem, so a
// path value cannot name anything outside the job directory.
func TestJobLookupRejectsNonJobIDs(t *testing.T) {
	for _, id := range []string{"", "..", "../../etc/passwd", "0123456789abcde", "0123456789abcdef0",
		"0123456789ABCDEF", "0123456789abcdeg", "01234567/9abcdef", "........"} {
		if isJobID(id) {
			t.Errorf("isJobID(%q) = true", id)
		}
	}
	if !isJobID("0123456789abcdef") {
		t.Error("isJobID rejects a well-formed ID")
	}

	// A directory outside the job dir holding a valid finished job must
	// stay unreachable however the ID is spelled.
	root := t.TempDir()
	jobDir := filepath.Join(root, "jobs")
	s, ts := newJobServer(t, jobDir)
	jr := submitJob(t, ts, jobTestGrid, http.StatusAccepted)
	waitJobState(t, ts, jr.ID, JobStateDone, 2*time.Minute)
	s.jobs.mu.Lock()
	delete(s.jobs.jobs, jr.ID)
	s.jobs.mu.Unlock()
	if err := os.Rename(filepath.Join(jobDir, jr.ID), filepath.Join(root, jr.ID)); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{jr.ID, "..%2F" + jr.ID} {
		if status, body := getJSON(t, ts, "/v1/sweeps/"+path); status != http.StatusNotFound {
			t.Errorf("GET /v1/sweeps/%s: status %d, want 404: %s", path, status, body)
		}
	}
}

// A worker streaming an absurdly large shard reply must cost the
// coordinator a bounded read and an ordinary reassignable failure —
// never an unbounded buffer. The healthy worker rescues the shard and
// the sweep still matches the in-process bytes.
func TestCoordinatorBoundsOversizedWorkerReply(t *testing.T) {
	if testing.Short() {
		t.Skip("solver sweeps are slow")
	}
	oneCell := SweepRequest{Widths: []int{32}, WTs: []float64{0.5}}
	want := inProcessSweepBytes(t, oneCell)

	// Valid JSON prefix, then far more bytes than shardReplyLimit(1)
	// allows; the limited decode must cut it off mid-value.
	oversized := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"design_hash":"`)
		junk := bytes.Repeat([]byte("x"), 64<<10)
		var sent int64
		for sent <= shardReplyLimit(1) {
			n, err := w.Write(junk)
			sent += int64(n)
			if err != nil {
				return
			}
		}
		fmt.Fprint(w, `"}`)
	}))
	t.Cleanup(oversized.Close)
	healthy := newWorker(t)

	coord := newCoordinatorServer(t, Options{WorkerURLs: []string{oversized.URL, healthy.URL}, RetryBackoff: time.Millisecond})
	status, got := post(t, coord, "/v1/sweep", oneCell)
	if status != http.StatusOK {
		t.Fatalf("sweep with an oversized worker: status %d: %s", status, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("post-rescue sweep differs from in-process sweep")
	}
	series := scrape(t, coord)
	if series[`msoc_worker_shards_total{result="error",worker="`+oversized.URL+`"}`] == 0 {
		t.Error("oversized reply not counted as a worker failure")
	}
}

// A panicking handler must become a structured 500 ErrorResponse plus
// an msoc_panics_total increment — and http.ErrAbortHandler must still
// pass through untouched (the deliberate tear-the-connection sentinel).
func TestPanicMiddlewareRecoversIntoStructured500(t *testing.T) {
	s, ts := newTestServer(t)

	mux := http.NewServeMux()
	mux.Handle("GET /boom", s.instrument("/boom", func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	}))
	mux.Handle("GET /abort", s.instrument("/abort", func(http.ResponseWriter, *http.Request) {
		panic(http.ErrAbortHandler)
	}))
	faulty := httptest.NewServer(mux)
	t.Cleanup(faulty.Close)

	resp, err := http.Get(faulty.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking handler: status %d, want 500", resp.StatusCode)
	}
	var er ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatalf("500 body not a structured ErrorResponse: %v", err)
	}
	if !strings.Contains(er.Error, "kaboom") {
		t.Errorf("500 error = %q, want the panic value", er.Error)
	}

	// ErrAbortHandler: net/http aborts the connection; the client sees a
	// transport error, not a status, and the panic counter stays put.
	if _, err := http.Get(faulty.URL + "/abort"); err == nil {
		t.Error("ErrAbortHandler produced a response; it must tear the connection")
	}

	series := scrape(t, ts)
	if got := series[`msoc_panics_total`]; got != 1 {
		t.Errorf("msoc_panics_total = %v, want 1 (the kaboom, not the abort)", got)
	}
	if got := series[`msoc_http_requests_total{endpoint="/boom",code="500"}`]; got != 1 {
		t.Errorf("panicking request not counted as a 500: %v", got)
	}
}
