package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"
)

// A job whose every shard fails on every worker must report its
// failures shard-major, each shard's in the order its attempts reached
// the workers — in the job status and in the 502 result alike. Four
// shards of four attempts each make 16 failures, past the length at
// which an unstable sort starts reordering equal keys.
func TestJobFailuresShardMajorInAttemptOrder(t *testing.T) {
	type arrival struct {
		shard  int
		worker string
	}
	var (
		mu       sync.Mutex
		arrivals []arrival
	)
	urls := make([]string, 4)
	for i := range urls {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			var req ShardRequest
			if r.URL.Path == "/v1/shard" && json.NewDecoder(r.Body).Decode(&req) == nil {
				mu.Lock()
				arrivals = append(arrivals, arrival{req.Shard, "http://" + r.Host})
				mu.Unlock()
			}
			http.Error(w, "down", http.StatusInternalServerError)
		}))
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	_, ts := newCoordinator2(t, Options{
		WorkerURLs:    urls,
		ShardAttempts: 0, // every member once per shard
		RetryBackoff:  time.Millisecond,
		ProbeInterval: time.Hour,
	})

	jr := submitJob(t, ts, SweepRequest{Widths: []int{32, 40, 48, 56}}, http.StatusAccepted)
	if jr.ShardsTotal != 4 {
		t.Fatalf("job split into %d shards, want 4 (one per worker)", jr.ShardsTotal)
	}
	failed := waitJobState(t, ts, jr.ID, JobStateFailed, time.Minute)
	if len(failed.Failures) != 16 {
		t.Fatalf("job reports %d failures, want 16 (4 shards × 4 workers)", len(failed.Failures))
	}

	mu.Lock()
	perShard := map[int][]string{}
	for _, a := range arrivals {
		perShard[a.shard] = append(perShard[a.shard], a.worker)
	}
	mu.Unlock()
	var want []WorkerFailure
	for shard := 0; shard < 4; shard++ {
		for _, worker := range perShard[shard] {
			want = append(want, WorkerFailure{Worker: worker, Shard: shard})
		}
	}
	got := make([]WorkerFailure, len(failed.Failures))
	for i, f := range failed.Failures {
		got[i] = WorkerFailure{Worker: f.Worker, Shard: f.Shard}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("job failures (worker, shard) =\n%v\nwant shard-major in arrival order =\n%v", got, want)
	}

	status, body := getJSON(t, ts, "/v1/sweeps/"+jr.ID+"/result")
	if status != http.StatusBadGateway {
		t.Fatalf("failed job result: status %d, want 502 (%s)", status, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(er.Workers, failed.Failures) {
		t.Fatalf("502 body failures differ from the job status:\n%v\n%v", er.Workers, failed.Failures)
	}
}

// writeManifest plants a job directory holding only job.json, as a
// coordinator leaves it when it dies before the first checkpoint.
func writeManifest(t *testing.T, dir, id, manifest string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Join(dir, id), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, id, "job.json"), []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}
}

// Recovery must apply the checks submission applies: a manifest whose
// ID re-derives from its content but whose width axis repeats a value
// — a job POST /v1/sweeps rejects — is skipped and logged at boot, not
// resumed to fail later inside the shard solver.
func TestJobRecoverySkipsManifestSubmissionRejects(t *testing.T) {
	const id = "42098b98da943017"
	sp, err := validateSweep(SweepRequest{Widths: []int{32, 32}})
	if err != nil {
		t.Fatal(err)
	}
	if got := jobID(sp); got != id {
		t.Fatalf("fixture ID %s does not re-derive (got %s)", id, got)
	}
	dir := t.TempDir()
	writeManifest(t, dir, id, `{
  "id": "42098b98da943017",
  "design_hash": "`+sp.hash+`",
  "widths": [
    32,
    32
  ],
  "wts": [
    0.5
  ],
  "of": 2,
  "created_at": "2026-01-02T03:04:05Z"
}
`)

	var (
		mu   sync.Mutex
		logs []string
	)
	s := New(Options{JobDir: dir, Logf: func(format string, args ...any) {
		mu.Lock()
		logs = append(logs, fmt.Sprintf(format, args...))
		mu.Unlock()
	}})
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	if status, body := getJSON(t, ts, "/v1/sweeps/"+id); status != http.StatusNotFound {
		t.Fatalf("manifest with duplicate widths was recovered: status %d: %s", status, body)
	}
	if got := scrape(t, ts)[`msoc_job_recoveries_total`]; got != 0 {
		t.Errorf("recoveries = %v, want 0", got)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, line := range logs {
		if strings.Contains(line, id) && strings.Contains(line, "duplicate-free") {
			return
		}
	}
	t.Fatalf("no log line names the skipped job and its reason; logs: %q", logs)
}

// createdAt matches a manifest's submission time, the one field two
// writes of the same job legitimately differ in.
var createdAt = regexp.MustCompile(`"created_at": "[^"]*"`)

// A job.json written by an older binary — the exact key order and field
// set below — must recover under the same job ID and finish with the
// bytes a synchronous sweep returns; an identical submission must
// dedupe onto it, and a fresh submission must write the same manifest
// bytes.
func TestJobRecoversManifestInOlderLayout(t *testing.T) {
	if testing.Short() {
		t.Skip("solver sweeps are slow")
	}
	cases := []struct {
		id, manifest string
		req          SweepRequest
	}{
		{
			id:  "f3ec1c94f3d84ba5",
			req: SweepRequest{Widths: []int{32, 40}},
			manifest: `{
  "id": "f3ec1c94f3d84ba5",
  "design_hash": "df36f45f2e8e7a1d7e8f62410c938ee68b13249ac8d2f82092f46a4263634963",
  "widths": [
    32,
    40
  ],
  "wts": [
    0.5
  ],
  "of": 2,
  "created_at": "2026-01-02T03:04:05Z"
}
`,
		},
		{
			id: "230b8d8a94eb6b2a",
			req: SweepRequest{Benchmark: BenchmarkP93791M, Widths: []int{32, 40}, WTs: []float64{0.5},
				Exhaustive: true, Bounded: true, Backend: "rectangle"},
			manifest: `{
  "id": "230b8d8a94eb6b2a",
  "design_hash": "df36f45f2e8e7a1d7e8f62410c938ee68b13249ac8d2f82092f46a4263634963",
  "benchmark": "p93791m",
  "widths": [
    32,
    40
  ],
  "wts": [
    0.5
  ],
  "exhaustive": true,
  "bounded": true,
  "backend": "rectangle",
  "of": 2,
  "created_at": "2026-01-02T03:04:05Z"
}
`,
		},
	}
	for _, c := range cases {
		t.Run(c.id, func(t *testing.T) {
			want := inProcessSweepBytes(t, c.req)
			dir := t.TempDir()
			writeManifest(t, dir, c.id, c.manifest)
			_, ts := newJobServer(t, dir)
			final := waitJobState(t, ts, c.id, JobStateDone, 2*time.Minute)
			if !final.Recovered {
				t.Error("job not flagged recovered")
			}
			if _, got := getJSON(t, ts, "/v1/sweeps/"+c.id+"/result"); !bytes.Equal(got, want) {
				t.Fatal("recovered job's result differs from the synchronous sweep")
			}
			if dup := submitJob(t, ts, c.req, http.StatusOK); dup.ID != c.id {
				t.Fatalf("identical submission got job %s, want recovered %s", dup.ID, c.id)
			}

			fresh := t.TempDir()
			_, tsFresh := newJobServer(t, fresh)
			if jr := submitJob(t, tsFresh, c.req, http.StatusAccepted); jr.ID != c.id {
				t.Fatalf("fresh submission got job %s, want %s", jr.ID, c.id)
			}
			written, err := os.ReadFile(filepath.Join(fresh, c.id, "job.json"))
			if err != nil {
				t.Fatal(err)
			}
			norm := func(s string) string { return createdAt.ReplaceAllString(s, `"created_at": ""`) }
			if norm(string(written)) != norm(c.manifest) {
				t.Fatalf("fresh job.json differs from the older layout:\n%s\nwant\n%s", written, c.manifest)
			}
		})
	}
}

// newHangingWorker boots a worker that accepts every request and never
// answers it until the caller gives up; seen receives once a request
// has arrived.
func newHangingWorker(t *testing.T) (ts *httptest.Server, seen <-chan struct{}) {
	t.Helper()
	ch := make(chan struct{}, 1)
	ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case ch <- struct{}{}:
		default:
		}
		// Drain the body so net/http notices the caller closing the
		// connection, then hold the request until it does.
		io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
	}))
	t.Cleanup(ts.Close)
	return ts, ch
}

// waitSeen waits for a hanging worker to receive a request.
func waitSeen(t *testing.T, seen <-chan struct{}) {
	t.Helper()
	select {
	case <-seen:
	case <-time.After(30 * time.Second):
		t.Fatal("the hanging worker never received a shard")
	}
}

// settleGoroutines polls until the process runs at most base
// goroutines, failing with a goroutine dump when they do not settle.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			var dump bytes.Buffer
			pprof.Lookup("goroutine").WriteTo(&dump, 1)
			t.Fatalf("%d goroutines still running, want at most %d:\n%s", runtime.NumGoroutine(), base, dump.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// A distributed /v1/sweep whose client goes away while the fleet hangs
// must leave no goroutine behind: the pipeline's shard goroutines
// return with the request context, and the coordinator abandons its
// shard posts.
func TestCancelledDistributedSweepLeaksNoGoroutines(t *testing.T) {
	hangA, seenA := newHangingWorker(t)
	hangB, seenB := newHangingWorker(t)
	coord := newCoordinatorServer(t, Options{
		WorkerURLs:    []string{hangA.URL, hangB.URL},
		ShardTimeout:  time.Minute,
		ProbeInterval: time.Hour,
	})
	body, err := json.Marshal(distTestGrid)
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Transport: &http.Transport{}}
	base := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, coord.URL+"/v1/sweep", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		resp, err := client.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()
	// Cancel only once both shards hang on their workers. A shard post
	// whose connection is still being set up at the cancel would get
	// that connection afterwards, and net/http keeps it as an idle
	// keep-alive (90 s on the fleet transport) — the transport's pool,
	// not a goroutine the pipeline leaked.
	waitSeen(t, seenA)
	waitSeen(t, seenB)
	cancel()
	if err := <-done; err == nil {
		t.Fatal("the cancelled sweep still got a response")
	}
	client.CloseIdleConnections()
	settleGoroutines(t, base)
}

// Server.Close while a durable job runs on a hanging fleet must return
// promptly, leave the job running for the next process, and stop every
// goroutine the server started.
func TestServerCloseDuringJobLeaksNoGoroutines(t *testing.T) {
	hanging, seen := newHangingWorker(t)
	base := runtime.NumGoroutine()

	s := New(Options{
		WorkerURLs:    []string{hanging.URL},
		JobDir:        t.TempDir(),
		ShardTimeout:  time.Minute,
		ProbeInterval: time.Hour,
	})
	t.Cleanup(s.Close)
	j, created, err := s.jobs.submit(jobTestGrid)
	if err != nil || !created {
		t.Fatalf("submit: created=%t err=%v", created, err)
	}
	waitSeen(t, seen)

	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(30 * time.Second):
		t.Fatal("Server.Close did not return while a job ran on a hanging fleet")
	}
	if state := j.status().State; state != JobStateRunning {
		t.Errorf("job state after Close = %q, want %q (resumable)", state, JobStateRunning)
	}
	settleGoroutines(t, base)
}
