package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"testing"
)

// rawBatchResponse mirrors BatchResponse with raw item responses, so
// tests can compare an item's JSON against an individual /v1/plan body
// token-for-token.
type rawBatchResponse struct {
	Items []struct {
		Status   int             `json:"status"`
		Response json.RawMessage `json:"response"`
		Error    string          `json:"error"`
	} `json:"items"`
	Deduped int `json:"deduped"`
}

// compact strips JSON whitespace, leaving every token — in particular
// every float literal — byte-for-byte intact.
func compact(t *testing.T, data []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, data); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, data)
	}
	return buf.Bytes()
}

// TestBatchItemsByteIdenticalToPlan pins the batch contract: every
// item's response carries exactly the tokens the same request gets from
// POST /v1/plan — across benchmarks, widths, weights, and the
// exhaustive and bounded solver flags.
func TestBatchItemsByteIdenticalToPlan(t *testing.T) {
	_, ts := newTestServer(t)
	wt25, wt75 := 0.25, 0.75
	items := []PlanRequest{
		{Width: 32},
		{Width: 24, WT: &wt25},
		{Width: 48, WT: &wt75, Exhaustive: true},
		{Width: 32, Benchmark: "d695m"},
		{Width: 32, Exhaustive: true, Bounded: true},
	}
	status, body := post(t, ts, "/v1/batch", BatchRequest{Items: items})
	if status != http.StatusOK {
		t.Fatalf("batch status %d: %s", status, body)
	}
	var batch rawBatchResponse
	if err := json.Unmarshal(body, &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Items) != len(items) {
		t.Fatalf("batch answered %d items, want %d", len(batch.Items), len(items))
	}
	for i, item := range items {
		got := batch.Items[i]
		if got.Status != http.StatusOK {
			t.Fatalf("item %d: status %d: %s", i, got.Status, got.Error)
		}
		planStatus, planBody := post(t, ts, "/v1/plan", item)
		if planStatus != http.StatusOK {
			t.Fatalf("item %d direct plan: status %d: %s", i, planStatus, planBody)
		}
		if !bytes.Equal(compact(t, got.Response), compact(t, planBody)) {
			t.Errorf("item %d: batch response differs from individual /v1/plan", i)
		}
	}
}

// TestBatchDedupesIdenticalItems: identically-answering items share one
// planning execution and the response says how many were folded.
func TestBatchDedupesIdenticalItems(t *testing.T) {
	s := New(Options{})
	t.Cleanup(s.Close)
	wt := 0.5
	items := []PlanRequest{
		{Width: 32},
		{Width: 32, WT: &wt},          // same as item 0 (0.5 is the default)
		{Width: 32, TimeoutMS: 12345}, // timeout is not part of the answer
		{Width: 24},
	}
	before := s.Engine().Metrics().Plans
	resp, err := s.Batch(context.Background(), BatchRequest{Items: items})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Deduped != 2 {
		t.Errorf("Deduped = %d, want 2", resp.Deduped)
	}
	ran := s.Engine().Metrics().Plans - before
	if ran != 2 {
		t.Errorf("engine ran %d plans, want 2 (unique items)", ran)
	}
	for i, item := range resp.Items {
		if item.Status != http.StatusOK || item.Response == nil {
			t.Errorf("item %d: status %d %q", i, item.Status, item.Error)
		}
	}
	// Deduplicated items share the exact response value.
	if a, b := resp.Items[0].Response, resp.Items[1].Response; a != b {
		t.Error("deduped items carry different response pointers")
	}
}

// TestBatchDedupesDefaultAndOccupancyBackend: no backend and "occupancy"
// name the same packer, so the two items plan once and carry identical
// bytes.
func TestBatchDedupesDefaultAndOccupancyBackend(t *testing.T) {
	s, ts := newTestServer(t)
	items := []PlanRequest{{Width: 32}, {Width: 32, Backend: "occupancy"}}
	before := s.Engine().Metrics().Plans
	status, body := post(t, ts, "/v1/batch", BatchRequest{Items: items})
	if status != http.StatusOK {
		t.Fatalf("batch status %d: %s", status, body)
	}
	var batch rawBatchResponse
	if err := json.Unmarshal(body, &batch); err != nil {
		t.Fatal(err)
	}
	if batch.Deduped != 1 {
		t.Errorf("Deduped = %d, want 1", batch.Deduped)
	}
	if ran := s.Engine().Metrics().Plans - before; ran != 1 {
		t.Errorf("engine ran %d plans, want 1", ran)
	}
	for i, item := range batch.Items {
		if item.Status != http.StatusOK {
			t.Fatalf("item %d: status %d: %s", i, item.Status, item.Error)
		}
	}
	if !bytes.Equal(batch.Items[0].Response, batch.Items[1].Response) {
		t.Error("default and occupancy items carry different bytes")
	}
}

// TestBatchPerItemErrors: invalid items fail alone with the status
// /v1/plan would give them; valid items still plan; the call is 200.
func TestBatchPerItemErrors(t *testing.T) {
	_, ts := newTestServer(t)
	items := []PlanRequest{
		{Width: 0},                            // 400: width
		{Width: 32},                           // ok
		{Width: 32, Benchmark: "no-such-soc"}, // 400: unknown benchmark
		{Width: 32, Benchmark: "no-such-soc"}, // same bad request: stays a singleton
	}
	status, body := post(t, ts, "/v1/batch", BatchRequest{Items: items})
	if status != http.StatusOK {
		t.Fatalf("batch status %d: %s", status, body)
	}
	var batch BatchResponse
	if err := json.Unmarshal(body, &batch); err != nil {
		t.Fatal(err)
	}
	wantStatus := []int{http.StatusBadRequest, http.StatusOK, http.StatusBadRequest, http.StatusBadRequest}
	for i, want := range wantStatus {
		if batch.Items[i].Status != want {
			t.Errorf("item %d: status %d, want %d (%s)", i, batch.Items[i].Status, want, batch.Items[i].Error)
		}
	}
	if batch.Items[1].Response == nil {
		t.Error("valid item lost its response")
	}
	if batch.Items[0].Error == "" || batch.Items[2].Error == "" {
		t.Error("failed items carry no error text")
	}
}

// TestBatchValidation: whole-batch failures are call failures.
func TestBatchValidation(t *testing.T) {
	_, ts := newTestServer(t)
	status, body := post(t, ts, "/v1/batch", BatchRequest{})
	if status != http.StatusBadRequest {
		t.Errorf("empty batch: status %d: %s", status, body)
	}
	big := BatchRequest{Items: make([]PlanRequest, MaxBatchItems+1)}
	for i := range big.Items {
		big.Items[i] = PlanRequest{Width: 32}
	}
	status, body = post(t, ts, "/v1/batch", big)
	if status != http.StatusBadRequest {
		t.Errorf("oversized batch: status %d: %s", status, body)
	}
}

// TestBatchWiderThanPool: a batch with more unique items than the
// worker pool has slots drains at pool concurrency instead of
// deadlocking (the batch call itself holds no slot).
func TestBatchWiderThanPool(t *testing.T) {
	s := New(Options{Workers: 2, MaxConcurrent: 1})
	t.Cleanup(s.Close)
	wt25, wt75 := 0.25, 0.75
	items := []PlanRequest{
		{Width: 16},
		{Width: 24},
		{Width: 32, WT: &wt25},
		{Width: 32, WT: &wt75},
	}
	resp, err := s.Batch(context.Background(), BatchRequest{Items: items})
	if err != nil {
		t.Fatal(err)
	}
	for i, item := range resp.Items {
		if item.Status != http.StatusOK {
			t.Errorf("item %d: status %d %q", i, item.Status, item.Error)
		}
	}
}
