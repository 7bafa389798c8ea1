package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mixsoc/internal/service"
)

// harness is one service.Server behind a real loopback listener, with
// the keep-alive client the workload's clients share.
type harness struct {
	srv    *service.Server
	hs     *http.Server
	tap    *tap
	base   string
	client *http.Client
	served chan struct{} // closed when Serve returns
}

// startHarness builds a default server, serves it on 127.0.0.1 and
// checks /healthz answers.
func startHarness() (*harness, error) {
	srv := service.New(service.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	h := &harness{
		srv:    srv,
		tap:    &tap{inner: srv.Handler()},
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true}},
		served: make(chan struct{}),
	}
	h.hs = &http.Server{Handler: h.tap}
	go func() {
		defer close(h.served)
		_ = h.hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	if _, err := h.get("/healthz"); err != nil {
		h.close()
		return nil, err
	}
	return h, nil
}

// close shuts the listener down, waits for Serve to return and stops
// the server's background work.
func (h *harness) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = h.hs.Shutdown(ctx) // a timeout leaves nothing more to do
	<-h.served
	h.client.CloseIdleConnections()
	h.srv.Close()
}

func (h *harness) get(path string) ([]byte, error) {
	resp, err := h.client.Get(h.base + path)
	return readResponse(path, resp, err, http.StatusOK)
}

func (h *harness) post(path string, body []byte, want ...int) ([]byte, error) {
	resp, err := h.client.Post(h.base+path, "application/json", bytes.NewReader(body))
	return readResponse(path, resp, err, want...)
}

// readResponse reads the whole body and fails on a transport error or a
// status outside want.
func readResponse(path string, resp *http.Response, err error, want ...int) ([]byte, error) {
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s: reading body: %w", path, err)
	}
	for _, s := range want {
		if resp.StatusCode == s {
			return body, nil
		}
	}
	return nil, fmt.Errorf("%s: status %d: %.200s", path, resp.StatusCode, body)
}

// outcome is what the client saw of one call.
type outcome struct {
	lat  time.Duration
	sum  [sha256.Size]byte // of the response body (the job's /result)
	size int
	err  error // transport error, unexpected status or broken event stream
}

// do sends one call's requests and reads each response to the end.
// The digest covers the response bodies in order.
func (h *harness) do(c call) outcome {
	t0 := time.Now()
	bodies := make([][]byte, 0, len(c.reqs))
	var err error
	for _, r := range c.reqs {
		var body []byte
		if body, err = h.send(r); err != nil {
			break
		}
		bodies = append(bodies, body)
	}
	out := outcome{lat: time.Since(t0), err: err}
	out.sum, out.size = digest(bodies)
	return out
}

func digest(bodies [][]byte) (sum [sha256.Size]byte, size int) {
	hash := sha256.New()
	for _, b := range bodies {
		hash.Write(b)
		size += len(b)
	}
	hash.Sum(sum[:0])
	return sum, size
}

// send makes one request and returns the response body; a durable
// job's body is its /result.
func (h *harness) send(r request) ([]byte, error) {
	switch r.kind {
	case kindPlan:
		return h.post("/v1/plan", r.body, http.StatusOK)
	case kindBatch:
		return h.post("/v1/batch", r.body, http.StatusOK)
	case kindSweep:
		return h.post("/v1/sweep", r.body, http.StatusOK)
	case kindJob:
		return h.job(r.body)
	}
	return nil, fmt.Errorf("unknown request kind %d", r.kind)
}

// job submits a memory-only durable sweep, reads its event stream to
// the terminal line and fetches the result bytes.
func (h *harness) job(body []byte) ([]byte, error) {
	sub, err := h.post("/v1/sweeps", body, http.StatusAccepted, http.StatusOK)
	if err != nil {
		return nil, err
	}
	var jr service.JobResponse
	if err := json.Unmarshal(sub, &jr); err != nil {
		return nil, fmt.Errorf("decoding job submission: %w", err)
	}
	events, err := h.get("/v1/sweeps/" + jr.ID + "/events")
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(events), []byte("\n"))
	var last service.JobEvent
	if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
		return nil, fmt.Errorf("decoding the last job event: %w", err)
	}
	if last.Type != "job" || last.State != service.JobStateDone {
		return nil, fmt.Errorf("job %s ended with event %+v", jr.ID, last)
	}
	return h.get("/v1/sweeps/" + jr.ID + "/result")
}

// sample is what a client keeps of a call it could not verify in the
// loop: the call's stream index and what came back.
type sample struct {
	i   int
	sum [sha256.Size]byte
	err error
}

// clientLog is one client's share of a window.
type clientLog struct {
	calls, plans int
	lat          []float64 // ms, of calls answered 200
	draws        map[string]int
	samples      []sample
	v            verdict
}

// window is one closed-loop measurement window.
type window struct {
	calls   int
	elapsed time.Duration
	plans   int // delivered by calls answered 200
	p50     float64
	tail    tail
	draws   map[string]int
	samples []sample // left for verify, by stream index
	v       verdict  // of the calls verified in the loop
	alloc   uint64   // bytes allocated by the whole process during the window
	heap    uint64   // live heap after a forced GC at the end
}

// runWindow drives clients closed-loop clients against h for d: each
// sends its next call only after the previous response is read. A
// client claims spec.unit consecutive stream indices at a time, from first
// on, and checks the deadline only between units, so every window
// delivers whole cycles of the stream's mix. Calls started before the
// deadline run to completion. With refs (plan-hot) each response is
// verified in the loop against its working-set entry's reference;
// otherwise its digest is kept for verify.
func runWindow(h *harness, g generator, refs []reference, spec workloadSpec, clients int, d time.Duration, first int) (*window, error) {
	var next atomic.Int64
	next.Store(int64(first))
	logs := make([]clientLog, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	ms0, t0 := memStats(), time.Now()
	stop := t0.Add(d)
	for k := range logs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			log := &logs[k]
			log.draws = map[string]int{}
			for time.Now().Before(stop) {
				i0 := int(next.Add(int64(spec.unit))) - spec.unit
				for i := i0; i < i0+spec.unit; i++ {
					c, err := g.call(i)
					if err != nil {
						errs[k] = fmt.Errorf("generating call %d: %w", i, err)
						return
					}
					out := h.do(c)
					log.calls++
					if out.err == nil {
						log.lat = append(log.lat, float64(out.lat)/float64(time.Millisecond))
						log.plans += c.plans
					}
					for _, d := range c.draws {
						log.draws[d]++
					}
					if refs != nil {
						log.v.add(i, out, refs[c.entry])
					} else {
						log.samples = append(log.samples, sample{i, out.sum, out.err})
					}
				}
			}
		}()
	}
	wg.Wait()
	w := &window{elapsed: time.Since(t0), draws: map[string]int{}}
	w.alloc = memStats().TotalAlloc - ms0.TotalAlloc
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	var lat []float64
	for _, log := range logs {
		w.calls += log.calls
		w.plans += log.plans
		lat = append(lat, log.lat...)
		for d, n := range log.draws {
			w.draws[d] += n
		}
		w.samples = append(w.samples, log.samples...)
		w.v.merge(log.v)
	}
	sort.Slice(w.samples, func(a, b int) bool { return w.samples[a].i < w.samples[b].i })
	w.p50, w.tail = median(lat), tailOf(lat, spec.tailCeiling)
	// The samples and digests left are the benchmark's own; drop the
	// latencies before reading the heap.
	logs, lat = nil, nil
	w.heap = liveHeap()
	return w, nil
}
