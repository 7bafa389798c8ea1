package main

// The correctness gate. Every response is compared with the reference
// bytes the in-process exported path (Server.Plan, Batch or Sweep, then
// service.WriteJSON) gives for the same request body on a fresh server,
// computed outside the timed window. The HTTP window keeps only a
// digest of each body.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"mixsoc/internal/core"
	"mixsoc/internal/service"
)

// exported runs request r through the server's exported path. It returns
// the response value, the core.Result of each plan in it (batch items
// and sweep cells in response order, nil for a failed item) and the
// number of failed batch items.
func exported(ctx context.Context, srv *service.Server, r request) (resp any, results []*core.Result, failedItems int, err error) {
	switch r.kind {
	case kindPlan:
		req, err := decode[service.PlanRequest](r.body)
		if err != nil {
			return nil, nil, 0, err
		}
		resp, err := srv.Plan(ctx, req)
		if err != nil {
			return nil, nil, 0, err
		}
		return resp, []*core.Result{resp.Result}, 0, nil
	case kindBatch:
		req, err := decode[service.BatchRequest](r.body)
		if err != nil {
			return nil, nil, 0, err
		}
		resp, err := srv.Batch(ctx, req)
		if err != nil {
			return nil, nil, 0, err
		}
		for _, it := range resp.Items {
			if it.Status != http.StatusOK {
				failedItems++
				results = append(results, nil)
				continue
			}
			results = append(results, it.Response.Result)
		}
		return resp, results, failedItems, nil
	case kindSweep, kindJob:
		req, err := decode[service.SweepRequest](r.body)
		if err != nil {
			return nil, nil, 0, err
		}
		resp, err := srv.Sweep(ctx, req)
		if err != nil {
			return nil, nil, 0, err
		}
		for _, p := range resp.Points {
			results = append(results, p.Result)
		}
		return resp, results, 0, nil
	}
	return nil, nil, 0, fmt.Errorf("unknown request kind %d", r.kind)
}

// decode parses a request body the way the server's handlers do.
func decode[T any](body []byte) (T, error) {
	var req T
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}

// reference is the expected answer to one call.
type reference struct {
	sum         [sha256.Size]byte
	body        []byte    // the reference bytes; verify keeps only the first call's
	costs       []float64 // Best.Cost of each delivered plan
	failedItems int
	err         error
}

// referenceOf computes c's reference on srv: the exported path's
// bytes for each request, concatenated in order.
func referenceOf(srv *service.Server, c call) reference {
	var buf bytes.Buffer
	var ref reference
	for _, r := range c.reqs {
		resp, results, failed, err := exported(context.Background(), srv, r)
		if err != nil {
			return reference{err: err}
		}
		if err := service.WriteJSON(&buf, resp); err != nil {
			return reference{err: err}
		}
		ref.failedItems += failed
		for _, res := range results {
			if res != nil {
				ref.costs = append(ref.costs, res.Best.Cost)
			}
		}
	}
	ref.body = buf.Bytes()
	ref.sum = sha256.Sum256(ref.body)
	return ref
}

// failed reports whether a call counts as failed: a transport error or
// unexpected status, a reference the exported path could not compute,
// a failed batch item, or response bytes that differ from the
// reference.
func failed(out outcome, ref reference) bool {
	return out.err != nil || ref.err != nil || ref.failedItems > 0 || out.sum != ref.sum
}

// verdict is the gate's count over a window.
type verdict struct {
	failed   int
	costSum  float64 // Best.Cost over the plans of the calls that passed
	costN    int
	firstErr error
}

// add counts call i's outcome against its reference.
func (v *verdict) add(i int, out outcome, ref reference) {
	if !failed(out, ref) {
		for _, c := range ref.costs {
			v.costSum += c
		}
		v.costN += len(ref.costs)
		return
	}
	v.failed++
	if v.firstErr != nil {
		return
	}
	switch {
	case out.err != nil:
		v.firstErr = fmt.Errorf("call %d: %w", i, out.err)
	case ref.err != nil:
		v.firstErr = fmt.Errorf("call %d: reference: %w", i, ref.err)
	case ref.failedItems > 0:
		v.firstErr = fmt.Errorf("call %d: %d batch items failed", i, ref.failedItems)
	default:
		v.firstErr = fmt.Errorf("call %d: response bytes differ from the exported path's", i)
	}
}

func (v *verdict) merge(o verdict) {
	v.failed += o.failed
	v.costSum += o.costSum
	v.costN += o.costN
	if v.firstErr == nil {
		v.firstErr = o.firstErr
	}
}

// verifyWorkers compute references in parallel, one per CPU of the
// 2-CPU machines the benchmark is sized for.
const verifyWorkers = 2

// verify completes w's verdict: each call left as a sample is rebuilt
// from its stream index and its reference computed on a fresh server
// by verifyWorkers goroutines. It also runs the gate's self-test on the
// first reference body at hand. refs are plan-hot's precomputed
// references, nil for the other workloads.
func verify(w *window, g generator, refs []reference) (verdict, bool, error) {
	got := make([]reference, len(w.samples))
	if len(w.samples) > 0 {
		srv := service.New(service.Options{})
		defer srv.Close()
		var (
			wg     sync.WaitGroup
			mu     sync.Mutex
			genErr error
			next   = make(chan int)
		)
		for k := 0; k < verifyWorkers; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := range next {
					c, err := g.call(w.samples[k].i)
					if err != nil {
						mu.Lock()
						genErr = err
						mu.Unlock()
						continue
					}
					got[k] = referenceOf(srv, c)
					if k > 0 {
						got[k].body = nil
					}
				}
			}()
		}
		for k := range w.samples {
			next <- k
		}
		close(next)
		wg.Wait()
		if genErr != nil {
			return verdict{}, false, genErr
		}
	}
	v := w.v
	for k, s := range w.samples {
		v.add(s.i, outcome{sum: s.sum, err: s.err}, got[k])
	}
	var body []byte
	switch {
	case len(got) > 0:
		body = got[0].body
	case len(refs) > 0:
		body = refs[0].body
	}
	return v, selfTest(body), nil
}

// selfTest feeds the gate one response whose bytes differ from the
// reference by a single flipped bit, and the true bytes, and reports
// whether it counted exactly the corrupted one.
func selfTest(body []byte) bool {
	if len(body) == 0 {
		return false
	}
	ref := reference{sum: sha256.Sum256(body)}
	corrupt := append([]byte(nil), body...)
	corrupt[len(corrupt)/2] ^= 1
	var v verdict
	v.add(0, outcome{sum: sha256.Sum256(corrupt)}, ref)
	v.add(1, outcome{sum: sha256.Sum256(body)}, ref)
	return v.failed == 1 && v.firstErr != nil
}
