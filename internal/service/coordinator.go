package service

// The shard pipeline behind every sharded sweep. A sweep's (widths ×
// weights) cells are mutually independent — the same argument that
// makes the paper's Table 4 grid shardable across machines — so a
// sweep splits round-robin (roundRobin) into shards that solve
// independently and reassemble into the dense weights-major order an
// in-process sweep returns. One pipeline, runShards, solves the
// missing shards of a split in parallel for both of its callers — the
// synchronous distributed POST /v1/sweep (coordinator.sweep) and
// durable jobs (jobManager.run) — and one merge, mergeShards, places
// shard s's j-th point at cell s + j·of.
// The pipeline has two branches:
//
//   - fleet: with assignable workers, each shard is posted as one
//     /v1/shard request to its home worker through runShard;
//   - local: with no fleet, each shard solves in-process on the
//     already-validated spec, holding one worker-pool slot, so jobs and
//     interactive requests share one saturation bound.
//
// Either way the merged response is byte-identical to the in-process
// one: every shard solves its cells through core.SweepOptions.Select
// (subset == full-sweep bits), float64s survive the JSON hop exactly,
// and the merge only permutes — never recomputes — the points.
//
// Worker selection goes through the fleet: shards are homed only on
// currently-assignable workers (healthy first), the shard count is
// capacity-weighted (fleet.assign), and every shard outcome feeds the
// fleet's state machine, so a worker that times out one shard becomes
// suspect for every later assignment decision, fleet-wide.
//
// Failure handling: every shard attempt runs under its own deadline
// (Options.ShardTimeout, additionally capped by the request deadline);
// a worker that errors, answers non-2xx, violates the merge contract,
// or hangs past the deadline is abandoned and the shard reassigned to
// the next-best fleet member after a short exponential backoff
// (Options.RetryBackoff), up to Options.ShardAttempts distinct
// attempts. A shard that exhausts its attempts fails the sweep with a
// 502 carrying every attempt's WorkerFailure, shard-major and in
// attempt order within a shard.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"

	"mixsoc/internal/core"
)

// maxWorkerErrorBytes bounds how much of a worker's error body the
// coordinator reads back into a WorkerFailure.
const maxWorkerErrorBytes = 4 << 10

// shardReplyAllowancePerCell sizes the coordinator's read bound on a
// worker's shard reply: a solved grid point marshals to a few KB
// (dominated by the per-module wrapper assignments), so 16 KiB per
// requested cell on top of the MaxRequestBytes floor admits every
// legitimate reply while still bounding a misbehaving worker to a few
// tens of MB on the largest permissible grids.
const shardReplyAllowancePerCell = 16 << 10

// shardReplyLimit is the most bytes the coordinator will read of a
// reply carrying `cells` grid points before abandoning the worker —
// the fan-in mirror of the service's own MaxRequestBytes request cap,
// so a worker cannot balloon the coordinator's memory.
func shardReplyLimit(cells int) int64 {
	return int64(MaxRequestBytes) + int64(cells)*shardReplyAllowancePerCell
}

// retryBackoffCap bounds the doubling retry backoff at this many times
// the base Options.RetryBackoff.
const retryBackoffCap = 8

// newFleetTransport builds the one tuned http.Transport the fleet's
// probes and the coordinator's shard fan-out share: connection reuse
// sized for a whole sweep's fan-out (a large sweep re-posts to the same
// few workers hundreds of times; re-dialing each attempt would melt the
// gain of distribution) and bounded dial/TLS handshake waits so a
// black-holed worker costs a deadline, not a hung file descriptor.
func newFleetTransport() *http.Transport {
	return &http.Transport{
		Proxy: http.ProxyFromEnvironment,
		DialContext: (&net.Dialer{
			Timeout:   5 * time.Second,
			KeepAlive: 30 * time.Second,
		}).DialContext,
		TLSHandshakeTimeout:   5 * time.Second,
		ExpectContinueTimeout: 1 * time.Second,
		MaxIdleConns:          256,
		MaxIdleConnsPerHost:   64, // ≥ any realistic per-worker shard fan-out
		IdleConnTimeout:       90 * time.Second,
	}
}

// coordinator runs the shard pipeline: it fans shards out to the
// server's fleet, or solves them on the server's own pool when the
// fleet is empty.
type coordinator struct {
	srv          *Server // the fleet, metrics, pool and engine shards run on
	client       *http.Client
	shardTimeout time.Duration
	attempts     int           // max distinct attempts per shard; 0 = every current member
	retryBackoff time.Duration // base backoff between a shard's attempts

	// sleep waits between shard attempts; replaced in tests with a
	// recording no-op so retry tests stay fast and deterministic.
	sleep func(ctx context.Context, d time.Duration) error
}

// newCoordinator builds the coordinator over the server's fleet; the
// server owns one even when the fleet starts empty, so workers
// hot-added through POST /v1/workers turn a standalone server into a
// coordinator without a restart.
func newCoordinator(opts Options, s *Server, client *http.Client) *coordinator {
	shardTimeout := opts.ShardTimeout
	if shardTimeout <= 0 {
		shardTimeout = 60 * time.Second
	}
	retryBackoff := opts.RetryBackoff
	if retryBackoff <= 0 {
		retryBackoff = 250 * time.Millisecond
	}
	return &coordinator{
		srv:          s,
		client:       client, // per-attempt contexts carry the deadlines
		shardTimeout: shardTimeout,
		attempts:     max(0, opts.ShardAttempts),
		retryBackoff: retryBackoff,
		sleep:        sleepCtx,
	}
}

// sleepCtx sleeps for d or until ctx fires, returning ctx's error in
// the latter case.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// distributedSweepError reports a sweep the coordinator could not
// complete, carrying every failed shard attempt; the handler maps it to
// 502 with the failures in the response body.
type distributedSweepError struct {
	Failures []WorkerFailure
}

func (e *distributedSweepError) Error() string {
	shards := map[int]bool{}
	for _, f := range e.Failures {
		shards[f.Shard] = true
	}
	return fmt.Sprintf("service: distributed sweep failed: %d shard(s) unrecoverable after %d failed attempt(s)",
		len(shards), len(e.Failures))
}

// sweep answers a /v1/sweep by running every shard through the
// pipeline on the fleet's assignable workers and merging the partials;
// the result is byte-identical to the in-process sweep for the same
// spec. ok=false (with no error) means the fleet is empty and the
// caller should sweep in-process.
func (c *coordinator) sweep(ctx context.Context, sp *sweepSpec) (resp *SweepResponse, ok bool, err error) {
	homes, ok := c.srv.fleet.assign(sp.cells())
	if !ok {
		return nil, false, nil
	}
	parts := make([]*ShardResponse, len(homes))
	failures, err := c.runShards(ctx, sp, len(homes), homes,
		func(int) bool { return false },
		func(shard int, part *ShardResponse) { parts[shard] = part })
	if err != nil {
		// The request itself died (deadline or client abort); report
		// that, not a worker failure.
		return nil, true, err
	}
	if slices.Contains(parts, nil) {
		return nil, true, &distributedSweepError{Failures: failures}
	}
	return mergeShards(sp, parts), true, nil
}

// runShards is the shard pipeline: it solves, in parallel, every shard
// of the of-way split that done does not report as solved, and hands
// each partial to onShard as it lands (concurrently for different
// shards). With homes (fleet.assign's output) shard s runs on the fleet
// through runShard, homed on homes[s%len(homes)]; without, it solves
// in-process through solveLocal. It returns once every started shard
// has finished: the failures shard-major, each shard's in attempt
// order, and ctx's error when the context ended any shard.
func (c *coordinator) runShards(ctx context.Context, sp *sweepSpec, of int, homes []string, done func(shard int) bool, onShard func(shard int, resp *ShardResponse)) ([]WorkerFailure, error) {
	// One slot per shard keeps the order deterministic without a lock.
	failures := make([][]WorkerFailure, of)
	aborted := make([]bool, of)
	var wg sync.WaitGroup
	for shard := 0; shard < of; shard++ {
		if done(shard) {
			continue
		}
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			var resp *ShardResponse
			var err error
			if len(homes) > 0 {
				resp, failures[shard], err = c.runShard(ctx, sp, shard, of, homes[shard%len(homes)])
			} else {
				resp, err = c.srv.solveLocal(ctx, sp, shard, of, 0)
			}
			switch {
			case resp != nil:
				onShard(shard, resp)
			case err != nil && ctx.Err() != nil:
				aborted[shard] = true
			case err != nil:
				failures[shard] = append(failures[shard], WorkerFailure{Shard: shard, Error: err.Error()})
			}
		}(shard)
	}
	wg.Wait()

	all := slices.Concat(failures...)
	if slices.Contains(aborted, true) {
		return all, ctx.Err()
	}
	return all, nil
}

// mergeShards places a complete split's partials into the dense
// weights-major point list: shard s owns dense cells s, s+of, s+2·of, …
// in order, so the j-th point of shard s lands at cell s + j·of.
// Placement is all that happens here — a fleet partial already passed
// verifyShardPartial in post (a contract-violating worker was
// reassigned like any other failure), a checkpoint passed it at
// recovery, and a local partial was solved on the spec itself.
func mergeShards(sp *sweepSpec, parts []*ShardResponse) *SweepResponse {
	points := make([]core.SweepPoint, sp.cells())
	for shard, part := range parts {
		for j, pt := range part.Points {
			points[shard+j*len(parts)] = pt
		}
	}
	return &SweepResponse{DesignHash: sp.hash, Points: points}
}

// runShard computes one shard on the fleet: the home worker gets the
// first attempt, and each failure reassigns the shard to the next-best
// untried member (fleet.nextWorker — freshly consulted per attempt, so
// evictions and hot-adds during the sweep steer the retries) after an
// exponentially growing backoff. Every outcome feeds the fleet's state
// machine. The returned error is non-nil only when the *request*
// context died; per-worker problems come back as WorkerFailures with a
// nil response.
func (c *coordinator) runShard(ctx context.Context, sp *sweepSpec, shard, of int, home string) (*ShardResponse, []WorkerFailure, error) {
	want, err := roundRobin(sp.cells(), shard, of)
	if err != nil {
		return nil, nil, err
	}
	body, err := json.Marshal(ShardRequest{
		Design:     sp.req.Design,
		SOC:        sp.req.SOC,
		Benchmark:  sp.req.Benchmark,
		Widths:     sp.req.Widths,
		WTs:        sp.req.WTs,
		Exhaustive: sp.req.Exhaustive,
		Bounded:    sp.req.Bounded,
		Backend:    sp.req.Backend,
		Shard:      shard,
		Of:         of,
	})
	if err != nil {
		return nil, nil, err
	}

	// attempts == 0 means "every current member once": the loop runs
	// until nextWorker exhausts the membership, re-checked per attempt —
	// so a worker hot-added while this shard's first attempt hangs still
	// widens the retry budget and can rescue the shard.
	tried := map[string]bool{}
	var failures []WorkerFailure
	for attempt := 0; c.attempts == 0 || attempt < c.attempts; attempt++ {
		worker := c.srv.fleet.nextWorker(home, tried)
		if worker == "" {
			break // every current member tried
		}
		tried[worker] = true
		if attempt > 0 {
			backoff := c.retryBackoff << min(attempt-1, retryBackoffCap)
			if err := c.sleep(ctx, backoff); err != nil {
				return nil, failures, err
			}
		}
		resp, failure := c.post(ctx, worker, shard, of, body, sp, want)
		if failure == nil {
			c.srv.fleet.reportSuccess(worker, 0)
			return resp, failures, nil
		}
		c.srv.fleet.reportFailure(worker, failure.Error)
		failures = append(failures, *failure)
		if ctx.Err() != nil {
			// The request deadline (or the client) killed the sweep;
			// reassignment cannot help.
			return nil, failures, ctx.Err()
		}
	}
	return nil, failures, nil
}

// post runs one shard attempt against one worker under the per-shard
// deadline and validates the partial against the whole merge contract
// — matching design hash, shard geometry, point count, and every
// point's grid coordinate (want holds the shard's dense cell indices)
// — so a contract violation is an ordinary worker failure the caller
// reassigns, with the drifted worker named in the detail.
func (c *coordinator) post(ctx context.Context, worker string, shard, of int, body []byte, sp *sweepSpec, want []int) (*ShardResponse, *WorkerFailure) {
	start := time.Now()
	fail := func(result, format string, args ...any) *WorkerFailure {
		c.srv.metrics.observeShard(worker, result, time.Since(start))
		return &WorkerFailure{Worker: worker, Shard: shard, Error: fmt.Sprintf(format, args...)}
	}

	attemptCtx, cancel := context.WithTimeout(ctx, c.shardTimeout)
	defer cancel()
	httpReq, err := http.NewRequestWithContext(attemptCtx, http.MethodPost, worker+"/v1/shard", bytes.NewReader(body))
	if err != nil {
		return nil, fail(shardResultError, "building request: %v", err)
	}
	httpReq.Header.Set("Content-Type", "application/json")
	httpResp, err := c.client.Do(httpReq)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
			return nil, fail(shardResultTimeout, "shard deadline (%s) exceeded", c.shardTimeout)
		}
		return nil, fail(shardResultError, "post: %v", err)
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(httpResp.Body, maxWorkerErrorBytes))
		return nil, fail(shardResultError, "status %d: %s", httpResp.StatusCode, strings.TrimSpace(string(msg)))
	}
	// Bound the reply read (the fan-in mirror of MaxRequestBytes): a
	// worker streaming more than the shard could legitimately weigh is
	// cut off mid-value, which surfaces here as a decode error and an
	// ordinary reassignable failure — never an unbounded read.
	var resp ShardResponse
	if err := json.NewDecoder(io.LimitReader(httpResp.Body, shardReplyLimit(len(want)))).Decode(&resp); err != nil {
		return nil, fail(shardResultError, "decoding partial (replies are capped at %d bytes): %v", shardReplyLimit(len(want)), err)
	}
	if err := verifyShardPartial(sp, shard, of, want, &resp); err != nil {
		return nil, fail(shardResultError, "%v", err)
	}
	c.srv.metrics.observeShard(worker, shardResultOK, time.Since(start))
	return &resp, nil
}

// verifyShardPartial is the merge contract every shard partial must
// pass before anyone trusts it, live or persisted: the design hash the
// worker computed matches the coordinator's, the shard geometry and
// point count match the round-robin slice (want holds the shard's
// dense cell indices), and every point sits on its expected grid
// coordinate. coordinator.post applies it to worker replies; job
// recovery applies the identical check to checkpoints read back from
// disk.
func verifyShardPartial(sp *sweepSpec, shard, of int, want []int, resp *ShardResponse) error {
	switch {
	case resp.DesignHash != sp.hash:
		return fmt.Errorf("merge conflict: worker hashed the design %s, coordinator %s", resp.DesignHash, sp.hash)
	case resp.Shard != shard || resp.Of != of || len(resp.Points) != len(want):
		return fmt.Errorf("merge conflict: got shard %d/%d with %d points, want shard %d with %d",
			resp.Shard, resp.Of, len(resp.Points), shard, len(want))
	}
	for j, pt := range resp.Points {
		i := want[j]
		wantW := sp.req.Widths[i%len(sp.req.Widths)]
		wantWt := sp.weights[i/len(sp.req.Widths)]
		if pt.Width != wantW || pt.Weights != wantWt {
			return fmt.Errorf("merge conflict: point %d is (W=%d, wT=%v), want (W=%d, wT=%v)",
				j, pt.Width, pt.Weights.Time, wantW, wantWt.Time)
		}
	}
	return nil
}
