package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	sparselu "repro"
	"repro/internal/server"
)

// blockLen is the length of one block of the service's request plan:
// one factorization with new values among 32 single-RHS solves, all on
// one matrix.
const blockLen = 33

// warmupRequests is the number of requests setup sends after the
// initial factorizations, so the timed phase starts warm.
const warmupRequests = 2 * blockLen

// svcRequest is one planned request.
type svcRequest struct {
	factorize bool
	mat       int
	index     int64
}

// planRequest returns request i of the plan for seed. Blocks visit the
// matrices in a seeded order per cycle of len(matrices) blocks. The
// factorization opens its block, and the solves after it go to the
// previous factorization until it completes. Another client reaches the
// next factorization only after the block's 32 solves, so
// factorizations seldom overlap and their latency does not depend on
// where the seed would put them. The plan is a pure function of
// (seed, i), so the request order does not depend on which client sends
// what.
func planRequest(seed, stream, i int64, nmats int) svcRequest {
	block := i / blockLen
	cycle := block / int64(nmats)
	mat := rng(seed, stream, streamOrder, cycle).Perm(nmats)[block%int64(nmats)]
	return svcRequest{factorize: i%blockLen == 0, mat: mat, index: i}
}

// resident is the factorization solves of a matrix currently target:
// its id on the server and the values it was made from.
type resident struct {
	fid string
	m   *sparselu.Matrix
}

// service drives the in-process sluserver handler with closed-loop
// clients. Clients share the plan and the current factorization of
// each matrix, so concurrent solves on one factorization can be
// coalesced by the server's batcher.
type service struct {
	cfg  config
	mats []suiteMatrix
	srv  *server.Server
	h    http.Handler
	cur  []atomic.Pointer[resident]
}

// reqSample is one request's outcome: its kind and matrix, the
// client-observed latency in ms and whether it succeeded with a correct
// answer.
type reqSample struct {
	factorize bool
	mat       int
	ms        float64
	ok        bool
}

type wireMatrix struct {
	N    int       `json:"n"`
	Rows []int     `json:"rows"`
	Cols []int     `json:"cols"`
	Vals []float64 `json:"vals"`
}

func toWire(m *sparselu.Matrix) wireMatrix {
	a := m.CSC()
	w := wireMatrix{N: a.NCols}
	for j := 0; j < a.NCols; j++ {
		rows, vals := a.Col(j)
		for k, i := range rows {
			w.Rows = append(w.Rows, i)
			w.Cols = append(w.Cols, j)
			w.Vals = append(w.Vals, vals[k])
		}
	}
	return w
}

// call sends one request to the handler in-process and returns the
// status, the response body and the time the handler took.
func (s *service) call(method, path string, body any) (int, []byte, time.Duration, error) {
	var buf []byte
	if body != nil {
		var err error
		if buf, err = json.Marshal(body); err != nil {
			return 0, nil, 0, err
		}
	}
	req := httptest.NewRequest(method, path, bytes.NewReader(buf))
	rec := httptest.NewRecorder()
	start := time.Now()
	s.h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes(), time.Since(start), nil
}

// factorize sends values m of matrix mat and makes the result current.
func (s *service) factorize(mat int, m *sparselu.Matrix) reqSample {
	body := struct {
		Matrix wireMatrix `json:"matrix"`
	}{toWire(m)}
	code, resp, d, err := s.call(http.MethodPost, "/v1/factorize", body)
	out := reqSample{factorize: true, ms: ms(d)}
	var fr struct {
		FID string `json:"fid"`
	}
	if err != nil || code != http.StatusOK || json.Unmarshal(resp, &fr) != nil || fr.FID == "" {
		return out
	}
	s.cur[mat].Store(&resident{fid: fr.FID, m: m})
	out.ok = true
	return out
}

// solve sends b against the current factorization of mat and checks
// the returned x against the values that factorization was made from.
func (s *service) solve(mat int, b []float64) reqSample {
	res := s.cur[mat].Load()
	body := struct {
		FID string    `json:"fid"`
		B   []float64 `json:"b"`
	}{res.fid, b}
	code, resp, d, err := s.call(http.MethodPost, "/v1/solve", body)
	out := reqSample{ms: ms(d)}
	var sr struct {
		X []float64 `json:"x"`
	}
	if err != nil || code != http.StatusOK || json.Unmarshal(resp, &sr) != nil {
		return out
	}
	out.ok = solutionOK(res.m, sr.X, b)
	return out
}

// send runs planned request r.
func (s *service) send(stream int64, r svcRequest) reqSample {
	base := s.mats[r.mat].base
	var out reqSample
	if r.factorize {
		out = s.factorize(r.mat, perturb(base, rng(s.cfg.seed, stream, streamValues, r.index)))
	} else {
		out = s.solve(r.mat, rhs(base.NCols, rng(s.cfg.seed, stream, streamRHS, r.index)))
	}
	out.mat = r.mat
	return out
}

// drive runs the closed-loop clients over plan stream until more
// returns false for the next request index, and returns every
// request's outcome.
func (s *service) drive(stream int64, more func(i int64) bool) []reqSample {
	clients := s.cfg.procs
	var next atomic.Int64
	results := make([][]reqSample, clients)
	var wg sync.WaitGroup
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if !more(i) {
					return
				}
				results[c] = append(results[c], s.send(stream, planRequest(s.cfg.seed, stream, i, len(s.mats))))
			}
		}(c)
	}
	wg.Wait()
	var all []reqSample
	for _, rs := range results {
		all = append(all, rs...)
	}
	return all
}

// setup builds a fresh server, warms its symbolic cache with one
// analyze per matrix, makes one factorization per matrix current and
// sends the warm-up requests. The store has room for each matrix's
// current and previous factorization (a solve sent just before a
// factorization completes may still target the previous one) and two
// more, so eviction only takes factorizations no request can target.
func (s *service) setup() error {
	s.srv = server.New(server.Config{Workers: s.cfg.procs, StoreEntries: 2*len(s.mats) + 2, Seed: s.cfg.seed})
	s.h = s.srv.Handler()
	s.cur = make([]atomic.Pointer[resident], len(s.mats))
	for i, sm := range s.mats {
		body := struct {
			Matrix wireMatrix `json:"matrix"`
		}{toWire(sparselu.WrapCSC(sm.base))}
		code, resp, _, err := s.call(http.MethodPost, "/v1/analyze", body)
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("perfbench: analyze %s: status %d %s %v", sm.name, code, resp, err)
		}
		if r := s.factorize(i, perturb(sm.base, rng(s.cfg.seed, streamWarmup, streamValues, int64(-1-i)))); !r.ok {
			return fmt.Errorf("perfbench: initial factorization of %s failed", sm.name)
		}
	}
	for _, r := range s.drive(streamWarmup, func(i int64) bool { return i < warmupRequests }) {
		if !r.ok {
			return fmt.Errorf("perfbench: warm-up request failed")
		}
	}
	return nil
}

// options are the analysis options the server uses for every pattern.
func (s *service) options() *sparselu.Options {
	o := sparselu.DefaultOptions()
	o.Workers = s.cfg.procs
	return o
}

// timed runs the closed loop for d and returns the outcomes and the
// wall time until the last client finished.
func (s *service) timed(d time.Duration) ([]reqSample, float64) {
	start := time.Now()
	rs := s.drive(streamTimed, func(int64) bool { return time.Since(start) < d })
	return rs, time.Since(start).Seconds()
}

func runService(cfg config) (*report, error) {
	s := &service{cfg: cfg, mats: generate(serviceMatrices)}
	defer func() {
		if s.srv != nil {
			s.srv.Close()
		}
	}()
	rep := newReport()
	if cfg.trace {
		if err := s.setup(); err != nil {
			return nil, err
		}
		return rep, s.traced(rep)
	}
	setups, err := repeatSetup(func() error {
		if s.srv != nil {
			s.srv.Close()
			s.srv, s.h, s.cur = nil, nil, nil
		}
		runtime.GC()
		return nil
	}, s.setup)
	if err != nil {
		return nil, err
	}

	rs, elapsed := s.timed(cfg.seconds)
	// Latency samples by matrix.
	all := make([][]float64, len(s.mats))
	solves := make([][]float64, len(s.mats))
	facts := make([][]float64, len(s.mats))
	for _, r := range rs {
		rep.attempted++
		if !r.ok {
			rep.failed++
			continue
		}
		all[r.mat] = append(all[r.mat], r.ms)
		if r.factorize {
			facts[r.mat] = append(facts[r.mat], r.ms)
		} else {
			solves[r.mat] = append(solves[r.mat], r.ms)
		}
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	printLatencies("request", all)
	printLatencies("factorize", facts)
	printLatencies("solve", solves)
	rep.set("setup_s", percentile(setups, 0.5))
	rep.set("ops_per_s", float64(rep.attempted)/elapsed)
	rep.set("op_p50_ms", typical(all, 0.5))
	rep.set("solve_p50_ms", typical(solves, 0.5))
	rep.set("solve_p90_ms", typical(solves, 0.9))
	rep.set("factorize_p50_ms", typical(facts, 0.5))
	rep.set("peak_rss_mb", rss)
	return rep, nil
}

// serverMetrics is the part of the server's GET /metrics document the
// benchmark reads.
type serverMetrics struct {
	Factorize endpointMetrics `json:"factorize"`
	Solve     endpointMetrics `json:"solve"`
	Shed      int64           `json:"shed"`
	Cache     struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"symbolic_cache"`
	Batcher struct {
		Batches int64 `json:"batches"`
		RHS     int64 `json:"batched_rhs"`
	} `json:"batcher"`
	Store struct {
		Evictions int64 `json:"evictions"`
	} `json:"store"`
}

type endpointMetrics struct {
	Count     int64   `json:"count"`
	TotalSecs float64 `json:"total_secs"`
}

func parseMetrics(doc []byte) (serverMetrics, error) {
	var m serverMetrics
	if err := json.Unmarshal(doc, &m); err != nil {
		return m, fmt.Errorf("perfbench: /metrics: %w", err)
	}
	return m, nil
}

func (s *service) metrics() (serverMetrics, error) {
	code, doc, _, err := s.call(http.MethodGet, "/metrics", nil)
	if err != nil || code != http.StatusOK {
		return serverMetrics{}, fmt.Errorf("perfbench: GET /metrics: status %d %v", code, err)
	}
	return parseMetrics(doc)
}

// serverLayer turns /metrics documents read before and after a pass
// into the server's per-layer metrics. Endpoint latencies, cache and
// shedding counters are deltas over the pass. The batcher counters
// live on the stored factorizations, so the batch size is the mean
// over the factorizations resident at the end.
func serverLayer(rep *report, before, after serverMetrics) {
	mean := func(b, a endpointMetrics) float64 {
		return ratio(a.TotalSecs-b.TotalSecs, float64(a.Count-b.Count)) * 1e3
	}
	rep.set("server.solve_mean_ms", mean(before.Solve, after.Solve))
	rep.set("server.factorize_mean_ms", mean(before.Factorize, after.Factorize))
	rep.set("server.batch_rhs_mean", ratio(float64(after.Batcher.RHS), float64(after.Batcher.Batches)))
	hits := float64(after.Cache.Hits - before.Cache.Hits)
	misses := float64(after.Cache.Misses - before.Cache.Misses)
	rep.set("server.cache_hit_ratio", ratio(hits, hits+misses))
	rep.set("server.shed", float64(after.Shed-before.Shed))
	rep.set("server.store_evictions", float64(after.Store.Evictions-before.Store.Evictions))
}

// traced is the service's per-layer pass: half the time untraced as
// the reference, half with GET /metrics polled every 200 ms and read
// around the pass, then the layer probe on each served matrix with the
// server's analysis options.
func (s *service) traced(rep *report) error {
	half := s.cfg.seconds / 2
	var rt runtimeSample
	before0 := readRuntime()
	rs, refSecs := s.timed(half)
	rt.add(before0, readRuntime())
	gcFrac, allocPerOp := rt.perOp(len(rs))
	count := func(rs []reqSample) {
		for _, r := range rs {
			rep.attempted++
			if !r.ok {
				rep.failed++
			}
		}
	}
	count(rs)
	refRate := float64(len(rs)) / refSecs

	before, err := s.metrics()
	if err != nil {
		return err
	}
	stop := make(chan struct{})
	polled := make(chan error, 1)
	go func() {
		tick := time.NewTicker(200 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				polled <- nil
				return
			case <-tick.C:
				if _, err := s.metrics(); err != nil {
					polled <- err
					return
				}
			}
		}
	}()
	rs, tracedSecs := s.timed(half)
	close(stop)
	if err := <-polled; err != nil {
		return err
	}
	after, err := s.metrics()
	if err != nil {
		return err
	}
	count(rs)
	tracedRate := float64(len(rs)) / tracedSecs
	serverLayer(rep, before, after)

	l := newLayerAcc(s.cfg.procs, rep)
	for i, sm := range s.mats {
		m := perturb(sm.base, rng(s.cfg.seed, streamProbe, streamValues, int64(i)))
		b := rhs(sm.base.NCols, rng(s.cfg.seed, streamProbe, streamRHS, int64(i)))
		if _, err := l.probe(sm.name, m, b, s.options(), nil, rng(s.cfg.seed, streamProbe, int64(i))); err != nil {
			return err
		}
	}
	l.emit()
	emitRuntime(rep, gcFrac, allocPerOp, refRate/tracedRate-1)
	return nil
}
