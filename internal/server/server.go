// Package server implements sluserver's HTTP core: a fault-tolerant,
// long-lived sparse LU solve service built on the repository's static
// symbolic pipeline. The service exists because the paper's central
// economics — analyze once, factorize and solve many times against the
// same pattern — only pay off in a process that outlives a single
// solve. The server makes that lifetime explicit:
//
//   - POST /v1/analyze   — run (or reuse) the symbolic analysis of a
//     matrix pattern; cached in a bounded LRU keyed by pattern hash.
//   - POST /v1/factorize — numeric factorization against the cached
//     Symbolic, climbing a recovery ladder (fail → perturb →
//     equilibrate+perturb) with every rung recorded in the response.
//   - POST /v1/solve     — solves against a stored factorization;
//     concurrent single-RHS solves are coalesced into blocked BLAS-3
//     multi-RHS panels, bitwise identical to solving alone.
//   - GET /healthz, /readyz, /metrics — liveness, readiness (503 while
//     draining) and a JSON counter document.
//
// Error taxonomy → status mapping (the luerr classes):
//
//	400 malformed request (JSON, shape, indices, unknown policy)
//	404 unknown factorization id
//	413 matrix exceeds the memory budget or body limit
//	422 luerr.ErrSingular, luerr.ErrNonFinite — well-formed input the
//	    numeric pipeline cannot factor; recovery rungs attached
//	429 shed by admission control; jittered Retry-After attached
//	499 luerr.ErrCanceled — client disconnected mid-request
//	500 internal failure (including recovered handler panics)
//	503 server draining
//	504 luerr.ErrDeadline — per-request deadline expired
//
// Every request is admitted through a bounded queue, bounded in time
// by a deadline threaded from the HTTP request context into the
// numeric kernels via sched.Canceler, and isolated: a panic in one
// request's handler is recovered, counted and answered with 500
// without taking the process down.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/luerr"
	"repro/internal/sched"
	"repro/internal/sparse"
)

// Config tunes the service. The zero value is usable: every field has
// a production default applied by New.
type Config struct {
	// CacheEntries bounds the symbolic LRU (default 32 patterns).
	CacheEntries int
	// StoreEntries bounds the factorization store (default 64).
	StoreEntries int
	// MaxInFlight is the number of concurrently computing requests
	// (default GOMAXPROCS).
	MaxInFlight int
	// MaxQueue is the number of requests allowed to wait for a compute
	// slot before admission sheds with 429 (default 4×MaxInFlight).
	MaxQueue int
	// MemoryBudget caps the approximate retained bytes of stored
	// factorizations (default 2 GiB). Exceeding it evicts LRU handles;
	// a single factorization larger than the budget is refused with 413.
	MemoryBudget int64
	// MaxBodyBytes caps request bodies (default 64 MiB).
	MaxBodyBytes int64
	// DefaultDeadline bounds requests that do not set timeout_ms
	// (default 30s); MaxDeadline caps what timeout_ms may ask for
	// (default 2m).
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// Workers and SolveWorkers size the numeric and triangular-solve
	// parallelism per request (defaults: GOMAXPROCS capped at 8, and
	// Workers).
	Workers      int
	SolveWorkers int
	// BatchWindow and BatchMax shape solve coalescing: a single-RHS
	// solve waits at most BatchWindow for peers, and a batch flushes
	// early at BatchMax right-hand sides (defaults 2ms, 16).
	BatchWindow time.Duration
	BatchMax    int
	// Seed drives the jittered Retry-After; fixed so chaos runs replay.
	Seed int64
	// Faults optionally injects deterministic request-level faults
	// (see faultinject.RequestPlan); nil in production.
	Faults *faultinject.RequestPlan
}

func (c Config) withDefaults() Config {
	if c.CacheEntries <= 0 {
		c.CacheEntries = 32
	}
	if c.StoreEntries <= 0 {
		c.StoreEntries = 64
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxInFlight
	}
	if c.MemoryBudget <= 0 {
		c.MemoryBudget = 2 << 30
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 30 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 2 * time.Minute
	}
	if c.Workers <= 0 {
		c.Workers = min(runtime.GOMAXPROCS(0), 8)
	}
	if c.SolveWorkers <= 0 {
		c.SolveWorkers = c.Workers
	}
	if c.BatchWindow <= 0 {
		c.BatchWindow = 2 * time.Millisecond
	}
	if c.BatchMax <= 0 {
		c.BatchMax = 16
	}
	return c
}

// handle is one stored factorization: the immutable Symbolic it was
// built on (shared with the cache), the numeric factors, the matrix
// (kept for residuals and refinement), and the solve batcher.
type handle struct {
	id       string
	key      string
	sym      *core.Symbolic
	m        *sparse.CSC
	res      *ladderResult
	bt       *batcher
	bytes    int64
	lastUsed int64 // LRU clock tick; guarded by Server.mu
}

// Server is the HTTP core. Create with New, mount via Handler, stop
// with Close.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	cache *symCache
	adm   *admission
	met   *metrics

	mu          sync.Mutex
	store       map[string]*handle
	storeBytes  int64
	clock       int64
	nextID      atomic.Int64
	draining    atomic.Bool
	evictions   atomic.Int64
	analysisOpt *core.Options
}

// New builds a server with cfg (zero fields defaulted).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	opts := core.DefaultOptions()
	opts.Workers = cfg.Workers
	opts.SolveWorkers = cfg.SolveWorkers
	s := &Server{
		cfg:         cfg,
		cache:       newSymCache(cfg.CacheEntries),
		adm:         newAdmission(cfg.MaxInFlight, cfg.MaxQueue, cfg.Seed),
		met:         newMetrics(time.Now()),
		store:       make(map[string]*handle),
		analysisOpt: opts,
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/analyze", s.wrap(epAnalyze, s.handleAnalyze))
	mux.HandleFunc("POST /v1/factorize", s.wrap(epFactorize, s.handleFactorize))
	mux.HandleFunc("POST /v1/solve", s.wrap(epSolve, s.handleSolve))
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux = mux
	return s
}

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// Close drains the server: readiness flips to 503, new compute
// requests are refused, pending solve batches are flushed. Safe to
// call more than once.
func (s *Server) Close() {
	s.draining.Store(true)
	s.mu.Lock()
	handles := make([]*handle, 0, len(s.store))
	for _, h := range s.store {
		handles = append(handles, h)
	}
	s.mu.Unlock()
	for _, h := range handles {
		h.bt.close()
	}
}

// ---- wire types ----

type matrixJSON struct {
	N    int       `json:"n"`
	Rows []int     `json:"rows"`
	Cols []int     `json:"cols"`
	Vals []float64 `json:"vals"`
}

type analyzeRequest struct {
	Matrix    matrixJSON `json:"matrix"`
	TimeoutMS int64      `json:"timeout_ms"`
}

type statsJSON struct {
	N          int     `json:"n"`
	NNZA       int     `json:"nnz_a"`
	NNZFactors int     `json:"nnz_factors"`
	FillRatio  float64 `json:"fill_ratio"`
	Supernodes int     `json:"supernodes"`
	Blocks     int     `json:"blocks"`
	Tasks      int     `json:"tasks"`
}

type analyzeResponse struct {
	Key    string    `json:"key"`
	Cached bool      `json:"cached"`
	Stats  statsJSON `json:"stats"`
}

type factorizeRequest struct {
	Matrix    matrixJSON `json:"matrix"`
	Policy    string     `json:"policy"` // "", "ladder", "fail", "perturb"
	TimeoutMS int64      `json:"timeout_ms"`
}

type factorizeResponse struct {
	FID            string       `json:"fid"`
	Key            string       `json:"key"`
	SymbolicCached bool         `json:"symbolic_cached"`
	Rungs          []RungReport `json:"rungs"`
	Rung           string       `json:"rung"`
	Refine         bool         `json:"refine"`
	Perturbations  int          `json:"perturbations"`
}

type solveRequest struct {
	FID       string      `json:"fid"`
	B         []float64   `json:"b,omitempty"`
	BS        [][]float64 `json:"bs,omitempty"`
	Refine    bool        `json:"refine,omitempty"`
	TimeoutMS int64       `json:"timeout_ms"`
}

type solveResponse struct {
	X           []float64   `json:"x,omitempty"`
	XS          [][]float64 `json:"xs,omitempty"`
	Residual    float64     `json:"residual,omitempty"`
	Residuals   []float64   `json:"residuals,omitempty"`
	RefineSteps int         `json:"refine_steps,omitempty"`
	Rung        string      `json:"rung"`
}

type errorResponse struct {
	Error      string       `json:"error"`
	Code       string       `json:"code"`
	Rungs      []RungReport `json:"rungs,omitempty"`
	RetryAfter int          `json:"retry_after_secs,omitempty"`
}

// httpError is a handler failure with its transport mapping attached.
type httpError struct {
	status     int
	code       string
	msg        string
	rungs      []RungReport
	retryAfter int
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) *httpError {
	return &httpError{status: http.StatusBadRequest, code: "bad_request", msg: fmt.Sprintf(format, args...)}
}

// statusClientClosedRequest is nginx's conventional code for "client
// went away"; Go has no named constant for it.
const statusClientClosedRequest = 499

// mapError translates the unified error taxonomy into transport terms.
// Order matters twice: the deadline class is checked before the
// general cancellation class (a deadline-canceled execution matches
// both, and 504 is the more specific answer), and the numeric classes
// come before cancellation too — a failing task cancels the rest of
// its execution, so the error a poisoned factorization surfaces is a
// CancelError whose *cause* is the non-finite failure, and the cause
// is the answer.
func (s *Server) mapError(err error) *httpError {
	var he *httpError
	if errors.As(err, &he) {
		return he
	}
	switch {
	case errors.Is(err, luerr.ErrDeadline) || errors.Is(err, context.DeadlineExceeded):
		s.met.deadline.Add(1)
		return &httpError{status: http.StatusGatewayTimeout, code: "deadline", msg: err.Error()}
	case errors.Is(err, luerr.ErrSingular):
		s.met.singular.Add(1)
		return &httpError{status: http.StatusUnprocessableEntity, code: "singular", msg: err.Error()}
	case errors.Is(err, luerr.ErrNonFinite):
		s.met.nonFinite.Add(1)
		return &httpError{status: http.StatusUnprocessableEntity, code: "non_finite", msg: err.Error()}
	case errors.Is(err, luerr.ErrCanceled) || errors.Is(err, context.Canceled):
		s.met.canceled.Add(1)
		return &httpError{status: statusClientClosedRequest, code: "canceled", msg: err.Error()}
	case errors.Is(err, errShed):
		s.met.shed.Add(1)
		return &httpError{status: http.StatusTooManyRequests, code: "shed", msg: err.Error(), retryAfter: s.adm.retryAfterSecs()}
	case errors.Is(err, errBatcherClosed):
		return &httpError{status: http.StatusServiceUnavailable, code: "draining", msg: err.Error()}
	}
	return &httpError{status: http.StatusInternalServerError, code: "internal", msg: err.Error()}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	// Best effort: the client may already be gone on 499.
	_ = enc.Encode(v)
}

func (s *Server) writeError(w http.ResponseWriter, he *httpError) {
	if he.retryAfter > 0 {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", he.retryAfter))
	}
	writeJSON(w, he.status, errorResponse{Error: he.msg, Code: he.code, Rungs: he.rungs, RetryAfter: he.retryAfter})
}

// ---- request plumbing ----

// wrap is the middleware chain of the compute endpoints: panic
// isolation, drain check, deterministic fault injection, latency
// metrics, admission control and the MaxDeadline backstop context.
func (s *Server) wrap(ep endpoint, h func(w http.ResponseWriter, r *http.Request, fault faultinject.Fault) *httpError) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.met.inflight.Add(1)
		failed := false
		defer func() {
			if p := recover(); p != nil {
				s.met.panics.Add(1)
				failed = true
				s.writeError(w, &httpError{
					status: http.StatusInternalServerError,
					code:   "internal",
					msg:    fmt.Sprintf("server: request panicked: %v", p),
				})
			}
			s.met.inflight.Add(-1)
			s.met.endpoints[ep].observe(time.Since(start), failed)
		}()
		if s.draining.Load() {
			failed = true
			s.writeError(w, &httpError{status: http.StatusServiceUnavailable, code: "draining", msg: "server: draining"})
			return
		}
		seq, fault := s.cfg.Faults.Claim()
		if fault.Mode != faultinject.None {
			s.met.faults.Add(1)
		}
		switch fault.Mode {
		case faultinject.Panic:
			panic(fmt.Sprintf("server: injected fault on request %d: %v", seq, faultinject.ErrInjected))
		case faultinject.Error:
			failed = true
			s.writeError(w, &httpError{
				status: http.StatusInternalServerError,
				code:   "internal",
				msg:    fmt.Sprintf("server: injected fault on request %d: %v", seq, faultinject.ErrInjected),
			})
			return
		case faultinject.Delay:
			time.Sleep(fault.Sleep)
		}
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.MaxDeadline)
		defer cancel()
		release, err := s.adm.acquire(ctx)
		if err != nil {
			failed = true
			s.writeError(w, s.mapError(err))
			return
		}
		defer release()
		if he := h(w, r.WithContext(ctx), fault); he != nil {
			failed = true
			s.writeError(w, he)
		}
	}
}

// deadlineCtx tightens the backstop context to the request's own
// deadline (timeout_ms, capped at MaxDeadline; DefaultDeadline when
// unset) and binds a sched.Canceler to it, so the HTTP layer's
// cancellation reaches the numeric kernels' per-task polling. The
// canceler's cause distinguishes deadline expiry from client
// disconnect, which is what keeps 504 and 499 apart.
func (s *Server) deadlineCtx(r *http.Request, timeoutMS int64) (context.Context, *sched.Canceler, func()) {
	d := s.cfg.DefaultDeadline
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
		if d > s.cfg.MaxDeadline {
			d = s.cfg.MaxDeadline
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	cc := &sched.Canceler{}
	stopAF := context.AfterFunc(ctx, func() {
		cause := context.Cause(ctx)
		if errors.Is(cause, context.DeadlineExceeded) {
			cc.Cancel(core.ErrDeadlineExceeded)
		} else {
			cc.Cancel(sched.ErrCanceled)
		}
	})
	return ctx, cc, func() { stopAF(); cancel() }
}

// numOpts is the per-request numeric state handed to the core layer.
func (s *Server) numOpts(cc *sched.Canceler) core.NumericOptions {
	return core.NumericOptions{
		Workers:      s.cfg.Workers,
		SolveWorkers: s.cfg.SolveWorkers,
		Cancel:       cc,
	}
}

// parseMatrix validates and assembles a triplet payload. Out-of-range
// indices are a 400 here, not a panic in sparse.Triplet.Add.
func parseMatrix(mj *matrixJSON, fault faultinject.Fault) (*sparse.CSC, *httpError) {
	if mj.N <= 0 {
		return nil, badRequest("server: matrix order must be positive, got %d", mj.N)
	}
	if len(mj.Rows) != len(mj.Cols) || len(mj.Rows) != len(mj.Vals) {
		return nil, badRequest("server: rows/cols/vals lengths differ: %d/%d/%d", len(mj.Rows), len(mj.Cols), len(mj.Vals))
	}
	if len(mj.Rows) == 0 {
		return nil, badRequest("server: matrix has no entries")
	}
	if fault.Mode == faultinject.PoisonNaN {
		// Deterministic input corruption: the numeric layer's
		// non-finite guards must catch it and answer 422.
		mj.Vals[0] = math.NaN()
	}
	t := sparse.NewTriplet(mj.N, mj.N)
	for k := range mj.Rows {
		i, j := mj.Rows[k], mj.Cols[k]
		if i < 0 || i >= mj.N || j < 0 || j >= mj.N {
			return nil, badRequest("server: entry %d at (%d,%d) outside %d×%d", k, i, j, mj.N, mj.N)
		}
		t.Add(i, j, mj.Vals[k])
	}
	return t.ToCSC(), nil
}

func decodeBody(r *http.Request, v any) *httpError {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return &httpError{status: http.StatusRequestEntityTooLarge, code: "too_large",
				msg: fmt.Sprintf("server: request body exceeds %d bytes", tooLarge.Limit)}
		}
		return badRequest("server: bad request body: %v", err)
	}
	return nil
}

// checkFinite guards solve outputs before they are encoded: a NaN/Inf
// in x means the inputs were poisoned (the factors are finite by
// construction), and the answer is the non-finite class, not a silently
// wrong vector. The reported backward error is checked too — it is NaN
// for a poisoned x or b and may overflow — since JSON cannot encode
// either.
func checkFinite(x []float64, residual float64) error {
	if math.IsNaN(residual) || math.IsInf(residual, 0) {
		return fmt.Errorf("server: non-finite backward error: %w", core.ErrNonFinite)
	}
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("server: non-finite entry in solution: %w", core.ErrNonFinite)
		}
	}
	return nil
}

// analyzeFor produces the Symbolic for a pattern the cache does not
// hold. When a resident analysis of the same order exists, the miss is
// routed through core.Reanalyze: a near-identical pattern re-eliminates
// only the changed column-etree subtrees of the resident checkpoint
// (reported as reused, counted as a reanalyze); identical patterns
// cannot reach here because the cache key is the same PatternHash that
// Reanalyze compares. Failed or too-large deltas fall back to a full
// pipeline inside Reanalyze and count as ordinary analyzes.
func (s *Server) analyzeFor(m *sparse.CSC) (*core.Symbolic, bool, error) {
	if prev := s.cache.recent(m.NCols); prev != nil {
		sym, level, err := core.Reanalyze(prev, m)
		return sym, level == core.ReuseDelta, err
	}
	sym, err := core.Analyze(m, s.analysisOpt)
	return sym, false, err
}

// ---- handlers ----

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request, fault faultinject.Fault) *httpError {
	var req analyzeRequest
	if he := decodeBody(r, &req); he != nil {
		return he
	}
	m, he := parseMatrix(&req.Matrix, fault)
	if he != nil {
		return he
	}
	ctx, _, stop := s.deadlineCtx(r, req.TimeoutMS)
	defer stop()
	key := patternKey(m, s.analysisOpt)
	sym, hit, err := s.cache.getOrAnalyze(ctx, key, func() (*core.Symbolic, bool, error) {
		return s.analyzeFor(m)
	})
	if err != nil {
		return s.mapError(err)
	}
	st := sym.Stats
	writeJSON(w, http.StatusOK, analyzeResponse{
		Key:    key,
		Cached: hit,
		Stats: statsJSON{
			N: st.N, NNZA: st.NNZA, NNZFactors: st.NNZFactors,
			FillRatio: st.FillRatio, Supernodes: st.Supernodes,
			Blocks: st.Blocks, Tasks: st.TaskCount,
		},
	})
	return nil
}

func (s *Server) handleFactorize(w http.ResponseWriter, r *http.Request, fault faultinject.Fault) *httpError {
	var req factorizeRequest
	if he := decodeBody(r, &req); he != nil {
		return he
	}
	if _, err := rungsFor(req.Policy); err != nil {
		return badRequest("%v", err)
	}
	m, he := parseMatrix(&req.Matrix, fault)
	if he != nil {
		return he
	}
	ctx, cc, stop := s.deadlineCtx(r, req.TimeoutMS)
	defer stop()
	key := patternKey(m, s.analysisOpt)
	sym, hit, err := s.cache.getOrAnalyze(ctx, key, func() (*core.Symbolic, bool, error) {
		return s.analyzeFor(m)
	})
	if err != nil {
		return s.mapError(err)
	}
	res, err := climbLadder(sym, m, s.numOpts(cc), req.Policy)
	if err != nil {
		mapped := s.mapError(err)
		if res != nil {
			mapped.rungs = res.rungs
		}
		return mapped
	}
	s.met.rungWins[res.won].Add(1)

	// Batches run detached from any single request, so their options
	// carry the service-level backstop deadline, not a request's.
	bnopts := s.numOpts(nil)
	bnopts.Timeout = s.cfg.MaxDeadline
	h := &handle{
		id:  fmt.Sprintf("f%d", s.nextID.Add(1)),
		key: key,
		sym: sym,
		m:   m,
		res: res,
		bytes: int64(sym.Stats.NNZFactors)*8 +
			int64(m.ColPtr[m.NCols])*16 + int64(m.NCols)*64,
	}
	h.bt = newBatcher(res.f, s.cfg.BatchWindow, s.cfg.BatchMax, bnopts)
	if h.bytes > s.cfg.MemoryBudget {
		return &httpError{status: http.StatusRequestEntityTooLarge, code: "too_large",
			msg: fmt.Sprintf("server: factorization needs ~%d bytes, budget is %d", h.bytes, s.cfg.MemoryBudget)}
	}
	for _, victim := range s.storeInsert(h) {
		victim.bt.close()
	}
	writeJSON(w, http.StatusOK, factorizeResponse{
		FID:            h.id,
		Key:            key,
		SymbolicCached: hit,
		Rungs:          res.rungs,
		Rung:           res.won.String(),
		Refine:         res.refine,
		Perturbations:  res.f.PivotPerturbations(),
	})
	return nil
}

// storeInsert adds h and evicts least-recently-used handles until both
// the entry cap and the memory budget hold. Evicted handles are
// returned for the caller to drain outside the lock.
func (s *Server) storeInsert(h *handle) []*handle {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.clock++
	h.lastUsed = s.clock
	s.store[h.id] = h
	s.storeBytes += h.bytes
	var evicted []*handle
	for (len(s.store) > s.cfg.StoreEntries || s.storeBytes > s.cfg.MemoryBudget) && len(s.store) > 1 {
		var victim *handle
		for _, cand := range s.store {
			if cand != h && (victim == nil || cand.lastUsed < victim.lastUsed) {
				victim = cand
			}
		}
		if victim == nil {
			break
		}
		delete(s.store, victim.id)
		s.storeBytes -= victim.bytes
		s.evictions.Add(1)
		evicted = append(evicted, victim)
	}
	return evicted
}

// lookup fetches a handle and touches its LRU slot.
func (s *Server) lookup(fid string) (*handle, *httpError) {
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.store[fid]
	if !ok {
		return nil, &httpError{status: http.StatusNotFound, code: "not_found",
			msg: fmt.Sprintf("server: unknown factorization %q", fid)}
	}
	s.clock++
	h.lastUsed = s.clock
	return h, nil
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request, fault faultinject.Fault) *httpError {
	var req solveRequest
	if he := decodeBody(r, &req); he != nil {
		return he
	}
	h, he := s.lookup(req.FID)
	if he != nil {
		return he
	}
	n := h.sym.N
	single := req.B != nil
	if single == (len(req.BS) > 0) {
		return badRequest("server: exactly one of b and bs must be set")
	}
	bs := req.BS
	if single {
		bs = [][]float64{req.B}
	}
	for i, b := range bs {
		if len(b) != n {
			return badRequest("server: rhs %d has length %d, want %d", i, len(b), n)
		}
	}
	if fault.Mode == faultinject.PoisonNaN {
		bs[0][0] = math.NaN()
	}
	ctx, cc, stop := s.deadlineCtx(r, req.TimeoutMS)
	defer stop()

	refine := h.res.refine || req.Refine
	resp := solveResponse{Rung: h.res.won.String()}
	switch {
	case refine:
		// Refined solves bypass the batcher: each runs its own
		// solve+refine loop against the stored matrix under the
		// request's deadline, and reports the achieved backward error.
		nopts := s.numOpts(cc)
		xs := make([][]float64, len(bs))
		residuals := make([]float64, len(bs))
		steps := 0
		for i, b := range bs {
			x, berr, st, err := h.res.f.SolveRefinedWith(h.m, b, 20, 1e-11, &nopts)
			if err != nil {
				return s.mapError(err)
			}
			if err := checkFinite(x, berr); err != nil {
				return s.mapError(err)
			}
			xs[i] = x
			residuals[i] = berr
			if st > steps {
				steps = st
			}
		}
		s.met.refined.Add(int64(len(bs)))
		resp.RefineSteps = steps
		if single {
			resp.X, resp.Residual = xs[0], residuals[0]
		} else {
			resp.XS, resp.Residuals = xs, residuals
		}
	case single:
		// The batched fast path. Single-RHS requests always go through
		// the multi-RHS panel sweeps (batch of 1 when no peer arrives
		// in the window), which keeps batched and solo answers bitwise
		// identical.
		x, err := h.bt.submit(ctx, req.B)
		if err != nil {
			return s.mapError(err)
		}
		res := core.Residual(h.m, x, req.B)
		if err := checkFinite(x, res); err != nil {
			return s.mapError(err)
		}
		resp.X, resp.Residual = x, res
	default:
		nopts := s.numOpts(cc)
		xs, err := h.res.f.SolveManyWith(bs, &nopts)
		if err != nil {
			return s.mapError(err)
		}
		resp.XS = xs
		resp.Residuals = make([]float64, len(xs))
		for i, x := range xs {
			res := core.Residual(h.m, x, bs[i])
			if err := checkFinite(x, res); err != nil {
				return s.mapError(err)
			}
			resp.Residuals[i] = res
		}
	}
	writeJSON(w, http.StatusOK, resp)
	return nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	snap := s.met.snapshot(time.Now())
	snap.Cache = s.cache.snapshot()
	snap.Admission = s.adm.snapshot()
	s.mu.Lock()
	var bt batcherSnapshot
	for _, h := range s.store {
		bt.Batches += h.bt.batches.Load()
		bt.RHS += h.bt.rhs.Load()
		if mb := h.bt.maxBatch.Load(); mb > bt.MaxBatch {
			bt.MaxBatch = mb
		}
	}
	snap.Store = storeSnapshot{
		Entries:   len(s.store),
		Capacity:  s.cfg.StoreEntries,
		Bytes:     s.storeBytes,
		Budget:    s.cfg.MemoryBudget,
		Evictions: s.evictions.Load(),
	}
	s.mu.Unlock()
	snap.Batcher = bt
	writeJSON(w, http.StatusOK, snap)
}

// storeSnapshot is the wire form of the factorization store counters.
type storeSnapshot struct {
	Entries   int   `json:"entries"`
	Capacity  int   `json:"capacity"`
	Bytes     int64 `json:"approx_bytes"`
	Budget    int64 `json:"budget_bytes"`
	Evictions int64 `json:"evictions"`
}
