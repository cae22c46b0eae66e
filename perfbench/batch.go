package main

import (
	"fmt"
	"runtime"
	"time"

	sparselu "repro"
)

// Seeded input streams. Each input is drawn from its own stream, keyed
// by what it is for and where it sits in the run.
const (
	streamValues = iota + 1
	streamRHS
	streamOrder
	streamWarmup
	streamTimed
	streamProbe
)

// A run sets its workload up at least setupReps times, and again while
// the set-ups so far took less than setupBudget in all; setup_s is the
// median. Cheap set-ups are thus repeated often enough for a steady
// median.
const (
	setupReps   = 3
	setupBudget = 3 * time.Second
)

// repeatSetup runs setup the number of times the set-up rule above
// asks for and returns each one's time. reset runs untimed before each,
// dropping the previous set-up's state.
func repeatSetup(reset, setup func() error) ([]float64, error) {
	var secs []float64
	total := 0.0
	for len(secs) < setupReps || total < setupBudget.Seconds() {
		if err := reset(); err != nil {
			return nil, err
		}
		start := time.Now()
		if err := setup(); err != nil {
			return nil, err
		}
		secs = append(secs, time.Since(start).Seconds())
		total += secs[len(secs)-1]
	}
	return secs, nil
}

// batch is one of the two single-client workloads over the full suite:
//
//   - oneshot: each operation is sparselu.Factorize(m, nil) and one
//     Solve — a new pattern under the library defaults, so analysis and
//     the numeric phase both run on one worker;
//   - refactor: setup analyzes every matrix once at procs workers; each
//     operation then reanalyzes new values on the same pattern (a
//     ReuseFull hit), factorizes them and solves once — the Newton or
//     time-stepping loop the static symbolic factorization exists for.
//
// A round is one operation on every suite matrix, in suite order. The
// timed phase runs as many whole rounds as fit in the time (at least
// one), so every run samples the same mix of matrices in the same
// sequence; the seed drives the values and right-hand sides. After each
// operation, outside its time, extraSolves more solves go to its
// factorization for the solve latency sample. The single client does
// nothing but operations back to back, so its throughput is operations
// over the time spent in them. A collection is forced before each
// operation, untimed, so each starts from a collected heap and pays for
// its own garbage only; that keeps the latencies and the memory peak
// from depending on where a collection cycle happens to fall.
type batch struct {
	refactor bool
	cfg      config
	mats     []suiteMatrix
	// analyses are refactor's setup analyses.
	analyses []*sparselu.Analysis
}

func runOneshot(cfg config) (*report, error)  { return (&batch{cfg: cfg}).run() }
func runRefactor(cfg config) (*report, error) { return (&batch{cfg: cfg, refactor: true}).run() }

// options are the analysis options of refactor's setup.
func (w *batch) options() *sparselu.Options {
	o := sparselu.DefaultOptions()
	o.Workers = w.cfg.procs
	o.AnalyzeWorkers = w.cfg.procs
	return o
}

// setup generates the suite and, for refactor, analyzes it.
func (w *batch) setup() error {
	w.mats = generate(nil)
	if !w.refactor {
		return nil
	}
	w.analyses = make([]*sparselu.Analysis, len(w.mats))
	for i, sm := range w.mats {
		an, err := sparselu.Analyze(sparselu.WrapCSC(sm.base), w.options())
		if err != nil {
			return fmt.Errorf("perfbench: analyze %s: %w", sm.name, err)
		}
		w.analyses[i] = an
	}
	return nil
}

// input is the seeded perturbation and right-hand side of operation
// (round, i).
func (w *batch) input(round, i int) (*sparselu.Matrix, []float64) {
	sm := w.mats[i]
	return perturb(sm.base, rng(w.cfg.seed, streamValues, int64(round), int64(i))),
		rhs(sm.base.NCols, rng(w.cfg.seed, streamRHS, int64(round), int64(i)))
}

// opSample is one operation's latencies in ms and whether its answer
// was right.
type opSample struct {
	op, factorize, solve float64
	ok                   bool
}

// op runs one untraced operation on matrix i and returns its
// factorization.
func (w *batch) op(i int, m *sparselu.Matrix, b []float64) (opSample, *sparselu.Factorization) {
	start := time.Now()
	var s opSample
	var f *sparselu.Factorization
	var err error
	if w.refactor {
		an, level, rerr := w.analyses[i].Reanalyze(m)
		if rerr != nil || level != sparselu.ReuseFull {
			return s, nil
		}
		fstart := time.Now()
		f, err = an.Factorize(m)
		s.factorize = ms(time.Since(fstart))
	} else {
		f, err = sparselu.Factorize(m, nil)
		s.factorize = ms(time.Since(start))
	}
	if err != nil {
		return s, nil
	}
	sstart := time.Now()
	x, err := f.Solve(b)
	end := time.Now()
	s.solve = ms(end.Sub(sstart))
	s.op = ms(end.Sub(start))
	s.ok = err == nil && solutionOK(m, x, b)
	return s, f
}

// extraSolves is how many more single-RHS solves the timed phase sends
// to each operation's factorization, outside the operation's time, so
// the solve latency sample has enough samples for its 90th percentile
// to have ten beyond it.
const extraSolves = 15

func (w *batch) run() (*report, error) {
	rep := newReport()
	if w.cfg.trace {
		if err := w.setup(); err != nil {
			return nil, err
		}
		return rep, w.traced(rep)
	}
	setups, err := repeatSetup(func() error {
		w.mats, w.analyses = nil, nil
		runtime.GC()
		return nil
	}, w.setup)
	if err != nil {
		return nil, err
	}

	// Latency samples by matrix.
	ops := make([][]float64, len(w.mats))
	facts := make([][]float64, len(w.mats))
	solves := make([][]float64, len(w.mats))
	nops, busy, rss := 0, 0.0, 0.0
	start := time.Now()
	for round, more := 0, true; more; round++ {
		roundStart := time.Now()
		for i := range w.mats {
			m, b := w.input(round, i)
			runtime.GC()
			s, f := w.op(i, m, b)
			nops++
			rep.attempted++
			busy += s.op / 1e3
			if !s.ok {
				rep.failed++
				continue
			}
			ops[i] = append(ops[i], s.op)
			facts[i] = append(facts[i], s.factorize)
			solves[i] = append(solves[i], s.solve)
			for j := 1; j <= extraSolves; j++ {
				b := rhs(len(b), rng(w.cfg.seed, streamRHS, int64(round), int64(i), int64(j)))
				t := time.Now()
				x, err := f.Solve(b)
				d := ms(time.Since(t))
				rep.attempted++
				if err != nil || !solutionOK(m, x, b) {
					rep.failed++
					continue
				}
				solves[i] = append(solves[i], d)
			}
		}
		// The memory peak is read after the first round: later rounds
		// repeat its work, and how many fit depends on the host's speed.
		if round == 0 {
			if rss, err = peakRSSMiB(); err != nil {
				return nil, err
			}
		}
		// Another round only if one more as long as this one still fits.
		more = time.Since(start)+time.Since(roundStart) <= w.cfg.seconds
	}
	printLatencies("op", ops)
	printLatencies("factorize", facts)
	printLatencies("solve", solves)
	rep.set("setup_s", percentile(setups, 0.5))
	rep.set("ops_per_s", float64(nops)/busy)
	rep.set("op_p50_ms", typical(ops, 0.5))
	rep.set("solve_p50_ms", typical(solves, 0.5))
	rep.set("solve_p90_ms", typical(solves, 0.9))
	rep.set("factorize_p50_ms", typical(facts, 0.5))
	rep.set("peak_rss_mb", rss)
	return rep, nil
}

// traced is the per-layer pass over one round. For each matrix it runs
// the untraced operation as the reference, with the runtime's GC and
// allocation counters read around it, then the same operation on the
// same inputs through the layer probe.
func (w *batch) traced(rep *report) error {
	l := newLayerAcc(w.procs(), rep)
	opts := sparselu.DefaultOptions()
	var rt runtimeSample
	refSecs, tracedSecs := 0.0, 0.0
	for i := range w.mats {
		m, b := w.input(0, i)
		before := readRuntime()
		s, _ := w.op(i, m, b)
		rt.add(before, readRuntime())
		rep.attempted++
		if !s.ok {
			rep.failed++
		}
		refSecs += s.op / 1e3

		var prev *sparselu.Analysis
		if w.refactor {
			opts, prev = w.options(), w.analyses[i]
		}
		secs, err := l.probe(w.mats[i].name, m, b, opts, prev, rng(w.cfg.seed, streamProbe, int64(i)))
		if err != nil {
			return err
		}
		tracedSecs += secs
	}
	gcFrac, allocPerOp := rt.perOp(len(w.mats))
	l.emit()
	emitRuntime(rep, gcFrac, allocPerOp, tracedSecs/refSecs-1)
	emitNoServer(rep)
	return nil
}

// procs is the workload's numeric worker count: one for oneshot (the
// library default), the host's CPUs for refactor.
func (w *batch) procs() int {
	if w.refactor {
		return w.cfg.procs
	}
	return 1
}

func emitRuntime(rep *report, gcFrac, allocPerOp, overhead float64) {
	rep.set("runtime.gc_cpu_frac", gcFrac)
	rep.set("runtime.alloc_mb_per_op", allocPerOp)
	rep.set("trace.overhead_frac", overhead)
}

// emitNoServer reports the server layer of a workload that does not
// run the server: zero requests, so every server metric is 0.
func emitNoServer(rep *report) {
	for _, name := range []string{"server.solve_mean_ms", "server.factorize_mean_ms", "server.batch_rhs_mean",
		"server.cache_hit_ratio", "server.shed", "server.store_evictions"} {
		rep.set(name, 0)
	}
}
