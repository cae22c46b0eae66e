package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"

	sparselu "repro"
	"repro/internal/core"
	"repro/internal/trace"
)

// solveReps is how often the traced pass repeats each solve probe; the
// median is kept.
const solveReps = 5

// layerAcc accumulates the per-layer measurements of one traced pass.
// Times and counts are totals over the workload's matrices, one
// operation each, so they add up to the work of one pass.
type layerAcc struct {
	procs int

	stage              [numStages]float64
	analyze, reanalyze float64
	// factorizeSecs is the wall time of the traced Factorize calls and
	// factorizeSetup its part outside the executor's trace window.
	factorizeSecs, factorizeSetup float64

	factorTask, updateTask, stealPark float64
	steals                            int
	busy, makespan                    float64
	// cpu and cpuCap are the process CPU seconds during the numeric
	// phase at procs workers and the most it could have used there;
	// cpu1/cpuCap1 the same at one worker.
	cpu, cpuCap, cpu1, cpuCap1 float64

	factorNNZ, panels, tasks, edges int
	explicitZeros, storedEntries    int
	gflop, criticalGflop            float64

	solve, solveMany, solveSerial float64 // ms

	kernels kernelAcc
	rep     *report
}

func newLayerAcc(procs int, rep *report) *layerAcc {
	return &layerAcc{procs: procs, rep: rep}
}

// probe measures one matrix's layers:
//
//  1. the stage chain on m, timed stage by stage;
//  2. sparselu.Analyze(m, opts), timed as core.analyze_s, whose
//     statistics the chain's structure must equal;
//  3. the traced operation: Reanalyze of m against prev (refactor's
//     setup analysis) or against the fresh analysis, timed as
//     core.reanalyze_s, then the numeric factorization at procs workers
//     under a scheduler-event recorder, then one solve;
//  4. untimed for the operation: the bitwise P=1 comparison, the solve
//     probes, the analysis counts and the kernel replay.
//
// It returns the traced operation's time: the analysis step of the
// workload's own operation (the fresh Analyze, or refactor's
// Reanalyze) plus the numeric factorization and the solve. A collection
// is forced, untimed, before each timed step, so the stage chain and
// Analyze run from the same heap state and the numeric phase's CPU
// time is its own.
func (l *layerAcc) probe(name string, m *sparselu.Matrix, b []float64, opts *sparselu.Options,
	prev *sparselu.Analysis, r *rand.Rand) (float64, error) {
	runtime.GC()
	chain, err := stageChain(m.CSC(), opts)
	if err != nil {
		return 0, fmt.Errorf("perfbench: %s: %w", name, err)
	}
	for s, secs := range chain.seconds {
		l.stage[s] += secs
	}

	runtime.GC()
	start := time.Now()
	an, err := sparselu.Analyze(m, opts)
	analyze := time.Since(start).Seconds()
	if err != nil {
		return 0, fmt.Errorf("perfbench: %s: analyze: %w", name, err)
	}
	l.analyze += analyze
	st := an.Symbolic().Stats
	if err := chain.crossCheck(st); err != nil {
		l.rep.fail("%s: %v", name, err)
	}

	fresh := prev == nil
	if fresh {
		prev = an
	}
	runtime.GC()
	start = time.Now()
	an, level, err := prev.Reanalyze(m)
	reanalyze := time.Since(start).Seconds()
	if err == nil && level != sparselu.ReuseFull {
		err = fmt.Errorf("reuse level %v, want full", level)
	}
	if err != nil {
		return 0, fmt.Errorf("perfbench: %s: reanalyze: %w", name, err)
	}
	l.reanalyze += reanalyze
	opSecs := reanalyze
	if fresh {
		opSecs = analyze
	}
	sym := an.Symbolic()

	runtime.GC()
	start = time.Now()
	f, err := l.factorize(sym, m, l.procs)
	if err != nil {
		return 0, fmt.Errorf("perfbench: %s: traced factorization: %w", name, err)
	}
	x, err := f.Solve(b)
	opSecs += time.Since(start).Seconds()
	if err != nil {
		return 0, fmt.Errorf("perfbench: %s: solve: %w", name, err)
	}
	l.rep.attempted++
	if !solutionOK(m, x, b) {
		l.rep.failed++
	}

	if l.procs > 1 {
		runtime.GC()
		l.bitwise(name, sym, m, b, x)
	}
	l.solves(name, f, m, b, r)

	l.factorNNZ += st.NNZFactors
	l.panels += st.Supernodes
	l.tasks += st.TaskCount
	l.edges += st.EdgeCount
	l.explicitZeros += st.ExplicitZeros
	l.storedEntries += st.ExplicitZeros + st.NNZFactors
	l.gflop += st.TotalFlops / 1e9
	l.criticalGflop += st.CriticalPath / 1e9
	l.kernels.replay(sym, r)
	return opSecs, nil
}

// factorize runs one numeric factorization at the given worker count
// with a scheduler-event recorder attached and folds the trace summary
// and the CPU use into the accumulator. A one-worker factorization in a
// multi-worker pass is the bitwise comparison's: it counts only toward
// the one-worker utilization.
func (l *layerAcc) factorize(sym *core.Symbolic, m *sparselu.Matrix, procs int) (*core.Factorization, error) {
	rec := trace.New(procs)
	rec.SetSchedEvents(true)
	cpu0 := cpuSeconds()
	start := time.Now()
	f, err := core.FactorizeWithOpts(sym, m.CSC(), &core.NumericOptions{Workers: procs, Trace: rec})
	wall := time.Since(start).Seconds()
	cpu := cpuSeconds() - cpu0
	if err != nil {
		return nil, err
	}
	capacity := wall * float64(min(procs, l.procs))
	if procs == 1 && l.procs > 1 {
		l.cpu1 += cpu
		l.cpuCap1 += capacity
		return f, nil
	}
	l.cpu += cpu
	l.cpuCap += capacity
	sum := trace.Summarize(rec.Events(), procs)
	makespan := float64(sum.Makespan) / 1e9
	l.factorizeSecs += wall
	l.factorizeSetup += wall - makespan
	l.busy += float64(sum.TotalBusy) / 1e9
	l.makespan += makespan
	for _, ks := range sum.KindStats {
		secs := float64(ks.Total) / 1e9
		switch {
		case ks.Kind == trace.KindFactor:
			l.factorTask += secs
		case ks.Kind == trace.KindUpdate:
			l.updateTask += secs
		case ks.Kind.IsSched():
			l.stealPark += secs
		}
	}
	for _, ws := range sum.WorkerStats {
		l.steals += ws.Steals
	}
	return f, nil
}

// bitwise checks the determinism contract: a one-worker factorization
// of the same values solves b to exactly the bits x has.
func (l *layerAcc) bitwise(name string, sym *core.Symbolic, m *sparselu.Matrix, b, x []float64) {
	f1, err := l.factorize(sym, m, 1)
	if err != nil {
		l.rep.fail("%s: P=1 factorization: %v", name, err)
		return
	}
	x1, err := f1.Solve(b)
	if err != nil {
		l.rep.fail("%s: P=1 solve: %v", name, err)
		return
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(x1[i]) {
			l.rep.fail("%s: P=%d and P=1 solutions differ at %d: %v vs %v", name, l.procs, i, x[i], x1[i])
			return
		}
	}
}

// solves times a 1-RHS solve at the factorization's solve workers, a
// 16-RHS SolveMany, and a 1-RHS solve on one worker, keeping each
// one's median over solveReps and checking every solution.
func (l *layerAcc) solves(name string, f *core.Factorization, m *sparselu.Matrix, b []float64, r *rand.Rand) {
	bs := make([][]float64, 16)
	for i := range bs {
		bs[i] = rhs(len(b), r)
	}
	serial := &core.NumericOptions{SolveWorkers: 1}
	var one, many, ser []float64
	check := func(x, b []float64, err error) {
		l.rep.attempted++
		if err != nil || !solutionOK(m, x, b) {
			l.rep.failed++
		}
	}
	for rep := 0; rep < solveReps; rep++ {
		t := time.Now()
		x, err := f.Solve(b)
		one = append(one, ms(time.Since(t)))
		check(x, b, err)

		t = time.Now()
		xs, err := f.SolveMany(bs)
		many = append(many, ms(time.Since(t)))
		if err != nil || len(xs) != len(bs) {
			l.rep.fail("%s: SolveMany: %v", name, err)
		} else {
			for i := range xs {
				check(xs[i], bs[i], nil)
			}
		}

		t = time.Now()
		x, err = f.SolveWith(b, serial)
		ser = append(ser, ms(time.Since(t)))
		check(x, b, err)
	}
	l.solve += percentile(one, 0.5)
	l.solveMany += percentile(many, 0.5)
	l.solveSerial += percentile(ser, 0.5)
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// emit sets every per-layer metric below the server.
func (l *layerAcc) emit() {
	rep := l.rep
	stages := 0.0
	for s, secs := range l.stage {
		rep.set(stageMetric[s], secs)
		stages += secs
	}
	rep.set("core.analyze_s", l.analyze)
	rep.set("core.analyze_self_s", l.analyze-stages)
	rep.set("core.reanalyze_s", l.reanalyze)
	rep.set("symbolic.factor_nnz", float64(l.factorNNZ))
	rep.set("supernode.panels", float64(l.panels))
	rep.set("supernode.explicit_zero_ratio", ratio(float64(l.explicitZeros), float64(l.storedEntries)))
	rep.set("taskgraph.tasks", float64(l.tasks))
	rep.set("taskgraph.edges", float64(l.edges))
	rep.set("taskgraph.total_gflop", l.gflop)
	rep.set("taskgraph.critical_path_gflop", l.criticalGflop)
	rep.set("core.factorize_s", l.factorizeSecs)
	rep.set("core.factorize_setup_s", l.factorizeSetup)
	rep.set("sched.task_factor_s", l.factorTask)
	rep.set("sched.task_update_s", l.updateTask)
	rep.set("sched.steal_park_s", l.stealPark)
	rep.set("sched.steals", float64(l.steals))
	rep.set("sched.parallelism", ratio(l.busy, l.makespan))
	util, util1 := ratio(l.cpu, l.cpuCap), ratio(l.cpu1, l.cpuCap1)
	if l.procs == 1 {
		util1 = util
	}
	rep.set("sched.cpu_util", util)
	rep.set("sched.cpu_util_p1", util1)
	if util > 1 || util1 > 1 {
		fmt.Fprintf(os.Stderr, "warning: CPU utilization above 1 (%.4f at P=%d, %.4f at P=1): the runtime used CPUs beside the workers\n",
			util, l.procs, util1)
	}
	rep.set("blas.gemm_small_gflops", l.kernels.gflops(kGemmSmall))
	rep.set("blas.gemm_packed_gflops", l.kernels.gflops(kGemmPacked))
	rep.set("blas.gemm_small_flop_share", l.kernels.smallShare())
	rep.set("blas.panel_lu_gflops", l.kernels.gflops(kPanelLU))
	rep.set("blas.trsm_gflops", l.kernels.gflops(kTrsm))
	rep.set("core.solve_ms", l.solve)
	rep.set("core.solve_many16_ms", l.solveMany)
	rep.set("core.solve_serial_ms", l.solveSerial)
}
