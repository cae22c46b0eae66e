package main

import (
	"fmt"
	"time"

	sparselu "repro"
	"repro/internal/core"
	"repro/internal/etree"
	"repro/internal/ordering"
	"repro/internal/sparse"
	"repro/internal/supernode"
	"repro/internal/symbolic"
	"repro/internal/taskgraph"
	"repro/internal/transversal"
)

// The analysis stages, in the order core.Analyze runs them. Each is
// one metric: the time of the exported calls that make up the stage.
const (
	stTransversal = iota
	stATA
	stMinDeg
	stSymbolic
	stPostorder
	stPartition
	stBlockSymbolic
	stTaskGraph
	numStages
)

var stageMetric = [numStages]string{
	stTransversal:   "transversal.matching_s",
	stATA:           "sparse.ata_pattern_s",
	stMinDeg:        "ordering.mindeg_s",
	stSymbolic:      "symbolic.factor_s",
	stPostorder:     "etree.postorder_s",
	stPartition:     "supernode.partition_s",
	stBlockSymbolic: "supernode.block_symbolic_s",
	stTaskGraph:     "taskgraph.build_s",
}

// chainResult is what the composed stage calls produced: the time of
// each stage and the structural counts that must equal the analysis
// statistics of core.Analyze on the same matrix.
type chainResult struct {
	seconds              [numStages]float64
	factorNNZ            int
	panels, tasks, edges int
}

// stageChain composes the exported stage calls of the analysis pipeline
// the way core.Analyze does for opts (minimum degree on AᵀA,
// postordering, the eforest task graph, opts' amalgamation and analysis
// worker count) and times each stage. The permutations between stages,
// the solve schedules and the reanalysis checkpoint are left untimed:
// they are the analysis's self time.
func stageChain(a *sparse.CSC, opts *sparselu.Options) (*chainResult, error) {
	if opts.Ordering != sparselu.MinDegree || !opts.Postorder || opts.TaskGraph != sparselu.EForestGraph {
		return nil, fmt.Errorf("perfbench: stage chain models minimum degree, postordering and the eforest graph only")
	}
	amalg := supernode.AmalgamationOptions{MaxSize: opts.MaxSupernode, MaxFill: opts.AmalgamationFill}
	var r chainResult
	lap := time.Now()
	mark := func(stage int) {
		now := time.Now()
		r.seconds[stage] += now.Sub(lap).Seconds()
		lap = now
	}

	tr := transversal.MaximumTransversal(a)
	if !tr.StructurallyNonsingular() {
		return nil, fmt.Errorf("perfbench: matrix is structurally singular")
	}
	mark(stTransversal)
	a1 := a.PermuteRows(tr.RowPerm)

	lap = time.Now()
	ata := sparse.ATAPattern(a1)
	mark(stATA)
	fill := ordering.MinimumDegree(ata)
	mark(stMinDeg)
	a2 := a1.PermuteSym(fill)

	lap = time.Now()
	var sym *symbolic.Result
	var err error
	if opts.AnalyzeWorkers > 1 {
		sym, err = symbolic.FactorParallel(a2, opts.AnalyzeWorkers, symbolic.GoRunner(opts.AnalyzeWorkers))
	} else {
		sym, err = symbolic.Factor(a2)
	}
	if err != nil {
		return nil, fmt.Errorf("perfbench: symbolic factorization: %w", err)
	}
	mark(stSymbolic)
	po := etree.PostorderSymbolic(sym, etree.LUForest(sym))
	sym = po.Sym
	mark(stPostorder)

	strict := supernode.StrictPartition(sym)
	merged := supernode.Amalgamate(strict, sym, amalg)
	part := supernode.Split(merged, amalg.MaxSize)
	mark(stPartition)

	blockSym, err := symbolic.Factor(supernode.BlockPattern(sym, part).ToCSC(1))
	if err != nil {
		return nil, fmt.Errorf("perfbench: block symbolic factorization: %w", err)
	}
	blockForest := etree.LUForest(blockSym)
	mark(stBlockSymbolic)

	graph := taskgraph.New(blockSym, blockForest, taskgraph.EForest)
	costs := taskgraph.NewCostModel(graph, blockSym, part)
	if _, _, err := graph.CriticalPath(costs.TaskFlops); err != nil {
		return nil, fmt.Errorf("perfbench: task graph: %w", err)
	}
	mark(stTaskGraph)

	r.factorNNZ = sym.NNZ()
	r.panels = part.NumBlocks()
	r.tasks = graph.NumTasks()
	r.edges = graph.NumEdges
	return &r, nil
}

// crossCheck compares the chain's structure with the statistics of the
// analysis the workload ran, so the stage timings provably describe
// that analysis's work.
func (r *chainResult) crossCheck(st core.AnalysisStats) error {
	if r.factorNNZ != st.NNZFactors || r.panels != st.Supernodes || r.tasks != st.TaskCount || r.edges != st.EdgeCount {
		return fmt.Errorf("perfbench: stage chain gives |Ā|=%d panels=%d tasks=%d edges=%d, Analyze gives %d/%d/%d/%d",
			r.factorNNZ, r.panels, r.tasks, r.edges, st.NNZFactors, st.Supernodes, st.TaskCount, st.EdgeCount)
	}
	return nil
}
