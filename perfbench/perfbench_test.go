package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	sparselu "repro"
	"repro/internal/matgen"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 2.5}, {0.9, 3.7}, {1, 4},
	} {
		if got := percentile(xs, c.q); !near(got, c.want) {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Errorf("percentile reordered its input: %v", xs)
	}
	if got := percentile([]float64{7}, 0.9); got != 7 {
		t.Errorf("single sample p90 = %v, want 7", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty sample p50 = %v, want 0", got)
	}
}

// TestQuartiles pins the quartiles to Python's
// statistics.quantiles(xs, n=4) on the same samples.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.5, 1.25}, [3]float64{0.6875, 2.375, 4.0625}},
		{[]float64{10, 12.5, 11, 9.75, 30, 10.5, 11.25}, [3]float64{10, 11, 12.5}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.want[0]) || !near(q2, c.want[1]) || !near(q3, c.want[2]) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
		}
	}
}

func TestTypical(t *testing.T) {
	// Per-matrix medians 2 and 50 (the empty matrix is skipped): their
	// geometric mean is 10, whatever the sample counts.
	byMatrix := [][]float64{{1, 2, 3}, nil, {40, 50, 60, 45, 55}}
	if got := typical(byMatrix, 0.5); !near(got, 10) {
		t.Errorf("typical p50 = %v, want 10", got)
	}
	// Per-matrix maxima 3 and 60.
	if got := typical(byMatrix, 1); !near(got, math.Sqrt(180)) {
		t.Errorf("typical p100 = %v, want %v", got, math.Sqrt(180))
	}
	if got := typical([][]float64{nil, {}}, 0.5); got != 0 {
		t.Errorf("typical of no samples = %v, want 0", got)
	}
}

func TestResidualRejectsCorruptedSolution(t *testing.T) {
	m := sparselu.WrapCSC(matgen.SmallSuite()[0].Gen())
	b := rhs(m.Order(), rng(1, streamRHS))
	f, err := sparselu.Factorize(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	x, err := f.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	if !solutionOK(m, x, b) {
		t.Fatalf("correct solution rejected: residual %g", sparselu.Residual(m, x, b))
	}
	xmax := 0.0
	for _, v := range x {
		xmax = math.Max(xmax, math.Abs(v))
	}
	for _, corrupt := range []func([]float64){
		func(x []float64) { x[len(x)/2] += 1e-6 * xmax },
		func(x []float64) { x[0] = math.NaN() },
		func(x []float64) { x[1] = math.Inf(1) },
	} {
		bad := append([]float64(nil), x...)
		corrupt(bad)
		if solutionOK(m, bad, b) {
			t.Errorf("corrupted solution accepted: residual %g", sparselu.Residual(m, bad, b))
		}
	}
	if solutionOK(m, x[:len(x)-1], b) {
		t.Error("short solution accepted")
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	base := matgen.SmallSuite()[1].Gen()
	inputs := func(seed int64) ([]float64, []float64, []svcRequest) {
		vals := perturb(base, rng(seed, streamValues, 3, 2)).CSC().Val
		b := rhs(base.NCols, rng(seed, streamRHS, 3, 2))
		var plan []svcRequest
		for i := int64(0); i < 4*blockLen; i++ {
			plan = append(plan, planRequest(seed, streamTimed, i, 3))
		}
		return vals, b, plan
	}
	v1, b1, p1 := inputs(7)
	v2, b2, p2 := inputs(7)
	v3, b3, p3 := inputs(8)
	same := func(a, b []float64) bool {
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return len(a) == len(b)
	}
	samePlan := func(a, b []svcRequest) bool {
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return len(a) == len(b)
	}
	if !same(v1, v2) || !same(b1, b2) || !samePlan(p1, p2) {
		t.Error("the same seed gave different inputs or request order")
	}
	if same(v1, v3) || same(b1, b3) || samePlan(p1, p3) {
		t.Error("different seeds gave identical inputs or request order")
	}
	if same(v1, base.Val) {
		t.Error("perturbation left the values unchanged")
	}

	// Each block is one matrix opened by its only factorization, and
	// each cycle of blocks visits every matrix once.
	for blk := 0; blk < 4; blk++ {
		facts := 0
		for _, r := range p1[blk*blockLen : (blk+1)*blockLen] {
			if r.mat != p1[blk*blockLen].mat {
				t.Fatalf("block %d mixes matrices", blk)
			}
			if r.factorize {
				facts++
			}
		}
		if facts != 1 || !p1[blk*blockLen].factorize {
			t.Errorf("block %d has %d factorizations, want 1 opening it", blk, facts)
		}
	}
	seen := map[int]bool{}
	for blk := 0; blk < 3; blk++ {
		seen[p1[blk*blockLen].mat] = true
	}
	if len(seen) != 3 {
		t.Errorf("the first cycle visits matrices %v, want all three", seen)
	}
}

// capturedMetrics is a GET /metrics document captured from the server
// after a short run on orsreg1.
const capturedMetrics = `{"uptime_secs":2.825689546,"in_flight":0,"analyze":{"count":1,"errors":0,"mean_ms":481.45095,"max_ms":481.45095,"total_secs":0.48145095},"factorize":{"count":4,"errors":0,"mean_ms":394.607324,"max_ms":557.445815,"total_secs":1.578429296},"solve":{"count":103,"errors":0,"mean_ms":20.685868368932038,"max_ms":45.830946,"total_secs":2.130644442},"panics_recovered":0,"shed":0,"faults_injected":0,"err_singular":0,"err_non_finite":0,"err_deadline":0,"err_canceled":0,"rung_fail_wins":4,"rung_perturb_wins":0,"rung_equilibrate_wins":0,"refined_solves":0,"symbolic_cache":{"entries":1,"capacity":32,"hits":4,"misses":1,"analyzes":1,"reanalyzes":0,"evictions":0,"approx_bytes":10108736,"analyze_seconds":{"51b78397480f62526020a4ee0a6b8e8b":0.465022749}},"admission":{"slots":2,"max_queue":8,"waiting":0,"admitted":108,"shed":0},"batcher":{"batches":84,"batched_rhs":103,"max_batch":2},"store":{"entries":4,"capacity":5,"approx_bytes":17470400,"budget_bytes":2147483648,"evictions":0}}`

func TestParseMetrics(t *testing.T) {
	after, err := parseMetrics([]byte(capturedMetrics))
	if err != nil {
		t.Fatal(err)
	}
	if after.Solve.Count != 103 || after.Factorize.Count != 4 || after.Cache.Hits != 4 || after.Cache.Misses != 1 ||
		after.Batcher.Batches != 84 || after.Batcher.RHS != 103 || after.Store.Evictions != 0 || after.Shed != 0 {
		t.Fatalf("parsed %+v", after)
	}
	before := serverMetrics{
		Factorize: endpointMetrics{Count: 1, TotalSecs: 0.5},
		Solve:     endpointMetrics{Count: 3, TotalSecs: 0.130644442},
	}
	before.Cache.Misses = 1
	rep := newReport()
	serverLayer(rep, before, after)
	for name, want := range map[string]float64{
		"server.solve_mean_ms":     20,                    // 2 s over 100 solves
		"server.factorize_mean_ms": 1.078429296 / 3 * 1e3, // over 3 factorizations
		"server.batch_rhs_mean":    103.0 / 84,
		"server.cache_hit_ratio":   1,
		"server.shed":              0,
		"server.store_evictions":   0,
	} {
		if got := rep.values[name]; !near(got, want) {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if _, err := parseMetrics([]byte(`{"solve":`)); err == nil {
		t.Error("truncated document parsed")
	}
}

// TestStageChainMatchesAnalyze runs the stage chain's cross-check on
// the small suite, serially and with parallel analysis.
func TestStageChainMatchesAnalyze(t *testing.T) {
	for _, workers := range []int{1, 2} {
		opts := sparselu.DefaultOptions()
		opts.AnalyzeWorkers = workers
		for _, sp := range matgen.SmallSuite() {
			m := sparselu.WrapCSC(sp.Gen())
			chain, err := stageChain(m.CSC(), opts)
			if err != nil {
				t.Fatalf("%s: %v", sp.Name, err)
			}
			an, err := sparselu.Analyze(m, opts)
			if err != nil {
				t.Fatalf("%s: %v", sp.Name, err)
			}
			if err := chain.crossCheck(an.Symbolic().Stats); err != nil {
				t.Errorf("%s at %d analysis workers: %v", sp.Name, workers, err)
			}
		}
	}
	opts := sparselu.DefaultOptions()
	opts.Ordering = sparselu.RCM
	if _, err := stageChain(matgen.SmallSuite()[0].Gen(), opts); err == nil {
		t.Error("stage chain accepted an ordering it does not model")
	}
}

// TestKernelCallsMatchTasks checks the replayed shapes against the
// task graph: one panel LU per factor task, one trsm per update task,
// and panel heights equal to the cost model's.
func TestKernelCallsMatchTasks(t *testing.T) {
	an, err := sparselu.Analyze(sparselu.WrapCSC(matgen.SmallSuite()[2].Gen()), nil)
	if err != nil {
		t.Fatal(err)
	}
	sym := an.Symbolic()
	var counts [numKernels]int
	rows, cols := 0, 0
	forEachKernelCall(sym, func(c kernelCall) {
		counts[c.class]++
		if c.class == kPanelLU {
			rows += c.m
			cols += c.n
		}
	})
	if counts[kPanelLU] != sym.BlockSym.N || counts[kTrsm] != sym.Graph.NumTasks()-sym.BlockSym.N {
		t.Errorf("kernel calls %v for %d blocks and %d tasks", counts, sym.BlockSym.N, sym.Graph.NumTasks())
	}
	height := 0
	for _, h := range sym.Costs.PanelHeight {
		height += h
	}
	if rows != height || cols != sym.N {
		t.Errorf("panels total %d rows and %d columns, cost model %d and %d", rows, cols, height, sym.N)
	}
	var acc kernelAcc
	acc.replay(sym, rng(1, streamProbe))
	if share := acc.smallShare(); share <= 0 || share > 1 {
		t.Errorf("small-path flop share %v", share)
	}
	for class := 0; class < numKernels; class++ {
		if acc.flops[class] > 0 && acc.gflops(class) <= 0 {
			t.Errorf("kernel class %d has flops but no replayed rate", class)
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names exactly the
// workloads and metrics this command runs and reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var doc struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the command %d", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not run by the command", w.Name)
		}
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the command %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the command %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}
