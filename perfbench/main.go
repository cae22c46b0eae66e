// Command perfbench is the repository benchmark. It drives the solver
// through its public calls on three workloads and prints one JSON
// result line:
//
//	perfbench --workload oneshot|refactor|service --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics of the workload; with
// --trace 1 it runs a separate traced pass of the same workload and
// reports the per-layer metrics. Every solution is checked; any wrong
// answer or failed cross-check makes the result incorrect and the exit
// code 1. See README.md for the metrics and the reasons for each
// workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// metricDef is one reported metric: its name and unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every workload reports with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"solve_p50_ms", "ms"},
	{"solve_p90_ms", "ms"},
	{"factorize_p50_ms", "ms"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the metrics every workload reports from its traced pass.
var perLayer = []metricDef{
	{stageMetric[stTransversal], "s"},
	{stageMetric[stATA], "s"},
	{stageMetric[stMinDeg], "s"},
	{stageMetric[stSymbolic], "s"},
	{stageMetric[stPostorder], "s"},
	{stageMetric[stPartition], "s"},
	{stageMetric[stBlockSymbolic], "s"},
	{stageMetric[stTaskGraph], "s"},
	{"core.analyze_s", "s"},
	{"core.analyze_self_s", "s"},
	{"symbolic.factor_nnz", "count"},
	{"supernode.panels", "count"},
	{"supernode.explicit_zero_ratio", "ratio"},
	{"taskgraph.tasks", "count"},
	{"taskgraph.edges", "count"},
	{"taskgraph.total_gflop", "Gflop"},
	{"taskgraph.critical_path_gflop", "Gflop"},
	{"core.reanalyze_s", "s"},
	{"core.factorize_s", "s"},
	{"core.factorize_setup_s", "s"},
	{"sched.task_factor_s", "s"},
	{"sched.task_update_s", "s"},
	{"sched.steal_park_s", "s"},
	{"sched.steals", "count"},
	{"sched.parallelism", "ratio"},
	{"sched.cpu_util", "ratio"},
	{"sched.cpu_util_p1", "ratio"},
	{"blas.gemm_small_gflops", "Gflop/s"},
	{"blas.gemm_packed_gflops", "Gflop/s"},
	{"blas.gemm_small_flop_share", "ratio"},
	{"blas.panel_lu_gflops", "Gflop/s"},
	{"blas.trsm_gflops", "Gflop/s"},
	{"core.solve_ms", "ms"},
	{"core.solve_many16_ms", "ms"},
	{"core.solve_serial_ms", "ms"},
	{"server.solve_mean_ms", "ms"},
	{"server.factorize_mean_ms", "ms"},
	{"server.batch_rhs_mean", "count"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.shed", "count"},
	{"server.store_evictions", "count"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.alloc_mb_per_op", "MiB"},
	{"trace.overhead_frac", "ratio"},
}

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// procs bounds GOMAXPROCS, numeric workers and clients: the host's
	// usable CPUs.
	procs int
}

// report collects a run's counts, metrics and correctness findings.
type report struct {
	attempted, failed int
	problems          []string
	values            map[string]float64
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.values[name] = v }

// fail records a correctness finding that is not a counted operation
// failure: a cross-check or bitwise mismatch.
func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// result checks that the report holds exactly the metrics of defs and
// builds the JSON line.
func (r *report) result(defs []metricDef) (resultJSON, error) {
	out := resultJSON{
		Correct:   r.failed == 0 && len(r.problems) == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricJSON{},
	}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			return out, fmt.Errorf("perfbench: metric %s was not measured", d.name)
		}
		out.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
	}
	if len(r.values) != len(defs) {
		return out, fmt.Errorf("perfbench: %d metrics measured, %d defined", len(r.values), len(defs))
	}
	return out, nil
}

var workloads = map[string]func(config) (*report, error){
	"oneshot":  runOneshot,
	"refactor": runRefactor,
	"service":  runService,
}

func main() {
	var cfg config
	var seconds float64
	var traced int
	flag.StringVar(&cfg.workload, "workload", "", "workload: oneshot, refactor or service")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the value perturbations, right-hand sides and request order")
	flag.Float64Var(&seconds, "seconds", 20, "length of the timed phase in seconds")
	flag.IntVar(&traced, "trace", 0, "1 runs the traced pass and reports per-layer metrics")
	flag.Parse()
	run, ok := workloads[cfg.workload]
	if !ok || seconds <= 0 || (traced != 0 && traced != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload oneshot|refactor|service --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	cfg.seconds = time.Duration(seconds * float64(time.Second))
	cfg.trace = traced == 1
	cfg.procs = min(runtime.GOMAXPROCS(0), runtime.NumCPU())
	runtime.GOMAXPROCS(cfg.procs)

	steal0, total0 := hostCPU()
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// Time the hypervisor gave to other guests slows every timing of
	// the run; printing it explains runs that read slow.
	steal1, total1 := hostCPU()
	fmt.Printf("host CPU time stolen by other guests during the run: %.1f%%\n", 100*ratio(steal1-steal0, total1-total0))
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res, err := rep.result(defs)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, p := range rep.problems {
		fmt.Fprintln(os.Stderr, "MISMATCH:", p)
	}
	for _, d := range defs {
		fmt.Printf("%-32s %14.6g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	fmt.Printf("%-32s %14.6g fraction (%d of %d attempted failed)\n", "error_rate",
		ratio(float64(rep.failed), float64(rep.attempted)), rep.failed, rep.attempted)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
