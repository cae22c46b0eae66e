#!/bin/sh
# The local/CI gate, split into stages so CI can attribute failures:
#
#   ./check.sh lint    # gofmt, vet, build, lucheck -audit
#   ./check.sh test    # race-enabled test suite
#   ./check.sh chaos   # fault-injection / cancellation stress, -race, repeated
#   ./check.sh service # sluserver chaos suite under -race + live HTTP smoke
#   ./check.sh bench   # paperbench small suite + regression compare
#   ./check.sh perfbench # vet + tests of the perfbench/ benchmark module
#   ./check.sh [all]   # everything above (the default)
#
# The bench stage runs the dense-kernel benchmarks (both kernel modes:
# the bitwise Dgemm and the relaxed DgemmFast, plus the small-path
# shapes of BenchmarkDgemmSmall) into
# bench-out/kernel-bench.txt, writes bench-out/BENCH_small.json (suite
# wall times in both kernel modes + kernel GFLOPS, including the
# _fastmath entries) plus a Chrome trace and the analyze-time tile
# autotuner's per-host report (bench-out/autotune.json: probed cache
# sizes, chosen MC/KC/NC/NB), then fails if suite wall time or any
# kernel regressed more than SPARSELU_BENCH_TOL (default 0.25) against
# the committed BENCH_small.json baseline, or if the mean worker
# utilization at the highest worker count fell below the baseline's
# committed utilization_floor (a bitwise-mode metric).
# SPARSELU_BENCH_REPS (default 3) controls repetitions per
# configuration; SPARSELU_KERNEL_BENCHTIME (default 300ms) the Go
# benchmark time per kernel size.
set -eu
cd "$(dirname "$0")"

stage="${1:-all}"

lint() {
	echo "==> gofmt"
	unformatted=$(gofmt -l .)
	if [ -n "$unformatted" ]; then
		echo "gofmt needed on:" >&2
		echo "$unformatted" >&2
		exit 1
	fi

	echo "==> go vet"
	go vet ./...

	echo "==> go build"
	go build ./...

	echo "==> lucheck -audit"
	go run ./cmd/lucheck -audit ./...
}

test_stage() {
	echo "==> go test -race"
	go test -race ./...
}

chaos() {
	# The robustness surface under the race detector, repeated to shake
	# out scheduling-dependent interleavings: injected panics/errors/NaNs,
	# cancellation latency, timeouts, the singularity/perturbation
	# contract, and the async work-stealing engine's starvation/
	# termination and bitwise-parity stress (deque races, skewed costs
	# with injected delays at P=8). SPARSELU_CHAOS_COUNT (default 5) sets
	# the repetition count.
	echo "==> chaos (fault injection + work-stealing stress, -race)"
	go test -race -count "${SPARSELU_CHAOS_COUNT:-5}" \
		-run 'Cancel|Abort|Fault|Injector|Panic|Poison|Timeout|NearSingular|Singular|Perturb|Deque|Starvation|Parity' \
		./internal/sched/ ./internal/core/ ./internal/faultinject/ ./internal/gplu/ .
}

service_stage() {
	# The solve service under stress: the server package's chaos suite
	# (injected panics/NaNs/delays across dozens of concurrent requests,
	# admission shedding, drain, the recovery ladder, batched-solve
	# bitwise parity) under the race detector, then a live smoke of the
	# built daemon over HTTP with a deterministic fault plan.
	# SPARSELU_SERVICE_COUNT (default 2) sets the -race repetition count.
	echo "==> service chaos (-race)"
	go test -race -count "${SPARSELU_SERVICE_COUNT:-2}" ./internal/server/

	echo "==> service smoke (live HTTP, injected fault)"
	tmp=$(mktemp -d)
	go build -o "$tmp/sluserver" ./cmd/sluserver
	# Request #3 is NaN-poisoned: the solve must come back 422/non_finite
	# while its neighbors stay healthy.
	SLUSERVER_FAULTS="3:nan" "$tmp/sluserver" -addr 127.0.0.1:0 2>"$tmp/log" &
	smoke_pid=$!
	smoke_fail() {
		echo "service smoke: $1" >&2
		cat "$tmp/log" >&2 || true
		kill "$smoke_pid" 2>/dev/null || true
		rm -rf "$tmp"
		exit 1
	}
	smoke_addr=""
	i=0
	while [ $i -lt 50 ]; do
		smoke_addr=$(sed -n 's/^sluserver: listening on //p' "$tmp/log")
		[ -n "$smoke_addr" ] && break
		kill -0 "$smoke_pid" 2>/dev/null || smoke_fail "daemon exited before listening"
		sleep 0.1
		i=$((i + 1))
	done
	[ -n "$smoke_addr" ] || smoke_fail "daemon never reported its address"

	curl -sf "http://$smoke_addr/healthz" >/dev/null || smoke_fail "healthz failed"
	# 1: factorize a 2x2 SPD-ish system; 2: solve it; 3: poisoned solve;
	# 4: clean solve again (the fault must not have corrupted the store).
	out=$(curl -s "http://$smoke_addr/v1/factorize" \
		-d '{"matrix":{"n":2,"rows":[0,1,0],"cols":[0,1,1],"vals":[4,3,1]}}')
	case "$out" in *'"fid":"f1"'*) ;; *) smoke_fail "factorize: $out" ;; esac
	out=$(curl -s "http://$smoke_addr/v1/solve" -d '{"fid":"f1","b":[5,3]}')
	case "$out" in *'"x":[1,1]'*) ;; *) smoke_fail "solve: $out" ;; esac
	out=$(curl -s "http://$smoke_addr/v1/solve" -d '{"fid":"f1","b":[5,3]}')
	case "$out" in *'"code":"non_finite"'*) ;; *) smoke_fail "poisoned solve: $out" ;; esac
	out=$(curl -s "http://$smoke_addr/v1/solve" -d '{"fid":"f1","b":[5,3]}')
	case "$out" in *'"x":[1,1]'*) ;; *) smoke_fail "post-fault solve: $out" ;; esac
	# 5: re-factorize the same pattern with scaled values: the symbolic
	# cache must hit (one analysis serves both factorizations).
	out=$(curl -s "http://$smoke_addr/v1/factorize" \
		-d '{"matrix":{"n":2,"rows":[0,1,0],"cols":[0,1,1],"vals":[8,6,2]}}')
	case "$out" in *'"symbolic_cached":true'*) ;; *) smoke_fail "cached factorize: $out" ;; esac
	out=$(curl -s "http://$smoke_addr/metrics")
	case "$out" in *'"faults_injected":1'*) ;; *) smoke_fail "metrics: $out" ;; esac
	case "$out" in *'"hits":1'*) ;; *) smoke_fail "metrics cache hits: $out" ;; esac
	case "$out" in *'"reanalyzes":'*) ;; *) smoke_fail "metrics missing reanalyzes: $out" ;; esac
	case "$out" in *'"analyze_seconds":'*) ;; *) smoke_fail "metrics missing analyze_seconds: $out" ;; esac

	kill -TERM "$smoke_pid"
	wait "$smoke_pid" || smoke_fail "daemon did not drain cleanly"
	rm -rf "$tmp"
	echo "service smoke passed at $smoke_addr"
}

bench() {
	echo "==> kernel benchmarks, both kernel modes (output kept as CI artifact)"
	mkdir -p bench-out
	go test -run '^$' -bench 'BenchmarkDgemm$|BenchmarkDgemmFast$|BenchmarkDgemmSmall$|BenchmarkDtrsm$|BenchmarkDgetrfStatic$' \
		-benchtime "${SPARSELU_KERNEL_BENCHTIME:-300ms}" \
		./internal/blas/ | tee bench-out/kernel-bench.txt

	echo "==> solve benchmarks (output kept as CI artifact)"
	go test -run '^$' -bench 'BenchmarkSolve$|BenchmarkSolveMany$' \
		-benchtime "${SPARSELU_KERNEL_BENCHTIME:-300ms}" \
		. | tee bench-out/solve-bench.txt

	echo "==> paperbench (small suite, both kernel modes, regression gate)"
	go run ./cmd/paperbench \
		-bench bench-out/BENCH_small.json \
		-benchtrace bench-out/trace_small.json \
		-autotunereport bench-out/autotune.json \
		-small \
		-reps "${SPARSELU_BENCH_REPS:-3}" \
		-compare BENCH_small.json \
		-tolerance "${SPARSELU_BENCH_TOL:-0.25}"
}

perfbench_stage() {
	# perfbench/ is a Go module of its own (it builds the solver from
	# this checkout through a replace directive), so the root
	# `go vet ./...` and `go test ./...` do not reach it.
	echo "==> perfbench module (go vet, go test)"
	(cd perfbench && go vet ./... && go test ./...)
}

case "$stage" in
lint) lint ;;
test) test_stage ;;
chaos) chaos ;;
service) service_stage ;;
bench) bench ;;
perfbench) perfbench_stage ;;
all)
	lint
	test_stage
	chaos
	service_stage
	perfbench_stage
	bench
	;;
*)
	echo "check.sh: unknown stage '$stage' (want lint, test, chaos, service, perfbench, bench or all)" >&2
	exit 2
	;;
esac

echo "checks passed ($stage)"
