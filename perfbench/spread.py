#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each end-to-end
metric's run-to-run spread against its bound in BENCHMARK.json.

Run it from the root of the repository:

    python3 perfbench/spread.py --workload service --seeds 1-5

The spread is the distance between the first and third quartile of the
runs (statistics.quantiles(values, n=4)) as a share of their median. It
exits 1 when a spread, other than setup_s's, exceeds the metric's bound,
or when a run fails.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", help="workload to run (repeatable; default: all)")
    ap.add_argument("--seeds", default="1-10", help="seed range, e.g. 1-10")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = args.workload or [w["name"] for w in bench["workloads"]]
    ok = True
    for name in names:
        runs = {}
        for seed in seeds(args.seeds):
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True)
            if out.returncode != 0:
                print(f"{name} seed {seed}: exit {out.returncode}\n{out.stderr}", file=sys.stderr)
                ok = False
                continue
            lines = out.stdout.strip().splitlines()
            res = json.loads(lines[-1])
            for metric, v in res["metrics"].items():
                runs.setdefault(metric, []).append(v["value"])
            stolen = [l.rsplit(":", 1)[1].strip() for l in lines if l.startswith("host CPU time stolen")]
            print(f"{name} seed {seed}: " + " ".join(
                f"{m}={v['value']:.4g}" for m, v in sorted(res["metrics"].items())) +
                f" (stolen {stolen[0] if stolen else '?'})", flush=True)
        for m in bench["end_to_end"]:
            vals = runs.get(m["name"], [])
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = ""
            if spread > m["bound"] and m["name"] != "setup_s":
                flag, ok = "  OVER BOUND", False
            elif spread > m["bound"] / 3:
                flag = "  over a third of the bound"
            print(f"{name:9} {m['name']:18} median {med:12.6g} {m['unit']:5} spread {spread:7.4f} "
                  f"bound {m['bound']:.2f}{flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
