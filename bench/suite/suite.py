#!/usr/bin/env python3
"""Runs the suite's workloads, one driver process each, and summarises.

Called by run.sh, which builds the driver first:

    suite.py --driver PATH --out DIR [--workload W] [--seed N] [--seconds S]
             [--trace [0|1]] [--repeat K] [--smoke]

Every run measures for run_seconds from BENCHMARK.json (1 s with --smoke),
so two sides of a comparison always measure the same amount. --seconds is
part of the calling convention of BENCHMARK.json's command and must equal
run_seconds. Every workload's lines are passed through. With --trace each
workload runs once untraced (the end-to-end numbers) and once traced (the
per-layer numbers, the tracing overhead and a Chrome trace). With one
workload and no --repeat the last line is that workload's JSON result:
the end-to-end metrics, or with --trace 1 the per-layer ones. With
--repeat K the whole set runs K times and each end-to-end metric's spread,
(max - min) / median, is printed next to its bound from BENCHMARK.json;
the exit status is non-zero when a spread exceeds its bound, a run fails
or a payload check fails.
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
# On a workload whose results file says "deterministic" (no measured host
# work in the virtual clock) these are identical at a fixed seed.
VIRTUAL_METRICS = {"lat_p50_us", "lat_p99_us", "goodput_MBps"}


def parse_args():
    p = argparse.ArgumentParser()
    p.add_argument("--driver", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", nargs="?", const="1", choices=["0", "1"], default="0")
    p.add_argument("--repeat", type=int, default=1)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args()
    if args.seconds is not None and args.seconds != BENCH["run_seconds"]:
        p.error(f"--seconds must be run_seconds ({BENCH['run_seconds']}) from BENCHMARK.json")
    if args.repeat < 1:
        p.error("--repeat takes a whole number >= 1")
    return args


def run_driver(args, workload, seconds, trace):
    """Runs one workload; returns its JSON result, or None if it failed."""
    cmd = [args.driver, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--out", args.out]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    except subprocess.TimeoutExpired:
        print(f"suite: {workload} did not finish within 170 s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    sys.stdout.flush()
    if proc.returncode != 0 or not lines:
        print(f"suite: {workload} exited with status {proc.returncode}", file=sys.stderr)
        return None
    result = json.loads(lines[-1])
    if not result["correct"]:
        print(f"suite: {workload} reported incorrect output", file=sys.stderr)
        return None
    return result


def main():
    args = parse_args()
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    seconds = 1 if args.smoke else BENCH["run_seconds"]
    workloads = [args.workload] if args.workload else WORKLOADS
    traced = args.trace == "1"

    sets = []  # per repetition: {workload: {metric: value}}
    last = None  # the JSON result the single-workload form ends with
    for rep in range(args.repeat):
        if args.repeat > 1:
            print(f"# set {rep + 1} of {args.repeat}")
        values = {}
        for w in workloads:
            r = run_driver(args, w, seconds, trace=False)
            if r is None:
                return 1
            values[w] = {k: v["value"] for k, v in r["metrics"].items()}
            last = r
            if traced:
                last = run_driver(args, w, seconds, trace=True)
                if last is None:
                    return 1
        sets.append(values)

    summary = pathlib.Path(args.out) / f"suite_seed{args.seed}.json"
    summary.write_text(json.dumps({"seed": args.seed, "seconds": seconds,
                                   "smoke": args.smoke, "sets": sets}, indent=1))
    print(f"# results: {summary}")

    ok = True
    if args.repeat > 1:
        print("# spread over sets: workload metric spread bound verdict")
        for w in workloads:
            results = pathlib.Path(args.out) / "results" / f"{w}_seed{args.seed}.json"
            deterministic = json.loads(results.read_text())["deterministic"]
            for name, bound in bounds.items():
                vals = [s[w][name] for s in sets]
                spread = (max(vals) - min(vals)) / statistics.median(vals)
                verdict = "ok" if spread <= bound else "EXCEEDS"
                if deterministic and name in VIRTUAL_METRICS:
                    verdict += " identical" if len(set(vals)) == 1 else " DIFFERS"
                    ok = ok and len(set(vals)) == 1
                ok = ok and spread <= bound
                print(f"{w} {name} {spread:.4f} {bound} {verdict}")
    elif len(workloads) == 1:
        print(json.dumps(last))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
