#!/usr/bin/env python3
"""A/B comparison of bench/suite between a parent revision and a change.

Runs the A/B protocol of bench/suite/README.md as one command:

    tools/suite_ab.py [--parent REV] [--change REV] [--workload W ...]
                      [--pairs N] [--first-seed S] [--claim METRIC]
                      [--workdir DIR] [--json PATH]

1. Materialises both sides under --workdir: the parent revision (default
   HEAD) with `git archive`, and the change, by default a snapshot of the
   working tree (tracked and untracked files, minus what .gitignore
   excludes) or, with --change, another revision. Both sides get the
   change's bench/suite/ and BENCHMARK.json, and each is built before
   anything is timed. A side whose content is unchanged since the last
   call with the same --workdir keeps its build.
2. Runs N pairs per workload through each tree's bench/suite/run.sh,
   alternating which side goes first, pair i on seed first-seed + i.
3. Prints, per end-to-end metric of BENCHMARK.json, each side's median and
   quartiles, the change in percent, the change's wins and ties, the
   parent's spread (interquartile range / median) and the verdict against
   the metric's bound: "better" when every change run beats every parent
   run, else "unresolved" when the parent's spread exceeds the bound, else
   "REGRESSED" when the change's median is worse than the parent's by more
   than the bound, else "ok". With --claim METRIC it also gives the gain
   verdict per workload: at least 9 wins in 10 pairs, ties counting for
   neither side, and a median difference larger than the parent's
   interquartile range.
4. On workloads whose virtual metrics are deterministic (msg_rate,
   msg_rate_lossy, coll_two_level) it compares lat_p50_us, lat_p99_us and
   goodput_MBps seed by seed.

Exits 1 on a payload mismatch or a failed run, or when a workload's share
of failed operations is higher on the change than on the parent. It reads
BENCHMARK.json and bench/suite/ and writes only under --workdir.
"""
import argparse
import hashlib
import json
import math
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile

REPO = pathlib.Path(__file__).resolve().parents[1]
BENCH = json.loads((REPO / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
METRICS = BENCH["end_to_end"]
VIRTUAL_METRICS = ("lat_p50_us", "lat_p99_us", "goodput_MBps")
# The harness both sides run: the change's copy.
HARNESS = ("bench/suite", "BENCHMARK.json")


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    p.add_argument("--parent", default="HEAD", help="parent revision (default HEAD)")
    p.add_argument("--change", help="change revision (default: the working tree)")
    p.add_argument("--workload", action="append", choices=WORKLOADS,
                   help="workload to run (repeatable; default all)")
    p.add_argument("--pairs", type=int, default=10, help="pairs per workload (default 10)")
    p.add_argument("--first-seed", type=int, default=101,
                   help="seed of the first pair (default 101)")
    p.add_argument("--claim", choices=[m["name"] for m in METRICS],
                   help="end-to-end metric the change claims to improve")
    p.add_argument("--workdir", help="where the trees live (default: a temporary "
                   "directory, removed at exit)")
    p.add_argument("--json", help="write every run's result to this file")
    args = p.parse_args()
    if args.pairs < 1:
        p.error("--pairs takes a whole number >= 1")
    return args


def git(*argv, **kw):
    return subprocess.run(["git", "-C", str(REPO), *argv], check=True, **kw)


def worktree_files():
    """Tracked and untracked, not ignored, files of the working tree."""
    out = git("ls-files", "-z", "--cached", "--others", "--exclude-standard",
              stdout=subprocess.PIPE).stdout
    names = sorted({n for n in out.decode().split("\0") if n})
    return [n for n in names if (REPO / n).is_file()]


def commit_of(rev):
    return git("rev-parse", "--verify", f"{rev}^{{commit}}", stdout=subprocess.PIPE,
               text=True).stdout.strip()


def files_hash(root, names):
    h = hashlib.sha256()
    for name in names:
        h.update(name.encode() + b"\0" + (root / name).read_bytes() + b"\0")
    return h.hexdigest()


def harness_files(tree):
    paths = []
    for rel in HARNESS:
        p = tree / rel
        paths += [p] if p.is_file() else [f for f in p.rglob("*") if f.is_file()]
    return sorted(str(f.relative_to(tree)) for f in paths)


def materialise(dest, commit, source, harness_from=None):
    """Fills dest with commit (None: the working tree) and, if given,
    harness_from's harness. `source` names that content; a tree already
    holding it keeps its build."""
    stamp = dest / ".suite_ab_source"
    if stamp.is_file() and stamp.read_text() == source:
        return
    if dest.exists():
        shutil.rmtree(dest)
    dest.mkdir(parents=True)
    if commit is not None:
        archive = git("archive", "--format=tar", commit, stdout=subprocess.PIPE).stdout
        subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    else:
        for name in worktree_files():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(REPO / name, dest / name)
    for rel in HARNESS if harness_from is not None else ():
        src, dst = harness_from / rel, dest / rel
        if dst.is_dir():
            shutil.rmtree(dst)
        elif dst.exists():
            dst.unlink()
        if src.is_dir():
            shutil.copytree(src, dst)
        else:
            shutil.copy2(src, dst)
    stamp.write_text(source)


def run_suite(tree, workload, seed, extra=()):
    """One run.sh call; returns (result or None, deterministic flag)."""
    cmd = ["bash", str(tree / "bench/suite/run.sh"), "--workload", workload,
           "--seed", str(seed), *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        return None, False
    result = json.loads(lines[-1])
    res_file = tree / "build/suite/results" / f"{workload}_seed{seed}.json"
    deterministic = json.loads(res_file.read_text()).get("deterministic", False)
    return result, deterministic


def quartiles(vals):
    if len(vals) < 2:
        return vals[0], vals[0]
    q = statistics.quantiles(vals, n=4)
    return q[0], q[2]


def fmt(v):
    return f"{v:.4g}" if abs(v) < 1e4 else f"{v:.0f}"


def report(workload, runs, claim, deterministic):
    """Prints one workload's table; True when its failed-op share rose."""
    parent = [r["parent"] for r in runs]
    change = [r["change"] for r in runs]
    print(f"\n## {workload}: {len(runs)} pairs, seeds "
          f"{runs[0]['seed']}-{runs[-1]['seed']}")
    print(f"{'metric':<15} {'parent median [q1, q3]':<30} {'change median [q1, q3]':<30}"
          f" {'delta':>7} {'wins':>4} {'ties':>4} {'bound':>5} {'spread':>6}  verdict")
    claim_verdict = ""
    for m in METRICS:
        name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
        pv = [p["metrics"][name]["value"] for p in parent]
        cv = [c["metrics"][name]["value"] for c in change]
        pm, cm = statistics.median(pv), statistics.median(cv)
        pq, cq = quartiles(pv), quartiles(cv)
        delta = (cm - pm) / pm if pm else 0.0
        worse = delta if lower else -delta
        wins = sum((c < p) if lower else (c > p) for p, c in zip(pv, cv))
        ties = sum(c == p for p, c in zip(pv, cv))
        spread = (pq[1] - pq[0]) / pm if pm else 0.0
        if (max(cv) < min(pv)) if lower else (min(cv) > max(pv)):
            verdict = "better"
        elif spread > bound:
            verdict = "unresolved"
        elif worse > bound:
            verdict = "REGRESSED"
        else:
            verdict = "ok"
        pcol = f"{fmt(pm)} [{fmt(pq[0])}, {fmt(pq[1])}]"
        ccol = f"{fmt(cm)} [{fmt(cq[0])}, {fmt(cq[1])}]"
        print(f"{name:<15} {pcol:<30} {ccol:<30} {delta * 100:+6.1f}% {wins:>4} {ties:>4}"
              f" {bound:>5} {spread:>6.3f}  {verdict}")
        if name == claim:
            iqr = pq[1] - pq[0]
            gain = pm - cm if lower else cm - pm
            need = math.ceil(0.9 * len(runs))
            passed = wins >= need and gain > iqr
            claim_verdict = (f"claim {name} on {workload}: "
                             f"{'PASS' if passed else 'FAIL'} ({wins}/{len(runs)} wins, "
                             f"need {need}; median gain {fmt(gain)} vs parent IQR {fmt(iqr)})")
    pf = sum(p["failed"] for p in parent) / max(1, sum(p["attempted"] for p in parent))
    cf = sum(c["failed"] for c in change) / max(1, sum(c["attempted"] for c in change))
    print(f"failed-op share: parent {pf:.3g}, change {cf:.3g}"
          + ("  HIGHER" if cf > pf else ""))
    if deterministic:
        diffs = [f"seed {r['seed']} {n}: {r['parent']['metrics'][n]['value']} -> "
                 f"{r['change']['metrics'][n]['value']}"
                 for r in runs for n in VIRTUAL_METRICS
                 if r["parent"]["metrics"][n]["value"] != r["change"]["metrics"][n]["value"]]
        print("virtual metrics seed by seed: " +
              ("identical" if not diffs else "DIFFER\n  " + "\n  ".join(diffs)))
    if claim_verdict:
        print(claim_verdict)
    return cf > pf


def compare(args, work):
    workloads = args.workload or WORKLOADS
    trees = {"parent": work / "parent", "change": work / "change"}
    change_commit = commit_of(args.change) if args.change else None
    change_source = change_commit or "worktree-" + files_hash(REPO, worktree_files())
    materialise(trees["change"], change_commit, change_source)
    # The parent runs the change's harness, so its content names both.
    parent_commit = commit_of(args.parent)
    materialise(trees["parent"], parent_commit,
                parent_commit + "+" + files_hash(trees["change"], harness_files(trees["change"])),
                harness_from=trees["change"])
    print(f"# parent {args.parent} -> {trees['parent']}")
    print(f"# change {args.change or 'working tree'} -> {trees['change']}")

    # Build both sides (run.sh builds, then a one-second smoke run).
    for side, tree in trees.items():
        print(f"# building {side}", flush=True)
        result, _ = run_suite(tree, workloads[0], 1, ("--smoke",))
        if result is None:
            print(f"suite_ab: {side} failed to build or run", file=sys.stderr)
            return 1

    status = 0
    record = {}
    for w in workloads:
        runs = []
        deterministic = False
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed}
            for side in order:
                result, det = run_suite(trees[side], w, seed)
                if result is None or not result["correct"]:
                    print(f"suite_ab: {w} seed {seed} on the {side}: payload mismatch "
                          "or failed run", file=sys.stderr)
                    return 1
                pair[side] = result
                deterministic = deterministic or det
            print(f"# {w} seed {seed}: host_us_per_op parent "
                  f"{fmt(pair['parent']['metrics']['host_us_per_op']['value'])} change "
                  f"{fmt(pair['change']['metrics']['host_us_per_op']['value'])}", flush=True)
            runs.append(pair)
        record[w] = runs
        if report(w, runs, args.claim, deterministic):
            status = 1
    if args.json:
        pathlib.Path(args.json).write_text(json.dumps(record, indent=1))
    return status


def main():
    args = parse_args()
    if args.workdir:
        return compare(args, pathlib.Path(args.workdir).resolve())
    with tempfile.TemporaryDirectory(prefix="suite_ab_") as tmp:
        return compare(args, pathlib.Path(tmp))


if __name__ == "__main__":
    sys.exit(main())
