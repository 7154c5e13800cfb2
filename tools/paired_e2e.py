#!/usr/bin/env python3
"""Paired, alternating end-to-end runs of two revisions.

Run from inside the repository:

    python3 tools/paired_e2e.py --base HEAD~1 --change HEAD \\
        --workload synth48 --pairs 10 --seconds 10

Each revision is checked out in its own `git worktree` and built there by
its own `e2e_bench/run.py` (a short warm-up run per side does the build).
Pair i runs both sides with seed FIRST_SEED + i, base first in even pairs
and change first in odd ones, so drift on the host falls on both sides.
For each metric the report gives each side's median and quartiles, how
many pairs the change won (direction from BENCHMARK.json), the median gap
and whether that gap exceeds the base's interquartile range. Its last line
is one compact JSON object (workload, both SHAs, pairs, each side's
end-to-end medians and the change's win counts), the form appended to
BENCH_history.jsonl. A run whose
result reads `correct: false` or counts failed operations stops the
comparison with exit status 1.

Worktrees go under --workdir and are kept there for reuse when it is
given; otherwise they go to a temporary directory removed at exit.
Standard library only.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile


def git(repo, *args):
    return subprocess.run(["git", "-C", repo] + list(args), check=True,
                          capture_output=True, text=True).stdout.strip()


def checkout(repo, rev, label, workdir):
    sha = git(repo, "rev-parse", "--verify", rev + "^{commit}")
    path = os.path.join(workdir, "%s-%s" % (label, sha[:12]))
    if not os.path.isdir(path):
        git(repo, "worktree", "add", "--detach", path, sha)
    return path, sha


def run_once(tree, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(tree, "e2e_bench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        sys.exit("paired_e2e: run failed in %s (exit %d)"
                 % (tree, proc.returncode))
    result = json.loads(lines[-1])
    if not result.get("correct") or result.get("failed", 0) != 0:
        sys.stdout.write(proc.stdout)
        sys.exit("paired_e2e: refusing the comparison: %s seed %d reads "
                 "correct=%s with %s failed" % (tree, seed,
                                                result.get("correct"),
                                                result.get("failed")))
    return {k: v["value"] for k, v in result["metrics"].items()}


def directions(repo):
    """Better-direction per metric, and the end-to-end metric names."""
    path = os.path.join(repo, "BENCHMARK.json")
    if not os.path.isfile(path):
        return {}, []
    with open(path) as f:
        spec = json.load(f)
    e2e = spec.get("end_to_end", [])
    better = {m["name"]: m["better"] for m in e2e + spec.get("per_layer", [])}
    return better, [m["name"] for m in e2e]


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def wins(base, change, way):
    if way == "lower":
        return sum(c < b for b, c in zip(base, change))
    if way == "higher":
        return sum(c > b for b, c in zip(base, change))
    return None


def report(pairs, better):
    names = sorted(set().union(*(set(b) & set(c) for b, c in pairs)))
    n = len(pairs)
    print("%-32s %-30s %-30s %6s %8s %s" % (
        "metric", "base median [q1, q3]", "change median [q1, q3]",
        "wins", "gap", "gap > base IQR"))
    for name in names:
        base = [b[name] for b, _ in pairs]
        change = [c[name] for _, c in pairs]
        bq1, bmed, bq3 = quartiles(base)
        cq1, cmed, cq3 = quartiles(change)
        won = wins(base, change, better.get(name))
        gap = cmed - bmed
        rel = "%+.1f%%" % (100.0 * gap / bmed) if bmed else "-"
        print("%-32s %-30s %-30s %6s %8s %s" % (
            name, "%.6g [%.6g, %.6g]" % (bmed, bq1, bq3),
            "%.6g [%.6g, %.6g]" % (cmed, cq1, cq3),
            "-" if won is None else "%d/%d" % (won, n), rel,
            "yes" if abs(gap) > bq3 - bq1 else "no"))


def history_line(args, base_sha, change_sha, pairs, better, e2e_names):
    """One compact JSON object for BENCH_history.jsonl: the set's end-to-end
    medians per side and how many pairs the change won on each."""
    names = [m for m in e2e_names
             if all(m in b and m in c for b, c in pairs)]
    side = {k: {m: statistics.median(p[i][m] for p in pairs) for m in names}
            for i, k in enumerate(("base", "change"))}
    return json.dumps({
        "workload": args.workload, "base": base_sha, "change": change_sha,
        "pairs": len(pairs), "seconds": args.seconds,
        "seeds": [args.first_seed, args.first_seed + len(pairs) - 1],
        "trace": args.trace, "base_median": side["base"],
        "change_median": side["change"],
        "wins": {m: wins([b[m] for b, _ in pairs], [c[m] for _, c in pairs],
                         better.get(m)) for m in names},
    }, separators=(",", ":"))


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="parent revision")
    ap.add_argument("--change", required=True, help="revision under test")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--first-seed", type=int, default=1,
                    help="seed of pair 0; pair i uses FIRST_SEED + i")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1 compares the per-layer metrics of traced runs")
    ap.add_argument("--workdir", help="keep the worktrees here for reuse")
    args = ap.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        ap.error("--pairs must be >= 1 and --seconds > 0")

    repo = git(os.getcwd(), "rev-parse", "--show-toplevel")
    workdir = args.workdir or tempfile.mkdtemp(prefix="paired_e2e-")
    os.makedirs(workdir, exist_ok=True)
    trees = []
    try:
        base, base_sha = checkout(repo, args.base, "base", workdir)
        trees.append(base)
        change, change_sha = checkout(repo, args.change, "change", workdir)
        trees.append(change)
        print("base %s, change %s, workload %s, %d pairs of %g s, seeds "
              "%d-%d, trace %d" % (base_sha[:12], change_sha[:12],
                                   args.workload, args.pairs, args.seconds,
                                   args.first_seed,
                                   args.first_seed + args.pairs - 1,
                                   args.trace), flush=True)
        for tree in (base, change):  # builds the tree, then one short run
            run_once(tree, args.workload, args.first_seed, 0.5, args.trace)
        pairs = []
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = [("base", base), ("change", change)]
            if i % 2:
                order.reverse()
            got = {side: run_once(tree, args.workload, seed, args.seconds,
                                  args.trace) for side, tree in order}
            pairs.append((got["base"], got["change"]))
            wall = "traced_wall_s" if args.trace else "wall_s"
            print("pair %d seed %d (%s first): %s base %.6g change %.6g"
                  % (i, seed, order[0][0], wall,
                     got["base"].get(wall, float("nan")),
                     got["change"].get(wall, float("nan"))), flush=True)
        better, e2e_names = directions(repo)
        report(pairs, better)
        print(history_line(args, base_sha, change_sha, pairs, better,
                           e2e_names), flush=True)
    finally:
        if not args.workdir:
            for tree in trees:
                subprocess.run(["git", "-C", repo, "worktree", "remove",
                                "--force", tree], capture_output=True)
            shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
