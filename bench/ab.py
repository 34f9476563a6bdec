#!/usr/bin/env python3
"""A/B the campaign benchmark: this checkout against a base revision.

    python3 bench/ab.py --base REV [--workload W] [--pairs N] [--seconds S]

Checks REV out as a git worktree under .perfbench_run/ (removed on exit)
and runs perfbench/run.py from both trees, one seed per pair, the base
first in even pairs and second in odd ones. For every end-to-end metric
of BENCHMARK.json it prints the per-pair values, both medians, the base's
interquartile range and the change's wins, and for every pair whether the
two outcome digests agree.

Exits 1 on a failed run, a digest mismatch, or a median worse than the
metric's bound (relative to the base median). A metric whose base IQR is
wider than its bound cannot be told from noise: unless every change run
reads better than every base run, it is reported "unresolved" and does
not fail.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class RunFailed(Exception):
    pass


def git(*args):
    return subprocess.run(["git", "-C", ROOT] + list(args), check=True,
                          capture_output=True, text=True).stdout.strip()


def run(tree, workload, seed, seconds):
    """One perfbench run from [tree]: (end-to-end values, outcome digest)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(tree, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    digests = [l.split()[1] for l in lines if l.startswith("digest: ")]
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode != 0 or not result or not result.get("correct") or len(digests) != 1:
        tail = "\n".join((proc.stdout + proc.stderr).splitlines()[-15:])
        raise RunFailed("%s seed %d in %s failed (exit %d):\n%s"
                        % (workload, seed, tree, proc.returncode, tail))
    return {k: v["value"] for k, v in result["metrics"].items()}, digests[0]


def iqr(xs):
    if len(xs) < 2:
        return 0.0
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[2] - q[0]


def judge(metric, base, change):
    """The report line of one metric, and whether it fails the gate."""
    mb, mc = statistics.median(base), statistics.median(change)
    spread = iqr(base) / mb if mb else 0.0
    lower = metric["better"] == "lower"
    loss = ((mc - mb) if lower else (mb - mc)) / mb if mb else 0.0
    wins = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
    all_better = max(change) < min(base) if lower else min(change) > max(base)
    if spread > metric["bound"] and not all_better:
        verdict = "unresolved (base IQR %.1f%% > bound %.0f%%)" % (100 * spread, 100 * metric["bound"])
    elif loss > metric["bound"]:
        verdict = "WORSE by %.1f%% > bound %.0f%%" % (100 * loss, 100 * metric["bound"])
    else:
        verdict = "ok"
    line = ("  %s [%s, %s is better, bound %.0f%%]\n"
            "    base -> change: %s\n"
            "    median %.4g -> %.4g (%+.1f%%), base IQR %.4g (%.1f%%), change wins %d/%d: %s"
            % (metric["name"], metric["unit"], metric["better"], 100 * metric["bound"],
               "  ".join("%.4g -> %.4g" % bc for bc in zip(base, change)),
               mb, mc, 100 * (mc - mb) / mb if mb else 0.0, iqr(base), 100 * spread,
               wins, len(base), verdict))
    return line, verdict.startswith("WORSE")


def ab(base_tree, workloads, metrics, pairs, seconds):
    failed = False
    for w in workloads:
        values = {"base": [], "change": []}
        agree = []
        for i in range(pairs):
            seed = i + 1
            order = [("base", base_tree), ("change", ROOT)]
            if i % 2:
                order.reverse()
            digests = {}
            for side, tree in order:
                vals, digests[side] = run(tree, w, seed, seconds)
                values[side].append(vals)
            agree.append(digests["base"] == digests["change"])
            print("%s pair %d (seed %d, %s first): digest base %s, change %s%s"
                  % (w, i + 1, seed, order[0][0], digests["base"], digests["change"],
                     "" if agree[-1] else "  MISMATCH"), flush=True)
        print("== %s: %d pairs, %d s runs, digests %d/%d identical"
              % (w, pairs, seconds, sum(agree), pairs))
        failed |= not all(agree)
        for m in metrics:
            line, worse = judge(m, [v[m["name"]] for v in values["base"]],
                                [v[m["name"]] for v in values["change"]])
            print(line, flush=True)
            failed |= worse
    return failed


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="git revision to compare against")
    ap.add_argument("--workload", choices=names, help="one workload (default: all)")
    ap.add_argument("--pairs", type=int, default=5, help="runs per side (default 5)")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"],
                    help="perfbench --seconds (default %d)" % spec["run_seconds"])
    a = ap.parse_args()
    if a.pairs < 1 or a.seconds < 1:
        ap.error("--pairs and --seconds must be at least 1")
    try:
        rev = git("rev-parse", "--verify", a.base + "^{commit}")
    except subprocess.CalledProcessError:
        ap.error("unknown revision %r" % a.base)
    tree = os.path.join(ROOT, ".perfbench_run", "ab-base-%d" % os.getpid())
    # A SIGTERM (a cancelled CI job) still removes the worktree.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        git("worktree", "add", "--detach", tree, rev)
    except subprocess.CalledProcessError as e:
        print("ab.py: git worktree add failed: %s" % e.stderr.strip(), file=sys.stderr)
        return 2
    try:
        print("base %s (%s) vs change %s (%s, working tree)"
              % (a.base, rev[:12], git("rev-parse", "--short=12", "HEAD"), ROOT), flush=True)
        failed = ab(tree, [a.workload] if a.workload else names, spec["end_to_end"],
                    a.pairs, a.seconds)
    except RunFailed as e:
        print("RUN FAILED: %s" % e, flush=True)
        failed = True
    finally:
        try:
            git("worktree", "remove", "--force", tree)
        except subprocess.CalledProcessError:
            shutil.rmtree(tree, ignore_errors=True)
            git("worktree", "prune")
    print("A/B: %s" % ("FAILED" if failed else "passed"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
