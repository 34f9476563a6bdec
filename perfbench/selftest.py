#!/usr/bin/env python3
"""Tiny-size self-test of the campaign benchmark.

    python3 perfbench/selftest.py

Runs every workload's timed run twice and its traced run once at the
smallest sizes, and checks that:
  - each run exits 0 and ends with the JSON result object, correct;
  - every end-to-end (timed) or per-layer (traced) metric is printed with
    its unit, in the result and in the human-readable report;
  - the outcome digest repeats across the two timed runs;
  - the traced run's fidelity gate passes and `revizor trace report`
    reads its span file;
  - BENCHMARK.json is exactly what run.py defines;
  - in a directory holding only BENCHMARK.json and perfbench/, the
    benchmark exits non-zero without printing a result.
Exits 0 when every check passes.
"""

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import run as bench  # noqa: E402

failures = []


def check(ok, what):
    print("%s %s" % ("ok  " if ok else "FAIL", what))
    if not ok:
        failures.append(what)


def invoke(workload, trace, cwd=ROOT):
    p = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--size", "tiny", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=900)
    return p.returncode, p.stdout, p.stderr


def result_of(stdout):
    lines = [l for l in stdout.splitlines() if l.strip()]
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def check_result(name, rc, out, declared):
    r = result_of(out)
    check(rc == 0 and r is not None, "%s: exit 0 and a JSON result" % name)
    if r is None:
        return None
    check(sorted(r) == ["attempted", "correct", "failed", "metrics"], "%s: result keys" % name)
    check(r.get("correct") is True, "%s: outputs correct" % name)
    check(isinstance(r.get("attempted"), int) and r["attempted"] >= 1
          and isinstance(r.get("failed"), int), "%s: attempted/failed counts" % name)
    metrics = r.get("metrics", {})
    check(list(metrics) == [m[0] for m in declared], "%s: every declared metric" % name)
    for m in declared:
        got = metrics.get(m[0], {})
        check(got.get("unit") == m[1] and isinstance(got.get("value"), (int, float)),
              "%s: %s in %s" % (name, m[0], m[1]))
        check(re.search(r"^\s+%s\s+\S+ %s$" % (re.escape(m[0]), re.escape(m[1])), out, re.M)
              is not None, "%s: %s printed with its unit" % (name, m[0]))
    check(re.search(r"^attempted: \d+  failed: \d+$", out, re.M) is not None,
          "%s: attempted and failed printed" % name)
    return r


def digest_line(out):
    m = re.search(r"^digest: (\S+)", out, re.M)
    return m.group(1) if m else None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        check(json.load(f) == bench.spec(), "BENCHMARK.json matches run.py --print-spec")

    for workload, _ in bench.WORKLOADS:
        digests = []
        for attempt in (1, 2):
            rc, out, err = invoke(workload, 0)
            name = "%s timed #%d" % (workload, attempt)
            check_result(name, rc, out, bench.END_TO_END)
            printed = [("tc_per_s", "1/s")]
            if workload == "detect-table4":
                printed += bench.DETECTION
            for metric, unit in printed:
                check(re.search(r"^\s+%s\s+\S+ %s$" % (re.escape(metric), re.escape(unit)), out, re.M)
                      is not None, "%s: %s printed with its unit" % (name, metric))
            digests.append(digest_line(out))
            if rc != 0:
                sys.stderr.write(err)
        check(digests[0] is not None and digests[0] == digests[1],
              "%s: digest repeats (%s)" % (workload, digests))

        rc, out, err = invoke(workload, 1)
        check_result("%s traced" % workload, rc, out, bench.PER_LAYER)
        if rc != 0:
            sys.stderr.write(err)
        check("fidelity gate: passed" in out, "%s: fidelity gate passed" % workload)
        check("tracing overhead:" in out, "%s: tracing overhead printed" % workload)
        spans = os.path.join(bench.WORK, "spans-%s-5.jsonl" % workload)
        check(os.path.exists(os.path.join(ROOT, spans)), "%s: span file written" % workload)
        subprocess.run(["dune", "build", "--root", ".", "--display", "quiet", "./bin/revizor_cli.exe"],
                       cwd=ROOT, check=True, env=dict(os.environ, DUNE_CACHE="disabled"))
        rep = subprocess.run([os.path.join(ROOT, bench.CLI), "trace", "report", spans],
                             cwd=ROOT, capture_output=True, text=True)
        check(rep.returncode == 0 and "bench.tc" in rep.stdout,
              "%s: revizor trace report reads the span file" % workload)

    bare = os.path.join(ROOT, bench.WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    rc, out, _ = invoke("compliant-arch", 0, cwd=bare)
    check(rc != 0 and result_of(out) is None,
          "benchmark-only directory: non-zero exit, no result")
    shutil.rmtree(bare, ignore_errors=True)

    print("self-test: %s" % ("passed" if not failures else "%d checks FAILED" % len(failures)))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
