#!/usr/bin/env python3
"""Campaign benchmark: end-to-end throughput, set-up and detection figures,
and a traced per-layer replay, for four workloads (see README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...     # every workload in turn
    python3 perfbench/run.py --print-spec           # the BENCHMARK.json body

Builds perfbench/perfbench.exe from the checkout with dune, runs each unit
of work in a fresh single-threaded process (the fleet workload forks its
own workers), checks the outputs and prints one JSON object as the last
line of standard output.
"""

import argparse
import hashlib
import json
import os
import shutil
import socket
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

RUNNER = os.path.abspath(__file__)
ROOT = os.path.dirname(os.path.dirname(RUNNER))
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
CLI = os.path.join("_build", "default", "bin", "revizor_cli.exe")
WORK = ".perfbench_run"
UNIT_TIMEOUT_S = 170
# Unit processes of the single-threaded workloads run two at a time (one
# per core of the reference host); each is measured in its own CPU time.
JOBS = min(2, os.cpu_count() or 1)

WORKLOADS = [
    ("compliant-arch",
     "Target 1 x CT-SEQ, no speculation or memory operands: memo replays and "
     "the model's architectural path dominate (the paper's A.5.3 throughput setup)"),
    ("compliant-spec",
     "Target 5 x CT-COND, compliant but speculation-heavy: speculative "
     "exploration, dense input fills, many input classes, atlas harvest"),
    ("detect-table4",
     "the ten Table 4 cells x derived seeds, each run to its first violation: "
     "detection time, growth, assists, the hunt path and per-campaign set-up"),
    ("fleet",
     "Orchestrator.run over Target 1 x CT-SEQ shards with checkpoints: the only "
     "workload that writes campaign state and forks worker processes"),
]

# (name, unit, better, bound)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("tc_per_cpu_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# (name, unit, better): the traced run's figures, in BENCHMARK.json order.
PER_LAYER = [
    ("generator.ns_per_tc", "ns", "lower"),
    ("generator.insts_per_tc", "count", "lower"),
    ("input.ns_per_input", "ns", "lower"),
    ("generator.share", "fraction", "lower"),
    ("compiled.ns_per_tc", "ns", "lower"),
    ("compiled.share", "fraction", "lower"),
    ("arena.ns_per_input", "ns", "lower"),
    ("arena.words_per_input", "count", "lower"),
    ("arena.full_fill_share", "fraction", "lower"),
    ("arena.share", "fraction", "lower"),
    ("model.ns_per_input", "ns", "lower"),
    ("model.share", "fraction", "lower"),
    ("analyzer.ns_per_tc", "ns", "lower"),
    ("analyzer.classes_per_tc", "count", "lower"),
    ("analyzer.effective_ratio", "fraction", "higher"),
    ("analyzer.share", "fraction", "lower"),
    ("executor.ns_per_input", "ns", "lower"),
    ("executor.memo_hit_ratio", "fraction", "higher"),
    ("executor.share", "fraction", "lower"),
    ("cpu.ns_per_run", "ns", "lower"),
    ("attack.ns_per_observation", "ns", "lower"),
    ("swap_check.calls", "count", "lower"),
    ("swap_check.ns_per_call", "ns", "lower"),
    ("nesting.calls", "count", "lower"),
    ("nesting.ns_per_call", "ns", "lower"),
    ("hunt.confirm_ratio", "fraction", "higher"),
    ("coverage.ns_per_tc", "ns", "lower"),
    ("ucoverage.ns_per_tc", "ns", "lower"),
    ("ucoverage.features_per_tc", "count", "higher"),
    ("coverage.share", "fraction", "lower"),
    ("ucoverage.share", "fraction", "lower"),
    ("residual.share", "fraction", "lower"),
    ("gc.minor_words_per_tc", "words", "lower"),
    ("gc.promoted_words_per_tc", "words", "lower"),
    ("gc.major_collections", "count", "lower"),
    ("setup.ns_per_campaign", "ns", "lower"),
    ("campaign.ms_per_save", "ms", "lower"),
    ("campaign.kb_per_save", "KiB", "lower"),
    ("fleet.fixed_cpu_ms_per_shard", "ms", "lower"),
    ("merge.ms_per_commit", "ms", "lower"),
    ("fleet.retries", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("ttv_tc_p50", "tc", "lower"),
    ("ttv_cpu_s_p50", "s", "lower"),
    ("ttv_cpu_s_p75", "s", "lower"),
    ("detect_rate", "fraction", "higher"),
]

RUN_SECONDS = 20

# Detection figures, printed by every detect-table4 run (see README.md for
# why they are not bounded end-to-end metrics).
DETECTION = [
    ("ttv_tc_p50", "tc"),
    ("ttv_cpu_s_p50", "s"),
    ("ttv_cpu_s_p75", "s"),
    ("detect_rate", "fraction"),
]


def spec():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def sizes(workload, seconds, tiny):
    """Work per run. A run's work is a fixed function of --seconds (sized
    to take about that long on a 2-core 2.1 GHz Xeon), never of the clock,
    so two runs of one seed do identical work and print one digest."""
    if tiny:
        return {
            "compliant-arch": dict(budget=30, units=2, probes=2, trace_units=1),
            "compliant-spec": dict(budget=30, units=2, probes=2, trace_units=1),
            "detect-table4": dict(budget=30, runs=1, slices=2, probes=1, trace_runs=1),
            "fleet": dict(budget=60, shards=2, units=1, probes=1),
        }[workload]
    def per_run(n):  # n units in a --seconds 20 run, scaled with --seconds
        return max(2, round(n * seconds / RUN_SECONDS))
    return {
        "compliant-arch": dict(budget=1000, units=per_run(8), probes=6, trace_units=1),
        "compliant-spec": dict(budget=300, units=per_run(8), probes=6, trace_units=1),
        "detect-table4": dict(budget=200, runs=max(4, per_run(12)), slices=12, probes=4,
                              trace_runs=4),
        "fleet": dict(budget=400, shards=4, units=per_run(4), probes=4),
    }[workload]


class BenchError(Exception):
    pass


def build(targets):
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet"] + targets,
        env=env, stdout=sys.stderr, stderr=sys.stderr,
        timeout=900,
    )
    if proc.returncode != 0:
        raise BenchError("build failed")


def run_process(args, on_start=None):
    """Run one workload process; return its last-line JSON and what
    [on_start] (called right after the spawn) returned."""
    spawn_ns = time.monotonic_ns()
    proc = subprocess.Popen(
        [EXE] + args + ["--spawn-ns", str(spawn_ns)],
        stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
    )
    try:
        extra = on_start(proc, spawn_ns) if on_start else None
        out, _ = proc.communicate(timeout=UNIT_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError("workload process failed: %s" % " ".join(args))
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        raise BenchError("workload process printed nothing: %s" % " ".join(args))
    return json.loads(lines[-1]), extra


def first_reply_s(sock_path, proc, spawn_ns):
    """The fleet's set-up time, seen from outside: a shard worker's monitor
    socket answers only at test-case boundaries, so the first reply marks
    the fleet's first committed test case."""
    deadline = time.monotonic() + UNIT_TIMEOUT_S
    while proc.poll() is None and time.monotonic() < deadline:
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            s.settimeout(10)
            s.connect(sock_path)
            s.sendall(b"status\n")
            data = s.recv(4096)
            if data:
                reply = json.loads(data.decode().splitlines()[0])
                if reply.get("test_cases", 0) >= 1:
                    return (time.monotonic_ns() - spawn_ns) / 1e9
        except (OSError, ValueError):
            pass
        finally:
            s.close()
        time.sleep(0.001)
    return None


def digest_of(records):
    blob = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def build_id():
    """Identifies one build of the benchmark: its binary and this runner."""
    h = hashlib.sha256()
    for path in (EXE, RUNNER):
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def check_digest(key, digest):
    """Two runs of one build and seed must agree on their outcome digest."""
    path = os.path.join(WORK, "digests.json")
    try:
        with open(path) as f:
            known = json.load(f)
    except (OSError, ValueError):
        known = {}
    previous = known.get(key)
    if previous is None:
        known[key] = digest
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(known, f, indent=1, sort_keys=True)
        os.replace(tmp, path)
        return None
    return previous if previous != digest else None


def campaign_record(c):
    return [c["name"], c["seed"], c["budget"], c["tc"], c["label"], c["stats"]]


# ---- timed runs -------------------------------------------------------------

def timed(workload, seed, seconds, tiny):
    size = sizes(workload, seconds, tiny)
    base = ["run", "--workload", workload, "--seed", str(seed), "--budget", str(size["budget"])]
    setups, units, problems = [], [], []
    if workload == "fleet":
        stop = os.path.join(WORK, "fleet-stop")
        plan = [(u, True) for u in range(size["probes"])] + [(u, False) for u in range(size["units"])]
        for u, probe in plan:
            d = os.path.join(WORK, "fleet-%d" % u)
            sock = os.path.join(d, "shard-000.sock")

            def on_start(proc, spawn_ns):
                setup = first_reply_s(sock, proc, spawn_ns)
                if probe:
                    open(stop, "w").close()
                return setup
            args = base + ["--unit", str(u), "--shards", str(size["shards"]), "--dir", d]
            if os.path.exists(stop):
                os.remove(stop)
            r, setup = run_process(args + (["--probe", "--stop-file", stop] if probe else []),
                                   on_start=on_start)
            shutil.rmtree(d, ignore_errors=True)
            if setup is None:
                raise BenchError("fleet: no shard answered before the fleet ended")
            setups.append(setup)
            if not probe:
                units.append(r)
        if os.path.exists(stop):
            os.remove(stop)
    else:
        if workload == "detect-table4":
            extra = ["--runs", str(size["runs"]), "--slices", str(size["slices"])]
            plan = [extra + ["--slice", str(i)] for i in range(size["slices"])]
        else:
            plan = [["--unit", str(u)] for u in range(size["units"])]
        probes = [base + a + ["--probe"] for a in plan[:size["probes"]]]
        with ThreadPoolExecutor(max_workers=JOBS) as pool:
            results = [r for r, _ in pool.map(run_process, probes + [base + a for a in plan])]
        setups = [r["setup_s"] for r in results]
        units = results[len(probes):]

    tc = sum(u["tc"] for u in units)
    metrics = {
        "setup_s": statistics.median(setups),
        "tc_per_cpu_s": tc / sum(u["cpu_s"] for u in units),
        "peak_rss_mb": statistics.median(u["rss_mb"] for u in units),
    }
    # Wall-clock throughput: printed, not bounded (see README.md).
    lines = ["wall-clock throughput (not bounded):",
             "  %-30s %16.6f %s" % ("tc_per_s", tc / sum(u["wall_s"] for u in units), "1/s")]
    if workload == "fleet":
        attempted = sum(u["shards"] for u in units)
        failed = sum(u["quarantined"] + u["readopted"] for u in units)
        for i, u in enumerate(units):
            if u["violations"]:
                problems.append("fleet unit %d reported %d violations" % (i, u["violations"]))
            if u["tc"] != u["shards"] * size["budget"]:
                problems.append("fleet unit %d committed %d test cases, expected %d"
                                % (i, u["tc"], u["shards"] * size["budget"]))
        records = [[u["merged_md5"], u["stats"]] for u in units]
        lines.append("fleet: %d units x %d shards x %d tc, %d workers"
                     % (len(units), size["shards"], size["budget"],
                        min(size["shards"], os.cpu_count() or 1)))
    else:
        campaigns = sorted((c for u in units for c in u["campaigns"]), key=lambda c: c["index"])
        records = [campaign_record(c) for c in campaigns]
        if workload == "detect-table4":
            attempted = len(campaigns)
            failed = 0
            for c in campaigns:
                if c["label"] is not None and (c["label"] != c["expect"] or not c["verified"]):
                    failed += 1
                    problems.append("%s seed %s: violation %s (expected %s), re-verified: %s"
                                    % (c["name"], c["seed"], c["label"], c["expect"], c["verified"]))
            lines += detection_report(campaigns)
        else:
            attempted = tc
            failed = 0
            for c in campaigns:
                s = c["stats"]
                failed += s["faulted_test_cases"] + s["skipped_pathological"]
                if c["label"] is not None:
                    failed += 1
                    problems.append("%s seed %s: violation %s on a compliant target"
                                    % (c["name"], c["seed"], c["label"]))
                elif c["tc"] != c["budget"]:
                    problems.append("%s seed %s stopped after %d of %d test cases"
                                    % (c["name"], c["seed"], c["tc"], c["budget"]))
            lines.append("%s: %d campaigns x %d tc, %d set-up probes"
                         % (workload, len(campaigns), size["budget"], len(probes)))

    digest = digest_of(records)
    key = "|".join([workload, str(seed), str(seconds), "tiny" if tiny else "full", build_id()])
    previous = check_digest(key, digest)
    if previous is not None:
        problems.append("digest %s differs from an earlier run of this build and seed (%s)"
                        % (digest, previous))
    lines.append("digest: %s (seed %d)" % (digest, seed))
    lines.append("set-up samples: %d; units: %d" % (len(setups), len(units)))
    return metrics, END_TO_END, attempted, failed, problems, lines


def detection_report(campaigns):
    """Time to first violation over all (cell, seed) campaigns; a miss
    counts as the full budget (test cases) and the CPU it spent."""
    tcs = [c["tc"] for c in campaigns]
    cpus = [c["cpu_s"] for c in campaigns]
    detected = [c for c in campaigns if c["label"] is not None and c["label"] == c["expect"]]
    figures = {
        "ttv_tc_p50": statistics.median(tcs),
        "ttv_cpu_s_p50": statistics.median(cpus),
        "ttv_cpu_s_p75": statistics.quantiles(cpus, n=4)[2] if len(cpus) > 1 else cpus[0],
        "detect_rate": len(detected) / len(campaigns),
    }
    lines = ["detection over %d campaigns (%d misses):" % (len(campaigns), len(campaigns) - len(detected))]
    for name, unit in DETECTION:
        lines.append("  %-30s %16.6f %s" % (name, figures[name], unit))
    lines.append("  %-9s %7s %13s %7s %9s %15s %6s" %
                 ("cell", "runs", "tc median", "range", "cpu s med", "cpu s range", "miss"))
    cells = []
    for c in campaigns:
        if c["name"] not in cells:
            cells.append(c["name"])
    for cell in cells:
        cs = [c for c in campaigns if c["name"] == cell]
        tc = [c["tc"] for c in cs]
        cpu = [c["cpu_s"] for c in cs]
        misses = sum(1 for c in cs if c["label"] is None)
        lines.append("  %-9s %7d %13.1f %3d-%-3d %9.3f %7.3f-%-7.3f %6d" % (
            cell, len(cs), statistics.median(tc), min(tc), max(tc),
            statistics.median(cpu), min(cpu), max(cpu), misses))
    return lines


# ---- traced runs ------------------------------------------------------------

STAGE_OF_LAYER = [
    ("generator + input", ["bench.generator", "bench.input"], ["generate"]),
    ("compiled", ["bench.compiled"], ["compile"]),
    ("arena", ["bench.arena"], ["materialize"]),
    ("model", ["bench.model"], ["model"]),
    ("analyzer", ["bench.analyzer"], ["analyze"]),
    ("executor", ["bench.executor"], ["execute"]),
    ("swap_check", ["bench.swap_check"], ["swap_check"]),
    ("nesting", ["bench.nesting"], ["nesting_recheck"]),
    ("coverage + ucoverage + residual", ["bench.coverage", "bench.ucoverage", "bench.tc"],
     ["loop.other"]),
    ("checkpoint", [], ["checkpoint"]),
]


def traced(workload, seed, seconds, tiny):
    size = sizes(workload, seconds, tiny)
    spans = os.path.join(WORK, "spans-%s-%d.jsonl" % (workload, seed))
    d = os.path.join(WORK, "trace-" + workload)
    args = ["trace", "--workload", workload, "--seed", str(seed),
            "--budget", str(size["budget"]), "--dir", d, "--spans", spans]
    if workload == "detect-table4":
        args += ["--runs", str(size["trace_runs"])]
    elif workload == "fleet":
        args += ["--shards", str(size["shards"])]
    else:
        args += ["--units", str(size["trace_units"])]
    os.makedirs(d, exist_ok=True)
    try:
        r, _ = run_process(args)
    finally:
        shutil.rmtree(d, ignore_errors=True)
    problems = ["fidelity: " + e for e in r["errors"]]
    if workload == "fleet" and not r["merged_identical"]:
        problems.append("fleet merged.json differs from Orchestrator.reference")
    lines = ["traced replay: %d campaigns, %d test cases, %d spans -> %s"
             % (r["campaigns"], r["replayed_tc"], r["spans"], spans),
             "fidelity gate: %s" % ("passed" if not r["errors"] else "FAILED"),
             "tracing overhead: %.3f s (traced %.3f s, untraced %.3f s)"
             % (r["traced_wall_s"] - r["untraced_wall_s"], r["traced_wall_s"], r["untraced_wall_s"]),
             "  %-32s %14s   %s" % ("layer (replay self time)", "replay share", "program stage share")]
    shares, stages = r["layer_shares"], r["stage_breakdown"]
    for label, spans_of, stages_of in STAGE_OF_LAYER:
        lines.append("  %-32s %14.4f   %.4f (%s)" % (
            label, sum(shares.get(s, 0.0) for s in spans_of),
            sum(stages.get(s, 0.0) for s in stages_of), " + ".join(stages_of)))
    if workload == "fleet":
        lines.append("fleet merged.json vs Orchestrator.reference: %s"
                     % ("byte-identical" if r["merged_identical"] else "DIFFERENT"))
    return r["metrics"], PER_LAYER, r["replayed_tc"], len(r["errors"]), problems, lines


# ---- entry point ------------------------------------------------------------

def run_workload(workload, seed, seconds, trace, tiny):
    fn = traced if trace else timed
    metrics, declared, attempted, failed, problems, lines = fn(workload, seed, seconds, tiny)
    print("== %s (seed %d, %s run)" % (workload, seed, "traced" if trace else "timed"))
    for line in lines:
        print(line)
    for m in declared:
        print("  %-30s %16.6f %s" % (m[0], metrics[m[0]], m[1]))
    print("attempted: %d  failed: %d" % (attempted, failed))
    for p in problems:
        print("CHECK FAILED: " + p)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m[0]: {"value": metrics[m[0]], "unit": m[1]} for m in declared},
    }
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[w for w, _ in WORKLOADS] + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full",
                    help="tiny: the self-test's minimal sizes")
    ap.add_argument("--print-spec", action="store_true",
                    help="print the BENCHMARK.json this benchmark defines")
    a = ap.parse_args()
    if a.print_spec:
        print(json.dumps(spec(), indent=2))
        return 0
    if a.workload is None:
        ap.error("--workload is required")
    os.chdir(ROOT)
    try:
        build(["./perfbench/perfbench.exe"])
        os.makedirs(WORK, exist_ok=True)
        names = [w for w, _ in WORKLOADS] if a.workload == "all" else [a.workload]
        results = {}
        for w in names:
            results[w] = run_workload(w, a.seed, a.seconds, a.trace == 1, a.size == "tiny")
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    if len(results) == 1:
        result = next(iter(results.values()))
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s.%s" % (w, k): v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
