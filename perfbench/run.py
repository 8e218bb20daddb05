#!/usr/bin/env python3
"""Customer-journey benchmark of the IP delivery stack.

Run from the repository root:

    python3 perfbench/run.py --workload journey --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

It builds the Cargo package in perfbench/ (release, offline), runs one
workload in a fresh process and prints as its last stdout line one JSON
object with the keys correct, attempted, failed and metrics. With --trace 0
the metrics are the end-to-end ones the binary measures. With --trace 1 the
binary writes its spans as a Chrome trace-event file and the per-layer
metrics are computed here, from that file alone. The exit code is nonzero
when any output was wrong or the run could not complete.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "perfbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def build():
    """Builds the benchmark binary; cargo's output goes to stderr."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(PACKAGE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"perfbench: build failed: {e}")
    if done.returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(target_dir(), "release", "ipd-perfbench")


def provenance():
    """The commit when the checkout is a git work tree, and a digest of
    the sources either way (the benchmark also runs from plain copies)."""
    commit = "none"
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              timeout=10, check=False)
        if done.returncode == 0:
            commit = done.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "Cargo.toml")]
    for top in ("src", "crates", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = [d for d in dirnames if not d.startswith(".") and d != "target"]
            paths += [os.path.join(dirpath, f) for f in filenames if f.endswith((".rs", ".toml", ".py"))]
    for path in sorted(paths):
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return commit, digest.hexdigest()[:16]


def run(exe, workload, seed, seconds, trace, extra=()):
    """Runs the binary once; returns (exit code, result dict or None)."""
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), *extra]
    trace_path = None
    if trace:
        trace_path = os.path.join(target_dir(), "perfbench-trace", f"{workload}.json")
        os.makedirs(os.path.dirname(trace_path), exist_ok=True)
        cmd += ["--trace-file", trace_path]
    env = {k: v for k, v in os.environ.items() if k != "IPD_WIRE_MODE"}
    try:
        done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} did not finish in {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, None
    lines = done.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return done.returncode or 1, None
    if trace and done.returncode in (0, 1):
        with open(trace_path) as f:
            result["metrics"] = per_layer(json.load(f))
    return done.returncode, result


# Spans of the traced ops whose self time is reported per op as <span>_ms.
OP_SPANS = ["modgen.generate", "core.register", "wire.connect", "wire.close", "core.manifest",
            "core.fetch", "core.sealed_design", "core.unseal", "netlist.read_edif", "sim.compile",
            "cosim.connect", "cosim.batch_run", "cosim.set", "cosim.get", "cosim.cycle",
            "bench.op"]
# Spans of the uncontended replays, reported per replayed op.
REPLAY_SPANS = ["hdl.flatten", "lint.structural", "estimate.sta", "lint.timed",
                "netlist.edif_write", "core.seal", "cosim.local_batch", "sim.vector_sweep",
                "sim.local_event"]


def per_layer(doc):
    """Per-layer metrics from a Chrome trace-event document."""
    events = doc["traceEvents"]
    spans = [e for e in events if e["ph"] == "X"]
    run_counters = next(e["args"] for e in events if e["ph"] == "C" and e["name"] == "run")
    covered = defaultdict(float)
    for s in spans:
        if s["args"]["parent"] >= 0:
            covered[s["args"]["parent"]] += s["dur"]
    self_ms = defaultdict(float)
    calls = defaultdict(int)
    for s in spans:
        self_ms[s["name"]] += (s["dur"] - covered[s["args"]["id"]]) / 1e3
        calls[s["name"]] += 1
    ops = [s for s in spans if s["name"] == "bench.op"]
    n_ops = max(len(ops), 1)
    n_replays = max(calls["bench.replay"], 1)

    def op_total(key):
        return sum(s["args"].get(key, 0) for s in ops)

    def op_arg(key):
        return op_total(key) / n_ops

    def per_call(name):
        return self_ms[name] / calls[name] if calls[name] else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for name in OP_SPANS:
        m[name + "_ms"] = self_ms[name] / n_ops
    for name in REPLAY_SPANS:
        m[name + "_ms"] = self_ms[name] / n_replays
    m["bench.self_ms"] = m.pop("bench.op_ms")
    gated = m["lint.timed_ms"] + m["netlist.edif_write_ms"] + m["core.seal_ms"]
    m["core.sealed_design_wait_ms"] = m["core.sealed_design_ms"] - gated if gated else 0.0
    m["cosim.codec_wire_ms"] = (m["cosim.batch_run_ms"] - m["cosim.local_batch_ms"]
                                if calls["cosim.local_batch"] else 0.0)
    remote_step = sum(s["dur"] for s in ops) / 1e3 / n_ops
    m["cosim.remote_over_local"] = ratio(remote_step, per_call("sim.local_event"))
    m["wire.round_trips_per_op"] = op_arg("round_trips")
    m["wire.errors_per_op"] = run_counters["server_wire_errors"] / n_ops
    hits, misses = run_counters["store_hits"], run_counters["store_misses"]
    m["pack.store_hit_ratio"] = ratio(hits, hits + misses)
    m["core.not_modified_share"] = ratio(run_counters["store_not_modified"], op_total("fetch_items"))
    m["core.audit_records_per_op"] = run_counters["audit_records"] / n_ops
    m["hdl.prims_per_op"] = op_arg("prims")
    m["netlist.edif_bytes_per_op"] = op_arg("edif_bytes")
    m["sim.vectors_per_op"] = op_arg("vectors")
    untraced, traced = run_counters["ops_per_s_untraced"], run_counters["ops_per_s_traced"]
    m["trace.overhead_pct"] = ratio(untraced - traced, untraced) * 100.0
    units = {entry["name"]: entry["unit"] for entry in BENCHMARK["per_layer"]}
    assert set(m) == set(units), sorted(set(m) ^ set(units))
    return {name: {"value": value, "unit": units[name]} for name, value in m.items()}


def self_test(exe):
    """Short runs of every workload must print exactly the metrics
    BENCHMARK.json names, and a corrupted product must count as a failure."""
    wanted = {0: {m["name"] for m in BENCHMARK["end_to_end"]},
              1: {m["name"] for m in BENCHMARK["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        for trace in (0, 1):
            code, result = run(exe, workload, 1, 1, trace)
            got = set(result["metrics"]) if result else set()
            if code != 0 or not result or not result["correct"] or got != wanted[trace]:
                problems.append(f"{workload} --trace {trace}: exit {code}, "
                                f"missing {sorted(wanted[trace] - got)}, extra {sorted(got - wanted[trace])}")
    # Op 0 is customer 0's first journey op; op 40 is a cosim_events step
    # past the pipeline latency.
    for workload, op in (("journey", 0), ("cosim_sweep", 0), ("cosim_events", 40)):
        code, result = run(exe, workload, 1, 1, 0, ["--corrupt-op", str(op)])
        if code == 0 or not result or result["correct"] or result["failed"] < 1 \
                or result["metrics"]["ok_share"]["value"] >= 1:
            problems.append(f"{workload}: corrupted product of op {op} was not counted as failed")
    for p in problems:
        print(f"self-test: {p}")
    print("self-test: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and None in (args.workload, args.seed, args.seconds):
        parser.error("--workload, --seed and --seconds are required")
    exe = build()
    if args.self_test:
        return self_test(exe)
    commit, tree = provenance()
    print(f"perfbench: commit={commit} tree={tree} nproc={os.cpu_count()} seed={args.seed}")
    code, result = run(exe, args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        return code or 1
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
