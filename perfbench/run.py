#!/usr/bin/env python3
"""G-PBFT simulator benchmark: host speed and protocol outcome.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload, in turn

Builds perfbench_runner from this checkout's sources (optimized, into
$CARGO_TARGET_DIR or .bench_build), runs one workload, checks the run's
outputs, and prints the metrics. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones.
README.md in this directory defines every metric and workload.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1

# Golden chain tips at DEFAULT_SEED. The two Fig. 3 workloads equal
# bench_scale's PBFT n=100 and G-PBFT n=202 goldens (bench/bench_scale.cpp):
# the scenario text reproduces the latency calibration exactly.
WORKLOADS = {
    "pbft-n100-macs": {
        "golden": "e6e54b49f7ed7a2e3988be5d1de7044d16c055ef9c20bab51632d748cc374d59",
        "crash_primary_at_ns": None,
    },
    "gpbft-n202": {
        "golden": "a4e27b6b37cb50e98ab18d27a99223edd2dc7cb0bc7397339c29ad9932b74439",
        "crash_primary_at_ns": None,
    },
    "plane-primary-crash": {
        "golden": "f8343053593757af92efa545f76bfa5beca8e99cca7f29f3d9cf8a7c4b0cd351",
        # 70 s into the 100 s arrival window (arrivals start at t = 1 s), so
        # fewer than half of the requests wait out the outage and the
        # recovery backlog: p50 then reads normal service, p99 the outage.
        "crash_primary_at_ns": 71_000_000_000,
    },
}

RUNNER_TIMEOUT_S = 170

PROFILED_SITES = [
    "crypto.seal", "crypto.open", "pbft.replica.handle", "pbft.execute", "sim.event",
    "net.send", "net.arrival", "gpbft.endorser.handle", "pbft.client.handle",
]
CRITICAL_PATH_PHASES = ["preprepare_wait", "prepare", "commit", "reply"]


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


# --- build -------------------------------------------------------------------

def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no program sources under {ROOT / 'src'}; run from a full checkout")
    out = build_dir()
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench_runner", "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            fail("build failed", 1)
    return out / "perfbench_runner"


def cmake_cache(key):
    cache = build_dir() / "CMakeCache.txt"
    for line in cache.read_text(errors="replace").splitlines():
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return ""


# --- host and build stamp ------------------------------------------------------

def source_digest():
    h = hashlib.sha256()
    for top in ("src", HERE.name):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    # The benchmark may run from an exported tree; never search above it.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return res.stdout.strip() if res.returncode == 0 else "none"


def stamp():
    model, flags = "unknown", set()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            key, _, value = line.partition(":")
            if key.strip() == "model name" and model == "unknown":
                model = value.strip()
            elif key.strip() == "flags" and not flags:
                flags = set(value.split())
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "sha_ni": "sha_ni" in flags,
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "compiler": cmake_cache("CMAKE_CXX_COMPILER"),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


# --- statistics ------------------------------------------------------------------

def nearest_rank(sorted_values, p):
    """p-th percentile by nearest rank; sorted_values may end in +inf."""
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def histogram_quantile(hist, q):
    """Upper bound of the bucket holding quantile q (0 for an empty series)."""
    if hist["count"] == 0:
        return 0.0
    need = q * hist["count"]
    seen = 0
    for i, c in enumerate(hist["counts"]):
        seen += c
        if seen >= need:
            return hist["bounds"][min(i, len(hist["bounds"]) - 1)]
    return hist["bounds"][-1]


def profile_rollup(tree):
    """Per-site calls, inclusive and self ns summed over every tree position."""
    sites = {}

    def walk(node):
        for child in node["children"]:
            s = sites.setdefault(child["name"], {"calls": 0, "wall_ns": 0, "self_ns": 0})
            s["calls"] += child["calls"]
            s["wall_ns"] += child["wall_ns"]
            s["self_ns"] += child["self_ns"]
            walk(child)

    walk(tree)
    return sites


# --- checks and metrics -------------------------------------------------------------

OUTCOME_KEYS = ["submitted", "committed", "tip", "end_ns", "events_at_end", "events",
                "outage_s", "wire_bytes", "wire_msgs", "view_changes", "latencies_s"]


def check_outcome(rep, workload, seed, problems):
    if rep["submitted"] < 1:
        problems.append("no request was submitted")
    if rep["committed"] != rep["submitted"]:
        problems.append(f"committed {rep['committed']} of {rep['submitted']} requests")
    golden = WORKLOADS[workload]["golden"]
    if seed == DEFAULT_SEED and rep["tip"] != golden:
        problems.append(f"chain tip {rep['tip']} != golden {golden}")
    if WORKLOADS[workload]["crash_primary_at_ns"] is not None:
        if rep["view_changes"] < 1:
            problems.append("the primary crash caused no view change")
        if rep["outage_s"] <= 0:
            problems.append("the primary crash caused no outage")


def check_same(reps, keys, what, problems):
    first = reps[0]
    for i, rep in enumerate(reps[1:], start=2):
        for key in keys:
            if rep[key] != first[key]:
                problems.append(f"{what}: repetition {i} differs from the first in {key}")


def fastest_host_s(reps):
    """Host seconds of the batch job, each segment at its fastest repetition.

    A repetition's host time is cut at every 50 ms simulated slice, and every
    repetition does the same work in a given segment. Other tenants of a
    shared host slow the program by up to about 2x in spells of a second to
    minutes, so the fastest reading of each segment leaves out the slow
    spells that a whole-repetition median keeps."""
    return sum(min(seg) for seg in zip(*(r["host"]["segments_s"] for r in reps)))


def end_to_end(result):
    reps = result["reps"]
    first = reps[0]
    latencies = sorted(first["latencies_s"])
    # An uncommitted request counts as infinitely late.
    latencies += [math.inf] * (first["submitted"] - len(latencies))
    committed = first["committed"]
    return {
        "commits_per_host_s": (committed / fastest_host_s(reps), "1/s"),
        "setup_s": (statistics.median(result["setups_s"]), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "sim_commit_p50_s": (nearest_rank(latencies, 50), "sim_s"),
        "sim_commit_p99_s": (nearest_rank(latencies, 99), "sim_s"),
        "wire_kb_per_commit": (first["wire_bytes"] / 1024.0 / max(1, committed), "KB"),
        "sim_outage_s": (first["outage_s"], "sim_s"),
    }


def per_layer(result):
    plain, traced, layers = result["plain"], result["traced"], result["layers"]
    committed = max(1, traced["committed"])
    run_s = plain["host"]["run_s"]
    sites = profile_rollup(result["profile"]["profiler"]["tree"])
    total_ns = max(1, result["profile_total_ns"])

    def site(name):
        return sites.get(name, {"calls": 0, "wall_ns": 0, "self_ns": 0})

    m = {
        "sim.build_s": (plain["host"]["build_s"], "s"),
        "sim.run_s": (run_s, "s"),
        "sim.drain_s": (plain["host"]["drain_s"], "s"),
        "crypto.seal_ns": (layers["crypto.seal_ns"], "ns"),
        "crypto.open_ns": (layers["crypto.open_ns"], "ns"),
        "crypto.sha256_ns_per_block": (layers["crypto.sha256_ns_per_block"], "ns"),
        "crypto.seals_per_commit": (site("crypto.seal")["calls"] / committed, "count"),
        "crypto.est_share": ((layers["crypto.seal_ns"] * site("crypto.seal")["calls"]
                              + layers["crypto.open_ns"] * site("crypto.open")["calls"])
                             / 1e9 / run_s, "fraction"),
    }
    for t in ["PRE-PREPARE", "PREPARE", "COMMIT", "REQUEST"]:
        m[f"pbft.decode_ns.{t}"] = (layers[f"pbft.decode_ns.{t}"], "ns")
    for k in ["block_hash_ns", "merkle_root_ns", "block_decode_ns"]:
        m[f"ledger.{k}"] = (layers[f"ledger.{k}"], "ns")
    m.update({
        "net.events_per_commit": (traced["events"] / committed, "count"),
        "net.msgs_per_commit": (traced["wire_msgs"] / committed, "count"),
        "net.host_ns_per_event": (run_s * 1e9 / max(1, plain["events_at_end"]), "ns"),
        "net.max_queue_depth": (layers["net.max_queue_depth"], "count"),
        "net.recv_stall_p99_s": (histogram_quantile(layers["hist.net.recv_stall_seconds"], 0.99),
                                 "sim_s"),
        "net.msgs_dropped": (layers["net.msgs_dropped"], "count"),
        "net.msgs_rejected": (layers["net.msgs_rejected"], "count"),
        "pbft.txs_per_batch": (layers["pbft.txs_per_batch"], "count"),
        "pbft.blocks_executed": (layers["pbft.blocks_executed"], "count"),
        "pbft.view_changes_completed": (layers["pbft.view_changes_completed"], "count"),
        "pbft.client_table.hits": (layers["pbft.client_table.hits"], "count"),
        "client.retries": (layers["client.retries"], "count"),
    })
    for phase in ["prepare", "commit"]:
        h = layers[f"hist.pbft.phase.{phase}_seconds"]
        m[f"pbft.phase.{phase}_mean_s"] = (h["sum"] / h["count"] if h["count"] else 0.0,
                                           "sim_s")
    m.update({
        "gpbft.era_switches": (layers["gpbft.era_switches"], "count"),
        "gpbft.era_switches_initiated": (layers["gpbft.era_switches_initiated"], "count"),
        "gpbft.geo_reports_per_commit": (layers["gpbft.geo_reports_sent"] / committed, "count"),
        "gpbft.era_switch_p99_s": (histogram_quantile(layers["hist.gpbft.era_switch_seconds"],
                                                      0.99), "sim_s"),
    })
    for name in PROFILED_SITES:
        m[f"prof.{name}.self_share"] = (site(name)["self_ns"] / total_ns, "fraction")
    for name in ["pbft.execute", "pbft.replica.handle"]:
        s = site(name)
        m[f"prof.{name}.ns_per_call"] = (s["wall_ns"] / s["calls"] if s["calls"] else 0.0, "ns")
    cp = layers["cp_total_ms"]
    e2e = cp.get("end_to_end", 0.0)
    for phase in CRITICAL_PATH_PHASES:
        m[f"cp.{phase}_share"] = (cp.get(phase, 0.0) / e2e if e2e > 0 else 0.0, "fraction")
    m["obs.trace_overhead"] = (traced["host"]["run_s"] / run_s, "ratio")
    return m


# --- one workload ------------------------------------------------------------------

def run_workload(runner, workload, seed, seconds, trace):
    spec = WORKLOADS[workload]
    scenario = HERE / "workloads" / f"{workload}.scenario"
    cmd = [str(runner), "--scenario", str(scenario), "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if spec["crash_primary_at_ns"] is not None:
        cmd += ["--crash-primary-at-ns", str(spec["crash_primary_at_ns"])]
    problems = []
    try:
        res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=RUNNER_TIMEOUT_S,
                             text=True)
    except subprocess.TimeoutExpired:
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}, ["timed out"]
    if res.returncode != 0:
        return ({"correct": False, "attempted": 1, "failed": 1, "metrics": {}},
                [f"runner exited with {res.returncode}"])
    result = json.loads(res.stdout)

    if trace:
        reps = [result["plain"], result["traced"]]
        for rep in reps:
            check_outcome(rep, workload, seed, problems)
        # Tracing, profiling and the monitor must not perturb the run.
        check_same(reps, OUTCOME_KEYS, "traced run", problems)
        for key in ["tip", "end_ns", "events_at_end", "events"]:
            if result["self_test"][key] != result["plain"][key]:
                problems.append(f"sliced driver self-test: single run_for differs in {key}")
        if not result["traced"]["monitor_clean"]:
            problems.append("invariant monitor: " + result["traced"]["monitor_report"])
    else:
        reps = result["reps"]
        for rep in reps:
            check_outcome(rep, workload, seed, problems)
        check_same(reps, OUTCOME_KEYS, "determinism", problems)
        if len({len(r["host"]["segments_s"]) for r in reps}) != 1:
            problems.append("determinism: repetitions differ in their number of slices")

    attempted = sum(r["submitted"] for r in reps)
    failed = sum(r["submitted"] - r["committed"] for r in reps)
    metrics = {}
    if not problems:  # a failed run is never timed
        values = per_layer(result) if trace else end_to_end(result)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    line = {"correct": not problems, "attempted": max(1, attempted), "failed": failed,
            "metrics": metrics}
    return line, problems


def report(workload, line, problems):
    print(f"workload {workload}: correct={str(line['correct']).lower()} "
          f"attempted={line['attempted']} failed={line['failed']} "
          f"failed_frac={line['failed'] / line['attempted']:.6g}")
    for problem in problems:
        print(f"  FAILED: {problem}")
    for name, m in line["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    started = time.monotonic()
    runner = build()
    print("stamp " + json.dumps(stamp(), sort_keys=True))
    print(f"build+stamp {time.monotonic() - started:.1f}s", file=sys.stderr)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    lines = {}
    for name in names:
        line, problems = run_workload(runner, name, args.seed, args.seconds, args.trace == 1)
        report(name, line, problems)
        lines[name] = line
    if len(names) == 1:
        final = lines[names[0]]
    else:
        final = {
            "correct": all(l["correct"] for l in lines.values()),
            "attempted": sum(l["attempted"] for l in lines.values()),
            "failed": sum(l["failed"] for l in lines.values()),
            "metrics": {f"{n}.{k}": v for n, l in lines.items() for k, v in l["metrics"].items()},
        }
    print(json.dumps(final))


if __name__ == "__main__":
    main()
