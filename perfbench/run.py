"""The diamondcgt benchmark: three workloads, end to end and per layer.

    python3 perfbench/run.py [--workload sweep|solve|forms|all] [--seed N]
                             [--seconds S] [--trace 0|1]

Run it from the root of a checkout.  Each pass of a workload runs in a
fresh, single-threaded worker process (``worker.py``) on the checkout's own
``src``; this process makes the seeded inputs, times set-up, checks every
answer against the oracle and prints the metrics by name and unit.  The
last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  ``--workload
all`` (the default) runs the three in turn and ends with one combined
JSON line.  See README.md beside this file for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("sweep", "solve", "forms")
REQUIRED = (
    os.path.join("src", "diamondcgt", "__init__.py"),
    os.path.join("tests", "oracle.py"),
    os.path.join("graphs", "ladder_2x5.graph"),
)
SETUP_PROBES = 3
# a run with one pass gives each item a single timing, from whatever speed
# the host had at that moment
MIN_PASSES = 2
# a timing more than this many times the next slowest of the same item was
# stalled by the host, not slowed by the program
STALL_FACTOR = 2.0
# a run must end within 180 s; leave room for the checks after the workers
WORKER_BUDGET_S = 150.0
TAIL_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9, 99.99)
TAIL_BEYOND = 10

sys.path.insert(0, HERE)

import checks  # noqa: E402
import inputs as inputs_mod  # noqa: E402
import spans  # noqa: E402


class BenchError(Exception):
    """The benchmark could not produce a result."""


def nearest_rank(n: int, p: float) -> int:
    """The 1-based nearest rank of the p-th percentile of n samples."""
    return max(1, math.ceil(Fraction(str(p)) * n / 100))


def slowest(times: list) -> float:
    """The slowest of one item's timings over the passes, unless it is more
    than STALL_FACTOR times the next slowest: then the next slowest."""
    ordered = sorted(times)
    if len(ordered) > 1 and ordered[-1] > STALL_FACTOR * ordered[-2]:
        return ordered[-2]
    return ordered[-1]


def tail_percentile(values: list) -> tuple[float, float]:
    """(percentile, value): the highest percentile on the ladder with at
    least ten samples beyond it, or (100, max) when even the median has
    fewer than ten beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    best = None
    for p in TAIL_LADDER:
        if n - nearest_rank(n, p) >= TAIL_BEYOND:
            best = p
    if best is None:
        return 100.0, ordered[-1]
    return best, ordered[nearest_rank(n, best) - 1]


def worker_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def call_worker(args: list, stdin: str, deadline: float) -> tuple[dict, float]:
    """Run worker.py to completion; return its JSON and its start time."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py")] + args,
            input=stdin,
            capture_output=True,
            text=True,
            cwd=ROOT,
            env=worker_env(),
            timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise BenchError("worker %s timed out" % " ".join(args)) from None
    if proc.returncode != 0:
        raise BenchError(
            "worker %s exited %d:\n%s" % (" ".join(args), proc.returncode, proc.stderr[-4000:])
        )
    return json.loads(proc.stdout.strip().splitlines()[-1]), started


def setup_seconds(workload: str, deadline: float) -> list:
    """Process start to first timed call, measured SETUP_PROBES times."""
    samples = []
    for _ in range(SETUP_PROBES):
        out, started = call_worker([workload, "setup"], "", deadline)
        samples.append(out["setup_done"] - started)
    return samples


def run_passes(workload: str, seconds: float, payload: str, deadline: float,
               probe: bool) -> tuple[list, list]:
    """Run one pass per fresh worker for as long as one more pass, as long
    as the last, still ends within ``seconds``; always at least
    MIN_PASSES.

    With ``probe``, set-up is timed before the first pass and after every
    pass, so its samples come from several moments of the run and not from
    one stretch of the host's speed.
    """
    passes, setup = [], []
    start = time.monotonic()
    while True:
        if probe:
            setup += setup_seconds(workload, deadline)
        result, _ = call_worker([workload, "run", "0", ""], payload, deadline)
        passes.append(result)
        if len(passes) >= MIN_PASSES and time.monotonic() - start + result["wall_s"] > seconds:
            break
    if probe:
        setup += setup_seconds(workload, deadline)
    return passes, setup


def source_provenance() -> dict:
    """Git commit when the checkout is a git work tree, and always a hash
    of the package source, since the benchmark's checkout may not be one."""
    digest = hashlib.sha256()
    package = os.path.join(ROOT, "src", "diamondcgt")
    for name in sorted(os.listdir(package)):
        path = os.path.join(package, name)
        if os.path.isfile(path) and not name.endswith((".pyc", ".so")):
            digest.update(name.encode() + b"\0")
            with open(path, "rb") as handle:
                digest.update(handle.read())
    commit = "unknown"
    try:
        top = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        lines = top.stdout.split()
        if top.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            commit = lines[1]
    except (OSError, subprocess.TimeoutExpired, IndexError):
        pass
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 checker: checks.Checker, deadline: float) -> dict:
    generated = inputs_mod.make(workload, seed, ROOT)
    payload = json.dumps(generated)
    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, "spans-%s-seed%d.json" % (workload, seed))

    passes, setup = run_passes(workload, seconds, payload, deadline, probe=not trace)
    checked = list(passes)
    if trace:
        # one traced pass: a traced sweep pass alone takes longer than a
        # whole untraced run
        traced, _ = call_worker([workload, "run", "1", spans_path], payload, deadline)
        checked.append(traced)

    attempted = 0
    failed_ops = set()
    messages = []
    first = passes[0]["outputs"]
    first_check = checker.check(workload, generated, first)
    for index, one in enumerate(checked):
        if one["outputs"] == first:
            n, failures = first_check[0], list(first_check[1])
        else:
            n, failures = checker.check(workload, generated, one["outputs"])
            failures.append(("pass", "outputs differ from the first pass"))
        attempted += n
        failed_ops.update((index, op) for op, _msg in failures)
        messages.extend("%s: %s" % (op, msg) for op, msg in failures)
    failed = min(len(failed_ops), attempted)

    walls = [p["wall_s"] for p in passes]
    # Times are the slowest over the passes.  The host has a steady base
    # speed and bursts, from seconds to tens of seconds long, at up to
    # twice that speed; a median or best over the passes follows how much
    # of a run fell in bursts, while the slowest pass of a run is nearly
    # always at the base speed.  The host also stalls the process for about
    # 10 ms at a time, which multiplies a 1 ms item's timing; ``slowest``
    # drops such a timing.  Repeated inputs are not pooled as new samples.
    items = [slowest(times) for times in zip(*(p["items_s"] for p in passes))]
    tail_p, tail_s = tail_percentile(items)
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "passes": len(passes),
        "pass_walls_s": walls,
        "pass_items_s": [p["items_s"] for p in passes],
        "items": len(items),
        "item_tail_percentile": tail_p,
        "setup_samples_s": setup,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "failures": messages[:50],
        "threads": max(p["threads"] for p in checked),
        "provenance": dict(
            source_provenance(),
            python=platform.python_version(),
            nproc=os.cpu_count(),
            cpu_affinity=len(os.sched_getaffinity(0)),
            kernel=passes[0]["kernel"],
        ),
    }
    if trace:
        metrics = spans.layer_metrics(traced["trace"])
        metrics["trace.overhead_ratio"] = traced["wall_s"] / slowest(walls)
        report["traced_pass_wall_s"] = traced["wall_s"]
        report["spans_file"] = os.path.relpath(spans_path, ROOT)
        units = LAYER_UNITS
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": slowest(walls),
            "item_p50_ms": statistics.median(items) * 1000,
            "item_tail_ms": tail_s * 1000,
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }
        units = END_TO_END_UNITS
    report["metrics"] = {name: {"value": v, "unit": units[name]} for name, v in metrics.items()}
    return report


END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def _layer_units() -> dict:
    units = {}
    for layer in spans.LAYERS:
        units[layer + ".calls"] = "count"
        units[layer + ".self_s"] = "s"
    units.update({
        "yashima.state.graphs_built": "count",
        "yashima.state.successors": "count",
        "yashima.solver.distinct_states": "count",
        "yashima.solver.memo_hit_ratio": "ratio",
        "engine.nodes": "count",
        "engine.intern_new_ratio": "ratio",
        "trace.overhead_ratio": "ratio",
    })
    return units


LAYER_UNITS = _layer_units()


def print_report(report: dict) -> None:
    w = report["workload"]
    prov = report["provenance"]
    kernel = prov["kernel"]
    print("== %s  seed %d  %d pass(es), %d items, %d thread(s)" % (
        w, report["seed"], report["passes"], report["items"], report["threads"]))
    print("   provenance: commit %s, src sha256 %s, python %s, nproc %d" % (
        prov["git_commit"], prov["src_sha256"][:16], prov["python"], prov["nproc"]))
    print("   kernel: %s (%s), compiled extension %s, sha256 %s, same as _kernel.py %s" % (
        kernel["module"], kernel["file"], kernel["compiled_extension"], kernel["sha256"][:16],
        kernel["sha256"] == kernel["kernel_py_sha256"]))
    for name, m in report["metrics"].items():
        extra = ""
        if name == "item_tail_ms":
            extra = "  (p%g of %d items)" % (report["item_tail_percentile"], report["items"])
        print("   %-34s %14.6g %s%s" % (name, m["value"], m["unit"], extra))
    print("   %-34s %14.6g    (%d failed of %d attempted)" % (
        "failed_ratio", report["failed_ratio"], report["failed"], report["attempted"]))
    for message in report["failures"][:10]:
        print("   FAIL %s" % message, file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit, so subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print("not a diamondcgt checkout: missing %s" % ", ".join(missing), file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    checker = checks.Checker(ROOT)
    reports = []
    try:
        for name in names:
            deadline = time.monotonic() + WORKER_BUDGET_S
            report = run_workload(name, args.seed, args.seconds, bool(args.trace), checker, deadline)
            print_report(report)
            path = os.path.join(OUT, "result-%s-seed%d-trace%d.json" % (name, args.seed, args.trace))
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(report, handle, indent=1)
            reports.append(report)
    except BenchError as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 1

    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {
            "%s.%s" % (r["workload"], name): m for r in reports for name, m in r["metrics"].items()
        }
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
