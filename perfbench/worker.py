"""One pass of one workload in one fresh, single-threaded process.

    python3 perfbench/worker.py WORKLOAD setup
    python3 perfbench/worker.py WORKLOAD run TRACE SPANS_PATH < inputs.json

``setup`` imports what the workload uses, builds the first Engine and
prints the monotonic clock, so the parent can time set-up from before it
started this process.  ``run`` reads the inputs as JSON on stdin, runs the
workload's pass once and prints one JSON object: the pass's wall time,
per-item latencies, the outputs the parent checks, peak RSS, provenance
and, with TRACE 1, the span dump (also written to SPANS_PATH).  It runs
only under ``run.py``, which sets PYTHONPATH to the checkout's ``src``.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import json
import os
import resource
import sys
import threading
import time

# modules each workload imports before its first timed call
IMPORTS = {
    "sweep": ("diamondcgt.yashima",),
    "solve": ("diamondcgt.graphio", "diamondcgt.yashima", "diamondcgt.notation"),
    "forms": ("diamondcgt.notation", "diamondcgt.diamond"),
}

SWEEP_VERTICES = 5
SWEEP_EDGES = 6


def sweep_pass(inputs, tracer):
    """Both variants of the gate-3/4 sweep, each on a fresh engine."""
    from diamondcgt.engine import Engine
    from diamondcgt.yashima import Variant, verify_bipartite_simplicity

    items, outputs = [], []
    for variant in (Variant.YASHIMA, Variant.TRON):
        start = time.perf_counter()
        try:
            report = verify_bipartite_simplicity(
                Engine(), max_vertices=SWEEP_VERTICES, max_edges=SWEEP_EDGES, variant=variant
            )
            out = {
                "variant": variant.value,
                "ok": report.ok,
                "graphs": report.graphs_checked,
                "states": report.states_checked,
                "different_color": report.different_color_states,
                "commuting_pairs": report.commuting_pairs_checked,
            }
        except Exception as exc:  # counted as a failed operation
            out = {"variant": variant.value, "ok": False, "graphs": repr(exc),
                   "states": 0, "different_color": 0, "commuting_pairs": 0}
        items.append(time.perf_counter() - start)
        outputs.append(out)
    return sum(items), items, outputs


def solve_pass(inputs, tracer):
    """Each board as ``diamondcgt yashima stats FILE`` does it."""
    from diamondcgt.engine import Engine
    from diamondcgt.graphio import parse_graph
    from diamondcgt.notation import format_value
    from diamondcgt.yashima import YashimaSolver

    items, outputs = [], []
    for text in inputs["boards"]:
        start = time.perf_counter()
        try:
            engine = Engine()
            state = parse_graph(text)
            solver = YashimaSolver(engine)
            stats = solver.solve_stats(state)
            out = [format_value(engine, solver.to_game(state)), stats.expanded_nodes,
                   stats.memo_entries]
        except Exception as exc:  # counted as a failed operation
            out = [repr(exc), -1, -1]
        items.append(time.perf_counter() - start)
        outputs.append(out)
    return sum(items), items, outputs


def _subsets(items):
    out = [()]
    for item in items:
        out.extend([s + (item,) for s in out])
    return out


def _day3_values(engine):
    """Every value born by day 3: day-3 forms over antichains of day-2
    values, canonicalized (the test suite's construction)."""
    from diamondcgt.values import Relation

    zero = engine.zero
    day1 = (
        zero,
        engine.intern((zero,), ()),
        engine.intern((), (zero,)),
        engine.intern((zero,), (zero,)),
    )
    day2 = sorted({
        engine.canonical_form(engine.intern(l, r))
        for l in _subsets(day1)
        for r in _subsets(day1)
    })
    antichains = []

    def extend(index, acc):
        if index == len(day2):
            antichains.append(tuple(acc))
            return
        candidate = day2[index]
        if all(engine.compare(candidate, other) is Relation.FUZZY for other in acc):
            acc.append(candidate)
            extend(index + 1, acc)
            acc.pop()
        extend(index + 1, acc)

    extend(0, [])
    return sorted({
        engine.canonical_form(engine.intern(l, r)) for l in antichains for r in antichains
    })


def _followers(engine, root):
    out = set()
    frontier = [root]
    while frontier:
        g = frontier.pop()
        if g not in out:
            out.add(g)
            frontier.extend(engine.left_options(g))
            frontier.extend(engine.right_options(g))
    return sorted(out)


def forms_pass(inputs, tracer):
    """Read-heavy day-3 comparisons, then the write-heavy day-4 pipeline,
    each on its own engine."""
    from diamondcgt.diamond import ClosedSetPartition, PropertyName, has_diamond, has_property
    from diamondcgt.diamond import verify_closed_set
    from diamondcgt.engine import Engine
    from diamondcgt.notation import format_canonical, format_value, parse_position
    from diamondcgt.values import NumberSystem, Relation

    from spans import paused

    z, d = NumberSystem.Z, NumberSystem.D
    refinements = [
        p for p in PropertyName if p not in (PropertyName.DIAMOND_Z, PropertyName.DIAMOND_D)
    ]

    def universe_stage():
        engine = Engine()
        values = _day3_values(engine)
        compares = equal = 0
        for i, g in enumerate(values):
            for h in values[i + 1 :]:
                compares += 1
                if engine.compare(g, h) is Relation.EQUAL:
                    equal += 1
        done = time.perf_counter()
        with paused(tracer):
            sample = [
                [format_value(engine, values[i]), format_value(engine, values[j]),
                 engine.compare(values[i], values[j]).symbol]
                for i, j in inputs["pairs"]
                if j < len(values)
            ]
        return done, {"values": len(values), "compares": compares, "equal": equal,
                      "sample": sample}

    def pipeline(engine, text):
        g = parse_position(engine, text)
        c = engine.canonical_form(g)
        canon = format_canonical(engine, g)
        round_trip = engine.canonical_form(parse_position(engine, canon)) == c
        stops = [
            str(engine.left_stop(g, z)), str(engine.right_stop(g, z)),
            str(engine.left_stop(g, d)), str(engine.right_stop(g, d)),
        ]
        holds = [has_diamond(engine, g, z).holds, has_diamond(engine, g, d).holds]
        holds += [has_property(engine, g, p).holds for p in refinements]
        core = set()
        for f in _followers(engine, g):
            opts = engine.left_options(f) + engine.right_options(f)
            if all(o in core for o in opts) and has_diamond(engine, f, z).holds:
                core.add(f)
        part = ClosedSetPartition.total(core)
        closed = verify_closed_set(engine, part, PropertyName.DIAMOND_Z).ok
        return [canon, round_trip, closed, stops, holds]

    start = time.perf_counter()
    try:
        done, universe = universe_stage()
    except Exception as exc:  # counted as a failed operation
        done, universe = time.perf_counter(), {
            "values": repr(exc), "compares": 0, "equal": 0, "sample": []}
    read_s = done - start

    items, outputs = [], []
    engine = Engine()
    for text in inputs["items"]:
        begin = time.perf_counter()
        try:
            out = pipeline(engine, text)
        except Exception as exc:  # counted as a failed operation
            out = [repr(exc), False, False, [], []]
        items.append(time.perf_counter() - begin)
        outputs.append(out)
    return read_s + sum(items), items, {"universe": universe, "items": outputs}


PASSES = {"sweep": sweep_pass, "solve": solve_pass, "forms": forms_pass}


def _sha256(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def kernel_provenance() -> dict:
    """Which kernel module really loaded, and whether it is compiled."""
    from diamondcgt import _kernel, kernel
    from diamondcgt.engine import Engine

    path = kernel.backend.__file__
    return {
        "module": kernel.backend.__name__,
        "file": os.path.relpath(path),
        "compiled_extension": path.endswith(tuple(importlib.machinery.EXTENSION_SUFFIXES)),
        "sha256": _sha256(path),
        "kernel_py_sha256": _sha256(_kernel.__file__),
        "backend_reported": kernel.KERNEL_BACKEND,
        "engine_kernel_name": Engine().kernel_name,
    }


def run(workload: str, trace: bool, spans_path: str) -> dict:
    inputs = json.load(sys.stdin)
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    wall, items, outputs = PASSES[workload](inputs, tracer)
    result = {
        "wall_s": wall,
        "items_s": items,
        "outputs": outputs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "threads": threading.active_count(),
    }
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.dump()
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(result["trace"], handle)
    result["kernel"] = kernel_provenance()
    return result


def main(argv: list[str]) -> int:
    workload, mode = argv[0], argv[1]
    for name in IMPORTS[workload]:
        __import__(name)
    from diamondcgt.engine import Engine

    Engine()
    if mode == "setup":
        print(json.dumps({"setup_done": time.monotonic()}))
        return 0
    result = run(workload, argv[2] == "1", argv[3])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
