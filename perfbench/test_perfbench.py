"""Tests for the benchmark's own helpers.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import os
import sys
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


# -- the tail-percentile rule ------------------------------------------------


def test_tail_needs_ten_samples_beyond():
    values = list(range(1, 101))  # 100 samples
    assert run.tail_percentile(values) == (90.0, 90)  # p95 leaves only 5 beyond
    values = list(range(1, 1001))
    assert run.tail_percentile(values) == (99.0, 990)  # p99.9 leaves 1 beyond


def test_tail_boundary_counts():
    # with 20 samples the median has exactly ten beyond it; p90 has two
    assert run.tail_percentile(list(range(20))) == (50.0, 9)
    assert run.tail_percentile(list(range(110)))[0] == 90.0
    assert run.tail_percentile(list(range(200)))[0] == 95.0


def test_tail_falls_back_to_max_on_few_samples():
    assert run.tail_percentile([3.0, 1.0]) == (100.0, 3.0)
    assert run.tail_percentile([5.0]) == (100.0, 5.0)


def test_tail_ignores_input_order():
    values = [7, 3, 9, 1] * 30
    assert run.tail_percentile(values) == run.tail_percentile(sorted(values))


def test_slowest_drops_only_a_stalled_timing():
    assert run.slowest([4.0]) == 4.0
    assert run.slowest([1.0, 1.9, 1.2]) == 1.9  # a slow stretch of the host counts
    assert run.slowest([1.0, 9.0, 1.2]) == 1.2  # a stall of the host does not


# -- self time under nesting -------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_with_recursion():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    def countdown(n):
        clock.now += 1.0
        if n:
            wrapped(n - 1)
        clock.now += 2.0

    wrapped = tracer.wrap("solver", "countdown", countdown)
    wrapped(3)
    dump = tracer.dump()
    agg = {(p, n): (calls, self_s, total) for p, n, calls, self_s, total in dump["aggregate"]}
    # four nested calls, each spending 3 units in its own body
    assert agg[(None, "countdown")] == (1, 3.0, 12.0)
    assert agg[("countdown", "countdown")] == (3, 9.0, 9.0 + 6.0 + 3.0)
    total_self = sum(rec[1] for rec in agg.values())
    assert total_self == 12.0
    assert tracer.stack == []


def test_self_time_across_layers_and_spans():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    def leaf():
        clock.now += 5.0

    def outer():
        clock.now += 1.0
        inner_leaf()
        inner_leaf()
        clock.now += 1.0

    inner_leaf = tracer.wrap("diamond", "leaf", leaf)
    top = tracer.wrap("yashima.solver", "outer", outer)
    top()
    dump = tracer.dump()
    metrics = spans.layer_metrics(dump)
    assert metrics["yashima.solver.self_s"] == 2.0
    assert metrics["yashima.solver.calls"] == 1
    assert metrics["diamond.self_s"] == 10.0
    assert metrics["diamond.calls"] == 2
    assert metrics["engine.calls"] == 0
    # full span records: (id, parent id, name, start, end)
    names = {s[2]: s for s in dump["spans"]}
    assert names["outer"][1] == 0
    assert {s[1] for s in dump["spans"] if s[2] == "leaf"} == {names["outer"][0]}
    assert names["outer"][3:] == (0.0, 12.0)


def test_span_records_are_bounded():
    tracer = spans.Tracer(keep=3)
    noop = tracer.wrap("graphio", "noop", lambda: None)
    for _ in range(10):
        noop()
    assert len(tracer.spans) == 3
    assert tracer.dropped == 7
    assert tracer.dump()["aggregate"][0][2] == 10


def test_paused_tracer_records_nothing():
    tracer = spans.Tracer()
    noop = tracer.wrap("graphio", "noop", lambda: 7)
    with spans.paused(tracer):
        assert noop() == 7
    assert tracer.aggregate == {}


def test_install_and_uninstall_restore_the_package():
    from diamondcgt import graphio, yashima
    from diamondcgt.engine import Engine

    original = yashima.legal_moves
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert yashima.legal_moves is not original
        engine = Engine()
        with open(os.path.join(ROOT, "graphs", "path_3.graph"), encoding="utf-8") as fh:
            state = graphio.parse_graph(fh.read())
        stats = yashima.YashimaSolver(engine).solve_stats(state)
    finally:
        tracer.uninstall()
    assert yashima.legal_moves is original
    metrics = spans.layer_metrics(tracer.dump())
    assert metrics["graphio.calls"] == 1
    assert metrics["yashima.solver.distinct_states"] == stats.memo_entries
    assert metrics["engine.nodes"] == engine.node_count()


# -- seeded inputs -------------------------------------------------------------


def test_inputs_repeat_for_a_seed_and_differ_across_seeds():
    for workload in ("solve", "forms"):
        first = inputs.make(workload, 7, ROOT)
        assert inputs.make(workload, 7, ROOT) == first
        assert inputs.make(workload, 8, ROOT) != first


def test_solve_inputs_are_stratified_text():
    boards = inputs.make("solve", 3, ROOT)["boards"]
    assert len(boards) >= 100  # a p90 tail needs ten boards beyond it
    shapes = Counter()
    for edges, left, right, variant in map(checks.parse_board, boards):
        assert left != right
        length = (max(map(max, edges)) + 1) // 2
        shapes[(variant, length, len(edges) - (3 * length - 2))] += 1
    shapes[("yashima", 5, 1)] -= 1  # the shipped 2x5 ladder joins this stratum
    assert shapes == Counter({
        (variant, length, doubled): inputs.boards_per_stratum(variant, length)
        for variant in inputs.VARIANTS
        for length in inputs.LADDER_LENGTHS
        for doubled in inputs.DOUBLED_RUNGS
    })


def _board_shape(board):
    """Invariants of a board under renumbering: variant, edge multiplicities
    and degrees, the tokens' degrees and their distance apart."""
    edges, left, right, variant = board
    degree, near = Counter(), {}
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
        near.setdefault(u, set()).add(v)
        near.setdefault(v, set()).add(u)
    distance, frontier, seen = 0, {left}, {left}
    while right not in frontier:
        frontier = {w for u in frontier for w in near[u]} - seen
        seen |= frontier
        distance += 1
    return (variant, sorted(Counter(edges).values()), sorted(degree.values()),
            degree[left], degree[right], distance)


def test_solve_seeds_rename_the_same_boards():
    first = inputs.make("solve", 3, ROOT)["boards"]
    second = inputs.make("solve", 4, ROOT)["boards"]
    assert sorted(first) != sorted(second)
    shapes = [sorted(_board_shape(checks.parse_board(b)) for b in boards)
              for boards in (first, second)]
    assert shapes[0] == shapes[1]


def test_forms_inputs_are_braces_text_and_index_pairs():
    got = inputs.make("forms", 3, ROOT)
    assert len(got["items"]) == inputs.FORM_ITEMS
    assert all(item.startswith("{") for item in got["items"])
    assert all(0 <= i < j < inputs.DAY3_VALUES for i, j in got["pairs"])


# -- the checks catch wrong answers ------------------------------------------


def test_checks_reject_a_wrong_ladder_value():
    checker = checks.Checker(ROOT)
    boards = {"boards": [checker.ladder]}
    assert checker.check("solve", boards, [["{0|-3}", 104_241, 1_206]]) == (1, [])
    _, failures = checker.check("solve", boards, [["{0|-2}", 104_241, 1_205]])
    assert {op for op, _ in failures} == {0}
    assert len(failures) == 3  # memo, value, and the pinned ladder figures


def test_parse_braces_matches_the_oracle():
    o = checks.load_oracle(ROOT)
    assert checks.parse_braces("-3/4", o.OGame) == o.dyadic(-3, 2)
    assert checks.parse_braces("{0,*|1}", o.OGame) == o.OGame([o.ZERO, o.STAR], [o.integer(1)])
    table = checks.GameTable()
    assert table.eq(checks.parse_braces("{-1|1}", table.make), table.make((), ()))
    assert not table.eq(checks.parse_braces("*", table.make), table.make((), ()))
