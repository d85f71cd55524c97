"""Token-sliding states, their game values, and the small-board sweep."""

from __future__ import annotations

import itertools
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diamondcgt._kernel import GameStore
from diamondcgt.diamond import ClosedSetPartition, PropertyName, verify_closed_set
from diamondcgt.engine import Engine
from diamondcgt.errors import BoundsTooLargeError, InvalidStateError, PreconditionError
from diamondcgt.notation import format_value
from diamondcgt.values import Dyadic, NumberSystem, ValueKind
from diamondcgt import yashima
from diamondcgt.yashima import (
    ColorClass,
    Move,
    MultiGraph,
    Player,
    Variant,
    YashimaSolver,
    YashimaState,
    apply_move,
    color_class,
    commuting_violation,
    is_legal,
    legal_moves,
    move_descriptors,
    verify_bipartite_simplicity,
)

import oracle as o

LADDER_EDGES = (
    (0, 1), (1, 2), (2, 3), (3, 4),
    (5, 6), (6, 7), (7, 8), (8, 9),
    (0, 5), (1, 6), (2, 7), (3, 8), (3, 8), (4, 9),
)


def _ladder(variant=Variant.YASHIMA):
    return YashimaState(MultiGraph(10, LADDER_EDGES), 0, 4, variant)


def _path(n, left, right, variant=Variant.YASHIMA):
    edges = tuple((i, i + 1) for i in range(n - 1))
    return YashimaState(MultiGraph(n, edges), left, right, variant)


def test_graph_validation():
    with pytest.raises(InvalidStateError):
        MultiGraph(3, ((1, 1),))
    with pytest.raises(InvalidStateError):
        MultiGraph(3, ((0, 3),))
    with pytest.raises(InvalidStateError):
        MultiGraph(-1, ())
    graph = MultiGraph(3, ((2, 0), (0, 1), (0, 2)))
    assert graph.edges == ((0, 1), (0, 2), (0, 2))
    assert graph.multiplicity(2, 0) == 2


def test_state_validation():
    graph = MultiGraph(3, ((0, 1), (1, 2)))
    with pytest.raises(InvalidStateError):
        YashimaState(graph, 0, 3)
    with pytest.raises(InvalidStateError):
        YashimaState(graph, 1, 1)


def test_moves_respect_occupancy():
    state = _path(3, 0, 1)
    # Left's only edge ends on the Right token
    assert move_descriptors(state, Player.LEFT) == ()
    rmoves = move_descriptors(state, Player.RIGHT)
    assert rmoves == (Move((1, 2), 2),)
    succ = apply_move(state, Player.RIGHT, rmoves[0])
    assert succ.right_token == 2
    assert succ.graph.edges == ((0, 1),)
    with pytest.raises(InvalidStateError):
        apply_move(state, Player.LEFT, Move((0, 1), 1))


def test_edge_deletion_by_variant():
    double = MultiGraph(3, ((0, 1), (0, 1), (1, 2)))
    slide = YashimaState(double, 0, 2)
    (succ,) = legal_moves(slide, Player.LEFT)
    # one copy survives in the edge-deletion variant
    assert succ.graph.edges == ((0, 1), (1, 2))
    cut = YashimaState(double, 0, 2, Variant.TRON)
    (succ,) = legal_moves(cut, Player.LEFT)
    # every edge at the departed vertex goes in the cut-vertex variant
    assert succ.graph.edges == ((1, 2),)
    assert succ.variant is Variant.TRON


def test_isolated_vertices_share_values(engine):
    small = YashimaState(MultiGraph(3, ((0, 1), (1, 2))), 0, 2)
    padded = YashimaState(MultiGraph(6, ((0, 1), (1, 2))), 0, 2)
    assert small.key() == padded.key()
    solver = YashimaSolver(engine)
    assert solver.to_game(small) == solver.to_game(padded)
    assert solver.reachable_states(padded) == 3


def test_color_class():
    assert color_class(_path(2, 0, 1)) is ColorClass.DIFFERENT_COLOR
    assert color_class(_path(3, 0, 2)) is ColorClass.SAME_COLOR
    triangle = MultiGraph(3, ((0, 1), (1, 2), (0, 2)))
    assert color_class(YashimaState(triangle, 0, 1)) is ColorClass.NOT_BIPARTITE
    two_parts = MultiGraph(4, ((0, 1), (2, 3)))
    assert color_class(YashimaState(two_parts, 0, 2)) is ColorClass.DIFFERENT_COLOR
    # a billion vertices, nearly all isolated: only the touched ones are labelled
    huge = MultiGraph(10**9, ((0, 1),))
    assert color_class(YashimaState(huge, 0, 1)) is ColorClass.DIFFERENT_COLOR
    assert color_class(YashimaState(huge, 0, 10**9 - 1)) is ColorClass.DIFFERENT_COLOR
    huge_triangle = MultiGraph(10**9, triangle.edges)
    assert color_class(YashimaState(huge_triangle, 0, 5)) is ColorClass.NOT_BIPARTITE


def test_color_class_labels_only_the_touched_vertices(capped_python):
    # edges up to vertex 999,999,999 on a board of a billion vertices:
    # labelling every vertex up to the highest endpoint would take
    # gigabytes, more than the child's cap
    code = (
        "from diamondcgt.yashima import MultiGraph, YashimaState, color_class\n"
        "top = 10**9 - 1\n"
        "def ask(edges, lt, rt):\n"
        "    state = YashimaState(MultiGraph(10**9, edges), lt, rt)\n"
        "    print(color_class(state).value)\n"
        "ask(((0, top),), 0, top)\n"
        "ask(((0, top),), 5, top)\n"
        "ask(((7, top), (top - 3, top)), 7, top - 3)\n"
        "ask(((5, top), (5, top - 1), (top - 1, top)), 0, 5)\n"
    )
    done = capped_python(code)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.split() == [
        "different-color", "different-color", "same-color", "not-bipartite",
    ]


def test_color_class_is_linear_on_a_long_path(capped_python):
    # a 100,000-vertex path: labels rebuilt per edge would take minutes,
    # past the child's 60 s timeout
    code = (
        "from diamondcgt.yashima import MultiGraph, YashimaState, color_class\n"
        "n = 100_000\n"
        "path = MultiGraph(n, tuple((v, v + 1) for v in range(n - 1)))\n"
        "print(color_class(YashimaState(path, 0, n - 1)).value)\n"
        "print(color_class(YashimaState(path, 0, n - 2)).value)\n"
    )
    done = capped_python(code)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.split() == ["different-color", "same-color"]


def test_color_class_agrees_with_every_proper_coloring():
    # the referee colors by brute force: a board is bipartite when some 0/1
    # coloring gives the ends of every edge two colors, and two tokens are
    # same-color when every such coloring gives them one color.  Parallel
    # copies, isolated vertices, tokens on them and odd cycles of three
    # and five are all met here
    for n in range(2, 6):
        pairs = list(itertools.combinations(range(n), 2))
        colorings = list(itertools.product((0, 1), repeat=n))
        for m in range(6):
            for edges in itertools.combinations_with_replacement(pairs, m):
                proper = [c for c in colorings if all(c[u] != c[v] for u, v in edges)]
                graph = MultiGraph(n, edges)
                for lt, rt in itertools.permutations(range(n), 2):
                    if not proper:
                        expected = ColorClass.NOT_BIPARTITE
                    elif all(c[lt] == c[rt] for c in proper):
                        expected = ColorClass.SAME_COLOR
                    else:
                        expected = ColorClass.DIFFERENT_COLOR
                    assert color_class(YashimaState(graph, lt, rt)) is expected, (
                        edges, lt, rt,
                    )


def test_hand_counted_searches(engine):
    solver = YashimaSolver(engine)
    single = _path(2, 0, 1)
    stats = solver.solve_stats(single)
    assert stats.expanded_nodes == 1
    assert stats.memo_entries == 1
    assert stats.value.kind is ValueKind.NUMBER
    assert stats.value.number == Dyadic(0)
    ends = _path(3, 0, 2)
    stats = solver.solve_stats(ends)
    assert stats.expanded_nodes == 3
    assert stats.memo_entries == 3
    assert engine.compare(solver.to_game(ends), engine.star()).symbol == "="


def test_commuting_violation_cases():
    same = _path(3, 0, 2)
    bad = commuting_violation(same)
    assert bad is not None and "blocked" in bad[2]
    different = _path(4, 0, 3)
    assert commuting_violation(different) is None
    assert move_descriptors(different, Player.LEFT)
    assert move_descriptors(different, Player.RIGHT)


def test_commuting_failure_reasons():
    # Left on 0 slides to 2 (board "l"), Right on 1 to 3 (board "r") or,
    # in the last row, to 2 as well; a hand-made slide table reaches the
    # reasons the real rule never gives
    left = (2, "l")
    for right, after_left, after_right, reason in [
        ((3, "r"), [(3, "lr")], [(2, "lr")], None),
        ((3, "r"), [], [(2, "lr")], "right move blocked after left"),
        ((3, "r"), [(3, "lr")], [], "left move blocked after right"),
        ((3, "r"), [(3, "lr")], [(2, "rl")], "orders disagree"),
        # the table lists Right's slide to 2 after Left's, but Left's
        # token is on 2 by then
        ((2, "r"), [(2, "lr")], [(2, "lr")], "right move blocked after left"),
    ]:
        table = {("l", 1): after_left, ("r", 0): after_right}
        got = yashima._commuting_failure(
            lambda board, token: table[board, token], 0, 1, [left], [right]
        )
        assert got == (None if reason is None else (left, right, reason))
    # the slides come as a row gives them: those onto the opponent's
    # vertex are skipped, and the table has no row for their boards
    table = {("l", 1): [(3, "lr")], ("r", 0): [(2, "lr")]}
    lefts, rights = [(1, "x"), left], [(0, "y"), (3, "r")]
    assert yashima._commuting_failure(
        lambda board, token: table[board, token], 0, 1, lefts, rights
    ) is None


def _small_bipartite_states(max_vertices, max_edges, variant, distinct=True):
    """Every bipartite placement on the small boards; with ``distinct``,
    only the first of the placements that share a transposition key."""
    seen = set()
    for n in range(2, max_vertices + 1):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for m in range(max_edges + 1):
            for combo in itertools.combinations_with_replacement(pairs, m):
                graph = MultiGraph(n, combo)
                for lt in range(n):
                    for rt in range(n):
                        if lt == rt:
                            continue
                        state = YashimaState(graph, lt, rt, variant)
                        if color_class(state) is ColorClass.NOT_BIPARTITE:
                            continue
                        if distinct:
                            if state.key() in seen:
                                continue
                            seen.add(state.key())
                        yield state


@pytest.mark.parametrize("variant", [Variant.YASHIMA, Variant.TRON])
def test_games_match_oracle_trees(engine, to_oracle, variant):
    solver = YashimaSolver(engine)
    slide_memo: dict = {}
    checked = 0
    for state in _small_bipartite_states(4, 4, variant):
        mine = to_oracle(solver.to_game(state))
        theirs = o.slide_game(
            state.graph.edges,
            state.left_token,
            state.right_token,
            variant.value,
            slide_memo,
        )
        assert mine == theirs, state
        checked += 1
    assert checked > 2000


def test_reachable_counts_match_oracle(engine):
    solver = YashimaSolver(engine)
    for state in _small_bipartite_states(4, 4, Variant.YASHIMA):
        if len(state.graph.edges) < 3:
            continue
        assert solver.reachable_states(state) == o.slide_state_count(
            state.graph.edges, state.left_token, state.right_token
        )


def test_ladder_statistics(engine):
    solver = YashimaSolver(engine)
    state = _ladder()
    stats = solver.solve_stats(state)
    assert format_value(engine, solver.to_game(state)) == "{0|-3}"
    assert stats.value.kind is ValueKind.PAIR
    assert stats.value.left == Dyadic(0)
    assert stats.value.right == Dyadic(-3)
    assert stats.expanded_nodes == 104241
    assert stats.memo_entries == 1206


@st.composite
def _boards(draw):
    n = draw(st.integers(2, 5))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda e: e[0] != e[1]
    )
    edges = draw(st.lists(pair, max_size=5))
    left, right = draw(
        st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
    )
    variant = draw(st.sampled_from(Variant))
    return YashimaState(MultiGraph(n, tuple(edges)), left, right, variant)


@settings(max_examples=300, deadline=None)
@given(state=_boards())
def test_random_boards_match_oracle(engine, to_oracle, state):
    solver = YashimaSolver(engine)
    edges, variant = state.graph.edges, state.variant.value
    game = o.slide_game(edges, state.left_token, state.right_token, variant)
    assert to_oracle(solver.to_game(state)) == game
    assert solver.reachable_states(state) == o.slide_state_count(
        edges, state.left_token, state.right_token, variant
    )


@settings(max_examples=300, deadline=None)
@given(state=_boards())
def test_random_boards_slide_like_the_oracle(state):
    edges, variant = state.graph.edges, state.variant.value
    lt, rt = state.left_token, state.right_token
    for player, token, other in ((Player.LEFT, lt, rt), (Player.RIGHT, rt, lt)):
        got = []
        for move in move_descriptors(state, player):
            got.append((apply_move(state, player, move).graph.edges, move.destination))
            u, v = move.edge
            assert is_legal(state, player, move)
            assert is_legal(state, player, Move((v, u), move.destination))
        assert sorted(got) == sorted(o.slide_successors(edges, token, other, variant))

    def after(rest, mover, other, dest):
        # the edges left once the mover slides to dest, or None if it may not
        slides = o.slide_successors(rest, mover, other, variant)
        return {d: r for r, d in slides}.get(dest)

    commutes = True
    for rest_l, dl in o.slide_successors(edges, lt, rt, variant):
        for rest_r, dr in o.slide_successors(edges, rt, lt, variant):
            left_first = after(rest_l, rt, dl, dr)
            right_first = after(rest_r, lt, dr, dl)
            if left_first is None or left_first != right_first:
                commutes = False
    assert (commuting_violation(state) is None) == commutes


def test_solve_stats_ignore_an_already_filled_memo(engine):
    ladder = _ladder()
    fresh = YashimaSolver(Engine()).solve_stats(ladder)
    solver = YashimaSolver(engine)
    for player in Player:
        for succ in legal_moves(ladder, player):
            solver.solve_stats(succ)
    # roots on the ladder's own edges fill the memo the ladder's walk reads
    for lt, rt in ((0, 9), (5, 4), (0, 4)):
        solver.to_game(YashimaState(ladder.graph, lt, rt))
    again = solver.solve_stats(ladder)
    assert (again.expanded_nodes, again.memo_entries) == (
        fresh.expanded_nodes,
        fresh.memo_entries,
    )
    assert solver.tree_size(ladder) == fresh.expanded_nodes
    assert solver.reachable_states(ladder) == fresh.memo_entries


@pytest.mark.parametrize("variant", [Variant.YASHIMA, Variant.TRON])
def test_the_walk_expands_each_state_once(variant, monkeypatch):
    calls = []  # the packed states the walk asks successors of
    successors = yashima._successors

    def counted(state, rule):
        calls.append(state)
        return successors(state, rule)

    monkeypatch.setattr(yashima, "_successors", counted)
    ladder = _ladder(variant)
    stats = YashimaSolver(Engine()).solve_stats(ladder)
    assert len(calls) == len(set(calls)) == stats.memo_entries
    # a walk from one of the ladder's successors, packed in the ladder's
    # numbering, fills part of its memo first; the ladder's walk then
    # expands only the states that memo lacks
    solver = YashimaSolver(Engine())
    (rule, memo), root = solver._numbered(ladder)
    solver._walk(successors(root, rule)[0][0], rule, memo)
    before = len(memo)
    calls.clear()
    solver.to_game(ladder)
    assert 0 < before < len(memo) == stats.memo_entries
    assert len(calls) == len(set(calls)) == len(memo) - before


def test_tron_ladder_statistics(engine):
    stats = YashimaSolver(engine).solve_stats(_ladder(Variant.TRON))
    assert stats.expanded_nodes == 3899
    assert stats.memo_entries == 322


@pytest.mark.parametrize(
    "variant, nodes", [(Variant.YASHIMA, 426), (Variant.TRON, 95)]
)
def test_ladder_node_count(variant, nodes):
    # the walk interns 399 (Yashima) and 81 (TRON) distinct forms, and
    # classifying the root canonicalizes them, which adds the rest.  Every
    # canonical option there is a number or a pair of numbers, so each
    # form goes straight to the number or switch it equals, and interns
    # none of the intermediate forms the general rewrite passes through
    engine = Engine()
    YashimaSolver(engine).solve_stats(_ladder(variant))
    assert engine.node_count() == nodes


@pytest.mark.parametrize("variant, value", [(Variant.YASHIMA, "{0|-3}"), (Variant.TRON, "{1|-1}")])
def test_ladder_values_take_no_general_rewrite(variant, value, monkeypatch):
    # canonical reads every ladder form from its number and pair options
    # by the simplicity theorem: no option is removed as dominated or
    # bypassed as reversible, and no order question is asked
    calls = []
    for name in ("remove_dominated", "bypass_reversible"):
        step = getattr(GameStore, name)
        monkeypatch.setattr(
            GameStore, name, lambda self, g, step=step: calls.append(g) or step(self, g)
        )
    engine = Engine()
    solver = YashimaSolver(engine)
    solver.solve_stats(_ladder(variant))
    assert calls == []
    assert engine.stats()["leq"] == 0
    assert format_value(engine, solver.to_game(_ladder(variant))) == value


@pytest.mark.parametrize("variant", [Variant.YASHIMA, Variant.TRON])
def test_roots_share_game_ids_not_walks(variant):
    # each successor is a root on other edges, so it is walked again under
    # its own numbering, and still lands on the ladder's option ids
    engine = Engine()
    solver = YashimaSolver(engine)
    ladder = _ladder(variant)
    solver.solve_stats(ladder)
    game = solver.to_game(ladder)
    nodes = engine.node_count()
    for player, options in (
        (Player.LEFT, engine.left_options(game)),
        (Player.RIGHT, engine.right_options(game)),
    ):
        ids = [solver.to_game(succ) for succ in legal_moves(ladder, player)]
        assert ids and tuple(sorted(set(ids))) == options
    assert engine.node_count() == nodes


def _assert_matches_oracle(to_oracle, solver, state):
    # hash-consed oracle games: equal trees are one object, so == is cheap
    # even on the deep, transposition-rich trees of long boards
    edges, variant = state.graph.edges, state.variant.value
    lt, rt = state.left_token, state.right_token
    game = o.slide_game(edges, lt, rt, variant)
    assert to_oracle(solver.to_game(state)) == game, state
    assert solver.reachable_states(state) == o.slide_state_count(
        edges, lt, rt, variant
    ), state


@pytest.mark.parametrize("variant", [Variant.YASHIMA, Variant.TRON])
def test_wide_token_fields_match_oracle(engine, to_oracle, variant):
    # token fields of 6 and 7 bits: tokens on vertices 39 and 69
    _assert_matches_oracle(to_oracle, YashimaSolver(engine), _path(40, 0, 39, variant))
    padded = YashimaState(MultiGraph(70, ((0, 1), (1, 2))), 0, 69, variant)
    _assert_matches_oracle(to_oracle, YashimaSolver(engine), padded)


@pytest.mark.parametrize("variant", [Variant.YASHIMA, Variant.TRON])
def test_later_roots_above_the_first_roots_vertices(engine, to_oracle, variant):
    # one solver, one edge tuple: the first root's vertices fit in 3 bits;
    # later roots put a token above them, in the same width and wider
    graph = MultiGraph(40, ((0, 1), (1, 2), (1, 2), (2, 3)))
    solver = YashimaSolver(engine)
    for lt, rt in ((0, 3), (0, 6), (6, 2), (1, 7), (39, 1), (3, 0)):
        _assert_matches_oracle(
            to_oracle, solver, YashimaState(graph, lt, rt, variant)
        )


def test_ladder_against_oracle():
    # both the value and the table size, on the independent implementation
    assert o.slide_state_count(LADDER_EDGES, 0, 4) == 1206
    game = o.slide_game(LADDER_EDGES, 0, 4)
    assert o.eq(game, o.OGame([o.ZERO], [o.integer(-3)]))


def test_small_sweep_regression(engine):
    report = verify_bipartite_simplicity(engine, max_vertices=3, max_edges=3)
    assert report.ok
    assert report.counterexamples == ()
    assert report.graphs_checked == 23
    assert report.states_checked == 114
    assert report.different_color_states == 96
    assert report.commuting_pairs_checked == 0
    assert report.distinct_boards == 19
    assert report.distinct_games == 16


def test_sweep_checks_pair_values(engine):
    report = verify_bipartite_simplicity(engine, max_vertices=4, max_edges=4)
    assert report.ok
    assert report.different_color_states > 0
    assert report.states_checked > report.different_color_states


def test_sweep_budget(engine):
    with pytest.raises(BoundsTooLargeError):
        verify_bipartite_simplicity(engine, state_budget=10)


def test_sweep_budget_counts_mask_words(engine):
    # 10**6 boards of 2 vertices make exactly the 2,000,000 placements the
    # budget allows, but each mask holds up to 999,999 bits, 15,625 words
    sizes = yashima._sweep_size(2, 999_999, yashima.STATE_BUDGET)
    assert sizes == (2_000_000, 15_625_000_000)
    # 1,953,248 placements on masks of 6 words each, 1,953,744 words in all
    sizes = yashima._sweep_size(3, 123, yashima.STATE_BUDGET)
    assert sizes == (1_953_248, 1_953_744)
    # bounds that stay cheap to sweep should the words go uncounted: 402
    # placements on 201 masks of 4 words
    with pytest.raises(BoundsTooLargeError, match="402 states and 804 mask words"):
        verify_bipartite_simplicity(engine, max_vertices=2, max_edges=200, state_budget=500)


def test_solve_budget(monkeypatch):
    # the ladder visits 1,206 states: a budget of that many solves it, one
    # less refuses the 1,206th before it is expanded
    monkeypatch.setattr(yashima, "STATE_BUDGET", 1_205)
    solver = YashimaSolver(Engine())
    with pytest.raises(BoundsTooLargeError, match="solve visits more than 1205 states"):
        solver.to_game(_ladder())
    with pytest.raises(BoundsTooLargeError, match="more than 1205"):
        YashimaSolver(Engine()).solve_stats(_ladder())
    monkeypatch.setattr(yashima, "STATE_BUDGET", 1_206)
    stats = YashimaSolver(Engine()).solve_stats(_ladder())
    assert (stats.expanded_nodes, stats.memo_entries) == (104_241, 1_206)
    assert YashimaSolver(Engine()).to_game(_ladder()) >= 0


@pytest.mark.parametrize(
    "bounds",
    [
        {"max_vertices": -3},
        {"max_edges": -1},
        {"state_budget": -1},
        {"max_counterexamples": 0},
    ],
    ids=["vertices", "edges", "state_budget", "counterexamples"],
)
def test_sweep_rejects_negative_bounds(engine, bounds):
    with pytest.raises(PreconditionError):
        verify_bipartite_simplicity(engine, **bounds)


def test_sweep_bounds_of_zero_and_one(engine):
    checked = {
        (v, e): verify_bipartite_simplicity(
            engine, max_vertices=v, max_edges=e
        ).states_checked
        for v in (0, 1, 3)
        for e in (0, 1)
    }
    assert checked == {
        (0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 0, (3, 0): 6, (3, 1): 24,
    }


@pytest.mark.parametrize("variant", [Variant.YASHIMA, Variant.TRON])
def test_sweep_tables_stay_small(variant):
    # The slide rows are the sweep's largest tables: 2,508 rows on the 627
    # boards of 4 vertices and 6 edges.  Kept as tuples in one flat list,
    # the traced peak reads 0.67 MiB (Yashima) and 0.32 MiB (TRON).  The
    # bounds sit about 10% above that, below the 0.80 and 0.52 MiB that
    # one list of row lists per board takes.
    engine = Engine()
    tracemalloc.start()
    try:
        report = verify_bipartite_simplicity(engine, 4, 6, variant)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok
    assert peak < {Variant.YASHIMA: 0.74, Variant.TRON: 0.36}[variant] * 2**20


@pytest.mark.parametrize("variant", [Variant.YASHIMA, Variant.TRON])
def test_sweep_interns_exactly_the_solvers_games(variant):
    engine = Engine()
    assert verify_bipartite_simplicity(engine, 4, 4, variant).ok
    nodes = engine.node_count()
    solver = YashimaSolver(engine)
    games = [solver.to_game(s) for s in _small_bipartite_states(4, 4, variant)]
    assert engine.node_count() == nodes
    for game in games:
        assert engine.classify_value(game).in_pair_set(NumberSystem.Z)


@pytest.mark.parametrize("variant", [Variant.YASHIMA, Variant.TRON])
def test_sweep_commuting_check_matches_commuting_violation(monkeypatch, variant):
    # same-color placements too, where moves do block
    monkeypatch.setattr(yashima, "_different_color", lambda labels, lt, rt: True)
    report = verify_bipartite_simplicity(
        Engine(), 4, 4, variant, max_counterexamples=10**6
    )
    swept = [
        (c.state.key(), c.detail)
        for c in report.counterexamples
        if c.kind == "non_commuting"
    ]
    expected = [
        (s.key(), "%r %r %s" % bad)
        for s in _small_bipartite_states(4, 4, variant)
        if (bad := commuting_violation(s)) is not None
    ]
    assert expected and swept == expected


def test_sweep_reports_every_failing_state(failing_laws):
    engine = Engine()
    report = verify_bipartite_simplicity(engine, 3, 3, max_counterexamples=10**6)
    assert not report.ok
    assert report.states_checked == 114
    kinds = Counter(c.kind for c in report.counterexamples)
    assert kinds["different_color_not_integer"] == report.different_color_states
    solver = YashimaSolver(engine)
    rejected = [
        s
        for s in _small_bipartite_states(3, 3, Variant.YASHIMA)
        if engine.classify_value(solver.to_game(s)) == failing_laws
    ]
    not_simple = [
        c.state for c in report.counterexamples if c.kind == "value_not_simple"
    ]
    assert not_simple == rejected
    # states sharing one game id are each reported
    assert max(Counter(map(solver.to_game, not_simple)).values()) > 1


def test_sweep_stops_at_max_counterexamples(engine, failing_laws):
    full = verify_bipartite_simplicity(engine, 3, 3, max_counterexamples=10**6)
    for k in range(1, len(full.counterexamples) + 1):
        report = verify_bipartite_simplicity(engine, 3, 3, max_counterexamples=k)
        assert report.counterexamples == full.counterexamples[:k]


def test_different_color_values_are_integers(engine):
    solver = YashimaSolver(engine)
    for state in _small_bipartite_states(4, 4, Variant.YASHIMA):
        if color_class(state) is not ColorClass.DIFFERENT_COLOR:
            continue
        game = solver.to_game(state)
        assert engine.as_number(game, NumberSystem.Z) is not None, state


# the integer refinements that the closed-set theorem certifies along the
# paper's route
ROUTE_PROPERTIES = (
    PropertyName.DIAMOND,
    PropertyName.DIAMOND_LEQ,
    PropertyName.DIAMOND_L_LFUZ,
    PropertyName.DIAMOND_R_LFUZ,
)


@pytest.mark.parametrize(
    "variant, certified, plain",
    [(Variant.YASHIMA, 101, 40), (Variant.TRON, 7, 4)],
)
def test_small_boards_follow_the_papers_proof_route(variant, certified, plain):
    """The paper's route to "different-color positions are integers".

    A Left move and a Right move from a different-color state commute, so
    on game ids the move pair has a common reply: the DIAMOND property.  A
    move flips the mover's color, so the different-color and same-color
    ids alternate along play, and the closed-set theorem applies to the
    partition they make.  An id met in both colors is certified.
    """
    engine = Engine()
    solver = YashimaSolver(engine)
    different, same = set(), set()
    placements = 0
    for state in _small_bipartite_states(4, 5, variant, distinct=False):
        placements += 1
        game = solver.to_game(state)
        if color_class(state) is ColorClass.DIFFERENT_COLOR:
            different.add(game)
        else:
            same.add(game)
    assert placements == 4560
    part = ClosedSetPartition.split(different, same - different)
    assert (len(part.certified), len(part.plain)) == (certified, plain)
    for p in ROUTE_PROPERTIES:
        report = verify_closed_set(engine, part, p)
        assert report.ok, (p, report)


GRID_3X3 = tuple((v, v + 1) for v in range(9) if v % 3 < 2) + tuple((v, v + 3) for v in range(6))
K_3_4 = tuple((u, v) for u in range(3) for v in range(3, 7))


# certified / plain game ids of the proof route, per board and variant
ROUTE_COUNTS = {
    (9, Variant.YASHIMA): (749, 434),
    (9, Variant.TRON): (112, 85),
    (7, Variant.YASHIMA): (263, 136),
    (7, Variant.TRON): (9, 7),
}


@pytest.mark.parametrize("variant", [Variant.YASHIMA, Variant.TRON])
@pytest.mark.parametrize("vertices, edges", [(9, GRID_3X3), (7, K_3_4)], ids=["grid3x3", "K3,4"])
def test_the_papers_theorem_past_the_sweeps_reach(variant, vertices, edges):
    """Every placement on the 3x3 grid and on K3,4, boards denser than
    the sweep's 5 vertices and 6 edges, and every state its play reaches:
    each value is in the integer pair set, each different-color state's
    value is an integer, and the paper's proof route holds, as in
    ``test_small_boards_follow_the_papers_proof_route``.  A reached state
    is colored by ``color_class`` on its own remaining edges, read from
    its mask in the solver's memo, so tokens in different components
    count as different-color."""
    engine = Engine()
    solver = YashimaSolver(engine)
    graph = MultiGraph(vertices, edges)
    for lt, rt in itertools.permutations(range(vertices), 2):
        solver.to_game(YashimaState(graph, lt, rt, variant))
    # every placement shares one numbering, so one memo holds every
    # reached state of every placement
    (rule, memo), _ = solver._numbered(YashimaState(graph, 0, 1, variant))
    shift = rule.shift
    low = (1 << shift) - 1
    different, same = set(), set()
    for state, game in memo.items():
        mask = state >> 2 * shift
        present = [edge for i, edge in enumerate(graph.edges) if mask >> i & 1]
        reached = YashimaState(
            MultiGraph(vertices, present), state >> shift & low, state & low, variant
        )
        assert engine.classify_value(game).in_pair_set(NumberSystem.Z), state
        if color_class(reached) is ColorClass.DIFFERENT_COLOR:
            different.add(game)
            assert engine.as_number(game, NumberSystem.Z) is not None, state
        else:
            same.add(game)
    part = ClosedSetPartition.split(different, same - different)
    assert (len(part.certified), len(part.plain)) == ROUTE_COUNTS[vertices, variant]
    for p in ROUTE_PROPERTIES:
        report = verify_closed_set(engine, part, p)
        assert report.ok, (p, report)
