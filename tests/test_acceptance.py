"""The acceptance gate: one test per shipped claim, one line per gate.

Run with -v to get the per-gate pass/fail lines; each test also prints a
summary line with the quantities it verified.
"""

from __future__ import annotations

import itertools
import random
import time
from pathlib import Path

import pytest

from diamondcgt.cli import main
from diamondcgt.diamond import (
    ClosedSetPartition,
    PropertyName,
    check_stop_transfer,
    has_diamond,
    has_property,
    verify_closed_set,
)
from diamondcgt.errors import PreconditionError
from diamondcgt.notation import parse_position
from diamondcgt.values import Dyadic, NumberSystem, Relation
from diamondcgt.yashima import (
    ColorClass,
    MultiGraph,
    Variant,
    YashimaSolver,
    YashimaState,
    color_class,
    verify_bipartite_simplicity,
)

import oracle as o

GRAPHS = Path(__file__).resolve().parent.parent / "graphs"
LADDER = str(GRAPHS / "ladder_2x5.graph")

LADDER_EDGES = (
    (0, 1), (1, 2), (2, 3), (3, 4),
    (5, 6), (6, 7), (7, 8), (8, 9),
    (0, 5), (1, 6), (2, 7), (3, 8), (3, 8), (4, 9),
)

Z = NumberSystem.Z
D = NumberSystem.D


@pytest.fixture(scope="module")
def sweeps(engine):
    """One full small-board sweep per variant, shared by gates 3 and 4."""
    out = {}
    for variant in (Variant.YASHIMA, Variant.TRON):
        start = time.perf_counter()
        report = verify_bipartite_simplicity(
            engine, max_vertices=5, max_edges=6, variant=variant
        )
        out[variant] = (report, time.perf_counter() - start)
    return out


def test_gate1_ladder_value(capsys):
    start = time.perf_counter()
    code = main(["yashima", "value", LADDER])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    assert out == "{0|-3}\n"
    assert elapsed < 60.0
    print("gate 1 PASS: ladder value printed {0|-3} in %.2fs" % elapsed)


def test_gate2_ladder_statistics(engine):
    solver = YashimaSolver(engine)
    stats = solver.solve_stats(YashimaState(MultiGraph(10, LADDER_EDGES), 0, 4))
    assert 100_000 <= stats.expanded_nodes <= 110_000
    assert stats.expanded_nodes == 104_241  # convention: see README
    assert 1_000 <= stats.memo_entries <= 1_500
    assert stats.memo_entries == 1_206
    print(
        "gate 2 PASS: expanded=%d (band 100000..110000), memo=%d (band 1000..1500)"
        % (stats.expanded_nodes, stats.memo_entries)
    )


def test_gate3_small_board_value_laws(sweeps):
    for variant, (report, elapsed) in sweeps.items():
        assert report.ok, (variant, report.counterexamples)
        assert report.counterexamples == ()
        assert elapsed < 600.0
        assert report.graphs_checked == 6104
        assert report.states_checked == 108_120
        assert report.different_color_states == 79_660
        assert report.distinct_boards == 5406
    assert sweeps[Variant.YASHIMA][0].distinct_games == 705
    assert sweeps[Variant.TRON][0].distinct_games == 32
    print(
        "gate 3 PASS: 108120 states per variant, zero value-law counterexamples"
        " (%.1fs + %.1fs)"
        % (sweeps[Variant.YASHIMA][1], sweeps[Variant.TRON][1])
    )


def test_gate4_commuting_moves(sweeps):
    for variant, (report, _elapsed) in sweeps.items():
        assert report.commuting_pairs_checked == 42_000
        assert not any(
            c.kind == "non_commuting" for c in report.counterexamples
        )
        assert report.ok
    print(
        "gate 4 PASS: 42000 move pairs per variant commute, zero violations"
    )


def _exhaustive_p1(engine, universe):
    checked = 0
    for g in universe:
        for h in universe:
            gh = engine.compare(g, h)
            for j in universe:
                if gh.greater_or_fuzzy and engine.leq(j, h):
                    assert engine.compare(g, j).greater_or_fuzzy
                if gh.less_or_fuzzy and engine.leq(h, j):
                    assert engine.compare(g, j).less_or_fuzzy
                checked += 1
    return checked


def _sampled_p1(engine, pool, rng, count):
    for _ in range(count):
        g, h, j = (rng.choice(pool) for _ in range(3))
        if engine.compare(g, h).greater_or_fuzzy and engine.leq(j, h):
            assert engine.compare(g, j).greater_or_fuzzy
        if engine.compare(g, h).less_or_fuzzy and engine.leq(h, j):
            assert engine.compare(g, j).less_or_fuzzy
    return count


def test_gate5_proposition_suite(
    engine, day2_forms, day2_values, day3_forms, day3_values, random_day4_forms
):
    rng = random.Random(20260815)
    exhaustive = list(day2_forms) + list(day3_forms)
    randoms = list(random_day4_forms)
    suite = exhaustive + randoms

    # order laws: the value poset is a partial order under leq
    triples = _exhaustive_p1(engine, day2_values)
    triples += _sampled_p1(engine, list(day3_values), rng, 4000)
    triples += _sampled_p1(engine, randoms, rng, 3000)

    # every option straddles its parent
    for g in suite:
        for gl in engine.left_options(g):
            assert engine.compare(gl, g).less_or_fuzzy
        for gr in engine.right_options(g):
            assert engine.compare(g, gr).less_or_fuzzy

    # canonicalization preserves value
    for g in suite:
        assert engine.compare(g, engine.canonical_form(g)) is Relation.EQUAL

    # numbers with options on both sides are pairs of numbers
    values = sorted(
        set(day3_values) | {engine.canonical_form(g) for g in randoms}
    )
    for v in values:
        m = engine.as_number(v, D)
        lefts, rights = engine.left_options(v), engine.right_options(v)
        if m is not None and lefts and rights:
            for opt in lefts + rights:
                assert engine.as_number(opt, D) is not None
            assert engine.in_pair_set(v, D)
            assert engine.in_pair_set(v, Z) == (m.exponent <= 1)

    # a crossed pair sits below y exactly when its right entry does
    grid = [Dyadic(n, 1) for n in range(-4, 5)] + [Dyadic(1, 2), Dyadic(-3, 2)]
    pair_checks = 0
    for x1 in grid:
        for x2 in grid:
            if not x2 <= x1:
                continue
            pair = engine.intern(
                (engine.number_position(x1),), (engine.number_position(x2),)
            )
            for y in grid:
                below = engine.compare(
                    pair, engine.number_position(y)
                ).less_or_fuzzy
                assert below == (x2 <= y)
                pair_checks += 1

    # equal positions share stops (every form against its canonical)
    for g in suite:
        c = engine.canonical_form(g)
        for system in (Z, D):
            assert engine.left_stop(g, system) == engine.left_stop(c, system)
            assert engine.right_stop(g, system) == engine.right_stop(c, system)

    # stop bounds force strict comparison against system members
    zgrid = [Dyadic(n) for n in range(-3, 4)]
    dgrid = zgrid + [Dyadic(n, 1) for n in (-5, -1, 1, 5)]
    p8_positions = list(day3_values) + randoms[:200]
    for g in p8_positions:
        for system, xs in ((Z, zgrid), (D, dgrid)):
            ls = engine.left_stop(g, system)
            rs = engine.right_stop(g, system)
            for x in xs:
                xpos = engine.number_position(x)
                if ls < x:
                    assert engine.compare(g, xpos) is Relation.LESS
                if rs > x:
                    assert engine.compare(g, xpos) is Relation.GREATER

    # the simplest straddled member is the value
    for v in values:
        for system in (Z, D):
            x = engine.simplest_between(
                engine.left_options(v), engine.right_options(v), system
            )
            if x is not None:
                assert engine.as_number(v, system) == x

    # canonical uniqueness: distinct canonical ids are never equal in value
    for i, g in enumerate(day3_values):
        for h in day3_values[i + 1 :]:
            assert engine.compare(g, h) is not Relation.EQUAL
    for g in day2_forms:
        for h in day2_forms:
            equal = engine.compare(g, h) is Relation.EQUAL
            assert equal == (
                engine.canonical_form(g) == engine.canonical_form(h)
            )
    for _ in range(20_000):
        g, h = rng.choice(randoms), rng.choice(randoms)
        equal = engine.compare(g, h) is Relation.EQUAL
        assert equal == (engine.canonical_form(g) == engine.canonical_form(h))

    print(
        "gate 5 PASS: propositions on %d exhaustive + %d random positions,"
        " %d order triples, %d pair thresholds, uniqueness over %d values"
        % (len(exhaustive), len(randoms), triples, pair_checks, len(day3_values))
    )


def _followers(engine, root):
    out = set()
    frontier = [root]
    while frontier:
        g = frontier.pop()
        if g in out:
            continue
        out.add(g)
        frontier.extend(engine.left_options(g))
        frontier.extend(engine.right_options(g))
    return sorted(out)


def _strong_core(engine, followers, passes):
    """Members passing the test whose options already passed, bottom-up."""
    core: set[int] = set()
    for g in followers:  # ids ascend, so options precede their parents
        opts = engine.left_options(g) + engine.right_options(g)
        if all(opt in core for opt in opts) and passes(g):
            core.add(g)
    return core


def _closed_set_roots(engine, random_day4_forms, rng):
    roots = list(rng.sample(random_day4_forms, 120))
    for _ in range(40):
        num = Dyadic(rng.randint(-16, 16), rng.randint(0, 3))
        roots.append(engine.number_position(num))
    solver = YashimaSolver(engine)
    states = []
    for n in range(2, 5):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for m in range(1, 5):
            for combo in itertools.combinations_with_replacement(pairs, m):
                graph = MultiGraph(n, combo)
                for lt in range(n):
                    for rt in range(n):
                        if lt == rt:
                            continue
                        state = YashimaState(graph, lt, rt)
                        if color_class(state) is ColorClass.DIFFERENT_COLOR:
                            states.append(state)
    for state in rng.sample(states, 40):
        roots.append(solver.to_game(state))
    return roots


def test_gate6_closed_set_soundness(engine, random_day4_forms):
    rng = random.Random(20260816)
    roots = _closed_set_roots(engine, random_day4_forms, rng)
    assert len(roots) == 200
    refinements = (
        PropertyName.DIAMOND,
        PropertyName.DIAMOND_LEQ,
        PropertyName.DIAMOND_L_LFUZ,
        PropertyName.DIAMOND_R_LFUZ,
    )
    verified = {"sets": 0, "members": 0, "splits": 0, "plain": 0}
    for root in roots:
        followers = _followers(engine, root)
        for system, tag in ((Z, PropertyName.DIAMOND_Z), (D, PropertyName.DIAMOND_D)):
            core = _strong_core(
                engine,
                followers,
                lambda g: has_diamond(engine, g, system).holds,
            )
            assert core, root  # 0 is a follower of everything and qualifies
            report = verify_closed_set(
                engine, ClosedSetPartition.total(core), tag
            )
            assert report.ok, (root, tag, report)
            verified["sets"] += 1
            verified["members"] += report.counts["members"]
        for p in refinements:
            core = _strong_core(
                engine, followers, lambda g: has_property(engine, g, p).holds
            )
            plain = {
                g
                for g in followers
                if g not in core
                and all(
                    opt in core
                    for opt in engine.left_options(g) + engine.right_options(g)
                )
            }
            part = ClosedSetPartition.split(certified=core, plain=plain)
            report = verify_closed_set(engine, part, p)
            assert report.ok, (root, p, report)
            verified["splits"] += 1
            verified["plain"] += report.counts["plain"]
    assert verified["sets"] == 400 and verified["splits"] == 800
    assert verified["plain"] > 0  # the split form was exercised for real
    print(
        "gate 6 PASS: %d member sets + %d split partitions verified"
        " (%d certified members, %d plain members), zero violations"
        % (
            verified["sets"],
            verified["splits"],
            verified["members"],
            verified["plain"],
        )
    )


def test_gate7_negative_controls(engine):
    star = engine.star()
    zero = engine.zero
    assert has_diamond(engine, star, Z).holds is False
    assert has_property(engine, star, PropertyName.TRIANGLE).holds is False
    upstar = engine.intern((zero, star), (zero,))
    assert engine.canonical_form(upstar) == upstar
    assert has_diamond(engine, upstar, Z).holds is False
    # the transfer implication needs its non-member hypothesis: with a
    # member in the second slot the conclusion 0 "below or fuzzy" 0 fails
    assert (
        check_stop_transfer(
            engine, star, zero, Dyadic(0), Z, enforce_preconditions=False
        )
        is False
    )
    with pytest.raises(PreconditionError):
        check_stop_transfer(engine, star, zero, Dyadic(0), Z)
    pair = engine.intern((zero,), (engine.number_position(-3),))
    assert check_stop_transfer(engine, zero, pair, Dyadic(1), Z) is True
    print(
        "gate 7 PASS: straddle and guide-comparison fail on the fuzzy atom;"
        " transfer failure reproduced and fenced by its precondition"
    )


def test_gate8_known_values(engine):
    zero = engine.zero
    star = engine.star()
    catalog = [
        ("*", engine.intern((zero,), (zero,))),
        ("{0|*}", engine.intern((zero,), (star,))),
        ("{0,*|0}", engine.intern((zero, star), (zero,))),
        ("{-1|1}", zero),
        ("{0|1}", engine.number_position(Dyadic(1, 1))),
        ("{1|}", engine.number_position(2)),
    ]
    for text, expected in catalog:
        g = parse_position(engine, text)
        assert engine.compare(g, expected) is Relation.EQUAL, text
        assert engine.canonical_form(g) == engine.canonical_form(expected), text
    assert engine.canonical_form(parse_position(engine, "*")) == engine.intern(
        (zero,), (zero,)
    )
    print("gate 8 PASS: %d catalog values reproduced" % len(catalog))


def test_gate9_token_game_oracles(engine):
    solver = YashimaSolver(engine)
    single = YashimaState(MultiGraph(2, ((0, 1),)), 0, 1)
    path = YashimaState(MultiGraph(3, ((0, 1), (1, 2))), 0, 2)
    assert engine.compare(solver.to_game(single), engine.zero) is Relation.EQUAL
    assert engine.compare(solver.to_game(path), engine.star()) is Relation.EQUAL
    assert o.eq(o.slide_game(((0, 1),), 0, 1), o.ZERO)
    assert o.eq(o.slide_game(((0, 1), (1, 2)), 0, 2), o.STAR)
    print(
        "gate 9 PASS: single edge is 0 and the 3-path is * on both the"
        " engine and the independent oracle"
    )
