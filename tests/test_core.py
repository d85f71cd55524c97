"""Interning, order relations, and outcomes against the oracle."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diamondcgt import _kernel, kernel
from diamondcgt.engine import Engine
from diamondcgt.errors import MalformedGameError
from diamondcgt.values import Outcome, Relation

import oracle as o

_OUTCOME_LETTER = {
    Outcome.LEFT_WINS: "L",
    Outcome.RIGHT_WINS: "R",
    Outcome.PREVIOUS_WINS: "P",
    Outcome.NEXT_WINS: "N",
}


def test_intern_sorts_and_deduplicates(engine, day1_forms):
    zero, one, minus_one, star = day1_forms
    a = engine.intern((one, zero, one), (star,))
    b = engine.intern((zero, one), (star, star))
    assert a == b
    assert engine.left_options(a) == tuple(sorted((zero, one)))


def test_intern_rejects_unknown_option_ids(engine):
    # sorted or not, given as tuples or as iterators: neither the given key
    # nor its normal key is in the index, so the ids are checked before
    # the node, its key or an alias is stored
    bad = engine.node_count() + 5
    store = engine.store
    nodes, index = list(store._nodes), dict(store._index)
    for left, right in [
        ((bad,), ()),
        ((0, bad), ()),
        ((bad, 0, 0), ()),
        ((), (0, -1)),
        ((0,), (10**30,)),
    ]:
        with pytest.raises(MalformedGameError):
            engine.intern(left, right)
        with pytest.raises(MalformedGameError):
            engine.intern(iter(left), iter(right))
    assert store._nodes == nodes
    assert store._index == index


def test_intern_answers_option_lists_as_given():
    # permuted and repeated lists, as lists, tuples, sets and generators,
    # name the node their sorted distinct options name; each new given
    # key is kept as an alias, and asking again creates nothing
    engine = Engine()
    zero = engine.zero
    one = engine.intern([zero], [])
    minus_one = engine.intern([], [zero])
    star = engine.intern([zero], [zero])
    g = engine.intern((zero, one, star), (minus_one,))
    nodes = engine.node_count()
    lefts = (
        lambda: [star, zero, one],
        lambda: (one, one, zero, star),
        lambda: {star, one, zero},
        lambda: (x for x in (one, star, zero, zero)),
    )
    rights = (
        lambda: [minus_one],
        lambda: (minus_one, minus_one),
        lambda: iter({minus_one}),
    )
    for _ in range(2):
        for left in lefts:
            for right in rights:
                assert engine.intern(left(), right()) == g
    assert engine.node_count() == nodes
    given = {(tuple(left()), tuple(right())) for left in lefts for right in rights}
    normal = engine.store.node(g)
    assert normal in given
    assert engine.stats()["aliases"] == len(given) - 1 == 7


def test_compare_is_reflexive_and_equal_is_symmetric(engine, day2_values):
    for g in day2_values:
        assert engine.compare(g, g) is Relation.EQUAL
    for g in day2_values:
        for h in day2_values:
            if engine.compare(g, h) is Relation.EQUAL:
                assert engine.compare(h, g) is Relation.EQUAL


def test_leq_transitive_on_day2_values(engine, day2_values):
    vals = day2_values
    for g in vals:
        for h in vals:
            if not engine.leq(g, h):
                continue
            for j in vals:
                if engine.leq(h, j):
                    assert engine.leq(g, j)


def test_compare_agrees_with_oracle_on_day2_values(engine, day2_values, to_oracle):
    for g in day2_values:
        for h in day2_values:
            assert engine.compare(g, h).symbol == o.compare(to_oracle(g), to_oracle(h))


def test_compare_agrees_with_oracle_on_sampled_forms(
    engine, day2_forms, random_day4_forms, to_oracle
):
    rng = random.Random(11)
    pool = list(day2_forms) + list(random_day4_forms)
    for _ in range(600):
        g, h = rng.choice(pool), rng.choice(pool)
        assert engine.compare(g, h).symbol == o.compare(to_oracle(g), to_oracle(h))


def test_outcome_agrees_with_oracle(engine, day2_forms, random_day4_forms, to_oracle):
    rng = random.Random(12)
    pool = list(day2_forms) + [rng.choice(random_day4_forms) for _ in range(200)]
    for g in pool:
        assert _OUTCOME_LETTER[engine.outcome(g)] == o.outcome(to_oracle(g))


def test_mixed_transitivity_through_greater_or_fuzzy(
    engine, day2_values, random_day4_forms
):
    # g above-or-fuzzy h and j <= h force g above-or-fuzzy j; dually on
    # the other side of the chain
    vals = day2_values
    for g in vals:
        for h in vals:
            for j in vals:
                if engine.compare(g, h).greater_or_fuzzy and engine.leq(j, h):
                    assert engine.compare(g, j).greater_or_fuzzy
                if engine.leq(g, h) and engine.compare(h, j).less_or_fuzzy:
                    assert engine.compare(g, j).less_or_fuzzy
    rng = random.Random(13)
    for _ in range(4000):
        g, h, j = (rng.choice(random_day4_forms) for _ in range(3))
        if engine.compare(g, h).greater_or_fuzzy and engine.leq(j, h):
            assert engine.compare(g, j).greater_or_fuzzy
        if engine.leq(g, h) and engine.compare(h, j).less_or_fuzzy:
            assert engine.compare(g, j).less_or_fuzzy


def test_options_straddle_their_position(engine, day2_forms, random_day4_forms):
    for g in list(day2_forms) + list(random_day4_forms):
        for gl in engine.left_options(g):
            assert engine.compare(gl, g).less_or_fuzzy
        for gr in engine.right_options(g):
            assert engine.compare(g, gr).less_or_fuzzy


def test_specific_comparisons(engine):
    star = engine.star()
    assert engine.compare(star, star) is Relation.EQUAL
    pair = engine.intern((engine.zero,), (engine.number_position(-3),))
    assert engine.compare(pair, engine.zero) is Relation.FUZZY


@st.composite
def _order_scripts(draw):
    """Interns of forms built from earlier ones, interleaved with order
    queries; positions are indexes into the list of forms built so far,
    which starts with the four day-1 forms."""
    steps = []
    count = 4
    for _ in range(draw(st.integers(1, 40))):
        kind = draw(st.sampled_from(("intern", "compare", "leq")))
        if kind == "intern":
            options = st.lists(st.integers(0, count - 1), max_size=3)
            steps.append((kind, draw(options), draw(options)))
            count += 1
        else:
            pair = st.integers(0, count - 1)
            steps.append((kind, draw(pair), draw(pair)))
    return steps


@settings(max_examples=200, deadline=None)
@given(steps=_order_scripts())
def test_random_forms_order_matches_oracle(steps):
    # a fresh engine, so rows are appended after earlier queries filled
    # the memo; every answer and, at the end, every pair is checked
    engine = Engine()
    zero = engine.zero
    forms = [
        zero,
        engine.intern((zero,), ()),
        engine.intern((), (zero,)),
        engine.intern((zero,), (zero,)),
    ]
    games = [o.ZERO, o.OGame([o.ZERO]), o.OGame([], [o.ZERO]), o.STAR]
    for kind, a, b in steps:
        if kind == "intern":
            forms.append(engine.intern([forms[i] for i in a], [forms[i] for i in b]))
            games.append(o.OGame([games[i] for i in a], [games[i] for i in b]))
        elif kind == "compare":
            assert engine.compare(forms[a], forms[b]).symbol == o.compare(games[a], games[b])
        else:
            assert engine.leq(forms[a], forms[b]) == o.leq(games[a], games[b])
    for g, x in zip(forms, games):
        for h, y in zip(forms, games):
            assert engine.compare(g, h).symbol == o.compare(x, y)


def test_stats_count_the_day2_order_memo():
    # a fresh engine that repeats the day-2 fixtures: 256 forms, their 22
    # values, and every ordered pair of values (the diagonal included)
    engine = Engine()
    zero = engine.zero
    day1 = (
        zero,
        engine.intern((zero,), ()),
        engine.intern((), (zero,)),
        engine.intern((zero,), (zero,)),
    )
    subsets = [()]
    for form in day1:
        subsets.extend([s + (form,) for s in subsets])
    forms = [engine.intern(left, right) for left in subsets for right in subsets]
    values = sorted({engine.canonical_form(g) for g in forms})
    for g in values:
        for h in values:
            engine.compare(g, h)
    stats = engine.stats()
    assert len(values) == 22
    assert stats["nodes"] == engine.node_count() == 256
    # only the order recursion stores pairs, the ones it met on an option:
    # canonicalizing stores 7, and the compares add 153.  Every option
    # here is a number or the pair *, and canonical answers 85 of the 249
    # forms it computes without an order question: those with only number
    # options, and those some number fits.  Neither leq nor compare stores
    # the pair it was asked; 324 of the 484 compared pairs no recursion met
    assert stats["leq"] == 160
    assert stats["canonical"] == 256
    assert stats["left_stops"] == stats["right_stops"] == 0
    # every option list here reaches intern sorted and distinct
    assert stats["aliases"] == 0
    assert set(stats) == {
        "nodes", "aliases", "leq", "canonical", "left_stops", "right_stops",
        "number_positions",
    }


def test_stats_count_the_day3_canonicalization():
    # a fresh engine that builds every value born by day 3 as the forms
    # benchmark does: forms over antichains of the day-2 values, then
    # canonicalized.  A form is cleared of dominated options once, and
    # again only after a bypass changed it; a form whose options are
    # numbers or pairs of numbers asks no order question at all when it
    # has only number options or some number fits it, which holds for 437
    # of the 8,953 forms computed.  Only the order recursion stores pairs,
    # the ones it met on an option: the day-2 build leaves 7, the
    # antichain compares bring the count to 157, and canonicalization,
    # which asks leq 90,802 times about 16,745 distinct pairs, to 3,577
    engine = Engine()
    zero = engine.zero
    day1 = (
        zero,
        engine.intern((zero,), ()),
        engine.intern((), (zero,)),
        engine.intern((zero,), (zero,)),
    )
    subsets = [()]
    for form in day1:
        subsets.extend([s + (form,) for s in subsets])
    day2 = sorted({engine.canonical_form(engine.intern(l, r)) for l in subsets for r in subsets})
    antichains = []

    def extend(index, acc):
        # the benchmark's order, which decides what the canonical memo
        # already holds when each form is canonicalized
        if index == len(day2):
            antichains.append(tuple(acc))
            return
        if all(engine.compare(day2[index], w) is Relation.FUZZY for w in acc):
            extend(index + 1, acc + [day2[index]])
        extend(index + 1, acc)

    extend(0, [])
    values = {engine.canonical_form(engine.intern(l, r)) for l in antichains for r in antichains}
    stats = engine.stats()
    assert len(values) == 1474
    assert stats["nodes"] == 10037
    assert stats["canonical"] == 9986
    assert stats["leq"] == 3577


def _fresh_pair():
    # a fresh engine and two ids of day 2 that no order question has met
    engine = Engine()
    zero = engine.zero
    one = engine.intern((zero,), ())
    star = engine.intern((zero,), (zero,))
    g = engine.intern((one,), (star,))
    h = engine.intern((star,), (zero,))
    return engine, g, h


def test_compare_stores_what_its_recursion_met_but_not_its_pair():
    # leq keeps the same rule: neither stores the pair it was asked
    for ask in (Engine.compare, Engine.leq):
        engine, g, h = _fresh_pair()
        rows = engine.store._leq
        answer = ask(engine, g, h)
        assert h not in rows[g] and g not in rows[h]
        # the option pairs the recursion met are stored, so asking again
        # reads them and stores nothing new
        stored = engine.stats()["leq"]
        assert stored > 0
        assert ask(engine, g, h) == answer
        assert engine.stats()["leq"] == stored
        assert h not in rows[g] and g not in rows[h]


_RELATION_OF_LEQS = {
    (True, True): _kernel.REL_EQUAL,
    (True, False): _kernel.REL_LESS,
    (False, True): _kernel.REL_GREATER,
    (False, False): _kernel.REL_FUZZY,
}


def test_compare_matches_two_leqs_on_day3_values(engine, day3_values):
    # every pair of distinct values, in both orders, against the relation
    # that two explicit leq calls give
    store = engine.store
    values = day3_values
    for i, g in enumerate(values):
        for h in values[i + 1 :]:
            forward, backward = store.compare(g, h), store.compare(h, g)
            a, b = store.leq(g, h), store.leq(h, g)
            assert forward == _RELATION_OF_LEQS[a, b], (g, h)
            assert backward == _RELATION_OF_LEQS[b, a], (h, g)


def test_compare_keeps_equal_forms_equal():
    # equal forms that are not canonical, or with one canonical side,
    # are equal, not less
    engine = Engine()
    zero, star = engine.zero, engine.star()
    minus_one, one = engine.number_position(-1), engine.number_position(1)
    wide_zero = engine.intern((minus_one,), (one,))
    star_star = engine.intern((star,), (star,))
    for g in (zero, star, wide_zero, star_star):
        engine.canonical_form(g)
    assert engine.canonical_form(wide_zero) == engine.canonical_form(star_star) == zero
    for g, h in ((wide_zero, zero), (star_star, zero), (wide_zero, star_star)):
        assert engine.compare(g, h) is Relation.EQUAL
        assert engine.compare(h, g) is Relation.EQUAL


def test_backend_report():
    # the benchmark's provenance record reads exactly these names
    assert kernel.backend is _kernel
    assert kernel.backend.__file__.endswith(".py")
    assert kernel.KERNEL_BACKEND == "pure"
    assert Engine().kernel_name == "pure"
