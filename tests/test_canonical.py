"""Canonicalization: known forms, idempotence, uniqueness, rewrites."""

from __future__ import annotations

import random
import time

import pytest

from diamondcgt.engine import Engine
from diamondcgt.notation import format_position, format_value, parse_position
from diamondcgt.values import Dyadic, Relation

import oracle as o


def test_known_canonical_forms(engine):
    zero = engine.zero
    star = engine.star()
    assert engine.canonical_form(engine.intern((star,), (star,))) == zero
    assert engine.canonical_form(
        engine.intern((engine.number_position(-1),), (engine.number_position(1),))
    ) == zero
    up = engine.intern((zero,), (star,))
    assert engine.canonical_form(up) == up
    upstar = engine.intern((zero, star), (zero,))
    assert engine.canonical_form(upstar) == upstar
    assert engine.canonical_form(engine.intern((zero,), ())) == engine.number_position(1)


def test_dominated_options_are_removed(engine):
    zero = engine.zero
    one = engine.number_position(1)
    two = engine.number_position(2)
    # for Left, 0 is dominated by 1; for Right, 2 is dominated by 1
    g = engine.intern((zero, one), (one, two))
    reduced = engine.remove_dominated(g)
    assert engine.left_options(reduced) == (one,)
    assert engine.right_options(reduced) == (one,)


def test_equal_valued_options_keep_smallest_id(engine):
    zero = engine.zero
    zero_like = engine.intern(
        (engine.number_position(-1),), (engine.number_position(1),)
    )
    g = engine.intern((zero, zero_like), (engine.number_position(2),))
    reduced = engine.remove_dominated(g)
    assert engine.left_options(reduced) == (zero,)
    # the mirror case: {-2 | 0, {-1|1}} keeps only 0 on the Right
    g = engine.intern((engine.number_position(-2),), (zero, zero_like))
    reduced = engine.remove_dominated(g)
    assert engine.right_options(reduced) == (zero,)


def test_domination_and_bypass_preserve_value(
    engine, day2_forms, random_day4_forms, to_oracle
):
    rng = random.Random(21)
    suite = list(day2_forms) + [rng.choice(random_day4_forms) for _ in range(150)]
    for g in suite:
        assert engine.compare(engine.remove_dominated(g), g) is Relation.EQUAL
        assert engine.compare(engine.bypass_reversible(g), g) is Relation.EQUAL
    for g in rng.sample(suite, 40):
        assert o.eq(to_oracle(engine.canonical_form(g)), to_oracle(g))


def test_canonical_form_is_idempotent(engine, day2_forms, random_day4_forms):
    for g in list(day2_forms) + list(random_day4_forms):
        c = engine.canonical_form(g)
        assert engine.canonical_form(c) == c


def test_canonical_value_preservation(engine, day2_forms, day3_forms):
    for g in day2_forms:
        assert engine.compare(g, engine.canonical_form(g)) is Relation.EQUAL
    rng = random.Random(22)
    for g in rng.sample(day3_forms, 400):
        assert engine.compare(g, engine.canonical_form(g)) is Relation.EQUAL


def test_day2_universe_has_22_values(engine, day2_forms, day2_values, to_oracle):
    assert len(day2_values) == 22
    # the oracle partitions the same 256 forms into the same classes
    reps: list[int] = []
    for g in day2_forms:
        for r in reps:
            if o.eq(to_oracle(g), to_oracle(r)):
                assert engine.canonical_form(g) == engine.canonical_form(r)
                break
        else:
            reps.append(g)
    assert len(reps) == 22


def test_day3_universe_has_1474_values(engine, day3_values):
    assert len(day3_values) == 1474


def test_canonical_uniqueness_on_day2(engine, day2_forms):
    for g in day2_forms:
        for h in day2_forms:
            same_value = engine.compare(g, h) is Relation.EQUAL
            same_canonical = engine.canonical_form(g) == engine.canonical_form(h)
            assert same_value == same_canonical


def test_canonical_uniqueness_sampled_day3(engine, day3_forms, day3_values, to_oracle):
    rng = random.Random(23)
    for _ in range(500):
        g, h = rng.choice(day3_forms), rng.choice(day3_forms)
        same_value = engine.compare(g, h) is Relation.EQUAL
        assert same_value == (engine.canonical_form(g) == engine.canonical_form(h))
    # distinct canonical ids really are distinct values, per the oracle
    for _ in range(40):
        g, h = rng.sample(day3_values, 2)
        assert not o.eq(to_oracle(g), to_oracle(h))


def test_canonical_has_no_dominated_options(engine, day3_values, to_oracle):
    """Canonical day-3 values are reduced, judged by the oracle's order: no
    option is dominated, and none is reversible (no gLR <= g, no gRL >= g)."""
    for g in day3_values:
        og = to_oracle(g)
        for a in og.left:
            for b in og.left - {a}:
                assert not o.leq(a, b), "dominated Left option survived"
            assert not any(o.leq(r, og) for r in a.right), "reversible Left option"
        for a in og.right:
            for b in og.right - {a}:
                assert not o.leq(b, a), "dominated Right option survived"
            assert not any(o.leq(og, l) for l in a.left), "reversible Right option"


@pytest.mark.parametrize(
    "text, value",
    [
        # a pair {p|q} bounds a fitting number by a closed end: x >= q for
        # Left, x <= p for Right, so a star's own number fits
        ("{*|}", "0"),
        ("{*|*}", "0"),
        ("{{1|0}|}", "0"),
        ("{{1|0}|1/2}", "0"),
        ("{{1|0}|{0|-1}}", "0"),
        ("{{2|1}|}", "1"),
        # a number option's bound stays open, and when no number fits the
        # general rewrite keeps the options
        ("{0,*|0}", "{*,0|0}"),
        ("{{2|1}|{0|-1}}", "{{2|1}|{0|-1}}"),
    ],
)
def test_forms_over_number_pairs(engine, to_oracle, text, value):
    g = parse_position(engine, text)
    c = engine.canonical_form(g)
    assert c == parse_position(engine, value)
    assert format_value(engine, g) == value
    assert o.eq(to_oracle(g), to_oracle(c))


def _pool(engine):
    # the numbers -3..3, ±1/2, ±1/4, ±3/4, 5/8 and 7/2, the switches
    # {1|0}, {2|1} and {1/2|-1/2}, and the stars *, 1* and {1/2|1/2}, whose
    # bounds on a fitting number are closed at both ends
    def num(n, e=0):
        return engine.number_position(Dyadic(n, e))

    numbers = [num(n) for n in range(-3, 4)] + [
        num(n, e) for n, e in ((1, 1), (-1, 1), (1, 2), (-1, 2), (3, 2), (-3, 2), (5, 3), (7, 1))
    ]
    switches = [
        engine.intern((num(1),), (num(0),)),
        engine.intern((num(2),), (num(1),)),
        engine.intern((num(1, 1),), (num(-1, 1),)),
    ]
    stars = [engine.star()] + [engine.intern((x,), (x,)) for x in (num(1), num(1, 1))]
    return numbers + switches + stars


def test_forms_over_numbers_and_switches(engine, to_oracle, monkeypatch):
    """Canonical forms of seeded random forms over a pool of numbers and
    switches, refereed by the oracle: the value is kept, a form some
    number fits prints as the simplest one, and otherwise, when Left's
    options have a greatest and Right's a least, as those two."""
    # 13/4, the simplest number between 3 and 7/2, is born on day 6
    monkeypatch.setattr(o, "FIT_SEARCH_DAY", 6)
    pool = _pool(engine)
    rng = random.Random(2501)
    switches = 0
    for _ in range(400):
        left = rng.sample(pool, rng.randint(0, 3))
        right = rng.sample(pool, rng.randint(0, 3))
        g = engine.intern(left, right)
        c = engine.canonical_form(g)
        assert o.eq(to_oracle(c), to_oracle(g))
        text = format_value(engine, c)
        fit = o.simplest_fit([to_oracle(x) for x in left], [to_oracle(x) for x in right])
        if fit is not None:
            assert text == str(fit)
            continue
        best = [x for x in left if all(o.leq(to_oracle(y), to_oracle(x)) for y in left)]
        least = [x for x in right if all(o.leq(to_oracle(x), to_oracle(y)) for y in right)]
        if best and least:
            switches += 1
            switch = engine.intern(best[:1], least[:1])
            assert text == format_value(engine, switch) == format_position(engine, switch)
    assert switches > 100


def test_number_options_far_apart_in_halvings():
    # every option is a number tree about 100,000 halvings deep; the
    # simplest number between them is read from the bounds' bits, with no
    # order recursion down the trees
    engine = Engine()

    def num(n, e):
        return engine.number_position(Dyadic(n, e))

    cases = [
        # neighbours: the form is already the tree of 3/2**100001
        ((num(1, 100000),), (num(1, 99999),), Dyadic(3, 100001)),
        ((num(-1, 99999),), (num(-1, 100000),), Dyadic(-3, 100001)),
        ((num(1, 100000),), (num(1, 99998),), Dyadic(1, 99999)),
        ((num(-1, 99998),), (num(-1, 100000),), Dyadic(-1, 99999)),
    ]
    forms = [engine.intern(left, right) for left, right, _ in cases]
    start = time.perf_counter()
    answers = [engine.canonical_form(g) for g in forms]
    assert time.perf_counter() - start < 0.5
    assert [engine.as_number(c) for c in answers] == [value for _, _, value in cases]
