"""Canonicalization: known forms, idempotence, uniqueness, rewrites."""

from __future__ import annotations

import random

from diamondcgt.values import Relation

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
