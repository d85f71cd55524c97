"""Dyadic values, number trees, classification, and simplest members."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from diamondcgt._kernel import dy_lt, dy_normalize, dy_simplest
from diamondcgt.engine import Engine
from diamondcgt.errors import PreconditionError
from diamondcgt.notation import parse_position
from diamondcgt.values import Dyadic, NumberSystem, Relation, ValueKind

import oracle as o

Z = NumberSystem.Z
D = NumberSystem.D


def test_dyadic_normalization_and_text():
    assert Dyadic(4, 2) == Dyadic(1)
    assert Dyadic(-6, 1) == Dyadic(-3)
    assert str(Dyadic(3)) == "3"
    assert str(Dyadic(-3, 2)) == "-3/4"
    assert Dyadic(1, 1).pair == (1, 1)
    assert float(Dyadic(1, 1).as_fraction()) == 0.5
    assert Dyadic(1, 1) < Dyadic(3, 2) < Dyadic(1)
    assert Dyadic(5, 0).is_integer and not Dyadic(5, 1).is_integer
    assert Dyadic(1, 1).in_system(D) and not Dyadic(1, 1).in_system(Z)


def test_a_negative_exponent_is_a_precondition_error():
    with pytest.raises(PreconditionError, match="exponent must be nonnegative"):
        Dyadic(1, -1)


def test_the_package_imports_without_fractions():
    # only Dyadic.as_fraction needs fractions, and it imports it itself;
    # a fresh interpreter without site packages shows what the package
    # alone loads
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import sys\n"
        "import diamondcgt.yashima, diamondcgt.graphio, diamondcgt.notation\n"
        "import diamondcgt.diamond, diamondcgt.cli\n"
        "print('fractions' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")


def test_number_positions_are_the_canonical_trees(engine):
    two = engine.number_position(2)
    assert engine.left_options(two) == (engine.number_position(1),)
    assert engine.right_options(two) == ()
    half = engine.number_position(Dyadic(1, 1))
    assert engine.left_options(half) == (engine.zero,)
    assert engine.right_options(half) == (engine.number_position(1),)
    minus_three_quarters = engine.number_position(Dyadic(-3, 2))
    assert engine.left_options(minus_three_quarters) == (
        engine.number_position(-1),
    )
    assert engine.right_options(minus_three_quarters) == (
        engine.number_position(Dyadic(-1, 1)),
    )


def test_deep_integer_positions_are_built_without_recursing():
    engine = Engine()  # keep the shared session universe small
    deep = engine.number_position(5000)
    assert engine.as_number(deep, D) == Dyadic(5000)
    assert engine.birthday(deep) == 5000
    assert engine.left_options(deep) == (engine.number_position(4999),)
    assert engine.as_number(engine.number_position(-5000), Z) == Dyadic(-5000)


def test_deep_dyadic_positions_are_built_without_recursing():
    engine = Engine()  # keep the shared session universe small
    tiny = engine.number_position(Dyadic(1, 5000))
    assert engine.as_number(tiny, D) == Dyadic(1, 5000)
    assert engine.left_options(tiny) == (engine.zero,)
    assert engine.right_options(tiny) == (engine.number_position(Dyadic(1, 4999)),)
    deep = engine.number_position(Dyadic(-12345, 5000))
    assert engine.as_number(deep, D) == Dyadic(-12345, 5000)
    # intern records each birthday, ceil(|x|) + 5000 here
    assert engine.birthday(tiny) == engine.birthday(deep) == 5001


def test_shape_facts_of_a_deep_chain_are_read_without_recursing():
    engine = Engine()  # keep the shared session universe small
    depth = 100_000
    chain = parse_position(engine, "{0|" * depth + "*" + "}" * depth)
    assert engine.birthday(chain) == depth + 1
    assert engine.store.tree_number(chain) is None
    # {0|...{0|}...} is number-shaped at every level: 1, 1/2, 1/4, ...
    halves = parse_position(engine, "{0|" * 50 + "}" * 50)
    assert engine.store.tree_number(halves) == (1, 49)
    assert engine.canonical_form(halves) == halves


def test_as_number_and_membership(engine):
    assert engine.as_number(engine.zero, Z) == Dyadic(0)
    half = engine.number_position(Dyadic(1, 1))
    assert engine.as_number(half, D) == Dyadic(1, 1)
    assert engine.as_number(half, Z) is None
    assert engine.as_number(engine.star(), D) is None
    zeroish = engine.intern(
        (engine.number_position(-1),), (engine.number_position(1),)
    )
    assert engine.as_number(zeroish, Z) == Dyadic(0)


def test_classify_value_kinds(engine):
    star = engine.star()
    v = engine.classify_value(star)
    assert v.kind is ValueKind.PAIR and v.left == Dyadic(0) and v.right == Dyadic(0)
    pair = engine.intern((engine.zero,), (engine.number_position(-3),))
    v = engine.classify_value(pair)
    assert v.kind is ValueKind.PAIR and (v.left, v.right) == (Dyadic(0), Dyadic(-3))
    up = engine.intern((engine.zero,), (star,))
    assert engine.classify_value(up).kind is ValueKind.OTHER
    assert engine.classify_value(engine.number_position(2)).kind is ValueKind.NUMBER


def test_pair_set_membership(engine):
    half = engine.number_position(Dyadic(1, 1))
    quarter = engine.number_position(Dyadic(1, 2))
    assert engine.in_pair_set(half, Z)
    assert not engine.in_pair_set(quarter, Z)
    assert engine.in_pair_set(quarter, D)
    assert engine.in_pair_set(engine.star(), Z)
    half_pair = engine.intern((half,), (engine.number_position(-3),))
    assert engine.in_pair_set(half_pair, D)
    assert not engine.in_pair_set(half_pair, Z)
    up = engine.intern((engine.zero,), (engine.star(),))
    assert not engine.in_pair_set(up, D)


def test_number_values_match_oracle(engine, to_oracle):
    grid = [Dyadic(n, e) for n in range(-8, 9) for e in range(0, 3)]
    for d in grid:
        pos = engine.number_position(d)
        assert o.eq(to_oracle(pos), o.dyadic(d.numerator, d.exponent))


def test_numbers_with_options_are_also_pairs(engine, day3_values):
    # the canonical tree of a number with any options has number options,
    # so every such value doubles as a pair over the dyadics
    for g in day3_values:
        value = engine.as_number(g, D)
        if value is None:
            continue
        lefts, rights = engine.left_options(g), engine.right_options(g)
        if lefts or rights:
            for opt in lefts + rights:
                assert engine.as_number(opt, D) is not None


def test_pair_versus_number_threshold(engine):
    # a pair with crossed entries sits less-or-fuzzy against y exactly
    # when its right entry is at most y
    grid = [Dyadic(n, e) for n in range(-4, 5) for e in range(0, 3)]
    pairs = [
        (x1, x2)
        for x1 in grid
        for x2 in grid
        if not x1 < x2
    ]
    samples = random.Random(31).sample(pairs, 120)
    for x1, x2 in samples:
        pair = engine.intern(
            (engine.number_position(x1),), (engine.number_position(x2),)
        )
        for y in (Dyadic(-2), Dyadic(0), Dyadic(2), Dyadic(1, 1), Dyadic(-3, 2)):
            ypos = engine.number_position(y)
            lhs = engine.compare(pair, ypos).less_or_fuzzy
            assert lhs == (x2 <= y)


def test_simplest_between_examples(engine):
    zero = engine.zero
    one = engine.number_position(1)
    star = engine.star()
    assert engine.simplest_between((zero,), (one,), D) == Dyadic(1, 1)
    assert engine.simplest_between((zero,), (one,), Z) is None
    assert engine.simplest_between((), (), Z) == Dyadic(0)
    assert engine.simplest_between((one,), (), Z) == Dyadic(2)
    assert engine.simplest_between((), (zero,), Z) == Dyadic(-1)
    assert engine.simplest_between((zero,), (zero,), D) is None
    assert engine.simplest_between((star,), (star,), D) == Dyadic(0)
    # a switch is fuzzy with everything in its shadow, so 0 still fits
    pair = engine.intern((one,), (zero,))
    assert engine.simplest_between((pair,), (), Z) == Dyadic(0)


def test_simplest_between_prefers_integers_then_small_denominators(engine):
    half = engine.number_position(Dyadic(1, 1))
    three_halves = engine.number_position(Dyadic(3, 1))
    assert engine.simplest_between((half,), (three_halves,), D) == Dyadic(1)
    quarter = engine.number_position(Dyadic(1, 2))
    half_pos = engine.number_position(Dyadic(1, 1))
    assert engine.simplest_between((quarter,), (half_pos,), D) == Dyadic(3, 3)


@pytest.mark.parametrize("system", [Z, D])
def test_simplest_between_result_always_fits(engine, day2_values, system):
    rng = random.Random(32)
    for _ in range(200):
        los = tuple(rng.sample(day2_values, rng.randint(0, 2)))
        his = tuple(rng.sample(day2_values, rng.randint(0, 2)))
        x = engine.simplest_between(los, his, system)
        if x is None:
            continue
        assert x.in_system(system)
        xpos = engine.number_position(x)
        for lo in los:
            assert engine.compare(lo, xpos).less_or_fuzzy
        for hi in his:
            assert engine.compare(xpos, hi).less_or_fuzzy


def _referee_simplest(engine, los, his, system):
    """The simplest fitting member by brute force, checked with compare.

    Scans every member of the system from 2 below the smallest stop of
    any bound to 2 above the largest, 0 always inside the window, with
    denominators up to 2**(largest stop exponent + 2), simplest first.
    """
    stops = [Dyadic(0)]
    for g in los + his:
        stops += [engine.left_stop(g, system), engine.right_stop(g, system)]
    smallest, largest = min(stops), max(stops)
    low = (smallest.numerator >> smallest.exponent) - 2
    high = -(-largest.numerator >> largest.exponent) + 2
    depth = 0 if system.integers_only else max(s.exponent for s in stops) + 2
    candidates = [
        Dyadic(n, e)
        for e in range(depth + 1)
        for n in range(low << e, (high << e) + 1)
        if e == 0 or n % 2
    ]
    candidates.sort(key=lambda x: (x.exponent, abs(x.numerator), x.numerator < 0))
    for x in candidates:
        xpos = engine.number_position(x)
        if all(engine.compare(lo, xpos).less_or_fuzzy for lo in los) and all(
            engine.compare(xpos, hi).less_or_fuzzy for hi in his
        ):
            return x
    return None


@pytest.mark.parametrize("system", [Z, D])
def test_simplest_between_matches_the_referee(
    engine, day2_values, day3_values, system
):
    rng = random.Random(33)
    pool = list(day2_values) + rng.sample(day3_values, 80)
    for _ in range(300):
        los = tuple(rng.sample(pool, rng.randint(0, 3)))
        his = tuple(rng.sample(pool, rng.randint(0, 3)))
        expected = _referee_simplest(engine, los, his, system)
        assert engine.simplest_between(los, his, system) == expected, (los, his)


def _simplest_by_days(lo, hi):
    """The least-born number strictly between lo and hi (Fractions, or
    None for no bound), searched day by day.

    Day 0 makes 0, and each later day makes one number in each gap between
    the numbers made so far and one past each end.  Until a number made
    lies inside the interval, the interval lies in one gap, so only the
    number made there can be the next inside: the search keeps that gap's
    ends, below and above, and makes one number a day.
    """
    below = above = None
    x = Fraction(0)
    while (lo is not None and x <= lo) or (hi is not None and x >= hi):
        if lo is not None and x <= lo:
            below = x
        else:
            above = x
        if above is None:
            x = below + 1
        elif below is None:
            x = above - 1
        else:
            x = (below + above) / 2
    return x


def test_dy_simplest_matches_a_day_by_day_search():
    # bounds that are absent, integers, or dyadics of up to 40 halvings;
    # about half of the pairs lie k / 2**f apart, with k <= 3 and f <= 40
    rng = random.Random(2901)

    def dyadic():
        e = rng.choice((0, rng.randint(1, 40)))
        return dy_normalize(rng.randint(-20 << e, 20 << e), e)

    def fraction(pair):
        return None if pair is None else Fraction(pair[0], 1 << pair[1])

    checked = 0
    for _ in range(3000):
        lo = None if rng.random() < 0.2 else dyadic()
        if lo is not None and rng.random() < 0.5:
            f = rng.randint(0, 40)
            hi = dy_normalize((lo[0] << f) + (rng.randint(1, 3) << lo[1]), lo[1] + f)
        else:
            hi = None if rng.random() < 0.2 else dyadic()
        if lo is not None and hi is not None and not dy_lt(lo, hi):
            continue
        x = _simplest_by_days(fraction(lo), fraction(hi))
        e = x.denominator.bit_length() - 1
        assert dy_simplest(lo, hi) == (x.numerator, e), (lo, hi)
        checked += 1
    assert checked > 2000


def test_simplest_between_answers_past_32_halvings(engine):
    # y* against itself: no number lies strictly between its stops, and
    # the endpoint y itself is fuzzy with y*, so y is the answer
    y = engine.number_position(Dyadic(1, 33))
    y_star = engine.intern((y,), (y,))
    assert engine.simplest_between((y_star,), (y_star,), D) == Dyadic(1, 33)
    assert engine.simplest_between((y_star,), (y_star,), Z) is None
    assert engine.simplest_between((y,), (y,), D) is None
