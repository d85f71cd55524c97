"""Stops in both number systems, their invariants, and simplicity."""

from __future__ import annotations

import random

from diamondcgt.values import Dyadic, NumberSystem, Relation

import oracle as o

Z = NumberSystem.Z
D = NumberSystem.D


def test_stop_examples(engine):
    star = engine.star()
    assert engine.left_stop(star, D) == Dyadic(0)
    assert engine.right_stop(star, D) == Dyadic(0)
    pair = engine.intern((engine.zero,), (engine.number_position(-3),))
    assert engine.left_stop(pair, Z) == Dyadic(0)
    assert engine.right_stop(pair, Z) == Dyadic(-3)
    half = engine.number_position(Dyadic(1, 1))
    assert engine.left_stop(half, Z) == Dyadic(0)
    assert engine.right_stop(half, Z) == Dyadic(1)
    assert engine.left_stop(half, D) == Dyadic(1, 1)
    up = engine.intern((engine.zero,), (star,))
    assert engine.left_stop(up, D) == Dyadic(0)
    assert engine.right_stop(up, D) == Dyadic(0)


def test_integer_stops_are_integers(engine, day3_values, random_day4_forms):
    for g in list(day3_values) + list(random_day4_forms):
        assert engine.left_stop(g, Z).is_integer
        assert engine.right_stop(g, Z).is_integer


def test_stop_guides_are_empty_exactly_for_members(engine, day3_values, random_day4_forms):
    # the recursion reads an option's membership off its empty guides, so
    # a member must get (its value, ()) and a non-member some of its own
    # options; a member's answer is not stored
    store = engine.store
    asks = [
        (g, side, integer_system, store.member(g, integer_system))
        for g in list(day3_values) + list(random_day4_forms)
        for integer_system in (True, False)
        for side in (0, 1)
    ]
    members = [ask for ask in asks if ask[3] is not None]
    assert 0 < len(members) < len(asks)
    before = store.stats()
    for g, side, integer_system, v in members:
        assert store.stop_guides(g, side, integer_system) == (v, ())
    assert store.stats() == before
    for g, side, integer_system, v in asks:
        if v is None:
            guides = store.stop_guides(g, side, integer_system)[1]
            assert guides and set(guides) <= set(store.node(g)[side])


def test_stops_of_numbers_are_the_number(engine):
    for n in range(-5, 6):
        pos = engine.number_position(n)
        for system in (Z, D):
            assert engine.left_stop(pos, system) == Dyadic(n)
            assert engine.right_stop(pos, system) == Dyadic(n)
    half = engine.number_position(Dyadic(1, 1))
    assert engine.left_stop(half, D) == Dyadic(1, 1)
    assert engine.right_stop(half, D) == Dyadic(1, 1)


def test_equal_positions_share_stops(engine, day3_forms, random_day4_forms):
    rng = random.Random(41)
    suite = rng.sample(day3_forms, 400) + list(random_day4_forms[:200])
    for g in suite:
        c = engine.canonical_form(g)
        for system in (Z, D):
            assert engine.left_stop(g, system) == engine.left_stop(c, system)
            assert engine.right_stop(g, system) == engine.right_stop(c, system)


def test_stop_bounds_force_strict_order(engine, day3_values, random_day4_forms):
    grid = [Dyadic(n) for n in range(-3, 4)]
    grid += [Dyadic(n, 1) for n in (-3, -1, 1, 3)]
    eighths = [Dyadic(n, 3) for n in range(-32, 33)]
    integers = [Dyadic(n) for n in range(-6, 7)]
    rng = random.Random(42)
    suite = list(rng.sample(day3_values, 300)) + list(random_day4_forms[:150])
    fuzzy_checks = 0
    for g in suite:
        for x in grid:
            xpos = engine.number_position(x)
            for system in (Z, D):
                if not x.in_system(system):
                    continue
                if engine.left_stop(g, system) < x:
                    assert engine.compare(g, xpos) is Relation.LESS
                if engine.right_stop(g, system) > x:
                    assert engine.compare(g, xpos) is Relation.GREATER
        # G >= x forces RS(G) >= x and G <= x forces LS(G) <= x, in either
        # system, so x > RS(G) rules out x <= G and x < LS(G) rules out
        # G <= x
        for system, numbers in ((Z, integers), (D, eighths)):
            ls, rs = engine.left_stop(g, system), engine.right_stop(g, system)
            for x in numbers:
                xpos = engine.number_position(x)
                if x > rs:
                    assert not engine.leq(xpos, g)
                if x < ls:
                    assert not engine.leq(g, xpos)
        # so every number strictly between the stops is fuzzy against G;
        # with the checks above, a stop wrong in either direction fails
        ls, rs = engine.left_stop(g, D), engine.right_stop(g, D)
        for x in eighths:
            if rs < x < ls:
                fuzzy_checks += 1
                assert engine.compare(g, engine.number_position(x)) is Relation.FUZZY
    # one number whichever tests ran before: the universes are ordered by
    # birthday and canonical text, not by intern ids
    assert fuzzy_checks == 2164


def test_simplicity_determines_number_values(
    engine, day3_forms, random_day4_forms, to_oracle
):
    # the oracle searches the numbers born by day 5, which is complete
    # here: a fit between a form's options equals the form's value, and
    # these forms are born by day 4
    rng = random.Random(43)
    suite = rng.sample(day3_forms, 600) + list(random_day4_forms[:300])
    for g in suite:
        lefts, rights = engine.left_options(g), engine.right_options(g)
        olefts, orights = [to_oracle(x) for x in lefts], [to_oracle(x) for x in rights]
        for system in (Z, D):
            fit = engine.simplest_between(lefts, rights, system)
            expected = o.simplest_fit(olefts, orights, system.name)
            assert (None if fit is None else fit.as_fraction()) == expected, g
        # and the simplest dyadic fit is the form's value, or none fits
        assert o.number_value(to_oracle(g), "D") == expected


def test_stops_and_birthdays_match_oracle(
    engine, day3_forms, random_day4_forms, to_oracle
):
    # the oracle's stops decide membership by eq against its own number
    # trees, independently of the kernel's canonical forms and decoding
    rng = random.Random(44)
    suite = rng.sample(day3_forms, 600) + rng.sample(random_day4_forms, 300)
    for g in suite:
        game = to_oracle(g)
        assert engine.birthday(g) == o.birthday(game)
        for system in (Z, D):
            ls, rs = engine.left_stop(g, system), engine.right_stop(g, system)
            assert ls.as_fraction() == o.stop(game, "L", system.name)
            assert rs.as_fraction() == o.stop(game, "R", system.name)


def test_positions_with_an_empty_side_are_integers(
    engine, day2_forms, day3_forms, random_day4_forms, to_oracle
):
    # the simplicity theorem makes {|R} the simplest number x with x <| R
    # for every R, an integer, so only positions with options on both
    # sides need a best option for their stops
    forms = list(day2_forms) + list(day3_forms) + list(random_day4_forms)
    suite = [g for g in forms if not (engine.left_options(g) and engine.right_options(g))]
    assert len(suite) == 669
    for g in suite:
        value = o.number_value(to_oracle(g), "Z")
        assert value is not None, g
        for system in (Z, D):
            assert engine.left_stop(g, system).as_fraction() == value
            assert engine.right_stop(g, system).as_fraction() == value
