"""Sanity checks for the brute-force reference implementations.

These pin the oracle itself to facts checkable by hand, so that the
cross-checks elsewhere mean something.
"""

from __future__ import annotations

from fractions import Fraction

import oracle as o


def test_outcomes_of_tiny_games():
    assert o.outcome(o.ZERO) == "P"
    assert o.outcome(o.STAR) == "N"
    assert o.outcome(o.integer(1)) == "L"
    assert o.outcome(o.integer(-2)) == "R"


def test_order_facts():
    one = o.integer(1)
    assert o.compare(one, o.ZERO) == ">"
    assert o.compare(o.STAR, o.ZERO) == "||"
    assert o.compare(o.ZERO, o.ZERO) == "="
    half = o.dyadic(1, 1)
    assert o.compare(o.ZERO, half) == "<"
    assert o.compare(half, one) == "<"
    up = o.OGame([o.ZERO], [o.STAR])
    assert o.compare(up, o.ZERO) == ">"
    assert o.compare(up, o.STAR) == "||"


def test_value_identities():
    assert o.eq(o.OGame([o.integer(-1)], [o.integer(1)]), o.ZERO)
    assert o.eq(o.dyadic(2, 1), o.integer(1))
    assert o.eq(o.dyadic(-4, 2), o.integer(-1))
    assert not o.eq(o.STAR, o.ZERO)


def test_negation_and_sum():
    one = o.integer(1)
    assert o.eq(o.add(one, o.neg(one)), o.ZERO)
    assert o.eq(o.add(o.STAR, o.STAR), o.ZERO)
    assert o.eq(o.add(o.dyadic(1, 1), o.dyadic(1, 1)), one)


def test_token_slide_games():
    assert o.eq(o.slide_game(((0, 1),), 0, 1), o.ZERO)
    assert o.eq(o.slide_game(((0, 1), (1, 2)), 0, 2), o.STAR)
    assert o.slide_state_count(((0, 1), (1, 2)), 0, 2) == 3
    # a parallel copy leaves one extra move for whoever slides first
    two_copies = ((0, 1), (0, 1))
    assert o.eq(o.slide_game(two_copies, 0, 1), o.ZERO)


def test_tron_deletes_departed_vertex_edges():
    # on the 3-path the first slide cuts the mover's other edges too
    edges = ((0, 1), (0, 2))
    succ = o.slide_successors(edges, 0, 2, "tron")
    assert succ == [((), 1)]


def test_construction_is_hash_consed():
    # the same structure built twice, in different orders, is one object
    a = o.OGame([o.integer(1), o.STAR], [o.dyadic(1, 1)])
    star, one = o.OGame([o.ZERO], [o.ZERO]), o.OGame([o.ZERO])
    b = o.OGame([star, one], [o.OGame([o.ZERO], [one])])
    assert a is b
    assert o.OGame([o.integer(-1)], [o.integer(1)]) is not o.ZERO


def test_birthdays_and_numbers_born_by():
    assert o.birthday(o.ZERO) == 0
    assert o.birthday(o.STAR) == 1
    assert o.birthday(o.integer(-3)) == 3
    assert o.birthday(o.dyadic(3, 2)) == 3
    # 1, 2, 4 and 8 numbers are born on days 0 to 3
    assert len(o.numbers_born_by(3)) == 15
    assert [str(x) for x, _ in o.numbers_born_by(2, "Z")] == ["-2", "-1", "0", "1", "2"]


def test_stops_of_small_games():
    up = o.OGame([o.ZERO], [o.STAR])
    half = o.dyadic(1, 1)
    pair = o.OGame([o.ZERO], [o.integer(-3)])
    cases = [
        # game, (LS, RS) in Z, (LS, RS) in D
        (o.STAR, (0, 0), (0, 0)),
        (up, (0, 0), (0, 0)),
        (half, (0, 1), (Fraction(1, 2), Fraction(1, 2))),
        (pair, (0, -3), (0, -3)),
        # equal to 0 but not in canonical form: a member, its own stop
        (o.OGame([o.integer(-1)], [o.integer(1)]), (0, 0), (0, 0)),
    ]
    for g, z_stops, d_stops in cases:
        assert (o.stop(g, "L", "Z"), o.stop(g, "R", "Z")) == z_stops
        assert (o.stop(g, "L", "D"), o.stop(g, "R", "D")) == d_stops
