"""Braces notation: parsing, interning, and round-tripping."""

from __future__ import annotations

import random
import tracemalloc

import pytest

from diamondcgt.engine import Engine
from diamondcgt.errors import GameParseError, NonDyadicDenominatorError
from diamondcgt.notation import (
    format_canonical,
    format_position,
    format_value,
    parse_position,
)
from diamondcgt.values import Dyadic


def test_parse_atoms(engine):
    def number(numerator, exponent=0):
        return engine.number_position(Dyadic(numerator, exponent))

    assert parse_position(engine, "3") == number(3)
    assert parse_position(engine, "-3/4") == number(-3, 2)
    assert parse_position(engine, " 6/4 ") == number(3, 1)
    # whitespace, newlines included, may sit inside a numeral
    assert parse_position(engine, "- 3 / 4") == number(-3, 2)
    assert parse_position(engine, "-3/\n4") == number(-3, 2)
    assert parse_position(engine, "*") == engine.star()
    # the largest integer parts a numeral may have; their chains are
    # 100,000 nodes long, so they go into an engine of their own
    fresh = Engine()
    assert parse_position(fresh, "-100000") == fresh.number_position(Dyadic(-100000))
    assert parse_position(fresh, "200001/2") == fresh.number_position(Dyadic(200001, 1))


def test_parse_braces(engine):
    star = engine.star()
    two = engine.number_position(2)
    g = parse_position(engine, "{0, * | {1|}}")
    assert g == engine.intern((engine.zero, star), (two,))
    assert sorted(engine.left_options(g)) == sorted((engine.zero, star))
    assert engine.right_options(g) == (two,)
    assert engine.right_options(two) == ()
    assert parse_position(engine, "{|}") == engine.zero


def test_elaboration(engine):
    assert parse_position(engine, "0") == engine.zero
    assert parse_position(engine, "{0|0}") == engine.star()
    assert parse_position(engine, "*") == engine.star()
    assert parse_position(engine, "1/2") == engine.number_position(Dyadic(1, 1))
    pair = parse_position(engine, "{0|-3}")
    assert engine.left_options(pair) == (engine.zero,)
    assert engine.right_options(pair) == (engine.number_position(-3),)
    # duplicate options collapse at interning time
    assert parse_position(engine, "{0,0|*,*}") == parse_position(engine, "{0|*}")


_GAME_STARTS = ("integer", "-", "*", "{")

# (text, str(error), line, column, expected) for every place a parse fails
_PARSE_ERRORS = [
    ("", "unexpected end of input (line 1, column 1); expected %s"
     % (_GAME_STARTS,), 1, 1, _GAME_STARTS),
    ("-", "unexpected end of input (line 1, column 2); expected ('integer',)",
     1, 2, ("integer",)),
    ("1/", "unexpected end of input (line 1, column 3); expected ('integer',)",
     1, 3, ("integer",)),
    ("- -1", "unexpected '-' (line 1, column 3); expected ('integer',)",
     1, 3, ("integer",)),
    ("{0|", "unexpected end of input (line 1, column 4); expected %s"
     % (_GAME_STARTS + ("}",),), 1, 4, _GAME_STARTS + ("}",)),
    ("{,0|}", "unexpected ',' (line 1, column 2); expected %s"
     % (_GAME_STARTS + ("|",),), 1, 2, _GAME_STARTS + ("|",)),
    ("{0,|}", "unexpected '|' (line 1, column 4); expected %s"
     % (_GAME_STARTS,), 1, 4, _GAME_STARTS),
    ("|", "unexpected '|' (line 1, column 1); expected %s"
     % (_GAME_STARTS,), 1, 1, _GAME_STARTS),
    ("{0|1 2}", "unexpected '2' (line 1, column 6); expected (',', '}')",
     1, 6, (",", "}")),
    ("{1 2|}", "unexpected '2' (line 1, column 4); expected (',', '|')",
     1, 4, (",", "|")),
    ("{0|*", "unexpected end of input (line 1, column 5); expected (',', '}')",
     1, 5, (",", "}")),
    ("{0|}}", "unexpected '}' (line 1, column 5); expected ('end of input',)",
     1, 5, ("end of input",)),
    ("0 1", "unexpected '1' (line 1, column 3); expected ('end of input',)",
     1, 3, ("end of input",)),
    ("\n\n  {0|1}\n }",
     "unexpected '}' (line 4, column 2); expected ('end of input',)",
     4, 2, ("end of input",)),
    ("{0,\n,1|2}", "unexpected ',' (line 2, column 1); expected %s"
     % (_GAME_STARTS,), 2, 1, _GAME_STARTS),
    ("{0 ^ 1|}", "unexpected character '^' (line 1, column 4)", 1, 4, None),
    # a bad character anywhere is reported before any parse error
    ("} ^", "unexpected character '^' (line 1, column 3)", 1, 3, None),
    # digits that str.isdigit accepts but int() does not
    ("\u00b2", "unexpected character '\u00b2' (line 1, column 1)", 1, 1, None),
    ("10\u00b2", "unexpected character '\u00b2' (line 1, column 3)", 1, 3, None),
    ("{1|} \u2462", "unexpected character '\u2462' (line 1, column 6)",
     1, 6, None),
    ("1/3", "denominator 3 is not a power of two (line 1, column 3)", 1, 3, None),
    ("1/0", "denominator 0 is not a power of two (line 1, column 3)", 1, 3, None),
    ("{5/6|}", "denominator 6 is not a power of two (line 1, column 4)",
     1, 4, None),
]


def test_parse_errors_carry_positions(engine):
    for text, message, line, column, expected in _PARSE_ERRORS:
        with pytest.raises(GameParseError) as info:
            parse_position(engine, text)
        error = info.value
        got = (str(error), error.line, error.column, error.expected)
        assert got == (message, line, column, expected), text


def test_non_dyadic_denominators_are_rejected(engine):
    with pytest.raises(NonDyadicDenominatorError) as info:
        parse_position(engine, "1/3")
    assert isinstance(info.value, GameParseError)
    assert info.value.column == 3
    with pytest.raises(NonDyadicDenominatorError):
        parse_position(engine, "{5/6|}")
    with pytest.raises(NonDyadicDenominatorError):
        parse_position(engine, "1/0")


def test_deep_nesting_parses_without_recursing(engine):
    text = "{" * 20_000 + "|}" * 20_000
    assert parse_position(engine, text) == engine.number_position(19_999)


def test_deep_chain_prints_in_memory_linear_in_its_text():
    # each level's text holds every level below it, so a printer that
    # kept all of them would hold about 190 MB here
    depth = 10_000
    text = "{0|" * depth + "*" + "}" * depth
    engine = Engine()
    g = parse_position(engine, text)
    tracemalloc.start()
    try:
        printed = format_position(engine, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert printed == text
    assert peak < 5 * 2**20


def test_formatting_examples(engine):
    star = engine.star()
    assert format_position(engine, star) == "*"
    assert format_canonical(engine, star) == "{0|0}"
    two = engine.number_position(2)
    assert format_position(engine, two) == "2"
    assert format_canonical(engine, two) == "{1|}"
    up = engine.intern((engine.zero,), (star,))
    assert format_position(engine, up) == "{0|*}"
    raw = parse_position(engine, "{1,0|1,2}")
    # format_position keeps the dominated options, format_value drops them
    assert format_position(engine, raw) == "{0,1|1,2}"
    assert format_value(engine, raw) == "{1|1}"


def test_format_is_tree_faithful(engine):
    # a non-canonical tree that happens to equal a number still prints as
    # its tree, because the numeral is reserved for the number's own tree
    pseudo = parse_position(engine, "{-1|1}")
    assert format_position(engine, pseudo) == "{-1|1}"
    assert format_value(engine, pseudo) == "0"


def test_printing_interns_nothing():
    # a fresh store holds no {0|0}, and recognizing * must not add it
    engine = Engine()
    two = parse_position(engine, "{1|}")
    for g, texts in ((engine.zero, ("0", "0", "{|}")), (two, ("2", "2", "{1|}"))):
        for fmt, text in zip((format_position, format_value, format_canonical), texts):
            before = engine.node_count()
            assert fmt(engine, g) == text
            assert engine.node_count() == before, fmt.__name__
    # a tree is printed as it stands, so its canonical form is never built
    for tree, text in (
        ("{0,1|}", "{0,1|}"),
        ("{-1|1}", "{-1|1}"),
        ("{{|},{{|}|}|{{{|}|}|}}", "{0,1|2}"),
    ):
        engine = Engine()
        g = parse_position(engine, tree)
        before = engine.node_count()
        assert format_position(engine, g) == text
        assert engine.node_count() == before, tree


def _random_form_specs(rng):
    """Day-1 to day-4 forms as (left, right) index tuples into the list."""
    specs = [((), ())]
    specs += [((0,), ()), ((), (0,)), ((0,), (0,))]
    layers = [range(4)]
    for count in (60, 120, 200):
        pool = [i for layer in layers for i in layer]
        start = len(specs)
        for _ in range(count):
            specs.append(
                (
                    tuple(rng.sample(pool, rng.randint(0, 3))),
                    tuple(rng.sample(pool, rng.randint(0, 3))),
                )
            )
        layers.append(range(start, len(specs)))
    return specs


def _intern_specs(engine, specs, order, rng):
    """Intern every spec, visiting them in ``order`` and shuffling options."""
    ids: dict[int, int] = {}

    def build(i):
        got = ids.get(i)
        if got is None:
            left, right = ([build(j) for j in side] for side in specs[i])
            rng.shuffle(left)
            rng.shuffle(right)
            got = ids[i] = engine.intern(left, right)
        return got

    for i in order:
        build(i)
    return ids


def test_canonical_text_is_independent_of_intern_order():
    rng = random.Random(62)
    specs = _random_form_specs(rng)
    orders = [list(range(len(specs))) for _ in range(2)]
    for order in orders:
        rng.shuffle(order)
    engines = (Engine(), Engine())
    # numbers interned up front shift every later id of the second engine
    for d in (Dyadic(3, 2), Dyadic(-5, 3), Dyadic(7)):
        engines[1].number_position(d)
    ids = [_intern_specs(e, specs, order, rng) for e, order in zip(engines, orders)]
    # each engine canonicalizes in its own order, so the canonical forms'
    # ids come out in different orders too
    canon = [
        {i: e.canonical_form(got[i]) for i in order}
        for e, got, order in zip(engines, ids, orders)
    ]
    every = range(len(specs))
    assert any(
        (canon[0][i] < canon[0][j]) != (canon[1][i] < canon[1][j])
        for i in every
        for j in every
        if canon[0][i] != canon[0][j]
    )
    for i in every:
        text = format_canonical(engines[0], ids[0][i])
        assert format_canonical(engines[1], ids[1][i]) == text
        assert format_value(engines[1], ids[1][i]) == format_value(
            engines[0], ids[0][i]
        )
        assert parse_position(engines[0], text) == canon[0][i]


def test_equal_games_print_one_canonical_text(engine):
    texts = {
        format_canonical(engine, parse_position(engine, t))
        for t in ("{*,{0|*}|{0|-1},{*|0}}", "{{0|*},*|{*|0},{0|-1}}")
    }
    assert texts == {"{*,{0|*}|{*|0},{0|-1}}"}


def test_round_trip_day3(engine, day3_values):
    rng = random.Random(61)
    for g in rng.sample(day3_values, 300):
        text = format_value(engine, g)
        assert parse_position(engine, text) == g
        braced = format_canonical(engine, g)
        assert parse_position(engine, braced) == g


def test_round_trip_random_forms(engine, random_day4_forms):
    for g in random_day4_forms[:200]:
        text = format_position(engine, g)
        assert parse_position(engine, text) == g


def test_round_trip_numbers(engine):
    for numerator in range(-40, 41):
        for exponent in range(0, 5):
            d = Dyadic(numerator, exponent)
            g = engine.number_position(d)
            assert parse_position(engine, format_position(engine, g)) == g
            assert parse_position(engine, str(d)) == g
