"""Braces notation for games: parsing and printing.

The concrete syntax is the usual one: a game is a number (``3``,
``-3/4``), the star ``*``, or ``{`` comma-separated options ``|``
comma-separated options ``}``.  Whitespace is insignificant, also inside
a numeral, and either option list may be empty.  Numbers must be dyadic;
a denominator that is not a power of two is rejected at parse time, and
so is a numeral whose integer part exceeds ``MAX_INTEGER_PART``: the
integer n is a chain of |n| nodes.

There is one parser, ``parse_position``, and it builds straight into an
engine: no tree sits between the text and the store.  It reads the text
in a single pass over a regex scan and keeps open braces on an explicit
stack rather than recursing.  Numerals go straight to the store's
canonical number trees and braces are interned the moment they close.
The formatters render positions back out.
``format_value`` compacts number-valued nodes to numerals and ``{0|0}``
to ``*``, and every option list prints sorted by the options' text, so
equal games print alike in any engine; canonical strings round-trip
through the parser to the identical position.
"""

from __future__ import annotations

import re

from .engine import Engine
from .errors import GameParseError, NonDyadicDenominatorError

_BAD_CHARACTER = re.compile(r"[^\s\d{}|,*/-]")
_TOKEN = re.compile(r"\d+|\S")
_GAME_STARTS = ("integer", "-", "*", "{")

# The integer n is a chain of |n| nodes, so a numeral whose integer part is
# larger is rejected before any node is built (100000 takes about 80 MB).
MAX_INTEGER_PART = 100_000


def _error(
    text: str,
    offset: int,
    message: str,
    expected: tuple[str, ...] | None = None,
    error: type[GameParseError] = GameParseError,
) -> GameParseError:
    """The error at a character offset, with its 1-based line and column."""
    line_start = text.rfind("\n", 0, offset) + 1
    line = text.count("\n", 0, offset) + 1
    return error(message, line=line, column=offset - line_start + 1, expected=expected)


def _token_offset(text: str, index: int) -> int:
    """Character offset of the index-th token; the end of input comes last."""
    offsets = [m.start() for m in _TOKEN.finditer(text)]
    offsets.append(len(text))
    return offsets[index]


def _unexpected(
    text: str, tokens: list[str], index: int, expected: tuple[str, ...]
) -> GameParseError:
    tok = tokens[index]
    got = repr(tok) if tok else "end of input"
    return _error(text, _token_offset(text, index), "unexpected %s" % got, expected)


def _integer(text: str, tokens: list[str], index: int) -> int:
    try:
        return int(tokens[index])
    except ValueError:  # more digits than int() converts
        message = "integer of %d digits is too long" % len(tokens[index])
        raise _error(text, _token_offset(text, index), message) from None


def parse_position(engine: Engine, text: str) -> int:
    """Parse braces notation and intern it into ``engine``.

    Raises GameParseError with the offending line and column, or
    NonDyadicDenominatorError for a denominator that is not a power of
    two.  Each game is interned the moment it is complete, so options are
    built left to right before the game that holds them, and options
    completed before a parse error stay interned.  Open braces sit on an
    explicit stack, so nesting depth costs no recursion.
    """
    bad = _BAD_CHARACTER.search(text)
    if bad is not None:
        raise _error(text, bad.start(), "unexpected character %r" % bad.group())
    tokens = _TOKEN.findall(text)
    tokens.append("")  # end of input
    stack: list[list] = []  # open braces, innermost last: [left, right, on_right]
    closer = None  # the token that may end an empty option list here
    i = 0
    while True:
        # a game starts at tokens[i]
        tok = tokens[i]
        if tok == "{":
            stack.append([[], [], False])
            closer = "|"
            i += 1
            continue
        if tok == "*":
            game = engine.star()
            i += 1
        elif tok == "-" or tok.isdecimal():
            start = i
            if tok == "-":
                i += 1
                if not tokens[i].isdecimal():
                    raise _unexpected(text, tokens, i, ("integer",))
                numerator = -_integer(text, tokens, i)
            else:
                numerator = _integer(text, tokens, i)
            exponent = 0
            if tokens[i + 1] == "/":
                i += 2
                if not tokens[i].isdecimal():
                    raise _unexpected(text, tokens, i, ("integer",))
                denominator = _integer(text, tokens, i)
                if denominator == 0 or denominator & (denominator - 1):
                    raise _error(
                        text,
                        _token_offset(text, i),
                        "denominator %d is not a power of two" % denominator,
                        error=NonDyadicDenominatorError,
                    )
                exponent = denominator.bit_length() - 1
            if abs(numerator) >> exponent > MAX_INTEGER_PART:
                raise _error(
                    text,
                    _token_offset(text, start),
                    "numeral's integer part exceeds %d" % MAX_INTEGER_PART,
                )
            game = engine.store.number_position(numerator, exponent)
            i += 1
        elif tok == closer:
            game = None  # the option list is empty
        else:
            expected = _GAME_STARTS + (closer,) if closer else _GAME_STARTS
            raise _unexpected(text, tokens, i, expected)
        # file the game with its frame; close every frame that ends here
        while True:
            tok = tokens[i]
            if not stack:
                if tok:
                    raise _unexpected(text, tokens, i, ("end of input",))
                return game
            frame = stack[-1]
            left, right, on_right = frame
            if game is not None:
                (right if on_right else left).append(game)
            if tok == "}" and on_right:
                stack.pop()
                game = engine.intern(left, right)
                i += 1
                continue
            if tok == ",":
                closer = None
            elif tok == "|" and not on_right:
                frame[2] = True
                closer = "}"
            else:
                raise _unexpected(text, tokens, i, (",", "}" if on_right else "|"))
            i += 1
            break


def _render(engine: Engine, g: int, braces_at_top: bool) -> str:
    """The text of ``g``; each option list is sorted by the options' text.

    One walk on an explicit stack gives numerals and ``*`` their text,
    lists the braced nodes so that every option comes before the nodes
    that list it, and counts each node's distinct parents.  A loop then
    renders the braced nodes in that order and drops an option's text once
    its last parent has used it.  So a shared subtree costs one rendering,
    the printer never recurses, and the texts it holds at once are never
    longer than the output.  Sorting by text rather than by id makes the
    string a function of the tree alone, whatever was interned first.
    """
    store = engine.store
    star = ((store.zero,), (store.zero,))  # matched by shape, so * is never interned
    text: dict[int, str] = {}
    parents: dict[int, int] = {}
    order = []  # the braced nodes, each after its options
    seen = set()
    stack = [g]  # ~h marks a braced node whose options are all listed
    while stack:
        h = stack.pop()
        if h < 0:
            order.append(~h)
            continue
        if h in seen:
            continue
        seen.add(h)
        if h != g or not braces_at_top:
            if store.node(h) == star:
                text[h] = "*"
                continue
            number = store.tree_number(h)
            if number is not None:
                text[h] = str(engine.dyadic(number))
                continue
        left, right = store.node(h)
        options = set(left + right)
        for o in options:
            parents[o] = parents.get(o, 0) + 1
        stack.append(~h)
        stack += [o for o in options if o not in seen]
    for h in order:
        left, right = store.node(h)
        text[h] = "{%s|%s}" % (
            ",".join(sorted([text[o] for o in left])),
            ",".join(sorted([text[o] for o in right])),
        )
        for o in set(left + right):
            parents[o] -= 1
            if not parents[o]:
                del text[o]
    return text[g]


def format_position(engine: Engine, g: int) -> str:
    """Render a position's tree compactly, without canonicalizing.

    Number trees print as numerals and {0|0} prints as ``*``; everything
    else prints in braces.
    """
    return _render(engine, g, False)


def format_value(engine: Engine, g: int) -> str:
    """Render the canonical form of ``g`` compactly."""
    return _render(engine, engine.canonical_form(g), False)


def format_canonical(engine: Engine, g: int) -> str:
    """Render the canonical form of ``g`` with the top level in braces.

    Nested options still print compactly, so the canonical form of 2
    renders as ``{1|}`` and that of ``*`` as ``{0|0}``.
    """
    return _render(engine, engine.canonical_form(g), True)
