r"""Plain-text graph files describing token-sliding positions.

A file is a sequence of directives, one per line, with ``#`` starting a
comment and blank lines ignored:

    variant yashima        # or "tron"; optional, yashima by default
    vertices 10
    L 0
    R 4
    e 0 1                  # one edge per line; repeat a line for
    e 0 1                  # parallel edges

One table, ``_DIRECTIVES``, says how many words each directive takes
and what each word is.  Every line is checked in one fixed order: an
unknown directive, a repeated line (only ``e`` may repeat), the variant
name or else the word count, the integer words, a self-loop.  The first
fault found is reported, with its line.  An integer word is an optional
``-`` and decimal digits, as a numeral in the brace notation.
``vertices``, ``L``, and ``R`` are required; a missing one is reported
on the line after the last line break.  Lines end where
``str.splitlines`` ends them: at ``\n``, ``\r`` or ``\r\n``, and also at
``\v``, ``\f``, ``\x1c``-``\x1e``, ``\x85``, ``\u2028`` and ``\u2029``.
An out-of-range vertex or coinciding tokens surface as
InvalidStateError from the state constructor.
"""

from __future__ import annotations

from .errors import GraphParseError
from .yashima import MultiGraph, Variant, YashimaState

_VARIANTS = {v.value: v for v in Variant}

# directive -> (word count, the text naming that count, what each word
# is): an integer named so, or, for None, a variant name
_DIRECTIVES = {
    "variant": (1, "must be one of %s" % ", ".join(sorted(_VARIANTS)), None),
    "vertices": (1, "takes one count", "vertex count"),
    "L": (1, "takes one vertex", "token vertex"),
    "R": (1, "takes one vertex", "token vertex"),
    "e": (2, "takes two endpoints", "edge endpoint"),
}


def _parse_int(word: str, what: str, line_no: int) -> int:
    if (word[1:] if word[:1] == "-" else word).isdecimal():
        try:
            return int(word)
        except ValueError:  # more digits than int() converts
            pass
    # keep the one-line message short however long the word is
    got = repr(word)
    if len(word) > 20:
        got = "%r (%d characters)" % (word[:20] + "\u2026", len(word))
    raise GraphParseError("%s must be an integer, got %s" % (what, got), line=line_no)


def parse_graph(text: str) -> YashimaState:
    """Parse a graph file into a state.

    Raises GraphParseError (with the offending line) for malformed
    directives, duplicates, missing requirements, or self-loops, and
    InvalidStateError for range or occupancy violations.
    """
    given: dict = {}  # directive -> its parsed word, for all but ``e``
    edges: list[tuple[int, int]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        words = raw.split("#", 1)[0].split()
        if not words:
            continue
        keyword, args = words[0], words[1:]
        if keyword not in _DIRECTIVES:
            raise GraphParseError("unknown directive %r" % keyword, line=line_no)
        if keyword in given:
            raise GraphParseError("duplicate %s line" % keyword, line=line_no)
        count, takes, what = _DIRECTIVES[keyword]
        if len(args) != count or (what is None and args[0] not in _VARIANTS):
            raise GraphParseError("%s %s" % (keyword, takes), line=line_no)
        if what is None:
            given[keyword] = _VARIANTS[args[0]]
            continue
        values = [_parse_int(word, what, line_no) for word in args]
        if keyword != "e":
            given[keyword] = values[0]
        elif values[0] == values[1]:
            raise GraphParseError("self-loop at vertex %d" % values[0], line=line_no)
        else:
            edges.append((values[0], values[1]))
    # the line after the last line break, counted as the loop counts
    last = len((text + "x").splitlines())
    for keyword in ("vertices", "L", "R"):
        if keyword not in given:
            raise GraphParseError("missing %s line" % keyword, line=last)
    graph = MultiGraph(given["vertices"], tuple(edges))
    variant = given.get("variant", Variant.YASHIMA)
    return YashimaState(graph, given["L"], given["R"], variant)


def load_graph(path: str) -> YashimaState:
    """Parse the graph file at ``path``.

    Raises GraphParseError for a file that is not UTF-8 text.
    """
    with open(path, "r", encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError:
            raise GraphParseError("%s is not UTF-8 text" % path) from None
    return parse_graph(text)


def print_graph(state: YashimaState) -> str:
    """Render a state back into the file format."""
    lines = [
        "variant %s" % state.variant.value,
        "vertices %d" % state.graph.vertex_count,
        "L %d" % state.left_token,
        "R %d" % state.right_token,
    ]
    lines.extend("e %d %d" % edge for edge in state.graph.edges)
    return "\n".join(lines) + "\n"
