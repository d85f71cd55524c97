"""Plain-text graph files describing token-sliding positions.

A file is a sequence of directives, one per line, with ``#`` starting a
comment and blank lines ignored:

    variant yashima        # or "tron"; optional, yashima by default
    vertices 10
    L 0
    R 4
    e 0 1                  # one edge per line; repeat a line for
    e 0 1                  # parallel edges

``vertices``, ``L``, and ``R`` are required and may appear once each.
Self-loops are rejected while parsing; an out-of-range vertex or
coinciding tokens surface as InvalidStateError from the state
constructor.
"""

from __future__ import annotations

from .errors import GraphParseError
from .yashima import MultiGraph, Variant, YashimaState

_VARIANTS = {v.value: v for v in Variant}


def _parse_int(word: str, what: str, line_no: int) -> int:
    try:
        return int(word)
    except ValueError:
        # keep the one-line message short however long the word is
        got = repr(word)
        if len(word) > 20:
            got = "%r (%d characters)" % (word[:20] + "\u2026", len(word))
        raise GraphParseError(
            "%s must be an integer, got %s" % (what, got), line=line_no
        ) from None


def parse_graph(text: str) -> YashimaState:
    """Parse a graph file into a state.

    Raises GraphParseError (with the offending line) for malformed
    directives, duplicates, missing requirements, or self-loops, and
    InvalidStateError for range or occupancy violations.
    """
    variant: Variant | None = None
    vertex_count: int | None = None
    left: int | None = None
    right: int | None = None
    edges: list[tuple[int, int]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        words = line.split()
        keyword, args = words[0], words[1:]
        if keyword == "variant":
            if variant is not None:
                raise GraphParseError("duplicate variant line", line=line_no)
            if len(args) != 1 or args[0] not in _VARIANTS:
                raise GraphParseError(
                    "variant must be one of %s"
                    % ", ".join(sorted(_VARIANTS)),
                    line=line_no,
                )
            variant = _VARIANTS[args[0]]
        elif keyword == "vertices":
            if vertex_count is not None:
                raise GraphParseError(
                    "duplicate vertices line", line=line_no
                )
            if len(args) != 1:
                raise GraphParseError(
                    "vertices takes one count", line=line_no
                )
            vertex_count = _parse_int(args[0], "vertex count", line_no)
        elif keyword in ("L", "R"):
            if len(args) != 1:
                raise GraphParseError(
                    "%s takes one vertex" % keyword, line=line_no
                )
            value = _parse_int(args[0], "token vertex", line_no)
            if keyword == "L":
                if left is not None:
                    raise GraphParseError("duplicate L line", line=line_no)
                left = value
            else:
                if right is not None:
                    raise GraphParseError("duplicate R line", line=line_no)
                right = value
        elif keyword == "e":
            if len(args) != 2:
                raise GraphParseError(
                    "e takes two endpoints", line=line_no
                )
            u = _parse_int(args[0], "edge endpoint", line_no)
            v = _parse_int(args[1], "edge endpoint", line_no)
            if u == v:
                raise GraphParseError(
                    "self-loop at vertex %d" % u, line=line_no
                )
            edges.append((u, v))
        else:
            raise GraphParseError(
                "unknown directive %r" % keyword, line=line_no
            )
    last = text.count("\n") + 1
    if vertex_count is None:
        raise GraphParseError("missing vertices line", line=last)
    if left is None:
        raise GraphParseError("missing L line", line=last)
    if right is None:
        raise GraphParseError("missing R line", line=last)
    graph = MultiGraph(vertex_count, tuple(edges))
    return YashimaState(
        graph, left, right, variant if variant is not None else Variant.YASHIMA
    )


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
