"""Graph file parsing, error reporting, and round-trips."""

from __future__ import annotations

import pytest

from diamondcgt.errors import GraphParseError, InvalidStateError
from diamondcgt.graphio import load_graph, parse_graph, print_graph
from diamondcgt.yashima import Variant, YashimaState


def test_parse_minimal():
    state = parse_graph("vertices 2\nL 0\nR 1\ne 0 1\n")
    assert state.variant is Variant.YASHIMA
    assert state.graph.vertex_count == 2
    assert state.graph.edges == ((0, 1),)
    assert (state.left_token, state.right_token) == (0, 1)


def test_parse_comments_blanks_and_multiplicity():
    text = """
    # a doubled edge and a tron variant line
    variant tron

    vertices 3   # three vertices
    L 0
    R 2
    e 0 1
    e 1 0
    e 1 2
    """
    state = parse_graph(text)
    assert state.variant is Variant.TRON
    assert state.graph.multiplicity(0, 1) == 2
    assert state.graph.edges == ((0, 1), (0, 1), (1, 2))


_HEAD = "vertices 2\nL 0\nR 1\n"


# (file, the error it raises), the checks in the order a line meets them
_ERRORS = [
    (_HEAD + "edge 0 1\n", "unknown directive 'edge' (line 4)"),
    ("variant tron\nvariant tron\n" + _HEAD, "duplicate variant line (line 2)"),
    ("vertices 2\nvertices 3\nL 0\nR 1\n", "duplicate vertices line (line 2)"),
    (_HEAD + "L 0\n", "duplicate L line (line 4)"),
    (_HEAD + "R 1\n", "duplicate R line (line 4)"),
    ("variant hexapawn\n" + _HEAD, "variant must be one of tron, yashima (line 1)"),
    ("variant\n" + _HEAD, "variant must be one of tron, yashima (line 1)"),
    ("vertices 2 3\nL 0\nR 1\n", "vertices takes one count (line 1)"),
    ("vertices 2\nL\nR 1\n", "L takes one vertex (line 2)"),
    ("vertices 2\nL 0\nR 1 0\n", "R takes one vertex (line 3)"),
    (_HEAD + "e 0\n", "e takes two endpoints (line 4)"),
    ("vertices two\nL 0\nR 1\n", "vertex count must be an integer, got 'two' (line 1)"),
    ("vertices 2\nL x\nR 1\n", "token vertex must be an integer, got 'x' (line 2)"),
    (_HEAD + "e 0 1.0\n", "edge endpoint must be an integer, got '1.0' (line 4)"),
    (_HEAD + "e 1 1\n", "self-loop at vertex 1 (line 4)"),
    # every line break str.splitlines knows ends a line
    ("vertices 2\rL 0\rR 1\re 1 1\r", "self-loop at vertex 1 (line 4)"),
    ("vertices 2\r\nL 0\r\nR 1\r\ne 1 1\r\n", "self-loop at vertex 1 (line 4)"),
    ("vertices 2\x0cL 0\nR 1\ne 1 1\n", "self-loop at vertex 1 (line 4)"),
    # an integer word is an optional '-' and decimal digits, nothing
    # else that int() reads
    ("vertices 1_0\nL 0\nR 1\n", "vertex count must be an integer, got '1_0' (line 1)"),
    ("vertices 2\nL 0\nR +1\n", "token vertex must be an integer, got '+1' (line 3)"),
    ("vertices 2\nL -\nR 1\n", "token vertex must be an integer, got '-' (line 2)"),
    # a word too long for int() is shown by its first 20 characters
    (
        "vertices 1%s\nL 0\nR 1\n" % ("0" * 4300),
        "vertex count must be an integer, got '10000000000000000000\u2026'"
        " (4301 characters) (line 1)",
    ),
    # a line with two faults reports the one checked first
    (_HEAD + "L 0 1\n", "duplicate L line (line 4)"),
    (_HEAD + "R x\n", "duplicate R line (line 4)"),
    ("vertices 2 x\nL 0\nR 1\n", "vertices takes one count (line 1)"),
]


def test_parse_error_lines():
    for text, message in _ERRORS:
        with pytest.raises(GraphParseError) as info:
            parse_graph(text)
        assert str(info.value) == message, text


def test_integer_words():
    state = parse_graph("vertices 03\nL -0\nR 2\ne 0 \u0661\n")
    assert state.graph.vertex_count == 3
    assert (state.left_token, state.right_token) == (0, 2)
    assert state.graph.edges == ((0, 1),)


def test_missing_directives():
    # reported on the line after the last, in the order vertices, L, R
    for text, message in [
        ("L 0\nR 1\ne 0 1\n", "missing vertices line (line 4)"),
        ("vertices 2\nR 1", "missing L line (line 2)"),
        ("vertices 2\nL 0\n", "missing R line (line 3)"),
        ("", "missing vertices line (line 1)"),
        # the line breaks of the table above count as they do there
        ("vertices 2\rL 0\r", "missing R line (line 3)"),
        ("vertices 2\r\nL 0\r\n", "missing R line (line 3)"),
        ("vertices 2\x0cL 0\n", "missing R line (line 3)"),
        ("vertices 2\rL 0", "missing R line (line 2)"),
        ("\r\n", "missing vertices line (line 2)"),
    ]:
        with pytest.raises(GraphParseError) as info:
            parse_graph(text)
        assert str(info.value) == message


def test_range_violations_surface_from_state():
    with pytest.raises(InvalidStateError):
        parse_graph("vertices 2\nL 0\nR 2\n")
    with pytest.raises(InvalidStateError):
        parse_graph("vertices 2\nL 1\nR 1\n")
    with pytest.raises(InvalidStateError):
        parse_graph("vertices 2\nL 0\nR 1\ne 0 5\n")


def test_round_trip():
    text = "variant tron\nvertices 4\nL 2\nR 0\ne 0 1\ne 0 1\ne 2 3\n"
    state = parse_graph(text)
    assert print_graph(state) == text
    assert parse_graph(print_graph(state)) == state


def test_shipped_graph_files(engine):
    from pathlib import Path

    from diamondcgt.notation import format_value
    from diamondcgt.yashima import YashimaSolver

    graphs = Path(__file__).resolve().parent.parent / "graphs"
    solver = YashimaSolver(engine)
    ladder = load_graph(str(graphs / "ladder_2x5.graph"))
    assert ladder.graph.vertex_count == 10
    assert len(ladder.graph.edges) == 14
    assert ladder.graph.multiplicity(3, 8) == 2
    path_game = solver.to_game(load_graph(str(graphs / "path_3.graph")))
    assert format_value(engine, path_game) == "*"
    edge_game = solver.to_game(load_graph(str(graphs / "single_edge.graph")))
    assert format_value(engine, edge_game) == "0"
