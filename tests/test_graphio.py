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


def test_parse_error_lines():
    with pytest.raises(GraphParseError) as info:
        parse_graph("vertices 2\nL 0\nR 1\ne 1 1\n")
    assert info.value.line == 4
    assert "self-loop" in str(info.value)
    with pytest.raises(GraphParseError) as info:
        parse_graph("vertices 2\nvertices 3\nL 0\nR 1\n")
    assert info.value.line == 2
    with pytest.raises(GraphParseError) as info:
        parse_graph("vertices two\nL 0\nR 1\n")
    assert info.value.line == 1 and "integer" in str(info.value)
    # a word too long for int() is shown by its first 20 characters
    with pytest.raises(GraphParseError) as info:
        parse_graph("vertices 1%s\nL 0\nR 1\n" % ("0" * 4300))
    assert str(info.value) == (
        "vertex count must be an integer, got '10000000000000000000\u2026'"
        " (4301 characters) (line 1)"
    )
    with pytest.raises(GraphParseError) as info:
        parse_graph("vertices 2\nL 0\nR 1\nedge 0 1\n")
    assert "unknown directive" in str(info.value)
    with pytest.raises(GraphParseError) as info:
        parse_graph("vertices 2\nL 0\nR 1\ne 0\n")
    assert "two endpoints" in str(info.value)
    with pytest.raises(GraphParseError) as info:
        parse_graph("variant hexapawn\nvertices 2\nL 0\nR 1\n")
    assert "variant must be one of" in str(info.value)


def test_missing_directives():
    with pytest.raises(GraphParseError) as info:
        parse_graph("L 0\nR 1\ne 0 1\n")
    assert "missing vertices" in str(info.value)
    with pytest.raises(GraphParseError) as info:
        parse_graph("vertices 2\nR 1\n")
    assert "missing L" in str(info.value)
    with pytest.raises(GraphParseError) as info:
        parse_graph("vertices 2\nL 0\n")
    assert "missing R" in str(info.value)


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
