"""Command-line interface: outputs, JSON schema, and exit codes."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from diamondcgt import cli
from diamondcgt.cli import main
from diamondcgt.errors import (
    BoundsTooLargeError,
    MalformedGameError,
    NotClosedError,
    PreconditionError,
)

GRAPHS = Path(__file__).resolve().parent.parent / "graphs"
_JSON_KEYS = ["command", "input", "result", "witnesses", "counts"]


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_json(capsys, *argv):
    code, out, err = _run(capsys, "--json", *argv)
    payload = json.loads(out)
    assert list(payload) == _JSON_KEYS
    return code, payload, err


def test_value(capsys):
    code, out, _ = _run(capsys, "value", "{0|-3}")
    assert code == 0 and out == "{0|-3}\n"
    code, out, _ = _run(capsys, "value", "{1,0|1,2}")
    assert code == 0 and out == "{1|1}\n"
    code, out, _ = _run(capsys, "value", "{0|0}")
    assert out == "*\n"
    assert _run(capsys, "value", "5000") == (0, "5000\n", "")
    assert _run(capsys, "value", "-5000") == (0, "-5000\n", "")
    # 1,000 halvings deep: the number tree is built without recursing
    deep = "1/%d" % 2**1000
    assert _run(capsys, "value", deep) == (0, deep + "\n", "")


def test_negative_fractions_are_expressions(capsys):
    assert _run(capsys, "value", "-3/4") == (0, "-3/4\n", "")
    assert _run(capsys, "value", "--", "-3/4") == (0, "-3/4\n", "")
    assert _run(capsys, "compare", "-1/2", "0") == (0, "<\n", "")
    assert _run(capsys, "compare", "0", "-1/2") == (0, ">\n", "")
    assert _run(capsys, "stops", "-1/2") == (0, "LS -1/2\nRS -1/2\n", "")
    assert _run(capsys, "stops", "-1/2", "--system", "z") == (0, "LS -1\nRS 0\n", "")
    code, payload, _ = _run_json(capsys, "value", "-3/4")
    assert code == 0 and payload["input"] == "-3/4" and payload["result"] == "-3/4"


def test_canonical(capsys):
    code, out, _ = _run(capsys, "canonical", "*")
    assert code == 0 and out == "{0|0}\n"
    code, out, _ = _run(capsys, "canonical", "2")
    assert out == "{1|}\n"
    # one value, one text, whichever option the input lists first
    for text in ("{*,{0|*}|{0|-1},{*|0}}", "{{0|*},*|{*|0},{0|-1}}"):
        assert _run(capsys, "canonical", text) == (0, "{*,{0|*}|{*|0},{0|-1}}\n", "")


def test_compare(capsys):
    assert _run(capsys, "compare", "{0|*}", "0")[1] == ">\n"
    assert _run(capsys, "compare", "*", "0")[1] == "||\n"
    assert _run(capsys, "compare", "{-1|1}", "0")[1] == "=\n"
    assert _run(capsys, "compare", "1/2", "1")[1] == "<\n"


def test_stops(capsys):
    code, out, _ = _run(capsys, "stops", "--system", "z", "1/2")
    assert code == 0 and out == "LS 0\nRS 1\n"
    code, out, _ = _run(capsys, "stops", "1/2")
    assert out == "LS 1/2\nRS 1/2\n"
    code, payload, _ = _run_json(capsys, "stops", "--system", "z", "{0|-3}")
    assert payload["result"] == {"left_stop": "0", "right_stop": "-3"}


def test_diamond_exit_codes(capsys):
    code, out, _ = _run(capsys, "diamond", "--property", "dz", "*")
    assert code == 1 and out.startswith("fails")
    code, out, _ = _run(capsys, "diamond", "--property", "dd", "1/2")
    assert code == 0
    assert out.splitlines() == ["holds", "member-value 1/2"]
    code, payload, _ = _run_json(capsys, "diamond", "--property", "d", "{5|}")
    assert code == 0
    assert payload["result"] == {"property": "d", "holds": True}
    # {5|} is the number 6, so the membership branch answers
    assert payload["witnesses"] == [{"member_value": "6"}]


def test_diamond_witness_details(capsys):
    code, payload, _ = _run_json(capsys, "diamond", "--property", "dz", "3")
    assert code == 0 and payload["witnesses"] == [{"member_value": "3"}]
    # not a number, but the fuzzy guides straddle 0
    code, payload, _ = _run_json(
        capsys, "diamond", "--property", "dz", "{*,{0|*}|{0,*|0}}"
    )
    assert code == 0
    (witness,) = payload["witnesses"]
    assert witness["guide_left"] == "*"
    assert witness["guide_right"] == "{*,0|0}"
    assert witness["x"] == "0"


def test_diamond_witness_past_32_halvings(capsys):
    y = "1/8589934592"  # 2**-33
    y_star = "{%s|%s}" % (y, y)
    text = "{%s|%s,{%s|0}}" % (y_star, y_star, y_star)
    code, out, _ = _run(capsys, "diamond", "--property", "dd", text)
    assert code == 0
    assert out.splitlines() == [
        "holds", "guide-left " + y_star, "guide-right " + y_star, "x " + y,
    ]
    # y* alone has the number guides y and y, with nothing between them
    code, out, _ = _run(
        capsys, "diamond", "--property", "dd", "{1/4294967296|1/4294967296}"
    )
    assert (code, out) == (1, "fails\n")


def test_yashima_value(capsys):
    code, out, _ = _run(capsys, "yashima", "value", str(GRAPHS / "ladder_2x5.graph"))
    assert code == 0 and out == "{0|-3}\n"
    code, out, _ = _run(capsys, "yashima", "value", str(GRAPHS / "path_3.graph"))
    assert out == "*\n"


def test_yashima_classify(capsys):
    code, out, _ = _run(capsys, "yashima", "classify", str(GRAPHS / "path_3.graph"))
    assert code == 0 and out == "same-color\n"
    code, out, _ = _run(
        capsys, "yashima", "classify", str(GRAPHS / "single_edge.graph")
    )
    assert out == "different-color\n"


def test_yashima_stats(capsys):
    code, payload, _ = _run_json(
        capsys, "yashima", "stats", str(GRAPHS / "ladder_2x5.graph")
    )
    assert code == 0
    assert payload["result"] == "{0|-3}"
    assert payload["counts"] == {"expanded_nodes": 104241, "memo_entries": 1206}
    code, out, _ = _run(capsys, "yashima", "stats", str(GRAPHS / "path_3.graph"))
    assert out == "value *\nexpanded 3\nmemo 3\n"


def test_yashima_verify(capsys):
    code, payload, _ = _run_json(
        capsys, "yashima", "verify", "--max-vertices", "3", "--max-edges", "3"
    )
    assert code == 0
    assert payload["result"] is True
    assert payload["counts"] == {
        "graphs_checked": 23,
        "states_checked": 114,
        "different_color_states": 96,
        "commuting_pairs_checked": 0,
        "distinct_boards": 19,
        "distinct_games": 16,
    }
    code, out, _ = _run(
        capsys,
        "yashima",
        "verify",
        "--max-vertices",
        "3",
        "--max-edges",
        "2",
        "--variant",
        "tron",
    )
    assert code == 0 and out.splitlines()[0] == "ok"


def test_yashima_verify_counterexamples_exit_1(capsys, failing_laws):
    code, out, _ = _run(
        capsys, "yashima", "verify", "--max-vertices", "3", "--max-edges", "3"
    )
    assert code == 1 and out.splitlines()[0] == "counterexamples 1"


@pytest.mark.parametrize("bound", ["--max-vertices", "--max-edges"])
def test_yashima_verify_negative_bounds_exit_2(capsys, bound):
    code, out, err = _run(capsys, "--json", "yashima", "verify", bound, "-1")
    assert code == 2 and out == ""
    assert err == "error: max_vertices and max_edges must be nonnegative\n"


def test_parse_errors_exit_2(capsys, tmp_path):
    code, out, err = _run(capsys, "value", "1/3")
    assert code == 2 and out == "" and err.startswith("error:")
    code, _, err = _run(capsys, "value", "{0|")
    assert code == 2 and "expected" in err
    code, _, err = _run(capsys, "yashima", "value", str(GRAPHS / "missing.graph"))
    assert code == 2 and err.startswith("error:")
    not_utf8 = tmp_path / "not_utf8.graph"
    not_utf8.write_bytes(b"\xff\xfe\x00bad")
    code, out, err = _run(capsys, "yashima", "value", str(not_utf8))
    assert code == 2 and out == ""
    assert err == "error: %s is not UTF-8 text\n" % not_utf8
    code, _, err = _run(capsys, "yashima", "verify", "--state-budget", "5")
    assert code == 2 and "budget" in err
    code, out, err = _run(capsys, "yashima", "verify", "--max-vertices", "3",
                          "--max-edges", "3", "--state-budget", "-1")
    assert code == 2 and out == ""
    assert err == "error: state_budget must be nonnegative\n"
    # huge bounds are refused by the budget without counting every board
    for bounds in (("1000000000", "0"), ("5", "100000000")):
        code, _, err = _run(capsys, "yashima", "verify", "--max-vertices", bounds[0],
                            "--max-edges", bounds[1])
        assert code == 2 and "budget" in err
    # one '|' for 1,000 open braces: the second innermost brace lacks its '|'
    code, out, err = _run(capsys, "value", "{" * 1000 + "|" + "}" * 1000)
    assert code == 2 and out == ""
    assert err == "error: unexpected '}' (line 1, column 1003); expected (',', '|')\n"
    long_digits = "1" + "0" * 4300  # past int()'s default digit limit
    too_long = "integer of 4301 digits is too long"
    too_large = "numeral's integer part exceeds 100000"
    for argv, message in [
        # digits that str.isdigit accepts but int() does not
        (("value", "\u00b2"), "unexpected character '\u00b2' (line 1, column 1)"),
        (("value", "10\u00b2"), "unexpected character '\u00b2' (line 1, column 3)"),
        (("compare", "{1|}", "\u2462"), "unexpected character '\u2462' (line 1, column 1)"),
        # numerals too long for int() or too large to build
        (("value", long_digits), too_long + " (line 1, column 1)"),
        (("value", "1/" + long_digits), too_long + " (line 1, column 3)"),
        (("value", "{%s|}" % long_digits), too_long + " (line 1, column 2)"),
        (("value", "-100001"), too_large + " (line 1, column 1)"),
        (("value", "{0|200002/2}"), too_large + " (line 1, column 4)"),
    ]:
        code, out, err = _run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == "error: %s\n" % message


@pytest.mark.parametrize(
    "argv",
    [
        ("compare", "5000", "4999"),
        ("value", "{" * 1000 + "|}" * 1000),
    ],
    ids=["deep-compare", "deep-braces"],
)
def test_too_deep_inputs_exit_2(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: input nests too deeply\n"
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "error",
    [BoundsTooLargeError, MalformedGameError, PreconditionError, NotClosedError],
)
def test_every_package_error_exits_2(capsys, monkeypatch, error):
    def fail(engine, expr):
        raise error("raised on purpose")

    monkeypatch.setattr(cli, "parse_position", fail)
    code, out, err = _run(capsys, "value", "*")
    assert code == 2 and out == ""
    assert err == "error: raised on purpose\n"


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["diamond", "--property", "bogus", "*"])
    assert info.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2
    capsys.readouterr()


def test_json_schema_is_stable(capsys):
    _, payload, _ = _run_json(capsys, "value", "*")
    assert payload == {
        "command": "value",
        "input": "*",
        "result": "*",
        "witnesses": [],
        "counts": {},
    }
    _, payload, _ = _run_json(capsys, "compare", "1", "0")
    assert payload["input"] == ["1", "0"]
    assert payload["result"] == ">"
