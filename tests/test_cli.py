"""Command-line interface: outputs, JSON schema, and exit codes."""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

from diamondcgt import cli, yashima
from diamondcgt.cli import main
from diamondcgt.diamond import PropertyName
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
    # the refinements name the guides' common second moves
    code, out, _ = _run(capsys, "diamond", "--property", "dr-leq", "{0|*}")
    assert code == 0
    assert out.splitlines() == ["holds", "guide-left 0", "guide-right *", "second-right 0"]
    code, payload, _ = _run_json(
        capsys, "diamond", "--property", "d", "{{*,1|*}|{*,0|0}}"
    )
    assert code == 0
    (witness,) = payload["witnesses"]
    assert witness["second_moves"] == {"left": "*", "right": "*"}


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


def test_yashima_classify_a_sparse_board_with_a_high_vertex_id(tmp_path, capped_python):
    # one edge to vertex 999,999,999: classify labels only the two
    # vertices it touches, so it answers under the child's 512 MB cap
    board = tmp_path / "sparse.graph"
    board.write_text("vertices 1000000000\nL 0\nR 999999999\ne 0 999999999\n")
    code = "import sys\nfrom diamondcgt.cli import main\nsys.exit(main(sys.argv[1:]))\n"
    for command, answer in (("classify", "different-color"), ("value", "0")):
        done = capped_python(code, "yashima", command, str(board))
        assert (done.returncode, done.stdout, done.stderr) == (0, answer + "\n", "")


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
    underscore = tmp_path / "underscore.graph"
    underscore.write_text("vertices 1_0\nL 0\nR 1\n")
    code, out, err = _run(capsys, "yashima", "value", str(underscore))
    assert (code, out) == (2, "")
    assert err == "error: vertex count must be an integer, got '1_0' (line 1)\n"
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
        ("value", "{0|" * 1000 + "*" + "}" * 1000),
    ],
    ids=["deep-compare", "deep-braces"],
)
def test_too_deep_inputs_exit_2(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: input nests too deeply\n"
    assert "Traceback" not in err


def test_deep_number_trees_answer(capsys):
    # a number-shaped node is canonical from birth, so 100,000 levels of
    # {...{|}...|} need no recursion: the tree is the integer 99999
    braces = "{" * 100_000 + "|}" * 100_000
    assert _run(capsys, "value", braces) == (0, "99999\n", "")
    assert _run(capsys, "canonical", braces) == (0, "{99998|}\n", "")
    assert _run(capsys, "stops", braces) == (0, "LS 99999\nRS 99999\n", "")
    assert _run(capsys, "diamond", "--property", "dz", braces) == (
        0, "holds\nmember-value 99999\n", ""
    )


def test_numbers_too_long_to_print_exit_2(capsys):
    # 2**14284 has 4,300 digits, the most Python turns into text; the
    # value of {0|1/2**14284} has a denominator of 4,301 digits
    denominator = 2**14284
    assert _run(capsys, "value", "1/%d" % denominator) == (
        0, "1/%d\n" % denominator, ""
    )
    too_long = "error: cannot print a number with an integer of more than 4300 digits\n"
    text = "{0|1/%d}" % denominator
    for argv in (("value", text), ("stops", text), ("diamond", "--property", "dd", text)):
        assert _run(capsys, *argv) == (2, "", too_long)
    # 20,000 levels of {0|...{0|}...} spell 1/2**19999 at birth
    chain = "{0|" * 20_000 + "}" * 20_000
    assert _run(capsys, "value", chain) == (2, "", too_long)


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


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_out_of_memory_exits_2(capsys, monkeypatch, json_flag):
    def exhausted(args, engine):
        raise MemoryError

    monkeypatch.setattr(cli, "_run", exhausted)
    code, out, err = _run(capsys, *json_flag, "value", "*")
    assert (code, out, err) == (2, "", "error: out of memory\n")


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_solve_past_the_state_budget_exits_2(capsys, monkeypatch, json_flag):
    monkeypatch.setattr(yashima, "STATE_BUDGET", 1_000)
    ladder = str(GRAPHS / "ladder_2x5.graph")
    for command in ("value", "stats"):
        code, out, err = _run(capsys, *json_flag, "yashima", command, ladder)
        assert (code, out, err) == (2, "", "error: solve visits more than 1000 states\n")


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_sweep_of_long_masks_exits_2(capsys, json_flag):
    # 201 boards of 2 vertices, on masks of up to 200 bits each
    code, out, err = _run(capsys, *json_flag, "yashima", "verify", "--max-vertices", "2",
                          "--max-edges", "200", "--state-budget", "500")
    assert (code, out) == (2, "")
    assert err == "error: sweep of at least 402 states and 804 mask words exceeds the budget of 500\n"


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


def _result(payload):
    return payload["result"]


def _diamond_text(payload):
    lines = ["holds" if payload["result"]["holds"] else "fails"]
    lines += ["member-value " + w["member_value"] for w in payload["witnesses"]]
    return "\n".join(lines)


def _verify_text(payload):
    lines = ["ok" if payload["result"] else "counterexamples"]
    lines += ["%s %d" % item for item in payload["counts"].items()]
    return "\n".join(lines)


@pytest.mark.parametrize(
    "argv, command, text_of",
    [
        (("value", "{1,0|1,2}"), "value", _result),
        (("canonical", "*"), "canonical", _result),
        (("compare", "{0|*}", "0"), "compare", _result),
        (("stops", "--system", "z", "1/2"), "stops",
         lambda p: "LS %(left_stop)s\nRS %(right_stop)s" % p["result"]),
        (("diamond", "--property", "dd", "1/2"), "diamond", _diamond_text),
        (("diamond", "--property", "dz", "*"), "diamond", _diamond_text),
        (("yashima", "value", str(GRAPHS / "path_3.graph")), "yashima value",
         _result),
        (("yashima", "classify", str(GRAPHS / "single_edge.graph")),
         "yashima classify", _result),
        (("yashima", "stats", str(GRAPHS / "path_3.graph")), "yashima stats",
         lambda p: "value %s\nexpanded %d\nmemo %d" % (
             p["result"], p["counts"]["expanded_nodes"], p["counts"]["memo_entries"])),
        (("yashima", "verify", "--max-vertices", "2", "--max-edges", "2"),
         "yashima verify", _verify_text),
    ],
    ids=[
        "value", "canonical", "compare", "stops", "diamond-holds",
        "diamond-fails", "yashima-value", "yashima-classify", "yashima-stats",
        "yashima-verify",
    ],
)
def test_json_contract_of_every_command(capsys, argv, command, text_of):
    text_code, out, _ = _run(capsys, *argv)
    code, payload, _ = _run_json(capsys, *argv)
    assert payload["command"] == command
    assert code == text_code
    assert out == text_of(payload) + "\n"


class _BrokenPipe:
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize(
    "argv",
    [
        ["value", "{0|*}"],
        ["--json", "yashima", "classify", str(GRAPHS / "path_3.graph")],
    ],
    ids=["text", "json"],
)
def test_failed_write_exits_2(capsys, monkeypatch, argv):
    monkeypatch.setattr(sys, "stdout", _BrokenPipe())
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"


_ATOMS = ["0", "*", "1", "-1", "2", "1/2", "-3/4", "3/8", "{0|*}", "{|}"]
_GARBAGE = "{}|,*/-0123 x"


def _fuzz_expr(rng):
    """A braces expression: structured most of the time, else noise."""
    if rng.random() < 0.2:
        text = "".join(rng.choice(_GARBAGE) for _ in range(rng.randint(0, 8)))
        # a leading '-' before a non-digit would be read as an option
        return "0" + text if text[:1] == "-" and not text[1:2].isdigit() else text
    return _fuzz_game(rng, 3)


def _fuzz_game(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(_ATOMS)
    sides = [
        ",".join(_fuzz_game(rng, depth - 1) for _ in range(rng.randint(0, 2)))
        for _ in range(2)
    ]
    return "{%s|%s}" % tuple(sides)


def _fuzz_argv(rng, graphs):
    """One random argv from every subcommand and option of the CLI."""
    argv = ["--json"] if rng.random() < 0.5 else []
    command = rng.choice(
        ["value", "canonical", "compare", "stops", "diamond", "yashima"]
    )
    if command == "yashima":
        sub = rng.choice(["value", "classify", "stats", "verify"])
        argv += [command, sub]
        if sub != "verify":
            names = ["ladder_2x5", "path_3", "single_edge", "missing"]
            return argv + [str(Path(graphs) / (rng.choice(names) + ".graph"))]
        options = [
            ["--max-vertices", str(rng.randint(-1, 3))],
            ["--max-edges", str(rng.randint(-1, 3))],
        ]
        if rng.random() < 0.5:
            options.append(["--variant", rng.choice(["yashima", "tron"])])
        if rng.random() < 0.3:
            options.append(["--state-budget", rng.choice(["-1", "5", "1000000"])])
        rng.shuffle(options)
        return argv + [word for option in options for word in option]
    argv.append(command)
    if command == "stops" and rng.random() < 0.7:
        argv += ["--system", rng.choice(["z", "d"])]
    if command == "diamond":
        argv += ["--property", rng.choice([name.value for name in PropertyName])]
    argv.append(_fuzz_expr(rng))
    if command == "compare":
        argv.append(_fuzz_expr(rng))
    return argv


def test_seeded_cli_fuzz(capsys):
    rng = random.Random(14)
    statuses = set()
    for _ in range(300):
        argv = _fuzz_argv(rng, GRAPHS)
        code = main(argv)
        out, err = capsys.readouterr()
        command = argv[1:] if argv[0] == "--json" else argv
        assert code in (0, 1, 2), argv
        may_fail = command[0] == "diamond" or command[:2] == ["yashima", "verify"]
        assert code != 1 or may_fail, argv
        assert "Traceback" not in out + err, argv
        statuses.add(code)
    assert statuses == {0, 1, 2}
