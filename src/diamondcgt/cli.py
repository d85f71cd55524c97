"""Command-line front end.

Subcommands take braces notation (or a graph file) and print plain text
by default; ``--json`` switches every command to one JSON object with
the fixed keys command, input, result, witnesses, and counts.  Exit
status is 0 on success, 1 when a checked property fails or a
counterexample is found, and 2 for usage errors, unreadable files and
every package error (``DiamondCgtError``), for input that nests too
deeply and for running out of memory, with the message on stderr.
One dispatcher, ``_run``, returns each command's record, and ``main``
renders it once, as the JSON object or as the text lines.
"""

from __future__ import annotations

import argparse
import json
import sys

from .diamond import PropertyName, Witness, has_property
from .engine import Engine
from .errors import DiamondCgtError
from .graphio import load_graph, print_graph
from .notation import format_canonical, format_position, format_value, parse_position
from .values import NumberSystem
from .yashima import (
    STATE_BUDGET,
    Variant,
    YashimaSolver,
    color_class,
    verify_bipartite_simplicity,
)

class _ArgumentParser(argparse.ArgumentParser):
    """An argument that starts with ``-`` and a digit is an expression.

    Plain argparse only lets negative integers such as ``-5000`` through
    as positionals and takes ``-3/4`` for an unknown option.  No option of
    this CLI starts with a digit, so nothing else changes.  Subparsers are
    built from this same class.
    """

    def _parse_optional(self, arg_string):
        if arg_string[:1] == "-" and arg_string[1:2].isdigit():
            return None
        return super()._parse_optional(arg_string)


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="diamondcgt",
        description="Canonical forms, stops, and diamond certificates "
        "for short partizan games, with token-sliding graph games.",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit one JSON object instead of plain text",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("value", help="canonical value of an expression")
    p.add_argument("expr")

    p = sub.add_parser("canonical", help="canonical form, braces at the top")
    p.add_argument("expr")

    p = sub.add_parser("compare", help="order two expressions: < > = ||")
    p.add_argument("expr1")
    p.add_argument("expr2")

    p = sub.add_parser("stops", help="left and right stops")
    p.add_argument(
        "--system",
        choices=sorted(system.value for system in NumberSystem),
        default="d",
        help="number system the stops bottom out in (default d)",
    )
    p.add_argument("expr")

    p = sub.add_parser("diamond", help="check one diamond-style property")
    p.add_argument(
        "--property",
        dest="property_name",
        choices=[name.value for name in PropertyName],
        required=True,
    )
    p.add_argument("expr")

    yash = sub.add_parser("yashima", help="token-sliding graph games")
    ysub = yash.add_subparsers(dest="yashima_command", required=True)

    p = ysub.add_parser("value", help="canonical value of a graph file")
    p.add_argument("file")

    p = ysub.add_parser("classify", help="token color relation of a graph file")
    p.add_argument("file")

    p = ysub.add_parser("stats", help="value plus search statistics")
    p.add_argument("file")

    p = ysub.add_parser(
        "verify",
        help="sweep all bipartite boards up to the given size",
    )
    p.add_argument("--max-vertices", type=int, default=5)
    p.add_argument("--max-edges", type=int, default=6)
    p.add_argument(
        "--variant",
        choices=[v.value for v in Variant],
        default=Variant.YASHIMA.value,
    )
    p.add_argument(
        "--state-budget",
        type=int,
        default=STATE_BUDGET,
        help="refuse sweeps estimated beyond this many states or mask words",
    )
    return parser


def _witness_json(engine: Engine, witness: Witness) -> dict:
    entry: dict = {}
    if witness.member_value is not None:
        entry["member_value"] = str(witness.member_value)
    if witness.guide_left is not None:
        entry["guide_left"] = format_position(engine, witness.guide_left)
    if witness.guide_right is not None:
        entry["guide_right"] = format_position(engine, witness.guide_right)
    if witness.x is not None:
        entry["x"] = str(witness.x)
    if witness.second_moves is not None:
        left, right = witness.second_moves
        entry["second_moves"] = {
            "left": None if left is None else format_position(engine, left),
            "right": None if right is None else format_position(engine, right),
        }
    return entry


def _witness_lines(engine: Engine, witness: Witness) -> list[str]:
    lines = []
    for key, value in sorted(_witness_json(engine, witness).items()):
        if key == "second_moves":
            for side in ("left", "right"):
                if value[side] is not None:
                    lines.append("second-%s %s" % (side, value[side]))
        else:
            lines.append("%s %s" % (key.replace("_", "-"), value))
    return lines


def _state_summary(state) -> str:
    return "; ".join(print_graph(state).splitlines())


def _run(args, engine: Engine) -> tuple:
    """The command's (input, result, witnesses, counts, text lines, status)."""
    if args.command in ("value", "canonical"):
        show = format_value if args.command == "value" else format_canonical
        text = show(engine, parse_position(engine, args.expr))
        return args.expr, text, [], {}, [text], 0
    if args.command == "compare":
        g = parse_position(engine, args.expr1)
        h = parse_position(engine, args.expr2)
        symbol = engine.compare(g, h).symbol
        return [args.expr1, args.expr2], symbol, [], {}, [symbol], 0
    if args.command == "stops":
        system = NumberSystem(args.system)
        g = parse_position(engine, args.expr)
        ls = engine.left_stop(g, system)
        rs = engine.right_stop(g, system)
        result = {"left_stop": str(ls), "right_stop": str(rs)}
        return args.expr, result, [], {}, ["LS %s" % ls, "RS %s" % rs], 0
    if args.command == "diamond":
        name = PropertyName(args.property_name)
        g = parse_position(engine, args.expr)
        report = has_property(engine, g, name)
        witnesses = (
            [_witness_json(engine, report.witness)] if report.witness else []
        )
        lines = ["holds" if report.holds else "fails"]
        if report.witness:
            lines.extend(_witness_lines(engine, report.witness))
        result = {"property": name.value, "holds": report.holds}
        return args.expr, result, witnesses, {}, lines, 0 if report.holds else 1
    if args.yashima_command == "verify":
        variant = Variant(args.variant)
        report = verify_bipartite_simplicity(
            engine,
            max_vertices=args.max_vertices,
            max_edges=args.max_edges,
            variant=variant,
            state_budget=args.state_budget,
        )
        counts = {
            "graphs_checked": report.graphs_checked,
            "states_checked": report.states_checked,
            "different_color_states": report.different_color_states,
            "commuting_pairs_checked": report.commuting_pairs_checked,
            "distinct_boards": report.distinct_boards,
            "distinct_games": report.distinct_games,
        }
        witnesses = [
            {
                "state": _state_summary(c.state),
                "kind": c.kind,
                "detail": c.detail,
            }
            for c in report.counterexamples
        ]
        lines = ["ok" if report.ok else "counterexamples %d" % len(witnesses)]
        lines.extend("%s %d" % (k, v) for k, v in counts.items())
        for w in witnesses:
            lines.append("%s: %s (%s)" % (w["kind"], w["detail"], w["state"]))
        bounds = {
            "max_vertices": args.max_vertices,
            "max_edges": args.max_edges,
            "variant": variant.value,
        }
        return bounds, report.ok, witnesses, counts, lines, 0 if report.ok else 1
    state = load_graph(args.file)
    if args.yashima_command == "classify":
        text = color_class(state).value
        return args.file, text, [], {}, [text], 0
    solver = YashimaSolver(engine)
    counts = {}
    if args.yashima_command == "stats":
        stats = solver.solve_stats(state)
        counts = {
            "expanded_nodes": stats.expanded_nodes,
            "memo_entries": stats.memo_entries,
        }
    text = format_value(engine, solver.to_game(state))
    lines = [text]
    if counts:
        lines = [
            "value %s" % text,
            "expanded %(expanded_nodes)d" % counts,
            "memo %(memo_entries)d" % counts,
        ]
    return args.file, text, [], counts, lines, 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    engine = Engine()
    command = args.command
    if command == "yashima":
        command += " " + args.yashima_command
    try:
        input_value, result, witnesses, counts, lines, status = _run(args, engine)
        # printing stays inside the try: a failed write (a closed pipe)
        # is an OSError and exits 2 like any other
        if args.json:
            payload = {
                "command": command,
                "input": input_value,
                "result": result,
                "witnesses": witnesses,
                "counts": counts,
            }
            lines = [json.dumps(payload, indent=2)]
        for line in lines:
            print(line)
        return status
    except (DiamondCgtError, OSError) as ex:
        print("error: %s" % ex, file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input nests too deeply", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
