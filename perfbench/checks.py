"""Correctness checks against references that do not come from the engine.

The referee is the repository's brute-force oracle (``tests/oracle.py``):
games as nested frozensets, order through difference games, and its own
token-slide rules and search.  Slide-game values are compared by
``GameTable`` below instead of the oracle's difference games, which are
too slow on the larger boards.  Braces text and graph text are read here by small
parsers of the benchmark's own, not by ``diamondcgt.notation`` or
``diamondcgt.graphio``.  The sweep's reference is the pinned gate counts.

Each ``check_<workload>`` takes the inputs and one pass's outputs and
returns (operations attempted, failures), a failure being a pair of the
operation that failed and a message.  Everything here runs after the
worker has exited, outside any timed region.
"""

from __future__ import annotations

import importlib.util
import os

SWEEP_EXPECTED = {
    "ok": True,
    "graphs": 6104,
    "states": 108_120,
    "different_color": 79_660,
    "commuting_pairs": 42_000,
}
LADDER_EXPECTED = ["{0|-3}", 104_241, 1_206]
DAY3_VALUES = 1474
DAY3_COMPARES = DAY3_VALUES * (DAY3_VALUES - 1) // 2


def load_oracle(root: str):
    """The checkout's ``tests/oracle.py``, loaded without touching sys.path."""
    spec = importlib.util.spec_from_file_location(
        "oracle", os.path.join(root, "tests", "oracle.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def parse_braces(text: str, make):
    """Braces notation (``3``, ``-3/4``, ``*``, ``{a,b|c}``) to a game
    built bottom-up by ``make(left options, right options)``."""
    text = "".join(text.split())
    pos = 0

    def integer(m):
        if m == 0:
            return make((), ())
        if m > 0:
            return make((integer(m - 1),), ())
        return make((), (integer(m + 1),))

    def dyadic(num, exp):
        while exp > 0 and num % 2 == 0:
            num, exp = num // 2, exp - 1
        if exp == 0:
            return integer(num)
        return make((dyadic((num - 1) // 2, exp - 1),), (dyadic((num + 1) // 2, exp - 1),))

    def game():
        nonlocal pos
        ch = text[pos]
        if ch == "*":
            pos += 1
            zero = integer(0)
            return make((zero,), (zero,))
        if ch == "{":
            pos += 1
            left = options("|")
            pos += 1
            right = options("}")
            pos += 1
            return make(left, right)
        start = pos
        while pos < len(text) and (text[pos].isdigit() or text[pos] in "-/"):
            pos += 1
        numeral = text[start:pos]
        num, _, den = numeral.partition("/")
        exp = int(den or "1").bit_length() - 1
        if not num or int(den or "1") != 1 << exp:
            raise ValueError("bad numeral %r in %r" % (numeral, text))
        return dyadic(int(num), exp)

    def options(closer):
        nonlocal pos
        out = []
        if text[pos] == closer:
            return out
        out.append(game())
        while text[pos] == ",":
            pos += 1
            out.append(game())
        if text[pos] != closer:
            raise ValueError("expected %r at %d in %r" % (closer, pos, text))
        return out

    result = game()
    if pos != len(text):
        raise ValueError("trailing text in %r" % text)
    return result


class GameTable:
    """Games as hash-consed ids, so structurally equal games share one id,
    compared by the textbook recursion: g <= h unless some gL >= h or
    some hR <= g.

    The oracle's difference games compare large slide games by structural
    equality and can take a minute on one 2x6 board; this table answers the
    same question in milliseconds, from code that shares nothing with the
    engine.
    """

    def __init__(self):
        self.nodes: list = []
        self.index: dict = {}
        self.memo: dict = {}

    def make(self, left, right) -> int:
        key = (frozenset(left), frozenset(right))
        got = self.index.get(key)
        if got is None:
            got = self.index[key] = len(self.nodes)
            self.nodes.append(key)
        return got

    def leq(self, g: int, h: int) -> bool:
        key = (g, h)
        got = self.memo.get(key)
        if got is None:
            got = not any(self.leq(h, gl) for gl in self.nodes[g][0]) and not any(
                self.leq(hr, g) for hr in self.nodes[h][1]
            )
            self.memo[key] = got
        return got

    def eq(self, g: int, h: int) -> bool:
        return self.leq(g, h) and self.leq(h, g)

    def slide_game(self, oracle, edges, left, right, variant, memo) -> int:
        """The token-slide game over the oracle's own move rules."""
        key = (edges, left, right)
        got = memo.get(key)
        if got is None:
            lefts = [
                self.slide_game(oracle, rest, dest, right, variant, memo)
                for rest, dest in oracle.slide_successors(edges, left, right, variant)
            ]
            rights = [
                self.slide_game(oracle, rest, left, dest, variant, memo)
                for rest, dest in oracle.slide_successors(edges, right, left, variant)
            ]
            got = memo[key] = self.make(lefts, rights)
        return got


def parse_board(text: str):
    """Graph-file text to the oracle's (edges, left, right, variant)."""
    variant, left, right, edges = "yashima", None, None, []
    for raw in text.splitlines():
        words = raw.split("#", 1)[0].split()
        if not words:
            continue
        if words[0] == "variant":
            variant = words[1]
        elif words[0] == "L":
            left = int(words[1])
        elif words[0] == "R":
            right = int(words[1])
        elif words[0] == "e":
            u, v = int(words[1]), int(words[2])
            edges.append((min(u, v), max(u, v)))
    return tuple(sorted(edges)), left, right, variant


def tree_size(oracle, edges, left, right, variant, memo):
    """The README's expanded-node count, over the oracle's own moves."""
    key = (edges, left, right)
    got = memo.get(key)
    if got is None:
        got = 1
        for rest, dest in oracle.slide_successors(edges, left, right, variant):
            got += tree_size(oracle, rest, dest, right, variant, memo)
        for rest, dest in oracle.slide_successors(edges, right, left, variant):
            got += tree_size(oracle, rest, left, dest, variant, memo)
        memo[key] = got
    return got


class Checker:
    """Holds the oracle and caches its answers across passes and runs."""

    def __init__(self, root: str):
        self.oracle = load_oracle(root)
        self._boards: dict = {}
        with open(os.path.join(root, "graphs", "ladder_2x5.graph"), encoding="utf-8") as fh:
            self.ladder = fh.read()

    def check_sweep(self, inputs, outputs):
        failures = []
        for out in outputs:
            for key, want in SWEEP_EXPECTED.items():
                if out[key] != want:
                    failures.append((out["variant"], "%s: %r != %r" % (key, out[key], want)))
        if sorted(o["variant"] for o in outputs) != ["tron", "yashima"]:
            failures.append(("sweep", "did not cover both variants"))
        return 2, failures

    def _board_failures(self, text, value, expanded, memo):
        o = self.oracle
        edges, left, right, variant = parse_board(text)
        messages = []
        states = o.slide_state_count(edges, left, right, variant)
        if memo != states:
            messages.append("memo %d != oracle %d" % (memo, states))
        size = tree_size(o, edges, left, right, variant, {})
        if expanded != size:
            messages.append("expanded %d != oracle %d" % (expanded, size))
        table = GameTable()
        try:
            engine_value = parse_braces(value, table.make)
        except (ValueError, IndexError):
            engine_value = None
        game = table.slide_game(o, edges, left, right, variant, {})
        same = engine_value is not None and table.eq(game, engine_value)
        if not same:
            messages.append("value %s differs from the oracle" % value)
        if text == self.ladder and [value, expanded, memo] != LADDER_EXPECTED:
            messages.append("ladder %r != %r" % ([value, expanded, memo], LADDER_EXPECTED))
        return messages

    def check_solve(self, inputs, outputs):
        failures = []
        boards = inputs["boards"]
        if len(outputs) != len(boards):
            failures.append(("solve", "%d outputs for %d boards" % (len(outputs), len(boards))))
        for index, (text, out) in enumerate(zip(boards, outputs)):
            key = (text, *out)
            if key not in self._boards:
                self._boards[key] = self._board_failures(text, *out)
            failures.extend((index, message) for message in self._boards[key])
        return len(boards), failures

    def check_forms(self, inputs, outputs):
        o = self.oracle
        failures = []

        def game(text):
            try:
                return parse_braces(text, o.OGame)
            except (ValueError, IndexError):
                return None

        universe = outputs["universe"]
        if universe["values"] != DAY3_VALUES:
            failures.append(("universe", "day-3 values %s != %d" % (universe["values"], DAY3_VALUES)))
        if universe["compares"] != DAY3_COMPARES or universe["equal"]:
            failures.append((
                "universe",
                "day-3 compares %d with %d equal" % (universe["compares"], universe["equal"]),
            ))
        if len(universe["sample"]) != len(inputs["pairs"]):
            failures.append(("universe", "sampled %d of %d pairs" % (len(universe["sample"]), len(inputs["pairs"]))))
        for g, h, symbol in universe["sample"]:
            g_game, h_game = game(g), game(h)
            readable = g_game is not None and h_game is not None
            want = o.compare(g_game, h_game) if readable else "unreadable"
            if symbol != want:
                failures.append(("universe", "compare(%s, %s) = %s, oracle %s" % (g, h, symbol, want)))
        items = inputs["items"]
        if len(outputs["items"]) != len(items):
            failures.append(("items", "%d outputs for %d items" % (len(outputs["items"]), len(items))))
        for index, (text, out) in enumerate(zip(items, outputs["items"])):
            canon, round_trip, closed, _stops, _holds = out
            if not round_trip:
                failures.append((index, "canonical text %s does not round-trip" % canon))
            if not closed:
                failures.append((index, "closed-set verification failed for %s" % text))
            canon_game = game(canon)
            if canon_game is None or not o.eq(game(text), canon_game):
                failures.append((index, "%s is not equal to its canonical form %s" % (text, canon)))
        return len(items) + 1, failures

    def check(self, workload, inputs, outputs):
        return getattr(self, "check_" + workload)(inputs, outputs)
