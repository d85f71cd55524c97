"""Token games on multigraphs and their translation into positions.

Left and Right each own one token on a multigraph.  A move slides your own
token along an edge to the far endpoint, which must not hold the opponent's
token.  The variants differ in what the move destroys: the edge-removal
game deletes the traversed edge copy, the vertex-removal game deletes every
edge at the vertex the token just left (the vertex itself stays as an inert
label).  Under normal play the player without a move loses.

The public types (``MultiGraph``, ``YashimaState``, ``Move``) validate
their arguments and are the boundary for outside input, together with
``graphio``.  Inside, the solver and the sweep work on a compact state:
the plain tuple ``(edges, left_token, right_token)``, where ``edges`` is
the sorted tuple of ``(min, max)`` endpoint pairs.  It holds no vertex
count, so boards differing only in trailing isolated vertices share one
state.  One private successor function per variant turns a compact state
into its followers without building or re-validating any public object.
It is the single slide rule: the move descriptors, legality, applying a
move, the commuting check and the sweep's slide rows all read its
successor lists, and nothing else decides where a token may slide or
which edges a slide deletes.
The solver memoizes game ids per variant on the compact state.
``YashimaSolver.solve_stats`` reads the game id, the tree size and the
reachable count off one post-order walk.

The module also houses the exhaustive small-board verifier: on bipartite
boards every position's value is an integer or a two-integer pair, tokens
on different color classes force an integer, and in the different-color
case any Left move and any Right move commute to the same state.  The
sweep needs no solver walk and interns boards, not states.  The first
time it meets an edge tuple it gives it a board id and one slide row per
vertex, the ``(destination, board id after the slide)`` pairs read once
from the successor function with the other token parked on a vertex no
edge touches.  Game ids are kept in one list per board, by token pair.
Every move deletes at least one edge copy, so a state's successors are
placements with fewer edge copies on a subgraph, and the sweep order
(vertex count, then edge count) has visited them already; each state is
interned from its two filtered rows by list index, with no edge tuple
built or hashed.  The value laws are decided once per distinct game id,
and every state is then checked against its game's verdict.  One
commuting check over ``(destination, board)`` slides serves the sweep,
which passes its rows, and ``commuting_violation``, which passes edge
tuples.
"""

from __future__ import annotations

import itertools
import math
from itertools import chain, filterfalse
from dataclasses import dataclass
from enum import Enum

from .engine import Engine
from .errors import BoundsTooLargeError, InvalidStateError, PreconditionError
from .values import NumberSystem, ValueClass


class Variant(Enum):
    YASHIMA = "yashima"
    TRON = "tron"


class Player(Enum):
    LEFT = "left"
    RIGHT = "right"


class ColorClass(Enum):
    DIFFERENT_COLOR = "different-color"
    SAME_COLOR = "same-color"
    NOT_BIPARTITE = "not-bipartite"


@dataclass(frozen=True)
class MultiGraph:
    """Undirected multigraph on vertices 0..vertex_count-1.

    Edges are stored as a sorted tuple of (min, max) endpoint pairs; a pair
    appearing k times is an edge of multiplicity k.  Self-loops are
    rejected: a token can never move onto its own vertex.
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.vertex_count < 0:
            raise InvalidStateError("vertex_count must be nonnegative")
        canon = []
        for edge in self.edges:
            u, v = edge
            if u == v:
                raise InvalidStateError("self-loop at vertex %d" % u)
            if u > v:
                u, v = v, u
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise InvalidStateError("edge %r leaves the vertex range" % (edge,))
            canon.append((u, v))
        object.__setattr__(self, "edges", tuple(sorted(canon)))

    def multiplicity(self, u: int, v: int) -> int:
        if u > v:
            u, v = v, u
        return self.edges.count((u, v))


@dataclass(frozen=True)
class YashimaState:
    """A board, the two token positions, and which variant is being played."""

    graph: MultiGraph
    left_token: int
    right_token: int
    variant: Variant = Variant.YASHIMA

    def __post_init__(self):
        n = self.graph.vertex_count
        if not (0 <= self.left_token < n and 0 <= self.right_token < n):
            raise InvalidStateError("token off the board")
        if self.left_token == self.right_token:
            raise InvalidStateError("tokens may not share a vertex")

    def key(self) -> tuple:
        """Transposition key: the variant, edges and tokens.

        The vertex count is deliberately absent so boards differing only in
        trailing isolated vertices share game values.
        """
        return (self.variant.value, self.graph.edges, self.left_token, self.right_token)


@dataclass(frozen=True)
class Move:
    """A move: slide along edge to destination (the far endpoint)."""

    edge: tuple[int, int]
    destination: int


# --- the compact state ----------------------------------------------------
#
# The two successor functions below are the only code that decides where a
# token may slide and which edge copies the slide deletes.  Edges are
# sorted, so the copies of one pair are adjacent and a scan skips every
# copy after the first: parallel copies lead to the same state.


def _yashima_successors(state):
    """Left and right successor states: the slide deletes one edge copy.

    One scan serves both tokens.  An edge holds both tokens only when it
    joins them, and then neither token may slide along it.
    """
    edges, lt, rt = state
    lefts = []
    rights = []
    prev = None
    for i, edge in enumerate(edges):
        if edge != prev:
            prev = edge
            u, v = edge
            if u == lt:
                if v != rt:
                    lefts.append((edges[:i] + edges[i + 1 :], v, rt))
            elif v == lt:
                if u != rt:
                    lefts.append((edges[:i] + edges[i + 1 :], u, rt))
            elif u == rt:
                rights.append((edges[:i] + edges[i + 1 :], lt, v))
            elif v == rt:
                rights.append((edges[:i] + edges[i + 1 :], lt, u))
    return lefts, rights


def _tron_successors(state):
    """Left and right successor states: the departed vertex loses every
    edge, which leaves one remainder per mover."""
    edges, lt, rt = state
    left_dests = []
    right_dests = []
    prev = None
    for edge in edges:
        if edge != prev:
            prev = edge
            u, v = edge
            if u == lt:
                if v != rt:
                    left_dests.append(v)
            elif v == lt:
                if u != rt:
                    left_dests.append(u)
            elif u == rt:
                right_dests.append(v)
            elif v == rt:
                right_dests.append(u)
    lefts = rights = ()
    if left_dests:
        rest = tuple([e for e in edges if lt not in e])
        lefts = [(rest, d, rt) for d in left_dests]
    if right_dests:
        rest = tuple([e for e in edges if rt not in e])
        rights = [(rest, lt, d) for d in right_dests]
    return lefts, rights


_SUCCESSORS = {Variant.YASHIMA: _yashima_successors, Variant.TRON: _tron_successors}


def _compact(state: YashimaState) -> tuple:
    return state.graph.edges, state.left_token, state.right_token


def _edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def _slides(state: YashimaState, player: Player) -> dict:
    """Each distinct slide of the player's token, in edge order, as
    ``Move -> compact successor state``."""
    lefts, rights = _SUCCESSORS[state.variant](_compact(state))
    if player is Player.LEFT:
        lt = state.left_token
        return {Move(_edge(lt, s[1]), s[1]): s for s in lefts}
    rt = state.right_token
    return {Move(_edge(rt, s[2]), s[2]): s for s in rights}


def move_descriptors(state: YashimaState, player: Player) -> tuple[Move, ...]:
    return tuple(_slides(state, player))


def is_legal(state: YashimaState, player: Player, move: Move) -> bool:
    """Whether the move is a slide of the player's token; the edge may be
    given in either orientation."""
    return Move(_edge(*move.edge), move.destination) in _slides(state, player)


def apply_move(state: YashimaState, player: Player, move: Move) -> YashimaState:
    after = _slides(state, player).get(Move(_edge(*move.edge), move.destination))
    if after is None:
        raise InvalidStateError("move %r is not legal for %s" % (move, player.value))
    edges, lt, rt = after
    graph = MultiGraph(state.graph.vertex_count, edges)
    return YashimaState(graph, lt, rt, state.variant)


def legal_moves(state: YashimaState, player: Player) -> tuple[YashimaState, ...]:
    """Successor states for the player, deduplicated, in key order."""
    vertex_count = state.graph.vertex_count
    succs = [
        YashimaState(MultiGraph(vertex_count, edges), lt, rt, state.variant)
        for edges, lt, rt in _slides(state, player).values()
    ]
    return tuple(sorted(succs, key=YashimaState.key))


def _bipartition(vertex_count: int, edges) -> tuple[list, list] | None:
    """Per-vertex (component, color) labels, or None when not bipartite."""
    adjacency = [[] for _ in range(vertex_count)]
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    component = [-1] * vertex_count
    color = [0] * vertex_count
    for start in range(vertex_count):
        if component[start] >= 0:
            continue
        component[start] = start
        stack = [start]
        while stack:
            u = stack.pop()
            for v in adjacency[u]:
                if component[v] < 0:
                    component[v] = start
                    color[v] = color[u] ^ 1
                    stack.append(v)
                elif color[v] == color[u]:
                    return None
    return component, color


def _different_color(labels, lt: int, rt: int) -> bool:
    component, color = labels
    return component[lt] != component[rt] or color[lt] != color[rt]


def color_class(state: YashimaState) -> ColorClass:
    """Token coloring: different components or opposite classes both count
    as different-color; any odd cycle anywhere makes the board unusable.

    Only the vertices up to the highest edge endpoint are labelled: those
    above it are isolated, so a token there has a component of its own.
    """
    edges = state.graph.edges
    lt, rt = state.left_token, state.right_token
    top = max([v for _, v in edges], default=-1)
    labels = _bipartition(top + 1, edges)
    if labels is None:
        return ColorClass.NOT_BIPARTITE
    if max(lt, rt) > top or _different_color(labels, lt, rt):
        return ColorClass.DIFFERENT_COLOR
    return ColorClass.SAME_COLOR


@dataclass(frozen=True)
class SolveStats:
    """Search statistics for one starting state."""

    expanded_nodes: int
    memo_entries: int
    value: ValueClass


class YashimaSolver:
    """Translates states into interned positions, sharing transpositions.

    Game ids are memoized per variant on the compact state, so every
    state is interned once per solver whatever root reaches it.
    """

    def __init__(self, engine: Engine):
        self.engine = engine
        self._memos = {variant: {} for variant in Variant}

    def to_game(self, state: YashimaState) -> int:
        return self._walk(_compact(state), state.variant)

    def tree_size(self, state: YashimaState) -> int:
        """Nodes of the full game tree below the state (the state included).

        Each node branches into the deduplicated successor states of both
        players, so transpositions are counted once per occurrence in the
        tree but expanded only once here.  Read off the same walk as
        ``solve_stats``, which also solves the state.
        """
        return self.solve_stats(state).expanded_nodes

    def reachable_states(self, state: YashimaState) -> int:
        """Distinct states reachable from the state, itself included.

        Read off the same walk as ``solve_stats``, which also solves the
        state.
        """
        return self.solve_stats(state).memo_entries

    def solve_stats(self, state: YashimaState) -> SolveStats:
        """Value, tree size and reachable count from one post-order walk."""
        root = _compact(state)
        sizes: dict = {}
        game = self._walk(root, state.variant, sizes)
        return SolveStats(
            expanded_nodes=sizes[root],
            memo_entries=len(sizes),
            value=self.engine.classify_value(game),
        )

    def _walk(self, root: tuple, variant: Variant, sizes: dict | None = None) -> int:
        """Game id of a compact state, by an iterative post-order walk.

        Without ``sizes`` the walk stops at states the memo already holds.
        With it, the walk visits every state reachable from the root once,
        memo or not, and records each one's tree size in ``sizes``; its
        length is then the reachable count.  Each visited state's
        successors are generated exactly once either way.
        """
        memo = self._memos[variant]
        successors = _SUCCESSORS[variant]
        intern = self.engine.intern
        done = memo if sizes is None else sizes
        stack = [root]
        waiting: dict = {}  # state -> its successors, while they are walked
        while stack:
            state = stack.pop()
            if state in done:
                continue
            children = waiting.pop(state, None) if waiting else None
            if children is None:
                children = successors(state)
                missing = list(filterfalse(done.__contains__, chain(*children)))
                if missing:
                    waiting[state] = children
                    stack.append(state)
                    stack += missing
                    continue
            lefts, rights = children
            if sizes is not None:
                sizes[state] = 1 + sum(map(sizes.__getitem__, lefts)) + sum(
                    map(sizes.__getitem__, rights)
                )
                if state in memo:
                    continue
            memo[state] = intern([memo[s] for s in lefts], [memo[s] for s in rights])
        return memo[root]


def _commuting_failure(moves, lt, rt, lefts, rights):
    """First (Left slide, Right slide, reason) that fails to commute.

    A slide is a ``(destination, board after the slide)`` pair, and
    ``moves(board, token)`` lists every slide of a token on a board that
    way, in edge order, before the opponent's vertex is ruled out.
    ``lefts`` and ``rights`` are the two tokens' slides on the state.
    Right's slide to d is still legal after Left's slide exactly when it
    is a slide on Left's board that does not end on Left's new vertex,
    and the other way round.  Both orders leave the tokens on the two
    destinations, so they agree when they reach one board.
    """
    if not (lefts and rights):
        return None
    # each Right slide's Left slides afterwards, by destination
    after_rights = [{d: b for d, b in moves(br, lt) if d != dr} for dr, br in rights]
    for left in lefts:
        dl, bl = left
        after_left = {d: b for d, b in moves(bl, rt) if d != dl}
        for right, after_right in zip(rights, after_rights):
            left_first = after_left.get(right[0])
            if left_first is None:
                return left, right, "right move blocked after left"
            right_first = after_right.get(dl)
            if right_first is None:
                return left, right, "left move blocked after right"
            if left_first != right_first:
                return left, right, "orders disagree"
    return None


def _move_pair(lt: int, rt: int, failure):
    (dl, _), (dr, _), reason = failure
    return Move(_edge(lt, dl), dl), Move(_edge(rt, dr), dr), reason


def commuting_violation(state: YashimaState):
    """First (Left, Right) move pair that fails to commute, or None.

    A pair fails when one move stops being legal after the other, or when
    the two application orders land in different states.
    """
    successors = _SUCCESSORS[state.variant]
    park = state.graph.vertex_count  # no edge touches it

    def moves(edges, token):
        return [(s[1], s[0]) for s in successors((edges, token, park))[0]]

    edges, lt, rt = _compact(state)
    lefts = [s for s in moves(edges, lt) if s[0] != rt]
    rights = [s for s in moves(edges, rt) if s[0] != lt]
    bad = _commuting_failure(moves, lt, rt, lefts, rights)
    return None if bad is None else _move_pair(lt, rt, bad)


@dataclass(frozen=True)
class SimplicityCounterexample:
    state: YashimaState
    kind: str
    detail: str


@dataclass(frozen=True)
class SimplicityReport:
    ok: bool
    counterexamples: tuple[SimplicityCounterexample, ...]
    graphs_checked: int
    states_checked: int
    different_color_states: int
    commuting_pairs_checked: int
    distinct_boards: int
    distinct_games: int


def _sweep_size(max_vertices: int, max_edges: int, budget: int) -> int:
    """Token placements on every multigraph the sweep visits, counted up
    to the first vertex count whose running total exceeds the budget."""
    total = 0
    for n in range(2, max_vertices + 1):
        pairs = n * (n - 1) // 2
        # multisets of at most max_edges copies over the vertex pairs
        graphs = math.comb(pairs + max_edges, max_edges)
        total += graphs * n * (n - 1)
        if total > budget:
            break
    return total


def verify_bipartite_simplicity(
    engine: Engine,
    max_vertices: int = 5,
    max_edges: int = 6,
    variant: Variant = Variant.YASHIMA,
    state_budget: int = 2_000_000,
    max_counterexamples: int = 1,
) -> SimplicityReport:
    """Check the bipartite value laws on every small board.

    Sweeps all labeled multigraphs with up to max_vertices vertices and
    max_edges edge copies, keeps the bipartite ones, and for every ordered
    token placement checks that the value equals some integer pair {m|n}
    (integers and half-odd-integers included, since m + 1/2 is {m|m+1}),
    that different-color tokens force an integer, and that different-color
    move pairs commute.  Successor states show up in the sweep as their own
    roots, so the laws are effectively checked on every follower too.

    The sweep visits boards by vertex count, then by edge count, and a
    successor always has fewer edge copies, so each state is interned from
    the ids its successors got earlier in the same sweep, with no walk.
    Those ids are read by list index from per-board slide rows and game
    lists; the report counts the board ids given and the distinct games.
    The value laws are decided once per game id and every state is checked
    against that verdict: states sharing a game each count, and each one
    that fails is reported with its own state.  The sweep stops once it
    holds max_counterexamples of them and reports exactly that many.
    Negative bounds and a max_counterexamples below 1 raise
    ``PreconditionError``.
    """
    if max_vertices < 0 or max_edges < 0:
        raise PreconditionError("max_vertices and max_edges must be nonnegative")
    if state_budget < 0:
        raise PreconditionError("state_budget must be nonnegative")
    if max_counterexamples < 1:
        raise PreconditionError("max_counterexamples must be at least 1")
    upper = _sweep_size(max_vertices, max_edges, state_budget)
    if upper > state_budget:
        raise BoundsTooLargeError(
            "sweep of at least %d states exceeds the budget of %d" % (upper, state_budget)
        )
    successors = _SUCCESSORS[variant]
    intern = engine.intern
    zsys = NumberSystem.Z
    # No edge touches vertex span, so a token parked there blocks nothing
    # and the other token's Left successors are exactly its slides.  The
    # slide rule treats both tokens alike: one row per vertex serves both.
    span = max(max_vertices, 1)
    # edge tuple -> board id, given the first time the sweep meets it
    boards: dict = {}
    # board id -> per vertex, the (destination, board id after) slides
    rows: list = []
    # board id -> game id of each swept placement, at lt * span + rt.  A
    # slide deletes at least the edge copy it traverses, so a successor
    # lies on a subgraph (bipartite too) with fewer edge copies.  Its
    # placement is swept on max(endpoint, token) + 1 vertices, at most n,
    # with fewer edges, and the loops below reach it before the state
    # itself: every successor's id is here by the time a state is interned.
    games: list = []
    # game id -> (value, value in the integer pair set, value an integer)
    verdicts: dict = {}
    counterexamples = []
    graphs_checked = 0
    states_checked = 0
    different_color = 0
    commuting_pairs = 0

    def moves(board, token):
        return rows[board][token]

    def report():
        return SimplicityReport(
            not counterexamples,
            tuple(counterexamples),
            graphs_checked,
            states_checked,
            different_color,
            commuting_pairs,
            len(boards),
            len(verdicts),
        )

    for n in range(2, max_vertices + 1):
        last = n - 1
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for m in range(0, max_edges + 1):
            # pairs are in order, so every combination is a sorted edge tuple
            for edges in itertools.combinations_with_replacement(pairs, m):
                labels = _bipartition(n, edges)
                if labels is None:
                    continue
                graphs_checked += 1
                board = boards.get(edges)
                if board is None:
                    board = boards[edges] = len(rows)
                    rows.append([
                        [(s[1], boards[s[0]]) for s in successors((edges, x, span))[0]]
                        for x in range(span)
                    ])
                    games.append([None] * (span * span))
                row = rows[board]
                placed = games[board]
                top = max(v for _, v in edges) if edges else 0
                for lt in range(n):
                    for rt in range(n):
                        # a placement that leaves the last vertex bare has
                        # the state of a board with fewer vertices, which
                        # was swept already
                        if lt == rt or max(top, lt, rt) != last:
                            continue
                        states_checked += 1
                        lefts = [s for s in row[lt] if s[0] != rt]
                        rights = [s for s in row[rt] if s[0] != lt]
                        game = placed[lt * span + rt] = intern(
                            [games[b][d * span + rt] for d, b in lefts],
                            [games[b][lt * span + d] for d, b in rights],
                        )
                        verdict = verdicts.get(game)
                        if verdict is None:
                            value = engine.classify_value(game)
                            verdict = verdicts[game] = (
                                value,
                                value.in_pair_set(zsys),
                                engine.as_number(game, zsys) is not None,
                            )
                        value, simple, integer = verdict
                        found = []
                        if not simple:
                            found.append(("value_not_simple", str(value)))
                        if _different_color(labels, lt, rt):
                            different_color += 1
                            if not integer:
                                found.append(("different_color_not_integer", str(value)))
                            commuting_pairs += len(lefts) * len(rights)
                            bad = _commuting_failure(moves, lt, rt, lefts, rights)
                            if bad is not None:
                                detail = "%r %r %s" % _move_pair(lt, rt, bad)
                                found.append(("non_commuting", detail))
                        if found:
                            state = YashimaState(MultiGraph(n, edges), lt, rt, variant)
                            counterexamples.extend(
                                SimplicityCounterexample(state, kind, detail)
                                for kind, detail in found
                            )
                            if len(counterexamples) >= max_counterexamples:
                                del counterexamples[max_counterexamples:]
                                return report()
    return report()
