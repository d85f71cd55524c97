"""Token games on multigraphs and their translation into positions.

Left and Right each own one token on a multigraph.  A move slides your own
token along an edge to the far endpoint, which must not hold the opponent's
token.  The variants differ in what the move destroys: the edge-removal
game deletes the traversed edge copy, the vertex-removal game deletes every
edge at the vertex the token just left (the vertex itself stays as an inert
label).  Under normal play the player without a move loses.

The public types (``MultiGraph``, ``YashimaState``, ``Move``) validate
their arguments and are the boundary for outside input, together with
``graphio``.  Behind them the solver (``YashimaSolver``) and the
exhaustive small-board verifier (``verify_bipartite_simplicity``) rest on
three invariants.

The packed state.  Inside, a state is one int, ``mask << 2S | left_token
<< S | right_token``.  A numbering gives each edge copy one bit of
``mask``, the copies of one vertex pair on consecutive bits (the pair's
block), and a pair's present copies always fill its block from the
lowest bit, so equal masks are equal edge multisets.  ``S`` is wide
enough for the highest edge endpoint and both tokens, and leaves the
vertex 2**S - 1 free of edges and tokens: it parks a token that must
block nothing.  The state holds no vertex count, so boards that differ
only in trailing isolated vertices share one state.

The single slide rule.  ``_successors`` alone decides where a token may
slide and which edges a slide deletes, with a few bit operations and no
public object built; everything else reads its slides from it, directly
or through ``_moves``.  A token slides along any present pair at its
vertex unless the pair ends on the other token, and parallel copies lead
to one successor.  The variant's deletion is the only switch: the
edge-removal slide clears the highest present copy of the slid pair, the
vertex-removal slide every copy at the departed vertex.

The sweep order.  A slide deletes at least the edge copy it traverses,
so the state graph has no cycles, and a successor lies on a subgraph
(bipartite when the board is) with fewer edge copies.  Its placement is
swept on max(endpoint, token) + 1 vertices, at most the state's own
count, with fewer edges.  The sweep visits boards by vertex count, then
by edge count, so every successor's game id is known before its state
is interned, and the sweep needs no solver walk.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .engine import Engine
from .errors import BoundsTooLargeError, InvalidStateError, PreconditionError
from .values import NumberSystem, ValueClass

# The most states one solve may visit, and the sweep's default state budget:
# a solve that would visit more raises BoundsTooLargeError.
STATE_BUDGET = 2_000_000


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
        """Sort key of ``legal_moves``: the variant, edges and tokens.

        The vertex count is deliberately absent, so boards differing only
        in trailing isolated vertices have equal keys.  The solver keys its
        memo on the packed state instead.
        """
        return (self.variant.value, self.graph.edges, self.left_token, self.right_token)


@dataclass(frozen=True)
class Move:
    """A move: slide along edge to destination (the far endpoint)."""

    edge: tuple[int, int]
    destination: int


# --- the packed state ----------------------------------------------------


class _Rule(NamedTuple):
    """The tables ``_successors`` reads, built once per numbering."""

    shift: int  # S, the width of a token field
    adjacent: dict  # vertex -> [(pair block << 2S, neighbour)], in pair order
    incident: dict  # vertex -> the blocks of every pair at it, << 2S
    tron: bool


def _rule(variant: Variant, blocks: dict, shift: int) -> _Rule:
    """The rule for a numbering: ``blocks`` maps each vertex pair, in
    sorted order, to the mask of its copies' bits.  The tables default to
    empty, so a token on a vertex no edge touches, however high, has no
    slides, and no table is sized by the vertex count."""
    adjacent = defaultdict(list)
    incident = defaultdict(int)
    for (u, v), block in blocks.items():
        block <<= 2 * shift
        adjacent[u].append((block, v))
        adjacent[v].append((block, u))
        incident[u] |= block
        incident[v] |= block
    return _Rule(shift, adjacent, incident, variant is Variant.TRON)


def _successors(state: int, rule: _Rule) -> list:
    """Left and right successors of a packed state, each in pair order,
    by the single slide rule."""
    shift, adjacent, incident, tron = rule
    low = (1 << shift) - 1
    lt = state >> shift & low
    rt = state & low
    out = []
    for token, other, at in ((lt, rt, shift), (rt, lt, 0)):
        slides = []
        for block, dest in adjacent[token]:
            copies = state & block
            if copies and dest != other:
                if tron:
                    gone = state & incident[token]
                else:
                    gone = 1 << (copies.bit_length() - 1)
                slides.append(state ^ gone ^ ((token ^ dest) << at))
        out.append(slides)
    return out


def _moves(board: int, token: int, rule: _Rule) -> list:
    """Each slide of a token on a board mask as ``(destination, mask
    after)``, in pair order: the token's Left successors with the other
    token parked on vertex 2**S - 1, so before the opponent's vertex is
    ruled out."""
    shift = rule.shift
    low = (1 << shift) - 1
    parked = (board << shift | token) << shift | low
    return [(s >> shift & low, s >> 2 * shift) for s in _successors(parked, rule)[0]]


def _edge_rule(variant: Variant, edges: tuple, shift: int) -> _Rule:
    """The rule for the numbering that gives copy i of ``edges`` bit i."""
    blocks: dict = {}
    for i, edge in enumerate(edges):
        blocks[edge] = blocks.get(edge, 0) | 1 << i
    return _rule(variant, blocks, shift)


def _packed(state: YashimaState) -> tuple:
    """The state's numbering key ``(variant, edges, S)`` and the state
    packed in it, every edge copy present."""
    edges = state.graph.edges
    lt, rt = state.left_token, state.right_token
    shift = (max(lt, rt, *(v for _, v in edges)) + 1).bit_length()
    full = (1 << len(edges)) - 1
    return (state.variant, edges, shift), (full << shift | lt) << shift | rt


def _edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def _slides(state: YashimaState, player: Player) -> dict:
    """Each distinct slide of the player's token, in edge order, as
    ``Move -> (edges, left token, right token)`` after the slide."""
    key, root = _packed(state)
    rule = _edge_rule(*key)
    lt, rt = state.left_token, state.right_token
    left = player is Player.LEFT
    token, other = (lt, rt) if left else (rt, lt)
    out = {}
    for dest, mask in _moves(root >> 2 * rule.shift, token, rule):
        if dest != other:
            after = tuple(e for i, e in enumerate(key[1]) if mask >> i & 1)
            out[Move(_edge(token, dest), dest)] = (after, dest, rt) if left else (after, lt, dest)
    return out


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


def _join(code: tuple, u: int, v: int) -> tuple | None:
    """A bipartite board's labels after one more edge copy between u and v.

    A label is one int per vertex, ``2 * component + color``.  The labels
    come back unchanged when u and v already have opposite colors in one
    component, and None when they share a label, since the copy then
    closes an odd cycle.  Otherwise v's component joins u's, its colors
    flipped as needed so v gets the color opposite u's.
    """
    a, b = code[u], code[v]
    flip = a ^ b
    if flip == 1:
        return code
    if not flip:
        return None
    # xor with a ^ b ^ 1 moves each label of v's component to u's
    # component and gives v the color opposite u's
    flip ^= 1
    joined = b >> 1
    return tuple(c ^ flip if c >> 1 == joined else c for c in code)


def _different_color(code: tuple | dict, lt: int, rt: int) -> bool:
    """Whether the tokens' vertices are in different components or have
    opposite colors: whether their labels differ."""
    return code[lt] != code[rt]


def color_class(state: YashimaState) -> ColorClass:
    """Token coloring: different components or opposite classes both count
    as different-color; any odd cycle anywhere makes the board unusable.

    Only the vertices that edges touch are labelled, with ``_join``'s
    labels, in one walk per component, named by the vertex the walk
    starts at.  Any other vertex is isolated, so a token there has a
    component of its own.
    """
    adjacent = defaultdict(list)
    for u, v in state.graph.edges:
        adjacent[u].append(v)
        adjacent[v].append(u)
    code: dict = {}
    for root in adjacent:
        if root in code:
            continue
        code[root] = 2 * root
        stack = [root]
        while stack:
            u = stack.pop()
            flipped = code[u] ^ 1
            for v in adjacent[u]:
                got = code.get(v)
                if got is None:
                    code[v] = flipped
                    stack.append(v)
                elif got != flipped:
                    return ColorClass.NOT_BIPARTITE
    lt, rt = state.left_token, state.right_token
    if lt not in code or rt not in code or _different_color(code, lt, rt):
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

    Game ids are memoized on the packed state, one memo per numbering
    ``(variant, root edge tuple, S)``: roots on the same edges with tokens
    that fit the same S share walk work, and a root on other edges walks
    its own states, even those another root's walk has visited.  Game ids
    are still shared by every root, since the engine hash-conses them.
    """

    def __init__(self, engine: Engine):
        self.engine = engine
        # numbering key -> (its rule, game id per packed state)
        self._memos: dict = {}

    def _numbered(self, state: YashimaState) -> tuple:
        """The rule and memo of the state's numbering, and its packed root."""
        key, root = _packed(state)
        entry = self._memos.get(key)
        if entry is None:
            entry = self._memos[key] = (_edge_rule(*key), {})
        return entry, root

    def to_game(self, state: YashimaState) -> int:
        (rule, memo), root = self._numbered(state)
        return self._walk(root, rule, memo)

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
        (rule, memo), root = self._numbered(state)
        sizes: dict = {}
        game = self._walk(root, rule, memo, sizes)
        return SolveStats(
            expanded_nodes=sizes[root],
            memo_entries=len(sizes),
            value=self.engine.classify_value(game),
        )

    def _walk(self, root: int, rule: _Rule, memo: dict, sizes: dict | None = None) -> int:
        """Game id of a packed state, by an iterative post-order walk.

        Without ``sizes`` the walk stops at states the memo already holds.
        With it, the walk visits every state reachable from the root once,
        memo or not, and records each one's tree size in ``sizes``; its
        length is then the reachable count.  Each visited state's
        successors are generated exactly once either way.

        The first pop of a state that is not done expands it: the
        ``[lefts, rights]`` list that ``_successors`` returns, with the
        state appended, is pushed as the state's marker, then every
        successor, and popping the marker finishes the state from it.
        That is safe because the state graph has no cycles: no state's
        successors include a state whose marker is still on the stack, so
        each state is expanded once and the markers on the stack are the
        open path.  ``opened`` counts them; expanding a state when
        ``STATE_BUDGET`` states are already done or open raises
        ``BoundsTooLargeError``.
        """
        intern = self.engine.intern
        budget = STATE_BUDGET
        game = memo.__getitem__
        done = memo if sizes is None else sizes
        size = None if sizes is None else sizes.__getitem__
        stack = [root]
        opened = 0
        while stack:
            top = stack.pop()
            if type(top) is int:
                if top not in done:
                    if len(done) + opened >= budget:
                        raise BoundsTooLargeError("solve visits more than %d states" % budget)
                    opened += 1
                    marker = _successors(top, rule)
                    stack.append(marker)
                    stack += marker[0]
                    stack += marker[1]
                    marker.append(top)
                continue
            opened -= 1
            lefts, rights, state = top
            if size is not None:
                sizes[state] = 1 + sum(map(size, lefts)) + sum(map(size, rights))
                if state in memo:
                    continue
            memo[state] = intern(map(game, lefts), map(game, rights))
        return memo[root]


def _commuting_failure(moves, lt, rt, lefts, rights):
    """First (Left slide, Right slide, reason) that fails to commute.

    A slide is a ``(destination, board after the slide)`` pair, and
    ``moves(board, token)`` lists every slide of a token on a board that
    way, in edge order, before the opponent's vertex is ruled out: a row
    of the sweep, or ``_moves`` on the state's own numbering.
    ``lefts`` and ``rights`` are the two tokens' slides on the state in
    the same form, so the check itself skips a slide onto the opponent.
    Right's slide to d is still legal after Left's slide exactly when it
    is a slide on Left's board that does not end on Left's new vertex,
    and the other way round.  So each board after two slides is read from
    ``dict()`` of the row of the first slide's board, keyed by
    destination, and one comparison of the two destinations rules out a
    shared vertex for both orders.  Both orders leave the tokens on the
    two destinations, so they agree when they reach one board.
    """
    # each legal Right slide with the Left slides after it, by destination
    after_rights = [
        (right, dict(moves(right[1], lt))) for right in rights if right[0] != lt
    ]
    for left in lefts:
        dl, bl = left
        if dl == rt:
            continue
        after_left = dict(moves(bl, rt))
        for right, after_right in after_rights:
            dr = right[0]
            left_first = after_left.get(dr)
            if left_first is None or dr == dl:
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
    key, root = _packed(state)
    rule = _edge_rule(*key)
    lt, rt = state.left_token, state.right_token

    def moves(board, token):
        return _moves(board, token, rule)

    mask = root >> 2 * rule.shift
    bad = _commuting_failure(moves, lt, rt, moves(mask, lt), moves(mask, rt))
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


def _sweep_size(max_vertices: int, max_edges: int, budget: int) -> tuple[int, int]:
    """Token placements and 64-bit board mask words on every multigraph
    the sweep visits, counted up to the first vertex count where either
    running total exceeds the budget.  Every board's mask holds max_edges
    bits per vertex pair of the whole span, so many edge copies make few
    boards but long masks, whose cost the words count."""
    span = max(max_vertices, 1)
    words = -(-(span * (span - 1) // 2 * max_edges) // 64)
    states = masks = 0
    for n in range(2, max_vertices + 1):
        pairs = n * (n - 1) // 2
        # multisets of at most max_edges copies over the vertex pairs
        graphs = math.comb(pairs + max_edges, max_edges)
        states += graphs * n * (n - 1)
        masks += graphs * words
        if max(states, masks) > budget:
            break
    return states, masks


def verify_bipartite_simplicity(
    engine: Engine,
    max_vertices: int = 5,
    max_edges: int = 6,
    variant: Variant = Variant.YASHIMA,
    state_budget: int = STATE_BUDGET,
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

    Every swept state is interned; the report counts the distinct boards
    and the distinct games.  The value laws are decided once per game id,
    and every state is checked against that verdict: states sharing a game
    each count, and each one that fails is reported with its own state.
    The sweep stops once it holds max_counterexamples of them and reports
    exactly that many.  Negative bounds and a max_counterexamples below 1
    raise ``PreconditionError``.  A sweep of more than state_budget states,
    or whose board masks take more than state_budget 64-bit words in all,
    raises ``BoundsTooLargeError`` before it starts.
    """
    if max_vertices < 0 or max_edges < 0:
        raise PreconditionError("max_vertices and max_edges must be nonnegative")
    if state_budget < 0:
        raise PreconditionError("state_budget must be nonnegative")
    if max_counterexamples < 1:
        raise PreconditionError("max_counterexamples must be at least 1")
    states, words = _sweep_size(max_vertices, max_edges, state_budget)
    if max(states, words) > state_budget:
        raise BoundsTooLargeError(
            "sweep of at least %d states and %d mask words exceeds the budget of %d"
            % (states, words, state_budget)
        )
    intern = engine.intern
    zsys = NumberSystem.Z
    # One numbering serves the whole sweep: each pair of the span vertices
    # gets max_edges bits, so a board is its mask, and S is
    # span.bit_length().  The slide rule treats both tokens alike: one row
    # per vertex serves both.
    span = max(max_vertices, 1)
    blocks = {
        pair: ((1 << max_edges) - 1) << (k * max_edges)
        for k, pair in enumerate(itertools.combinations(range(span), 2))
    }
    rule = _rule(variant, blocks, span.bit_length())
    shift = rule.shift
    double = 2 * shift
    # the parking vertex, 2**S - 1, is also the mask of a token field
    low = (1 << shift) - 1
    # board mask -> board id, given the first time the sweep meets it
    boards: dict = {}
    # the slide rows of every board in one flat list: at board * span +
    # vertex, the tuple of that vertex's (destination, board id after)
    # slides on the board.  They are read once, when the board gets its
    # id, off the Left successors of the parked state: the vertex's token
    # on the board, the other token on 2**S - 1, each mask after mapped
    # straight to its board id.  A tuple has no spare slots, the collector
    # stops tracking tuples of ints, and every empty row is the shared ().
    rows: list = []
    # board id -> one list of the game ids of its swept placements, at
    # lt * span + rt.  By the sweep order, every successor's id is here by
    # the time a state is interned.
    games: list = []
    # game id -> (value, value in the integer pair set, value an integer)
    verdicts: dict = {}
    counterexamples = []
    graphs_checked = 0
    states_checked = 0
    different_color = 0
    commuting_pairs = 0

    def moves(board, token):
        return rows[board * span + token]

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
        # per pair, its block and the block's lowest bit
        slots = [(blocks[pair], blocks[pair] & -blocks[pair]) for pair in pairs]
        # The placements to sweep on a board, lt outer and rt inner: all of
        # them once an edge reaches the last vertex, else those with a token
        # there.  A placement that leaves the last vertex bare has the
        # state of a board with fewer vertices, which was swept already.
        every = [(lt, rt) for lt in range(n) for rt in range(n) if lt != rt]
        touching = [(lt, rt) for lt, rt in every if last in (lt, rt)]
        # Boards as (edges, mask, index of the last pair, highest endpoint,
        # labels).  The boards with m edge copies come in the order of
        # combinations_with_replacement: each kept board of m - 1 copies
        # takes every pair from its last one on, so every edge tuple is
        # sorted, and the new copy takes the lowest free bit of its pair's
        # block.  The labels are joined along (None for an odd cycle), and
        # an odd cycle stays in every supergraph, so only bipartite boards
        # are kept for the next copy.
        kept = [((), 0, 0, 0, tuple(range(0, 2 * n, 2)))]
        for m in range(0, max_edges + 1):
            level = kept
            if m:
                level = (
                    (
                        edges + (pairs[k],),
                        mask | ((mask & slots[k][0]) + slots[k][1]),
                        k,
                        max(top, pairs[k][1]),
                        _join(code, *pairs[k]),
                    )
                    for edges, mask, first, top, code in kept
                    for k in range(first, len(pairs))
                )
            kept = []
            for grown in level:
                edges, mask, _, top, code = grown
                if code is None:
                    continue
                if m < max_edges:
                    kept.append(grown)
                graphs_checked += 1
                board = boards.get(mask)
                if board is None:
                    board = boards[mask] = len(games)
                    # tuple([...]) builds faster than tuple() of a generator
                    rows += [
                        tuple([
                            (s >> shift & low, boards[s >> double])
                            for s in _successors((mask << shift | x) << shift | low, rule)[0]
                        ])
                        for x in range(span)
                    ]
                    games.append([None] * (span * span))
                base = board * span
                placed = games[board]
                for lt, rt in every if top == last else touching:
                    states_checked += 1
                    lrow = rows[base + lt]
                    rrow = rows[base + rt]
                    left_ids = [games[b][d * span + rt] for d, b in lrow if d != rt]
                    right_ids = [games[b][lt * span + d] for d, b in rrow if d != lt]
                    # intern finds most states from these lists as given
                    game = placed[lt * span + rt] = intern(left_ids, right_ids)
                    verdict = verdicts.get(game)
                    if verdict is None:
                        value = engine.classify_value(game)
                        verdict = verdicts[game] = (
                            value,
                            value.in_pair_set(zsys),
                            engine.as_number(game, zsys) is not None,
                        )
                    value, simple, integer = verdict
                    bad = None
                    different = _different_color(code, lt, rt)
                    if different:
                        different_color += 1
                        if left_ids and right_ids:
                            # the pairs and the slides themselves, only
                            # where both move: the product is 0 elsewhere
                            commuting_pairs += len(left_ids) * len(right_ids)
                            bad = _commuting_failure(moves, lt, rt, lrow, rrow)
                    if simple and (not different or integer) and bad is None:
                        continue
                    found = []
                    if not simple:
                        found.append(("value_not_simple", str(value)))
                    if different and not integer:
                        found.append(("different_color_not_integer", str(value)))
                    if bad is not None:
                        detail = "%r %r %s" % _move_pair(lt, rt, bad)
                        found.append(("non_commuting", detail))
                    state = YashimaState(MultiGraph(n, edges), lt, rt, variant)
                    counterexamples.extend(
                        SimplicityCounterexample(state, kind, detail)
                        for kind, detail in found
                    )
                    if len(counterexamples) >= max_counterexamples:
                        del counterexamples[max_counterexamples:]
                        return report()
    return report()
