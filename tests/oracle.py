"""Brute-force reference implementations used only by the test suite.

Everything here is deliberately independent of the package under test:
games are nested frozensets, hash-consed so that equal structures are one
object, order comparisons go through explicit difference games and the
normal-play winner recursion, and the token-sliding rules are re-derived
from scratch.  Slow is fine; disagreement with the engine is the whole
point of having this file.
"""

from __future__ import annotations

from fractions import Fraction


class OGame:
    """A game as two frozensets of subgames, hashed structurally.

    Construction is hash-consed: building a structure that already exists
    returns the existing instance, so equal games are the same object and
    ``==`` is the default identity test.  Each construction looks its key
    up once, and the key's frozensets compare their members by identity,
    so building a game costs time linear in its distinct subgames, however
    many paths lead to them, and comparing two costs one identity test.
    """

    __slots__ = ("left", "right", "_hash")

    def __new__(cls, left=(), right=()):
        key = (frozenset(left), frozenset(right))
        got = _INSTANCES.get(key)
        if got is None:
            got = object.__new__(cls)
            got.left, got.right = key
            got._hash = hash(key)
            _INSTANCES[key] = got
        return got

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "OGame(%r, %r)" % (sorted(map(repr, self.left)), sorted(map(repr, self.right)))


_INSTANCES: dict = {}

ZERO = OGame()
STAR = OGame([ZERO], [ZERO])

_neg_memo: dict = {}
_add_memo: dict = {}
_win_memo: dict = {}
_birthday_memo: dict = {}
_numbers_memo: dict = {}
_stop_memo: dict = {}


def neg(g: OGame) -> OGame:
    cached = _neg_memo.get(g)
    if cached is None:
        cached = OGame(
            [neg(r) for r in g.right], [neg(l) for l in g.left]
        )
        _neg_memo[g] = cached
    return cached


def add(g: OGame, h: OGame) -> OGame:
    key = (g, h)
    cached = _add_memo.get(key)
    if cached is None:
        left = [add(gl, h) for gl in g.left] + [add(g, hl) for hl in h.left]
        right = [add(gr, h) for gr in g.right] + [add(g, hr) for hr in h.right]
        cached = OGame(left, right)
        _add_memo[key] = cached
    return cached


def wins_moving_first(g: OGame, player: str) -> bool:
    """Normal play: the mover wins iff some move leaves the opponent lost."""
    key = (g, player)
    cached = _win_memo.get(key)
    if cached is None:
        options = g.left if player == "L" else g.right
        other = "R" if player == "L" else "L"
        cached = any(not wins_moving_first(o, other) for o in options)
        _win_memo[key] = cached
    return cached


def outcome(g: OGame) -> str:
    """One of "L", "R", "P", "N"."""
    lwins = wins_moving_first(g, "L")
    rwins = wins_moving_first(g, "R")
    if lwins and rwins:
        return "N"
    if lwins:
        return "L"
    if rwins:
        return "R"
    return "P"


def leq(g: OGame, h: OGame) -> bool:
    """g <= h iff Left moving first cannot win the difference g - h."""
    return not wins_moving_first(add(g, neg(h)), "L")


def eq(g: OGame, h: OGame) -> bool:
    return leq(g, h) and leq(h, g)


def compare(g: OGame, h: OGame) -> str:
    """One of "<", ">", "=", "||"."""
    ab = leq(g, h)
    ba = leq(h, g)
    if ab and ba:
        return "="
    if ab:
        return "<"
    if ba:
        return ">"
    return "||"


def integer(m: int) -> OGame:
    if m == 0:
        return ZERO
    if m > 0:
        return OGame([integer(m - 1)], [])
    return OGame([], [integer(m + 1)])


def dyadic(numerator: int, exponent: int) -> OGame:
    """The canonical tree of numerator / 2**exponent."""
    while exponent > 0 and numerator % 2 == 0:
        numerator //= 2
        exponent -= 1
    if exponent == 0:
        return integer(numerator)
    return OGame(
        [dyadic((numerator - 1) // 2, exponent - 1)],
        [dyadic((numerator + 1) // 2, exponent - 1)],
    )


def birthday(g: OGame) -> int:
    """The day a form is born: 0 for {|}, else one past its latest option."""
    cached = _birthday_memo.get(g)
    if cached is None:
        cached = 1 + max(map(birthday, g.left | g.right), default=-1)
        _birthday_memo[g] = cached
    return cached


def numbers_born_by(day: int, system: str = "D") -> list:
    """Every number of the system ("Z" or "D") whose tree is born by day,
    as (Fraction, tree) pairs, found by building candidate trees with at
    most ``day`` halvings and magnitude at most ``day``."""
    key = (day, system)
    cached = _numbers_memo.get(key)
    if cached is None:
        halvings = 0 if system == "Z" else day
        cached = []
        for e in range(halvings + 1):
            for n in range(-day << e, (day << e) + 1):
                if e == 0 or n % 2:
                    tree = dyadic(n, e)
                    if birthday(tree) <= day:
                        cached.append((Fraction(n, 1 << e), tree))
        _numbers_memo[key] = cached
    return cached


def number_value(g: OGame, system: str = "D"):
    """The number of the system equal to g, decided by ``eq`` against every
    number tree born by g's birthday, or None.  A form equal to a number
    is born no earlier than that number's tree, so none is missed."""
    for value, tree in numbers_born_by(birthday(g), system):
        if eq(g, tree):
            return value
    return None


def stop(g: OGame, side: str, system: str = "D"):
    """The Left ("L") or Right ("R") stop of g in the system, as a Fraction.

    A member of the system is its own stop; otherwise Left's stop is the
    largest Right stop among g's Left options, and Right's the smallest
    Left stop among its Right options.
    """
    key = (g, side, system)
    cached = _stop_memo.get(key)
    if cached is None:
        cached = number_value(g, system)
        if cached is None:
            if side == "L":
                cached = max(stop(x, "R", system) for x in g.left)
            else:
                cached = min(stop(x, "L", system) for x in g.right)
        _stop_memo[key] = cached
    return cached


def guides(g: OGame, side: str, system: str = "D") -> frozenset:
    """The Left ("L") or Right ("R") guide options of g in the system.

    Empty for a member of the system; otherwise the options worth the
    side's stop, or, when no option is, those whose opponent stop is it.
    """
    if number_value(g, system) is not None:
        return frozenset()
    target = stop(g, side, system)
    options, reply = (g.left, "R") if side == "L" else (g.right, "L")
    worth = frozenset(x for x in options if number_value(x, system) == target)
    return worth or frozenset(x for x in options if stop(x, reply, system) == target)


def less_or_fuzzy(g: OGame, h: OGame) -> bool:
    return compare(g, h) in ("<", "||")


# the day bound of the number search behind "dz" and "dd"
FIT_SEARCH_DAY = 5


def simplest_fit(los, his, system: str = "D"):
    """The earliest-born number of the system, born by ``FIT_SEARCH_DAY``,
    that is greater than or fuzzy with every lo and less than or fuzzy
    with every hi, as a Fraction; None when none of them fits."""
    fits = [
        (birthday(x), value)
        for value, x in numbers_born_by(FIT_SEARCH_DAY, system)
        if all(less_or_fuzzy(lo, x) for lo in los)
        and all(less_or_fuzzy(x, hi) for hi in his)
    ]
    return min(fits, default=(None, None))[1]


def tag_system(tag: str) -> str:
    """The number system a certificate tag speaks about."""
    return "Z" if tag in ("dz", "d", "dleq", "dl-lfuz", "dr-lfuz") else "D"


def pair_passes(tag: str, gl: OGame, gr: OGame) -> bool:
    """Whether the guide pair (gl, gr) passes the test of ``tag``.

    dz/dd: some number of the system born by ``FIT_SEARCH_DAY`` is greater
    than or fuzzy with gl and less than or fuzzy with gr (``simplest_fit``).  d: a Right
    option of gl is also a Left option of gr.  dleq: a Right option of gl
    is <= a Left option of gr.  dl-lfuz: a Right option of gl is less than
    or fuzzy with gr.  dr-lfuz: gl is less than or fuzzy with a Left option
    of gr.  dl-leq: a Right option of gl is <= gr.  dr-leq: gl is <= a
    Left option of gr.  tri: gl is less than or fuzzy with gr.
    """
    lf = less_or_fuzzy
    if tag in ("dz", "dd"):
        return simplest_fit((gl,), (gr,), tag_system(tag)) is not None
    if tag == "d":
        return bool(gl.right & gr.left)
    if tag == "dleq":
        return any(leq(a, b) for a in gl.right for b in gr.left)
    if tag == "dl-lfuz":
        return any(lf(a, gr) for a in gl.right)
    if tag == "dr-lfuz":
        return any(lf(gl, b) for b in gr.left)
    if tag == "dl-leq":
        return any(leq(a, gr) for a in gl.right)
    if tag == "dr-leq":
        return any(leq(gl, b) for b in gr.left)
    if tag == "tri":
        return lf(gl, gr)
    raise ValueError("unknown tag %r" % (tag,))


def has_property(g: OGame, tag: str) -> bool:
    """Whether g has the certificate property named by ``tag``: g is a
    member of the tag's system, or some pair of its guides passes the
    tag's test (``pair_passes``)."""
    system = tag_system(tag)
    if number_value(g, system) is not None:
        return True
    return any(
        pair_passes(tag, gl, gr)
        for gl in guides(g, "L", system)
        for gr in guides(g, "R", system)
    )


# --- token sliding, re-derived ------------------------------------------
#
# A state is (edges, mover_vertex, other_vertex) with edges a sorted tuple
# of sorted pairs (a multiset).  Moving slides the token along one edge
# copy to an unoccupied endpoint; the slide deletes either that edge copy
# or, in the cut-vertex variant, every edge at the departed vertex.


def slide_successors(edges, mover, other, variant):
    seen = set()
    out = []
    for u, v in set(edges):
        if u == mover and v != other:
            dest = v
        elif v == mover and u != other:
            dest = u
        else:
            continue
        if variant == "tron":
            rest = tuple(e for e in edges if mover not in e)
        else:
            trimmed = list(edges)
            trimmed.remove((u, v) if u < v else (v, u))
            rest = tuple(trimmed)
        state = (rest, dest)
        if state not in seen:
            seen.add(state)
            out.append(state)
    return out


def slide_game(edges, left_at, right_at, variant="yashima", _memo=None):
    """The game tree of a token-sliding position, as an OGame."""
    if _memo is None:
        _memo = {}
    key = (edges, left_at, right_at)
    cached = _memo.get(key)
    if cached is None:
        lefts = [
            slide_game(rest, dest, right_at, variant, _memo)
            for rest, dest in slide_successors(edges, left_at, right_at, variant)
        ]
        rights = [
            slide_game(rest, left_at, dest, variant, _memo)
            for rest, dest in slide_successors(edges, right_at, left_at, variant)
        ]
        cached = OGame(lefts, rights)
        _memo[key] = cached
    return cached


def slide_state_count(edges, left_at, right_at, variant="yashima"):
    """Distinct positions reachable from the start, the start included."""
    start = (edges, left_at, right_at)
    seen = {start}
    frontier = [start]
    while frontier:
        es, l, r = frontier.pop()
        nexts = [
            (rest, dest, r) for rest, dest in slide_successors(es, l, r, variant)
        ] + [
            (rest, l, dest) for rest, dest in slide_successors(es, r, l, variant)
        ]
        for state in nexts:
            if state not in seen:
                seen.add(state)
                frontier.append(state)
    return len(seen)
