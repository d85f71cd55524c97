"""Interned-game kernel: the hot recursions behind every engine operation.

Positions live in a GameStore as append-only nodes addressed by integer id.
A node is a pair of id tuples (Left options, Right options), deduplicated
and sorted, so structurally identical game trees share a single id and tree
isomorphism checks reduce to id equality.  Option ids always point at
earlier nodes, which makes the option graph acyclic by construction, and
lets ``intern`` record two facts of a new node from its options' entries:
its birthday and the number its shape spells, if any.  Such a number tree
is canonical from birth.  ``birthday`` and ``tree_number`` read them.

Everything else expensive is memoized against the owning store:

* ``leq`` and ``compare`` drive the partial order and with it outcomes,
  domination and reversibility checks, through one order recursion,
  ``_scan``,
* ``canonical`` rewrites a node into the unique simplest equal-valued form
  bottom-up,
* ``number_position`` builds number trees on an explicit stack, memoized
  by the normalized pair,
* ``stop_guides`` is one recursion for either player in either the
  integer or the dyadic number system: the optimal stop and the player's
  options that realize it, found in one pass over the options.

The rules that take a ``side``, 0 for Left and 1 for Right, are written
once for both players: ``stop_guides``, ``_dominated`` and
``_reversible``, where Right's rule is Left's with the order reversed.
Three are written out per side: ``_canonical_of_numbers``' option loops,
``number_position``'s neighbour blocks and ``dy_simplest``'s integer
branches.  The mirrored loops stay because one helper for both bounds
cost the ladder solve 3-4%.

Dyadic rationals are plain ``(numerator, exponent)`` int pairs meaning
``numerator / 2**exponent``, normalized so the exponent is zero or the
numerator is odd.  Using bare tuples keeps this module self-contained and
cheap; the typed wrapper lives one layer up.
"""

from .errors import MalformedGameError, PreconditionError

REL_LESS = 0
REL_GREATER = 1
REL_EQUAL = 2
REL_FUZZY = 3


def dy_normalize(num, exp):
    """Reduce num / 2**exp so exp == 0 or num is odd."""
    if exp < 0:
        raise PreconditionError("exponent must be nonnegative")
    if num == 0:
        return 0, 0
    while exp > 0 and num % 2 == 0:
        num //= 2
        exp -= 1
    return num, exp


def dy_lt(a, b):
    return a[0] << b[1] < b[0] << a[1]


def dy_simplest(lo, hi):
    """The simplest dyadic strictly between lo and hi, normalized.

    Either bound may be None for no bound, and lo < hi.  When an integer
    fits, the answer is the one nearest 0.  Otherwise both bounds lie in
    one unit interval.  Scaled to integers L < H on the grid one finer
    than both bounds' exponents, the interval holds L + 1 .. H - 1, and
    the simplest of them is the one with the most trailing zeros: H - 1
    with its bits cleared below the highest bit in which L and H - 1
    differ.  That costs a few operations on the bounds' bits, however
    many halvings apart they are.
    """
    if lo is not None and lo[0] >= 0:
        n = (lo[0] >> lo[1]) + 1  # the least integer above lo
        if hi is None or n << hi[1] < hi[0]:
            return n, 0
    elif hi is not None and hi[0] <= 0:
        n = -(-hi[0] >> hi[1]) - 1  # the greatest integer below hi
        if lo is None or lo[0] < n << lo[1]:
            return n, 0
    else:
        return 0, 0
    e = max(lo[1], hi[1]) + 1
    low = lo[0] << (e - lo[1])
    top = (hi[0] << (e - hi[1])) - 1
    # top's bit k is set and low's is clear, since low < top
    k = (low ^ top).bit_length() - 1
    return top >> k, e - k


class GameStore:
    """Append-only interner plus memo tables for one universe of positions."""

    __slots__ = (
        "_nodes",
        "_index",
        "_leq",
        "_canonical",
        "_birthday",
        "_number",
        "_stops",
        "_numpos",
        "zero",
    )

    def __init__(self):
        self._nodes = []
        self._index = {}
        self._leq = []  # per node g: a dict h -> whether g <= h
        self._canonical = {}
        self._birthday = []  # per node: 1 + the largest option birthday, or 0
        self._number = []  # per node: the pair its shape spells, or None
        self._stops = ({}, {})  # per side: (g, integer_system) -> (stop, guides)
        self._numpos = {}
        self.zero = self.intern((), ())

    def __len__(self):
        return len(self._nodes)

    def stats(self):
        """Node count, alias count and the entry count of each memo table.

        ``aliases`` counts the alias keys of ``intern``'s index.
        """
        return {
            "nodes": len(self._nodes),
            "aliases": len(self._index) - len(self._nodes),
            "leq": sum(len(row) for row in self._leq),
            "canonical": len(self._canonical),
            "left_stops": len(self._stops[0]),
            "right_stops": len(self._stops[1]),
            "number_positions": len(self._numpos),
        }

    def intern(self, left, right):
        """Return the id for the position with these option sets.

        The option lists are first looked up as given, in their order and
        with their repeats: ``_index`` holds each node's normal key (sorted
        and distinct) and the given keys recorded as its aliases, so a hit
        is the answer.  On a miss they are normalized; a known normal key
        records the given key as its alias, since callers that build their
        lists the same way ask again with the same lists.  A new node
        stores only its normal key, and a key holding an option id that
        was never interned raises before anything is stored.

        A new node's birthday and shape number are recorded here, once,
        from its options' entries, which are older.  A node whose shape
        spells a number is that number's canonical tree, so it is also
        registered as canonical.
        """
        index = self._index
        given = (tuple(left), tuple(right))
        got = index.get(given)
        if got is not None:
            return got
        key = (tuple(sorted(set(given[0]))), tuple(sorted(set(given[1]))))
        got = index.get(key)
        if got is not None:
            index[given] = got
            return got
        new_id = len(self._nodes)
        birthday = self._birthday
        day = 0
        for side in key:
            for opt in side:
                if not 0 <= opt < new_id:
                    raise MalformedGameError(
                        "option %r is not a previously interned position" % (opt,)
                    )
                if birthday[opt] >= day:
                    day = birthday[opt] + 1
        number = self._number
        value = None
        left, right = key
        if not (left and right):
            options = left or right
            if not options:
                value = (0, 0)
            elif len(options) == 1:
                a = number[options[0]]
                step = 1 if left else -1
                if a is not None and a[1] == 0 and a[0] * step >= 0:
                    value = (a[0] + step, 0)
        elif len(left) == 1 and len(right) == 1:
            a = number[left[0]]
            b = number[right[0]]
            if a is not None and b is not None:
                # on the finer grid of the two, neighbours are one apart
                e = max(a[1], b[1])
                lo = a[0] << (e - a[1])
                if b[0] << (e - b[1]) == lo + 1:
                    value = (2 * lo + 1, e + 1)
        self._nodes.append(key)
        index[key] = new_id
        self._leq.append({})
        birthday.append(day)
        number.append(value)
        if value is not None:
            self._canonical[new_id] = new_id
        return new_id

    def node(self, g):
        return self._nodes[g]

    def leq(self, g, h):
        """Whether g <= h."""
        got = self._leq[g].get(h)
        if got is None:
            return self._scan(g, h)
        return got

    def _scan(self, g, h):
        # the one order recursion and the order memo's only writer: g <= h
        # fails exactly when some gL >= h or some hR <= g.  Each option's
        # answer is read from its row first and stored there on a miss, so
        # the recursion only runs for pairs never computed.  Those option
        # pairs, which a recursion reads again, are all the memo ever
        # holds: the pair asked of ``leq`` or ``compare`` is scanned without
        # storing it, which keeps an all-pairs workload from filling the
        # memo with pairs never read again, while asking again costs one
        # row read per option
        rows = self._leq
        nodes = self._nodes
        hrow = rows[h]
        for gl in nodes[g][0]:
            got = hrow.get(gl)
            if got is None:
                got = hrow[gl] = self._scan(h, gl)
            if got:
                return False
        for hr in nodes[h][1]:
            got = rows[hr].get(g)
            if got is None:
                got = rows[hr][g] = self._scan(hr, g)
            if got:
                return False
        return True

    def compare(self, g, h):
        """The relation of g to h: less, greater, equal or fuzzy, each
        direction read as in ``leq``."""
        rows = self._leq
        a = rows[g].get(h)
        if a is None:
            a = self._scan(g, h)
        b = rows[h].get(g)
        if b is None:
            b = self._scan(h, g)
        if a:
            return REL_EQUAL if b else REL_LESS
        return REL_GREATER if b else REL_FUZZY

    def birthday(self, g):
        return self._birthday[g]

    def _dominated(self, side, x, options):
        # an option is dropped when another is at least as good for its
        # player; ties go to the smaller id so one of each cluster survives
        leq = self.leq
        for other in options:
            if other != x:
                worse, better = (x, other) if side == 0 else (other, x)
                if leq(worse, better) and (not leq(better, worse) or other < x):
                    return True
        return False

    def remove_dominated(self, g):
        """Drop dominated options from both sides; value is unchanged."""
        left, right = self._nodes[g]
        dominated = self._dominated
        kept_left = tuple(x for x in left if not dominated(0, x, left))
        kept_right = tuple(x for x in right if not dominated(1, x, right))
        return self.intern(kept_left, kept_right)

    def _reversible(self, sides, cur):
        # the first (side, option, reply), Left first, whose reply is at
        # least as good for the player as cur: <= cur for Left, >= for Right
        nodes = self._nodes
        leq = self.leq
        for side in (0, 1):
            for x in sides[side]:
                for reply in nodes[x][1 - side]:
                    if leq(reply, cur) if side == 0 else leq(cur, reply):
                        return side, x, reply
        return None

    def bypass_reversible(self, g):
        """Replace reversible options until none remain; value is unchanged.

        A Left option gl reverses through any of its Right options glr with
        glr <= the current position; gl is then replaced by glr's Left
        options (possibly none).  Right options dually.  The comparison
        anchor is re-interned after every replacement because each rewrite
        changes the form while preserving the value.
        """
        sides = [list(options) for options in self._nodes[g]]
        while True:
            cur = self.intern(*sides)
            found = self._reversible(sides, cur)
            if found is None:
                return cur
            side, x, reply = found
            rest = set(sides[side])
            rest.discard(x)
            rest.update(self._nodes[reply][side])
            sides[side] = sorted(rest)

    def canonical(self, g):
        """The unique simplest position equal to g.

        Canonicalizes the options first and asks ``_canonical_of_numbers``
        for a form read off their values; g and that answer are memoized.
        Failing that, it removes dominated options, bypasses reversible
        ones and, if the bypass changed the form, removes dominated options
        once more.  That is enough: one removal pass drops every dominated
        option, and a removal changes neither the value nor any remaining
        option, so it makes none reversible.  Every intermediate form has
        the same value as g, so all of them share the final answer in the
        memo table.
        """
        memo = self._canonical
        got = memo.get(g)
        if got is not None:
            return got
        left0, right0 = self._nodes[g]
        left = {self.canonical(x) for x in left0}
        right = {self.canonical(x) for x in right0}
        result = self._canonical_of_numbers(left, right)
        if result is not None:
            memo[g] = memo[result] = result
            return result
        stages = [g, self.intern(left, right)]
        for step in (self.remove_dominated, self.bypass_reversible, self.remove_dominated):
            result = memo.get(stages[-1])
            if result is not None:
                break
            result = step(stages[-1])
            if result != stages[-1]:
                stages.append(result)
            elif step == self.bypass_reversible:
                break
        for stage in stages:
            memo[stage] = result
        memo[result] = result
        return result

    def _canonical_of_numbers(self, left, right):
        # the canonical form of {left | right} when every option is a
        # number tree or a pair {p|q} of them (so p >= q, a star {p|p}
        # included), else None.  By the simplicity theorem it is the
        # simplest number x with no Left option >= x and no Right option
        # <= x, if one fits: x > n for a Left number n, x >= q for a Left
        # pair and x <= p for a Right pair, x < n for a Right number n.
        # An open and a closed bound at one value leave it open.  With
        # numbers only and a = Left's largest >= b = Right's smallest,
        # none fits and the form is the switch {A | B}: the other options
        # are dominated, and A's Right options lie above a >= b, so A does
        # not reverse (nor B, dually).  With a pair and nothing fitting it
        # is None, for the general rewrite
        number = self._number
        nodes = self._nodes
        a = b = None
        a_closed = b_closed = pairs = False
        for x in left:
            v = number[x]
            closed = v is None
            if closed:
                xl, xr = nodes[x]
                if len(xl) != 1 or len(xr) != 1 or number[xl[0]] is None:
                    return None
                v = number[xr[0]]
                if v is None:
                    return None
            if a is None or dy_lt(a, v):
                a, a_closed, big = v, closed, x
            elif a_closed and not closed and v == a:
                a_closed = False
            pairs |= closed
        for x in right:
            v = number[x]
            closed = v is None
            if closed:
                xl, xr = nodes[x]
                if len(xl) != 1 or len(xr) != 1 or number[xr[0]] is None:
                    return None
                v = number[xl[0]]
                if v is None:
                    return None
            if b is None or dy_lt(v, b):
                b, b_closed, small = v, closed, x
            elif b_closed and not closed and v == b:
                b_closed = False
            pairs |= closed
        if a is not None and b is not None and not dy_lt(a, b):
            if not pairs:
                return self.intern((big,), (small,))
            if a != b or not (a_closed and b_closed):
                return None
        if a_closed or b_closed:
            # widen each closed bound by 2**-e to an open one: a number
            # within that margin is born later than the bound itself, so
            # the simplest number in the widened interval is unchanged
            e = max(a[1] if a else 0, b[1] if b else 0) + 2
            if a_closed:
                a = (a[0] << (e - a[1])) - 1, e
            if b_closed:
                b = (b[0] << (e - b[1])) + 1, e
        return self.number_position(*dy_simplest(a, b))

    def tree_number(self, h):
        """The dyadic pair of h when h is the canonical tree of a number,
        else None; h's own shape is read, not canonicalized.

        The number trees are {|} for 0, {n|} for an integer n >= 0 and
        {|n} for n <= 0 (worth n + 1 and n - 1), and {a|b} whose options
        are the neighbours (n - 1)/2**e and (n + 1)/2**e of their midpoint
        n/2**e with e > 0.  ``intern`` reads the shape when it creates h.
        """
        return self._number[h]

    def member(self, g, integer_system):
        """g's dyadic pair when g is a number of the system, else None."""
        v = self.tree_number(self.canonical(g))
        if v is not None and integer_system and v[1]:
            return None
        return v

    def stop_guides(self, g, side, integer_system):
        """(stop, guides): the best number the player can steer toward in
        the system, and the player's options that realize it.

        A member of the system is its own stop with no guides, and nothing
        is stored for it.  A non-member's stop is the best opponent stop
        among the player's options, the largest for Left; its guides are
        the options that are members worth it, failing that those whose
        opponent stop is it.  A non-member has options on both sides: by
        the simplicity theorem {|R} is the simplest x with x <| every R,
        and those x include every small enough integer and each number
        below one of them, so it is an integer, a member of both systems;
        {L|} mirrors it.  So an option is a member exactly when its guides
        are empty.  Pairs are normalized, so tuple equality is exact.
        """
        key = (g, integer_system)
        memo = self._stops[side]
        got = memo.get(key)
        if got is not None:
            return got
        v = self.member(g, integer_system)
        if v is not None:
            return v, ()
        best = None
        for x in self._nodes[g][side]:
            s, guides = self.stop_guides(x, 1 - side, integer_system)
            if best is None or (dy_lt(best, s) if side == 0 else dy_lt(s, best)):
                best, reach, worth = s, [], []
            if s == best:
                reach.append(x)
                if not guides:
                    worth.append(x)
        got = memo[key] = (best, tuple(worth or reach))
        return got

    def number_position(self, num, exp=0):
        """Interned canonical tree for the dyadic num / 2**exp.

        The trees are built on one explicit stack, the Left neighbour
        first; ``intern`` records each one's birthday and number and
        registers it as canonical.
        """
        memo = self._numpos
        key = dy_normalize(num, exp)
        got = memo.get(key)
        if got is not None:
            return got
        stack = [key]
        while stack:
            n, e = stack[-1]
            if e:
                lo, hi = dy_normalize(n - 1, e), dy_normalize(n + 1, e)
            else:
                lo = (n - 1, 0) if n > 0 else None
                hi = (n + 1, 0) if n < 0 else None
            left = right = ()
            if lo is not None:
                left = memo.get(lo)
                if left is None:
                    stack.append(lo)
                    continue
                left = (left,)
            if hi is not None:
                right = memo.get(hi)
                if right is None:
                    stack.append(hi)
                    continue
                right = (right,)
            key = stack.pop()
            pos = self.intern(left, right)
            memo[key] = pos
        return pos
