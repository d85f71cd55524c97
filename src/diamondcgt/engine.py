"""Typed facade over the kernel store.

An Engine owns one GameStore and exposes the whole position algebra with
the package's value types: interning, the partial order, outcomes,
canonical forms, number decoding, stops, and the simplest number between
bounds used by the certificate machinery.  Positions are plain ints;
every method taking a position expects an id previously returned by this
engine.
"""

from __future__ import annotations

from typing import Iterable

from . import _kernel
from .kernel import KERNEL_BACKEND
from .values import Dyadic, NumberSystem, Outcome, Relation, ValueClass

# indexed by the kernel's REL_* and OUT_* codes
_REL = (Relation.LESS, Relation.GREATER, Relation.EQUAL, Relation.FUZZY)
_OUT = (Outcome.LEFT_WINS, Outcome.RIGHT_WINS, Outcome.PREVIOUS_WINS, Outcome.NEXT_WINS)


class Engine:
    """One universe of interned positions plus all derived operations."""

    kernel_name = KERNEL_BACKEND

    def __init__(self):
        self.store = _kernel.GameStore()

    # -- structure ---------------------------------------------------------

    @property
    def zero(self) -> int:
        return self.store.zero

    def intern(self, left: Iterable[int], right: Iterable[int]) -> int:
        return self.store.intern(left, right)

    def left_options(self, g: int) -> tuple[int, ...]:
        return self.store.left_options(g)

    def right_options(self, g: int) -> tuple[int, ...]:
        return self.store.right_options(g)

    def node_count(self) -> int:
        return len(self.store)

    def birthday(self, g: int) -> int:
        return self.store.birthday(g)

    def stats(self) -> dict[str, int]:
        """Node count and the entry count of each memo table."""
        return self.store.stats()

    # -- order -------------------------------------------------------------

    def leq(self, g: int, h: int) -> bool:
        return self.store.leq(g, h)

    def compare(self, g: int, h: int) -> Relation:
        return _REL[self.store.compare(g, h)]

    def outcome(self, g: int) -> Outcome:
        return _OUT[self.store.outcome(g)]

    # -- simplification ----------------------------------------------------

    def remove_dominated(self, g: int) -> int:
        return self.store.remove_dominated(g)

    def bypass_reversible(self, g: int) -> int:
        return self.store.bypass_reversible(g)

    def canonical_form(self, g: int) -> int:
        return self.store.canonical(g)

    # -- numbers -----------------------------------------------------------

    def number_position(self, value: Dyadic | int) -> int:
        if isinstance(value, int):
            return self.store.number_position(value, 0)
        return self.store.number_position(value.numerator, value.exponent)

    def star(self) -> int:
        zero = self.zero
        return self.store.intern((zero,), (zero,))

    def as_number(self, g: int, system: NumberSystem = NumberSystem.D) -> Dyadic | None:
        pair = self.store.number_value(g)
        if pair is None:
            return None
        if system.integers_only and pair[1] != 0:
            return None
        return Dyadic.from_pair(pair)

    def classify_value(self, g: int) -> ValueClass:
        pair = self.store.number_value(g)
        if pair is not None:
            return ValueClass.make_number(Dyadic.from_pair(pair))
        c = self.store.canonical(g)
        left, right = self.store.node(c)
        if len(left) == 1 and len(right) == 1:
            a = self.store.number_value(left[0])
            b = self.store.number_value(right[0])
            if a is not None and b is not None:
                return ValueClass.make_pair(Dyadic.from_pair(a), Dyadic.from_pair(b))
        return ValueClass.make_other()

    def in_pair_set(self, g: int, system: NumberSystem) -> bool:
        """Whether g's value is expressible as {x1|x2} with x1, x2 in the
        system (which subsumes every member of the system itself)."""
        return self.classify_value(g).in_pair_set(system)

    # -- stops --------------------------------------------------------------

    def left_stop(self, g: int, system: NumberSystem) -> Dyadic:
        return Dyadic.from_pair(self.store.stop(g, 0, system.integers_only))

    def right_stop(self, g: int, system: NumberSystem) -> Dyadic:
        return Dyadic.from_pair(self.store.stop(g, 1, system.integers_only))

    # -- simplest number between bounds ------------------------------------

    def simplest_between(
        self,
        lo_set: Iterable[int],
        hi_set: Iterable[int],
        system: NumberSystem,
    ) -> Dyadic | None:
        """Simplest number x in the system with lo <|| x <|| hi for all bounds.

        ``lo <|| x`` means lo is less than or fuzzy against x, i.e. not
        x <= lo.  Let a be the largest right stop of the lower bounds and
        b the smallest left stop of the upper bounds, both taken in the
        system.  Two stop laws hold for every number x of the system and
        game g: x > RS(g) rules out x <= g, and x < LS(g) rules out
        g <= x.  So every x strictly between a and b fits.  Their strict
        counterparts, x < RS(g) forces x < g and x > LS(g) forces x > g,
        say that nothing outside [a, b] fits.  The answer is therefore the
        simplest member of the open interval (a, b), unless an endpoint
        is simpler and passes the exact check; an endpoint is a stop, so
        it is a member of the system.  Simpler means fewer halvings, then
        smaller magnitude, then positive.
        """
        los = tuple(lo_set)
        his = tuple(hi_set)
        store = self.store
        integer_system = system.integers_only
        a = None
        for lo in los:
            s = store.stop(lo, 1, integer_system)
            if a is None or _kernel.dy_lt(a, s):
                a = s
        b = None
        for hi in his:
            s = store.stop(hi, 0, integer_system)
            if b is None or _kernel.dy_lt(s, b):
                b = s
        if a is not None and b is not None and _kernel.dy_lt(b, a):
            # every number is below a lower bound or above an upper one
            return None
        best = _kernel.simplest_in_open_interval(a, b, integer_system)
        for s in sorted({a, b} - {None}, key=_simplicity):
            if best is not None and _simplicity(best) < _simplicity(s):
                break
            if self._fits(los, his, store.number_position(*s)):
                best = s
                break
        return None if best is None else Dyadic.from_pair(best)

    def _fits(self, los: tuple[int, ...], his: tuple[int, ...], x: int) -> bool:
        store = self.store
        for lo in los:
            if store.leq(x, lo):
                return False
        for hi in his:
            if store.leq(hi, x):
                return False
        return True


def _simplicity(pair: tuple[int, int]) -> tuple[int, int, bool]:
    """Sort key of a dyadic pair: fewer halvings, smaller magnitude, positive."""
    num, exp = pair
    return exp, abs(num), num < 0
