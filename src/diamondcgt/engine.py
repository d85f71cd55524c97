"""Typed facade over the kernel store.

An Engine owns one GameStore and exposes the whole position algebra with
the package's value types: interning, the partial order, outcomes,
canonical forms, number decoding, stops, and the simplest-number search
used by the certificate machinery.  Positions are plain ints; every method
taking a position expects an id previously returned by this engine.
"""

from __future__ import annotations

from typing import Iterable

from . import _kernel
from .errors import SearchExhaustedError
from .kernel import KERNEL_BACKEND
from .values import Dyadic, NumberSystem, Outcome, Relation, ValueClass

# indexed by the kernel's REL_* and OUT_* codes
_REL = (Relation.LESS, Relation.GREATER, Relation.EQUAL, Relation.FUZZY)
_OUT = (Outcome.LEFT_WINS, Outcome.RIGHT_WINS, Outcome.PREVIOUS_WINS, Outcome.NEXT_WINS)

# hard safety rail for the dyadic phase of simplest_between
MAX_DENOMINATOR_EXPONENT = 32


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

    # -- simplest-number search ---------------------------------------------

    def simplest_between(
        self,
        lo_set: Iterable[int],
        hi_set: Iterable[int],
        system: NumberSystem,
    ) -> Dyadic | None:
        """Simplest number x in the system with lo <|| x <|| hi for all bounds.

        ``lo <|| x`` means lo is less than or fuzzy against x, i.e. not
        x <= lo.  The search walks candidates in simplicity order: integers
        by magnitude with the positive one first, then dyadics by growing
        denominator.  Stops of the bounding positions confine any witness,
        which is what makes a None answer a proof of absence rather than a
        timeout; the bounds only guard pathological callers and trip
        SearchExhaustedError when hit.
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

        stop_bound = 0
        for s in (a, b):
            if s is not None:
                stop_bound = max(stop_bound, abs(_kernel.dy_floor(s)) + 1)
        max_abs = stop_bound + 2

        lo_int = _kernel.dy_ceil(a) if a is not None else -max_abs
        hi_int = _kernel.dy_floor(b) if b is not None else max_abs

        for n in _integers_by_simplicity(lo_int, hi_int):
            x = store.number_position(n, 0)
            if self._fits(los, his, x):
                return Dyadic(n)

        if a is None or b is None:
            # a missing bound admits arbitrarily large witnesses, and the
            # stop argument says one must exist near the other bound, so
            # reaching this line means the rail was set too tight
            raise SearchExhaustedError(
                "no integer witness within magnitude %d" % max_abs
            )
        if integer_system or _kernel.dy_lt(b, a):
            return None

        # witnesses are confined to [a, b]; past the interval's own
        # granularity plus one, a strictly interior dyadic would already
        # have been found, so the scan is complete
        deepest = max(a[1], b[1]) + 1
        for d in range(1, deepest + 1):
            if d > MAX_DENOMINATOR_EXPONENT:
                raise SearchExhaustedError(
                    "no dyadic witness with denominator up to 2**%d"
                    % MAX_DENOMINATOR_EXPONENT
                )
            an, ae = a
            bn, be = b
            n_lo = (an << (d - ae)) if d >= ae else -((-an) >> (ae - d))
            n_hi = (bn << (d - be)) if d >= be else (bn >> (be - d))
            for n in _integers_by_simplicity(n_lo, n_hi):
                if n % 2 == 0:
                    continue
                x = store.number_position(n, d)
                if self._fits(los, his, x):
                    return Dyadic(n, d)
        return None

    def _fits(self, los: tuple[int, ...], his: tuple[int, ...], x: int) -> bool:
        store = self.store
        for lo in los:
            if store.leq(x, lo):
                return False
        for hi in his:
            if store.leq(hi, x):
                return False
        return True


def _integers_by_simplicity(lo: int, hi: int):
    """Integers of [lo, hi] ordered by magnitude, positive before negative."""
    if lo > hi:
        return
    if lo > 0:
        yield from range(lo, hi + 1)
    elif hi < 0:
        yield from range(hi, lo - 1, -1)
    else:
        yield 0
        for m in range(1, max(-lo, hi) + 1):
            if m <= hi:
                yield m
            if -m >= lo:
                yield -m
