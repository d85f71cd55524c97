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
from .values import OTHER, Dyadic, NumberSystem, Outcome, Relation, ValueClass, ValueKind

# Both tables are indexed by the kernel's REL_* code of a comparison: _REL
# by g against h, _OUTCOME by g against zero, where greater means Left
# wins, less Right, equal the previous player and fuzzy the next one.
_REL = (Relation.LESS, Relation.GREATER, Relation.EQUAL, Relation.FUZZY)
_OUTCOME = (Outcome.RIGHT_WINS, Outcome.LEFT_WINS, Outcome.PREVIOUS_WINS, Outcome.NEXT_WINS)


class Engine:
    """One universe of interned positions plus all derived operations.

    Typed answers are built once per engine.  Each normalized kernel
    (numerator, exponent) pair becomes one ``Dyadic`` the first time it is
    asked for, and ``member_reports`` holds the reports that
    ``diamond.has_property`` gives members, one per value and tag.  They
    are frozen, so repeated calls give equal objects, which may also be the
    same object.  Both dicts grow with the values asked about and die with
    the engine.
    """

    kernel_name = KERNEL_BACKEND

    def __init__(self):
        self.store = _kernel.GameStore()
        self._dyadics: dict[tuple[int, int], Dyadic] = {}
        # (pair, tag) -> the member report of diamond.has_property
        self.member_reports: dict = {}

    # -- structure ---------------------------------------------------------

    @property
    def zero(self) -> int:
        return self.store.zero

    def intern(self, left: Iterable[int], right: Iterable[int]) -> int:
        return self.store.intern(left, right)

    def left_options(self, g: int) -> tuple[int, ...]:
        return self.store.node(g)[0]

    def right_options(self, g: int) -> tuple[int, ...]:
        return self.store.node(g)[1]

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
        store = self.store
        return _OUTCOME[store.compare(g, store.zero)]

    # -- simplification ----------------------------------------------------

    def remove_dominated(self, g: int) -> int:
        return self.store.remove_dominated(g)

    def bypass_reversible(self, g: int) -> int:
        return self.store.bypass_reversible(g)

    def canonical_form(self, g: int) -> int:
        return self.store.canonical(g)

    # -- numbers -----------------------------------------------------------

    def dyadic(self, pair: tuple[int, int]) -> Dyadic:
        """The ``Dyadic`` of a normalized kernel pair, one per pair."""
        value = self._dyadics.get(pair)
        if value is None:
            value = self._dyadics[pair] = Dyadic(*pair)
        return value

    def number_position(self, value: Dyadic | int) -> int:
        if isinstance(value, int):
            return self.store.number_position(value, 0)
        return self.store.number_position(value.numerator, value.exponent)

    def star(self) -> int:
        zero = self.zero
        return self.store.intern((zero,), (zero,))

    def as_number(self, g: int, system: NumberSystem = NumberSystem.D) -> Dyadic | None:
        pair = self.store.member(g, system.integers_only)
        return None if pair is None else self.dyadic(pair)

    def classify_value(self, g: int) -> ValueClass:
        pair = self.store.member(g, False)
        if pair is not None:
            return ValueClass(ValueKind.NUMBER, number=self.dyadic(pair))
        c = self.store.canonical(g)
        left, right = self.store.node(c)
        if len(left) == 1 and len(right) == 1:
            a = self.store.member(left[0], False)
            b = self.store.member(right[0], False)
            if a is not None and b is not None:
                return ValueClass(ValueKind.PAIR, left=self.dyadic(a), right=self.dyadic(b))
        return OTHER

    def in_pair_set(self, g: int, system: NumberSystem) -> bool:
        """Whether g's value is expressible as {x1|x2} with x1, x2 in the
        system (which subsumes every member of the system itself)."""
        return self.classify_value(g).in_pair_set(system)

    # -- stops --------------------------------------------------------------

    def left_stop(self, g: int, system: NumberSystem) -> Dyadic:
        return self.dyadic(self.store.stop_guides(g, 0, system.integers_only)[0])

    def right_stop(self, g: int, system: NumberSystem) -> Dyadic:
        return self.dyadic(self.store.stop_guides(g, 1, system.integers_only)[0])

    # -- simplest number between bounds ------------------------------------

    def simplest_between(
        self,
        lo_set: Iterable[int],
        hi_set: Iterable[int],
        system: NumberSystem,
    ) -> Dyadic | None:
        """Simplest number x in the system with lo <|| x <|| hi for all bounds.

        ``lo <|| x`` means lo is less than or fuzzy against x, i.e. not
        x <= lo.  By the simplicity theorem, {lo_set | hi_set} is a number
        exactly when some number fits, and it then equals the simplest
        one.  The numbers that fit form an interval and integers are born
        first, so an integer fits only when that simplest number is an
        integer.  The call interns {lo_set | hi_set}.
        """
        return self.as_number(self.store.intern(lo_set, hi_set), system)
