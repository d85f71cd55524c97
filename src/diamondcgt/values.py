"""Typed values spoken by the engine API.

The kernel works on bare ints and (numerator, exponent) tuples; this module
wraps those in small frozen types: exact dyadic rationals, the four-way
order relation, outcomes under optimal play, number-system tags, and the
coarse classification of a position's value.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

from ._kernel import dy_normalize
from .errors import PreconditionError

if TYPE_CHECKING:
    from fractions import Fraction


class NumberSystem(Enum):
    """Which numbers count as members: integers or all dyadic rationals."""

    Z = "z"
    D = "d"

    @property
    def integers_only(self) -> bool:
        return self is NumberSystem.Z


@dataclass(frozen=True, order=False)
class Dyadic:
    """Exact rational numerator / 2**exponent, stored in lowest terms."""

    numerator: int
    exponent: int = 0

    def __post_init__(self):
        num, exp = dy_normalize(self.numerator, self.exponent)
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "exponent", exp)

    @property
    def pair(self) -> tuple[int, int]:
        return self.numerator, self.exponent

    @property
    def is_integer(self) -> bool:
        return self.exponent == 0

    def in_system(self, system: NumberSystem) -> bool:
        return not system.integers_only or self.exponent == 0

    def as_fraction(self) -> Fraction:
        # imported here, its only use, so importing the package (every CLI
        # call, every worker) loads neither fractions nor decimal
        from fractions import Fraction

        return Fraction(self.numerator, 1 << self.exponent)

    def __lt__(self, other: "Dyadic") -> bool:
        return self.numerator << other.exponent < other.numerator << self.exponent

    def __le__(self, other: "Dyadic") -> bool:
        return self.numerator << other.exponent <= other.numerator << self.exponent

    def __gt__(self, other: "Dyadic") -> bool:
        return other < self

    def __ge__(self, other: "Dyadic") -> bool:
        return other <= self

    def __str__(self) -> str:
        try:
            if self.exponent == 0:
                return str(self.numerator)
            return "%d/%d" % (self.numerator, 1 << self.exponent)
        except ValueError:  # Python's int-to-text digit limit
            raise PreconditionError(
                "cannot print a number with an integer of more than %d digits"
                % sys.get_int_max_str_digits()
            ) from None

    def __repr__(self) -> str:
        return "Dyadic(%s)" % self


class Relation(Enum):
    """How two positions compare in the game order."""

    LESS = "<"
    GREATER = ">"
    EQUAL = "="
    FUZZY = "||"

    @property
    def symbol(self) -> str:
        return self.value

    @property
    def less_or_fuzzy(self) -> bool:
        """Not >= : the mover comparing from the left is not dominated."""
        return self in (Relation.LESS, Relation.FUZZY)

    @property
    def greater_or_fuzzy(self) -> bool:
        return self in (Relation.GREATER, Relation.FUZZY)


class Outcome(Enum):
    """Winner under optimal play, by who moves first."""

    LEFT_WINS = 0
    RIGHT_WINS = 1
    PREVIOUS_WINS = 2
    NEXT_WINS = 3


class ValueKind(Enum):
    NUMBER = "number"
    PAIR = "pair"
    OTHER = "other"


@dataclass(frozen=True)
class ValueClass:
    """Coarse classification of a position's value.

    NUMBER carries the dyadic itself; PAIR is a canonical form with exactly
    one number option per side (and is not itself a number); everything
    else is OTHER.
    """

    kind: ValueKind
    number: Dyadic | None = None
    left: Dyadic | None = None
    right: Dyadic | None = None

    def in_pair_set(self, system: NumberSystem) -> bool:
        """Whether the value equals some {x1|x2} with x1, x2 in the system.

        Every number of the system qualifies (m equals {m-1|m+1}), and so do
        half-odd-integers for the integer system since m + 1/2 equals
        {m|m+1}; no other number does, because an integer pair {m|n} with
        m < n evaluates to the simplest number in its gap.  Non-number pairs
        qualify exactly when both canonical entries lie in the system.
        """
        if self.kind is ValueKind.NUMBER:
            return not system.integers_only or self.number.exponent <= 1
        if self.kind is ValueKind.PAIR:
            return self.left.in_system(system) and self.right.in_system(system)
        return False

    def __str__(self) -> str:
        if self.kind is ValueKind.NUMBER:
            return str(self.number)
        if self.kind is ValueKind.PAIR:
            return "{%s|%s}" % (self.left, self.right)
        return "other"


# the engine's one OTHER classification: it names no position, so every
# classify_value call that finds no number or number pair returns it
OTHER = ValueClass(ValueKind.OTHER)
