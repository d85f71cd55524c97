"""Diamond certificates: guide options, the property family, and verifiers.

The machinery here answers one question in several strengths: when is a
position's value forced to be a number, or at worst a pair of numbers?
Guide options are the moves that realize a position's stops.  The diamond
properties ask for progressively cheaper certificates about a guide pair
(a common reply, comparable replies, or just comparable guides), and the
closed-set verifier checks the actual theorem hypotheses on a concrete,
finite, option-closed set of positions, then confirms the conclusions the
theory promises.

Everything reports witnesses that can be re-validated through the public
compare operation alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .engine import Engine
from .errors import NotClosedError, PreconditionError
from .values import Dyadic, NumberSystem


class PropertyName(Enum):
    """The certificate family, strongest general form first.

    DIAMOND_Z / DIAMOND_D take any number of the system strictly usable
    between a guide pair.  The middle group refines the integer form:
    DIAMOND wants a common second position, DIAMOND_LEQ comparable second
    positions, the one-sided LFUZ forms compare a second position against
    the opposite guide.  The last group lives in the dyadic system:
    one-sided <= forms and the bare guide comparison TRIANGLE.
    """

    DIAMOND_Z = "dz"
    DIAMOND_D = "dd"
    DIAMOND = "d"
    DIAMOND_LEQ = "dleq"
    DIAMOND_L_LFUZ = "dl-lfuz"
    DIAMOND_R_LFUZ = "dr-lfuz"
    DIAMOND_L_LEQ = "dl-leq"
    DIAMOND_R_LEQ = "dr-leq"
    TRIANGLE = "tri"


_Z_FAMILY = {
    PropertyName.DIAMOND,
    PropertyName.DIAMOND_LEQ,
    PropertyName.DIAMOND_L_LFUZ,
    PropertyName.DIAMOND_R_LFUZ,
}

_D_FAMILY = {
    PropertyName.DIAMOND_L_LEQ,
    PropertyName.DIAMOND_R_LEQ,
    PropertyName.TRIANGLE,
}


def property_system(p: PropertyName) -> NumberSystem:
    """The number system whose membership the property certifies."""
    if p is PropertyName.DIAMOND_Z or p in _Z_FAMILY:
        return NumberSystem.Z
    return NumberSystem.D


@dataclass(frozen=True)
class GuideOptions:
    """Options that realize the stops of a position.

    For a member of the system both sides are empty.  Otherwise the Left
    side holds the Left options whose value equals the position's left
    stop when such options exist, else every Left option whose right stop
    equals it; the Right side dually.  Both tuples are read from the
    kernel's guide memo (``GameStore.guides``), computed once per
    position, side and system.
    """

    left: tuple[int, ...]
    right: tuple[int, ...]
    system: NumberSystem


def guide_options(engine: Engine, g: int, system: NumberSystem) -> GuideOptions:
    """The guide options of ``g`` in ``system``, from the kernel memo."""
    store = engine.store
    integer_system = system.integers_only
    return GuideOptions(
        store.guides(g, 0, integer_system),
        store.guides(g, 1, integer_system),
        system,
    )


@dataclass(frozen=True)
class Witness:
    """What made a property hold.

    For the membership branch only member_value is set.  Otherwise the
    guide pair is present; x carries the number witness of the system
    forms, second_moves the replies of the second-move forms (a one-sided
    form leaves the unused slot None).
    """

    guide_left: int | None = None
    guide_right: int | None = None
    x: Dyadic | None = None
    second_moves: tuple[int | None, int | None] | None = None
    member_value: Dyadic | None = None


@dataclass(frozen=True)
class PropertyReport:
    holds: bool
    property: PropertyName
    witness: Witness | None = None


def has_diamond(engine: Engine, g: int, system: NumberSystem) -> PropertyReport:
    """The general certificate: membership in the system, or a guide pair
    with some number of the system strictly usable between them; this is
    ``has_property`` with the system's tag."""
    tag = PropertyName.DIAMOND_Z if system.integers_only else PropertyName.DIAMOND_D
    return has_property(engine, g, tag)


def has_property(engine: Engine, g: int, p: PropertyName) -> PropertyReport:
    """Whether ``g`` has property ``p``, with a witness when it does.

    A member of the property's system holds outright; otherwise the first
    guide pair with a witness makes it hold.
    """
    system = property_system(p)
    pair = engine.store.number_value(g)
    if pair is not None and (not system.integers_only or pair[1] == 0):
        return PropertyReport(True, p, Witness(member_value=Dyadic.from_pair(pair)))
    guides = guide_options(engine, g, system)
    for gl in guides.left:
        for gr in guides.right:
            witness = _pair_witness(engine, p, gl, gr, system)
            if witness is not None:
                return PropertyReport(True, p, witness)
    return PropertyReport(False, p)


def _pair_witness(
    engine: Engine, p: PropertyName, gl: int, gr: int, system: NumberSystem
) -> Witness | None:
    if p is PropertyName.DIAMOND_Z or p is PropertyName.DIAMOND_D:
        x = engine.simplest_between((gl,), (gr,), system)
        return None if x is None else Witness(guide_left=gl, guide_right=gr, x=x)
    if p is PropertyName.TRIANGLE:
        if engine.compare(gl, gr).less_or_fuzzy:
            return Witness(guide_left=gl, guide_right=gr)
        return None
    if p is PropertyName.DIAMOND:
        rights_of_gl = engine.right_options(gl)
        lefts_of_gr = set(engine.left_options(gr))
        for h in rights_of_gl:
            if h in lefts_of_gr:
                return Witness(guide_left=gl, guide_right=gr, second_moves=(h, h))
        return None
    if p is PropertyName.DIAMOND_LEQ:
        for glr in engine.right_options(gl):
            for grl in engine.left_options(gr):
                if engine.leq(glr, grl):
                    return Witness(
                        guide_left=gl, guide_right=gr, second_moves=(glr, grl)
                    )
        return None
    if p is PropertyName.DIAMOND_L_LFUZ:
        for glr in engine.right_options(gl):
            if engine.compare(glr, gr).less_or_fuzzy:
                return Witness(guide_left=gl, guide_right=gr, second_moves=(glr, None))
        return None
    if p is PropertyName.DIAMOND_R_LFUZ:
        for grl in engine.left_options(gr):
            if engine.compare(gl, grl).less_or_fuzzy:
                return Witness(guide_left=gl, guide_right=gr, second_moves=(None, grl))
        return None
    if p is PropertyName.DIAMOND_L_LEQ:
        for glr in engine.right_options(gl):
            if engine.leq(glr, gr):
                return Witness(guide_left=gl, guide_right=gr, second_moves=(glr, None))
        return None
    if p is PropertyName.DIAMOND_R_LEQ:
        for grl in engine.left_options(gr):
            if engine.leq(gl, grl):
                return Witness(guide_left=gl, guide_right=gr, second_moves=(None, grl))
        return None
    raise ValueError("unknown property %r" % (p,))


@dataclass(frozen=True)
class ClosedSetPartition:
    """An option-closed universe split into a certified part and the rest.

    ``certified`` members must carry the property themselves; ``plain``
    members only promise that their options are certified.
    """

    certified: frozenset[int]
    plain: frozenset[int]

    @property
    def all_positions(self) -> frozenset[int]:
        return self.certified | self.plain

    @classmethod
    def total(cls, positions) -> "ClosedSetPartition":
        return cls(frozenset(positions), frozenset())

    @classmethod
    def split(cls, certified, plain) -> "ClosedSetPartition":
        return cls(frozenset(certified), frozenset(plain))


@dataclass(frozen=True)
class ClosedSetReport:
    ok: bool
    failed_check: str | None = None
    offender: int | None = None
    counts: dict = field(default_factory=dict)


def verify_closed_set(
    engine: Engine, part: ClosedSetPartition, p: PropertyName
) -> ClosedSetReport:
    """Check the theorem hypotheses and conclusions on a finite universe.

    Hypotheses: (a) every certified member has the property, (b) options
    of plain members are certified, and, for the integer refinements,
    (c) second moves of certified members land among the certified.
    Conclusions: every member's value is a pair over the property's
    system, and every certified member's value is in the system itself.
    The first failure is reported with the lowest offending id.

    The dyadic refinements certify a set only as a whole, so they demand
    an empty plain part; passing one anyway raises ValueError.
    """
    if part.certified & part.plain:
        raise ValueError("partition parts overlap")
    if p in _D_FAMILY and part.plain:
        raise ValueError(
            "property %s supports only a total partition (no plain part)"
            % p.value
        )
    members = part.all_positions
    for g in sorted(members):
        for opt in engine.left_options(g) + engine.right_options(g):
            if opt not in members:
                raise NotClosedError(
                    "option %d of member %d is outside the set" % (opt, g),
                    member=g,
                    option=opt,
                )
    system = property_system(p)
    counts = {
        "members": len(members),
        "certified": len(part.certified),
        "plain": len(part.plain),
    }

    def report(check: str, g: int) -> ClosedSetReport:
        return ClosedSetReport(False, check, g, counts)

    for g in sorted(part.certified):
        if not has_property(engine, g, p).holds:
            return report("hypothesis_property", g)
    for g in sorted(part.plain):
        for opt in engine.left_options(g) + engine.right_options(g):
            if opt not in part.certified:
                return report("hypothesis_options_certified", g)
    # only the integer refinements support a nontrivial partition with the
    # second-move condition; the dyadic refinements force everything into the
    # certified part because their guides must already be numbers
    if p in _Z_FAMILY:
        for g in sorted(part.certified):
            for gl in engine.left_options(g):
                for glr in engine.right_options(gl):
                    if glr not in part.certified:
                        return report("hypothesis_second_moves", g)
            for gr in engine.right_options(g):
                for grl in engine.left_options(gr):
                    if grl not in part.certified:
                        return report("hypothesis_second_moves", g)
    for g in sorted(members):
        if not engine.in_pair_set(g, system):
            return report("conclusion_pair_set", g)
    for g in sorted(part.certified):
        if engine.as_number(g, system) is None:
            return report("conclusion_membership", g)
    return ClosedSetReport(True, None, None, counts)


def check_stop_transfer(
    engine: Engine,
    g0: int,
    g1: int,
    x: Dyadic,
    system: NumberSystem,
    enforce_preconditions: bool = True,
) -> bool:
    """One instance of the stop-transfer implication.

    Premises: g1's right stop is at most g0's, and g0 is less than or
    fuzzy against x.  Conclusion: g1 is less than or fuzzy against x.
    Returns the implication's truth (vacuously True when a premise fails).
    The stated domain wants both positions to be pairs over the system
    with g1 not itself a number; dropping enforcement allows reproducing
    the known failure with a number in g1's slot.
    """
    if not x.in_system(system):
        raise PreconditionError("x must belong to the number system")
    if enforce_preconditions:
        if not engine.in_pair_set(g0, system):
            raise PreconditionError("g0 must be a pair over the system")
        if not engine.in_pair_set(g1, system):
            raise PreconditionError("g1 must be a pair over the system")
        if engine.as_number(g1, system) is not None:
            raise PreconditionError("g1 must not be a member of the system")
    xpos = engine.number_position(x)
    premises = engine.right_stop(g1, system) <= engine.right_stop(
        g0, system
    ) and engine.compare(g0, xpos).less_or_fuzzy
    if not premises:
        return True
    return engine.compare(g1, xpos).less_or_fuzzy
