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
    """The certificate family; its single definition is ``_RULES``.

    A member of the tag's system has every property of that system.
    Otherwise some guide pair (gl, gr) must pass the tag's test on a pair
    (a, b), with a either gl or a Right option of gl (a reply), and b
    either gr or a Left option of gr.  DIAMOND_Z / DIAMOND_D ask for a
    number of the system strictly usable between gl and gr.  The integer
    refinements: DIAMOND wants a common reply a == b, DIAMOND_LEQ replies
    a <= b, the one-sided LFUZ forms a reply less than or fuzzy with the
    opposite guide.  The dyadic forms: a reply <= the opposite guide
    (L_LEQ, R_LEQ), or the guides themselves less than or fuzzy (TRIANGLE).
    """

    # members are singletons and == is identity, so the identity hash is
    # consistent and runs in C; Enum's own hashes the name in Python.  It
    # varies per process, so no answer may follow the order of a set of tags
    __hash__ = object.__hash__

    DIAMOND_Z = "dz"
    DIAMOND_D = "dd"
    DIAMOND = "d"
    DIAMOND_LEQ = "dleq"
    DIAMOND_L_LFUZ = "dl-lfuz"
    DIAMOND_R_LFUZ = "dr-lfuz"
    DIAMOND_L_LEQ = "dl-leq"
    DIAMOND_R_LEQ = "dr-leq"
    TRIANGLE = "tri"


# tag -> (system, a is a reply of gl?, b is a reply of gr?, relation), the
# relation one of a == b ("="), a <= b ("<="), a less than or fuzzy with b
# ("<|"), or None: some number of the system fits strictly between gl, gr
_RULES = {
    PropertyName.DIAMOND_Z: (NumberSystem.Z, False, False, None),
    PropertyName.DIAMOND_D: (NumberSystem.D, False, False, None),
    PropertyName.DIAMOND: (NumberSystem.Z, True, True, "="),
    PropertyName.DIAMOND_LEQ: (NumberSystem.Z, True, True, "<="),
    PropertyName.DIAMOND_L_LFUZ: (NumberSystem.Z, True, False, "<|"),
    PropertyName.DIAMOND_R_LFUZ: (NumberSystem.Z, False, True, "<|"),
    PropertyName.DIAMOND_L_LEQ: (NumberSystem.D, True, False, "<="),
    PropertyName.DIAMOND_R_LEQ: (NumberSystem.D, False, True, "<="),
    PropertyName.TRIANGLE: (NumberSystem.D, False, False, "<|"),
}


def property_system(p: PropertyName) -> NumberSystem:
    """The number system whose membership the property certifies."""
    return _RULES[p][0]


@dataclass(frozen=True)
class GuideOptions:
    """Options that realize the stops of a position.

    For a member of the system both sides are empty.  Otherwise the Left
    side holds the Left options whose value equals the position's left
    stop when such options exist, else every Left option whose right stop
    equals it; the Right side dually.  Both tuples are read from the
    kernel's stop memo (``GameStore.stop_guides``), filled in the same
    pass as the stop, once per position, side and system.
    """

    left: tuple[int, ...]
    right: tuple[int, ...]
    system: NumberSystem


def guide_options(engine: Engine, g: int, system: NumberSystem) -> GuideOptions:
    """The guide options of ``g`` in ``system``, from the kernel memo."""
    store = engine.store
    integer_system = system.integers_only
    return GuideOptions(
        store.stop_guides(g, 0, integer_system)[1],
        store.stop_guides(g, 1, integer_system)[1],
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

    A member of the property's system, the one kind of position with no
    guides, holds outright; otherwise the first guide pair with a witness
    makes it hold.  A member's report is built once per value and tag and
    kept in ``engine.member_reports``; a report with a guide pair, and a
    failure, is built per call.
    """
    integer_system = _RULES[p][0].integers_only
    store = engine.store
    pair, left = store.stop_guides(g, 0, integer_system)
    if not left:
        key = (pair, p)
        report = engine.member_reports.get(key)
        if report is None:
            witness = Witness(member_value=engine.dyadic(pair))
            report = engine.member_reports[key] = PropertyReport(True, p, witness)
        return report
    right = store.stop_guides(g, 1, integer_system)[1]
    for gl in left:
        for gr in right:
            witness = _pair_witness(engine, p, gl, gr)
            if witness is not None:
                return PropertyReport(True, p, witness)
    return PropertyReport(False, p)


def _pair_witness(engine: Engine, p: PropertyName, gl: int, gr: int) -> Witness | None:
    system, reply_l, reply_r, relation = _RULES[p]
    if relation is None:
        x = engine.simplest_between((gl,), (gr,), system)
        return None if x is None else Witness(guide_left=gl, guide_right=gr, x=x)
    leq = engine.leq
    for a in engine.right_options(gl) if reply_l else (gl,):
        for b in engine.left_options(gr) if reply_r else (gr,):
            if relation == "=":
                found = a == b
            elif relation == "<=":
                found = leq(a, b)
            else:
                found = not leq(b, a)
            if found:
                replies = (a if reply_l else None, b if reply_r else None)
                second = replies if reply_l or reply_r else None
                return Witness(guide_left=gl, guide_right=gr, second_moves=second)
    return None


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
    an empty plain part; passing one anyway raises PreconditionError, as
    do parts that overlap.
    """
    if part.certified & part.plain:
        raise PreconditionError("partition parts overlap")
    # a refinement (any rule with a relation) in the integer system adds the
    # second-move condition and so supports a nontrivial partition; in the
    # dyadic system it forces everything into the certified part, because
    # its guides must already be numbers
    system, _, _, relation = _RULES[p]
    refinement = relation is not None
    if refinement and not system.integers_only and part.plain:
        raise PreconditionError(
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
    if refinement and system.integers_only:
        sides = (
            (engine.left_options, engine.right_options),
            (engine.right_options, engine.left_options),
        )
        for g in sorted(part.certified):
            for first, reply in sides:
                if any(s not in part.certified for h in first(g) for s in reply(h)):
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
    ) and not engine.leq(xpos, g0)
    if not premises:
        return True
    return not engine.leq(xpos, g1)
