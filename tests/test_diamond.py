"""Guide options, the straddle certificates, and closed-set checks."""

from __future__ import annotations

import random

import pytest

from diamondcgt.diamond import (
    ClosedSetPartition,
    PropertyName,
    check_stop_transfer,
    guide_options,
    has_diamond,
    has_property,
    property_system,
    verify_closed_set,
)
from diamondcgt.engine import Engine
from diamondcgt.errors import NotClosedError, PreconditionError
from diamondcgt.notation import format_canonical, format_position, parse_position
from diamondcgt.values import Dyadic, NumberSystem

import oracle as o

Z = NumberSystem.Z
D = NumberSystem.D

_ALL_PROPERTIES = list(PropertyName)
_VARIANT_PROPERTIES = [
    p for p in PropertyName if p not in (PropertyName.DIAMOND_Z, PropertyName.DIAMOND_D)
]


def _followers(engine, root):
    out = set()
    frontier = [root]
    while frontier:
        g = frontier.pop()
        if g in out:
            continue
        out.add(g)
        frontier.extend(engine.left_options(g))
        frontier.extend(engine.right_options(g))
    return out


def _revalidate(engine, g, report):
    """Check a positive report's witness by direct comparisons."""
    w = report.witness
    assert w is not None
    if w.member_value is not None:
        system = property_system(report.property)
        assert engine.as_number(g, system) == w.member_value
        return
    p = report.property
    gl, gr = w.guide_left, w.guide_right
    assert gl in engine.left_options(g) and gr in engine.right_options(g)
    if p in (PropertyName.DIAMOND_Z, PropertyName.DIAMOND_D):
        xpos = engine.number_position(w.x)
        assert engine.compare(gl, xpos).less_or_fuzzy
        assert engine.compare(xpos, gr).less_or_fuzzy
        return
    if p is PropertyName.TRIANGLE:
        assert engine.compare(gl, gr).less_or_fuzzy
        return
    left_second, right_second = w.second_moves or (None, None)
    if p is PropertyName.DIAMOND:
        assert left_second == right_second
        assert left_second in engine.right_options(gl)
        assert right_second in engine.left_options(gr)
    elif p is PropertyName.DIAMOND_LEQ:
        assert left_second in engine.right_options(gl)
        assert right_second in engine.left_options(gr)
        assert engine.leq(left_second, right_second)
    elif p is PropertyName.DIAMOND_L_LFUZ:
        assert left_second in engine.right_options(gl)
        assert engine.compare(left_second, gr).less_or_fuzzy
    elif p is PropertyName.DIAMOND_R_LFUZ:
        assert right_second in engine.left_options(gr)
        assert engine.compare(gl, right_second).less_or_fuzzy
    elif p is PropertyName.DIAMOND_L_LEQ:
        assert left_second in engine.right_options(gl)
        assert engine.leq(left_second, gr)
    elif p is PropertyName.DIAMOND_R_LEQ:
        assert right_second in engine.left_options(gr)
        assert engine.leq(gl, right_second)


def test_guide_options_examples(engine):
    three = engine.number_position(3)
    guides = guide_options(engine, three, Z)
    assert guides.left == () and guides.right == ()
    pair = engine.intern((engine.zero,), (engine.number_position(-3),))
    guides = guide_options(engine, pair, Z)
    assert guides.left == (engine.zero,)
    assert guides.right == (engine.number_position(-3),)
    star = engine.star()
    guides = guide_options(engine, star, Z)
    assert guides.left == (engine.zero,) and guides.right == (engine.zero,)
    half = engine.number_position(Dyadic(1, 1))
    guides = guide_options(engine, half, Z)
    assert guides.left == (engine.zero,)
    assert guides.right == (engine.number_position(1),)


def test_guide_options_fall_back_to_stop_matching(engine):
    star = engine.star()
    up = engine.intern((engine.zero,), (star,))
    guides = guide_options(engine, up, Z)
    # the Right option * is not a number, but its Left stop matches
    assert guides.left == (engine.zero,)
    assert guides.right == (star,)


def _reference_guides(engine, g, system):
    """The guide rule from its definition, on the engine's typed values:
    no guides for a member, else the options worth the stop, else the
    options whose opponent stop equals it."""
    if engine.as_number(g, system) is not None:
        return (), ()

    def side(options, stop, reply_stop):
        chosen = tuple(x for x in options if engine.as_number(x, system) == stop)
        return chosen or tuple(x for x in options if reply_stop(x, system) == stop)

    return (
        side(engine.left_options(g), engine.left_stop(g, system), engine.right_stop),
        side(engine.right_options(g), engine.right_stop(g, system), engine.left_stop),
    )


def test_guide_options_match_the_rule(engine, day3_values, random_day4_forms):
    rng = random.Random(54)
    suite = list(day3_values) + rng.sample(random_day4_forms, 300)
    first = {}
    for g in suite:
        for system in (Z, D):
            guides = guide_options(engine, g, system)
            assert guides.system is system
            assert (guides.left, guides.right) == _reference_guides(engine, g, system)
            first[g, system] = guides
    # a second call reads the kernel memo: same tuples, no new entries
    before = engine.stats()
    assert before["left_stops"] > 0 and before["right_stops"] > 0
    for (g, system), guides in first.items():
        assert guide_options(engine, g, system) == guides
    after = engine.stats()
    assert after["left_stops"] == before["left_stops"]
    assert after["right_stops"] == before["right_stops"]


def test_has_diamond_examples(engine):
    assert has_diamond(engine, engine.number_position(3), Z).holds
    assert not has_diamond(engine, engine.star(), Z).holds
    pair = engine.intern((engine.zero,), (engine.number_position(-3),))
    assert not has_diamond(engine, pair, Z).holds
    half = engine.number_position(Dyadic(1, 1))
    assert not has_diamond(engine, half, Z).holds
    assert has_diamond(engine, half, D).holds
    assert not has_diamond(engine, engine.star(), D).holds


def test_guide_branch_witness(engine):
    # a number-free value whose fuzzy guides still straddle 0
    star = engine.star()
    up = engine.intern((engine.zero,), (star,))
    upstar = engine.intern((engine.zero, star), (engine.zero,))
    g = engine.intern((star, up), (upstar,))
    for system in (Z, D):
        assert engine.as_number(g, system) is None
        report = has_diamond(engine, g, system)
        assert report.holds
        w = report.witness
        assert w.member_value is None
        assert w.x == Dyadic(0)
        assert w.guide_left in (star, up) and w.guide_right == upstar
        _revalidate(engine, g, report)


def test_has_property_examples(engine):
    assert has_property(engine, engine.zero, PropertyName.DIAMOND).holds
    assert not has_property(engine, engine.star(), PropertyName.TRIANGLE).holds
    assert not has_property(engine, engine.star(), PropertyName.DIAMOND).holds
    # the system-level tags answer as has_diamond in their system
    star = engine.star()
    positions = [
        engine.zero,
        star,
        engine.number_position(Dyadic(1, 1)),
        engine.intern((engine.zero,), (engine.number_position(-3),)),
        engine.intern((star,), (star,)),
    ]
    for g in positions:
        for tag, system in ((PropertyName.DIAMOND_Z, Z), (PropertyName.DIAMOND_D, D)):
            assert has_property(engine, g, tag) == has_diamond(engine, g, system)


def _typed_numbers(engine, g):
    """Every Dyadic the typed API gives for g, its nine reports included."""
    numbers = [engine.as_number(g, Z), engine.as_number(g, D)]
    for system in (Z, D):
        numbers += [engine.left_stop(g, system), engine.right_stop(g, system)]
    value = engine.classify_value(g)
    numbers += [value.number, value.left, value.right]
    for p in PropertyName:
        witness = has_property(engine, g, p).witness
        if witness is not None:
            numbers += [witness.x, witness.member_value]
    return [x for x in numbers if x is not None]


def test_typed_answers_are_built_once_per_engine(monkeypatch, engine, day3_values):
    texts = [format_position(engine, g) for g in day3_values]
    built = []
    post_init = Dyadic.__post_init__

    def counting(self):
        post_init(self)
        built.append(self.pair)

    monkeypatch.setattr(Dyadic, "__post_init__", counting)
    firsts = []
    for _ in range(2):
        fresh = Engine()
        built.clear()
        seen = {}
        for text in texts:
            for x in _typed_numbers(fresh, parse_position(fresh, text)):
                assert seen.setdefault(x.pair, x) is x
        # one Dyadic per distinct pair, and only the pairs handed out
        assert sorted(built) == sorted(seen)
        firsts.append(seen)
    # the second engine built its own
    assert all(x is not firsts[0][pair] for pair, x in firsts[1].items())
    assert firsts[0] == firsts[1] and len(firsts[0]) == 15


def test_equal_valued_members_get_equal_reports():
    fresh = Engine()
    groups = [
        ["1", "{0|}", "{-1,0|}", "{0,*|}"],
        ["0", "{|}", "{*|*}", "{-1|1}"],
        ["3/4", "{1/2|1}", "{0,1/2|1,2}"],
        ["-2", "{|-1}", "{|-1,0}"],
    ]
    for texts in groups:
        games = [parse_position(fresh, text) for text in texts]
        for p in PropertyName:
            if fresh.as_number(games[0], property_system(p)) is None:
                continue
            reports = [has_property(fresh, g, p) for g in games]
            assert reports[0].holds
            assert all(r is reports[0] for r in reports), (texts, p)
    # one report per value and tag: 1, 0 and -2 in both systems, 3/4 in D
    assert len(fresh.member_reports) == 3 * 9 + 4


def test_empty_side_positions_hold_every_property(engine):
    two = engine.number_position(2)
    star = engine.star()
    one_sided = [
        engine.intern((star, two), ()),
        engine.intern((), (star,)),
        engine.intern((), ()),
    ]
    for g in one_sided:
        for system in (Z, D):
            assert has_diamond(engine, g, system).holds
        for p in _VARIANT_PROPERTIES:
            assert has_property(engine, g, p).holds


def test_positive_reports_revalidate(engine, day3_values, random_day4_forms):
    rng = random.Random(51)
    suite = list(rng.sample(day3_values, 250)) + list(random_day4_forms[:120])
    for g in suite:
        for system in (Z, D):
            report = has_diamond(engine, g, system)
            if report.holds:
                _revalidate(engine, g, report)
        for p in _VARIANT_PROPERTIES:
            report = has_property(engine, g, p)
            if report.holds:
                _revalidate(engine, g, report)


def _star_forms(engine, day2_values):
    """Day-4 forms whose options straddle several numbers.

    {a*|b*} for numbers a < b born by day 2: every number of [a, b] fits
    between the options, so the form is the simplest of them, and the
    membership branch answers for it.  And
    {a*, v | a*, w} for a = -1/2 or 1/2 and non-number day-2 values v, w:
    140 of these 450 equal a, which is not an integer, and some of those
    have a Z guide pair that admits two integers, such as {0|-1} against
    {0|*}, so a dz witness other than the simplest would show.
    """
    numbers = [v for v in day2_values if engine.as_number(v) is not None]
    others = [v for v in day2_values if engine.as_number(v) is None]
    star = {v: engine.intern((v,), (v,)) for v in numbers}
    forms = [
        engine.intern((star[a],), (star[b],))
        for a in numbers
        for b in numbers
        if engine.as_number(a) < engine.as_number(b)
    ]
    for a in (Dyadic(-1, 1), Dyadic(1, 1)):
        a_star = star[engine.number_position(a)]
        forms += [
            engine.intern((a_star, v), (a_star, w)) for v in others for w in others
        ]
    return forms


def test_properties_match_the_oracle(
    engine, day2_values, day3_values, random_day4_forms, to_oracle
):
    """Every tag on every day-3 value, on a seeded day-4 sample and on the
    star forms above, holds and fails alike, against the oracle's
    definition on its own order, stops and guides.

    The oracle looks for the number of dz/dd among those born by day 5
    (``oracle.FIT_SEARCH_DAY``), which is complete for forms born by
    day 4: their guides are born by day 3, so the guides' stops are
    numbers born by day 3.  The numbers that fit between gl and gr lie
    between RS(gl) and LS(gr), ends included or not, so when any fits, an
    end or the simplest number strictly between the ends fits, and either
    is born by day 4.
    """
    rng = random.Random(56)
    mismatches = []
    suite = list(day3_values) + rng.sample(random_day4_forms, 200)
    for g in suite + _star_forms(engine, day2_values):
        og = to_oracle(g)
        assert o.birthday(og) <= 4
        text = format_canonical(engine, g)
        for system in (Z, D):
            guides = guide_options(engine, g, system)
            for side, found in (("L", guides.left), ("R", guides.right)):
                if {to_oracle(x) for x in found} != o.guides(og, side, system.name):
                    mismatches.append((text, "guides", system.name, side))
        for p in PropertyName:
            report = has_property(engine, g, p)
            w = report.witness
            if report.holds != o.has_property(og, p.value):
                mismatches.append((text, p.value, "holds" if report.holds else "fails"))
            elif report.holds and w.member_value is None:
                gl, gr = to_oracle(w.guide_left), to_oracle(w.guide_right)
                if not o.pair_passes(p.value, gl, gr) or w.x is not None and (
                    w.x.as_fraction() != o.simplest_fit((gl,), (gr,), o.tag_system(p.value))
                ):
                    mismatches.append((text, p.value, "witness"))
    assert not mismatches, "%d mismatches, first %s" % (len(mismatches), mismatches[:5])


def test_common_second_move_implies_leq_form(engine, day3_values, random_day4_forms):
    rng = random.Random(52)
    suite = list(rng.sample(day3_values, 300)) + list(random_day4_forms[:150])
    for g in suite:
        if has_property(engine, g, PropertyName.DIAMOND).holds:
            assert has_property(engine, g, PropertyName.DIAMOND_LEQ).holds


def test_closed_number_trees_verify_for_every_property(engine):
    universe = frozenset(_followers(engine, engine.number_position(2)))
    part = ClosedSetPartition.total(universe)
    for p in _ALL_PROPERTIES:
        report = verify_closed_set(engine, part, p)
        assert report.ok, (p, report)


def test_star_followers_fail_the_certified_hypothesis(engine):
    star = engine.star()
    part = ClosedSetPartition.total(frozenset({engine.zero, star}))
    report = verify_closed_set(engine, part, PropertyName.DIAMOND)
    assert not report.ok
    assert report.failed_check == "hypothesis_property"
    assert report.offender == star


def test_star_as_plain_member_verifies(engine):
    star = engine.star()
    part = ClosedSetPartition.split(
        certified=frozenset({engine.zero}), plain=frozenset({star})
    )
    report = verify_closed_set(engine, part, PropertyName.DIAMOND)
    assert report.ok, report


def test_uncertified_options_of_plain_members_fail(engine):
    star = engine.star()
    up = parse_position(engine, "{0|*}")
    part = ClosedSetPartition.split(certified={engine.zero}, plain={star, up})
    report = verify_closed_set(engine, part, PropertyName.DIAMOND)
    assert (report.failed_check, report.offender) == ("hypothesis_options_certified", up)


def test_second_moves_must_land_among_the_certified(engine):
    # {{-1|*}|} is 1 and {-1|*} is 0, both certified, but Left's move to
    # {-1|*} lets Right answer with the plain *
    inner = parse_position(engine, "{-1|*}")
    outer = parse_position(engine, "{{-1|*}|}")
    certified = {engine.zero, engine.number_position(-1), inner, outer}
    part = ClosedSetPartition.split(certified, {engine.star()})
    for p in _VARIANT_PROPERTIES:
        if property_system(p) is Z:
            report = verify_closed_set(engine, part, p)
            assert (report.failed_check, report.offender) == (
                "hypothesis_second_moves", outer
            ), p


def test_conclusions_are_checked_after_the_hypotheses(engine, monkeypatch):
    # no sound certificate reaches them, so let every member pass it
    holds = has_property(engine, engine.zero, PropertyName.DIAMOND)
    monkeypatch.setattr("diamondcgt.diamond.has_property", lambda engine, g, p: holds)
    star = engine.star()
    up = parse_position(engine, "{0|*}")
    for members, check, offender in [
        ({engine.zero, star, up}, "conclusion_pair_set", up),
        ({engine.zero, star}, "conclusion_membership", star),
    ]:
        part = ClosedSetPartition.total(members)
        report = verify_closed_set(engine, part, PropertyName.DIAMOND)
        assert (report.failed_check, report.offender) == (check, offender)


def test_missing_option_raises_not_closed(engine):
    star = engine.star()
    part = ClosedSetPartition.total(frozenset({star}))
    with pytest.raises(NotClosedError):
        verify_closed_set(engine, part, PropertyName.DIAMOND)


def test_dyadic_family_demands_total_partition(engine):
    star = engine.star()
    part = ClosedSetPartition.split(
        certified=frozenset({engine.zero}), plain=frozenset({star})
    )
    with pytest.raises(PreconditionError):
        verify_closed_set(engine, part, PropertyName.TRIANGLE)


def test_partition_validation(engine):
    zero = engine.zero
    star = engine.star()
    bad = ClosedSetPartition.split(certified={zero, star}, plain={star})
    assert bad.all_positions == frozenset({zero, star})
    with pytest.raises(PreconditionError, match="overlap"):
        verify_closed_set(engine, bad, PropertyName.DIAMOND)


def test_stop_transfer_instances(engine):
    zero = engine.zero
    star = engine.star()
    pair_03 = engine.intern((zero,), (engine.number_position(-3),))
    assert check_stop_transfer(engine, zero, pair_03, Dyadic(1), Z)
    g0 = engine.intern((engine.number_position(1),), (zero,))
    g1 = engine.intern((engine.number_position(2),), (zero,))
    assert check_stop_transfer(engine, g0, g1, Dyadic(1), Z)
    # vacuous: the first premise fails
    assert check_stop_transfer(engine, pair_03, pair_03, Dyadic(-5), Z)
    # the known failure needs a number in the second slot, so the stated
    # domain must be relaxed to reproduce it
    assert not check_stop_transfer(
        engine, star, zero, Dyadic(0), Z, enforce_preconditions=False
    )
    with pytest.raises(PreconditionError):
        check_stop_transfer(engine, star, zero, Dyadic(0), Z)
    with pytest.raises(PreconditionError):
        check_stop_transfer(engine, zero, pair_03, Dyadic(1, 1), Z)
    up = parse_position(engine, "{0|*}")
    with pytest.raises(PreconditionError, match="^g0 must be a pair over the system$"):
        check_stop_transfer(engine, up, pair_03, Dyadic(0), Z)
    with pytest.raises(PreconditionError, match="^g1 must be a pair over the system$"):
        check_stop_transfer(engine, zero, up, Dyadic(0), Z)


def test_option_closed_diamond_sets_have_member_values(engine, random_day4_forms):
    # the certified core of any follower closure: positions that pass the
    # straddle certificate along with all their followers
    rng = random.Random(53)
    sets_seen = 0
    for root in rng.sample(random_day4_forms, 60):
        followers = sorted(_followers(engine, root))
        for system in (Z, D):
            core = set()
            for g in followers:  # ids ascend, so children come first
                if not has_diamond(engine, g, system).holds:
                    continue
                opts = engine.left_options(g) + engine.right_options(g)
                if all(o in core for o in opts):
                    core.add(g)
            if core:
                sets_seen += 1
                for g in core:
                    assert engine.as_number(g, system) is not None
    assert sets_seen >= 60


def test_tags_hash_by_identity():
    # the tags key the report dicts; their hash is the C identity hash,
    # consistent with == and the same for a tag looked up by its value
    assert PropertyName.__hash__ is object.__hash__
    reports = {(7, p): p.value for p in PropertyName}
    for p in PropertyName:
        assert reports[7, PropertyName(p.value)] == p.value
