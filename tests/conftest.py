"""Shared fixtures: one engine, exhaustive small universes, random forms.

The day-2 universe is every form whose options come from the four day-1
forms (256 of them).  The day-3 universe is built from antichain pairs
over the 22 day-2 values, which reaches every value born by day 3.  The
random day-4 forms draw options from a seeded pool of day-3 forms, so
every run sees the same positions.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from diamondcgt.engine import Engine
from diamondcgt.notation import format_canonical
from diamondcgt.values import Dyadic, ValueClass, ValueKind

import oracle


@pytest.fixture(scope="session")
def engine():
    return Engine()


def _subsets(items):
    out = [()]
    for item in items:
        out.extend([s + (item,) for s in out])
    return out


@pytest.fixture(scope="session")
def capped_python():
    """Run Python source in a child whose address space is capped at
    512 MB, with the package's source on its path: a check that would
    take gigabytes fails there at once with MemoryError instead of taking
    the host's memory."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    cap = "import resource\nresource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))\n"

    def run(code, *argv):
        return subprocess.run(
            [sys.executable, "-c", cap + code, *argv], env=env,
            capture_output=True, text=True, timeout=60,
        )

    return run


@pytest.fixture(scope="session")
def day1_forms(engine):
    zero = engine.zero
    return (
        zero,
        engine.intern((zero,), ()),
        engine.intern((), (zero,)),
        engine.intern((zero,), (zero,)),
    )


@pytest.fixture(scope="session")
def day2_forms(engine, day1_forms):
    return tuple(
        engine.intern(left, right)
        for left in _subsets(day1_forms)
        for right in _subsets(day1_forms)
    )


def _structural_order(engine, games):
    """Games sorted by birthday, then by canonical text.

    Canonical text does not depend on intern history, so the order does
    not depend on which tests interned nodes first, and seeded samples of
    the universes draw the same positions in every run.
    """

    def key(g):
        return engine.birthday(g), format_canonical(engine, g)

    return tuple(sorted(games, key=key))


@pytest.fixture(scope="session")
def day2_values(engine, day2_forms):
    return _structural_order(engine, {engine.canonical_form(g) for g in day2_forms})


@pytest.fixture(scope="session")
def day2_antichains(engine, day2_values):
    """Every option set usable in a canonical day-3 form, empty included."""
    found = []

    def extend(index, acc):
        if index == len(day2_values):
            found.append(tuple(acc))
            return
        candidate = day2_values[index]
        if all(
            engine.compare(candidate, other).symbol == "||" for other in acc
        ):
            acc.append(candidate)
            extend(index + 1, acc)
            acc.pop()
        extend(index + 1, acc)

    extend(0, [])
    return tuple(found)


@pytest.fixture(scope="session")
def day3_forms(engine, day2_antichains):
    return tuple(
        engine.intern(left, right)
        for left in day2_antichains
        for right in day2_antichains
    )


@pytest.fixture(scope="session")
def day3_values(engine, day3_forms):
    return _structural_order(engine, {engine.canonical_form(g) for g in day3_forms})


@pytest.fixture(scope="session")
def random_day4_forms(engine, day2_forms):
    rng = random.Random(20260815)
    pool3 = [
        engine.intern(
            tuple(rng.sample(day2_forms, rng.randint(0, 3))),
            tuple(rng.sample(day2_forms, rng.randint(0, 3))),
        )
        for _ in range(400)
    ]
    pool = list(day2_forms) + pool3
    return tuple(
        engine.intern(
            tuple(rng.sample(pool, rng.randint(0, 3))),
            tuple(rng.sample(pool, rng.randint(0, 3))),
        )
        for _ in range(1000)
    )


@pytest.fixture(scope="session")
def to_oracle(engine):
    """Translate an interned position into the oracle's representation."""
    memo: dict = {}

    def convert(g: int) -> oracle.OGame:
        cached = memo.get(g)
        if cached is None:
            cached = oracle.OGame(
                [convert(x) for x in engine.left_options(g)],
                [convert(x) for x in engine.right_options(g)],
            )
            memo[g] = cached
        return cached

    return convert


@pytest.fixture
def failing_laws(monkeypatch):
    """Break the sweep's laws: 1 is not a simple value, no game an integer.

    Returns the rejected value.  It is not its own negative, so a sweep
    that mixed up Left and Right would flag the wrong states.
    """
    in_pair_set = ValueClass.in_pair_set
    one = ValueClass(ValueKind.NUMBER, number=Dyadic(1))
    monkeypatch.setattr(
        ValueClass,
        "in_pair_set",
        lambda self, system: self != one and in_pair_set(self, system),
    )
    monkeypatch.setattr(Engine, "as_number", lambda self, g, system=None: None)
    return one
