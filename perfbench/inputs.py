"""Seeded input generators for the three workloads.

Everything here is pure text and ints built from ``random.Random(seed)``:
the program under test only ever sees graph-file text, braces text and
plain ints, and the same seed always gives the same inputs.  The sweep is
exhaustive, so it takes no generated input at all.
"""

from __future__ import annotations

import os
import random

# solve: the batch has a fixed shape and the seed only renames it.  The
# boards are stratified by (variant, ladder length, doubled rungs), and
# their rung choices and token placements come from one fixed generator
# (LAYOUT_SEED).  The run's seed renumbers each board's vertices,
# reorders its edge lines and shuffles the batch.  A renumbered board is the
# same game, with the same states and the same search, so every seed asks
# for the same work: the board latencies, the tail among them too, then
# differ across seeds only by the host's speed, not by which boards a seed
# happened to draw.
# The yashima 2x6 boards cost 0.2-0.7 s each, the rest 3-200 ms, so that
# stratum of each doubled-rung count gets 2 boards and every other one 7:
# 112 boards, enough for a p90 tail with ten beyond it, in a pass of about
# 7 s, which leaves room for three to five passes a run.
LADDER_LENGTHS = (4, 5, 6)
DOUBLED_RUNGS = (0, 1, 2)
VARIANTS = ("yashima", "tron")
BOARDS_PER_STRATUM = 7
HEAVY_STRATUM = ("yashima", 6)
HEAVY_BOARDS = 2
LAYOUT_SEED = 2509
LADDER_FILE = os.path.join("graphs", "ladder_2x5.graph")

# forms: day-4 positions whose options come from day-2 forms and a seeded
# pool of day-3 forms, the same recipe the test suite uses for its random
# day-4 universe
DAY3_POOL = 400
FORM_ITEMS = 2500
MAX_OPTIONS = 3
DAY3_VALUES = 1474
PAIR_SAMPLE = 300


def ladder_edges(rng: random.Random, length: int, doubled: int) -> tuple[list, int, int]:
    """A 2 x length ladder with ``doubled`` rungs present twice, and both
    tokens on distinct random vertices: (edges, left, right)."""
    top = [(i, i + 1) for i in range(length - 1)]
    bottom = [(length + i, length + i + 1) for i in range(length - 1)]
    rungs = [(i, length + i) for i in range(length)]
    extra = [(r, length + r) for r in sorted(rng.sample(range(length), doubled))]
    left, right = rng.sample(range(2 * length), 2)
    return top + bottom + rungs + extra, left, right


def board_text(rng: random.Random, edges: list, left: int, right: int, variant: str,
               vertices: int) -> str:
    """Graph-file text of the board with its vertices renumbered and its
    edge lines reordered by ``rng``."""
    name = rng.sample(range(vertices), vertices)
    renamed = [(name[u], name[v]) for u, v in edges]
    rng.shuffle(renamed)
    lines = [
        "variant %s" % variant,
        "vertices %d" % vertices,
        "L %d" % name[left],
        "R %d" % name[right],
    ]
    lines.extend("e %d %d" % edge for edge in renamed)
    return "\n".join(lines) + "\n"


def boards_per_stratum(variant: str, length: int) -> int:
    return HEAVY_BOARDS if (variant, length) == HEAVY_STRATUM else BOARDS_PER_STRATUM


def solve_inputs(seed: int, root: str) -> dict:
    """The fixed ladder batch, renamed by the seed, plus the shipped 2x5
    ladder, shuffled."""
    layout = random.Random(LAYOUT_SEED)
    rng = random.Random(seed)
    boards = [
        board_text(rng, *ladder_edges(layout, length, doubled), variant, 2 * length)
        for variant in VARIANTS
        for length in LADDER_LENGTHS
        for doubled in DOUBLED_RUNGS
        for _ in range(boards_per_stratum(variant, length))
    ]
    with open(os.path.join(root, LADDER_FILE), encoding="utf-8") as handle:
        boards.append(handle.read())
    # spread every stratum over the whole pass, so that each latency
    # percentile samples the host's speed at many moments, not in one stretch
    rng.shuffle(boards)
    return {"boards": boards}


def _subsets(items):
    out = [()]
    for item in items:
        out.extend([s + (item,) for s in out])
    return out


def _braces(left, right) -> str:
    return "{%s|%s}" % (",".join(left), ",".join(right))


def _random_form(rng: random.Random, pool: list) -> str:
    return _braces(
        rng.sample(pool, rng.randint(0, MAX_OPTIONS)),
        rng.sample(pool, rng.randint(0, MAX_OPTIONS)),
    )


def forms_inputs(seed: int, root: str) -> dict:
    """Day-4 braces texts for the pipeline, and index pairs into the sorted
    day-3 values for the oracle's sampled comparisons."""
    rng = random.Random(seed)
    day1 = ("0", "1", "-1", "*")
    day2 = [_braces(l, r) for l in _subsets(day1) for r in _subsets(day1)]
    pool = day2 + [_random_form(rng, day2) for _ in range(DAY3_POOL)]
    items = [_random_form(rng, pool) for _ in range(FORM_ITEMS)]
    pairs = [sorted(rng.sample(range(DAY3_VALUES), 2)) for _ in range(PAIR_SAMPLE)]
    return {"items": items, "pairs": pairs}


def sweep_inputs(seed: int, root: str) -> dict:
    return {}


MAKERS = {"sweep": sweep_inputs, "solve": solve_inputs, "forms": forms_inputs}


def make(workload: str, seed: int, root: str) -> dict:
    return MAKERS[workload](seed, root)
