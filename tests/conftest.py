"""Shared golden arrays and random-instance generators for the test suite."""

import gc
import importlib.util
import random
from pathlib import Path

import pytest

from sppda.arrays import (
    AssociationProfile,
    PdaArray,
    canonicalize_codes,
    construction_a_pda,
    man_pda,
    permute_columns,
)
from sppda.textio import _grid


def load_script(name):
    """The module of ``scripts/<name>.py``, which is not a package."""
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def grid(text):
    """Parse a bare grid: rows of '*' / integer tokens, blank lines ignored."""
    return _grid(line.split() for line in text.splitlines())


# The 7-parameter (5, 2, (3,2), 6, 4, 3, 3) array built from the 2-user and
# 3-user MaN PDAs; the running example for construction and simulation.
GOLDEN_SP = grid("""
* * * * 1
* * * 1 *
* * * 2 3
* 1 2 * *
1 * 3 * *
2 3 * * *
""")

GOLDEN_SP_TEXT = (
    "sppda 5 2 6 4 3 3\n"
    "L: 3 2\n"
    "pi: id\n"
    "* * * * 1\n"
    "* * * 1 *\n"
    "* * * 2 3\n"
    "* 1 2 * *\n"
    "1 * 3 * *\n"
    "2 3 * * *\n"
)

# A hand-built (4, 2, 1, 2) PDA whose code labels differ from the canonical
# family member with the same parameters.
SMALL_P2 = grid("""
* 1 * 2
1 * 2 *
""")

# construct_sppda(man_pda(3, 1), SMALL_P2, (4, 2, 1)) must equal this.
SMALL_Q = grid("""
* * * * * 1 *
* * * * 1 * 3
* 1 * 2 * * *
1 * 2 * * * 5
* 3 * 4 * 5 *
3 * 4 * 5 * *
""")

# A (6, 4, 2, 4) / (6, 3, 1, 6) pair whose pairing under profile
# (6, 3, 2, 1, 1, 1) is sensitive to column order: S ranges over [18, 24].
WIDE_P1 = grid("""
* 3 * 2 * 1
1 * * 4 3 *
* 4 1 * 2 *
2 * 3 * * 4
""")

WIDE_P2 = grid("""
* 3 5 * 1 2
1 * 6 3 * 4
2 4 * 5 6 *
""")

# Column-reordered versions of the pair above attaining the minimum S = 18.
WIDE_P1_OPT = grid("""
* * * 1 2 3
1 * 3 * 4 *
* 1 2 * * 4
2 3 * 4 * *
""")

WIDE_P2_OPT = grid("""
* 1 2 5 3 *
1 * 4 6 * 3
2 6 * * 4 5
""")

# Old 0-based column -> new 0-based position, WIDE_P1 -> WIDE_P1_OPT etc.
WIDE_P1_PERM = (0, 5, 1, 4, 2, 3)
WIDE_P2_PERM = (0, 4, 3, 5, 1, 2)

WIDE_PROFILE = AssociationProfile((6, 3, 2, 1, 1, 1))

# Pairing WIDE_P1 with WIDE_P2 (identity order) gives this 12 x 14 array.
WIDE_Q = grid("""
* * * * * * * 15 17 * * * * *
* * * * * * 13 * 18 * * 7 * 1
* * * * * * 14 16 * * * 8 * 2
* 3 5 * 1 2 * * * * * * * *
1 * 6 3 * 4 * * * * * 19 13 *
2 4 * 5 6 * * * * * * 20 14 *
* * * * * * * 21 23 * 3 * * *
* * * * * * 19 * 24 1 * * 7 *
* * * * * * 20 22 * 2 4 * 8 *
* 9 11 * 7 8 * * * * 15 * * *
7 * 12 9 * 10 * * * 13 * * * 19
8 10 * 11 12 * * * * 14 16 * * 20
""")

# Pairing the reordered WIDE_P1_OPT with WIDE_P2_OPT gives this one (S = 18).
WIDE_Q_OPT = grid("""
* * * * * * * * * * * * * *
* * * * * * * * * * * 1 7 13
* * * * * * * * * * * 2 8 14
* 1 2 5 3 * * * * * 13 * * *
1 * 4 6 * 3 * * * 13 * * 17 *
2 6 * * 4 5 * * * 14 16 * 18 *
* * * * * * * 1 2 * 7 * * *
* * * * * * 1 * 4 7 * * * 17
* * * * * * 2 6 * 8 12 * * 18
* 7 8 11 9 * * 13 14 * * * * *
7 * 10 12 * 9 13 * 15 * * 17 * *
8 12 * * 10 11 14 16 * * * 18 * *
""")


def random_pda(rng: random.Random, max_cols: int, max_rows: int) -> PdaArray:
    """A valid random PDA: a family member restricted to a random column
    subset (codes recanonicalized) and then column-permuted."""
    while True:
        if rng.random() < 0.5:
            k0 = rng.randint(2, 6)
            base = man_pda(k0, rng.randint(0, k0))
        else:
            base = construction_a_pda(rng.randint(2, 3), rng.randint(1, 2))
        if base.f > max_rows:
            continue
        k = rng.randint(1, min(base.k, max_cols))
        cols = sorted(rng.sample(range(base.k), k))
        sub = canonicalize_codes([tuple(row[c] for c in cols) for row in base.grid])
        pda = PdaArray.from_grid(sub)
        perm = list(range(pda.k))
        rng.shuffle(perm)
        return permute_columns(pda, tuple(perm))


def random_profile(rng: random.Random, num_groups: int, largest: int) -> AssociationProfile:
    """A non-increasing profile with the given group count and largest part."""
    rest = sorted((rng.randint(1, largest) for _ in range(num_groups - 1)), reverse=True)
    return AssociationProfile((largest, *rest))


def enumerate_profiles(total: int, length: int, min_part: int = 1):
    """Yield all AssociationProfiles of ``total`` with exactly ``length`` parts."""

    def rec(remaining: int, slots: int, cap: int):
        if slots == 0:
            if remaining == 0:
                yield ()
            return
        lo = max(min_part, -(-remaining // slots))  # ceil keeps parts feasible
        for first in range(min(cap, remaining - min_part * (slots - 1)), lo - 1, -1):
            for rest in rec(remaining - first, slots - 1, first):
                yield (first,) + rest

    for parts in rec(total, length, total):
        yield AssociationProfile(parts)


class _NoItertools:
    def __getattr__(self, name):
        raise AssertionError(f"itertools.{name} called: the rows are being built")


@pytest.fixture
def no_family_rows(monkeypatch):
    """Take ``itertools`` away from ``sppda.arrays``, where the families build
    their rows, so a size check that lets a huge family through fails the
    test at once instead of allocating the family."""
    monkeypatch.setattr("sppda.arrays.itertools", _NoItertools())


# a collector state no test run starts in, so a restored state is told apart
# from one left at the interpreter's default
ODD_GC_THRESHOLD = (1234, 5, 6)


@pytest.fixture
def odd_gc_state():
    """Run the test under ``ODD_GC_THRESHOLD`` with the collector disabled,
    then put back the state it found."""
    thresholds, enabled = gc.get_threshold(), gc.isenabled()
    gc.set_threshold(*ODD_GC_THRESHOLD)
    gc.disable()
    yield
    gc.set_threshold(*thresholds)
    if enabled:
        gc.enable()
