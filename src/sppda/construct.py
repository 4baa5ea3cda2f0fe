"""Shared-and-private PDAs: the two-array construction, validity (D1, the
grid's C1-C3, and D2, the helper all-star rows), and closed-form code counts
for the two family pairings.

``SpPdaArray`` is the one record of an SP-PDA.  The parameters (K, Lambda,
L, F, Z, Z^(h), S) are read off it: K, F, Z and S from ``pda``, Lambda and L
from ``profile``, Z^(h) from ``helper_stars``; ``rate``, ``mh_ratio`` and
``mp_ratio`` derive from them.  ``_column_helpers`` is the one user-to-helper
map, read by ``SpPdaArray.helpers`` (and so by placement) and by
``group_star_masks``.

``SpPdaArray``'s constructor owns D2: an invalid array raises an error whose
``violations`` name each failure, ``InvalidPdaError`` from ``PdaArray`` for
D1 and ``InsufficientStarRowsError`` for D2.  ``verify_sppda`` returns the
same violations instead of raising them.
"""

from __future__ import annotations

import collections
import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .arrays import (
    STAR,
    AssociationProfile,
    InvalidPdaError,
    ManTables,
    ParameterError,
    PdaArray,
    Violation,
    binom,
    check_bijection,
    check_cells,
)


class ProfileMismatchError(ParameterError):
    pass


class DimensionMismatchError(ParameterError):
    pass


@dataclass(frozen=True)
class GroupFailure:
    group: int  # 1-based helper index
    star_rows: int  # all-star rows found
    needs: int  # the requested Z^(h), more than ``star_rows``

    def __str__(self) -> str:
        return f"D2: group {self.group} has {self.star_rows} all-star rows, needs {self.needs}"


class InsufficientStarRowsError(ParameterError):
    """Condition D2 failed; ``violations`` lists every helper group short of Z^(h)."""

    def __init__(self, violations: tuple[GroupFailure, ...]):
        self.violations = violations
        super().__init__("; ".join(map(str, violations)))


def check_helper_stars(group_stars, zh: int) -> None:
    """Condition D2: raise ``InsufficientStarRowsError`` unless every helper
    group has at least Z^(h) all-star rows, given each group's count of them."""
    failures = tuple(GroupFailure(n, stars, zh)
                     for n, stars in enumerate(group_stars, start=1) if stars < zh)
    if failures:
        raise InsufficientStarRowsError(failures)


@dataclass(frozen=True)
class SpPdaArray:
    """A PDA together with a profile, helper-star count, and a column grouping,
    checked on construction: profile sum K, 0 <= Z^(h) <= F, bijection, D2.

    ``grouping`` maps old 0-based column index to its 0-based position in the
    grouped order (None means identity: columns are already consecutive groups
    of sizes L_1, ..., L_Lambda).
    """

    pda: PdaArray
    profile: AssociationProfile
    helper_stars: int
    grouping: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.profile.num_users != self.pda.k:
            raise ProfileMismatchError(
                f"profile sums to {self.profile.num_users}, grid has {self.pda.k} columns")
        if not 0 <= self.helper_stars <= self.pda.f:
            raise ParameterError(f"Z^(h)={self.helper_stars} not in [0, F={self.pda.f}]")
        if self.grouping is not None:
            check_bijection(self.grouping, self.pda.k, "grouping")
        check_helper_stars(map(int.bit_count, self.group_masks), self.helper_stars)

    @cached_property
    def group_masks(self) -> tuple[int, ...]:
        """Per helper group, the bitmask of its all-star rows (``group_star_masks``)."""
        return group_star_masks(self.pda.star_masks, self.pda.f, self.profile.parts, self.grouping)

    @cached_property
    def helpers(self) -> tuple[int, ...]:
        """Per 0-based column (user), its 1-based helper."""
        return _column_helpers(self.profile.parts, self.grouping)

    @property
    def rate(self) -> Fraction:
        """S/F."""
        return Fraction(self.pda.s, self.pda.f)

    @property
    def mh_ratio(self) -> Fraction:
        """Z^(h)/F, the helper memory ratio."""
        return Fraction(self.helper_stars, self.pda.f)

    @property
    def mp_ratio(self) -> Fraction:
        """(Z - Z^(h))/F, the private memory ratio."""
        return Fraction(self.pda.z - self.helper_stars, self.pda.f)


def _column_helpers(parts: tuple[int, ...], grouping: tuple[int, ...] | None) -> tuple[int, ...]:
    """The one user-to-helper map: per 0-based column, the 1-based helper whose
    consecutive run of ``parts`` in the grouped column order holds the
    column's position (``grouping``, None for identity)."""
    by_position = tuple(n for n, width in enumerate(parts, start=1) for _ in range(width))
    return by_position if grouping is None else tuple(map(by_position.__getitem__, grouping))


def group_star_masks(star_masks: tuple[int, ...], f: int, parts: tuple[int, ...],
                     grouping: tuple[int, ...] | None = None) -> tuple[int, ...]:
    """Condition D2's counts: per helper group, the bitmask (bit j-1 for row j)
    of the rows that are stars in every column of the group, from per-column
    star masks over F rows.  Groups are the consecutive runs of sizes
    ``parts`` in the grouped column order; an empty group keeps every row."""
    masks = [(1 << f) - 1] * len(parts)
    for mask, n in zip(star_masks, _column_helpers(parts, grouping)):
        masks[n - 1] &= mask
    return tuple(masks)


def verify_sppda(rows, profile: AssociationProfile, zh: int,
                 grouping: tuple[int, ...] | None = None) -> tuple[Violation | GroupFailure, ...]:
    """The grid's C1-C3 violations if it has any, otherwise the helper groups
    that fail D2 under the profile, Z^(h) and grouping (default identity),
    otherwise (): the ``SpPdaArray`` constructor's check, with the violations
    returned instead of raised.  A bad profile, Z^(h) or grouping raises."""
    try:
        SpPdaArray(PdaArray(rows), profile, zh, grouping)
    except (InvalidPdaError, InsufficientStarRowsError) as exc:
        return exc.violations
    return ()


def check_pair(p1: PdaArray | ManTables | None, p2: PdaArray | ManTables | None,
               profile: AssociationProfile) -> None:
    """Raise ``DimensionMismatchError`` unless p1 (when given) has one column
    per helper group and p2 (when given) one column per user of the largest
    group."""
    if p1 is not None and p1.k != profile.num_groups:
        raise DimensionMismatchError(
            f"first PDA has {p1.k} columns, profile has {profile.num_groups} groups")
    if p2 is not None and p2.k != profile.part(1):
        raise DimensionMismatchError(
            f"second PDA has {p2.k} columns, largest group is {profile.part(1)}")


@dataclass(frozen=True)
class BlockTables:
    """The block product of two PDAs under a profile, without its rows: F, Z,
    Z^(h), the distinct-code count S, and per helper group the count of its
    all-star rows, the bit counts of ``SpPdaArray.group_masks``."""

    f: int
    z: int
    zh: int
    s: int
    group_stars: tuple[int, ...]


def _in_first(p2: PdaArray | ManTables, width: int):
    """Per code of p2, whether it is in p2's first ``width`` columns."""
    return map(bool, map(operator.and_, p2.code_columns, itertools.repeat((1 << width) - 1)))


class _FirstShare:
    """The first array's share of the block product under a profile, built
    once for any number of second arrays: per code s of p1 its width
    L_{xi(s)}, read through the parts at the lowest bit of its column mask;
    the count of codes of each width; and the star count of each of p1's
    columns.  It and ``tables`` read only each array's k, f, z,
    ``star_masks`` and ``code_columns``, so either array may be a
    ``PdaArray`` or MaN's ``ManTables``."""

    def __init__(self, p1: PdaArray | ManTables, profile: AssociationProfile):
        check_pair(p1, None, profile)
        self.p1, self.profile = p1, profile
        by_bit, masks = (0, *profile.parts), p1.code_columns
        lowest = map(int.bit_length, map(operator.and_, masks, map(operator.neg, masks)))
        self.widths = list(map(by_bit.__getitem__, lowest))
        self.counts = collections.Counter(self.widths)
        self.star_counts = list(map(int.bit_count, p1.star_masks))

    def s_count(self, p2: PdaArray | ManTables) -> int:
        """``s_count(p1, p2, profile)``: each of p1's codes of width w takes a
        slice of phi2(w) codes, the codes of p2's first w columns."""
        check_pair(None, p2, self.profile)
        return sum(count * sum(_in_first(p2, w)) for w, count in self.counts.items())

    def tables(self, p2: PdaArray | ManTables) -> BlockTables:
        """``block_tables(p1, p2, profile)``."""
        p1, f2 = self.p1, p2.f
        s = self.s_count(p2)
        # indexed by width: the rows where p2's first w columns all have stars
        g2 = (f2, *map(int.bit_count, itertools.accumulate(p2.star_masks, operator.and_)))
        stars = tuple(c * f2 + (p1.f - c) * g2[w]
                      for c, w in zip(self.star_counts, self.profile.parts))
        return BlockTables(p1.f * f2, p1.z * f2 + (p1.f - p1.z) * p2.z, p1.z * f2, s, stars)


def s_count(p1: PdaArray, p2: PdaArray, profile: AssociationProfile) -> int:
    """Distinct-code count of the constructed SP-PDA, without materializing it."""
    return _FirstShare(p1, profile).s_count(p2)


def block_tables(p1: PdaArray, p2: PdaArray, profile: AssociationProfile) -> BlockTables:
    """The tables of ``construct_sppda(p1, p2, profile)``, from p1's and p2's
    tables alone.  S is ``s_count``, the sum of the slice sizes: for each
    code s of p1 the construction writes its relabel (see
    ``construct_sppda``) of the codes in its domain, p2's first L_{xi(s)}
    columns.  The domain and the rank table come from the same column mask,
    so the relabel maps the domain onto all of s's slice, and the slices are
    disjoint.  (A block of s is cut to the width of its p1 column, and the
    profile is non-increasing, so s's first column is its widest and the
    domains of its other columns lie inside that one.)

    Row f1 of p1 becomes a stripe of F2 rows of the product, and the stripes
    are disjoint.  Group lambda, of width w, is all-star in every row of a
    stripe where p1's column lambda has a star, and, in a stripe where it has
    a code, in the rows where p2's first w columns all have stars, the AND of
    their star masks, whose bit count is ``g2(w)``.  Each stripe adds its own
    rows and no stripe's rows are counted twice, so with c_lambda the stars
    of p1's column lambda the group has c_lambda*F2 + (F1 - c_lambda)*g2(w)
    all-star rows.  A zero-width group has ``g2(0) = F2``, the AND of no
    masks, and so keeps all F rows.  As only these tables are read, p1 and
    p2 may also be ``arrays.man_tables`` records, as ``analysis.sweep``
    passes."""
    return _FirstShare(p1, profile).tables(p2)


def construct_sppda(p1: PdaArray, p2: PdaArray, profile: AssociationProfile) -> SpPdaArray:
    """Build the F1*F2 x K SP-PDA from a Lambda-column PDA and an L_1-column PDA.

    The result is a block product: row (f1, f2) is the concatenation, over p1's
    columns lambda with L_lambda > 0, of an L_lambda-wide block.  A star of p1
    gives an all-star block; a code s of p1 gives row f2 of p2 cut to L_lambda
    columns, renumbered by s's relabel: a lookup list that maps STAR to STAR
    and p2's code c to ``offset + ranks[L_{xi(s)}][c]``, in the slice of [S]
    reserved for s.  The slices follow each other in the order of p1's codes;
    s's slice holds, ascending, the codes of p2's first L_{xi(s)} columns, its
    domain, and s's blocks, at most L_{xi(s)} wide, hold no other p2 code.
    Each width's cut of p2 is one flat list, so the rows of a p1 row are
    assembled by ``map``/``zip`` over those lists without a Python step per
    cell.  The grid is checked by ``PdaArray``, which also builds its tables.
    A result of more than ``MAX_CELLS`` cells raises before any row is built.
    """
    first = _FirstShare(p1, profile)
    check_pair(None, p2, profile)
    check_cells("the construction", p1.f * p2.f * profile.num_users)
    # per width w, ranks[w][c] is the 1-based place of p2's code c among the codes in
    # p2's first w columns, ascending, for each such c; ranks[w][-1] is phi2(w)
    ranks = {w: list(itertools.accumulate(_in_first(p2, w), initial=0)) for w in first.counts}
    relabels = []
    offset = 0
    for width in first.widths:
        relabel = list(map(offset.__add__, ranks[width]))
        relabel[STAR] = STAR
        relabels.append(relabel)
        offset += ranks[width][-1]
    parts = profile.parts
    cut = {w: list(itertools.chain.from_iterable(row[:w] for row in p2.grid))
           for w in set(parts) if w}
    stars = {w: (STAR,) * w for w in cut}
    rows: list[tuple[int, ...]] = []
    for p1_row in p1.grid:
        blocks = [itertools.repeat(stars[w], p2.f) if e == STAR
                  else zip(*[map(relabels[e - 1].__getitem__, cut[w])] * w)
                  for e, w in zip(p1_row, parts) if w]
        rows.extend(map(tuple, map(itertools.chain.from_iterable, zip(*blocks))))
    return SpPdaArray(PdaArray(rows), profile, p1.z * p2.f)


def s_closed_form_man(num_helpers: int, t1: int, profile: AssociationProfile, t2: int) -> int:
    """Closed-form S for the MaN(Lambda, t1) x MaN(L_1, t2) pairing."""
    if profile.num_groups != num_helpers:
        raise ProfileMismatchError(f"profile has {profile.num_groups} parts, expected {num_helpers}")
    l1 = profile.part(1)
    if not 0 <= t1 <= num_helpers or not 0 <= t2 <= l1:
        raise ParameterError(f"t1={t1}, t2={t2} out of range for Lambda={num_helpers}, L1={l1}")
    total = 0
    for n in range(1, num_helpers - t1 + 1):
        ln = profile.part(n)
        total += binom(num_helpers - n, t1) * (binom(l1, t2 + 1) - binom(l1 - ln, t2 + 1))
    return total


def s_closed_form_construction_a(q: int, m: int, profile: AssociationProfile, t2: int) -> int:
    """Closed-form S for the ConstructionA(q, m) x MaN(L_1, t2) pairing
    (canonical column order of the first PDA)."""
    if profile.num_groups != q * (m + 1):
        raise ProfileMismatchError(
            f"profile has {profile.num_groups} parts, expected q(m+1)={q * (m + 1)}")
    l1 = profile.part(1)
    if q < 2 or m < 1 or not 0 <= t2 <= l1:
        raise ParameterError(f"bad parameters q={q}, m={m}, t2={t2}")
    inner = sum(binom(l1, t2 + 1) - binom(l1 - profile.part(n), t2 + 1) for n in range(1, q + 1))
    return q ** (m - 1) * (q - 1) * inner
