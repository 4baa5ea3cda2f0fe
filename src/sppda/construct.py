"""Shared-and-private PDAs: the two-array construction, validity (D1, the
grid's C1-C3, and D2, the helper all-star rows), and closed-form code counts
for the two family pairings.

With phi(w) the number of codes in an array's first w columns, a_n =
phi2(L_n) and a_{Lambda+1} = 0, S = sum_n phi1(n) (a_n - a_{n+1})
(``s_from_phi``).  ``s_count`` and ``block_tables`` read phi off the arrays'
code columns, the closed forms off the families' records: C(k, t+1) -
C(k-w, t+1) for MaN(k, t), q^{m-1}(q-1) min(w, q) for ConstructionA(q, m).

``SpPdaArray`` is the one record of an SP-PDA, and its constructor owns D2:
an invalid array raises an error whose ``violations`` name each failure
(``InvalidPdaError`` for D1, ``InsufficientStarRowsError`` for D2), which
``verify_sppda`` returns instead.  ``_column_helpers`` is the one
user-to-helper map, read by placement and by ``group_star_masks``.
"""

from __future__ import annotations

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
    check_bijection,
    check_cells,
    construction_a_closed_form,
    man_closed_form,
    phi,
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


def s_weights(a) -> list[int]:
    """The weights a_n - a_{n+1} >= 0 of phi1(1..Lambda) in S (a_{Lambda+1} = 0)."""
    return list(map(operator.sub, a, (*a[1:], 0)))


def s_from_phi(phi1, phi2, parts) -> int:
    """S = sum_n phi1(n) (a_n - a_{n+1}), a_n = phi2(L_n) for the widths
    ``parts``: p1's phi1(n) - phi1(n-1) codes with first column n each take a
    slice of a_n codes.  ``phi1`` and ``phi2`` map a width to phi there (a
    ``ClosedForm``'s ``phi``, or ``arrays.phi(...).__getitem__``)."""
    return sum(map(operator.mul, map(phi1, range(1, len(parts) + 1)),
                   s_weights(list(map(phi2, parts)))))


class _FirstShare:
    """p1's share of ``block_tables``, built once for any number of second
    arrays: phi(1..Lambda) and each column's star count, from p1's tables."""

    def __init__(self, p1: PdaArray | ManTables, profile: AssociationProfile):
        check_pair(p1, None, profile)
        self.p1 = p1
        self.phi = phi(p1)[1:]
        self.star_counts = list(map(int.bit_count, p1.star_masks))

    def tables(self, second: tuple) -> BlockTables:
        """``block_tables(p1, p2, profile)`` from ``_second_share(p2, profile)``."""
        p1, (f2, z2, weights, g2) = self.p1, second
        stars = tuple(c * f2 + (p1.f - c) * g for c, g in zip(self.star_counts, g2))
        return BlockTables(p1.f * f2, p1.z * f2 + (p1.f - p1.z) * z2, p1.z * f2,
                           sum(map(operator.mul, self.phi, weights)), stars)


def _second_share(p2: PdaArray | ManTables, profile: AssociationProfile) -> tuple:
    """p2's share of ``block_tables``, built once for any number of first arrays:
    F2, Z2, ``s_weights`` of its phi at the group widths, and g2 at each."""
    check_pair(None, p2, profile)
    g2 = (p2.f, *map(int.bit_count, itertools.accumulate(p2.star_masks, operator.and_)))
    return (p2.f, p2.z, s_weights(list(map(phi(p2).__getitem__, profile.parts))),
            list(map(g2.__getitem__, profile.parts)))


def s_count(p1: PdaArray, p2: PdaArray, profile: AssociationProfile) -> int:
    """Distinct-code count of the constructed SP-PDA: ``s_from_phi`` of the arrays' phi."""
    check_pair(p1, p2, profile)
    return s_from_phi(phi(p1).__getitem__, phi(p2).__getitem__, profile.parts)


def block_tables(p1: PdaArray, p2: PdaArray, profile: AssociationProfile) -> BlockTables:
    """The tables of ``construct_sppda(p1, p2, profile)``, from p1's and p2's
    tables alone.  S is ``s_from_phi``: each code s of p1 relabels (see
    ``construct_sppda``) the codes of p2's first L_{xi(s)} columns onto its
    own slice, and its first column is its widest.

    Row f1 of p1 becomes a disjoint stripe of F2 rows.  Group lambda, of
    width w, is all-star in a stripe where p1's column lambda has a star,
    and elsewhere in the g2(w) rows where p2's first w columns all have
    stars (the AND of their star masks; g2(0) = F2).  So with c_lambda the
    stars of p1's column lambda it has c_lambda*F2 + (F1 - c_lambda)*g2(w)
    all-star rows.  p1 and p2 may also be ``arrays.man_tables`` records."""
    return _FirstShare(p1, profile).tables(_second_share(p2, profile))


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
    check_pair(p1, p2, profile)
    check_cells("the construction", p1.f * p2.f * profile.num_users)
    parts = profile.parts
    # per code, the bit of its first column: for p1's code s, L_{xi(s)} is its width
    first1, first2 = ([m & -m for m in p.code_columns] for p in (p1, p2))
    widths = list(map((0, *parts).__getitem__, map(int.bit_length, first1)))
    # per width w, ranks[w][c] is the 1-based place of p2's code c among the codes in
    # p2's first w columns, ascending, for each such c; ranks[w][-1] is phi2(w)
    ranks = {w: list(itertools.accumulate(map((1 << w).__gt__, first2), initial=0))
             for w in set(widths)}
    relabels = []
    offset = 0
    for width in widths:
        relabel = list(map(offset.__add__, ranks[width]))
        relabel[STAR] = STAR
        relabels.append(relabel)
        offset += ranks[width][-1]
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


def check_users(profile: AssociationProfile) -> int:
    """L_1, refused with ``ParameterError`` when the profile has no users: its
    empty largest group leaves the second array MaN(L_1, t2) undefined."""
    if not (l1 := profile.part(1)):
        raise ParameterError(f"profile {','.join(map(str, profile.parts))} has no users: "
                             f"its largest group L_1 is empty")
    return l1


def _check_groups(profile: AssociationProfile, k: int) -> None:
    if profile.num_groups != k:
        raise ProfileMismatchError(f"profile has {profile.num_groups} parts, expected {k}")
    check_users(profile)


def s_closed_form_man(num_helpers: int, t1: int, profile: AssociationProfile, t2: int) -> int:
    """Closed-form S for the MaN(Lambda, t1) x MaN(L_1, t2) pairing."""
    _check_groups(profile, num_helpers)
    return s_from_phi(man_closed_form(num_helpers, t1).phi,
                      man_closed_form(profile.part(1), t2).phi, profile.parts)


def s_closed_form_construction_a(q: int, m: int, profile: AssociationProfile, t2: int) -> int:
    """Closed-form S for the ConstructionA(q, m) x MaN(L_1, t2) pairing
    (canonical column order of the first PDA)."""
    _check_groups(profile, q * (m + 1))
    return s_from_phi(construction_a_closed_form(q, m).phi,
                      man_closed_form(profile.part(1), t2).phi, profile.parts)
