"""Placement delivery arrays: validity checking, column statistics, and the
two canonical families (MaN and Construction A).

A grid is a rectangular tuple-of-tuples of ints where ``STAR`` (0) marks a
cached cell and positive integers are transmission codes.  Rows, columns and
codes are 1-based in every public signature, matching the usual convention
for these arrays; only raw Python indexing into ``grid`` is 0-based.

This module is the only grid index, and ``PdaArray``'s constructor is the
only check of conditions C1-C3.  It normalizes the grid and checks it on one
of two paths.  The accept path, ``_accept``, builds no per-cell object, only
two tables: ``star_masks``, per column the bitmask of its star rows, and
``code_columns``, per code the bitmask of its columns.  Only a grid it
refuses reaches the reject path, ``_violations``, whose cell-level loops
list up to ``MAX_VIOLATIONS`` failures in ``InvalidPdaError.violations``;
``verify_pda`` returns them instead of raising.  ``code_cells``, per code
one flat tuple of its cells' (user, row) ints, is built on first use, for
delivery and decoding only.  The column statistics (``phi``, ``xi``), D2,
placement, delivery, construction and search read these tables, not the
grid.  ``man_tables`` gives MaN's tables straight from its definition, with
no grid.  The families and ``man_tables`` refuse, before building, a grid of
more than ``MAX_CELLS`` cells; their ``ClosedForm`` records have no cap.
"""

from __future__ import annotations

import bisect
import collections
import itertools
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property

STAR = 0

# The most cells a family or a construction may build, about 20 times the
# 201 600-cell MaN(8,4) x MaN(10,3) construction.  The families count their
# rows with r = min(t, K - t) or m cut to _CAP_BITS: C(K, r) >= 2^r and
# q^m >= 2^m, so the cut count passes the cap exactly when the true one does,
# and a huge K or m costs no huge integer.
MAX_CELLS = 1 << 22
_CAP_BITS = MAX_CELLS.bit_length()

# The most violations a refused grid lists.  A small grid can break C2 or C3
# far more often than it has cells: one cell holding code 10^9 leaves 10^9 - 1
# codes absent, and an n x n grid of one code has C(n^2, 2) bad pairs.
MAX_VIOLATIONS = 100

Grid = tuple[tuple[int, ...], ...]
Cells = tuple[int, ...]  # flat (user, row, user, row, ...), 1-based, row-major


class PdaError(ValueError):
    """Base class for array construction / validation errors."""


class NonRectangularError(PdaError):
    pass


class NonPositiveCodeError(PdaError):
    pass


class InvalidPermutationError(PdaError):
    pass


class ParameterError(PdaError):
    pass


class CodeAbsentError(PdaError):
    pass


class InvalidPdaError(PdaError):
    """A grid offered as a PDA failed validation.  ``violations`` keeps the
    first ``MAX_VIOLATIONS``; ``capped`` says whether more were found."""

    def __init__(self, violations: tuple["Violation", ...]):
        self.violations = violations[:MAX_VIOLATIONS]
        self.capped = len(violations) > MAX_VIOLATIONS
        summary = "; ".join(v.detail for v in violations[:5])
        if self.capped:
            summary += f"; ... (stopped at MAX_VIOLATIONS = {MAX_VIOLATIONS})"
        elif len(violations) > 5:
            summary += f"; ... ({len(violations)} total)"
        super().__init__(f"not a valid PDA: {summary}")


def check_cells(what: str, cells: int) -> None:
    """Raise ``ParameterError`` naming the cap if ``cells`` passes ``MAX_CELLS``."""
    if cells > MAX_CELLS:
        raise ParameterError(f"{what} would have more than MAX_CELLS = {MAX_CELLS} cells")


def binom(n: int, k: int) -> int:
    """Binomial coefficient, zero whenever the pair is out of range."""
    if k < 0 or n < 0 or k > n:
        return 0
    return math.comb(n, k)


@dataclass(frozen=True)
class Violation:
    """One failed validity condition, with 1-based coordinates."""

    kind: str  # "C1" | "C2" | "C3a" | "C3b"
    rows: tuple[int, ...]
    cols: tuple[int, ...]
    detail: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.detail} (rows {self.rows}, cols {self.cols})"


def normalize_grid(rows) -> tuple[Grid, set[int]]:
    """Freeze ``rows`` into a Grid, rejecting ragged or negative entries, and
    return it with the set of its distinct entries.  A rectangular grid of
    plain nonnegative ``int``s is accepted at C speed: one type pass over the
    cells, then the set, whose least value is the grid's.  Any other grid
    goes through the per-cell loop, which also accepts ``bool`` and other
    ``int`` subclasses and names the first bad cell in row-major order."""
    grid = tuple(map(tuple, rows))
    if not grid or not grid[0]:
        raise NonRectangularError("grid must have at least one row and column")
    width = len(grid[0])
    chain = itertools.chain.from_iterable
    if {width}.issuperset(map(len, grid)) and {int}.issuperset(map(type, chain(grid))):
        values = set(chain(grid))
        if min(values) >= 0:
            return grid, values
    for j, row in enumerate(grid):
        if len(row) != width:
            raise NonRectangularError(f"row {j + 1} has {len(row)} entries, expected {width}")
        for k, e in enumerate(row):
            if not isinstance(e, int) or e < 0:
                raise NonPositiveCodeError(f"entry at ({j + 1},{k + 1}) is {e!r}; codes must be positive integers")
    return grid, set(chain(grid))


def verify_pda(rows) -> tuple[Violation, ...]:
    """The C1-C3 violations of a grid, empty when it is a PDA: the
    ``PdaArray`` constructor's check, with the violations returned instead of
    raised.  A grid with no codes at all is a degenerate PDA with S = 0."""
    try:
        PdaArray(rows)
    except InvalidPdaError as exc:
        return exc.violations
    return ()


def _row_masks(grid: Grid) -> list[int]:
    """Per row, the bitmask of its code columns (bit c-1 for column c)."""
    bits = [1 << c for c in range(len(grid[0]))]
    return list(map(sum, map(itertools.compress, itertools.repeat(bits), grid)))


_STAR_DIGITS = str.maketrans("01", "10")

_JOIN_ROWS = 1024  # rows whose binary forms ``_star_masks`` joins at a time


def _star_masks(row_masks: list[int], width: int) -> tuple[int, ...]:
    """Per column, the bitmask of its star rows (bit j-1 for row j), read off
    the rows' code-column masks: their ``width``-digit binary forms, joined
    row after row with a star as "1", hold column c's digit of row j at
    ``(j - 1) * width + width - c``, so a slice stepping back ``width`` from
    the last row's digit reads column c from row F down to row 1.  The forms
    are joined ``_JOIN_ROWS`` rows at a time, then the blocks, so a tall
    grid's transposition never holds one string per row."""
    form = itertools.repeat(f"0{width}b")
    digits = "".join(["".join(map(format, row_masks[i:i + _JOIN_ROWS], form))
                      for i in range(0, len(row_masks), _JOIN_ROWS)]).translate(_STAR_DIGITS)
    last = len(digits) - 1
    return tuple(int(digits[last - c::-width], 2) for c in range(width))


def _cells_by_code(grid: Grid, cells):
    """Fill ``cells``, indexed by code, with each code's flat list of its
    cells' (user, row) ints, ``[k1, j1, k2, j2, ...]``, 1-based, in row-major
    order, and return it.  ``cells[e]`` must give code e's list: a list of
    empty lists when the codes are known to be 1..S, a ``defaultdict(list)``,
    keyed in order of first appearance, when they are not.  Each cell costs
    two appends and no other object."""
    for j, row in enumerate(grid, start=1):
        # compress drops the star cells at C speed, about 2/3 of a typical grid
        for k, e in itertools.compress(enumerate(row, start=1), row):
            where = cells[e]
            where.append(k)
            where.append(j)
    return cells


def _accept(grid: Grid, values: set[int]) -> tuple[int, int, tuple[int, ...], tuple[int, ...]] | None:
    """``(z, s, star_masks, code_columns)`` of a grid that meets C1-C3, None
    for any other grid.  ``values`` is the set of the grid's distinct entries
    that ``normalize_grid`` returns; C2 reads its size and largest code, and
    then it is cleared, so its table is freed before the masks are built.
    Builds no per-cell object.  It makes four passes over the cells: the
    rows' code-column masks, which C3 reads; their transposition into star
    masks for C1, through one string of a digit per cell; the column
    scatter, the only per-cell Python step, which sets each code's column
    mask ``cm[e]`` (bit c-1 for column c); and C3's sum, column by column,
    of each code cell's ``cm[e]`` masked by its row's mask.  All but the
    scatter run at C speed, with one Python step per column."""
    values.discard(STAR)
    s, top = len(values), max(values, default=STAR)
    values.clear()
    if top != s:  # C2, before anything of size S is allocated
        return None
    width = len(grid[0])
    row_masks = _row_masks(grid)
    masks = _star_masks(row_masks, width)
    z = masks[0].bit_count()
    if any(mask.bit_count() != z for mask in masks):  # C1
        return None
    cm = [0] * (s + 1)  # cm[STAR] stays 0
    for c, col in enumerate(zip(*grid)):
        bit = 1 << c
        for e in itertools.compress(col, col):
            cm[e] |= bit
    # C3.  A code in g cells spans at most g columns, and exactly g when no
    # two of its cells share a column; the g's sum to the (F - Z) K cells
    # that hold a code.
    if sum(map(int.bit_count, cm)) != (len(grid) - z) * width:
        return None
    # For a cell (k, j) holding e, cm[e] & N_j holds bit k-1, where N_j is the
    # mask of row j's codes, and nothing else exactly when e's other columns
    # are stars in row j.  So the sum over the cells holding codes, taken
    # column by column, equals the sum of the N_j exactly when every crossing
    # cell is a star and no code repeats in a row.
    compress = itertools.compress
    by_column = (sum(map(operator.and_, map(cm.__getitem__, compress(col, col)), compress(row_masks, col)))
                 for col in zip(*grid))
    if sum(by_column) != sum(row_masks):
        return None
    return z, s, masks, tuple(cm[1:])


def _violations(grid: Grid) -> tuple[Violation, ...]:
    """The C1-C3 violations of a grid, by cell-level loops: the reject path,
    run only when ``_accept`` refuses the grid.  It stops after
    ``MAX_VIOLATIONS + 1``, one past the cap, so ``InvalidPdaError`` can tell
    a capped list from a complete one."""
    return tuple(itertools.islice(_each_violation(grid), MAX_VIOLATIONS + 1))


def _each_violation(grid: Grid):
    # C1: equal star count in every column; Z is fixed by column 1.
    masks = _star_masks(_row_masks(grid), len(grid[0]))
    z = masks[0].bit_count()
    for c, mask in enumerate(masks, start=1):
        if mask.bit_count() != z:
            yield Violation("C1", (), (c,),
                            f"column {c} has {mask.bit_count()} stars, column 1 has {z}")

    # C2: the codes present are exactly {1, ..., S}.
    cells = _cells_by_code(grid, collections.defaultdict(list))
    if cells:
        top = max(cells)
        for missing in range(1, top + 1):
            if missing not in cells:
                yield Violation("C2", (), (), f"code {missing} absent but code {top} present")

    # C3: equal codes pairwise occupy distinct rows/columns with stars across.
    for code, where in cells.items():
        it = iter(where)
        for (k1, j1), (k2, j2) in itertools.combinations(zip(it, it), 2):
            if j1 == j2 or k1 == k2:
                yield Violation("C3a", (j1, j2), (k1, k2),
                                f"code {code} repeats in the same row or column")
            elif grid[j1 - 1][k2 - 1] != STAR or grid[j2 - 1][k1 - 1] != STAR:
                yield Violation("C3b", (j1, j2), (k1, k2),
                                f"code {code}: crossing cells are not both stars")


def _lowest_bit(mask: int) -> int:
    """The 1-based index of the lowest set bit of ``mask``, 0 for no bit."""
    return (mask & -mask).bit_length()


def phi(array, perm: tuple[int, ...] | None = None) -> tuple[int, ...]:
    """(phi(0), ..., phi(K)) of a ``PdaArray`` or ``ManTables``, phi(w) being the
    number of codes in the first w columns: those whose lowest column bit is below
    2^w.  After a column permutation ``perm`` (as in ``permute_columns``), the bit
    counts of the union of the codes of the first w columns in the new order."""
    masks, k = array.code_columns, array.k
    if perm is None:
        lowest = sorted(map(operator.and_, masks, map(operator.neg, masks)))
        return (0, *(bisect.bisect_left(lowest, 1 << w) for w in range(1, k + 1)))
    held = _column_codes(array)
    order = sorted(range(k), key=perm.__getitem__)
    return (0, *map(int.bit_count, itertools.accumulate(map(held.__getitem__, order), operator.or_)))


def _column_codes(array) -> tuple[int, ...]:
    """Per 0-based column of a ``PdaArray``, the bitmask of its codes (bit e for
    code e), transposed from ``code_columns`` as ``_star_masks`` transposes
    rows: code e is row e + 1, its code columns the non-stars."""
    masks, k = array.code_columns, array.k
    every = (1 << k) - 1  # bit 0, a code in no column, keeps the transposition non-empty
    return _star_masks([every, *(every ^ m for m in masks)], k)


def mask_rows(mask: int) -> list[int]:
    """The 1-based rows whose bits are set in ``mask``, ascending."""
    return [j for j, bit in enumerate(reversed(bin(mask)[2:]), start=1) if bit == "1"]


@dataclass(frozen=True)
class PdaArray:
    """A (K, F, Z, S) placement delivery array.  The constructor takes only
    the grid and is the one C1-C3 check; K, F, Z, S, ``star_masks`` and
    ``code_columns`` are read off the grid while it checks, so no array
    disagrees with its grid.  ``code_cells`` is built on first use."""

    grid: Grid
    k: int = field(init=False)
    f: int = field(init=False)
    z: int = field(init=False)
    s: int = field(init=False)
    # per 0-based column, the bitmask of its star rows (bit j-1 for row j)
    star_masks: tuple[int, ...] = field(init=False, repr=False, compare=False)
    # per code (index code - 1), the bitmask of its columns (bit c-1 for column c)
    code_columns: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        grid, values = normalize_grid(self.grid)
        tables = _accept(grid, values)
        if tables is None:
            raise InvalidPdaError(_violations(grid))
        z, s, masks, code_columns = tables
        for name, value in (("grid", grid), ("k", len(grid[0])), ("f", len(grid)), ("z", z),
                            ("s", s), ("star_masks", masks), ("code_columns", code_columns)):
            object.__setattr__(self, name, value)

    @classmethod
    def from_grid(cls, rows) -> "PdaArray":
        """The checked array of ``rows``, the same as ``PdaArray(rows)``."""
        return cls(rows)

    @cached_property
    def code_cells(self) -> tuple[Cells, ...]:
        """Per code (index code - 1), one flat tuple of plain ints
        ``(k1, j1, k2, j2, ...)``: its cells as (user, row), 1-based, in
        row-major order.  C2 makes the codes 1..S, so the cells are gathered
        into a list indexed by code, and each code's list is replaced by its
        tuple in place, so the build never holds both forms of a code."""
        cells = _cells_by_code(self.grid, [[] for _ in range(self.s + 1)])
        for e in range(1, self.s + 1):
            cells[e] = tuple(cells[e])
        del cells[STAR]
        return tuple(cells)


def permute_columns(pda: PdaArray, perm) -> PdaArray:
    """Apply a column permutation; ``perm[k]`` is the new 0-based position of
    old 0-based column ``k``.  Parameters are unchanged (equivalent PDA)."""
    perm = tuple(perm)
    check_bijection(perm, pda.k)
    order = _invert(perm)
    return PdaArray(tuple(tuple(row[c] for c in order) for row in pda.grid))


def check_bijection(perm: tuple[int, ...], k: int, what: str = "permutation") -> None:
    """Raise ``InvalidPermutationError`` unless ``perm`` is a bijection on 0..k-1."""
    if sorted(perm) != list(range(k)):
        raise InvalidPermutationError(f"{what} {perm} is not a bijection on 0..{k - 1}")


def _invert(perm: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(perm)
    for old, new in enumerate(perm):
        inv[new] = old
    return tuple(inv)


def xi(pda: PdaArray, code: int) -> int:
    """Smallest 1-based column index in which ``code`` appears."""
    if not 1 <= code <= pda.s:
        raise CodeAbsentError(f"code {code} not in [1, {pda.s}]")
    return _lowest_bit(pda.code_columns[code - 1])


def canonicalize_codes(rows) -> Grid:
    """Renumber codes to 1..S in row-major first-appearance order."""
    grid, _ = normalize_grid(rows)
    first_seen = dict.fromkeys(e for row in grid for e in row if e != STAR)
    relabel = {code: new for new, code in enumerate(first_seen, start=1)}
    return tuple(tuple(relabel.get(e, STAR) for e in row) for row in grid)


def _check_man(k: int, t: int, cells: bool = True) -> None:
    """MaN(k, t)'s parameter check, and its ``MAX_CELLS`` check if ``cells``."""
    if k < 1 or not 0 <= t <= k:
        raise ParameterError(f"need K >= 1 and 0 <= t <= K, got K={k}, t={t}")
    if cells:
        check_cells(f"MaN({k}, {t})", binom(k, min(t, k - t, _CAP_BITS)) * k)


def _check_construction_a(q: int, m: int, cells: bool = True) -> None:
    """Construction A(q, m)'s parameter check, and its ``MAX_CELLS`` check if ``cells``."""
    if q < 2 or m < 1:
        raise ParameterError(f"need q >= 2 and m >= 1, got q={q}, m={m}")
    if cells:
        check_cells(f"Construction A({q}, {m})", q ** min(m, _CAP_BITS) * q * (m + 1))


# A family member's K, F, Z and phi(w) from its checked parameters, with no MAX_CELLS cap.
ClosedForm = collections.namedtuple("ClosedForm", "k f z phi")


def man_closed_form(k: int, t: int) -> ClosedForm:
    """MaN(k, t): phi(w) = C(k, t+1) - C(k-w, t+1), the (t+1)-subsets meeting [w]."""
    _check_man(k, t, cells=False)
    top = binom(k, t + 1)
    return ClosedForm(k, binom(k, t), binom(k - 1, t - 1), lambda w: top - binom(k - w, t + 1))


def construction_a_closed_form(q: int, m: int) -> ClosedForm:
    """Construction A(q, m): phi(w) = q^{m-1}(q-1) min(w, q), as each code's first
    column is one of the first q, each holding F - Z codes no other of them holds."""
    _check_construction_a(q, m, cells=False)
    codes = q ** (m - 1) * (q - 1)
    return ClosedForm(q * (m + 1), q ** m, q ** (m - 1), lambda w: codes * min(w, q))


def man_pda(k: int, t: int) -> PdaArray:
    """The (t+1)-regular MaN PDA with K = k users.

    Rows are the t-subsets of [K] in lexicographic order; the code at row T,
    column u (u not in T) is the lexicographic rank of T | {u} among the
    (t+1)-subsets.  Each (t+1)-set A first appears at row A - {max A}, column
    max A, so the codes are already in row-major first-appearance order.

    The grid is built column by column.  Two t-subsets that lack u compare,
    in lexicographic order, by the least element of their symmetric
    difference, and adding u to both leaves that difference as it is.  So
    T -> T | {u} keeps the order, and column u's codes, read down its
    non-star rows, are the ranks of the (t+1)-subsets holding u, ascending.
    One pass over the (t+1)-subsets lists those ranks per user; a column
    reads its list at the running count of its non-star rows, and a star
    row reads index 0, which holds STAR.
    """
    _check_man(k, t)
    users = range(1, k + 1)
    codes = [[STAR] for _ in range(k + 1)]  # per user u, STAR then its ranks ascending
    for rank, subset in enumerate(itertools.combinations(users, t + 1), start=1):
        for u in subset:
            codes[u].append(rank)
    rows = list(itertools.combinations(users, t))
    columns = []
    for u in users:
        free = list(map(operator.not_, map(operator.contains, rows, itertools.repeat(u))))
        columns.append(map(codes[u].__getitem__, map(operator.mul, itertools.accumulate(free), free)))
    return PdaArray(zip(*columns))


# MaN(K, t)'s K, F, Z, S, star_masks and code_columns, the PdaArray fields of
# the same names, without its grid (``man_tables``)
ManTables = collections.namedtuple("ManTables", "k f z s star_masks code_columns")


def man_tables(k: int, t: int) -> ManTables:
    """The tables of ``man_pda(k, t)`` straight from MaN's definition, with no
    grid built or checked; the same parameter and ``MAX_CELLS`` checks apply.

    Row j is the j-th t-subset of [K] in lexicographic order, a star in the
    columns it holds, and code r is the r-th (t+1)-subset, whose column mask
    is its members.  With bit u-1 for user u, a subset's mask is the sum of
    its members' bits, so ``combinations`` of the bits lists the rows' star
    columns and the codes' column masks in that order.  ``_star_masks``
    transposes the rows' code columns, the complements, into per-column star
    masks.  Z = C(K-1,t-1) counts the rows holding user 1.
    """
    _check_man(k, t)
    bits = [1 << u for u in range(k)]
    every = (1 << k) - 1
    row_masks = list(map(every.__xor__, map(sum, itertools.combinations(bits, t))))
    code_columns = tuple(map(sum, itertools.combinations(bits, t + 1)))
    return ManTables(k, len(row_masks), binom(k - 1, t - 1), len(code_columns),
                     _star_masks(row_masks, k), code_columns)


def construction_a_pda(q: int, m: int) -> PdaArray:
    """The (m+1)-regular (q(m+1), q^m, q^{m-1}, q^{m+1}-q^m) PDA.

    Rows are indexed by a in {0..q-1}^m, extended by a_m = sum(a) mod q;
    columns come in m+1 groups of q.  Column (i, j) is a star at row a iff
    a_i = j, and otherwise holds the code of the extended a with coordinate i
    set to j.  Group 0 comes first, which makes every code's first column
    land in the first q columns.  Codes are numbered as the rows are built,
    so they are in row-major first-appearance order.
    """
    _check_construction_a(q, m)
    code_ids: dict[tuple[int, ...], int] = {}

    def code_of(vec: tuple[int, ...]) -> int:
        return code_ids.setdefault(vec, len(code_ids) + 1)

    rows = []
    for a in itertools.product(range(q), repeat=m):
        a += (sum(a) % q,)
        rows.append(tuple(STAR if a[i] == j else code_of(a[:i] + (j,) + a[i + 1:])
                          for i in range(m + 1) for j in range(q)))
    return PdaArray(rows)


@dataclass(frozen=True)
class AssociationProfile:
    """Non-increasing partition of the user count into per-helper group sizes."""

    parts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        if not self.parts:
            raise ParameterError("profile must have at least one part")
        for p in self.parts:
            if not isinstance(p, int) or p < 0:
                raise ParameterError(f"profile parts must be nonnegative integers, got {p!r}")
        if any(a < b for a, b in zip(self.parts, self.parts[1:])):
            raise ParameterError(f"profile {self.parts} is not non-increasing")

    @property
    def num_groups(self) -> int:
        return len(self.parts)

    @property
    def num_users(self) -> int:
        return sum(self.parts)

    def part(self, n: int) -> int:
        """L_n, 1-based."""
        return self.parts[n - 1]
