"""Naive readers that scan the grid cell by cell: the reference for the index
tables (``star_masks``, ``code_cells``, ``code_columns``) that ``sppda.arrays``
keeps per array, and a per-cell builder of the MaN grid, the reference for
``man_pda``.  Each takes anything with ``grid``, ``k``, ``f`` and ``s``;
rows, columns and codes are 1-based as in the package."""

import itertools

from sppda.arrays import STAR


def man_grid(k, t):
    """The MaN(k, t) grid cell by cell: rows are the t-subsets of [k] in
    lexicographic order, and the cell at row T, column u not in T holds the
    1-based lexicographic rank of T | {u} among the (t+1)-subsets."""
    rank = {subset: i + 1 for i, subset in enumerate(itertools.combinations(range(1, k + 1), t + 1))}
    rows = []
    for subset in itertools.combinations(range(1, k + 1), t):
        members = set(subset)
        row = []
        for u in range(1, k + 1):
            if u in members:
                row.append(STAR)
            else:
                row.append(rank[tuple(sorted(members | {u}))])
        rows.append(tuple(row))
    return tuple(rows)


def params(grid):
    """(K, F, Z, S) of a valid grid: its width, its height, the stars of its
    first column and its distinct codes."""
    return (len(grid[0]), len(grid), sum(row[0] == STAR for row in grid),
            len({e for row in grid for e in row if e != STAR}))


def column(pda, c):
    """Column ``c`` (1-based) as a tuple."""
    return tuple(row[c - 1] for row in pda.grid)


def code_cells(pda):
    """Per code 1..S, its cells as (user, row) in row-major order."""
    return tuple(tuple((k, j) for j, row in enumerate(pda.grid, start=1)
                       for k, e in enumerate(row, start=1) if e == code)
                 for code in range(1, pda.s + 1))


def flat(cells):
    """Each code's (user, row) pairs as one flat tuple ``(k1, j1, k2, j2, ...)``,
    the layout of ``PdaArray.code_cells``."""
    return tuple(tuple(itertools.chain.from_iterable(pairs)) for pairs in cells)


def code_columns(pda):
    """Per code 1..S, the bitmask of its columns (bit c-1 for column c)."""
    return tuple(sum(1 << c for c in range(pda.k) if any(row[c] == code for row in pda.grid))
                 for code in range(1, pda.s + 1))


def phi(pda, prefix):
    seen = set()
    for c in range(prefix):
        for j in range(pda.f):
            e = pda.grid[j][c]
            if e != STAR:
                seen.add(e)
    return len(seen)


def xi(pda, code):
    for c in range(pda.k):
        for j in range(pda.f):
            if pda.grid[j][c] == code:
                return c + 1
    return None


def regularity(pda):
    counts = {}
    for row in pda.grid:
        for e in row:
            if e != STAR:
                counts[e] = counts.get(e, 0) + 1
    values = set(counts.values())
    return values.pop() if len(values) == 1 else None


def column_codes(pda, c):
    return frozenset(row[c - 1] for row in pda.grid if row[c - 1] != STAR)


def star_rows(pda, c):
    return frozenset(j + 1 for j, row in enumerate(pda.grid) if row[c - 1] == STAR)


def star_masks(pda):
    """Per column, the bitmask of its star rows (bit j-1 for row j), from
    ``star_rows``."""
    return tuple(sum(1 << (j - 1) for j in star_rows(pda, c)) for c in range(1, len(pda.grid[0]) + 1))


def group_columns(k, parts, grouping=None):
    """Per helper group, its 0-based columns: the consecutive runs of
    ``parts`` in the grouped column order."""
    order = list(range(k))
    if grouping is not None:
        order.sort(key=lambda c: grouping[c])
    out = []
    start = 0
    for width in parts:
        out.append(order[start:start + width])
        start += width
    return out


def group_star_masks(pda, parts, grouping=None):
    """Per helper group, the bitmask of the rows that are stars in every
    column of the group."""
    return tuple(sum(1 << j for j, row in enumerate(pda.grid) if all(row[c] == STAR for c in cols))
                 for cols in group_columns(pda.k, parts, grouping))


def group_star_counts(pda, parts, grouping=None):
    """Per helper group, the count of rows that are stars in every column of
    the group: the bit counts of ``group_star_masks``."""
    return tuple(mask.bit_count() for mask in group_star_masks(pda, parts, grouping))


def phi_vector(pda, perm=None):
    """(phi(1), ..., phi(K)) after moving old column c to position perm[c]."""
    if perm is None:
        perm = tuple(range(pda.k))
    order = sorted(range(pda.k), key=lambda c: perm[c])
    out = []
    seen = set()
    for c in order:
        seen |= {row[c] for row in pda.grid if row[c] != STAR}
        out.append(len(seen))
    return tuple(out)
