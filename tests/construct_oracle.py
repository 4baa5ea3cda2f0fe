"""The two-array construction built cell by cell: the reference for
``sppda.construct.construct_sppda``, which builds the same grid as a block
product.  Codes and columns are 1-based as in the package."""

from sppda.arrays import STAR, xi


def construct_cells(p1, p2, profile):
    """(grid, z, s, helper_stars) of the SP-PDA from p1 (one column per group)
    and p2 (one column per user of the largest group).

    A star of p1 becomes an all-star block; a code s of p1 becomes p2 cut to
    the width of its block, with p2's codes renumbered order-preservingly into
    the slice of [S] reserved for s.  The slice for s holds, ascending, the
    codes of p2 met in its first L_{xi(s)} columns."""
    parts = profile.parts
    renumber: list[dict[int, int]] = []
    offset = 0
    for code in range(1, p1.s + 1):
        width = parts[xi(p1, code) - 1]
        domain = sorted({e for row in p2.grid for e in row[:width] if e != STAR})
        renumber.append({old: offset + i for i, old in enumerate(domain, start=1)})
        offset += len(domain)

    rows = []
    for p1_row in p1.grid:
        for p2_row in p2.grid:
            row: list[int] = []
            for lam in range(p1.k):
                width = parts[lam]
                if width == 0:
                    continue
                e = p1_row[lam]
                if e == STAR:
                    row.extend([STAR] * width)
                else:
                    relabel = renumber[e - 1]
                    row.extend(STAR if p2_row[c] == STAR else relabel[p2_row[c]]
                               for c in range(width))
            rows.append(tuple(row))

    z = p1.z * p2.f + (p1.f - p1.z) * p2.z
    return tuple(rows), z, offset, p1.z * p2.f
