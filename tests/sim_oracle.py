"""The byte-slicing, per-user decoder that ``sppda.sim`` replaced, kept as the
reference for its delivery engine.  Every XOR goes through bytes, and each
user rebuilds its whole file row by row, stripping every foreign component
from the payload on its own."""

from functools import reduce

from sppda.arrays import STAR
from sppda.sim import MissingComponentError, Transmission

import grid_oracle


def subfile(library, n: int, j: int) -> bytes:
    """Subfile j of file n (both 1-based)."""
    piece = library.piece_size
    return library.files[n - 1][(j - 1) * piece: j * piece]


def original(library, n: int) -> bytes:
    """File n (1-based) without its padding."""
    return library.files[n - 1][: library.true_length]


def _xor(a: bytes, b: bytes) -> bytes:
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(len(a), "big")


def deliver(sppda, library, demands):
    """One transmission per code: the XOR of its components' subfiles."""
    return tuple(
        Transmission(code, reduce(_xor, (subfile(library, demands[k - 1], j) for k, j in cells),
                                  bytes(library.piece_size)), cells)
        for code, cells in enumerate(grid_oracle.code_cells(sppda.pda), start=1))


def decode(user, layout, transmissions, sppda, library, demands) -> bytes:
    """The user's demanded file, rebuilt from its caches plus the broadcast."""
    accessible = layout.accessible_rows(user)
    pieces = []
    for j, row in enumerate(sppda.pda.grid, start=1):
        e = row[user - 1]
        if e == STAR:
            if j not in accessible:
                raise MissingComponentError(f"user {user}: cached row {j} not reachable")
            pieces.append(subfile(library, demands[user - 1], j))
            continue
        acc = transmissions[e - 1].payload
        for k2, j2 in transmissions[e - 1].components:
            if (k2, j2) != (user, j):
                if j2 not in accessible:
                    raise MissingComponentError(f"user {user}: foreign row {j2} not cached")
                acc = _xor(acc, subfile(library, demands[k2 - 1], j2))
        pieces.append(acc)
    return b"".join(pieces)[: library.true_length]


def verdicts(layout, transmissions, sppda, library, demands) -> tuple[bool, ...]:
    return tuple(decode(k, layout, transmissions, sppda, library, demands)
                 == original(library, demands[k - 1]) for k in range(1, sppda.pda.k + 1))
