"""References for ``sppda.sim``'s delivery engine.

``decode``/``verdicts`` are the byte-slicing, per-user decoder the engine
replaced: every XOR goes through bytes, and each user rebuilds its whole file
row by row, stripping every foreign component from the payload on its own.
``per_recipient_verdicts`` is the engine's earlier decoder: F-bit foreign-row
checks per recipient and prefix/suffix XORs per code."""

from functools import reduce

from sppda.arrays import STAR
from sppda.sim import MissingComponentError, Transmission

import grid_oracle


def subfile(library, n: int, j: int) -> bytes:
    """Subfile j of file n (both 1-based), zero-padded to the piece size."""
    piece = library.piece_size
    return library.files[n - 1][(j - 1) * piece: j * piece].ljust(piece, b"\0")


def original(library, n: int) -> bytes:
    """File n (1-based) without its padding."""
    return library.files[n - 1][: library.true_length]


def accessible_rows(layout, user: int) -> frozenset[int]:
    """The 1-based rows in the user's helper cache or its private cache."""
    return (layout.helper_sets[layout.user_to_helper[user - 1] - 1]
            | layout.private_sets[user - 1])


def _xor(a: bytes, b: bytes) -> bytes:
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(len(a), "big")


def deliver(sppda, library, demands):
    """One transmission per code: the XOR of its components' subfiles."""
    cells = grid_oracle.code_cells(sppda.pda)
    return tuple(
        Transmission(code, reduce(_xor, (subfile(library, demands[k - 1], j) for k, j in pairs),
                                  bytes(library.piece_size)), flat)
        for code, (pairs, flat) in enumerate(zip(cells, grid_oracle.flat(cells)), start=1))


def decode(user, layout, transmissions, sppda, library, demands) -> bytes:
    """The user's demanded file, rebuilt from its caches plus the broadcast."""
    accessible = accessible_rows(layout, user)
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


def _rows_mask(rows) -> int:
    return sum(1 << (j - 1) for j in rows)


def _lowest_row(mask: int) -> int:
    return (mask & -mask).bit_length()


def per_recipient_verdicts(layout, transmissions, sppda, library, demands) -> tuple[bool, ...]:
    """Each recipient of a code checks every foreign row against the F-bit mask
    of the rows its caches miss, then strips the other components from the
    payload as ``payload ^ prefix[i] ^ suffix[i+1]``; it fails if the result
    differs from its subfile outside the padding."""
    pda = sppda.pda
    piece = library.piece_size
    all_rows = (1 << pda.f) - 1
    helper_masks = [_rows_mask(r) for r in layout.helper_sets]
    blocked = []
    for k in range(1, pda.k + 1):
        reach = helper_masks[layout.user_to_helper[k - 1] - 1] | _rows_mask(layout.private_sets[k - 1])
        missing = pda.star_masks[k - 1] & ~reach
        if missing:
            raise MissingComponentError(
                f"user {k}: cached row {_lowest_row(missing)} not in any reachable cache")
        blocked.append(all_rows & ~reach)
    decoded = [True] * pda.k
    for cells, sent in zip(grid_oracle.code_cells(pda), transmissions, strict=True):
        subs = [int.from_bytes(subfile(library, demands[k - 1], j), "big") for k, j in cells]
        bits = [1 << (j - 1) for _, j in cells]
        code_rows = 0
        for bit in bits:
            code_rows |= bit
        suffix = [0] * (len(cells) + 1)
        for i in range(len(cells) - 1, -1, -1):
            suffix[i] = suffix[i + 1] ^ subs[i]
        payload = int.from_bytes(sent.payload, "big")
        prefix = 0
        for i, (k, j) in enumerate(cells):
            foreign = (code_rows ^ bits[i]) & blocked[k - 1]
            if foreign:
                raise MissingComponentError(
                    f"user {k}: foreign subfile row {_lowest_row(foreign)} not cached (C3 violated?)")
            got = payload ^ prefix ^ suffix[i + 1]
            if got != subs[i]:
                padding = j * piece - library.true_length
                if padding <= 0 or (got ^ subs[i]) >> 8 * padding:
                    decoded[k - 1] = False
            prefix ^= subs[i]
    return tuple(decoded)
