"""Bit-exact execution of the caching schemes: dedicated-cache delivery from
a plain PDA and helper+private delivery from an SP-PDA, over an in-memory
error-free broadcast.  Users, files, rows, and codes are 1-based throughout.

One engine serves both schemes: ``sp_deliver`` and ``sp_decode`` walk the
array's code->cells table once per code, with subfiles read as ints straight
from views of the padded files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .arrays import AssociationProfile, ParameterError, PdaArray, mask_rows
from .construct import SpPdaArray, group_star_masks


class DimensionError(ParameterError):
    pass


class DemandOutOfRangeError(ParameterError):
    pass


class InsufficientStarRowsError(ParameterError):
    pass


class MissingComponentError(ParameterError):
    pass


@dataclass(frozen=True)
class FileLibrary:
    """N equal-length files, zero-padded so each splits into F equal subfiles."""

    files: tuple[bytes, ...]
    f: int
    true_length: int

    def __post_init__(self):
        # a piece-by-piece verdict is sound only if the F subfiles tile each file
        if self.f < 1:
            raise ParameterError(f"library must split into F >= 1 subfiles, got F={self.f}")
        if not self.files:
            raise ParameterError("library needs at least one file")
        lengths = {len(x) for x in self.files}
        if len(lengths) != 1:
            raise ParameterError(f"files must have equal length, got lengths {sorted(lengths)}")
        padded = lengths.pop()
        if padded % self.f:
            raise ParameterError(f"file length {padded} is not a multiple of F={self.f}")
        if not 0 <= self.true_length <= padded:
            raise ParameterError(f"true length {self.true_length} not in [0, {padded}]")

    @classmethod
    def from_bytes(cls, files, f: int) -> "FileLibrary":
        files = tuple(bytes(x) for x in files)
        lengths = {len(x) for x in files}
        if len(lengths) > 1:  # checked here because padding would hide it
            raise ParameterError(f"files must have equal length, got lengths {sorted(lengths)}")
        true_length = lengths.pop() if lengths else 0
        padded = -(-max(true_length, 1) // f) * f if f >= 1 else true_length  # __post_init__ refuses F < 1
        return cls(tuple(x.ljust(padded, b"\0") for x in files), f, true_length)

    @classmethod
    def synthetic(cls, n: int, size: int, f: int, seed: int = 0) -> "FileLibrary":
        rng = random.Random(seed)
        return cls.from_bytes([rng.randbytes(size) for _ in range(n)], f)

    @classmethod
    def from_dir(cls, path, f: int) -> "FileLibrary":
        paths = sorted(p for p in Path(path).iterdir() if p.is_file())
        if not paths:
            raise ParameterError(f"no files found in {path}")
        data = [p.read_bytes() for p in paths]
        longest = max(len(d) for d in data)
        return cls.from_bytes([d.ljust(longest, b"\0") for d in data], f)

    @property
    def n(self) -> int:
        return len(self.files)

    @property
    def padded_length(self) -> int:
        return len(self.files[0])

    @property
    def piece_size(self) -> int:
        return self.padded_length // self.f


@dataclass(frozen=True)
class CacheLayout:
    """Subfile row indices held by each helper cache and each private cache."""

    helper_sets: tuple[frozenset[int], ...]  # per helper, 1-based rows
    private_sets: tuple[frozenset[int], ...]  # per user, 1-based rows
    user_to_helper: tuple[int, ...]  # per user, 1-based helper index

    def accessible_rows(self, user: int) -> frozenset[int]:
        return self.helper_sets[self.user_to_helper[user - 1] - 1] | self.private_sets[user - 1]


@dataclass(frozen=True)
class Transmission:
    code: int
    payload: bytes
    components: tuple[tuple[int, int], ...]  # (user k, row j), row-major order


@dataclass(frozen=True)
class SimReport:
    rate: Fraction
    mh_ratio: Fraction
    mp_ratio: Fraction
    decoded: tuple[bool, ...]
    transmissions: tuple[Transmission, ...]
    subpacketization: int
    distinct_demands: bool

    @property
    def all_decoded(self) -> bool:
        return all(self.decoded)


def _check_demands(demands, k: int, n: int) -> tuple[int, ...]:
    demands = tuple(demands)
    if len(demands) != k:
        raise DimensionError(f"demand vector has length {len(demands)}, expected K={k}")
    for d in demands:
        if not 1 <= d <= n:
            raise DemandOutOfRangeError(f"demand {d} not in [1, {n}]")
    return demands


def sp_place(sppda: SpPdaArray, library: FileLibrary) -> CacheLayout:
    """Helper caches take the Z^(h) smallest all-star rows of their column
    group; each user's private cache takes the rest of its star rows."""
    pda = sppda.pda
    if library.f != pda.f:
        raise DimensionError(f"library split into {library.f} subfiles, array has F={pda.f}")
    zh = sppda.helper_stars
    helper_sets = []
    for lam, mask in enumerate(group_star_masks(pda, sppda.profile.parts, sppda.grouping), start=1):
        if mask.bit_count() < zh:
            raise InsufficientStarRowsError(
                f"group {lam} has {mask.bit_count()} all-star rows, needs Z^(h)={zh}")
        helper_sets.append(frozenset(mask_rows(mask)[:zh]))
    user_to_helper = tuple(sppda.helper_of_user(k) for k in range(1, pda.k + 1))
    private_sets = tuple(
        pda.star_rows(k) - helper_sets[user_to_helper[k - 1] - 1]
        for k in range(1, pda.k + 1)
    )
    return CacheLayout(tuple(helper_sets), private_sets, user_to_helper)


def _subfile_views(pda: PdaArray, library: FileLibrary, demands):
    """Per user, a view of its demanded file, and per row j the slice of subfile
    j (index 0 unused): user k's subfile j is ``views[k - 1][rows[j]]``, read
    without copying the file."""
    if library.f != pda.f:
        raise DimensionError(f"library split into {library.f} subfiles, array has F={pda.f}")
    demands = _check_demands(demands, pda.k, library.n)
    piece = library.piece_size
    views = [memoryview(library.files[d - 1]) for d in demands]
    return views, [slice((j - 1) * piece, j * piece) for j in range(pda.f + 1)]


def _rows_mask(rows) -> int:
    """The bitmask with bit j-1 set for each 1-based row j in ``rows``."""
    digits = bytearray(b"0" * max(rows, default=0))
    for j in rows:
        digits[-j] = 49  # ord("1")
    return int(digits, 2) if digits else 0


def _lowest_row(mask: int) -> int:
    return (mask & -mask).bit_length()


def sp_deliver(sppda: SpPdaArray, library: FileLibrary, demands) -> tuple[Transmission, ...]:
    """One XOR transmission per code, components in row-major order."""
    views, rows = _subfile_views(sppda.pda, library, demands)
    piece = library.piece_size
    out = []
    for code, cells in enumerate(sppda.pda.code_cells, start=1):
        payload = 0
        for k, j in cells:
            payload ^= int.from_bytes(views[k - 1][rows[j]], "big")
        out.append(Transmission(code, payload.to_bytes(piece, "big"), cells))
    return tuple(out)


def sp_decode(layout: CacheLayout, transmissions, sppda: SpPdaArray,
              library: FileLibrary, demands) -> tuple[bool, ...]:
    """Per user, whether the file it recovers from its caches plus the
    broadcast equals its demanded file.

    Each code is decoded once for all its g recipients: recipient i strips the
    other components from the payload as ``payload ^ prefix[i] ^ suffix[i+1]``
    (O(g) per code), reading only rows its helper and private caches hold, and
    compares the piece with its demanded subfile.  Cached pieces are the
    library's own bytes, so only the transmitted pieces are compared.
    """
    pda = sppda.pda
    views, rows = _subfile_views(pda, library, demands)
    piece = library.piece_size
    all_rows = (1 << pda.f) - 1
    helper_masks = [_rows_mask(r) for r in layout.helper_sets]
    blocked = []  # per user, the rows in neither of its caches
    for k in range(1, pda.k + 1):
        reach = helper_masks[layout.user_to_helper[k - 1] - 1] | _rows_mask(layout.private_sets[k - 1])
        missing = pda.star_masks[k - 1] & ~reach
        if missing:
            raise MissingComponentError(
                f"user {k}: cached row {_lowest_row(missing)} not in any reachable cache")
        blocked.append(all_rows & ~reach)
    decoded = [True] * pda.k
    for cells, sent in zip(pda.code_cells, transmissions, strict=True):
        subs = [int.from_bytes(views[k - 1][rows[j]], "big") for k, j in cells]
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
            foreign = (code_rows ^ bits[i]) & blocked[k - 1]  # C3 keeps a code's rows distinct
            if foreign:
                raise MissingComponentError(
                    f"user {k}: foreign subfile row {_lowest_row(foreign)} not cached (C3 violated?)")
            got = payload ^ prefix ^ suffix[i + 1]
            if got != subs[i]:
                padding = j * piece - library.true_length  # bytes outside the verdict
                if padding <= 0 or (got ^ subs[i]) >> 8 * padding:
                    decoded[k - 1] = False
            prefix ^= subs[i]
    return tuple(decoded)


def _run(sppda: SpPdaArray, library: FileLibrary, demands) -> SimReport:
    demands = _check_demands(demands, sppda.pda.k, library.n)
    layout = sp_place(sppda, library)
    transmissions = sp_deliver(sppda, library, demands)
    decoded = sp_decode(layout, transmissions, sppda, library, demands)
    params = sppda.params
    return SimReport(params.rate, params.mh_ratio, params.mp_ratio,
                     decoded, transmissions, params.f,
                     len(set(demands)) == len(demands))


def sp_run(sppda: SpPdaArray, library: FileLibrary, demands) -> SimReport:
    """Place, deliver, and decode for every user; verdicts are byte equality."""
    return _run(sppda, library, demands)


def dedicated_run(pda: PdaArray, library: FileLibrary, demands) -> SimReport:
    """Dedicated-cache scheme: the shared scheme with one user per helper and
    no helper memory, so each user caches the star rows of its column and the
    server sends one XOR transmission per code."""
    return _run(SpPdaArray(pda, AssociationProfile((1,) * pda.k), 0), library, demands)


def format_transmission_log(transmissions) -> str:
    """One record per code: hex payload plus the (user, row) component list."""
    lines = []
    for t in transmissions:
        comps = ";".join(f"{k},{j}" for k, j in t.components)
        lines.append(f"code={t.code} payload={t.payload.hex()} components={comps}")
    return "\n".join(lines) + ("\n" if lines else "")


def format_report(report: SimReport) -> str:
    lines = [
        f"subpacketization: {report.subpacketization}",
        f"transmissions: {len(report.transmissions)}",
        f"rate: {report.rate} ({float(report.rate):.6g})",
        f"mh_ratio: {report.mh_ratio}",
        f"mp_ratio: {report.mp_ratio}",
        f"distinct_demands: {'yes' if report.distinct_demands else 'no (measured rate is not the worst case)'}",
        f"all_decoded: {'yes' if report.all_decoded else 'no'}",
    ]
    for k, ok in enumerate(report.decoded, start=1):
        lines.append(f"user {k}: {'ok' if ok else 'FAILED'}")
    return "\n".join(lines) + "\n"


def report_csv_row(report: SimReport, header: bool = True) -> str:
    head = "subpacketization,transmissions,rate,mh_ratio,mp_ratio,all_decoded\n"
    row = (f"{report.subpacketization},{len(report.transmissions)},"
           f"{float(report.rate):.10g},{float(report.mh_ratio):.10g},"
           f"{float(report.mp_ratio):.10g},{int(report.all_decoded)}\n")
    return head + row if header else row
