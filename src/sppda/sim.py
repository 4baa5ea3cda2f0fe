"""Bit-exact execution of the caching schemes: dedicated-cache delivery from
a plain PDA and helper+private delivery from an SP-PDA, over an in-memory
error-free broadcast.  Users, files, rows, and codes are 1-based throughout.

One engine serves both schemes.  ``sp_place`` keeps every cache as a row
bitmask cut from the array's star masks.  ``sp_deliver`` and ``sp_decode``
walk the array's code->cells table once per code, pairing each code's flat
``(k1, j1, k2, j2, ...)`` tuple up as they go, with subfiles read as
little-endian ints from bytes slices of the unpadded files, indexed by
1-based user and row exactly as the cells name them: a slice cut short by a
file's end reads as its zero-padded piece.  ``sp_decode`` decides each code
with one diff.  Every ``PdaArray`` meets C3, so a user whose caches hold its
own star rows holds every row it reads: that is the one check of a layout.

A run makes one ``Transmission`` per code, so ``Transmission`` has slots and
no per-instance dict, and its ``cells`` is the table's own flat tuple;
``components`` pairs it up on each read.  The module leaves the collector
alone: it runs at the caller's settings, and the command line raises the
generation-0 threshold around each command (``cli.GC_THRESHOLD``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .arrays import AssociationProfile, ParameterError, PdaArray, _lowest_bit, mask_rows
from .construct import SpPdaArray


_MAX_SYNTHETIC = 1 << 28  # bytes per synthetic file


class DimensionError(ParameterError):
    pass


class DemandOutOfRangeError(ParameterError):
    pass


class MissingComponentError(ParameterError):
    pass


@dataclass(frozen=True)
class FileLibrary:
    """N equal-length files, each split into F subfiles of ``piece_size``
    bytes, the last ones zero-padded.  The padding is implicit: each file is
    kept as given, so libraries over the same files for different F share
    them, and a subfile read past the end is short or empty."""

    files: tuple[bytes, ...]
    f: int
    true_length: int

    def __post_init__(self):
        if self.f < 1:
            raise ParameterError(f"library must split into F >= 1 subfiles, got F={self.f}")
        if not self.files:
            raise ParameterError("library needs at least one file")
        lengths = {len(x) for x in self.files}
        if len(lengths) != 1:
            raise ParameterError(f"files must have equal length, got lengths {sorted(lengths)}")
        length = lengths.pop()
        if not 0 <= self.true_length <= length:
            raise ParameterError(f"true length {self.true_length} not in [0, {length}]")

    @classmethod
    def from_bytes(cls, files, f: int) -> "FileLibrary":
        files = tuple(bytes(x) for x in files)  # a bytes object is kept, not copied
        return cls(files, f, len(files[0]) if files else 0)

    @classmethod
    def synthetic(cls, n: int, size: int, f: int, seed: int = 0) -> "FileLibrary":
        if not 0 <= size < _MAX_SYNTHETIC:  # randbytes needs 8 * size to fit a C int
            raise ParameterError(f"synthetic file size B={size} not in [0, {_MAX_SYNTHETIC})")
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
    def piece_size(self) -> int:
        return -(-max(len(self.files[0]), 1) // self.f)

    @property
    def padded_length(self) -> int:
        return self.piece_size * self.f


@dataclass(frozen=True)
class CacheLayout:
    """Subfile rows held by each helper cache and each private cache, as
    bitmasks with bit j-1 set for row j."""

    helper_masks: tuple[int, ...]  # per helper
    private_masks: tuple[int, ...]  # per user
    user_to_helper: tuple[int, ...]  # per user, 1-based helper index

    @property
    def helper_sets(self) -> tuple[frozenset[int], ...]:
        """Per helper, its 1-based rows."""
        return tuple(frozenset(mask_rows(m)) for m in self.helper_masks)

    @property
    def private_sets(self) -> tuple[frozenset[int], ...]:
        """Per user, the 1-based rows of its private cache."""
        return tuple(frozenset(mask_rows(m)) for m in self.private_masks)


@dataclass(frozen=True, slots=True)
class Transmission:
    code: int
    payload: bytes
    cells: tuple[int, ...]  # flat (user k, row j, ...), row-major: the array's code_cells entry

    @property
    def components(self) -> tuple[tuple[int, int], ...]:
        """The cells as (user k, row j) pairs, row-major, built on each read."""
        it = iter(self.cells)
        return tuple(zip(it, it))


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


def _lowest_bits(mask: int, n: int) -> int:
    """The n lowest set bits of ``mask``, which has at least n.  Read from the
    low end, the digits left after the n-th one are those above the cut."""
    digits = bin(mask)[:1:-1]
    return mask & ((1 << len(digits) - len(digits.split("1", n)[-1])) - 1)


def sp_place(sppda: SpPdaArray, library: FileLibrary) -> CacheLayout:
    """Helper caches take the Z^(h) smallest all-star rows of their column
    group (D2); each user's private cache takes the rest of its star rows."""
    pda = sppda.pda
    if library.f != pda.f:
        raise DimensionError(f"library split into {library.f} subfiles, array has F={pda.f}")
    helper_masks = tuple(_lowest_bits(mask, sppda.helper_stars) for mask in sppda.group_masks)
    private_masks = tuple(stars & ~helper_masks[h - 1]
                          for stars, h in zip(pda.star_masks, sppda.helpers))
    return CacheLayout(helper_masks, private_masks, sppda.helpers)


def _subfile_slices(pda: PdaArray, library: FileLibrary, demands):
    """Per user k, its demanded file, and per row j the slice of subfile j,
    both 1-based (index 0 unused): user k's subfile j is
    ``files[k][rows[j]]``, short or empty past the file's end.  Plain bytes
    slices: ``int.from_bytes`` would copy a view's bytes anyway."""
    if library.f != pda.f:
        raise DimensionError(f"library split into {library.f} subfiles, array has F={pda.f}")
    demands = tuple(demands)
    if len(demands) != pda.k:
        raise DimensionError(f"demand vector has length {len(demands)}, expected K={pda.k}")
    for d in demands:
        if not 1 <= d <= library.n:
            raise DemandOutOfRangeError(f"demand {d} not in [1, {library.n}]")
    piece = library.piece_size
    files = [None, *(library.files[d - 1] for d in demands)]
    bounds = list(range(-piece, (pda.f + 1) * piece, piece))  # adjacent slices share a bound
    return files, list(map(slice, bounds, bounds[1:]))


def sp_deliver(sppda: SpPdaArray, library: FileLibrary, demands) -> tuple[Transmission, ...]:
    """One XOR transmission per code, its cells the array's own flat tuple."""
    files, rows = _subfile_slices(sppda.pda, library, demands)
    piece = library.piece_size
    from_bytes = int.from_bytes
    out = []
    for code, cells in enumerate(sppda.pda.code_cells, start=1):
        payload = 0
        it = iter(cells)
        for k, j in zip(it, it):
            payload ^= from_bytes(files[k][rows[j]], "little")
        out.append(Transmission(code, payload.to_bytes(piece, "little"), cells))
    return tuple(out)


def sp_decode(layout: CacheLayout, transmissions, sppda: SpPdaArray,
              library: FileLibrary, demands) -> tuple[bool, ...]:
    """Per user, whether the file it recovers from its caches plus the
    broadcast equals its demanded file.

    Recipient i of a code recovers ``payload ^ XOR(other subfiles)``, which
    differs from its own subfile by ``diff = payload ^ XOR(all subfiles)``,
    the same for all g recipients: one diff decides the code (O(g)).  Each
    recipient may read only rows its helper and private caches hold.  By C3,
    the other rows of a code are star rows of each recipient, so it is enough
    that every user's caches hold its star rows.  Cached pieces are the
    library's own bytes, so only transmitted pieces are compared.
    """
    pda = sppda.pda
    files, rows = _subfile_slices(pda, library, demands)
    piece = library.piece_size
    for k, (stars, h) in enumerate(zip(pda.star_masks, layout.user_to_helper), start=1):
        missing = stars & ~(layout.helper_masks[h - 1] | layout.private_masks[k - 1])
        if missing:
            raise MissingComponentError(
                f"user {k}: cached row {_lowest_bit(missing)} not in any reachable cache")
    decoded = [True] * pda.k
    from_bytes = int.from_bytes
    for cells, sent in zip(pda.code_cells, transmissions, strict=True):
        diff = from_bytes(sent.payload, "little")
        it = iter(cells)
        for k, j in zip(it, it):
            diff ^= from_bytes(files[k][rows[j]], "little")
        if diff:
            it = iter(cells)
            for k, j in zip(it, it):
                real = library.true_length - (j - 1) * piece  # the piece's low bytes in the verdict
                if diff & ~(-1 << 8 * max(real, 0)):
                    decoded[k - 1] = False
    return tuple(decoded)


def sp_run(sppda: SpPdaArray, library: FileLibrary, demands) -> SimReport:
    """Place, deliver, and decode for every user; verdicts are byte equality."""
    demands = tuple(demands)
    layout = sp_place(sppda, library)
    transmissions = sp_deliver(sppda, library, demands)
    decoded = sp_decode(layout, transmissions, sppda, library, demands)
    return SimReport(sppda.rate, sppda.mh_ratio, sppda.mp_ratio,
                     decoded, transmissions, sppda.pda.f,
                     len(set(demands)) == len(demands))


def dedicated_run(pda: PdaArray, library: FileLibrary, demands) -> SimReport:
    """Dedicated-cache scheme: the shared scheme with one user per helper and
    no helper memory, so each user caches the star rows of its column and the
    server sends one XOR transmission per code."""
    return sp_run(SpPdaArray(pda, AssociationProfile((1,) * pda.k), 0), library, demands)


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


def report_csv_row(report: SimReport) -> str:
    return ("subpacketization,transmissions,rate,mh_ratio,mp_ratio,all_decoded\n"
            f"{report.subpacketization},{len(report.transmissions)},"
            f"{float(report.rate):.10g},{float(report.mh_ratio):.10g},"
            f"{float(report.mp_ratio):.10g},{int(report.all_decoded)}\n")
