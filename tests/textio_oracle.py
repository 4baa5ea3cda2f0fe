"""The per-token grid reader and writer that ``sppda.textio`` replaced with
a per-call memo and a token table, kept as the reference: every token goes
through its own ``int()`` and every cell through its own ``str()``.
``read_array`` is the loader with this reader in place of the memo that a
header's S seeds."""

from unittest import mock

from sppda import textio
from sppda.arrays import STAR
from sppda.textio import FormatError


def token(e: int) -> str:
    return "*" if e == STAR else str(e)


def grid_lines(grid) -> list[str]:
    return [" ".join(token(e) for e in row) for row in grid]


def grid(rows) -> tuple[tuple[int, ...], ...]:
    out = []
    for row in rows:
        if row:
            try:
                out.append(tuple(STAR if t == "*" else int(t) for t in row))
            except ValueError:
                raise FormatError(f"bad token in grid row {' '.join(row)[:60]!r}") from None
    if not out:
        raise FormatError("empty grid")
    return tuple(out)


def read_array(text: str):
    """``sppda.textio.read_array`` reading its grid with ``grid``: no seed."""
    with mock.patch.object(textio, "_grid", lambda rows, s=0: grid(rows)):
        return textio.read_array(text)
