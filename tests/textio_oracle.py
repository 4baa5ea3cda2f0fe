"""The per-token grid reader and writer that ``sppda.textio`` replaced with
per-call memos, kept as the reference: every token goes through its own
``int()`` and every cell through its own ``str()``."""

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
