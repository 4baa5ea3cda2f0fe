"""Text and JSON serialization for PDAs and SP-PDAs.

PDA text format:
    pda K F Z S
    <F rows of K whitespace-separated tokens, '*' for a star>

SP-PDA text format:
    sppda K Lambda F Z Zh S
    L: L_1 ... L_Lambda
    pi: id                (or the 1-based positions of each column)
    <grid as above>

Writers are deterministic; reading back a written canonical array reproduces
the bytes exactly.  Every reader, text or JSON, ends in the same check: it
builds ``PdaArray`` (C1-C3) and, for an SP-PDA, ``SpPdaArray`` (D2) from the
grid, and the header must agree with the array.
"""

from __future__ import annotations

import json

from .arrays import STAR, AssociationProfile, ParameterError, PdaArray
from .construct import InsufficientStarRowsError, SpPdaArray


class FormatError(ParameterError):
    pass


class ConditionError(FormatError):
    """D2 or header failures of a well-formed array, one line each in ``violations``."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__("; ".join(self.violations))


_HEADERS = {"pda": ("K", "F", "Z", "S"), "sppda": ("K", "Lambda", "F", "Z", "Zh", "S")}


class _Memo(dict):
    """A per-call memo of ``parse``: it runs once per distinct key, so a
    repeated token or cell costs one dict lookup and equal results share one
    object."""

    def __init__(self, parse):
        super().__init__()
        self.parse = parse

    def __missing__(self, key):
        value = self[key] = self.parse(key)
        return value


def _token(e: int) -> str:
    return "*" if e == STAR else str(e)


def _cell(token: str) -> int:
    return STAR if token == "*" else int(token)


def _token_rows(grid):
    """Each row of ``grid`` as an iterator of its tokens."""
    token = _Memo(_token).__getitem__
    return (map(token, row) for row in grid)


def _grid_lines(grid) -> list[str]:
    return list(map(" ".join, _token_rows(grid)))


def parse_ints(tokens, what: str, count: int | None = None) -> tuple[int, ...]:
    """Integers from string tokens.  FormatError names ``what`` when a token
    is not an integer, or there are none, or not ``count`` of them."""
    try:
        values = tuple(int(t) for t in tokens)
    except ValueError:
        values = ()
    if not values or count not in (None, len(values)):
        raise FormatError(f"bad {what} {list(tokens)}: expected {count or 'some'} integers")
    return values


def _grid(rows) -> tuple[tuple[int, ...], ...]:
    cell = _Memo(_cell).__getitem__
    grid = []
    for row in rows:
        if row:
            try:
                grid.append(tuple(map(cell, row)))
            except ValueError:
                raise FormatError(f"bad token in grid row {' '.join(row)[:60]!r}") from None
    if not grid:
        raise FormatError("empty grid")
    return tuple(grid)


def _checked(kind: str | None, header, rows, profile=None, pi=None):
    """The one checked path of every loader.  ``kind`` is "pda", "sppda", or
    None for a bare grid; the other arguments are the document's string
    tokens.  The constructors check the grid, which raises InvalidPdaError,
    and an SP-PDA's D2, which becomes a ConditionError; then the header is
    compared with the array."""
    grid = _grid(rows)
    if kind == "sppda":
        claimed = parse_ints(header, "sppda header", 6)
        profile = AssociationProfile(parse_ints(profile, "profile"))
        grouping = None if pi == ["id"] else tuple(x - 1 for x in parse_ints(pi, "grouping"))
        pda = PdaArray(grid)
        try:
            array = SpPdaArray(pda, profile, claimed[4], grouping)
        except InsufficientStarRowsError as exc:
            raise ConditionError(map(str, exc.violations)) from None
        actual = (pda.k, profile.num_groups, pda.f, pda.z, array.helper_stars, pda.s)
    else:
        claimed = None if kind is None else parse_ints(header, "pda header", 4)
        array = PdaArray(grid)
        actual = (array.k, array.f, array.z, array.s)
    if claimed is not None and claimed != actual:
        raise ConditionError([f"header: {kind} header says {','.join(_HEADERS[kind])} = "
                              f"{claimed} but the grid has {actual}"])
    return array


def read_array(text: str, kind: str | None = None):
    """Read and check a ``pda`` or ``sppda`` document, text or JSON (leading
    '{'), or a bare grid when no header names a format; with ``kind``, only
    that format.  Raises FormatError on malformed text, InvalidPdaError when
    C1-C3 fail, and ConditionError when D2 fails or the header disagrees."""
    if text.lstrip().startswith("{"):
        return _read_json(text, kind)
    lines = [line for line in text.splitlines() if line.strip()]
    head = lines[0].split() if lines else [""]
    found = head[0] if head[0] in _HEADERS else None
    if kind is not None and found != kind:
        raise FormatError(f"expected header '{kind} {' '.join(_HEADERS[kind])}'")
    if found is None:
        return _checked(None, None, (line.split() for line in lines))
    if found == "pda":
        return _checked("pda", head[1:], (line.split() for line in lines[1:]))
    profile, pi = (lines[i].split() if i < len(lines) else [] for i in (1, 2))
    if profile[:1] != ["L:"] or pi[:1] != ["pi:"]:
        raise FormatError("expected 'L: ...' and 'pi: ...' lines after the sppda header")
    return _checked("sppda", head[1:], (line.split() for line in lines[3:]),
                    profile[1:], pi[1:])


def _read_json(text: str, kind: str | None):
    """Read and check a JSON document of type ``kind`` (None: either type).
    Its values reach the checked path as strings, so they are parsed exactly
    as text tokens are."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"not a json document: {exc}") from None
    kinds = (kind,) if kind else tuple(_HEADERS)
    if not isinstance(doc, dict) or doc.get("type") not in kinds:
        raise FormatError(f"json document is not of type {' or '.join(map(repr, kinds))}")
    kind = doc["type"]
    names = ("k", "f", "z", "s") if kind == "pda" else ("k", "num_helpers", "f", "z", "zh", "s")
    try:
        header = [str(doc[name]) for name in names]
        rows = [[str(t) for t in row] for row in doc["grid"]]
        sections = () if kind == "pda" else (
            [str(x) for x in doc["profile"]],
            ["id"] if doc["pi"] == "id" else [str(x) for x in doc["pi"]])
    except (KeyError, TypeError) as exc:
        raise FormatError(f"malformed json {kind}: {exc!r}") from None
    return _checked(kind, header, rows, *sections)


def write_pda(pda: PdaArray) -> str:
    lines = [f"pda {pda.k} {pda.f} {pda.z} {pda.s}"]
    lines.extend(_grid_lines(pda.grid))
    return "\n".join(lines) + "\n"


def parse_pda(text: str) -> PdaArray:
    return read_array(text, "pda")


def write_sppda(sp: SpPdaArray) -> str:
    p = sp.params
    pi = "id" if sp.grouping is None else " ".join(str(x + 1) for x in sp.grouping)
    lines = [f"sppda {p.k} {p.num_helpers} {p.f} {p.z} {p.zh} {p.s}",
             "L: " + " ".join(str(x) for x in sp.profile.parts), f"pi: {pi}"]
    lines.extend(_grid_lines(sp.pda.grid))
    return "\n".join(lines) + "\n"


def parse_sppda(text: str) -> SpPdaArray:
    return read_array(text, "sppda")


def pda_to_json(pda: PdaArray) -> str:
    doc = {
        "type": "pda",
        "k": pda.k, "f": pda.f, "z": pda.z, "s": pda.s,
        "grid": list(map(list, _token_rows(pda.grid))),
    }
    return json.dumps(doc, indent=2) + "\n"


def sppda_to_json(sp: SpPdaArray) -> str:
    p = sp.params
    doc = {
        "type": "sppda",
        "k": p.k, "num_helpers": p.num_helpers, "f": p.f, "z": p.z,
        "zh": p.zh, "s": p.s,
        "profile": list(sp.profile.parts),
        "pi": "id" if sp.grouping is None else [x + 1 for x in sp.grouping],
        "grid": list(map(list, _token_rows(sp.pda.grid))),
    }
    return json.dumps(doc, indent=2) + "\n"

