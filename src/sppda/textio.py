"""Text and JSON serialization for PDAs and SP-PDAs.

PDA text format:
    pda K F Z S
    <F rows of K whitespace-separated tokens, '*' for a star>

SP-PDA text format:
    sppda K Lambda F Z Zh S
    L: L_1 ... L_Lambda
    pi: id                (or the 1-based positions of each column)
    <grid as above>

The JSON documents hold the same values under the keys of ``_JSON_KEYS``;
their header values are integers, their grid, rows and profile are lists,
and ``pi`` is "id" or a list.

Writers are deterministic; reading back a written canonical array reproduces
the bytes exactly.  Every reader, text or JSON, ends in the same check: it
builds ``PdaArray`` (C1-C3) and, for an SP-PDA, ``SpPdaArray`` (D2) from the
grid, and the header must agree with the array.  ``_header`` is the one
source of an array's header values, for the writers and for that check.
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


# A document's header values, under their text names and their JSON keys; the
# values themselves come from ``_header``.
_HEADERS = {"pda": ("K", "F", "Z", "S"), "sppda": ("K", "Lambda", "F", "Z", "Zh", "S")}
_JSON_KEYS = {"pda": ("k", "f", "z", "s"), "sppda": ("k", "num_helpers", "f", "z", "zh", "s")}


def _header(array) -> tuple[int, ...]:
    """The header values of a ``PdaArray`` or ``SpPdaArray``, in ``_HEADERS`` order."""
    if isinstance(array, SpPdaArray):
        pda = array.pda
        return pda.k, array.profile.num_groups, pda.f, pda.z, array.helper_stars, pda.s
    return array.k, array.f, array.z, array.s


class _Memo(dict):
    """A per-call memo of ``parse``: it runs once per distinct key, so a
    repeated token costs one dict lookup and equal results share one object.
    Keys put in ahead of their lookup, a seed, are never parsed."""

    def __init__(self, parse):
        super().__init__()
        self.parse = parse

    def __missing__(self, key):
        value = self[key] = self.parse(key)
        return value


def _cell(token: str) -> int:
    return STAR if token == "*" else int(token)


def _token_rows(grid, s: int):
    """Each row of ``grid``, whose entries are 0..``s``, as an iterator of its
    tokens, read from a list indexed by entry: "*", "1", ..., str(s)."""
    token = ["*", *map(str, range(1, s + 1))].__getitem__
    return (map(token, row) for row in grid)


def _grid_lines(grid, s: int) -> list[str]:
    return list(map(" ".join, _token_rows(grid, s)))


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


def _grid(rows, s: int = 0) -> tuple[tuple[int, ...], ...]:
    """The grid of the token rows ``rows``, blank ones skipped, each token
    parsed once per call by a ``_Memo``.  ``s`` is the S a header claims: the
    memo is seeded with the canonical tokens "1".."s" as the rows come, never
    more of them than the cells read so far, so a lying header costs no more
    than the document's size.  A seed is only a parse done ahead: any other
    token, "007" or a code past the seed, is parsed on its first lookup, and
    a parsed token keeps its int object when the seed reaches it."""
    memo = _Memo(_cell)
    cell = memo.__getitem__
    seeded = cells = 0
    grid = []
    for row in rows:
        if row:
            if seeded < s:
                cells += len(row)
                top = min(s, cells)
                keys = list(map(str, range(seeded + 1, top + 1)))
                memo.update(zip(keys, map(memo.get, keys, range(seeded + 1, top + 1))))
                seeded = top
            try:
                grid.append(tuple(map(cell, row)))
            except ValueError:
                raise FormatError(f"bad token in grid row {' '.join(row)[:60]!r}") from None
    if not grid:
        raise FormatError("empty grid")
    return tuple(grid)


def _seed_size(header) -> int:
    """The S that a header's last token claims, for ``_grid``'s seed alone: 0
    when there is no header or its last token is not an integer.  Read before
    the grid, it raises nothing, so grid errors still come first."""
    try:
        return int(header[-1])
    except (TypeError, IndexError, ValueError):
        return 0


def _checked(kind: str | None, header, rows, profile=None, pi=None):
    """The one checked path of every loader.  ``kind`` is "pda", "sppda", or
    None for a bare grid; the other arguments are the document's string
    tokens.  The constructors check the grid, which raises InvalidPdaError,
    and an SP-PDA's D2, which becomes a ConditionError; then the header is
    compared with the array."""
    grid = _grid(rows, _seed_size(header))
    claimed = None if kind is None else parse_ints(header, f"{kind} header", len(_HEADERS[kind]))
    if kind == "sppda":
        profile = AssociationProfile(parse_ints(profile, "profile"))
        grouping = None if pi == ["id"] else tuple(x - 1 for x in parse_ints(pi, "grouping"))
        try:
            array = SpPdaArray(PdaArray(grid), profile, claimed[4], grouping)
        except InsufficientStarRowsError as exc:
            raise ConditionError(map(str, exc.violations)) from None
    else:
        array = PdaArray(grid)
    if claimed is not None and claimed != (actual := _header(array)):
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


def _list(value, what: str) -> list:
    """``value`` if it is a JSON list, else TypeError: a string must not be
    read one character at a time."""
    if not isinstance(value, list):
        raise TypeError(f"{what} is {type(value).__name__}, not a list")
    return value


def _read_json(text: str, kind: str | None):
    """Read and check a JSON document of type ``kind`` (None: either type).
    Its header values must be JSON integers, as the writer writes them; its
    other values reach the checked path as strings, so they are parsed
    exactly as text tokens are.  The grid, each of its rows and the profile
    must be lists, and ``pi`` must be "id" or a list."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"not a json document: {exc}") from None
    kinds = (kind,) if kind else tuple(_HEADERS)
    if not isinstance(doc, dict) or doc.get("type") not in kinds:
        raise FormatError(f"json document is not of type {' or '.join(map(repr, kinds))}")
    kind = doc["type"]
    try:
        header = [doc[name] for name in _JSON_KEYS[kind]]
        rows = [[str(t) for t in _list(row, "grid row")] for row in _list(doc["grid"], "grid")]
        sections = () if kind == "pda" else (
            [str(x) for x in _list(doc["profile"], "profile")],
            ["id"] if doc["pi"] == "id" else [str(x) for x in _list(doc["pi"], "pi")])
    except (KeyError, TypeError) as exc:
        raise FormatError(f"malformed json {kind}: {exc!r}") from None
    for name, value in zip(_JSON_KEYS[kind], header):
        if type(value) is not int:  # bool is an int subclass
            raise FormatError(f"bad json {kind} header: {name} is {json.dumps(value)}, expected an integer")
    return _checked(kind, list(map(str, header)), rows, *sections)


def _write(kind: str, array, grid, *sections: str) -> str:
    header = _header(array)  # S last
    lines = [" ".join(map(str, (kind, *header))), *sections, *_grid_lines(grid, header[-1])]
    return "\n".join(lines) + "\n"


def _to_json(kind: str, array, grid, **sections) -> str:
    header = _header(array)  # S last
    doc = {"type": kind, **dict(zip(_JSON_KEYS[kind], header)), **sections,
           "grid": list(map(list, _token_rows(grid, header[-1])))}
    return json.dumps(doc, indent=2) + "\n"


def write_pda(pda: PdaArray) -> str:
    return _write("pda", pda, pda.grid)


def parse_pda(text: str) -> PdaArray:
    return read_array(text, "pda")


def write_sppda(sp: SpPdaArray) -> str:
    pi = "id" if sp.grouping is None else " ".join(str(x + 1) for x in sp.grouping)
    return _write("sppda", sp, sp.pda.grid,
                  "L: " + " ".join(map(str, sp.profile.parts)), f"pi: {pi}")


def parse_sppda(text: str) -> SpPdaArray:
    return read_array(text, "sppda")


def pda_to_json(pda: PdaArray) -> str:
    return _to_json("pda", pda, pda.grid)


def sppda_to_json(sp: SpPdaArray) -> str:
    return _to_json("sppda", sp, sp.pda.grid, profile=list(sp.profile.parts),
                    pi="id" if sp.grouping is None else [x + 1 for x in sp.grouping])

