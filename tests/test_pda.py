"""Validity checking, column statistics, and the two array families."""

import contextlib
import io
import itertools
import time
import tracemalloc
from enum import IntEnum
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sppda.arrays import (
    MAX_CELLS,
    MAX_VIOLATIONS,
    STAR,
    AssociationProfile,
    CodeAbsentError,
    InvalidPdaError,
    InvalidPermutationError,
    NonPositiveCodeError,
    NonRectangularError,
    ParameterError,
    PdaArray,
    PdaError,
    binom,
    canonicalize_codes,
    construction_a_closed_form,
    construction_a_pda,
    man_closed_form,
    man_pda,
    man_tables,
    mask_rows,
    normalize_grid,
    permute_columns,
    phi,
    verify_pda,
    xi,
    _accept,
    _cells_by_code,
    _row_masks,
    _star_masks,
    _violations,
)
from sppda import arrays
from sppda.cli import main
from sppda.construct import construct_sppda, group_star_masks

import grid_oracle
from grid_oracle import column, regularity
from conftest import (
    GOLDEN_SP,
    GOLDEN_SP_TEXT,
    SMALL_P2,
    WIDE_P1,
    WIDE_P1_OPT,
    WIDE_P1_PERM,
    WIDE_P2,
    WIDE_P2_OPT,
    WIDE_P2_PERM,
    enumerate_profiles,
    load_script,
    random_pda,
)


def oracle_verify(grid):
    """Independent reference check of C1, C2, C3 by direct nested loops."""
    f, k = len(grid), len(grid[0])
    stars = [sum(1 for j in range(f) if grid[j][c] == STAR) for c in range(k)]
    if len(set(stars)) != 1:
        return False
    codes = sorted({e for row in grid for e in row if e != STAR})
    if codes != list(range(1, len(codes) + 1)):
        return False
    for j1 in range(f):
        for c1 in range(k):
            for j2 in range(f):
                for c2 in range(k):
                    if (j1, c1) >= (j2, c2):
                        continue
                    e = grid[j1][c1]
                    if e == STAR or grid[j2][c2] != e:
                        continue
                    if j1 == j2 or c1 == c2:
                        return False
                    if grid[j1][c2] != STAR or grid[j2][c1] != STAR:
                        return False
    return True


def random_grid(rng):
    """A grid that may break C1-C3.  Either every column gets the same number
    of stars and random codes, renumbered to 1..S half the time; or a valid
    array gets one or two cells overwritten by a star or a code, or one or
    two pairs of cells swapped within a column, which keeps C1 and C2."""
    if rng.random() < 0.4:
        k, f = rng.randint(1, 5), rng.randint(1, 8)
        z, s = rng.randint(0, f), rng.randint(1, 6)
        columns = [[STAR if j in stars else rng.randint(1, s) for j in range(f)]
                   for stars in (set(rng.sample(range(f), z)) for _ in range(k))]
        grid = tuple(zip(*columns))
        return canonicalize_codes(grid) if rng.random() < 0.5 else grid
    pda = random_pda(rng, max_cols=6, max_rows=12)
    grid = [list(row) for row in pda.grid]
    swap = rng.random() < 0.5
    for _ in range(rng.randint(1, 2)):
        j1, j2, c = rng.randrange(pda.f), rng.randrange(pda.f), rng.randrange(pda.k)
        if swap:
            grid[j1][c], grid[j2][c] = grid[j2][c], grid[j1][c]
        else:
            grid[j1][c] = rng.randint(STAR, max(pda.s, 1))
    return tuple(map(tuple, grid))


small_grids = st.integers(min_value=2, max_value=4).flatmap(
    lambda k: st.lists(
        st.lists(st.integers(min_value=0, max_value=3), min_size=k, max_size=k),
        min_size=2, max_size=4,
    ).map(lambda rows: tuple(tuple(r) for r in rows))
)


class TestVerify:
    def test_golden_grids_valid(self):
        for g in (GOLDEN_SP, SMALL_P2, WIDE_P1, WIDE_P2, WIDE_P1_OPT, WIDE_P2_OPT):
            assert verify_pda(g) == ()

    def test_golden_parameters(self):
        for g, params in ((GOLDEN_SP, (5, 6, 4, 3)), (SMALL_P2, (4, 2, 1, 2)),
                          (WIDE_P1, (6, 4, 2, 4)), (WIDE_P2, (6, 3, 1, 6))):
            pda = PdaArray(g)
            assert (pda.k, pda.f, pda.z, pda.s) == params

    def test_unequal_star_counts(self):
        assert any(v.kind == "C1" for v in verify_pda(((STAR, 1), (1, 2))))
        # only C1 fails, and the star counts 1, 0, 2 average column 1's, so
        # the accept path's C3 sums alone would pass this grid
        assert {v.kind for v in verify_pda(((STAR, 2, STAR), (1, 3, STAR)))} == {"C1"}

    def test_missing_code(self):
        assert any(v.kind == "C2" for v in verify_pda(((STAR, 2), (2, STAR))))

    def test_code_repeated_in_row(self):
        assert any(v.kind == "C3a" for v in verify_pda(((1, 1), (STAR, STAR))))

    def test_missing_crossing_star(self):
        violations = verify_pda(((STAR, 1, STAR), (1, 2, STAR), (STAR, STAR, 2)))
        assert any(v.kind == "C3b" for v in violations)

    def test_all_star_degenerate(self):
        assert verify_pda(((STAR, STAR), (STAR, STAR))) == ()
        pda = PdaArray(((STAR, STAR), (STAR, STAR)))
        assert (pda.k, pda.f, pda.z, pda.s) == (2, 2, 2, 0)

    def test_violation_coordinates_are_one_based(self):
        v = next(v for v in verify_pda(((1, 1), (STAR, STAR))) if v.kind == "C3a")
        assert v.rows == (1, 1) and v.cols == (1, 2)
        assert str(v) == "C3a: code 1 repeats in the same row or column (rows (1, 1), cols (1, 2))"

    def test_ragged_grid_rejected(self):
        with pytest.raises(NonRectangularError):
            verify_pda(((1, 2), (1,)))
        with pytest.raises(NonRectangularError):
            normalize_grid(())

    def test_negative_entry_rejected(self):
        with pytest.raises(NonPositiveCodeError):
            verify_pda(((-1, STAR),))

    def test_from_grid_rejects_invalid(self):
        with pytest.raises(InvalidPdaError):
            PdaArray.from_grid(((1, 1), (STAR, STAR)))

    def test_from_grid_normalizes_once(self, monkeypatch):
        calls = []

        def counted(rows):
            calls.append(rows)
            return normalize_grid(rows)

        monkeypatch.setattr("sppda.arrays.normalize_grid", counted)
        pda = PdaArray.from_grid([[STAR, 1], [1, STAR]])
        assert len(calls) == 1
        assert pda.grid == ((STAR, 1), (1, STAR))

    @settings(max_examples=300, deadline=None)
    @given(small_grids)
    def test_matches_brute_force_oracle(self, grid):
        assert (verify_pda(grid) == ()) == oracle_verify(grid)

    @settings(max_examples=300, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_constructor_is_the_check(self, rng):
        grid = random_grid(rng)
        if not oracle_verify(grid):
            with pytest.raises(InvalidPdaError) as info:
                PdaArray(grid)
            assert info.value.violations == verify_pda(grid) != ()
            return
        pda = PdaArray(grid)
        assert (pda.k, pda.f, pda.z, pda.s) == grid_oracle.params(grid)
        assert pda.star_masks == tuple(sum(1 << (j - 1) for j in grid_oracle.star_rows(pda, c))
                                       for c in range(1, pda.k + 1))
        assert pda.code_cells == grid_oracle.flat(grid_oracle.code_cells(pda))
        perm = rng.sample(range(pda.k), pda.k)  # old column c moves to position perm[c]
        moved = tuple(tuple(row[perm.index(c)] for c in range(pda.k)) for row in grid)
        assert permute_columns(pda, perm) == PdaArray(moved)

    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_accepts_random_valid_arrays(self, rng):
        pda = random_pda(rng, max_cols=6, max_rows=30)
        assert verify_pda(pda.grid) == ()
        assert PdaArray(pda.grid) == pda


def mutated_family_grid(rng):
    """A MaN, Construction A or random valid array with 0-2 mutations, each a
    swap of two cells in a row or in a column, a cell overwritten by a code,
    or a star flipped to a code or a code to a star."""
    roll = rng.random()
    if roll < 0.35:
        k = rng.randint(1, 6)
        pda = man_pda(k, rng.randint(0, k))
    elif roll < 0.7:
        pda = construction_a_pda(rng.randint(2, 3), rng.randint(1, 2))
    else:
        pda = random_pda(rng, max_cols=6, max_rows=12)
    grid = [list(row) for row in pda.grid]
    top = max(pda.s, 1)
    for _ in range(rng.randint(0, 2)):
        j1, j2 = rng.randrange(pda.f), rng.randrange(pda.f)
        c1, c2 = rng.randrange(pda.k), rng.randrange(pda.k)
        kind = rng.randrange(4)
        if kind == 0:
            grid[j1][c1], grid[j1][c2] = grid[j1][c2], grid[j1][c1]
        elif kind == 1:
            grid[j1][c1], grid[j2][c1] = grid[j2][c1], grid[j1][c1]
        elif kind == 2:
            grid[j1][c1] = rng.randint(1, top)
        else:
            grid[j1][c1] = rng.randint(1, top) if grid[j1][c1] == STAR else STAR
    return tuple(map(tuple, grid))


def per_cell_normalize(rows):
    """The per-cell loop of ``normalize_grid`` alone, for every grid."""
    grid = tuple(tuple(row) for row in rows)
    if not grid or not grid[0]:
        raise NonRectangularError("grid must have at least one row and column")
    width = len(grid[0])
    for j, row in enumerate(grid):
        if len(row) != width:
            raise NonRectangularError(f"row {j + 1} has {len(row)} entries, expected {width}")
        for k, e in enumerate(row):
            if not isinstance(e, int) or e < 0:
                raise NonPositiveCodeError(f"entry at ({j + 1},{k + 1}) is {e!r}; codes must be positive integers")
    return grid


class Code(IntEnum):
    ONE = 1
    TWO = 2


def normalized_grid(rows):
    """The grid ``normalize_grid`` returns, after checking that the set it
    returns with it holds the grid's distinct entries."""
    grid, values = normalize_grid(rows)
    assert values == set(itertools.chain.from_iterable(grid))
    return grid


def _outcome(fn, rows):
    """The grid ``fn`` returns with the type of each cell, or its exception's
    type and message."""
    try:
        grid = fn(rows)
    except PdaError as exc:
        return type(exc), str(exc)
    return grid, tuple(type(e) for row in grid for e in row)


odd_cells = st.sampled_from([True, False, Code.ONE, Code.TWO, -1, 1.0, 0.5, "1", "*", None])


@st.composite
def mixed_grids(draw):
    """Small grids of nonnegative ints with up to two odd cells, and a last
    row cut short or made longer a quarter of the time."""
    width = draw(st.integers(min_value=0, max_value=4))
    rows = draw(st.lists(st.lists(st.integers(min_value=0, max_value=4), min_size=width, max_size=width),
                         min_size=0, max_size=4))
    if rows and width:
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            j, c = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, width - 1))
            rows[j][c] = draw(odd_cells)
        if draw(st.integers(0, 3)) == 0:
            rows[-1] = rows[-1][:-1] if draw(st.booleans()) else rows[-1] + [1]
    return rows


class TestAcceptPath:
    """``_accept`` is the check on valid grids; ``_violations``, the cell-level
    loops, runs only on the grids it refuses."""

    @settings(max_examples=400, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_accept_and_violations_agree(self, rng):
        grid = mutated_family_grid(rng)
        tables = _accept(*normalize_grid(grid))
        violations = _violations(grid)
        assert (tables is not None) == (violations == ()) == oracle_verify(grid)
        if tables is None:
            return
        k, f, z, s = grid_oracle.params(grid)
        view = SimpleNamespace(grid=grid, k=k, f=f, s=s)
        masks = tuple(sum(1 << (j - 1) for j in grid_oracle.star_rows(view, c)) for c in range(1, k + 1))
        assert tables == (z, s, masks, grid_oracle.code_columns(view))

    @settings(max_examples=300, deadline=None)
    @given(mixed_grids())
    def test_normalize_fast_check_matches_the_loop(self, rows):
        assert _outcome(normalized_grid, rows) == _outcome(per_cell_normalize, rows)

    @pytest.mark.parametrize("rows", [
        ((1, 2), (1,)), ((True, False), (False, True)), ((Code.ONE, STAR), (STAR, Code.ONE)),
        ((-1, STAR),), ((1.0, STAR),), (("1", STAR),), ((STAR, 1), (1, STAR)),
    ])
    def test_normalize_cases(self, rows):
        assert _outcome(normalized_grid, rows) == _outcome(per_cell_normalize, rows)

    def test_code_cells_built_on_first_use(self):
        pda = PdaArray(GOLDEN_SP)
        assert "code_cells" not in vars(pda)
        assert pda.code_cells == grid_oracle.flat(grid_oracle.code_cells(pda))
        assert pda.code_cells is pda.code_cells

    def test_code_cells_memory(self):
        # one flat int tuple per code: the F=8400 skewed array's table keeps
        # about 1.75 MiB and peaks at about 2.9 MiB while it is built; a pair
        # tuple per cell kept 5.0 MiB and peaked at 6.9 MiB
        pda = construct_sppda(man_pda(8, 4), man_pda(10, 3),
                              AssociationProfile((10, 4, 2, 2, 2, 2, 1, 1))).pda
        tracemalloc.start()
        try:
            pda.code_cells
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (pda.f, pda.s) == (8400, 11115)
        assert kept < 2.5 * 2 ** 20 and peak < 3.5 * 2 ** 20

    def test_star_masks_transient(self, monkeypatch):
        # the F=8400 skewed array's star masks are joined in blocks of rows, so
        # the transposition peaks at about 0.4 MiB; one string per row held at
        # once took it to 0.85 MiB
        grid = construct_sppda(man_pda(8, 4), man_pda(10, 3),
                               AssociationProfile((10, 4, 2, 2, 2, 2, 1, 1))).pda.grid
        expected = grid_oracle.star_masks(SimpleNamespace(grid=grid))
        row_masks = _row_masks(grid)
        tracemalloc.start()
        try:
            masks = _star_masks(row_masks, len(grid[0]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(grid) == 8400 and masks == expected
        assert peak <= 0.6 * 2 ** 20
        # the accept path and both passes of the reject path read the same masks
        seen = []
        star_masks = arrays._star_masks
        monkeypatch.setattr(arrays, "_star_masks", lambda *a: seen.append(star_masks(*a)) or seen[-1])
        PdaArray(grid)
        # a row's first code repeated in its second code's cell: C3a, stars untouched
        j = next(j for j, row in enumerate(grid) if sum(map(bool, row)) >= 2)
        first, second = [c for c, e in enumerate(grid[j]) if e != STAR][:2]
        broken = list(grid)
        broken[j] = grid[j][:second] + (grid[j][first],) + grid[j][second + 1:]
        assert [v.kind for v in verify_pda(broken)][:1] == ["C3a"]
        assert seen == [expected] * 3

    def test_valid_grids_never_reach_the_loops(self, monkeypatch):
        def refuse(grid):
            raise AssertionError("the cell-level loops ran on a valid grid")

        monkeypatch.setattr("sppda.arrays._violations", refuse)
        for grid in (GOLDEN_SP, SMALL_P2, WIDE_P1, WIDE_P2, ((STAR, STAR), (STAR, STAR))):
            PdaArray(grid)
        man_pda(6, 2)
        construction_a_pda(3, 2)

    def test_cli_cells_by_code_calls(self, tmp_path, monkeypatch):
        # verify never builds code_cells; simulate builds them once
        calls = []

        def counted(grid, cells):
            calls.append(len(grid))
            return _cells_by_code(grid, cells)

        monkeypatch.setattr("sppda.arrays._cells_by_code", counted)
        path = tmp_path / "golden.sppda"
        path.write_text(GOLDEN_SP_TEXT)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["verify", str(path)]) == 0
            assert calls == []
            assert main(["simulate", str(path), "--synthetic", "5,60,0", "--worst-case"]) == 0
        assert calls == [6]

    @pytest.mark.parametrize("grid", [((10 ** 9,),), ((1,) * 60,) * 60],
                             ids=["one-huge-code", "60x60-ones"])
    def test_hostile_grids_stop_at_the_cap(self, grid):
        # unbounded, these list 10^9 - 1 C2 and 6 478 200 C3 violations
        start = time.perf_counter()
        violations = verify_pda(grid)
        assert time.perf_counter() - start < 1
        assert len(violations) == MAX_VIOLATIONS
        with pytest.raises(InvalidPdaError) as info:
            PdaArray(grid)
        assert info.value.capped and info.value.violations == violations

    @pytest.mark.parametrize("top, capped",
                             [(MAX_VIOLATIONS + 1, False), (MAX_VIOLATIONS + 2, True)])
    def test_cap_boundary(self, top, capped):
        with pytest.raises(InvalidPdaError) as info:
            PdaArray(((top,),))
        assert info.value.capped == capped
        assert [v.detail for v in info.value.violations] == [
            f"code {c} absent but code {top} present" for c in range(1, MAX_VIOLATIONS + 1)]
        assert str(info.value).endswith(
            f"(stopped at MAX_VIOLATIONS = {MAX_VIOLATIONS})" if capped else f"({MAX_VIOLATIONS} total)")

    def test_one_swap_large_grid_violations(self):
        # the F=8400 skewed reference grid's one-swap copy, as the timing script builds it
        timing = load_script("check_timing")
        grid = timing.one_swap(timing.skewed_grid())
        assert _accept(*normalize_grid(grid)) is None
        with pytest.raises(InvalidPdaError) as info:
            PdaArray(grid)
        violations = info.value.violations
        assert len(violations) == 8 and {v.kind for v in violations} == {"C3b"}
        assert list(map(str, violations[:3])) == [
            "C3b: code 211: crossing cells are not both stars (rows (9, 249), cols (20, 18))",
            "C3b: code 211: crossing cells are not both stars (rows (9, 729), cols (20, 16))",
            "C3b: code 211: crossing cells are not both stars (rows (9, 1929), cols (20, 12))",
        ]


def edge_grids():
    """Valid grids of shapes the random grids seldom reach, by name: K in
    {1, 2, 63, 64, 65, 130} (MaN(K, K - 1), one row of K codes, and MaN(K, 1)
    below 130 columns, where the oracle's code scan stays fast), one column,
    and MaN(70, 1)."""
    man_grid = grid_oracle.man_grid
    grids = {"MaN(1,1)": man_grid(1, 1), "one-column": ((1,), (STAR,), (2,), (STAR,), (3,))}
    for n in (1, 2, 63, 64, 65, 130):
        grids[f"MaN({n},{n - 1})"] = man_grid(n, n - 1)
        grids[f"one-row-{n}"] = (tuple(range(1, n + 1)),)
    for n in (63, 64, 65, 70):
        grids[f"MaN({n},1)"] = man_grid(n, 1)
    return grids


EDGE_GRIDS = edge_grids()


class TestEdgeShapes:
    """The accept path's tables against the per-cell oracle on the edge
    shapes, and C1 caught wherever the one odd star sits."""

    @pytest.mark.parametrize("name", EDGE_GRIDS)
    def test_tables_match_the_oracle(self, name):
        grid = EDGE_GRIDS[name]
        pda = PdaArray(grid)
        assert (pda.k, pda.f, pda.z, pda.s) == grid_oracle.params(grid)
        assert pda.star_masks == grid_oracle.star_masks(pda)
        assert pda.code_columns == grid_oracle.code_columns(pda)

    @pytest.mark.parametrize("name", [name for name, grid in EDGE_GRIDS.items() if len(grid[0]) > 1])
    @pytest.mark.parametrize("row", ["first", "last"])
    @pytest.mark.parametrize("pick", ["first", "last"])
    def test_one_odd_star_breaks_c1(self, name, row, pick):
        # turn the first or last code of row 1 or row F into a star: only
        # its column's star count changes
        rows = [list(r) for r in EDGE_GRIDS[name]]
        j = 0 if row == "first" else len(rows) - 1
        codes = [c for c, e in enumerate(rows[j]) if e != STAR]
        rows[j][codes[0] if pick == "first" else codes[-1]] = STAR
        grid = tuple(map(tuple, rows))
        view = SimpleNamespace(grid=grid)
        masks = grid_oracle.star_masks(view)
        assert _star_masks(_row_masks(grid), len(grid[0])) == masks
        assert _accept(*normalize_grid(grid)) is None
        z = masks[0].bit_count()
        odd = [(c,) for c, mask in enumerate(masks, start=1) if mask.bit_count() != z]
        c1 = [v.cols for v in verify_pda(grid) if v.kind == "C1"]
        assert odd and c1 == odd[:MAX_VIOLATIONS]

    @pytest.mark.parametrize("rows, detail", [
        (((1, 2, -1), (-5, STAR, -2)), "entry at (1,3) is -1"),
        (((STAR, -7), (-1, 1)), "entry at (1,2) is -7"),
        (((STAR, True, -3), (-9, 2, -2)), "entry at (1,3) is -3"),
    ], ids=["ints", "ints-first-not-least", "with-bool"])
    def test_first_negative_entry_is_named(self, rows, detail):
        # plain ints fail the fast check on the least distinct value, a bool
        # sends the grid to the loop at once; either way the loop names the
        # first negative cell in row-major order, not the least value
        for check in (PdaArray, verify_pda, normalize_grid, canonicalize_codes):
            with pytest.raises(NonPositiveCodeError) as info:
                check(rows)
            assert str(info.value) == f"{detail}; codes must be positive integers"


class TestColumnOps:
    def test_column_and_star_rows(self):
        pda = PdaArray.from_grid(GOLDEN_SP)
        assert column(pda, 5) == (1, STAR, 3, STAR, STAR, STAR)
        assert frozenset(mask_rows(pda.star_masks[0])) == frozenset({1, 2, 3, 4})
        assert [s for s, mask in enumerate(pda.code_columns, start=1) if mask >> 3 & 1] == [1, 2]

    def test_regularity(self):
        assert regularity(man_pda(4, 1)) == 2
        assert regularity(man_pda(5, 2)) == 3
        assert regularity(PdaArray.from_grid(WIDE_P1)) == 3
        # code 1 occurs 4 times, codes 2 and 3 occur 3 times: no single g
        assert regularity(PdaArray.from_grid(GOLDEN_SP)) is None
        assert regularity(man_pda(3, 3)) is None

    def test_permute_columns_golden(self):
        p1 = permute_columns(PdaArray.from_grid(WIDE_P1), WIDE_P1_PERM)
        assert p1.grid == WIDE_P1_OPT
        p2 = permute_columns(PdaArray.from_grid(WIDE_P2), WIDE_P2_PERM)
        assert p2.grid == WIDE_P2_OPT

    def test_permute_columns_preserves_parameters(self):
        pda = PdaArray.from_grid(WIDE_P2)
        out = permute_columns(pda, (5, 4, 3, 2, 1, 0))
        assert (out.k, out.f, out.z, out.s) == (pda.k, pda.f, pda.z, pda.s)
        assert verify_pda(out.grid) == ()

    def test_permute_columns_inverse_roundtrip(self):
        pda = PdaArray.from_grid(WIDE_P1)
        perm = (2, 0, 4, 1, 5, 3)
        inv = tuple(perm.index(i) for i in range(6))
        assert permute_columns(permute_columns(pda, perm), inv).grid == pda.grid

    def test_permute_columns_rejects_non_bijection(self):
        with pytest.raises(InvalidPermutationError):
            permute_columns(man_pda(3, 1), (0, 0, 1))

    def test_phi_golden(self):
        p2 = PdaArray.from_grid(WIDE_P2)
        assert phi(p2)[1:4] == (2, 4, 6)
        p2o = PdaArray.from_grid(WIDE_P2_OPT)
        assert phi(p2o)[1:] == (2, 3, 4, 5, 6, 6)

    def test_xi_golden(self):
        p1 = PdaArray.from_grid(WIDE_P1)
        assert [xi(p1, s) for s in range(1, 5)] == [1, 1, 2, 2]
        assert [xi(man_pda(3, 1), s) for s in range(1, 4)] == [1, 1, 2]
        with pytest.raises(CodeAbsentError):
            xi(p1, 5)

    def test_all_star_row_count(self):
        pda = PdaArray.from_grid(GOLDEN_SP)
        groups = group_star_masks(pda.star_masks, pda.f, (3, 2))
        assert [mask.bit_count() for mask in groups] == [3, 3]
        # columns 1 and 4 grouped first
        groups = group_star_masks(pda.star_masks, pda.f, (2, 3), (0, 2, 3, 1, 4))
        assert groups[0].bit_count() == 2

    def test_canonicalize_codes(self):
        assert canonicalize_codes(((STAR, 7), (7, STAR))) == ((STAR, 1), (1, STAR))
        assert canonicalize_codes(((5, 2), (2, 5))) == ((1, 2), (2, 1))


class TestManFamily:
    @pytest.mark.parametrize("k,t", [(k, t) for k in range(1, 9) for t in range(0, k + 1)])
    def test_parameters(self, k, t):
        pda = man_pda(k, t)
        assert (pda.k, pda.f, pda.z, pda.s) == (k, binom(k, t), binom(k - 1, t - 1), binom(k, t + 1))

    def test_regular(self):
        for k in range(2, 8):
            for t in range(0, k):
                assert regularity(man_pda(k, t)) == t + 1

    def test_codes_in_first_appearance_order(self):
        # both families number codes as canonicalize_codes would, so neither calls it
        grids = [man_pda(k, t).grid for k in range(1, 11) for t in range(0, k + 1)]
        grids += [construction_a_pda(q, m).grid for q in range(2, 6) for m in range(1, 4)]
        for grid in grids:
            assert canonicalize_codes(grid) == grid

    def test_t_zero_is_single_row(self):
        assert man_pda(4, 0).grid == ((1, 2, 3, 4),)

    def test_t_equal_k_is_all_star(self):
        pda = man_pda(3, 3)
        assert pda.s == 0 and all(e == STAR for row in pda.grid for e in row)

    def test_known_small_instance(self):
        assert man_pda(3, 1).grid == ((STAR, 1, 2), (1, STAR, 3), (2, 3, STAR))

    def test_matches_per_cell_builder(self):
        for k in range(1, 13):
            for t in range(0, k + 1):
                assert man_pda(k, t).grid == grid_oracle.man_grid(k, t), (k, t)

    def test_tables_match_checked_array(self):
        # the sweep reads MaN's tables from its definition; they must be the
        # tables of the built and checked array for every MaN(k, t) up to
        # k = 16, and for k = 17..24 at the t whose arrays stay small
        start = time.monotonic()
        pairs = [(k, t) for k in range(1, 17) for t in range(0, k + 1)]
        pairs += [(k, t) for k in range(17, 25) for t in sorted({0, 1, 2, k - 2, k - 1, k})]
        for k, t in pairs:
            pda = man_pda(k, t)
            assert man_tables(k, t) == (pda.k, pda.f, pda.z, pda.s, pda.star_masks, pda.code_columns), \
                (k, t)
        elapsed = time.monotonic() - start
        assert elapsed < 20, f"MaN tables against checked arrays took {elapsed:.1f}s"

    def test_many_users_check_in_time(self):
        # masks of 61 or more columns are not interned: two-bit masks collide
        # in Python's int hash, which made the check of MaN(800, 1) take seconds
        grid = man_pda(800, 1).grid
        start = time.perf_counter()
        pda = PdaArray(grid)
        assert time.perf_counter() - start < 2
        assert (pda.k, pda.f, pda.z, pda.s) == (800, 800, 1, 319600)

    def test_bad_parameters(self):
        for build in (man_pda, man_tables, man_closed_form):
            for k, t in ((3, 4), (0, 0), (3, -1)):
                with pytest.raises(ParameterError, match=f"got K={k}, t={t}$"):
                    build(k, t)

    def test_closed_form_matches_built_array(self):
        # K, F, Z and phi(w) = C(k, t+1) - C(k-w, t+1) against the built and
        # checked array, for every MaN(k, t) up to k = 16
        for k in range(1, 17):
            for t in range(0, k + 1):
                pda, form = man_pda(k, t), man_closed_form(k, t)
                assert (form.k, form.f, form.z) == (pda.k, pda.f, pda.z), (k, t)
                assert tuple(map(form.phi, range(1, k + 1))) == phi(pda)[1:], (k, t)
                assert form.phi(0) == 0


class TestConstructionAFamily:
    @pytest.mark.parametrize("q,m", [(q, m) for q in (2, 3, 4) for m in (1, 2, 3)])
    def test_parameters(self, q, m):
        pda = construction_a_pda(q, m)
        assert (pda.k, pda.f, pda.z, pda.s) == (q * (m + 1), q ** m, q ** (m - 1), q ** m * (q - 1))

    @pytest.mark.parametrize("q,m", [(q, m) for q in (2, 3, 4) for m in (1, 2, 3)])
    def test_every_code_first_appears_within_q_columns(self, q, m):
        pda = construction_a_pda(q, m)
        assert all(xi(pda, s) <= q for s in range(1, pda.s + 1))

    def test_regular(self):
        for q in (2, 3):
            for m in (1, 2):
                assert regularity(construction_a_pda(q, m)) == m + 1

    def test_bad_parameters(self):
        for build in (construction_a_pda, construction_a_closed_form):
            for q, m in ((1, 2), (2, 0)):
                with pytest.raises(ParameterError, match=f"got q={q}, m={m}$"):
                    build(q, m)

    def test_closed_form_matches_built_array(self):
        # K, F, Z and phi(w) = q^{m-1}(q-1) min(w, q) against the built and
        # checked array, for every q <= 5 and m <= 3 under MAX_CELLS
        built = 0
        for q in range(2, 6):
            for m in range(1, 4):
                if q ** m * q * (m + 1) > MAX_CELLS:
                    continue
                pda, form = construction_a_pda(q, m), construction_a_closed_form(q, m)
                assert (form.k, form.f, form.z) == (pda.k, pda.f, pda.z), (q, m)
                assert tuple(map(form.phi, range(1, pda.k + 1))) == phi(pda)[1:], (q, m)
                assert form.phi(0) == 0
                built += 1
        assert built == 12


class TestSizeCap:
    def test_families_refused_before_building(self, no_family_rows):
        for build, args in ((man_pda, (40, 20)), (construction_a_pda, (10, 9)),
                            (man_pda, (10 ** 9, 5 * 10 ** 8)), (construction_a_pda, (2, 10 ** 9)),
                            (man_tables, (40, 20)), (man_tables, (10 ** 9, 5 * 10 ** 8))):
            with pytest.raises(ParameterError, match=f"more than MAX_CELLS = {MAX_CELLS} cells$"):
                build(*args)

    def test_closed_forms_have_no_cap(self, no_family_rows):
        # a closed form answers for a member too large to build
        man, consa = man_closed_form(40, 20), construction_a_closed_form(10, 9)
        assert (man.f, man.z, man.phi(40)) == (binom(40, 20), binom(39, 19), binom(40, 21))
        assert (consa.k, consa.f, consa.phi(30)) == (100, 10 ** 9, 9 * 10 ** 9)

    def test_families_at_a_small_cap(self, monkeypatch):
        # every member whose grid fits under the cap is built, every other one raises
        monkeypatch.setattr("sppda.arrays.MAX_CELLS", 2000)
        sizes = [(build, (k, t), binom(k, t) * k)
                 for build in (man_pda, man_tables) for k in range(1, 16) for t in range(k + 1)]
        sizes += [(construction_a_pda, (q, m), q ** m * q * (m + 1))
                  for q in range(2, 8) for m in range(1, 7)]
        for build, args, cells in sizes:
            if cells > 2000:
                with pytest.raises(ParameterError, match="MAX_CELLS = 2000"):
                    build(*args)
            else:
                pda = build(*args)
                assert pda.f * pda.k == cells


class TestAssociationProfile:
    def test_parse_and_accessors(self):
        p = AssociationProfile((6, 3, 2, 1, 1, 1))
        assert p.parts == (6, 3, 2, 1, 1, 1)
        assert (p.num_groups, p.num_users) == (6, 14)
        assert p.part(2) == 3

    def test_rejects_increasing(self):
        with pytest.raises(ParameterError):
            AssociationProfile((1, 2))

    def test_rejects_empty_and_negative(self):
        with pytest.raises(ParameterError):
            AssociationProfile(())
        with pytest.raises(ParameterError):
            AssociationProfile((2, -1))

    def test_enumerate_profiles(self):
        got = {p.parts for p in enumerate_profiles(6, 3)}
        assert got == {(4, 1, 1), (3, 2, 1), (2, 2, 2)}
        for total in range(1, 9):
            for length in range(1, total + 1):
                for p in enumerate_profiles(total, length):
                    assert p.num_users == total and p.num_groups == length


def test_binom_out_of_range_is_zero():
    assert binom(3, 5) == 0
    assert binom(3, -1) == 0
    assert binom(-2, 0) == 0
    assert binom(5, 2) == 10
