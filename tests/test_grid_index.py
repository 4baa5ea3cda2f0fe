"""The index tables of ``PdaArray`` against the naive grid scans in
``grid_oracle``: every reader that moved onto the tables must agree with the
cell-by-cell reference, on validated arrays, column-permuted arrays and
constructed arrays."""

from hypothesis import given, settings
from hypothesis import strategies as st

import grid_oracle as oracle
from conftest import WIDE_P1, WIDE_P2, WIDE_PROFILE, random_pda, random_profile
from sppda.arrays import PdaArray, mask_rows, permute_columns, xi
from sppda.construct import block_tables, construct_sppda, group_star_masks, s_count
from sppda.permsearch import (check_E1, check_E2, exhaustive_best, heuristic_reorder, phi_vector,
                              top_pairs)
from sppda.sim import FileLibrary, sp_deliver


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_readers_match_grid_oracle(rng):
    p1 = random_pda(rng, max_cols=5, max_rows=10)
    p2 = random_pda(rng, max_cols=4, max_rows=10)
    profile = random_profile(rng, p1.k, p2.k)
    sp = construct_sppda(p1, p2, profile)
    shuffled = permute_columns(p2, rng.sample(range(p2.k), p2.k))
    for pda in (p1, p2, shuffled, sp.pda):
        assert pda.code_cells == oracle.flat(oracle.code_cells(pda))
        assert pda.code_columns == oracle.code_columns(pda)
        assert pda.code_columns is pda.code_columns  # built once
        for s in range(1, pda.s + 1):
            assert xi(pda, s) == oracle.xi(pda, s)
        for c in range(1, pda.k + 1):
            assert frozenset(mask_rows(pda.star_masks[c - 1])) == oracle.star_rows(pda, c)
        perm = tuple(rng.sample(range(pda.k), pda.k))
        assert phi_vector(pda) == oracle.phi_vector(pda)
        assert phi_vector(pda, perm) == oracle.phi_vector(pda, perm)

    grouping = tuple(rng.sample(range(sp.pda.k), sp.pda.k))
    for g in (None, grouping):
        expected = oracle.group_star_masks(sp.pda, profile.parts, g)
        assert group_star_masks(sp.pda.star_masks, sp.pda.f, profile.parts, g) == expected

    library = FileLibrary.synthetic(2, 3 * sp.pda.f, sp.pda.f, seed=rng.randrange(100))
    transmissions = sp_deliver(sp, library, [rng.randint(1, 2) for _ in range(sp.pda.k)])
    assert tuple(t.components for t in transmissions) == oracle.code_cells(sp.pda)
    # the cells are the table's own tuples, not copies
    assert all(t.cells is cells for t, cells in zip(transmissions, sp.pda.code_cells))


def test_only_delivery_builds_code_cells():
    """The search, the construction and its tables read ``star_masks`` and
    ``code_columns``; ``code_cells`` stays unbuilt on the arrays they read
    and on those they return."""
    p1, p2, profile = PdaArray(WIDE_P1), PdaArray(WIDE_P2), WIDE_PROFILE
    returned = [
        heuristic_reorder(p1, side="first"),
        heuristic_reorder(p2, profile, side="second"),
        construct_sppda(p1, p2, profile).pda,
    ]
    exhaustive_best(p1, p2, profile)
    top_pairs(p1, p2, profile)
    check_E1(p1)
    check_E2(p2, profile)
    s_count(p1, p2, profile)
    block_tables(p1, p2, profile)
    phi_vector(p1)
    assert returned[0] != p1 and returned[1] != p2  # the greedy order moved columns
    for pda in (p1, p2, *returned):
        assert "code_cells" not in vars(pda)
