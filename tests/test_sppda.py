"""The two-array construction, D1/D2 checking, and the closed-form counts."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sppda.arrays import (
    STAR,
    AssociationProfile,
    InvalidPermutationError,
    NonRectangularError,
    ParameterError,
    PdaArray,
    binom,
    canonicalize_codes,
    man_pda,
    normalize_grid,
    permute_columns,
    phi,
    verify_pda,
)
from sppda.construct import (
    DimensionMismatchError,
    GroupFailure,
    InsufficientStarRowsError,
    ProfileMismatchError,
    SpPdaArray,
    _FirstShare,
    _second_share,
    block_tables,
    construct_sppda,
    group_star_masks,
    s_closed_form_construction_a,
    s_closed_form_man,
    s_count,
    s_from_phi,
    s_weights,
    verify_sppda,
)
from sppda.analysis import rate_man_pair
from sppda.arrays import construction_a_pda
from sppda.sim import FileLibrary, dedicated_run, sp_place, sp_run

import grid_oracle
from construct_oracle import construct_cells
from conftest import (
    GOLDEN_SP,
    SMALL_P2,
    SMALL_Q,
    WIDE_P1,
    WIDE_P1_OPT,
    WIDE_P2,
    WIDE_P2_OPT,
    WIDE_PROFILE,
    WIDE_Q,
    WIDE_Q_OPT,
    enumerate_profiles,
    random_pda,
    random_profile,
)


def distinct_codes(grid) -> int:
    return len({e for row in grid for e in row if e != 0})


class TestConstruct:
    def test_golden_small(self):
        sp = construct_sppda(man_pda(2, 1), man_pda(3, 1), AssociationProfile((3, 2)))
        assert sp.pda.grid == GOLDEN_SP
        assert (sp.pda.k, sp.profile.num_groups, sp.pda.f, sp.pda.z, sp.helper_stars,
                sp.pda.s) == (5, 2, 6, 4, 3, 3)
        assert (sp.mh_ratio, sp.mp_ratio, sp.rate) == (
            Fraction(1, 2), Fraction(1, 6), Fraction(1, 2))

    def test_golden_mixed_profile(self):
        sp = construct_sppda(man_pda(3, 1), PdaArray.from_grid(SMALL_P2),
                             AssociationProfile((4, 2, 1)))
        assert sp.pda.grid == SMALL_Q
        assert (sp.pda.f, sp.pda.s) == (6, 5)

    def test_golden_wide_pair(self):
        sp = construct_sppda(PdaArray.from_grid(WIDE_P1), PdaArray.from_grid(WIDE_P2),
                             WIDE_PROFILE)
        assert sp.pda.grid == WIDE_Q
        assert (sp.pda.k, sp.pda.f, sp.pda.z, sp.helper_stars, sp.pda.s) == (14, 12, 8, 6, 24)

    def test_golden_wide_pair_reordered(self):
        sp = construct_sppda(PdaArray.from_grid(WIDE_P1_OPT), PdaArray.from_grid(WIDE_P2_OPT),
                             WIDE_PROFILE)
        assert sp.pda.grid == WIDE_Q_OPT
        assert sp.pda.s == 18

    def test_s_count_matches_materialized_array(self):
        p1, p2 = PdaArray.from_grid(WIDE_P1), PdaArray.from_grid(WIDE_P2)
        assert s_count(p1, p2, WIDE_PROFILE) == 24
        p1o, p2o = PdaArray.from_grid(WIDE_P1_OPT), PdaArray.from_grid(WIDE_P2_OPT)
        assert s_count(p1o, p2o, WIDE_PROFILE) == 18

    def test_argument_order_matters(self):
        # the construction is not symmetric: swapping the arrays (and using the
        # matching profile shape) can change S
        forward = construct_sppda(man_pda(3, 1), man_pda(4, 1),
                                  AssociationProfile((4, 3, 1)))
        backward = construct_sppda(man_pda(4, 1), man_pda(3, 1),
                                   AssociationProfile((3, 3, 1, 1)))
        assert forward.pda.s == 18
        assert backward.pda.s == 17

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            construct_sppda(man_pda(3, 1), man_pda(3, 1), AssociationProfile((3, 2)))
        with pytest.raises(DimensionMismatchError):
            construct_sppda(man_pda(2, 1), man_pda(2, 1), AssociationProfile((3, 2)))

    @settings(max_examples=80, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_matches_cell_by_cell_oracle(self, rng):
        if rng.random() < 0.5:
            # k <= t columns of MaN(k0, t): some rows of p1 are all star, every row when t = k0
            k0 = rng.randint(3, 6)
            t = rng.randint(2, k0)
            cols = rng.sample(range(k0), rng.randint(2, t))
            p1 = PdaArray.from_grid(canonicalize_codes(
                [tuple(row[c] for c in cols) for row in man_pda(k0, t).grid]))
        else:
            p1 = random_pda(rng, max_cols=4, max_rows=8)
        p2 = random_pda(rng, max_cols=4, max_rows=8)
        # group widths below the largest, zero included
        rest = sorted((rng.randint(0, p2.k) for _ in range(p1.k - 1)), reverse=True)
        profile = AssociationProfile((p2.k, *rest))
        grid, z, s, zh = construct_cells(p1, p2, profile)
        fast = construct_sppda(p1, p2, profile)
        assert (fast.pda.grid, fast.pda.z, fast.pda.s, fast.helper_stars) == (grid, z, s, zh)
        assert fast.pda.star_masks == tuple(sum(1 << j for j, e in enumerate(col) if e == STAR)
                                            for col in zip(*grid))

    @settings(max_examples=100, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_block_tables_match_validated_construction(self, rng):
        draw = rng.random()
        if draw < 0.3:
            p1 = construction_a_pda(rng.randint(2, 3), rng.randint(1, 2))
        elif draw < 0.5:
            # k <= t columns of MaN(k0, t): some rows of p1 are all star
            k0 = rng.randint(3, 6)
            t = rng.randint(2, k0)
            cols = rng.sample(range(k0), rng.randint(2, t))
            p1 = PdaArray.from_grid(canonicalize_codes(
                [tuple(row[c] for c in cols) for row in man_pda(k0, t).grid]))
        else:
            p1 = random_pda(rng, max_cols=4, max_rows=8)
        p2 = random_pda(rng, max_cols=4, max_rows=8)
        # group widths below the largest, zero included
        rest = sorted((rng.randint(0, p2.k) for _ in range(p1.k - 1)), reverse=True)
        profile = AssociationProfile((p2.k, *rest))
        tables = block_tables(p1, p2, profile)
        sp = construct_sppda(p1, p2, profile)
        assert (tables.f, tables.z, tables.zh, tables.s) == \
            (sp.pda.f, sp.pda.z, sp.helper_stars, sp.pda.s)
        assert tables.s == s_count(p1, p2, profile)
        assert tables.group_stars == tuple(map(int.bit_count, sp.group_masks)) \
            == grid_oracle.group_star_counts(sp.pda, profile.parts)

    # p1: no stars, all stars, mixed; p2: F2 = 1 with codes or stars only, F2 > 1;
    # every group wide, and one or two groups of width 0
    @pytest.mark.parametrize("p1", [man_pda(3, 0), man_pda(3, 3), man_pda(3, 1)],
                             ids=["p1-no-stars", "p1-all-stars", "p1-mixed"])
    @pytest.mark.parametrize("p2", [man_pda(2, 0), man_pda(2, 2), man_pda(2, 1)],
                             ids=["p2-f1-codes", "p2-f1-stars", "p2-mixed"])
    @pytest.mark.parametrize("parts", [(2, 2, 2), (2, 1, 0), (2, 0, 0)])
    def test_block_star_masks_edge_cases(self, p1, p2, parts):
        sp = construct_sppda(p1, p2, AssociationProfile(parts))
        stars = block_tables(p1, p2, AssociationProfile(parts)).group_stars
        assert stars == tuple(map(int.bit_count, sp.group_masks)) \
            == grid_oracle.group_star_counts(sp.pda, parts)
        # a group of width 0 keeps every row: it counts all F
        assert all(count == sp.pda.f for count, w in zip(stars, parts) if not w)

    def test_first_share_reused_over_second_arrays(self):
        # one first-array share paired with several second arrays gives what
        # fresh block_tables calls give, for each F2 and column order of p2
        p1, profile = man_pda(4, 2), AssociationProfile((3, 3, 2, 0))
        # two arrays with F = 3 whose first two columns share different star rows
        m32 = man_pda(3, 2)
        shifted = permute_columns(m32, (1, 2, 0))
        seconds = (m32, shifted, man_pda(3, 0), man_pda(3, 1), m32, man_pda(3, 3))
        first = _FirstShare(p1, profile)
        shared = [first.tables(_second_share(p2, profile)) for p2 in seconds]
        assert len({tables.group_stars for tables in shared}) == 4
        for tables, p2 in zip(shared, seconds):
            sp = construct_sppda(p1, p2, profile)
            assert tables == block_tables(p1, p2, profile)
            assert tables.group_stars == tuple(map(int.bit_count, sp.group_masks)) \
                == grid_oracle.group_star_counts(sp.pda, profile.parts)

    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_parameter_formulas_hold(self, rng):
        p1 = random_pda(rng, max_cols=4, max_rows=8)
        p2 = random_pda(rng, max_cols=4, max_rows=8)
        profile = random_profile(rng, p1.k, p2.k)
        sp = construct_sppda(p1, p2, profile)
        p = sp.pda
        assert p.f == p1.f * p2.f
        assert p.z == p1.z * p2.f + (p1.f - p1.z) * p2.z
        assert sp.helper_stars == p1.z * p2.f
        assert p.s == s_count(p1, p2, profile) == distinct_codes(p.grid)
        assert p.s <= p1.s * p2.s
        assert verify_sppda(p.grid, profile, sp.helper_stars) == ()


    def test_size_cap(self, monkeypatch):
        p = man_pda(12, 6)
        with pytest.raises(ParameterError, match="^the construction would have more than MAX_CELLS"):
            construct_sppda(p, p, AssociationProfile((12,) * 12))
        # the golden construction has F * K = 6 * 5 cells
        monkeypatch.setattr("sppda.arrays.MAX_CELLS", 30)
        assert construct_sppda(man_pda(2, 1), man_pda(3, 1), AssociationProfile((3, 2))).pda.grid == GOLDEN_SP
        monkeypatch.setattr("sppda.arrays.MAX_CELLS", 29)
        with pytest.raises(ParameterError, match="MAX_CELLS = 29"):
            construct_sppda(man_pda(2, 1), man_pda(3, 1), AssociationProfile((3, 2)))


class TestVerifySpPda:
    def test_golden_is_valid(self):
        assert verify_sppda(GOLDEN_SP, AssociationProfile((3, 2)), 3) == ()
        sp = SpPdaArray(PdaArray(GOLDEN_SP), AssociationProfile((3, 2)), 3)
        assert (sp.pda.k, sp.profile.num_groups, sp.pda.f, sp.pda.z, sp.helper_stars,
                sp.pda.s) == (5, 2, 6, 4, 3, 3)

    def test_smaller_helper_requirement_still_valid(self):
        # lowering Z^(h) can only relax the all-star requirement
        for zh in (0, 1, 2, 3):
            assert verify_sppda(GOLDEN_SP, AssociationProfile((3, 2)), zh) == ()

    def test_too_large_helper_requirement_fails(self):
        failures = verify_sppda(GOLDEN_SP, AssociationProfile((3, 2)), 4)
        assert failures == (GroupFailure(1, 3, 4), GroupFailure(2, 3, 4))

    def test_invalid_pda_reported_first(self):
        violations = verify_sppda(((1, 1), (0, 0)), AssociationProfile((1, 1)), 0)
        assert violations == verify_pda(((1, 1), (0, 0))) != ()

    def test_invalid_pda_reported_before_bad_parameters(self):
        # the profile, Z^(h) and grouping checks belong to the SP-PDA, which
        # a grid failing C1-C3 never becomes
        for profile, zh, grouping in (((3,), 0, None), ((1, 1), 9, None), ((1, 1), 0, (0, 0))):
            violations = verify_sppda(((1, 1), (0, 0)), AssociationProfile(profile), zh, grouping)
            assert violations == verify_pda(((1, 1), (0, 0))) != ()

    def test_grid_normalized_once(self, monkeypatch):
        calls = []

        def counted(rows):
            calls.append(rows)
            return normalize_grid(rows)

        for module in ("sppda.arrays", "sppda.construct"):
            monkeypatch.setattr(f"{module}.normalize_grid", counted, raising=False)
        assert verify_sppda([list(row) for row in GOLDEN_SP], AssociationProfile((3, 2)), 3) == ()
        assert len(calls) == 1
        with pytest.raises(NonRectangularError):
            verify_sppda([[0, 1], [1]], AssociationProfile((2,)), 0)

    def test_profile_length_mismatch(self):
        with pytest.raises(ProfileMismatchError):
            verify_sppda(GOLDEN_SP, AssociationProfile((3, 3)), 1)

    def test_explicit_witness_accepted(self):
        scrambled = permute_columns(PdaArray.from_grid(GOLDEN_SP), (0, 2, 4, 1, 3))
        sp = SpPdaArray(scrambled, AssociationProfile((3, 2)), 3, (0, 3, 1, 4, 2))
        assert sp.helpers == (1, 2, 1, 2, 1)
        assert verify_sppda(scrambled.grid, sp.profile, 3, sp.grouping) == ()

    def test_wrong_witness_refused(self):
        # grouped by the scrambling itself, group 1 is GOLDEN_SP's columns 1, 4, 5
        scrambled = permute_columns(PdaArray.from_grid(GOLDEN_SP), (0, 2, 4, 1, 3))
        with pytest.raises(InsufficientStarRowsError) as info:
            SpPdaArray(scrambled, AssociationProfile((3, 2)), 3, (0, 2, 4, 1, 3))
        assert isinstance(info.value, ParameterError)
        assert [(f.group, f.star_rows) for f in info.value.violations] == [(1, 1)]
        violations = verify_sppda(scrambled.grid, AssociationProfile((3, 2)), 3, (0, 2, 4, 1, 3))
        assert violations == info.value.violations

    @settings(max_examples=200, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_d2_matches_grid_oracle(self, rng):
        pda = random_pda(rng, max_cols=5, max_rows=8)
        cuts = sorted(rng.sample(range(1, pda.k), rng.randint(0, pda.k - 1)))
        parts = sorted((b - a for a, b in zip([0, *cuts], [*cuts, pda.k])), reverse=True)
        profile = AssociationProfile((*parts, *[0] * rng.randint(0, 1)))
        grouping = rng.choice((None, tuple(rng.sample(range(pda.k), pda.k))))
        masks = grid_oracle.group_star_masks(pda, profile.parts, grouping)
        counts = [mask.bit_count() for mask in masks]
        helpers = [0] * pda.k
        for n, cols in enumerate(grid_oracle.group_columns(pda.k, profile.parts, grouping), start=1):
            for c in cols:
                helpers[c] = n
        zh = rng.choice((min(counts), min(counts) + 1, rng.randint(0, pda.f)))
        if zh > pda.f:
            return
        expected = [(n, c) for n, c in enumerate(counts, start=1) if c < zh]
        try:
            sp = SpPdaArray(pda, profile, zh, grouping)
        except InsufficientStarRowsError as exc:
            assert [(f.group, f.star_rows) for f in exc.violations] == expected != []
        else:
            assert expected == []
            assert [mask.bit_count() for mask in sp.group_masks] == counts
            assert sp.helpers == tuple(helpers)
            library = FileLibrary.synthetic(1, pda.f, pda.f, seed=pda.k)
            assert sp_place(sp, library).user_to_helper == sp.helpers
        failures = verify_sppda(pda.grid, profile, zh, grouping)
        assert [(f.group, f.star_rows) for f in failures] == expected


class TestPhi:
    @settings(max_examples=80, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_s_from_phi_matches_grid_oracle(self, rng):
        # for random arrays, column orders and profiles (empty groups too),
        # s_from_phi of the two arrays' phi under the orders is the count of
        # distinct codes in the grid built from the permuted arrays
        p1 = random_pda(rng, max_cols=4, max_rows=8)
        p2 = random_pda(rng, max_cols=4, max_rows=8)
        pi1, pi2 = (tuple(rng.sample(range(p.k), p.k)) for p in (p1, p2))
        profile = AssociationProfile(
            (p2.k, *sorted((rng.randint(0, p2.k) for _ in range(p1.k - 1)), reverse=True)))
        phi1, phi2 = phi(p1, pi1), phi(p2, pi2)
        assert phi1 == (0, *grid_oracle.phi_vector(p1, pi1))
        assert phi2 == (0, *grid_oracle.phi_vector(p2, pi2))
        sp = construct_sppda(permute_columns(p1, pi1), permute_columns(p2, pi2), profile)
        assert s_from_phi(phi1.__getitem__, phi2.__getitem__, profile.parts) \
            == distinct_codes(sp.pda.grid)

    def test_weights_are_differences(self):
        # a_n - a_{n+1}, with a_{Lambda+1} = 0
        assert s_weights([5, 5, 3, 1]) == [0, 2, 2, 1]
        assert s_weights([4]) == [4]
        assert s_weights([]) == []


class TestClosedForms:
    def test_small_golden_value(self):
        assert s_closed_form_man(2, 1, AssociationProfile((3, 2)), 1) == 3

    def test_matches_construction_everywhere_small(self):
        for lam in range(2, 5):
            for total in range(lam, 9):
                for profile in enumerate_profiles(total, lam):
                    l1 = profile.part(1)
                    for t1 in range(0, lam + 1):
                        p1 = man_pda(lam, t1)
                        for t2 in range(0, l1 + 1):
                            expected = s_count(p1, man_pda(l1, t2), profile)
                            assert s_closed_form_man(lam, t1, profile, t2) == expected

    def test_uniform_profile_hockey_stick(self):
        # uniform L collapses the sum: S = C(Lambda, t1+1) * [C(L, t2+1) - 0]
        # via the hockey-stick identity sum C(Lambda-n, t1) = C(Lambda, t1+1)
        for lam, t1, l, t2 in [(4, 1, 3, 1), (5, 2, 2, 0), (6, 3, 3, 2)]:
            profile = AssociationProfile((l,) * lam)
            assert s_closed_form_man(lam, t1, profile, t2) == \
                binom(lam, t1 + 1) * binom(l, t2 + 1)

    def test_construction_a_matches_materialized(self):
        for q, m in [(2, 1), (2, 2), (3, 1)]:
            lam = q * (m + 1)
            p1 = construction_a_pda(q, m)
            for total in range(lam, lam + 4):
                for profile in enumerate_profiles(total, lam):
                    l1 = profile.part(1)
                    for t2 in range(0, l1 + 1):
                        expected = s_count(p1, man_pda(l1, t2), profile)
                        assert s_closed_form_construction_a(q, m, profile, t2) == expected

    @pytest.mark.parametrize("closed_form, parts, first", [
        (s_closed_form_man, (0, 0), (2, 1)),
        (s_closed_form_construction_a, (0, 0, 0, 0), (2, 1)),
    ])
    def test_profile_without_users_refused(self, closed_form, parts, first):
        # the message sweep gives, naming the profile rather than MaN(0, 0)
        with pytest.raises(ParameterError, match=rf"^profile {','.join(map(str, parts))} has no "
                                                 r"users: its largest group L_1 is empty$"):
            closed_form(*first, AssociationProfile(parts), 0)

    def test_construction_a_small_golden_value(self):
        assert s_closed_form_construction_a(2, 1, AssociationProfile((2, 2, 1, 1)), 1) == 2

    def test_profile_mismatch(self):
        with pytest.raises(ProfileMismatchError):
            s_closed_form_man(3, 1, AssociationProfile((2, 2)), 1)
        with pytest.raises(ProfileMismatchError):
            s_closed_form_construction_a(2, 1, AssociationProfile((2, 2)), 1)

    def test_parameter_range(self):
        with pytest.raises(ParameterError):
            s_closed_form_man(2, 3, AssociationProfile((2, 1)), 0)
        with pytest.raises(ParameterError):
            s_closed_form_construction_a(2, 1, AssociationProfile((2, 2, 1, 1)), 5)


class TestSingleArrayAsSpPda:
    """The MaN(K, t) PDA viewed directly as an SP-PDA."""

    @staticmethod
    def man_sppda(k, t, parts):
        """MaN(K, t) with Z^(h) = C(K - L_1, t - L_1): a group of L_1 columns
        shares the rows whose t-set contains it, none when t < L_1."""
        profile = AssociationProfile(parts)
        l1 = profile.part(1)
        return SpPdaArray(man_pda(k, t), profile, binom(k - l1, t - l1))

    def test_params_formulas(self):
        sp = self.man_sppda(6, 3, (2, 2, 1, 1))
        assert (sp.pda.f, sp.pda.z, sp.helper_stars, sp.pda.s) == (
            binom(6, 3), binom(5, 2), binom(4, 1), binom(6, 4))

    def test_helper_stars_vanish_when_group_exceeds_t(self):
        sp = self.man_sppda(6, 2, (3, 2, 1))
        assert sp.helper_stars == 0
        assert group_star_masks(sp.pda.star_masks, sp.pda.f, sp.profile.parts)[0] == 0

    def test_materialized_array_is_valid(self):
        for k, t, parts in [(6, 3, (2, 2, 1, 1)), (5, 2, (2, 2, 1)), (4, 2, (2, 1, 1))]:
            sp = self.man_sppda(k, t, parts)
            assert verify_sppda(sp.pda.grid, sp.profile, sp.helper_stars) == ()
            # Z^(h) is tight: the largest group has exactly that many all-star rows
            groups = group_star_masks(sp.pda.star_masks, sp.pda.f, sp.profile.parts)
            assert groups[0].bit_count() == sp.helper_stars

    def test_profile_mismatch(self):
        with pytest.raises(ProfileMismatchError):
            self.man_sppda(5, 2, (2, 2))


class TestSpPdaArray:
    def test_group_columns_identity(self):
        sp = SpPdaArray(PdaArray.from_grid(GOLDEN_SP), AssociationProfile((3, 2)), 3)
        assert sp.helpers == (1, 1, 1, 2, 2)

    def test_rejects_profile_size_mismatch(self):
        with pytest.raises(ProfileMismatchError):
            SpPdaArray(PdaArray.from_grid(GOLDEN_SP), AssociationProfile((3, 3)), 3)

    def test_rejects_non_bijective_grouping(self):
        # read as the identity, this grouping would let a simulation run with
        # every user under helper 1 and still report all users decoded
        with pytest.raises(InvalidPermutationError):
            SpPdaArray(PdaArray.from_grid(GOLDEN_SP), AssociationProfile((3, 2)), 3,
                       (0, 0, 0, 0, 0))

    def test_rejects_helper_stars_above_z(self):
        with pytest.raises(ParameterError):
            SpPdaArray(PdaArray.from_grid(GOLDEN_SP), AssociationProfile((3, 2)), 5)

    def test_parameter_messages(self):
        golden = PdaArray.from_grid(GOLDEN_SP)
        with pytest.raises(ProfileMismatchError, match=r"^profile sums to 6, grid has 5 columns$"):
            SpPdaArray(golden, AssociationProfile((3, 3)), 3)
        for zh in (-1, 7):
            with pytest.raises(ParameterError, match=rf"^Z\^\(h\)={zh} not in \[0, F=6\]$"):
                SpPdaArray(golden, AssociationProfile((3, 2)), zh)
        with pytest.raises(InsufficientStarRowsError,
                           match=r"^D2: group 1 has 3 all-star rows, needs 4; D2: group 2 "):
            SpPdaArray(golden, AssociationProfile((3, 2)), 4)


class TestSubsumedSchemes:
    """With no private memory (t2 = 0), the MaN x MaN pairing is the
    shared-cache scheme of Parrinello, Unsal and Elia (IEEE Trans. IT 2020);
    with one user per helper it is also the dedicated-cache scheme of
    Maddah-Ali and Niesen (IEEE Trans. IT 2014).  Each reduction is checked
    through the closed form and through a bit-exact simulation."""

    @staticmethod
    def run(sp, seed):
        k = sp.pda.k
        library = FileLibrary.synthetic(k, 3 * sp.pda.f, sp.pda.f, seed=seed)
        demands = [(u + seed) % k + 1 for u in range(k)]  # distinct
        return library, demands, sp_run(sp, library, demands)

    @pytest.mark.parametrize("k", range(2, 7))
    def test_one_user_per_helper_is_maddah_ali_niesen(self, k):
        profile = AssociationProfile((1,) * k)
        for t1 in range(k + 1):
            s = binom(k, t1 + 1)
            assert s_closed_form_man(k, t1, profile, 0) == s
            man = man_pda(k, t1)
            sp = construct_sppda(man, man_pda(1, 0), profile)
            assert sp.pda.grid == man.grid
            assert (sp.pda.f, sp.pda.s, sp.helper_stars) == (binom(k, t1), s, man.z)
            library, demands, report = self.run(sp, seed=t1)
            assert report.all_decoded
            assert report.rate == Fraction(k - t1, t1 + 1)
            assert (report.mh_ratio, report.mp_ratio) == (Fraction(t1, k), 0)
            if 1 <= t1 < k:
                assert rate_man_pair(k, t1, profile, 0) == report.rate
            # the same transmissions, byte for byte, as the dedicated-cache run
            assert report.transmissions == dedicated_run(man, library, demands).transmissions

    @pytest.mark.parametrize("lam", range(2, 5))
    def test_no_private_memory_is_shared_cache_scheme(self, lam):
        for total in range(lam, 8):
            for profile in enumerate_profiles(total, lam):
                for t1 in range(lam + 1):
                    s = sum(profile.part(n) * binom(lam - n, t1)
                            for n in range(1, lam - t1 + 1))
                    assert s_closed_form_man(lam, t1, profile, 0) == s
                    sp = construct_sppda(man_pda(lam, t1), man_pda(profile.part(1), 0), profile)
                    assert (sp.pda.f, sp.pda.s) == (binom(lam, t1), s)
                    _, _, report = self.run(sp, seed=total + t1)
                    assert report.all_decoded
                    assert len(report.transmissions) == s
                    assert report.rate == Fraction(s, binom(lam, t1))
                    assert (report.mh_ratio, report.mp_ratio) == (Fraction(t1, lam), 0)
                    if 1 <= t1 < lam:
                        assert rate_man_pair(lam, t1, profile, 0) == report.rate
