"""Closed-form rates, the matched-memory comparison, and sweeps."""

import hashlib
import importlib.util
import math
import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from sppda.analysis import (
    MemoryMismatchError,
    SweepConfig,
    UnrealizableMemoryError,
    _cross_check,
    compare,
    construction_a_subpacketization,
    man_pair_subpacketization,
    rate_construction_a,
    rate_man_pair,
    sweep,
    sweep_csv,
)
from sppda.arrays import (
    AssociationProfile,
    ParameterError,
    binom,
    construction_a_pda,
    man_pda,
    man_tables,
)
from sppda import arrays, construct
from sppda.construct import block_tables, construct_sppda
from sppda.sim import FileLibrary, sp_run

import grid_oracle
import sweep_oracle

UNIFORM = AssociationProfile((3,) * 8)
SKEWED = AssociationProfile((10, 4, 2, 2, 2, 2, 1, 1))


class TestRates:
    def test_small_golden(self):
        assert rate_man_pair(2, 1, AssociationProfile((3, 2)), 1) == Fraction(1, 2)

    def test_uniform_formula(self):
        # (Lambda - t1)(L - t2) / ((t1 + 1)(t2 + 1)) for uniform profiles
        assert rate_man_pair(6, 3, AssociationProfile((3,) * 6), 1) == Fraction(3, 4)

    def test_full_private_memory_is_free(self):
        assert rate_man_pair(4, 2, AssociationProfile((2,) * 4), 2) == 0
        assert rate_construction_a(2, 1, AssociationProfile((2, 2, 1, 1)), 2) == 0

    def test_construction_a_values(self):
        assert rate_construction_a(2, 2, AssociationProfile((3,) * 6), 1) == 1
        assert rate_construction_a(2, 1, AssociationProfile((2, 2, 1, 1)), 1) == Fraction(1, 2)

    def test_parameter_ranges(self):
        with pytest.raises(ParameterError):
            rate_man_pair(4, 0, AssociationProfile((2,) * 4), 1)
        with pytest.raises(ParameterError):
            rate_man_pair(4, 4, AssociationProfile((2,) * 4), 1)
        with pytest.raises(ParameterError):
            rate_construction_a(2, 1, AssociationProfile((2, 2, 1, 1)), 3)

    def test_rate_equals_measured_rate(self):
        profile = AssociationProfile((3, 2, 2, 1))
        sp = construct_sppda(man_pda(4, 2), man_pda(3, 1), profile)
        library = FileLibrary.synthetic(sp.pda.k, 2 * sp.pda.f, sp.pda.f, seed=0)
        report = sp_run(sp, library, tuple(range(1, sp.pda.k + 1)))
        assert rate_man_pair(4, 2, profile, 1) == report.rate


class TestCompare:
    def test_matched_memory_uniform(self):
        rep = compare(2, 2, 1, AssociationProfile((3,) * 6))
        assert rep.t1 == 3
        assert rep.f_ratio_exact == Fraction(binom(6, 3), 4) == 5
        assert rep.rate_ratio == Fraction(3, 4) == Fraction(rep.t1, rep.t1 + 1)
        assert rep.uniform

    def test_figure_setting(self):
        rep = compare(2, 3, 1, UNIFORM)
        assert rep.f_ratio_exact == Fraction(35, 4)
        assert float(rep.f_ratio_exact) == 8.75
        assert rep.rate_ratio == Fraction(4, 5)

    def test_skewed_profile_reports_exact_ratio(self):
        rep = compare(2, 3, 2, SKEWED)
        assert not rep.uniform
        assert rep.rate_ratio == rep.rate_man / rep.rate_a

    def test_zero_rate_ratio_is_none(self):
        rep = compare(2, 1, 2, AssociationProfile((2,) * 4))
        assert rep.rate_ratio is None

    def test_memory_mismatch(self):
        with pytest.raises(MemoryMismatchError):
            compare(2, 2, 1, AssociationProfile((3,) * 5))

    def test_uniform_identity_over_grid(self):
        for q in (2, 3):
            for m in (1, 2):
                lam = q * (m + 1)
                for l1 in (2, 3):
                    profile = AssociationProfile((l1,) * lam)
                    for t2 in range(0, l1):
                        rep = compare(q, m, t2, profile)
                        assert rep.rate_ratio == Fraction(m + 1, m + 2)


class TestSweep:
    def test_uniform_config_values(self):
        config = SweepConfig(UNIFORM, Fraction(1, 2), (1, 2))
        points = {(p.scheme, p.t2): p for p in sweep(config)}
        man = points[("man_pair", 1)]
        consa = points[("construction_a_pair", 1)]
        assert (man.subpacketization, man.s) == (210, 168)
        assert man.rate == Fraction(4, 5)
        assert (consa.subpacketization, consa.rate) == (24, 1)
        assert man.mp_ratio == consa.mp_ratio == Fraction(1, 6)
        assert man.verified and consa.verified

    def test_rows_beyond_cap_are_not_verified(self):
        config = SweepConfig(UNIFORM, Fraction(1, 2), (1,), ("man_pair",), verify_cap=10)
        (point,) = sweep(config)
        assert not point.verified

    def test_skewed_config_runs(self):
        config = SweepConfig(SKEWED, Fraction(1, 2), tuple(range(0, 11)))
        points = sweep(config)
        assert len(points) == 22
        assert all(p.verified for p in points)

    def test_csv_shape(self):
        config = SweepConfig(UNIFORM, Fraction(1, 2), (1,))
        csv = sweep_csv(sweep(config))
        lines = csv.strip().splitlines()
        assert lines[0] == "scheme,t2,mp_ratio,rate,subpacketization,s,verified"
        assert len(lines) == 3

    def test_unrealizable_memory(self):
        with pytest.raises(UnrealizableMemoryError):
            sweep(SweepConfig(UNIFORM, Fraction(1, 3), (1,), ("man_pair",)))
        with pytest.raises(UnrealizableMemoryError):
            sweep(SweepConfig(UNIFORM, Fraction(2, 3), (1,), ("construction_a_pair",)))
        with pytest.raises(UnrealizableMemoryError):
            sweep(SweepConfig(AssociationProfile((3,) * 5), Fraction(1, 2),
                              (1,), ("construction_a_pair",)))

    def test_unknown_scheme(self):
        with pytest.raises(ParameterError):
            sweep(SweepConfig(UNIFORM, Fraction(1, 2), (1,), ("mystery",)))

    def test_repeated_scheme(self):
        with pytest.raises(ParameterError, match="'man_pair' repeated"):
            sweep(SweepConfig(UNIFORM, Fraction(1, 2), (1,), ("man_pair", "man_pair")))

    def test_empty_inputs_refused(self):
        # a reversed t2 range sweeps no point and a negative cap verifies none
        with pytest.raises(ParameterError, match="t2_values is empty"):
            sweep(SweepConfig(UNIFORM, Fraction(1, 2), tuple(range(2, 2))))
        with pytest.raises(ParameterError, match="verify_cap is -1"):
            sweep(SweepConfig(UNIFORM, Fraction(1, 2), (1,), verify_cap=-1))
        assert not any(p.verified for p in sweep(SweepConfig(UNIFORM, Fraction(1, 2), (1,), verify_cap=0)))

    @pytest.mark.parametrize("parts, schemes", [((0, 0, 0, 0), ("man_pair", "construction_a_pair")),
                                                ((0, 0), ("man_pair",))])
    def test_profile_without_users_refused(self, parts, schemes):
        # an empty largest group leaves M_p/N = (1 - M_h/N) t2/L_1 undefined:
        # refused before any point, not a ZeroDivisionError
        with pytest.raises(ParameterError, match="largest group L_1 is empty"):
            sweep(SweepConfig(AssociationProfile(parts), Fraction(1, 2), (0,), schemes))

    def test_cross_check_rejects_each_mismatch(self):
        # the golden pair, F=6, S=3, Z^(h)=3, read as the sweep reads it
        p1, p2, profile = man_pda(2, 1), man_pda(3, 1), AssociationProfile((3, 2))
        tables = block_tables(p1, p2, profile)
        sp = construct_sppda(p1, p2, profile)
        assert tables.group_stars == tuple(map(int.bit_count, sp.group_masks)) \
            == grid_oracle.group_star_counts(sp.pda, profile.parts) == (3, 3)
        assert _cross_check(tables, 6, 3, 3)
        for f, s, zh in ((5, 3, 3), (7, 3, 3), (6, 2, 3), (6, 4, 3), (6, 3, 2), (6, 3, 4)):
            assert not _cross_check(tables, f, s, zh)
        # one all-star row of a group turned into a code row: that group
        # keeps fewer than 3 all-star rows
        for n in range(len(tables.group_stars)):
            counts = list(tables.group_stars)
            counts[n] -= 1
            short = replace(tables, group_stars=tuple(counts))
            assert min(short.group_stars) == 2
            assert not _cross_check(short, 6, 3, 3)

    def test_first_array_share_built_once_per_sweep(self, monkeypatch):
        # within one sweep, each scheme's first-array share, which reads its
        # codes' widths and its columns' star counts, is built once, and
        # each verified point adds only the second array's share
        calls = {"shares": 0, "tables": 0}
        share_init, share_tables = construct._FirstShare.__init__, construct._FirstShare.tables

        def count_shares(share, p1, profile):
            calls["shares"] += 1
            share_init(share, p1, profile)

        def count_tables(share, second):
            calls["tables"] += 1
            return share_tables(share, second)

        monkeypatch.setattr(construct._FirstShare, "__init__", count_shares)
        monkeypatch.setattr(construct._FirstShare, "tables", count_tables)
        points = sweep(SweepConfig(SKEWED, Fraction(1, 2), tuple(range(11))))
        assert sum(p.verified for p in points) == 22
        assert calls == {"shares": 2, "tables": 22}

    def test_second_array_phi_once_per_t2(self, monkeypatch):
        # per t2, phi of MaN(L_1, t2)'s tables is computed once and shared by
        # both schemes; each first array's phi is computed once per sweep
        calls = []

        def count_phi(array, perm=None):
            calls.append((array.k, array.f))
            return arrays.phi(array, perm)

        monkeypatch.setattr(construct, "phi", count_phi)
        points = sweep(SweepConfig(SKEWED, Fraction(1, 2), tuple(range(11))))
        assert sum(p.verified for p in points) == 22
        seconds = [call for call in calls if call[0] == 10]
        assert seconds == [(10, math.comb(10, t2)) for t2 in range(11)]
        assert sorted(call for call in calls if call[0] != 10) == [(8, 8), (8, 70)]

    # the four reference sweeps and the 16-helper sweep
    @pytest.mark.parametrize("profile, mh", [
        (UNIFORM, Fraction(1, 2)), (UNIFORM, Fraction(1, 4)),
        (SKEWED, Fraction(1, 2)), (SKEWED, Fraction(1, 4)),
        (AssociationProfile((4,) * 16), Fraction(1, 2))])
    def test_group_star_counts_match_the_closed_form(self, profile, mh):
        # with MaN(L_1, t2) as the second array, the rows where its first w
        # columns all have stars are the t2-subsets that hold those w users,
        # C(L_1 - w, t2 - w) of them; each first-array column has Z1 stars
        lam, l1 = profile.num_groups, profile.part(1)
        t1, q = int(mh * lam), mh.denominator
        firsts = {"man_pair": (man_tables(lam, t1), math.comb(lam, t1), math.comb(lam - 1, t1 - 1)),
                  "construction_a_pair": (construction_a_pda(q, lam // q - 1),
                                          q ** (lam // q - 1), q ** (lam // q - 2))}
        points = sweep(SweepConfig(profile, mh, tuple(range(l1 + 1))))
        assert len(points) == 2 * (l1 + 1) and all(p.verified for p in points)
        for point in points:
            p1, f1, z1 = firsts[point.scheme]
            f2 = math.comb(l1, point.t2)
            stars = block_tables(p1, man_tables(l1, point.t2), profile).group_stars
            g2 = [math.comb(l1 - w, point.t2 - w) if w <= point.t2 else 0 for w in profile.parts]
            assert stars == tuple(z1 * f2 + (f1 - z1) * g for g in g2)


def random_profile(rng):
    """A non-increasing profile of at most 8 groups of at most 8 users, the
    first group not empty."""
    l1 = rng.randint(1, 8)
    return AssociationProfile((l1, *sorted((rng.randint(0, l1) for _ in range(rng.randint(0, 7))),
                                           reverse=True)))


class TestSweepAgainstCheckedGrids:
    SCHEMES = (("man_pair",), ("construction_a_pair",), ("man_pair", "construction_a_pair"))

    def test_random_profiles_match_the_grid_oracle(self):
        # every realizable M_h/N in {1/2, 1/3, 1/4}, each scheme alone and
        # both, every t2, under a cap that verifies all, some or none
        rng = random.Random(20261020)
        compared = refused = 0
        verified = set()
        for _ in range(100):
            profile = random_profile(rng)
            t2_values = tuple(range(profile.part(1) + 1))
            for mh in (Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)):
                for schemes in self.SCHEMES:
                    cap = rng.choice((10 ** 5, rng.randrange(200)))
                    config = SweepConfig(profile, mh, t2_values, schemes, cap)
                    try:
                        expected = sweep_oracle.sweep(config)
                    except UnrealizableMemoryError:
                        with pytest.raises(UnrealizableMemoryError):
                            sweep(config)
                        refused += 1
                        continue
                    assert sweep(config) == expected, (profile.parts, mh, schemes, cap)
                    compared += 1
                    verified.update(p.verified for p in expected)
        assert compared > 200 and refused > 200 and verified == {False, True}

    def test_man_only_sweep_builds_no_array(self, monkeypatch):
        # MaN's tables come from its definition: a MaN-only sweep checks no
        # grid, and one with Construction A checks only that first array
        built = []
        post_init = arrays.PdaArray.__post_init__

        def count(pda):
            post_init(pda)
            built.append((pda.k, pda.f))

        monkeypatch.setattr(arrays.PdaArray, "__post_init__", count)
        points = sweep(SweepConfig(SKEWED, Fraction(1, 2), tuple(range(11)), ("man_pair",)))
        assert all(p.verified for p in points) and built == []
        points = sweep(SweepConfig(UNIFORM, Fraction(1, 2), tuple(range(4))))
        assert all(p.verified for p in points) and built == [(8, 8)]  # ConstructionA(2, 3)


def test_reference_sweep_bytes_pinned():
    # sha256 of the four reference sweep_csv outputs, concatenated in this
    # order; bench/workloads.py pins the same digest
    digest = hashlib.sha256()
    for profile in (UNIFORM, SKEWED):
        for mh in (Fraction(1, 2), Fraction(1, 4)):
            config = SweepConfig(profile, mh, tuple(range(profile.part(1) + 1)))
            digest.update(sweep_csv(sweep(config)).encode())
    assert digest.hexdigest() == "5994d26689cced05a6e8400e05537a5ce8023603f1429d9d7ebe528850cb5a08"


def test_subpacketization_helpers():
    assert man_pair_subpacketization(8, 4, 3, 1) == binom(8, 4) * 3
    assert construction_a_subpacketization(2, 3, 3, 1) == 24


def test_regen_figure_data_script(tmp_path, capsys):
    path = Path(__file__).resolve().parents[1] / "scripts" / "regen_figure_data.py"
    spec = importlib.util.spec_from_file_location("regen_figure_data", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main(["-o", str(tmp_path), "--mh-ratio", "1/4"]) == 0
    for name, profile in (("uniform", UNIFORM), ("skewed", SKEWED)):
        config = SweepConfig(profile, Fraction(1, 4), tuple(range(profile.part(1) + 1)))
        assert (tmp_path / f"{name}.csv").read_text() == sweep_csv(sweep(config))
