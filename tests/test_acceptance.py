"""Acceptance suite: ten end-to-end criteria, one pass/fail line per test.

Every test prints a single ``criterion N ... PASS`` line (visible with -s or
in captured output) and enforces its own wall-clock budget.  Criterion 6 has
two tests: the closed forms against materialized grids over small profiles,
and the grids of the reference sweep against the tables the sweep reads.
"""

import random
import time
from fractions import Fraction

from sppda.analysis import SweepConfig, compare, construction_a_subpacketization, \
    man_pair_subpacketization, rate_construction_a, rate_man_pair, sweep
from sppda.arrays import (
    AssociationProfile,
    PdaArray,
    binom,
    construction_a_pda,
    man_pda,
)
from sppda.cli import main
from sppda.construct import (
    block_tables,
    construct_sppda,
    group_star_masks,
    s_closed_form_construction_a,
    s_closed_form_man,
    s_count,
    verify_sppda,
)
from sppda.permsearch import check_E1, check_E2, exhaustive_best
from sppda.sim import FileLibrary, sp_run
from sppda.textio import write_pda

import grid_oracle
from conftest import (
    GOLDEN_SP_TEXT,
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


class Budget:
    def __init__(self, number, name, seconds):
        self.number = number
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, f"criterion {self.number} took {elapsed:.1f}s"
            print(f"criterion {self.number} ({self.name}): PASS ({elapsed:.2f}s)")
        else:
            print(f"criterion {self.number} ({self.name}): FAIL")
        return False


def distinct_codes(grid):
    return len({e for row in grid for e in row if e != 0})


def test_criterion_1_golden_construction(tmp_path, capsys):
    with Budget(1, "golden construction via CLI", 1.0):
        path = tmp_path / "golden.sppda"
        assert main(["construct", "man:2,1", "man:3,1", "--profile", "3,2",
                     "-o", str(path)]) == 0
        assert path.read_text() == GOLDEN_SP_TEXT
        assert main(["verify", str(path)]) == 0
        out = capsys.readouterr().out
        assert ("valid sppda: K=5 Lambda=2 L=(3, 2) F=6 Z=4 Zh=3 S=3") in out


def test_criterion_2_golden_simulation(tmp_path, capsys):
    with Budget(2, "golden delivery replay via CLI", 1.0):
        path = tmp_path / "golden.sppda"
        assert main(["construct", "man:2,1", "man:3,1", "--profile", "3,2",
                     "-o", str(path)]) == 0
        log = tmp_path / "tx.log"
        assert main(["simulate", str(path), "--synthetic", "5,60,7",
                     "--demands", "1,2,3,4,5", "--log", str(log)]) == 0
        out = capsys.readouterr().out
        assert "rate: 1/2" in out
        assert "all_decoded: yes" in out
        components = [line.rsplit("components=", 1)[1]
                      for line in log.read_text().strip().splitlines()]
        assert components == [
            "5,1;4,2;2,4;1,5",  # W_{1,5} + W_{2,4} + W_{4,2} + W_{5,1}
            "4,3;3,4;1,6",
            "5,3;3,5;2,6",
        ]


def test_criterion_3_mixed_profile_construction():
    with Budget(3, "mixed-profile golden construction", 1.0):
        sp = construct_sppda(man_pda(3, 1), PdaArray.from_grid(SMALL_P2),
                             AssociationProfile((4, 2, 1)))
        assert sp.pda.grid == SMALL_Q
        assert (sp.pda.s, sp.pda.f) == (5, 6)
        assert sp.rate == Fraction(5, 6)
        assert verify_sppda(sp.pda.grid, sp.profile, sp.helper_stars) == ()


def test_criterion_4_permutation_sensitivity(tmp_path):
    with Budget(4, "column-order extremes over 720*720 pairs", 60.0):
        p1, p2 = PdaArray.from_grid(WIDE_P1), PdaArray.from_grid(WIDE_P2)
        assert construct_sppda(p1, p2, WIDE_PROFILE).pda.grid == WIDE_Q
        assert distinct_codes(WIDE_Q) == 24
        p1o, p2o = PdaArray.from_grid(WIDE_P1_OPT), PdaArray.from_grid(WIDE_P2_OPT)
        assert construct_sppda(p1o, p2o, WIDE_PROFILE).pda.grid == WIDE_Q_OPT
        assert distinct_codes(WIDE_Q_OPT) == 18

        f1 = tmp_path / "p1.pda"
        f1.write_text(write_pda(p1))
        f2 = tmp_path / "p2.pda"
        f2.write_text(write_pda(p2))
        out = tmp_path / "search.csv"
        assert main(["search", str(f1), str(f2), "--profile", "6,3,2,1,1,1",
                     "-o", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert "s_min,,18" in lines and "s_max,,24" in lines


def test_criterion_5_construction_property_suite():
    with Budget(5, "200 random constructions with round-trip decode", 120.0):
        rng = random.Random(20260823)
        for _ in range(200):
            p1 = random_pda(rng, max_cols=4, max_rows=8)
            p2 = random_pda(rng, max_cols=4, max_rows=8)
            profile = random_profile(rng, p1.k, p2.k)
            sp = construct_sppda(p1, p2, profile)
            p = sp.pda
            assert p.f == p1.f * p2.f <= 64
            assert p.z == p1.z * p2.f + (p1.f - p1.z) * p2.z
            assert sp.helper_stars == p1.z * p2.f
            assert p.s == s_count(p1, p2, profile) <= p1.s * p2.s
            assert verify_sppda(p.grid, profile, sp.helper_stars) == ()
            library = FileLibrary.synthetic(p.k, 4 * p.f, p.f, seed=rng.randint(0, 999))
            demands = list(range(1, p.k + 1))
            rng.shuffle(demands)
            report = sp_run(sp, library, demands)
            assert report.all_decoded


def test_criterion_6_closed_form_oracles():
    with Budget(6, "closed-form S vs materialized code counts", 120.0):
        for lam in range(2, 6):
            for total in range(lam, 11):
                for profile in enumerate_profiles(total, lam):
                    l1 = profile.part(1)
                    for t1 in range(1, lam):
                        p1 = man_pda(lam, t1)
                        for t2 in range(0, l1 + 1):
                            sp = construct_sppda(p1, man_pda(l1, t2), profile)
                            assert s_closed_form_man(lam, t1, profile, t2) == \
                                distinct_codes(sp.pda.grid)
        for q in (2, 3):
            for m in (1, 2):
                lam = q * (m + 1)
                p1 = construction_a_pda(q, m)
                for total in range(lam, 13):
                    for profile in enumerate_profiles(total, lam):
                        l1 = profile.part(1)
                        for t2 in range(0, l1 + 1):
                            sp = construct_sppda(p1, man_pda(l1, t2), profile)
                            assert s_closed_form_construction_a(q, m, profile, t2) == \
                                distinct_codes(sp.pda.grid)


def test_criterion_6_sweep_reference_grids():
    # The grid-level check behind the sweep, which reads only the construction's
    # tables: over exactly the constructions that sweep-reference cross-checks,
    # the materialized grid agrees with the closed forms and with block_tables.
    with Budget(6, "sweep-reference grids vs closed forms and tables", 120.0):
        firsts = {"man_pair": lambda lam, mh: man_pda(lam, int(mh * lam)),
                  "construction_a_pair": lambda lam, mh: construction_a_pda(
                      mh.denominator, lam // mh.denominator - 1)}
        built = 0
        for parts in ((3,) * 8, (10, 4, 2, 2, 2, 2, 1, 1)):
            profile = AssociationProfile(parts)
            l1 = profile.part(1)
            for mh in (Fraction(1, 2), Fraction(1, 4)):
                config = SweepConfig(profile, mh, tuple(range(l1 + 1)))
                for point in sweep(config):
                    if point.subpacketization > config.verify_cap:
                        assert not point.verified
                        continue
                    assert point.verified
                    p1 = firsts[point.scheme](profile.num_groups, mh)
                    p2 = man_pda(l1, point.t2)
                    tables = block_tables(p1, p2, profile)
                    sp = construct_sppda(p1, p2, profile)
                    grid = sp.pda.grid
                    assert distinct_codes(grid) == s_count(p1, p2, profile) == point.s \
                        == tables.s == sp.pda.s
                    assert len(grid) == point.subpacketization == tables.f
                    assert sp.helper_stars == tables.zh == p1.z * p2.f
                    scanned = grid_oracle.star_masks(sp.pda)
                    assert scanned == sp.pda.star_masks
                    groups = group_star_masks(scanned, len(grid), parts)
                    assert groups == grid_oracle.group_star_masks(sp.pda, parts) == sp.group_masks
                    assert tables.group_stars == tuple(map(int.bit_count, groups))
                    assert min(tables.group_stars) >= tables.zh
                    built += 1
        assert built == 60


def test_criterion_7_single_array_star_counts():
    with Budget(7, "all-star row counts of column subsets", 30.0):
        import itertools
        for k in range(1, 9):
            for t in range(1, k + 1):
                pda = man_pda(k, t)
                for g in range(1, t + 1):
                    for cols in itertools.combinations(range(k), g):
                        # D2's count for a helper group made of the chosen columns
                        order = [*cols, *(c for c in range(k) if c not in cols)]
                        grouping = tuple(map(order.index, range(k)))
                        group = group_star_masks(pda.star_masks, pda.f, (g, k - g), grouping)[0]
                        assert group.bit_count() == binom(k - g, t - g)
                        # and they are the rows whose t-set holds the chosen columns
                        assert group == sum(1 << j for j, rows in enumerate(
                            itertools.combinations(range(k), t)) if set(cols) <= set(rows))


def test_criterion_8_order_optimality_conditions():
    with Budget(8, "identity order optimal under E1 and E2", 300.0):
        rng = random.Random(8)
        found = 0
        while found < 50:
            p1 = random_pda(rng, max_cols=4, max_rows=8)
            p2 = random_pda(rng, max_cols=4, max_rows=8)
            profile = random_profile(rng, p1.k, p2.k)
            if not (check_E1(p1) and check_E2(p2, profile)):
                continue
            found += 1
            result = exhaustive_best(p1, p2, profile)
            assert s_count(p1, p2, profile) == result.s_min


def test_criterion_9_matched_memory_identities():
    with Budget(9, "exact rate and subpacketization ratios", 10.0):
        for q in (2, 3):
            for m in (1, 2, 3):
                lam = q * (m + 1)
                t1 = m + 1
                for l1 in (1, 2, 3):
                    profile = AssociationProfile((l1,) * lam)
                    for t2 in range(0, l1 + 1):
                        f_ratio = Fraction(man_pair_subpacketization(lam, t1, l1, t2),
                                           construction_a_subpacketization(q, m, l1, t2))
                        assert f_ratio == Fraction(binom(lam, t1), q ** m)
                        rm = rate_man_pair(lam, t1, profile, t2)
                        ra = rate_construction_a(q, m, profile, t2)
                        if t2 < l1:
                            assert rm / ra == Fraction(t1, t1 + 1)
                        else:
                            assert rm == ra == 0
        report = compare(2, 3, 1, AssociationProfile((3,) * 8))
        assert report.f_ratio_exact == Fraction(35, 4)
        assert float(report.f_ratio_exact) == 8.75
        assert report.rate_ratio == Fraction(4, 5)


def test_criterion_10_figure_data_regeneration(tmp_path):
    with Budget(10, "figure sweeps: smaller F, bounded rate penalty", 10.0):
        for name, profile in (("uniform", "3,3,3,3,3,3,3,3"),
                              ("skewed", "10,4,2,2,2,2,1,1")):
            out = tmp_path / f"{name}.csv"
            assert main(["sweep", "--profile", profile, "--mh-ratio", "1/2",
                         "-o", str(out)]) == 0
            rows = {}
            for line in out.read_text().strip().splitlines()[1:]:
                scheme, t2, _, _, f, s, _ = line.split(",")
                rows[(scheme, int(t2))] = (int(f), int(s))
            t2_values = sorted({t2 for _, t2 in rows})
            for t2 in t2_values:
                f_man, s_man = rows[("man_pair", t2)]
                f_a, s_a = rows[("construction_a_pair", t2)]
                assert f_a < f_man
                rate_man = Fraction(s_man, f_man)
                rate_a = Fraction(s_a, f_a)
                if rate_man > 0:
                    assert rate_a <= Fraction(13, 10) * rate_man
                else:
                    assert rate_a == 0
