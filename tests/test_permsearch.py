"""Permutation search over equivalent PDAs, checked against naive enumeration."""

import importlib.util
import itertools
import random
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sppda.arrays import (
    STAR,
    AssociationProfile,
    InvalidPermutationError,
    ParameterError,
    PdaArray,
    canonicalize_codes,
    construction_a_pda,
    man_pda,
    permute_columns,
)
from sppda.construct import DimensionMismatchError, s_count
from sppda.permsearch import (
    BudgetExceededError,
    PermutationPair,
    _Classes,
    _Lattice,
    _Steps,
    _greedy_order,
    _identity_is_minimal,
    _lacking,
    _order_value,
    _subset_phi,
    _tight_edges,
    check_E1,
    check_E2,
    exhaustive_best,
    heuristic_reorder,
    phi_vector,
    top_pairs,
)

import grid_oracle
import permsearch_oracle as oracle
from conftest import (
    WIDE_P1,
    WIDE_P1_OPT,
    WIDE_P2,
    WIDE_P2_OPT,
    WIDE_PROFILE,
    grid,
    random_pda,
    random_profile,
)

# Under profile (5, 5, 4, 3, 2, 2) this (5, 7, 5, 5) array has two
# Pareto-minimal phi tables, (5, 5, 5, 3, 3, 3) and (5, 5, 5, 4, 2, 2).
PARETO_P2 = grid("""
1 2 * * *
* * * * 1
3 * * 2 4
* * * * *
* * 4 5 *
* * * * *
* 5 3 * *
""")

# With PARETO_P2 under that profile both tables reach s_min = 26 with this p1,
# and their lexicographically first orders differ: (0, 1, 3, 2, 4, 5) for the
# first table, (0, 1, 4, 2, 3, 5) for the second.
TWO_REACHING_P1 = grid("""
1 * 2 4 3 *
* 3 5 6 * 1
6 4 * * 5 2
""")

# Under profile (5, 4, 3, 2, 1, 1) PARETO_P2's Pareto-minimal tables are
# (5, 5, 3, 3, 2, 2) and (5, 5, 4, 2, 2, 2); with this p1 both reach s_min = 23,
# and the second table's first order, (0, 2, 3, 4, 5, 1), is the smaller one
# (the first table's is (0, 2, 4, 3, 5, 1)).
SECOND_WINS_P1 = grid("""
4 3 * 2 1 *
6 * 1 5 * 3
* 5 2 * 6 4
""")


def naive_phi_vector(pda, perm):
    """phi of the physically permuted array, column by column."""
    return tuple(grid_oracle.phi(permute_columns(pda, perm), c) for c in range(1, pda.k + 1))


def naive_extremes(p1, p2, profile):
    values = [
        s_count(permute_columns(p1, pi1), permute_columns(p2, pi2), profile)
        for pi1 in itertools.permutations(range(p1.k))
        for pi2 in itertools.permutations(range(p2.k))
    ]
    return min(values), max(values)


class TestExhaustive:
    def test_wide_pair_extremes(self):
        result = exhaustive_best(PdaArray.from_grid(WIDE_P1), PdaArray.from_grid(WIDE_P2),
                                 WIDE_PROFILE)
        assert (result.s_min, result.s_max) == (18, 24)
        assert result.best.s_value == 18
        assert result.evaluations == 2411

    def test_best_permutations_realize_the_minimum(self):
        p1, p2 = PdaArray.from_grid(WIDE_P1), PdaArray.from_grid(WIDE_P2)
        result = exhaustive_best(p1, p2, WIDE_PROFILE)
        realized = s_count(permute_columns(p1, result.best.pi1),
                           permute_columns(p2, result.best.pi2), WIDE_PROFILE)
        assert realized == result.s_min

    @settings(max_examples=25, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_matches_naive_enumeration(self, rng):
        p1 = random_pda(rng, max_cols=3, max_rows=6)
        p2 = random_pda(rng, max_cols=3, max_rows=6)
        profile = random_profile(rng, p1.k, p2.k)
        result = exhaustive_best(p1, p2, profile)
        assert (result.s_min, result.s_max) == naive_extremes(p1, p2, profile)

    def test_budget(self):
        # exhaustive_best: 384 for p2's phi table, 150 subsets walked, 384 for p1's
        # table, then the DP (6 * 2^6 for each of 2 tables) passes the budget
        with pytest.raises(BudgetExceededError, match=r"\b1686 steps, over the budget of 1000$"):
            exhaustive_best(PdaArray.from_grid(WIDE_P1), PdaArray.from_grid(WIDE_P2),
                            WIDE_PROFILE, budget=1000)
        # top_pairs: 2 * 384 for the phi tables, 150 subsets of p2's walk, then the
        # 11th node p1's best-first walk expands (93 subsets in all) passes the budget
        with pytest.raises(BudgetExceededError, match=r"\b1011 steps, over the budget of 1000$"):
            top_pairs(PdaArray.from_grid(WIDE_P1), PdaArray.from_grid(WIDE_P2),
                      WIDE_PROFILE, budget=1000)

    def test_budget_counts_dp_transitions(self):
        # 1686 steps up to the DP (6 * 2^6 per kept table; 5 tables prune to 1 + 1),
        # 6 * 2^6 for the tight steps of the one table reaching s_min, 139 subsets
        # walked to rebuild pi1, then 109 to place the first of p2's two tables
        # that reach s_min with pi1 and 93 to place the second until its prefix
        # passes the first's (108 in full)
        p1, p2 = PdaArray.from_grid(WIDE_P1), PdaArray.from_grid(WIDE_P2)
        with pytest.raises(BudgetExceededError, match=r"\b2411 steps, over the budget of 2410$"):
            exhaustive_best(p1, p2, WIDE_PROFILE, budget=2410)
        assert exhaustive_best(p1, p2, WIDE_PROFILE, budget=2411).s_min == 18

    def test_beyond_enumeration_horizon(self):
        # 14! * 3! pairs is far beyond enumeration; the subset DP needs 14 * 2^14 per table
        # and the class walk one step per subset
        profile = AssociationProfile((3, 3, 3, 2, 2, 2, 2, 1, 1, 1, 1, 1, 1, 1))
        p1, p2 = man_pda(14, 2), man_pda(3, 1)
        start = time.perf_counter()
        result = exhaustive_best(p1, p2, profile)
        assert time.perf_counter() - start < 10
        assert result.best == PermutationPair(tuple(range(14)), (0, 1, 2), 1057)
        assert (result.s_min, result.s_max) == (1057, 1057)
        assert check_E1(p1) is True
        start = time.perf_counter()
        pairs = top_pairs(p1, p2, profile)
        assert time.perf_counter() - start < 10
        assert pairs == [result.best]

    def test_equal_parts_within_the_default_budget(self):
        # under equal parts every weight but the last is 0, so all 32 097 classes
        # of ConstructionA(4,3)'s orders tie at S = 1152; the DP's steps do not
        # depend on that: 16 * 2^16 + 4 * 2^4 for the phi tables, 15 subsets of
        # p2's walk to its one table, 2 * 16 * 2^16 for its min and max DPs and
        # 16 * 2^16 for its tight steps, 196 604 subsets walked to rebuild pi1
        # and 44 for pi2's representative
        p1, p2 = construction_a_pda(4, 3), man_pda(4, 1)
        result = exhaustive_best(p1, p2, AssociationProfile((4,) * 16))
        assert (result.s_min, result.s_max) == (1152, 1152)
        assert result.best == PermutationPair(tuple(range(16)), (0, 1, 2, 3), 1152)
        assert result.evaluations == 4391031

    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_top_pair_is_the_best(self, rng):
        # the least optimal pi1 is its own class's representative, and pi2 the
        # least representative reaching s_min with it, so top_pairs' first pair
        # is exhaustive_best's, which the search command prints for --top 1
        p1 = random_pda(rng, max_cols=8, max_rows=20)
        p2 = random_pda(rng, max_cols=8, max_rows=20)
        profile = random_profile(rng, p1.k, p2.k)
        assert top_pairs(p1, p2, profile, limit=1) == [exhaustive_best(p1, p2, profile).best]

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            exhaustive_best(man_pda(3, 1), man_pda(3, 1), AssociationProfile((3, 2)))
        with pytest.raises(DimensionMismatchError):
            top_pairs(man_pda(3, 1), man_pda(3, 1), AssociationProfile((3, 2)))

    def test_top_pairs_sorted_and_consistent(self):
        p1, p2 = PdaArray.from_grid(WIDE_P1), PdaArray.from_grid(WIDE_P2)
        pairs = top_pairs(p1, p2, WIDE_PROFILE, limit=5)
        values = [p.s_value for p in pairs]
        assert values == sorted(values)
        assert values[0] == 18
        best = exhaustive_best(p1, p2, WIDE_PROFILE).best
        assert pairs[0] == best


class TestAgainstOracle:
    """The subset-DP engine against the factorial enumerator in permsearch_oracle."""

    def check(self, p1, p2, profile):
        # evaluations differ by design: each side counts its own steps
        got, want = exhaustive_best(p1, p2, profile), oracle.exhaustive_best(p1, p2, profile)
        assert (got.best, got.s_min, got.s_max) == (want.best, want.s_min, want.s_max)
        pairs = oracle.all_pairs(p1, p2, profile)
        assert top_pairs(p1, p2, profile, limit=len(pairs)) == pairs
        for limit in range(1, min(len(pairs), 4)):
            assert top_pairs(p1, p2, profile, limit=limit) == pairs[:limit]
        assert check_E1(p1) is oracle.check_E1(p1)
        assert check_E2(p2, profile) is oracle.check_E2(p2, profile)

    def test_wide_pair(self):
        self.check(PdaArray.from_grid(WIDE_P1), PdaArray.from_grid(WIDE_P2), WIDE_PROFILE)

    def test_two_pareto_minimal_tables(self):
        # one new code per column of p1 favours the second table: S = 23, not 24
        p1, p2 = man_pda(6, 0), PdaArray.from_grid(PARETO_P2)
        profile = AssociationProfile((5, 5, 4, 3, 2, 2))
        assert exhaustive_best(p1, p2, profile).s_min == 23
        self.check(p1, p2, profile)
        p1 = PdaArray.from_grid(TWO_REACHING_P1)
        assert exhaustive_best(p1, p2, profile).best.pi1 == (0, 1, 3, 2, 4, 5)
        self.check(p1, p2, profile)
        p1, profile = PdaArray.from_grid(SECOND_WINS_P1), AssociationProfile((5, 4, 3, 2, 1, 1))
        assert exhaustive_best(p1, p2, profile).best.pi1 == (0, 2, 3, 4, 5, 1)
        self.check(p1, p2, profile)

    def test_two_pareto_maximal_tables(self):
        # under profile (4, 3, 2, 2) this p2 has two Pareto-maximal phi tables,
        # (17, 17, 12, 12) and (17, 16, 14, 14); one new code per column of p1
        # favours the second: S = 61, not 58
        p1 = man_pda(4, 0)
        p2 = code_per_row_pda(4, [{0, 2, 3}] * 2 + [{0, 1}] * 4 + [{1, 3}] * 3)
        profile = AssociationProfile((4, 3, 2, 2))
        result = exhaustive_best(p1, p2, profile)
        assert result.s_max == 61
        assert (result.s_min, result.s_max) == naive_extremes(p1, p2, profile)
        self.check(p1, p2, profile)

    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_random_instances(self, rng):
        p1 = random_pda(rng, max_cols=6, max_rows=20)
        p2 = random_pda(rng, max_cols=6, max_rows=20)
        self.check(p1, p2, random_profile(rng, p1.k, p2.k))


class TestTopPairs:
    """The best-first walk against scoring every class pair
    (``permsearch_oracle.top_pairs_scoring_all``), at every limit: the same
    pairs, in no more steps."""

    def check(self, p1, p2, profile):
        everything, _ = oracle.top_pairs_scoring_all(p1, p2, profile, limit=10 ** 9)
        for limit in range(1, len(everything) + 2):
            want, steps = oracle.top_pairs_scoring_all(p1, p2, profile, limit)
            assert top_pairs(p1, p2, profile, limit=limit, budget=steps) == want
        return [p.s_value for p in everything]

    def test_ties_outnumber_the_slots(self):
        # ConstructionA(3,2) cut to 8 columns x ConstructionA(3,1) cut to 5: 6
        # pairs lie below S = 82 and 11 tie there, for the 4 slots left at limit 10
        p1 = first_columns(construction_a_pda(3, 2), 8)
        p2 = first_columns(construction_a_pda(3, 1), 5)
        profile = AssociationProfile((5, 4, 3, 2, 2, 1, 1, 1))
        values = [p.s_value for p in oracle.top_pairs_scoring_all(p1, p2, profile, limit=20)[0]]
        assert values[5] < values[6] == values[16] == 82 < values[17]
        for limit in range(1, 21):
            want, steps = oracle.top_pairs_scoring_all(p1, p2, profile, limit)
            assert top_pairs(p1, p2, profile, limit=limit, budget=steps) == want
        # rebuilding all 11 tied classes in full took 7516 steps at limit 10;
        # a tied class now stops once its pi1 passes the 4th least kept
        assert len(top_pairs(p1, p2, profile, limit=10, budget=7515)) == 10

    def test_ties_past_the_limit(self):
        # ConstructionA(2, 2)'s three classes all tie at S = 12, so limits 1 and 2 cut a tie
        values = self.check(construction_a_pda(2, 2), man_pda(3, 1),
                            AssociationProfile((3, 3, 2, 2, 1, 1)))
        assert values == [12, 12, 12]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32))
    def test_random_instances(self, seed):
        # a seeded generator, so that redrawing until every limit can be tried
        # in time costs hypothesis no data; p1 has one code per row half the
        # time, for many classes and many ties
        rng = random.Random(seed)
        while True:
            if rng.random() < 0.5:
                k = rng.randint(1, 8)
                p1 = code_per_row_pda(k, [set(rng.sample(range(k), rng.randint(1, k)))
                                          for _ in range(rng.randint(1, 6))])
            else:
                p1 = random_pda(rng, max_cols=8, max_rows=20)
            p2 = random_pda(rng, max_cols=8, max_rows=20)
            profile = random_profile(rng, p1.k, p2.k)
            if len(oracle.top_pairs_scoring_all(p1, p2, profile, limit=10 ** 9)[0]) <= 120:
                break
        self.check(p1, p2, profile)


class TestOrderValue:
    """The subset DP that walks each subset's own columns against the one that
    lists every column for each subset (``permsearch_oracle.order_value``)."""

    @pytest.mark.parametrize("k", range(11))
    def test_matches_listing_every_column(self, k):
        # any phi table and weights, zeros among them, as the DP assumes no order
        rng = random.Random(k)
        for _ in range(20):
            phi = [rng.randint(0, 60) for _ in range(1 << k)]
            weights = [rng.choice((0, 0, 1, 2, 7)) for _ in range(k)]
            for pick in (min, max):
                assert (_order_value(phi, weights, k, pick)
                        == oracle.order_value(phi, weights, k, pick))

    @pytest.mark.parametrize("k", range(1, 11))
    def test_tight_edges_match_a_test_per_subset(self, k):
        # low phi values and weights, so that many steps tie and are tight
        rng = random.Random(k)
        lacks = _Lattice(k, _Steps(0)).lacks
        for _ in range(20):
            phi = [rng.randint(0, 4) for _ in range(1 << k)]
            weights = [rng.choice((0, 0, 1, 2)) for _ in range(k)]
            value = oracle.order_value(phi, weights, k, min)
            assert (_tight_edges(phi, weights, value, lacks)
                    == oracle.tight_edges(phi, weights, value, k))


class TestBeyondEnumeration:
    """pi1 against the per-position rebuild in permsearch_oracle, on p1 too wide
    for the K1! x K2! enumerator."""

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2 ** 32))
    def test_best_pi1_matches_per_position_rebuild(self, seed):
        # a seeded generator, so that redrawing until p1 is wide enough costs
        # hypothesis no data
        rng = random.Random(seed)
        while (p1 := random_pda(rng, max_cols=9, max_rows=20)).k < 7:
            pass
        p2 = random_pda(rng, max_cols=5, max_rows=12)
        profile = random_profile(rng, p1.k, p2.k)
        tables = oracle.prefix_classes(oracle.subset_phi(p2), p2.k, profile.parts)
        want = oracle.best_first_order(oracle.subset_phi(p1), p1.k, map(oracle.weights, tables))
        assert exhaustive_best(p1, p2, profile).best.pi1 == want


class TestClasses:
    """The subset-lattice walk against the K! enumeration in permsearch_oracle:
    the same keys, each with the same lexicographically first order."""

    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_matches_enumeration(self, rng):
        pda = random_pda(rng, max_cols=7, max_rows=40)
        table = _subset_phi(pda, _Steps(10 ** 9))
        # all prefix widths, then widths with repeats, gaps and width 0, in any order
        for widths in (range(1, pda.k + 1),
                       [rng.randint(0, pda.k) for _ in range(rng.randint(1, 2 * pda.k))]):
            classes = _Classes(table, pda.k, widths, _Steps(10 ** 9))
            assert dict(classes.items()) == oracle.prefix_classes(table, pda.k, widths)


def first_columns(pda, width):
    """The array cut to its first ``width`` columns, codes re-canonicalized."""
    return PdaArray.from_grid(canonicalize_codes([row[:width] for row in pda.grid]))


def code_per_row_pda(k, column_sets):
    """The array with one code per set in ``column_sets`` and one row per
    column of it, holding the code there and stars elsewhere.  Codes in one
    column are added until every column holds as many codes, so C1 holds, and
    C3 holds because no row holds two codes."""
    counts = [sum(c in cols for cols in column_sets) for c in range(k)]
    column_sets = [*column_sets, *({c} for c in range(k) for _ in range(max(counts) - counts[c]))]
    return PdaArray.from_grid([tuple(code if j == c else STAR for j in range(k))
                               for code, cols in enumerate(column_sets, 1) for c in sorted(cols)])


class TestSubsetPhi:
    """The lane-packed sum over subsets against a code-by-code count."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32))
    def test_matches_code_by_code_count(self, seed):
        rng = random.Random(seed)
        k = rng.randint(1, 10)
        pda = code_per_row_pda(k, [set(rng.sample(range(k), rng.randint(1, k)))
                                   for _ in range(rng.randint(1, 40))])
        assert _subset_phi(pda, _Steps(10 ** 9)) == oracle.subset_phi(pda)

    def test_counts_past_sixteen_bits(self):
        # S = 70000 does not fit 16-bit lanes, and the column pairs meet 60000,
        # 60000 and 40000 codes, so lanes read in the wrong order show
        pda = code_per_row_pda(3, [{0}] * 30000 + [{1}] * 10000 + [{2}] * 10000 + [{1, 2}] * 20000)
        phi = _subset_phi(pda, _Steps(10 ** 9))
        assert phi == oracle.subset_phi(pda)
        assert phi == [0, 30000, 30000, 60000, 30000, 60000, 40000, 70000]


class TestLacking:
    """The subsets lacking a column, from repeated byte patterns, against the
    big-int division (``permsearch_oracle.lacking``), for the lattice's
    one-bit lanes and the phi table's 64-bit lanes."""

    @pytest.mark.parametrize("lane, ks", [(1, [*range(13), 16]), (64, range(11))])
    def test_matches_the_division(self, lane, ks):
        for k in ks:
            assert list(_lacking(k, lane)) == [oracle.lacking(c, k, lane) for c in range(k)]


def random_constraints(rng, k):
    """Random ``allowed`` and ``edges`` for ``_Lattice.positions``: per width
    any subsets, per column c only subsets lacking c, each kept with one
    probability drawn per instance."""
    keep = rng.choice((0.5, 0.7, 0.9))

    def some(subsets):
        return sum(1 << m for m in subsets if rng.random() < keep)

    return ([some(range(1 << k)) for _ in range(k + 1)],
            [some(m for m in range(1 << k) if not m >> c & 1) for c in range(k)])


class TestLattice:
    """The chain walk against trying every column->position permutation, and
    against the walk it replaced (``permsearch_oracle.chain_first_order``)."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2 ** 32))
    def test_first_order_matches_enumeration(self, seed):
        # a seeded generator, so that redrawing until a chain exists costs
        # hypothesis no data
        rng = random.Random(seed)
        k = rng.randint(1, 6)
        while (want := oracle.first_order(k, *(constraints := random_constraints(rng, k)))) is None:
            pass
        assert tuple(_Lattice(k, _Steps(10 ** 9)).positions(*constraints)) == want

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2 ** 32))
    def test_first_order_matches_the_chain_walk(self, seed):
        # against the walk whose placements grew and shrank through method calls
        # (permsearch_oracle.chain_first_order): the same order for the same
        # steps, with the steps' columns constrained or free
        rng = random.Random(seed)
        k = rng.randint(1, 7)
        lacks = [sum(1 << m for m in range(1 << k) if not m >> c & 1) for c in range(k)]
        while True:
            allowed, edges = random_constraints(rng, k)
            if rng.random() < 0.5:
                edges = lacks
            if chain_exists(k, allowed, edges):
                break
        want_steps, got_steps = _Steps(10 ** 9), _Steps(10 ** 9)
        want = oracle.chain_first_order(k, allowed, edges, want_steps)
        assert tuple(_Lattice(k, got_steps).positions(allowed, edges)) == want
        assert got_steps.count == want_steps.count


def chain_exists(k, allowed, edges):
    """Whether some chain of subsets keeps to ``allowed`` and ``edges``: the
    subsets reached from no column, one width at a time."""
    reach = {0} if allowed[0] & 1 else set()
    for n in range(1, k + 1):
        reach = {m | 1 << c for m in reach for c in range(k)
                 if edges[c] >> m & 1 and allowed[n] >> (m | 1 << c) & 1}
    return bool(reach)


class TestPhiVector:
    def test_identity_matches_column_scan(self):
        p2 = PdaArray.from_grid(WIDE_P2)
        assert phi_vector(p2) == tuple(grid_oracle.phi(p2, c) for c in range(1, 7))
        for perm in ((0, 0, 1), (0, 1, 5)):
            with pytest.raises(InvalidPermutationError):
                phi_vector(man_pda(3, 1), perm)

    @settings(max_examples=40, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_permuted_matches_physical_permutation(self, rng):
        pda = random_pda(rng, max_cols=5, max_rows=12)
        perm = list(range(pda.k))
        rng.shuffle(perm)
        assert phi_vector(pda, tuple(perm)) == naive_phi_vector(pda, tuple(perm))


class TestOrderOptimalityConditions:
    def test_frozen_pair_values(self):
        assert check_E1(PdaArray.from_grid(WIDE_P1)) is False
        assert check_E1(PdaArray.from_grid(WIDE_P1_OPT)) is True
        assert check_E2(PdaArray.from_grid(WIDE_P2), WIDE_PROFILE) is False
        assert check_E2(PdaArray.from_grid(WIDE_P2_OPT), WIDE_PROFILE) is True

    def test_man_is_always_optimal_order(self):
        # fully column-symmetric arrays satisfy both conditions trivially
        for k, t in [(3, 1), (4, 2), (5, 1)]:
            assert check_E1(man_pda(k, t)) is True
        assert check_E2(man_pda(3, 1), AssociationProfile((3, 2, 1))) is True

    @settings(max_examples=25, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_e1_matches_naive_definition(self, rng):
        pda = random_pda(rng, max_cols=4, max_rows=8)
        base = naive_phi_vector(pda, tuple(range(pda.k)))
        naive = all(
            all(b <= o for b, o in zip(base, naive_phi_vector(pda, perm)))
            for perm in itertools.permutations(range(pda.k))
        )
        assert check_E1(pda) is naive

    @settings(max_examples=25, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_e2_matches_naive_definition(self, rng):
        pda = random_pda(rng, max_cols=4, max_rows=8)
        profile = random_profile(rng, rng.randint(1, 4), pda.k)
        widths = tuple(reversed(profile.parts))

        def at_widths(vector):
            return [vector[w - 1] if w > 0 else 0 for w in widths]

        base = at_widths(naive_phi_vector(pda, tuple(range(pda.k))))
        naive = all(
            all(b <= o for b, o in zip(base, at_widths(naive_phi_vector(pda, perm))))
            for perm in itertools.permutations(range(pda.k))
        )
        assert check_E2(pda, profile) is naive

    def test_identity_check_matches_least_per_width(self):
        # against the least phi per width (permsearch_oracle.least_is_identity):
        # columns drawn more often the higher their index, so that the identity
        # prefixes are often least, and widths with repeats, gaps and width 0
        verdicts = set()
        for seed in range(200):
            rng = random.Random(seed)
            k = rng.randint(1, 8)
            pda = code_per_row_pda(k, [set(rng.choices(range(k), [(c + 1) ** 2 for c in range(k)],
                                                       k=rng.randint(1, k)))
                                       for _ in range(rng.randint(1, 30))])
            widths = [rng.randint(0, k) for _ in range(rng.randint(1, 2 * k))]
            if seed % 2:
                widths += [0, widths[0]]
            want = oracle.least_is_identity(oracle.subset_phi(pda), k, widths)
            assert _identity_is_minimal(pda, widths, _Steps(10 ** 9)) is want
            verdicts.add(want)
        assert verdicts == {True, False}

    def test_budget(self):
        # the subset table of 6 columns is 6 * 2^6 steps
        with pytest.raises(BudgetExceededError, match=r"\b384 steps, over the budget of 10$"):
            check_E1(man_pda(6, 1), budget=10)
        with pytest.raises(BudgetExceededError, match=r"\b384 steps, over the budget of 10$"):
            check_E2(man_pda(6, 1), AssociationProfile((6, 1)), budget=10)

    def test_e2_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            check_E2(man_pda(3, 1), AssociationProfile((4, 2)))


class TestHeuristic:
    def test_reaches_optimum_on_wide_pair(self):
        p1 = heuristic_reorder(PdaArray.from_grid(WIDE_P1), side="first")
        p2 = heuristic_reorder(PdaArray.from_grid(WIDE_P2), WIDE_PROFILE, side="second")
        assert s_count(p1, p2, WIDE_PROFILE) == 18

    @settings(max_examples=40, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_never_worsens_s(self, rng):
        p1 = random_pda(rng, max_cols=4, max_rows=8)
        p2 = random_pda(rng, max_cols=4, max_rows=8)
        profile = random_profile(rng, p1.k, p2.k)
        before = s_count(p1, p2, profile)
        after = s_count(heuristic_reorder(p1, side="first"),
                        heuristic_reorder(p2, profile, side="second"), profile)
        assert after <= before

    @settings(max_examples=100, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_order_matches_frozenset_greedy(self, rng):
        pda = random_pda(rng, max_cols=6, max_rows=30)
        if rng.random() < 0.3:
            base = man_pda(rng.randint(4, 9), rng.randint(1, 3))
            pda = permute_columns(base, rng.sample(range(base.k), base.k))
        order = oracle.greedy_order(pda)
        assert _greedy_order(pda) == order
        out = heuristic_reorder(pda, side="first")
        assert out is pda or out == permute_columns(pda, order)

    @pytest.mark.parametrize("rows, order", [
        (((STAR, STAR), (STAR, STAR)), (0, 1)),  # S = 0: no column has a code
        (((1, STAR, STAR), (STAR, 1, STAR), (STAR, STAR, 1)), (0, 1, 2)),  # S = 1
    ])
    def test_fewest_codes(self, rows, order):
        pda = PdaArray(rows)
        assert _greedy_order(pda) == oracle.greedy_order(pda) == order
        assert heuristic_reorder(pda, side="first") == pda
        assert heuristic_reorder(pda, AssociationProfile((pda.k,)), side="second") == pda

    def test_parameters_preserved(self):
        out = heuristic_reorder(PdaArray.from_grid(WIDE_P2), WIDE_PROFILE, side="second")
        src = PdaArray.from_grid(WIDE_P2)
        assert (out.k, out.f, out.z, out.s) == (src.k, src.f, src.z, src.s)

    def test_argument_validation(self):
        with pytest.raises(ParameterError):
            heuristic_reorder(man_pda(3, 1), side="middle")
        with pytest.raises(ParameterError):
            heuristic_reorder(man_pda(3, 1), side="second")


def test_permutation_gain_script(capsys):
    path = Path(__file__).resolve().parents[1] / "scripts" / "permutation_gain.py"
    spec = importlib.util.spec_from_file_location("permutation_gain", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main(["--instances", "5", "--max-cols", "4"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header == "lambda,l1,profile,s_identity,s_greedy,s_min,s_max"
    assert len(rows) == 5
    for row in rows:
        identity, greedy, s_min, s_max = map(int, row.split(",")[3:])
        assert s_min <= greedy <= identity <= s_max
