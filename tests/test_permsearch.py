"""Permutation search over equivalent PDAs, checked against naive enumeration."""

import gc
import importlib.util
import itertools
import random
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sppda import permsearch
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
    phi,
)
from sppda.construct import DimensionMismatchError, s_count, s_weights
from sppda.permsearch import (
    BudgetExceededError,
    PermutationPair,
    _Lattice,
    _Prefixes,
    _Search,
    _Steps,
    _greedy_order,
    _identity_is_minimal,
    _lacking,
    _lowest,
    _order_value,
    _subset_phi,
    _tight_edges,
    check_E1,
    check_E2,
    exhaustive_best,
    heuristic_reorder,
    top_pairs,
)
from sppda.textio import write_pda

import grid_oracle
import permsearch_oracle as oracle
from conftest import (
    WIDE_P1,
    WIDE_P1_OPT,
    WIDE_P2,
    WIDE_P2_OPT,
    WIDE_PROFILE,
    grid,
    load_script,
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


def edge_row_pda(k, edges):
    """The array with one row per edge {a, b} of a graph on k columns: stars
    at columns a and b, and at any other column j the code of {a, b, j}.  A
    d-regular graph puts d stars in each column (C1); the rows holding a
    code are edges of one triple, each with the code at the triple's third
    column, where the others hold stars (C3)."""
    codes = {}
    return PdaArray.from_grid(canonicalize_codes([
        tuple(STAR if j in edge else codes.setdefault(frozenset((*edge, j)), len(codes) + 1)
              for j in range(k))
        for edge in edges]))


def regular_edges(rng, k, d):
    """The edges of a d-regular graph on k vertices (k * d even), drawn by
    rejection from the sets of k * d / 2 edges."""
    pairs = list(itertools.combinations(range(k), 2))
    while True:
        edges = rng.sample(pairs, k * d // 2)
        if all(sum(v in edge for edge in edges) == d for v in range(k)):
            return sorted(edges)


# Edge-row first arrays with MaN second arrays where, for the one table of
# best bound, no chain passes a least-phi (or largest-phi) subset at every
# width of positive weight, so that exhaustive_best runs the subset DP:
# ((k, p1's graph), (k2, t2) of MaN(k2, t2), the profile, the DP's pick).
FALLBACKS = [
    ((7, ((0, 2), (0, 4), (0, 5), (0, 6), (1, 2), (1, 4), (1, 5), (1, 6), (2, 3), (2, 6),
          (3, 4), (3, 5), (3, 6), (4, 5))), (4, 0), (4, 4, 4, 3, 2, 2, 1), "min"),
    ((7, ((0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 4), (1, 5), (1, 6), (2, 3), (2, 6),
          (3, 4), (3, 5), (4, 6), (5, 6))), (4, 1), (4, 4, 4, 4, 2, 1, 1), "min"),
    ((6, ((0, 2), (0, 3), (0, 5), (1, 2), (1, 4), (1, 5), (2, 3), (3, 4), (4, 5))),
     (5, 0), (5, 5, 3, 2, 2, 1), "max"),
]


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
        assert result.evaluations == 1400

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
        # table, then the passes up for the chains of s_min's two tables of
        # least bound (41 and 44 subsets) pass the budget
        with pytest.raises(BudgetExceededError, match=r"\b1003 steps, over the budget of 1000$"):
            exhaustive_best(PdaArray.from_grid(WIDE_P1), PdaArray.from_grid(WIDE_P2),
                            WIDE_PROFILE, budget=1000)
        # top_pairs: 2 * 384 for the phi tables, 150 subsets of p2's walk, then the
        # 11th node p1's best-first walk expands (93 subsets in all) passes the budget
        with pytest.raises(BudgetExceededError, match=r"\b1011 steps, over the budget of 1000$"):
            top_pairs(PdaArray.from_grid(WIDE_P1), PdaArray.from_grid(WIDE_P2),
                      WIDE_PROFILE, budget=1000)

    def test_budget_counts_each_walk(self):
        # 918 steps for the phi tables and p2's walk (test_budget); both tables
        # of least bound 18 have a chain of least-phi subsets (passes up of 41
        # and 44 subsets), and the table of largest bound 24 one too (43); then
        # 76 subsets walked to place pi1 for each of the two tables, 109 to
        # place the first of p2's two tables that reach s_min with pi1 and 93
        # to place the second until its prefix passes the first's
        p1, p2 = PdaArray.from_grid(WIDE_P1), PdaArray.from_grid(WIDE_P2)
        with pytest.raises(BudgetExceededError, match=r"\b1400 steps, over the budget of 1399$"):
            exhaustive_best(p1, p2, WIDE_PROFILE, budget=1399)
        assert exhaustive_best(p1, p2, WIDE_PROFILE, budget=1400).s_min == 18

    def test_budget_counts_dp_transitions(self):
        # on the first fallback fixture: 4 * 2^4 for p2's phi table and 15
        # subsets of its walk to its one table, 7 * 2^7 for p1's table; the pass
        # up for s_min's bound (30 subsets) finds no chain, so the DP runs,
        # 7 * 2^7 steps (1901 in all); the pass up for s_max's (58) finds one;
        # 7 * 2^7 for the DP's tight steps and 127 subsets for the pass up along
        # them, 42 walked to place pi1, then 15 up and 29 to place pi2
        (k, edges), (k2, t2), parts, _ = FALLBACKS[0]
        p1, p2, profile = edge_row_pda(k, edges), man_pda(k2, t2), AssociationProfile(parts)
        with pytest.raises(BudgetExceededError,
                           match=r"^a 128-subset DP brings the search to 1901 steps, over the budget of 1900$"):
            exhaustive_best(p1, p2, profile, budget=1900)
        with pytest.raises(BudgetExceededError, match=r"\b3068 steps, over the budget of 3067$"):
            exhaustive_best(p1, p2, profile, budget=3067)
        assert exhaustive_best(p1, p2, profile, budget=3068).s_min == 110

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
        # of ConstructionA(4,3)'s orders tie at S = 1152; the bound's steps do
        # not depend on that: 16 * 2^16 + 4 * 2^4 for the phi tables, 15 subsets
        # of p2's walk to its one table, 2^16 - 1 subsets for the one pass up
        # that finds its chains for both the min and the max (only width 16 is
        # weighted, and its one subset is both the least and the largest),
        # 131 069 subsets walked to place pi1 and 44 for pi2's representative
        p1, p2 = construction_a_pda(4, 3), man_pda(4, 1)
        profile = AssociationProfile((4,) * 16)
        result = exhaustive_best(p1, p2, profile)
        assert (result.s_min, result.s_max) == (1152, 1152)
        assert result.best == PermutationPair(tuple(range(16)), (0, 1, 2, 3), 1152)
        assert result.evaluations == 1245303
        # top_pairs' one pair is that best pair, found the same way, where its
        # best-first walk would pass 5 * 10^7 steps through the tied classes
        assert top_pairs(p1, p2, profile, limit=1) == [result.best]

    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_top_pair_is_the_best(self, rng):
        # the least optimal pi1 is its own class's representative, and pi2 the
        # least representative reaching s_min with it, so the best-first walk's
        # first pair is exhaustive_best's, which top_pairs(limit=1) and the
        # search command's --top 1 return
        p1 = random_pda(rng, max_cols=8, max_rows=20)
        p2 = random_pda(rng, max_cols=8, max_rows=20)
        profile = random_profile(rng, p1.k, p2.k)
        assert _Search(p1, p2, profile, 10 ** 7).top(1) == [exhaustive_best(p1, p2, profile).best]

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


class TestBoundAndFallback:
    """exhaustive_best's two paths against the factorial enumerator
    (``permsearch_oracle.exhaustive_best``): a table's bound from the least
    or largest phi per width where a chain of p1's prefixes reaches it, and
    the subset DP where none does."""

    def check(self, p1, p2, profile):
        got, want = exhaustive_best(p1, p2, profile), oracle.exhaustive_best(p1, p2, profile)
        assert (got.best, got.s_min, got.s_max) == (want.best, want.s_min, want.s_max)

    @pytest.mark.parametrize("fixture", FALLBACKS)
    def test_fallback_fixtures(self, fixture, monkeypatch):
        # one DP, for the side the fixture has no chain on; the other side
        # takes the bound
        (k, edges), (k2, t2), parts, pick = fixture
        picks = []

        def spy(phi, weights, k, pick):
            picks.append(pick.__name__)
            return _order_value(phi, weights, k, pick)

        monkeypatch.setattr(permsearch, "_order_value", spy)
        self.check(edge_row_pda(k, edges), man_pda(k2, t2), AssociationProfile(parts))
        assert picks == [pick]

    def test_ledger_searches_the_first_fixture(self):
        # the CLI ledger's search-fallback session reaches the DP through this array
        (k, edges), *_ = FALLBACKS[0]
        assert load_script("cli_ledger").EDGE7 == write_pda(edge_row_pda(k, edges))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32))
    def test_random_edge_rows(self, seed):
        # a seeded generator, so that redrawing a graph costs hypothesis no data
        rng = random.Random(seed)
        k = rng.randint(3, 6)
        d = rng.choice([d for d in range(1, k) if k * d % 2 == 0])
        k2 = rng.randint(1, 5)
        p2 = man_pda(k2, rng.randint(0, k2))
        self.check(edge_row_pda(k, regular_edges(rng, k, d)), p2, random_profile(rng, k, k2))


class TestTopPairs:
    """The best-first walk (``_Search.top``, which ``top_pairs`` runs for a
    limit above 1) against scoring every class pair
    (``permsearch_oracle.top_pairs_scoring_all``), at every limit: the same
    pairs, in no more steps."""

    def check(self, p1, p2, profile):
        everything, _ = oracle.top_pairs_scoring_all(p1, p2, profile, limit=10 ** 9)
        for limit in range(1, len(everything) + 2):
            want, steps = oracle.top_pairs_scoring_all(p1, p2, profile, limit)
            assert _Search(p1, p2, profile, steps).top(limit) == want
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
            assert _Search(p1, p2, profile, steps).top(limit) == want
        # at limit 10: 8 * 2^8 + 5 * 2^5 for the phi tables, 55 subsets of p2's
        # walk, 659 for p1's best-first walk and 2886 to place the orders; a
        # tied class stops once its pi1 passes the 4th least kept, and each
        # class's pass up is read off the chain its walk grew, at no step
        with pytest.raises(BudgetExceededError, match=r"\b5808 steps, over the budget of 5807$"):
            top_pairs(p1, p2, profile, limit=10, budget=5807)
        assert len(top_pairs(p1, p2, profile, limit=10, budget=5808)) == 10

    def test_no_reference_cycles(self):
        # nodes link to their children and share their parents' grown sets,
        # never the other way, so reference counting frees the whole walk
        p1 = first_columns(construction_a_pda(3, 2), 8)
        p2 = first_columns(construction_a_pda(3, 1), 5)
        profile = AssociationProfile((5, 4, 3, 2, 2, 1, 1, 1))
        gc.collect()
        gc.disable()
        try:
            assert len(top_pairs(p1, p2, profile, limit=10)) == 10
            assert gc.collect() == 0
        finally:
            gc.enable()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32))
    def test_chains_read_the_pass_up(self, seed):
        # every class the best-first walk finds reads, from the chain it was
        # found on, the pass up that the lattice walks for its values, and is
        # given the same first order through that chain as through the walk
        rng = random.Random(seed)
        if rng.random() < 0.5:
            k = rng.randint(1, 8)
            p1 = code_per_row_pda(k, [set(rng.sample(range(k), rng.randint(1, k)))
                                      for _ in range(rng.randint(1, 6))])
        else:
            p1 = random_pda(rng, max_cols=8, max_rows=20)
        p2 = random_pda(rng, max_cols=8, max_rows=20)
        search = _Search(p1, p2, random_profile(rng, p1.k, p2.k), 10 ** 9)
        prefixes = search.prefixes
        found = _lowest(prefixes, [s_weights(key) for key in search.tables],
                        rng.choice([1, 10, 10 ** 9]))
        assert found
        walked = _Prefixes(prefixes.phi, p1.k, prefixes.widths, _Steps(10 ** 9))
        for _, values, _, chain in found:
            allowed = [prefixes.every, *map(dict.__getitem__, prefixes.cells, values)]
            assert prefixes.reached(values, chain) == prefixes.up(allowed, prefixes.lacks)
            assert tuple(prefixes.order(values, chain)) == tuple(walked.order(values))

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
            prefixes = _Prefixes(table, pda.k, widths, _Steps(10 ** 9))
            classes = {key: prefixes.placed(values) for key, values in prefixes.classes(widths).items()}
            assert classes == oracle.prefix_classes(table, pda.k, widths)


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
    """The subsets lacking a column, each derived from the next column's by a
    shift and an XOR, against the big-int division (``permsearch_oracle.lacking``), for the lattice's
    one-bit lanes and the phi table's 64-bit lanes."""

    @pytest.mark.parametrize("lane, ks", [(1, [*range(13), 16]), (64, range(11))])
    def test_matches_the_division(self, lane, ks):
        for k in ks:
            assert list(_lacking(k, lane)) == [oracle.lacking(c, k, lane) for c in reversed(range(k))]


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
        # no order at all where the enumeration finds none
        rng = random.Random(seed)
        k = rng.randint(1, 6)
        allowed, edges = random_constraints(rng, k)
        lattice = _Lattice(k, _Steps(10 ** 9))
        got = tuple(lattice.positions(lattice.up(allowed, edges), edges))
        assert got == (oracle.first_order(k, allowed, edges) or ())

    def test_no_chain_gives_no_order(self):
        # width 1 only {c0}, width 2 only {c1, c2}: no chain passes both; the
        # placements alone would give (2, 2, 2)
        lattice = _Lattice(3, _Steps(10 ** 9))
        allowed = [1, 1 << 0b001, 1 << 0b110, lattice.every]
        good = lattice.up(allowed, lattice.lacks)
        assert good[-1] == 0
        assert tuple(lattice.positions(good, lattice.lacks)) == ()

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
        lattice = _Lattice(k, got_steps)
        assert tuple(lattice.positions(lattice.up(allowed, edges), edges)) == want
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
        assert phi(p2)[1:] == tuple(grid_oracle.phi(p2, c) for c in range(1, 7))
        for perm in ((0, 0, 1), (0, 1, 5)):
            with pytest.raises(InvalidPermutationError):
                phi(permute_columns(man_pda(3, 1), perm))

    @settings(max_examples=40, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_permuted_matches_physical_permutation(self, rng):
        pda = random_pda(rng, max_cols=5, max_rows=12)
        perm = list(range(pda.k))
        rng.shuffle(perm)
        assert phi(permute_columns(pda, perm))[1:] == naive_phi_vector(pda, tuple(perm))


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
        # the codes seen after each column are the order's phi
        assert _greedy_order(pda) == (order, list(phi(permute_columns(pda, order))))
        out = heuristic_reorder(pda, side="first")
        assert out is pda or out == permute_columns(pda, order)

    @pytest.mark.parametrize("rows, order", [
        (((STAR, STAR), (STAR, STAR)), (0, 1)),  # S = 0: no column has a code
        (((1, STAR, STAR), (STAR, 1, STAR), (STAR, STAR, 1)), (0, 1, 2)),  # S = 1
    ])
    def test_fewest_codes(self, rows, order):
        pda = PdaArray(rows)
        assert _greedy_order(pda) == (oracle.greedy_order(pda), list(phi(permute_columns(pda, order))))
        assert oracle.greedy_order(pda) == order
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
