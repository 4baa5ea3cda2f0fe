"""Search over equivalent PDAs (column permutations) for the pairing that
minimizes the constructed SP-PDA's code count, plus the sufficiency checks
for when the identity ordering is already optimal.

Permutations are tuples mapping old 0-based column index to new 0-based
position; ties go to the lexicographically smallest, for determinism.

Everything exact reads one table per array: ``phi[mask]``, the number of
distinct codes in the columns of ``mask`` (bit c for 0-based column c), from
one sum-over-subsets pass run on the 64-bit lanes of a single int.  The
count S of a pairing is sum_n phi1(n) (a_n - a_{n+1}), a_n = phi2(L_n),
a_{Lambda+1} = 0 (``construct.s_from_phi``; in the families' canonical
orders phi(w) is C(k, t+1) - C(k-w, t+1) for MaN(k, t) and q^{m-1}(q-1)
min(w, q) for ConstructionA(q, m)).  The weights of the first array's prefix
phi values are non-negative, so with one table S is at least the weighted
sum of the least phi per width; ``exhaustive_best`` takes that bound where a
chain of least-phi prefixes reaches it (``_Lattice.up``), and otherwise the
shortest path over the 2^K column subsets (Held-Karp), as a prefix's phi
depends only on its set of columns.  The distinct prefix values that an
array's orders can take come from a walk up the same subset lattice
(``_Prefixes.classes``), so no search enumerates the K! orders.
``top_pairs`` walks the first array's prefix values best first (A*,
``_lowest``), under a bound that never overestimates since phi never falls
along a chain and the weights are non-negative, so it walks only the
classes that can make its cut, and it reads each class's pass up off the
chain of sets that walk grew (``_Prefixes.order``).  The budget (default
10^7 steps) is charged K * 2^K per phi table, one step per subset a walk
expands and K1 * 2^K1 per DP run, whichever path answers: a first array of
20 columns needs a larger budget, its phi table alone being 20 * 2^20
steps.  One chain walk (``_Lattice.positions``) turns constraints
on subsets and steps into the lexicographically first order, one column's
position at a time, for a class representative and for the best order,
through least-phi subsets or along the DP's tight steps.  When more classes
tie at ``top_pairs``' cut than there are slots left, only the
lexicographically least are finished: a tied class stops being placed as
soon as its partial pi1 passes the last pair kept (``_least``), and
``exhaustive_best`` picks pi1 over the tables reaching s_min, and pi2 over
those reaching it with pi1, the same way.  Both read one pair's tables
through ``_Search``, which builds each on first use, so a caller wanting
both (the ``search`` command) builds and charges each once.
"""

from __future__ import annotations

import bisect
import functools
import heapq
import itertools
import math
import struct
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from operator import and_, eq, ge, gt, lt, mul, or_, sub

from .arrays import AssociationProfile, ParameterError, PdaArray, _column_codes, permute_columns, phi
from .construct import check_pair, s_weights


class BudgetExceededError(ParameterError):
    pass


@dataclass(frozen=True)
class PermutationPair:
    pi1: tuple[int, ...]
    pi2: tuple[int, ...]
    s_value: int


@dataclass(frozen=True)
class SearchResult:
    best: PermutationPair
    s_min: int
    s_max: int
    evaluations: int  # steps charged against the budget


class _Steps:
    """A running count of the steps a search has taken, refused past ``budget``.
    A negative budget is refused before any step is taken."""

    def __init__(self, budget: int):
        if budget < 0:
            raise ParameterError(f"search budget must be >= 0, got {budget}")
        self.budget = budget
        self.count = 0

    def charge(self, work: int, what: str) -> None:
        self.count += work
        if self.count > self.budget:
            raise BudgetExceededError(f"{what} brings the search to {self.count} steps, "
                                      f"over the budget of {self.budget}")


def _subset_phi(pda: PdaArray, steps: _Steps) -> list[int]:
    """phi of every column subset, indexed by bitmask: the codes meeting the
    subset are all codes minus those confined to its complement, and one
    sum-over-subsets pass (K * 2^K steps) counts the codes confined to each.
    The pass runs on one int with a 64-bit lane per subset, lane m at bits
    64m to 64m + 63: per column c, every lane lacking c is added 2^c lanes
    up.  No count exceeds S, so no lane carries into the next."""
    k, size = pda.k, 1 << pda.k
    steps.charge(k << k, f"the {size}-subset phi table")
    confined = [0] * size
    for mask in pda.code_columns:
        confined[mask] += 1
    lanes = int.from_bytes(struct.pack(f"<{size}Q", *confined), "little")
    for c, lacks in zip(range(k - 1, -1, -1), _lacking(k, 64)):
        lanes += (lanes & lacks) << (64 << c)
    # lane m of S - lanes is phi of m's complement, so the lanes from the top
    # one down are phi in mask order
    ones = int.from_bytes(struct.pack("<Q", 1) * size, "little")
    return list(struct.unpack(f">{size}Q", (pda.s * ones - lanes).to_bytes(8 * size, "big")))


def _prefix_masks(perm: tuple[int, ...]) -> list[int]:
    """Column bitmasks of the prefixes of widths 0..K under ``perm``."""
    order = [0] * len(perm)
    for c, p in enumerate(perm):
        order[p] = 1 << c
    return [0, *itertools.accumulate(order, or_)]


def _lacking(k: int, lane: int) -> Iterator[int]:
    """Per column c of k, from c = k - 1 down to 0, the subsets that lack c,
    one ``lane``-bit lane per subset (lane m at bit lane * m up), all set:
    2^c lanes set then 2^c clear, repeated.  Column k - 1's is the lower
    half of the lanes, and each next one is the last XOR itself moved up
    2^c lanes, which clears the upper half of each set run and sets the
    lower half of each clear one."""
    if not k:
        return
    lacks = (1 << (lane << k - 1)) - 1
    yield lacks
    for c in range(k - 2, -1, -1):
        lacks ^= lacks << (lane << c)
        yield lacks


_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _bits(flags: bytearray) -> int:
    """The int with bit m set where ``flags[m]`` is 1 (each flag 0 or 1): the
    flag bytes, reversed in place, read as binary digits."""
    flags.reverse()
    return int(flags.translate(_DIGITS), 2)


def _bitmap(members: Iterable[int], size: int) -> int:
    """The int with bit m set for each m in ``members`` (all below ``size``)."""
    flags = bytearray(size)
    for m in members:
        flags[m] = 1
    return _bits(flags)


class _Lattice:
    """The 2^k subsets of k columns, a set of them being one int with bit m
    standing for subset m.  A chain runs from no column to all columns, one
    column per step; ``edges[c]`` is the set of subsets that a chain may grow
    by column c, and ``allowed[n]`` the subsets it may pass at width n.
    ``steps`` is charged one step per subset expanded."""

    def __init__(self, k: int, steps: _Steps):
        self.k, self.steps = k, steps
        self.what = f"walking the {2 ** k}-subset lattice"
        self.every = (1 << (1 << k)) - 1
        # subset m | c is subset m moved up 2^c bits, for m lacking column c
        self.shifts = [1 << c for c in range(k)]
        self.lacks = [*_lacking(k, 1)][::-1]
        self.has = [self.every ^ lacks for lacks in self.lacks]

    def grow(self, sets: int, edges: list[int]) -> int:
        """The subsets one column larger than some subset in ``sets`` along ``edges``."""
        self.steps.charge(sets.bit_count(), self.what)
        out = 0
        for shift, grows in zip(self.shifts, edges):
            out |= (sets & grows) << shift
        return out

    def up(self, allowed: list[int], edges: list[int]) -> list[int]:
        """Per width n, the subsets in ``allowed[n]`` that a chain keeping to
        ``allowed`` and ``edges`` reaches from no column; the last is empty
        exactly when no such chain exists."""
        reached = [allowed[0] & 1]
        for sets in allowed[1:]:
            reached.append(self.grow(reached[-1], edges) & sets)
        return reached

    def positions(self, good: list[int], edges: list[int]) -> Iterator[int]:
        """The lexicographically first column->position permutation whose chain of
        prefixes keeps to some ``allowed`` and ``edges``, given ``good``, the pass
        up ``up(allowed, edges)``, which it takes over; yielded column by column
        as each position is fixed: each column in turn takes the smallest
        position at which it enters such a chain that places the earlier
        columns where they were put.  The constraints are all on single subsets
        and steps, so a step between two subsets on such chains lies on one.
        Nothing is yielded when no chain exists.

        ``good[n]`` is the set of width-n subsets on such chains: the pass up
        keeps the subsets reached from no column, and a pass down those that
        reach all columns.  No good subset of width up to p has column c when
        p is c's position, as its chain would have entered c below p, so p is
        one less than the first width with a good subset having c.  Placing c
        there keeps those subsets of width p + 1, and one pass up over the
        wider widths and one pass down over the narrower ones leave exactly
        the subsets on good chains; the pass up needs no test for c, as every
        subset grown from one having c has it.  Each pass ends at the first
        width whose good subsets the placement left unchanged: every good
        chain passes through them, so no set further along the pass can
        change.  A step at a placed column's position grows or shrinks only
        by that column, and any other step only by the columns not placed,
        the other moves leaving the good subsets.

        Each grow or shrink charges ``steps`` one step per subset it expands."""
        if not good[-1]:
            return
        k, what, charge = self.k, self.what, self.steps.charge
        moves = list(zip(self.shifts, edges))
        for n in range(k - 1, -1, -1):
            sets = good[n + 1]
            charge(sets.bit_count(), what)
            out = 0
            for shift, grows in moves:
                out |= (sets >> shift) & grows
            good[n] &= out
        free = dict(enumerate(moves))  # the columns not placed yet
        at: list[tuple[int, int] | None] = [None] * k  # the move placed at each position
        for c in range(k):
            has = self.has[c]
            for p in range(k):
                if not at[p] and (kept := good[p + 1] & has):
                    break
            yield p
            at[p] = free.pop(c)
            if kept == good[p + 1]:
                continue
            good[p + 1] = kept
            n, changed = p + 2, True
            while changed and n <= k:
                sets = good[n - 1]
                charge(sets.bit_count(), what)
                out = 0
                for shift, grows in ((at[n - 1],) if at[n - 1] else free.values()):
                    out |= (sets & grows) << shift
                out &= good[n]
                changed, good[n] = out != good[n], out
                n += 1
            n, changed = p, True
            while changed and n >= 0:
                sets = good[n + 1]
                charge(sets.bit_count(), what)
                out = 0
                for shift, grows in ((at[n],) if at[n] else free.values()):
                    out |= (sets >> shift) & grows
                out &= good[n]
                changed, good[n] = out != good[n], out
                n -= 1


class _Prefixes(_Lattice):
    """An array's column orders keyed by their prefix phi values at ``widths``,
    ``phi`` being its subset phi table.  ``classes`` walks the distinct
    values, and ``order`` places the lexicographically first order with given
    values, which ``placed`` keeps in ``first``."""

    def __init__(self, phi: list[int], k: int, widths, steps: _Steps):
        super().__init__(k, steps)
        self.phi = phi
        self.widths = sorted(set(widths))
        self.slot = {w: i for i, w in enumerate(self.widths)}
        self.first: dict[tuple[int, ...], tuple[int, ...]] = {}

    @functools.cached_property
    def cells(self) -> list[dict[int, int]]:
        """``cells[i][v]``: the set of subsets of the i-th smallest walked width
        with phi value v."""
        members: dict[tuple[int, int], list[int]] = {}
        for m, v in enumerate(self.phi):
            if (n := m.bit_count()) in self.slot:
                members.setdefault((n, v), []).append(m)
        cells: list[dict[int, int]] = [{} for _ in self.widths]
        for (n, v), ms in members.items():
            cells[self.slot[n]][v] = _bitmap(ms, 1 << self.k)
        return cells

    def classes(self, widths) -> dict[tuple[int, ...], tuple[int, ...]]:
        """The distinct keys ``tuple(phi[prefix[w]] for w in widths)`` over all
        column orders, ``prefix[w]`` being the set of the first w columns and
        every w one of the walked widths, each mapped to its values at the
        walked widths.

        The keys come from a walk up the subset lattice: a state is the values so
        far and the set of subsets reaching them; each width grows every subset by
        one column, and a walked width splits the grown set by phi.  The walk
        keeps only the current width's sets, so ``order`` walks a class's pass
        up again."""
        slot = self.slot
        states = {(): 1}
        for n in range(self.widths[-1] + 1):
            if n:
                states = {values: self.grow(sets, self.lacks) for values, sets in states.items()}
            if n in slot:
                states = {(*values, v): split for values, sets in states.items()
                          for v, cell in self.cells[slot[n]].items() if (split := sets & cell)}
        return {tuple(values[slot[w]] for w in widths): values for values in states}

    def reached(self, values: tuple[int, ...], chain: tuple) -> list[int]:
        """The pass up ``up(allowed, lacks)`` with the cells of ``values``
        allowed at widths 1..k, read off ``chain``, ``(chain, grown)`` nested
        from width k down, ``grown`` being the width-n subsets grown from
        those reaching ``values[:n - 1]``: the subsets reaching ``values[:n]``
        are that set cut by the cell of ``values[n - 1]``, so the pass takes
        one AND per width and no step."""
        grown = []
        while chain:
            chain, sets = chain
            grown.append(sets)
        return [1, *map(and_, reversed(grown), map(dict.__getitem__, self.cells, values))]

    def order(self, values: tuple[int, ...], chain: tuple | None = None) -> Iterator[int]:
        """The first order with walked ``values``, column by column: read back
        from ``first`` once ``placed`` has kept it, else placed by ``positions``
        on the pass up that ``reached`` reads off a best-first walk's
        ``chain`` (every width walked), or that ``up`` walks again, with the
        values' cells as the allowed subsets, when no chain is given."""
        if values in self.first:
            return iter(self.first[values])
        if chain is None:
            allowed = [self.every] * (self.k + 1)
            for n, cell, v in zip(self.widths, self.cells, values):
                allowed[n] = cell[v]
            good = self.up(allowed, self.lacks)
        else:
            good = self.reached(values, chain)
        return self.positions(good, self.lacks)

    def placed(self, values: tuple[int, ...], chain: tuple | None = None) -> tuple[int, ...]:
        """``order``, kept in ``first``."""
        if values not in self.first:
            self.first[values] = tuple(self.order(values, chain))
        return self.first[values]


def _order_value(phi: list[int], weights: list[int], k: int, pick) -> list[int]:
    """Per column subset m, ``pick`` (min or max) over the orders of m's columns
    of sum_n phi(prefix n) * weights[n-1], by a DP over the subsets; the last
    entry is the extreme over all column orders.  A subset's orders end in
    one of its own columns, so its value is its own cost plus the extreme over
    the subsets one of its columns smaller: the walk starts from the subset
    without its lowest column and takes each other set bit in turn by
    ``m & (m - 1)``, one comparison per column the subset has."""
    better = lt if pick is min else gt
    value = [0] * (1 << k)
    for mask in range(1, 1 << k):
        m = mask & (mask - 1)
        best = value[m]
        while m:
            rest = m & (m - 1)
            if better(v := value[mask ^ m ^ rest], best):
                best = v
            m = rest
        value[mask] = best + phi[mask] * weights[mask.bit_count() - 1]
    return value


def _tight_edges(phi: list[int], weights: list[int], value: list[int], lacks: list[int]) -> list[int]:
    """Per column c, the subsets m lacking c (the set ``lacks[c]``) whose step
    to m|c is tight: ``value`` (from ``_order_value`` with min) at m plus the
    step's cost is ``value`` at m|c.  S is a sum of per-step costs, so an
    order reaches the minimum exactly when every step is tight."""
    # the value a subset's predecessor must have for the step into it to be tight
    before = list(map(sub, value, map(mul, phi, map([0, *weights].__getitem__,
                                                    map(int.bit_count, range(len(value)))))))
    edges = []
    for c, lack in enumerate(lacks):
        # one flag per m, set when value[m] is before[m + 2^c], which is before[m | c]
        # for m lacking c
        edges.append(_bits(bytearray(map(eq, value, before[1 << c:]))) & lack)
    return edges


class _Search:
    """One pair's search under one budget.  p1's column orders over its phi
    table (``prefixes``), p2's at the group widths (``second``) and p2's
    classes there (``tables``, from ``_Prefixes.classes``) are each built,
    and charged to ``steps``, on first use, and each class's first order is
    kept once placed (``_Prefixes.placed``), so ``extremes`` and ``top`` on
    one search share them."""

    def __init__(self, p1: PdaArray, p2: PdaArray, profile: AssociationProfile, budget: int):
        self.steps = _Steps(budget)
        check_pair(p1, p2, profile)
        self.p1, self.p2, self.profile = p1, p2, profile
        # p1's pass up per set of allowed subsets, shared by the min and the max
        self.passes: dict[tuple, list[int]] = {}

    @functools.cached_property
    def prefixes(self) -> _Prefixes:
        return _Prefixes(_subset_phi(self.p1, self.steps), self.p1.k, range(1, self.p1.k + 1), self.steps)

    @functools.cached_property
    def second(self) -> _Prefixes:
        return _Prefixes(_subset_phi(self.p2, self.steps), self.p2.k, self.profile.parts, self.steps)

    @functools.cached_property
    def tables(self) -> dict[tuple[int, ...], tuple[int, ...]]:
        return self.second.classes(self.profile.parts)

    def extremes(self) -> SearchResult:
        """``exhaustive_best``'s result."""
        tables, second, phi1 = self.tables, self.second, self.prefixes.phi
        weights = {table: s_weights(table) for table in tables}
        # p1's subsets, and their phi, at each width that some table weighs
        columns = [1 << c for c in range(self.prefixes.k)]
        widths = {}
        for n in sorted({n for w in weights.values() for n, wn in enumerate(w, 1) if wn}):
            masks = list(map(sum, itertools.combinations(columns, n)))
            widths[n] = masks, list(map(phi1.__getitem__, masks))
        s_min, orders = self._extreme(weights, widths, min)
        s_max, _ = self._extreme(weights, widths, max)
        pi1 = _least(((order(), (None,)) for order in orders), 1)[0][0]
        prefix1 = tuple(phi1[m] for m in _prefix_masks(pi1)[1:])
        pi2 = _least(((second.order(values), (None,)) for table, values in tables.items()
                      if sum(map(mul, prefix1, weights[table])) == s_min), 1)[0][0]
        return SearchResult(PermutationPair(pi1, pi2, s_min), s_min, s_max, self.steps.count)

    def _extreme(self, weights: dict, widths: dict, pick) -> tuple[int, list]:
        """``pick`` (min or max) of S over all pairs, and per table reaching it
        a callable giving the first of p1's orders that reach it with that
        table, column by column (``positions``); ``widths`` maps each width
        that some table weighs to p1's subsets of that width and their phi.

        ``floor[n]`` is ``pick`` of phi over p1's width-n subsets.  A table's
        S is sum_n w_n phi1(n) with w_n >= 0, so it is no better than its
        bound sum_n w_n floor[n], and reaches the bound exactly when its chain
        passes, at each width of positive weight, a subset whose phi is that
        width's floor: the pass up over those subsets finds whether one does.
        Tables are visited best bound first until a bound is past the best S
        reached, and a table with no such chain takes the subset DP.  One
        pass serves every table, of either pick, that allows the same
        subsets: the least and the largest phi pick the same ones at every
        width for a MaN p1, and at the one weighted width under equal parts."""
        prefixes, steps = self.prefixes, self.steps
        phi1, k1, every, lacks = prefixes.phi, prefixes.k, prefixes.every, prefixes.lacks
        floor = [0] * (k1 + 1)  # no width that no table weighs needs one
        for n, (_, values) in widths.items():
            floor[n] = pick(values)
        at_floor = _bitmap(itertools.chain.from_iterable(
            itertools.compress(masks, map(floor[n].__eq__, values)) for n, (masks, values) in widths.items()),
            1 << k1)
        bound = {table: sum(map(mul, w, floor[1:])) for table, w in weights.items()}
        sign = 1 if pick is min else -1
        best, reaching = 0, []
        for table in sorted(sorted(bound), key=lambda t: sign * bound[t]):
            if reaching and sign * bound[table] > sign * best:
                break
            w = weights[table]
            key = at_floor, tuple(map(bool, w))
            if key not in self.passes:
                self.passes[key] = prefixes.up([every, *(at_floor if wn else every for wn in w)], lacks)
            good = self.passes[key]
            if good[-1]:
                s, order = bound[table], functools.partial(prefixes.positions, [*good], lacks)
            else:
                steps.charge(k1 << k1, f"a {2 ** k1}-subset DP")
                value = _order_value(phi1, w, k1, pick)
                s, order = value[-1], functools.partial(self._tight_order, w, value)
            if not reaching or sign * s < sign * best:
                best, reaching = s, []
            if s == best:
                reaching.append(order)
        return best, reaching

    def _tight_order(self, weights: list[int], value: list[int]) -> Iterator[int]:
        """The first of p1's orders whose steps are all tight in the DP
        ``value`` (``_order_value`` with min under ``weights``)."""
        prefixes = self.prefixes
        k1 = prefixes.k
        self.steps.charge(k1 << k1, f"the tight steps of a {2 ** k1}-subset DP")
        edges = _tight_edges(prefixes.phi, weights, value, prefixes.lacks)
        return prefixes.positions(prefixes.up([prefixes.every] * (k1 + 1), edges), edges)

    def top(self, limit: int) -> list[PermutationPair]:
        """The best-first walk's ``limit`` least pairs, for a ``limit`` of at
        least 1: ``top_pairs``' pairs for a limit above 1.  Each class of
        p1's orders is placed along the chain the walk found it on
        (``_Prefixes.order``), once, when it is first needed: below the cut,
        or when ``_least`` draws it from the tied, so one tied class's pass up
        is held at a time."""
        prefixes, second, tables = self.prefixes, self.second, self.tables
        walked = list(tables.values())
        found = _lowest(prefixes, list(map(s_weights, tables)), limit)
        cut = found[-1][0]
        pairs, tied = [], {}
        for s, values, j, chain in found:
            if s < cut:
                pairs.append(PermutationPair(prefixes.placed(values, chain), second.placed(walked[j]), s))
            else:
                tied.setdefault(values, (chain, []))[1].append(j)
        pairs.sort(key=lambda p: (p.s_value, p.pi1, p.pi2))
        kept = _least(((prefixes.order(values, chain), (second.placed(walked[j]) for j in js))
                       for values, (chain, js) in tied.items()), limit - len(pairs))
        return [*pairs, *(PermutationPair(pi1, pi2, cut) for pi1, pi2 in kept)]


def _check_limit(limit: int) -> None:
    if limit < 0:
        raise ParameterError(f"top_pairs limit must be >= 0, got {limit}")


def exhaustive_best(p1: PdaArray, p2: PdaArray, profile: AssociationProfile,
                    budget: int = 10 ** 7) -> SearchResult:
    """Exact min and max of S over all column-permutation pairs.

    Ties go to the lexicographically smallest (pi1, pi2).  A walk over p2's
    column subsets gives its distinct phi-at-group-width tables
    (``_Prefixes.classes``).  S with a table is at least sum_n w_n least_n,
    least_n being the least phi over p1's width-n subsets, and reaches it
    exactly when a chain of p1's prefixes passes least-phi subsets at the
    widths of positive weight.  The tables are visited in order of that bound until it passes the least S
    reached; one pass up p1's subset lattice tests each for such a chain, and
    a subset DP over p1's column orders runs only for a table with none.
    s_max is found the same way from the largest phi per width.  pi1 is the
    first order on such a chain (or whose steps are all tight in the DP) of
    some table reaching s_min, and pi2 the first representative of the
    tables reaching s_min with pi1, each placed only until its prefix passes
    the least so far (``_least``).  ``budget`` bounds the steps, counted in
    ``evaluations``: K * 2^K per phi table, the subsets the walks expand, and
    K1 * 2^K1 per DP run and again for the tight steps of each such table
    reaching s_min, whichever path answers; a 20-column p1, whose phi table
    alone is 20 * 2^20 steps, needs more than the default.
    """
    return _Search(p1, p2, profile, budget).extremes()


def top_pairs(p1: PdaArray, p2: PdaArray, profile: AssociationProfile,
              limit: int = 10, budget: int = 10 ** 7) -> list[PermutationPair]:
    """The ``limit`` smallest-S permutation pairs (class representatives),
    ordered by (S, pi1, pi2); the first is ``exhaustive_best(...).best``,
    which is the whole answer for ``limit=1``.  For a larger limit a walk over
    p2's column subsets gives its distinct phi tables (``_Prefixes.classes``),
    and a best-first walk over p1's (``_lowest``) gives the pairs up to the
    ``limit``-th S, ties included.  Representatives are built for the pairs
    below that S, and of the pairs tied at it only the lexicographically
    least that fill the slots left are finished (``_least``); p1's are
    placed from the pass up that the walk's own chain of sets gives
    (``_Prefixes.order``), built when the class is placed, so only their
    passes down are walked again.  ``budget`` bounds the steps: K * 2^K per
    phi table and the subsets the walks expand.  So the cost grows with the
    classes tied at the cut: under a profile of equal parts every class
    ties, and ``limit=2`` walks them all."""
    search = _Search(p1, p2, profile, budget)
    _check_limit(limit)
    if limit == 1:
        return [search.extremes().best]
    return search.top(limit) if limit else []


def _least(candidates: Iterable[tuple[Iterator[int], Iterable]], need: int) -> list[tuple]:
    """The ``need`` least (order, tag) pairs, each candidate giving an order's
    positions column by column and the tags it pairs with.  Once ``need``
    pairs are kept, an order stops being placed as soon as its prefix passes
    the order of the last one kept, and its tags are read only if it does
    not."""
    kept: list[tuple] = []
    for positions, tags in candidates:
        order = []
        if len(kept) == need:
            bound = kept[-1][0]
            for p, b in zip(positions, bound):
                order.append(p)
                if p != b:
                    break
            if order and order[-1] > bound[len(order) - 1]:
                continue
        order = (*order, *positions)
        for tag in tags:
            bisect.insort(kept, (order, tag))
        del kept[need:]
    return kept


def _lowest(prefixes: _Prefixes, weights: list[list[int]], limit: int) -> list[tuple]:
    """(S, p1's phi vector, index j into ``weights``, the vector's chain) for
    every pair of a class of p1's column orders and a weight vector whose S
    is at most the ``limit``-th smallest, S being sum_n weights[j][n-1] *
    phi(n).

    A best-first (A*) walk up p1's phi-prefix tree: a node is a prefix
    (v_1..v_n) and the chain of sets its ancestors grew, ``(parent's chain,
    grown)``, which its siblings share.  The width-n subsets reaching the
    node are the last grown set cut by the cell of v_n; it is expanded, by
    growing that set one column and splitting the grown set by phi at width
    n + 1, once for all weight vectors, and no node keeps a set of its own.
    A full-width node's chain gives its pass up (``_Prefixes.reached``).  A
    pair (j, node) is keyed by f = g + h, g = sum_{n' <= n} w_n' v_n' and
    h = sum_{n' > n} w_n' max(v_n, m_n'), m_n' the least phi over subsets of
    width n'.  phi never falls along a chain and w >= 0, so h never
    overestimates the rest of any S below the node and f never falls from a
    node to its child: nodes leave the heap in order of f, and a
    full-width node, where f is its S, leaves before any entry with a
    larger f.  The walk stops once the next f passes the S of the
    ``limit``-th full-width node, so every tie at that S is found."""
    k, cells = prefixes.k, prefixes.cells
    least = [min(cell) for cell in cells]

    def rest(j: int, n: int, v: int) -> int:
        return sum(map(mul, weights[j][n:], map(max, itertools.repeat(v), least[n:])))

    # a node: [values, its parent's chain, its children (None until expanded)]
    root = [(), None, None]
    order = itertools.count()
    heap = [(rest(j, 0, 0), next(order), 0, j, root) for j in range(len(weights))]
    heapq.heapify(heap)
    found: list[tuple] = []
    while heap and (len(found) < limit or heap[0][0] <= found[limit - 1][0]):
        _, _, g, j, node = heapq.heappop(heap)
        values, chain, children = node
        n = len(values)
        if n == k:
            found.append((g, values, j, chain))
            continue
        if children is None:
            grown = prefixes.grow(chain[1] & cells[n - 1][values[-1]] if n else 1, prefixes.lacks)
            chain = (chain, grown)
            children = node[2] = [[(*values, v), chain, None]
                                  for v, cell in cells[n].items() if grown & cell]
        wn = weights[j][n]
        for child in children:
            v = child[0][-1]
            heapq.heappush(heap, (g + wn * v + rest(j, n + 1, v), next(order), g + wn * v, j, child))
    return found


def _identity_is_minimal(pda: PdaArray, widths, steps: _Steps) -> bool:
    """True iff for every width w the first w columns have the fewest codes of
    any w columns, i.e. no column order has a smaller phi(w)."""
    phi = _subset_phi(pda, steps)
    # the identity prefix's phi at each checked width, no floor elsewhere
    floor = [-math.inf] * (pda.k + 1)
    for w in widths:
        floor[w] = phi[(1 << w) - 1]
    return all(map(ge, phi, map(floor.__getitem__, map(int.bit_count, range(1 << pda.k)))))


def check_E1(p1: PdaArray, budget: int = 10 ** 7) -> bool:
    """True iff p1's phi vector is componentwise minimal over all column orders.
    ``budget`` bounds the K1 * 2^K1 steps of the subset table."""
    return _identity_is_minimal(p1, range(1, p1.k + 1), _Steps(budget))


def check_E2(p2: PdaArray, profile: AssociationProfile, budget: int = 10 ** 7) -> bool:
    """True iff p2's phi values at the group widths (L_Lambda, ..., L_1) are
    componentwise minimal over all column orders.  ``budget`` bounds the
    K2 * 2^K2 steps of the subset table."""
    steps = _Steps(budget)
    check_pair(None, p2, profile)
    return _identity_is_minimal(p2, profile.parts, steps)


def heuristic_reorder(pda: PdaArray, profile: AssociationProfile | None = None,
                      side: str = "first") -> PdaArray:
    """Greedy column reordering: repeatedly append the column introducing the
    fewest new codes (ties to the lowest original index).

    For side "second" the order only matters through the prefix lengths in the
    profile, so the result is kept only if its phi values at those lengths are
    componentwise no worse than the input's; side "first" applies the same
    guard on the full phi vector.  Falling back to the input order keeps the
    no-worsening guarantee for any partner array.
    """
    if side not in ("first", "second"):
        raise ParameterError(f"side must be 'first' or 'second', got {side!r}")
    if side == "second":
        if profile is None:
            raise ParameterError("side 'second' needs the association profile")
        check_pair(None, pda, profile)

    candidate, new = _greedy_order(pda)
    base = phi(pda)
    widths = range(pda.k + 1) if side == "first" else profile.parts
    return permute_columns(pda, candidate) if all(new[w] <= base[w] for w in widths) else pda


def _greedy_order(pda: PdaArray) -> tuple[tuple[int, ...], list[int]]:
    """The greedy column order as a permutation, and phi(0..K) under it: per
    0-based column the bitmask of its codes (``arrays._column_codes``), then
    repeatedly the column with the fewest codes not yet seen, ties to the
    lowest index; the codes seen after w columns are phi(w)."""
    cols = _column_codes(pda)
    remaining = list(range(pda.k))
    seen = 0
    perm = [0] * pda.k
    counts = [0]
    for pos in range(pda.k):
        chosen = min(remaining, key=lambda c: ((cols[c] & ~seen).bit_count(), c))
        perm[chosen] = pos
        seen |= cols[chosen]
        counts.append(seen.bit_count())
        remaining.remove(chosen)
    return tuple(perm), counts
