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
orders phi(w) is C(k, t+1) - C(k-w, t+1) for MaN(k, t) and
q^{m-1}(q-1) min(w, q) for ConstructionA(q, m)).  The weights of the first
array's prefix phi values are non-negative, and a prefix's phi depends only
on its set of columns, so the best column order is a shortest path over the
2^K column subsets (Held-Karp).  The distinct prefix values that an array's
orders can take come from a walk up the same subset lattice (``_Classes``),
so no search enumerates the K! orders.  ``top_pairs`` walks the first
array's prefix values best first (A*, ``_lowest``), under a bound that
never overestimates since phi never falls along a chain and the weights are
non-negative, so it walks only the classes that can make its cut.  One chain walk
(``_Lattice.positions``) turns constraints on subsets and steps into the
lexicographically first order, one column's position at a time, for a class
representative and for the best order along the DP's tight steps.  When more
classes tie at ``top_pairs``' cut than there are slots left, only the
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
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from operator import eq, ge, gt, le, lt, mul, or_, sub

from .arrays import (AssociationProfile, ParameterError, PdaArray, _column_codes, check_bijection,
                     permute_columns, phi)
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
    for c, lacks in enumerate(_lacking(k, 64)):
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
    """Per column c of k, the subsets that lack c, one ``lane``-bit lane per
    subset (lane m at bit lane * m up), all set: 2^c lanes set then 2^c
    clear, repeated, read from one repeated byte pattern."""
    size = lane << k
    for c in range(k):
        run = lane << c
        if run >= 8:
            yield int.from_bytes((b"\xff" * (run >> 3) + bytes(run >> 3)) * (1 << k - c - 1), "little")
        else:  # shorter runs alternate within each byte, 0x55, 0x33 or 0x0f, cut to the lanes
            yield int.from_bytes(bytes([0xFF // ((1 << run) + 1)]) * (size + 7 >> 3), "little") & (1 << size) - 1


_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _bitmap(members: Iterable[int], size: int) -> int:
    """The int with bit m set for each m in ``members`` (all below ``size``):
    one 0/1 flag byte per bit, reversed and read as binary digits."""
    flags = bytearray(size)
    for m in members:
        flags[m] = 1
    flags.reverse()
    return int(flags.translate(_DIGITS), 2)


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
        self.lacks = list(_lacking(k, 1))
        self.has = [self.every ^ lacks for lacks in self.lacks]

    def grow(self, sets: int, edges: list[int]) -> int:
        """The subsets one column larger than some subset in ``sets`` along ``edges``."""
        self.steps.charge(sets.bit_count(), self.what)
        out = 0
        for shift, grows in zip(self.shifts, edges):
            out |= (sets & grows) << shift
        return out

    def positions(self, allowed: list[int], edges: list[int]) -> Iterator[int]:
        """The lexicographically first column->position permutation whose chain of
        prefixes keeps to ``allowed`` and ``edges``, yielded column by column as
        each position is fixed: each column in turn takes the smallest position
        at which it enters such a chain that places the earlier columns where
        they were put.  The constraints are all on single subsets and steps, so
        a step between two subsets on such chains lies on one.

        ``good[n]`` is the set of width-n subsets on such chains: a pass up
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
        the other moves leaving the good subsets.  Once the good subsets form
        a single chain, that chain gives the remaining positions.

        Each grow or shrink charges ``steps`` one step per subset it expands."""
        k, what, charge = self.k, self.what, self.steps.charge
        moves = list(zip(self.shifts, edges))
        good = [allowed[0] & 1]
        for n in range(1, k + 1):
            sets = good[-1]
            charge(sets.bit_count(), what)
            out = 0
            for shift, grows in moves:
                out |= (sets & grows) << shift
            good.append(out & allowed[n])
        # the number of good subsets at each width, kept to spot a single chain
        counts = [1] * (k + 1)
        for n in range(k - 1, -1, -1):
            sets = good[n + 1]
            counts[n + 1] = width = sets.bit_count()
            charge(width, what)
            out = 0
            for shift, grows in moves:
                out |= (sets >> shift) & grows
            good[n] &= out
        free = dict(enumerate(moves))  # the columns not placed yet
        at: list[tuple[int, int] | None] = [None] * k  # the move placed at each position
        for c in range(k):
            if sum(counts) == k + 1:
                masks = [sets.bit_length() - 1 for sets in good]
                order = [0] * k
                for n, (below, above) in enumerate(itertools.pairwise(masks)):
                    order[(above ^ below).bit_length() - 1] = n
                yield from order[c:]
                return
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
                counts[n - 1] = width = sets.bit_count()
                charge(width, what)
                out = 0
                for shift, grows in ((at[n - 1],) if at[n - 1] else free.values()):
                    out |= (sets & grows) << shift
                out &= good[n]
                changed, good[n] = out != good[n], out
                n += 1
            n, changed = p, True
            while changed and n >= 0:
                sets = good[n + 1]
                counts[n + 1] = width = sets.bit_count()
                charge(width, what)
                out = 0
                for shift, grows in ((at[n],) if at[n] else free.values()):
                    out |= (sets >> shift) & grows
                out &= good[n]
                changed, good[n] = out != good[n], out
                n -= 1


class _Prefixes(_Lattice):
    """An array's column orders keyed by their prefix phi values at ``widths``,
    ``phi`` being its subset phi table.  ``placed`` yields the
    lexicographically first column->position permutation with given walked
    values column by column (``positions``, with the values' cells as the
    allowed subsets), and ``representative`` keeps it whole."""

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

    def placed(self, values: tuple[int, ...]) -> Iterator[int]:
        """The first order with walked ``values``, column by column: read back
        once ``representative`` has kept it, else placed by ``positions``."""
        if values in self.first:
            return iter(self.first[values])
        allowed = [self.every] * (self.k + 1)
        for n, cell, v in zip(self.widths, self.cells, values):
            allowed[n] = cell[v]
        return self.positions(allowed, self.lacks)

    def representative(self, values: tuple[int, ...]) -> tuple[int, ...]:
        if values not in self.first:
            self.first[values] = tuple(self.placed(values))
        return self.first[values]


class _Classes(_Prefixes, Mapping):
    """The distinct keys ``tuple(phi[prefix[w]] for w in widths)`` over all column
    orders, ``prefix[w]`` being the set of the first w columns, each mapped to its
    representative, rebuilt on first lookup.

    The keys come from a walk up the subset lattice: a state is the values so
    far and the set of subsets reaching them; each width grows every subset by
    one column, and a width in ``widths`` splits the grown set by phi."""

    def __init__(self, phi: list[int], k: int, widths, steps: _Steps):
        super().__init__(phi, k, widths, steps)
        widths, slot = tuple(widths), self.slot
        states = {(): 1}
        for n in range(self.widths[-1] + 1):
            if n:
                states = {values: self.grow(sets, self.lacks) for values, sets in states.items()}
            if n in slot:
                states = {(*values, v): split for values, sets in states.items()
                          for v, cell in self.cells[slot[n]].items() if (split := sets & cell)}
        self.values = {tuple(values[slot[w]] for w in widths): values for values in states}

    def __getitem__(self, key: tuple[int, ...]) -> tuple[int, ...]:
        return self.representative(self.values[key])

    def __iter__(self):
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)


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
        # for m lacking c; read as binary digits as ``_bitmap`` reads its flags
        flags = bytearray(map(eq, value, before[1 << c:]))
        flags.reverse()
        edges.append(int(flags.translate(_DIGITS), 2) & lack)
    return edges


def _pareto(tables, better) -> list[tuple[int, ...]]:
    """The tables that no other table matches or beats componentwise under
    ``better`` (``le`` or ``ge``).  ``tables`` must list a table before those it
    dominates, as sorting does (descending for ``ge``)."""
    kept: list[tuple[int, ...]] = []
    for table in tables:
        if not any(all(map(better, u, table)) for u in kept):
            kept.append(table)
    return kept


class _Search:
    """One pair's search under one budget.  p1's column orders over its phi
    table (``prefixes``) and p2's classes at the group widths (``tables``)
    are each built, and charged to ``steps``, on first use, so ``extremes``
    and ``top`` on one search share them."""

    def __init__(self, p1: PdaArray, p2: PdaArray, profile: AssociationProfile, budget: int):
        self.steps = _Steps(budget)
        check_pair(p1, p2, profile)
        self.p1, self.p2, self.profile = p1, p2, profile

    @functools.cached_property
    def prefixes(self) -> _Prefixes:
        return _Prefixes(_subset_phi(self.p1, self.steps), self.p1.k, range(1, self.p1.k + 1), self.steps)

    @functools.cached_property
    def tables(self) -> _Classes:
        return _Classes(_subset_phi(self.p2, self.steps), self.p2.k, self.profile.parts, self.steps)

    def extremes(self) -> SearchResult:
        """``exhaustive_best``'s result."""
        steps, tables = self.steps, self.tables
        lows = _pareto(sorted(tables), le)
        highs = _pareto(sorted(tables, reverse=True), ge)
        prefixes = self.prefixes
        phi1, k1 = prefixes.phi, prefixes.k
        steps.charge((len(lows) + len(highs)) * k1 * (1 << k1),
                     f"a {2 ** k1}-subset DP for each of {len(lows) + len(highs)} tables")

        low_weights = [s_weights(t) for t in lows]
        low_values = [_order_value(phi1, w, k1, min) for w in low_weights]
        s_min = min(v[-1] for v in low_values)
        s_max = max(_order_value(phi1, s_weights(t), k1, max)[-1] for t in highs)

        reaching = [(w, v) for w, v in zip(low_weights, low_values) if v[-1] == s_min]
        steps.charge(len(reaching) * k1 * (1 << k1),
                     f"the tight steps of {len(reaching)} tables reaching s_min")
        allowed = [prefixes.every] * (k1 + 1)
        pi1 = _least(((prefixes.positions(allowed, _tight_edges(phi1, w, v, prefixes.lacks)), (None,))
                      for w, v in reaching), 1)[0][0]
        prefix1 = tuple(phi1[m] for m in _prefix_masks(pi1)[1:])
        pi2 = _least(((tables.placed(values), (None,)) for table, values in tables.values.items()
                      if sum(map(mul, prefix1, s_weights(table))) == s_min), 1)[0][0]
        return SearchResult(PermutationPair(pi1, pi2, s_min), s_min, s_max, steps.count)

    def top(self, limit: int) -> list[PermutationPair]:
        """``top_pairs``' pairs for a ``limit`` of at least 1."""
        prefixes, tables = self.prefixes, self.tables
        keys = list(tables)
        found = _lowest(prefixes, [s_weights(key) for key in keys], limit)
        cut = found[-1][0]
        pairs, tied = [], {}
        for s, values, j in found:
            if s < cut:
                pairs.append(PermutationPair(prefixes.representative(values), tables[keys[j]], s))
            else:
                tied.setdefault(values, []).append(j)
        pairs.sort(key=lambda p: (p.s_value, p.pi1, p.pi2))
        kept = _least(((prefixes.placed(values), (tables[keys[j]] for j in js))
                       for values, js in tied.items()), limit - len(pairs))
        return [*pairs, *(PermutationPair(pi1, pi2, cut) for pi1, pi2 in kept)]


def _check_limit(limit: int) -> None:
    if limit < 0:
        raise ParameterError(f"top_pairs limit must be >= 0, got {limit}")


def exhaustive_best(p1: PdaArray, p2: PdaArray, profile: AssociationProfile,
                    budget: int = 10 ** 7) -> SearchResult:
    """Exact min and max of S over all column-permutation pairs.

    Ties go to the lexicographically smallest (pi1, pi2).  A walk over p2's
    column subsets gives its distinct phi-at-group-width tables; those that
    cannot be extreme are pruned (S is monotone in the table) and a subset DP
    over p1's column orders runs once per kept table.  pi1 is the first order
    whose steps are all tight in the DP of some table reaching s_min, and pi2
    the first representative of the tables reaching s_min with pi1, each
    placed only until its prefix passes the least so far (``_least``).
    ``budget`` bounds the steps, counted in ``evaluations``: K * 2^K per phi
    table, the subsets the walks expand, and K1 * 2^K1 DP transitions per
    kept table and again per table reaching s_min.
    """
    return _Search(p1, p2, profile, budget).extremes()


def top_pairs(p1: PdaArray, p2: PdaArray, profile: AssociationProfile,
              limit: int = 10, budget: int = 10 ** 7) -> list[PermutationPair]:
    """The ``limit`` smallest-S permutation pairs (class representatives),
    ordered by (S, pi1, pi2); the first is ``exhaustive_best(...).best``.  A
    walk over p2's column subsets gives its distinct phi tables, and a
    best-first walk over p1's (``_lowest``) gives the pairs up to the
    ``limit``-th S, ties included.  Representatives are rebuilt for the pairs
    below that S, and of the pairs tied at it only the lexicographically
    least that fill the slots left are finished (``_least``).  ``budget``
    bounds the steps: K * 2^K per phi table and the subsets the walks
    expand.  So the cost grows with the classes tied at the cut: under a
    profile of equal parts every class ties, and even ``limit=1`` walks
    them all (``exhaustive_best`` gives that pair at a cost that ties do
    not change)."""
    search = _Search(p1, p2, profile, budget)
    _check_limit(limit)
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
    """(S, p1's phi vector, index j into ``weights``) for every pair of a
    class of p1's column orders and a weight vector whose S is at most the
    ``limit``-th smallest, S being sum_n weights[j][n-1] * phi(n).

    A best-first (A*) walk up p1's phi-prefix tree: a node is a prefix
    (v_1..v_n) with the set of width-n subsets reaching it, and it is
    expanded, by growing its set one column and splitting it by phi at width
    n + 1, once for all weight vectors; then its set is dropped.  A pair
    (j, node) is keyed by f = g + h, g = sum_{n' <= n} w_n' v_n' and
    h = sum_{n' > n} w_n' max(v_n, m_n'), m_n' the least phi over subsets of
    width n'.  phi never falls along a chain and w >= 0, so h never
    overestimates the rest of any S below the node and f never falls from a
    node to its child: nodes leave the heap in order of f, and a
    full-width node, where f is its S, leaves before any entry with a
    larger f.  The walk stops once the next f passes the S of the
    ``limit``-th full-width node, so every tie at that S is found."""
    k = prefixes.k
    least = [min(cell) for cell in prefixes.cells]
    # the least phi per width never falls as the width grows, so max(v, m_n')
    # is v up to the first width whose least passes v and m_n' from there: h
    # is v times a suffix sum of w plus a suffix sum of w_n' m_n'
    tails = [(_suffix_sums(w), _suffix_sums(list(map(mul, w, least)))) for w in weights]

    def rest(j: int, n: int, v: int) -> int:
        total, floors = tails[j]
        i = bisect.bisect_right(least, v, n)
        return v * (total[n] - total[i]) + floors[i]

    # a node: [values, the subsets reaching them (None once expanded), its children]
    root = [(), 1, None]
    order = itertools.count()
    heap = [(rest(j, 0, 0), next(order), 0, j, root) for j in range(len(weights))]
    heapq.heapify(heap)
    found: list[tuple] = []
    while heap and (len(found) < limit or heap[0][0] <= found[limit - 1][0]):
        _, _, g, j, node = heapq.heappop(heap)
        values, sets, children = node
        n = len(values)
        if n == k:
            found.append((g, values, j))
            continue
        if children is None:
            grown = prefixes.grow(sets, prefixes.lacks)
            last = n + 1 == k
            children = node[2] = [[(*values, v), None if last else split, None]
                                  for v, cell in prefixes.cells[n].items()
                                  if (split := grown & cell)]
            node[1] = None
        wn = weights[j][n]
        for child in children:
            v = child[0][-1]
            heapq.heappush(heap, (g + wn * v + rest(j, n + 1, v), next(order), g + wn * v, j, child))
    return found


def _suffix_sums(values: list[int]) -> list[int]:
    """``sum(values[n:])`` for n = 0..len(values)."""
    return [*itertools.accumulate(reversed(values), initial=0)][::-1]


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


def phi_vector(pda: PdaArray, perm: tuple[int, ...] | None = None) -> tuple[int, ...]:
    """(phi(1), ..., phi(K)) under an optional column permutation (``arrays.phi``)."""
    if perm is not None:
        check_bijection(perm, pda.k)
    return phi(pda, perm)[1:]


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

    candidate = _greedy_order(pda)
    base, new = phi(pda), phi(pda, candidate)
    widths = range(pda.k + 1) if side == "first" else profile.parts
    return permute_columns(pda, candidate) if all(new[w] <= base[w] for w in widths) else pda


def _greedy_order(pda: PdaArray) -> tuple[int, ...]:
    """The greedy column order as a permutation: per 0-based column the
    bitmask of its codes (``arrays._column_codes``), then repeatedly the
    column with the fewest codes not yet seen, ties to the lowest index."""
    cols = _column_codes(pda)
    remaining = list(range(pda.k))
    seen = 0
    perm = [0] * pda.k
    for pos in range(pda.k):
        chosen = min(remaining, key=lambda c: ((cols[c] & ~seen).bit_count(), c))
        perm[chosen] = pos
        seen |= cols[chosen]
        remaining.remove(chosen)
    return tuple(perm)
