"""The factorial column-order enumerator, kept as the slow oracle for
``sppda.permsearch``.  Every column order of each array is enumerated; orders
sharing a xi-count vector (first array) or a phi-at-group-width table (second
array) collapse to their lexicographically first representative.  For first
arrays too wide to enumerate, the best first order is rebuilt one position at
a time with a constrained subset DP per tried position.  The greedy
reorder's column order is rebuilt from each column's frozenset of codes.
``top_pairs_scoring_all`` is ``top_pairs`` as it was before its best-first
walk: every class of the first array's orders, scored against every table.
``chain_first_order`` is ``_Lattice.positions`` as it was before its passes
ran inline, charging the same steps.  ``order_value`` is the subset DP as it
was before it walked each subset's own columns, ``tight_edges`` its tight
steps tested one subset at a time, and ``least_is_identity`` the E1/E2 check
as it was before it became one comparison per subset.  ``lacking`` is the
subsets lacking a column, by the big-int division the lattice masks used."""

import itertools
import math
from operator import itemgetter, mul

import grid_oracle
from sppda.arrays import STAR
from sppda.construct import s_weights
from sppda.permsearch import PermutationPair, SearchResult, _Prefixes, _prefix_masks, _Steps, _subset_phi


def code_columns(pda):
    """For each code 1..S, the 0-based columns in which it appears."""
    cols = [set() for _ in range(pda.s)]
    for row in pda.grid:
        for c, e in enumerate(row):
            if e != STAR:
                cols[e - 1].add(c)
    return [frozenset(s) for s in cols]


def xi_counts(code_cols, perm, k):
    """How many codes have their first (smallest-position) column at each position."""
    counts = [0] * k
    for cols in code_cols:
        counts[min(perm[c] for c in cols)] += 1
    return tuple(counts)


def phi_vector(pda, perm):
    return tuple(itertools.accumulate(xi_counts(code_columns(pda), perm, pda.k)))


def prefix_classes(phi, k, widths):
    """All K! column orders keyed by their prefix phi values at ``widths``
    (``phi`` indexed by column bitmask); the lexicographically first order
    with each key represents it."""
    classes = {}
    for perm in itertools.permutations(range(k)):
        prefix = _prefix_masks(perm)
        classes.setdefault(tuple(phi[prefix[w]] for w in widths), perm)
    return classes


def _classes(p1, p2, profile):
    cols1 = code_columns(p1)
    count_classes = {}
    for pi1 in itertools.permutations(range(p1.k)):
        count_classes.setdefault(xi_counts(cols1, pi1, p1.k), pi1)
    cols2 = code_columns(p2)
    phi_tables = {}
    for pi2 in itertools.permutations(range(p2.k)):
        prefix = tuple(itertools.accumulate(xi_counts(cols2, pi2, p2.k)))
        table = tuple(prefix[w - 1] if w > 0 else 0 for w in profile.parts)
        phi_tables.setdefault(table, pi2)
    return count_classes, phi_tables


def all_pairs(p1, p2, profile):
    """Every (class of pi1) x (class of pi2) pair, sorted by (S, pi1, pi2)."""
    count_classes, phi_tables = _classes(p1, p2, profile)
    pairs = [
        PermutationPair(pi1, pi2, sum(c * t for c, t in zip(counts, table)))
        for counts, pi1 in count_classes.items()
        for table, pi2 in phi_tables.items()
    ]
    pairs.sort(key=lambda p: (p.s_value, p.pi1, p.pi2))
    return pairs


def exhaustive_best(p1, p2, profile):
    pairs = all_pairs(p1, p2, profile)
    evaluations = math.factorial(p1.k) * math.factorial(p2.k)
    return SearchResult(pairs[0], pairs[0].s_value, pairs[-1].s_value, evaluations)


def _identity_is_minimal(pda, widths):
    base = phi_vector(pda, tuple(range(pda.k)))
    base_at = [base[w - 1] if w > 0 else 0 for w in widths]
    for perm in itertools.permutations(range(pda.k)):
        other = phi_vector(pda, perm)
        if any(b > (other[w - 1] if w > 0 else 0) for b, w in zip(base_at, widths)):
            return False
    return True


def check_E1(p1):
    return _identity_is_minimal(p1, range(1, p1.k + 1))


def check_E2(p2, profile):
    return _identity_is_minimal(p2, profile.parts)


def subset_phi(pda):
    """phi of every column subset, indexed by bitmask, counted code by code."""
    cols = code_columns(pda)
    return [sum(1 for c in cols if any(mask >> col & 1 for col in c)) for mask in range(1 << pda.k)]


def lacking(c, k, lane):
    """The subsets of k columns lacking column c, one ``lane``-bit lane per
    subset, all set: 2^c lanes set then 2^c clear, repeated, placed by one
    big-int division, as ``_Lattice`` built its masks before they were derived
    one from the next by shifts."""
    every = (1 << (lane << k)) - 1
    run = lane << c
    return every // ((1 << 2 * run) - 1) * ((1 << run) - 1)


def first_order(k, allowed, edges):
    """The lexicographically first column->position permutation whose prefix of
    each width n is in the set ``allowed[n]`` and that grows by each column c
    only from a prefix in the set ``edges[c]`` (sets as bitmaps over column
    bitmasks), found by trying all K! permutations in order; None if none does."""
    for perm in itertools.permutations(range(k)):
        prefix = [sum(1 << c for c in range(k) if perm[c] < n) for n in range(k + 1)]
        if (all(allowed[n] >> prefix[n] & 1 for n in range(k + 1))
                and all(edges[c] >> prefix[perm[c]] & 1 for c in range(k))):
            return perm
    return None


def chain_first_order(k, allowed, edges, steps):
    """``_Lattice.positions`` as it was before its placements ran inline: the
    same order, charging ``steps`` the same subsets.  Sets of subsets are ints
    with bit m for subset m; ``edges[c]`` holds subsets lacking column c."""
    what = f"walking the {2 ** k}-subset lattice"
    every = (1 << (1 << k)) - 1
    shifts = [1 << c for c in range(k)]
    has = [every // ((1 << (2 << c)) - 1) * (((1 << (1 << c)) - 1) << (1 << c)) for c in range(k)]

    def grow(sets):
        steps.charge(sets.bit_count(), what)
        out = 0
        for shift, grows in zip(shifts, edges):
            out |= (sets & grows) << shift
        return out

    def shrink(sets):
        steps.charge(sets.bit_count(), what)
        out = 0
        for shift, grows in zip(shifts, edges):
            out |= (sets >> shift) & grows
        return out

    good = [allowed[0] & 1]
    for n in range(1, k + 1):
        good.append(grow(good[-1]) & allowed[n])
    for n in range(k - 1, -1, -1):
        good[n] &= shrink(good[n + 1])
    for c, shift in enumerate(shifts):
        if sum(map(int.bit_count, good)) == k + 1:
            break
        p = next(n for n in range(k) if (good[n] & edges[c]) << shift & good[n + 1])
        before = good
        good = [*good[:p + 1], *(sets & has[c] for sets in good[p + 1:])]
        for n in range(p + 2, k + 1):
            if good[n - 1] == before[n - 1]:
                break
            good[n] &= grow(good[n - 1])
        for n in range(p, -1, -1):
            if good[n + 1] == before[n + 1]:
                break
            good[n] &= shrink(good[n + 1])
    masks = [sets.bit_length() - 1 for sets in good]
    order = [0] * k
    for n, (below, above) in enumerate(itertools.pairwise(masks)):
        order[(above ^ below).bit_length() - 1] = n
    return tuple(order)


def order_value(phi, weights, k, pick):
    """Per column subset m, ``pick`` (min or max) over the orders of m's columns
    of sum_n phi(prefix n) * weights[n-1]: every subset one column smaller is
    listed and ``pick`` takes the extreme of their values."""
    bits = [1 << c for c in range(k)]
    value = [0] * (1 << k)
    for mask in range(1, 1 << k):
        value[mask] = (pick([value[mask ^ b] for b in bits if mask & b])
                       + phi[mask] * weights[mask.bit_count() - 1])
    return value


def tight_edges(phi, weights, value, k):
    """Per column c, the bitmap of the subsets m lacking c whose step to m|c is
    tight under ``value`` (``order_value`` with min), tested subset by subset."""
    edges = []
    for c in range(k):
        bit = 1 << c
        edges.append(sum(1 << m for m in range(1 << k) if not m & bit
                         and value[m] + phi[m | bit] * weights[(m | bit).bit_count() - 1]
                         == value[m | bit]))
    return edges


def least_is_identity(phi, k, widths):
    """Whether at each width w in ``widths`` the first w columns have the least
    phi of any w columns (``phi`` indexed by column bitmask)."""
    least = [math.inf] * (k + 1)
    for mask, value in enumerate(phi):
        n = mask.bit_count()
        least[n] = min(least[n], value)
    return all(phi[(1 << w) - 1] == least[w] for w in widths)


def weights(table):
    """S = sum_n (phi1(n) - phi1(n-1)) * a_n = sum_n phi1(n) * (a_n - a_{n+1})."""
    return [a - b for a, b in zip(table, (*table[1:], 0))]


def _constrained_min(phi, weights, k, allowed):
    """min over the column orders placing a column of ``allowed[p]`` (a bitmask)
    at each position p of sum_n phi(prefix n) * weights[n-1]; inf when none."""
    value = [0] + [math.inf] * ((1 << k) - 1)
    for mask in range(1, 1 << k):
        n = mask.bit_count()
        last = mask & allowed[n - 1]
        prev = [value[mask ^ (1 << c)] for c in range(k) if last >> c & 1]
        value[mask] = min(prev, default=math.inf) + phi[mask] * weights[n - 1]
    return value[-1]


def best_first_order(phi, k, weight_sets):
    """The lexicographically first column->position permutation with the least
    S over ``weight_sets``: each column in turn takes the smallest free
    position with which some order still reaches that least S."""
    full = (1 << k) - 1
    values = [(w, _constrained_min(phi, w, k, [full] * k)) for w in weight_sets]
    target = min(v for _, v in values)
    reaching = [w for w, v in values if v == target]
    placed = {}
    for c in range(k):
        for p in sorted(set(range(k)) - set(placed.values())):
            placed[c] = p
            free = full & ~sum(1 << col for col in placed)
            at = {pos: 1 << col for col, pos in placed.items()}
            allowed = [at.get(q, free) for q in range(k)]
            if any(_constrained_min(phi, w, k, allowed) == target for w in reaching):
                break
    return tuple(placed[c] for c in range(k))


def greedy_order(pda):
    """The greedy column order as a permutation (old column -> position):
    repeatedly append the column introducing the fewest codes not yet seen,
    ties to the lowest original index."""
    col_codes = [grid_oracle.column_codes(pda, c + 1) for c in range(pda.k)]
    remaining = list(range(pda.k))
    seen = set()
    order = []
    while remaining:
        chosen = min(remaining, key=lambda c: (len(col_codes[c] - seen), c))
        order.append(chosen)
        seen |= col_codes[chosen]
        remaining.remove(chosen)
    perm = [0] * pda.k
    for pos, old in enumerate(order):
        perm[old] = pos
    return tuple(perm)


def top_pairs_scoring_all(p1, p2, profile, limit, budget=10 ** 9):
    """The ``limit`` smallest-S pairs and the steps taken, from walks over both
    arrays' column subsets that give the distinct phi vectors of p1 and phi
    tables of p2, with every pair of them scored (one step each) and
    representatives rebuilt for the pairs up to the ``limit``-th S."""
    steps = _Steps(budget)
    prefixes1 = _Prefixes(_subset_phi(p1, steps), p1.k, range(1, p1.k + 1), steps)
    classes1 = prefixes1.classes(range(1, p1.k + 1))
    second = _Prefixes(_subset_phi(p2, steps), p2.k, profile.parts, steps)
    tables = second.classes(profile.parts)
    steps.charge(len(classes1) * len(tables), f"scoring {len(classes1)} x {len(tables)} class pairs")
    weighted = [(table, s_weights(table)) for table in tables]
    scored = sorted(((sum(map(mul, prefix1, weights)), prefix1, table)
                     for prefix1 in classes1 for table, weights in weighted), key=itemgetter(0))
    cut = scored[min(limit, len(scored)) - 1][0]
    pairs = [PermutationPair(prefixes1.placed(classes1[prefix1]), second.placed(tables[table]), s)
             for s, prefix1, table in scored if s <= cut]
    pairs.sort(key=lambda p: (p.s_value, p.pi1, p.pi2))
    return pairs[:limit], steps.count
