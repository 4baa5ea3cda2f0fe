"""The factorial column-order enumerator, kept as the slow oracle for
``sppda.permsearch``.  Every column order of each array is enumerated; orders
sharing a xi-count vector (first array) or a phi-at-group-width table (second
array) collapse to their lexicographically first representative."""

import itertools
import math

from sppda.arrays import STAR
from sppda.permsearch import PermutationPair, SearchResult, _prefix_masks


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
