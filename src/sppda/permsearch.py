"""Search over equivalent PDAs (column permutations) for the pairing that
minimizes the constructed SP-PDA's code count, plus the sufficiency checks
for when the identity ordering is already optimal.

Permutations are tuples mapping old 0-based column index to new 0-based
position, iterated in lexicographic order for deterministic tie-breaking.

Everything exact reads one table per array: ``phi[mask]``, the number of
distinct codes in the columns of ``mask`` (bit c for 0-based column c).  The
count S of a pairing is a sum of prefix phi values of the first array with
non-negative weights set by the second array's phi at the group widths, and
a prefix's phi depends only on its set of columns, so the best column order
is a shortest path over the 2^K column subsets (Held-Karp).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import ge, le, or_

from .arrays import AssociationProfile, ParameterError, PdaArray, permute_columns
from .construct import check_pair


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
    evaluations: int


def _charge(work: int, budget: int, what: str) -> None:
    if work > budget:
        raise BudgetExceededError(f"{what} is {work} steps, over the budget of {budget}")


def _subset_phi(pda: PdaArray) -> list[int]:
    """phi of every column subset, indexed by bitmask: the codes meeting the
    subset are all codes minus those confined to its complement, and one
    sum-over-subsets pass (K * 2^K steps) counts the codes confined to each."""
    size = 1 << pda.k
    confined = [0] * size
    for mask in pda.code_columns():
        confined[mask] += 1
    for c in range(pda.k):
        bit = 1 << c
        confined = [n + confined[m ^ bit] if m & bit else n for m, n in enumerate(confined)]
    return [pda.s - n for n in reversed(confined)]


def _prefix_masks(perm: tuple[int, ...]) -> list[int]:
    """Column bitmasks of the prefixes of widths 0..K under ``perm``."""
    order = [0] * len(perm)
    for c, p in enumerate(perm):
        order[p] = 1 << c
    return [0, *itertools.accumulate(order, or_)]


def _classes(phi: list[int], k: int, widths) -> dict[tuple[int, ...], tuple[int, ...]]:
    """All K! column orders keyed by their prefix phi values at ``widths``;
    the lexicographically first order with each key represents it."""
    classes: dict[tuple[int, ...], tuple[int, ...]] = {}
    for perm in itertools.permutations(range(k)):
        prefix = _prefix_masks(perm)
        classes.setdefault(tuple(phi[prefix[w]] for w in widths), perm)
    return classes


def _weights(table: tuple[int, ...]) -> list[int]:
    """The weights of phi1(1), ..., phi1(K1) in S, where ``table`` holds p2's phi
    at the group widths, a_n = phi2(L_n): by Abel summation they are
    a_n - a_{n+1} >= 0 (a_{K1+1} = 0)."""
    return [a - b for a, b in zip(table, (*table[1:], 0))]


def _pair_value(phi1: tuple[int, ...], table: tuple[int, ...]) -> int:
    """S from p1's prefix phi values (widths 1..K1) and p2's phi table."""
    return sum(v * w for v, w in zip(phi1, _weights(table)))


def _order_value(phi: list[int], weights: list[int], k: int, pick,
                 allowed: list[int] | None = None):
    """``pick`` (min or max) over column orders of sum_n phi(prefix n) * weights[n-1],
    by a DP over the column subsets that form a prefix.  ``allowed[p]`` is the
    bitmask of columns that may take position p; infinite when no order fits."""
    full = (1 << k) - 1
    if allowed is None:
        allowed = [full] * k
    bits = [1 << c for c in range(k)]
    missing = math.inf if pick is min else -math.inf
    value = [0] * (full + 1)
    for mask in range(1, full + 1):
        n = mask.bit_count()
        last = mask & allowed[n - 1]
        prev = [value[mask ^ b] for b in bits if last & b]
        value[mask] = pick(prev) + phi[mask] * weights[n - 1] if prev else missing
    return value[full]


def _pareto(tables, better) -> list[tuple[int, ...]]:
    """The tables that no other table matches or beats componentwise under
    ``better`` (``le`` or ``ge``).  ``tables`` must list a table before those it
    dominates, as sorting does (descending for ``ge``)."""
    kept: list[tuple[int, ...]] = []
    for table in tables:
        if not any(all(map(better, u, table)) for u in kept):
            kept.append(table)
    return kept


def _lex_first_order(phi: list[int], k: int, weight_sets: list[list[int]],
                     target: int) -> tuple[int, ...]:
    """The lexicographically smallest permutation whose S equals ``target``
    for one of ``weight_sets``: each column in turn takes the smallest free
    position with which some order still reaches the target."""
    full = (1 << k) - 1
    placed: dict[int, int] = {}
    for c in range(k):
        for p in sorted(set(range(k)) - set(placed.values())):
            placed[c] = p
            free = full & ~sum(1 << col for col in placed)
            at = {pos: 1 << col for col, pos in placed.items()}
            allowed = [at.get(q, free) for q in range(k)]
            if any(_order_value(phi, w, k, min, allowed) == target for w in weight_sets):
                break
    return tuple(placed[c] for c in range(k))


def exhaustive_best(p1: PdaArray, p2: PdaArray, profile: AssociationProfile,
                    budget: int = 10 ** 7) -> SearchResult:
    """Exact min and max of S over all column-permutation pairs.

    Ties go to the lexicographically smallest (pi1, pi2).  The K2! orders of p2
    only give the distinct phi-at-group-width tables; those that cannot be
    extreme are pruned (S is monotone in the table) and a subset DP over p1's
    column orders runs once per kept table.  ``budget`` bounds K2 * K2! for the
    p2 orders plus K1 * 2^K1 DP transitions per kept table.
    """
    check_pair(p1, p2, profile)
    work = p2.k * math.factorial(p2.k)
    _charge(work, budget, f"enumerating the {p2.k}! column orders of the second PDA")

    tables = _classes(_subset_phi(p2), p2.k, profile.parts)
    lows = _pareto(sorted(tables), le)
    highs = _pareto(sorted(tables, reverse=True), ge)
    work += (len(lows) + len(highs)) * p1.k * (1 << p1.k)
    _charge(work, budget, f"enumerating the {p2.k}! column orders of the second PDA plus "
                          f"a {2 ** p1.k}-subset DP for each of {len(lows) + len(highs)} tables")

    phi1 = _subset_phi(p1)
    low_weights = [_weights(t) for t in lows]
    low_values = [_order_value(phi1, w, p1.k, min) for w in low_weights]
    s_min = min(low_values)
    s_max = max(_order_value(phi1, _weights(t), p1.k, max) for t in highs)

    reaching = [w for w, v in zip(low_weights, low_values) if v == s_min]
    pi1 = _lex_first_order(phi1, p1.k, reaching, s_min)
    prefix1 = tuple(phi1[m] for m in _prefix_masks(pi1)[1:])
    pi2 = min(pi2 for table, pi2 in tables.items() if _pair_value(prefix1, table) == s_min)
    evaluations = math.factorial(p1.k) * math.factorial(p2.k)
    return SearchResult(PermutationPair(pi1, pi2, s_min), s_min, s_max, evaluations)


def top_pairs(p1: PdaArray, p2: PdaArray, profile: AssociationProfile,
              limit: int = 10, budget: int = 10 ** 7) -> list[PermutationPair]:
    """The ``limit`` smallest-S permutation pairs (class representatives),
    ordered by (S, pi1, pi2).  Enumerates every order of both arrays, so
    ``budget`` bounds K1! * K2!."""
    check_pair(p1, p2, profile)
    if limit < 0:
        raise ParameterError(f"top_pairs limit must be >= 0, got {limit}")
    if limit == 0:
        return []
    _charge(math.factorial(p1.k) * math.factorial(p2.k), budget,
            f"enumerating {p1.k}! x {p2.k}! permutation pairs")
    classes1 = _classes(_subset_phi(p1), p1.k, range(1, p1.k + 1))
    tables = _classes(_subset_phi(p2), p2.k, profile.parts)
    pairs = [
        PermutationPair(pi1, pi2, _pair_value(prefix1, table))
        for prefix1, pi1 in classes1.items()
        for table, pi2 in tables.items()
    ]
    pairs.sort(key=lambda p: (p.s_value, p.pi1, p.pi2))
    return pairs[:limit]


def _identity_is_minimal(pda: PdaArray, widths, budget: int) -> bool:
    """True iff for every width w the first w columns have the fewest codes of
    any w columns, i.e. no column order has a smaller phi(w)."""
    _charge(pda.k * (1 << pda.k), budget, f"the {2 ** pda.k}-subset phi table")
    phi = _subset_phi(pda)
    least = [math.inf] * (pda.k + 1)
    for mask, value in enumerate(phi):
        n = mask.bit_count()
        least[n] = min(least[n], value)
    return all(phi[(1 << w) - 1] == least[w] for w in widths)


def check_E1(p1: PdaArray, budget: int = 10 ** 7) -> bool:
    """True iff p1's phi vector is componentwise minimal over all column orders.
    ``budget`` bounds the K1 * 2^K1 steps of the subset table."""
    return _identity_is_minimal(p1, range(1, p1.k + 1), budget)


def check_E2(p2: PdaArray, profile: AssociationProfile, budget: int = 10 ** 7) -> bool:
    """True iff p2's phi values at the group widths (L_Lambda, ..., L_1) are
    componentwise minimal over all column orders.  ``budget`` bounds the
    K2 * 2^K2 steps of the subset table."""
    check_pair(None, p2, profile)
    return _identity_is_minimal(p2, profile.parts, budget)


def phi_vector(pda: PdaArray, perm: tuple[int, ...] | None = None) -> tuple[int, ...]:
    """(phi(1), ..., phi(K)) of the array under an optional column permutation."""
    if perm is None:
        perm = tuple(range(pda.k))
    masks = pda.code_columns()
    return tuple(sum(1 for m in masks if m & prefix) for prefix in _prefix_masks(perm)[1:])


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

    col_codes = [pda.column_codes(c + 1) for c in range(pda.k)]
    remaining = list(range(pda.k))
    seen: set[int] = set()
    order: list[int] = []
    while remaining:
        chosen = min(remaining, key=lambda c: (len(col_codes[c] - seen), c))
        order.append(chosen)
        seen |= col_codes[chosen]
        remaining.remove(chosen)
    perm = [0] * pda.k
    for pos, old in enumerate(order):
        perm[old] = pos
    candidate = tuple(perm)

    base = phi_vector(pda)
    new = phi_vector(pda, candidate)
    if side == "first":
        improved = all(n <= b for n, b in zip(new, base))
    else:
        widths = [w for w in profile.parts if w > 0]
        improved = all(new[w - 1] <= base[w - 1] for w in widths)
    if not improved:
        return pda
    return permute_columns(pda, candidate)
