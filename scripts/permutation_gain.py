#!/usr/bin/env python3
"""Measure how much the code count S of a constructed shared-cache array can
vary over column reorderings of its two ingredient arrays.

For each random (p1, p2, profile) instance the script reports the identity
pairing's S, the exact min and max over all column-permutation pairs, and
what the greedy reordering achieves.
"""

import argparse
import random

from sppda.arrays import AssociationProfile, canonicalize_codes, construction_a_pda, man_pda, PdaArray
from sppda.construct import s_count
from sppda.permsearch import exhaustive_best, heuristic_reorder


def random_pda(rng: random.Random, max_cols: int) -> PdaArray:
    if rng.random() < 0.5:
        k0 = rng.randint(2, 6)
        base = man_pda(k0, rng.randint(1, k0 - 1))
    else:
        base = construction_a_pda(rng.randint(2, 3), rng.randint(1, 2))
    cols = sorted(rng.sample(range(base.k), rng.randint(2, min(base.k, max_cols))))
    sub = canonicalize_codes([tuple(row[c] for c in cols) for row in base.grid])
    return PdaArray.from_grid(sub)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instances", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-cols", type=int, default=5)
    args = parser.parse_args(argv)

    rng = random.Random(args.seed)
    print("lambda,l1,profile,s_identity,s_greedy,s_min,s_max")
    for _ in range(args.instances):
        p1 = random_pda(rng, args.max_cols)
        p2 = random_pda(rng, args.max_cols)
        rest = sorted((rng.randint(1, p2.k) for _ in range(p1.k - 1)), reverse=True)
        profile = AssociationProfile((p2.k, *rest))
        identity = s_count(p1, p2, profile)
        greedy = s_count(heuristic_reorder(p1, side="first"),
                         heuristic_reorder(p2, profile, side="second"), profile)
        result = exhaustive_best(p1, p2, profile)
        parts = " ".join(str(x) for x in profile.parts)
        print(f"{p1.k},{p2.k},{parts},{identity},{greedy},{result.s_min},{result.s_max}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
