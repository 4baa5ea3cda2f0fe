#!/usr/bin/env python3
"""Regenerate the rate / subpacketization sweep data for the two reference
network configurations (K=24 users, 8 helpers, half-library helper memory):
a uniform association profile (3 users per helper) and a skewed one
(10,4,2,2,2,2,1,1).  Writes one CSV per configuration.
"""

import argparse
from fractions import Fraction
from pathlib import Path

from sppda.analysis import SweepConfig, sweep, sweep_csv
from sppda.arrays import AssociationProfile

CONFIGS = {
    "uniform": AssociationProfile((3,) * 8),
    "skewed": AssociationProfile((10, 4, 2, 2, 2, 2, 1, 1)),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-o", "--output-dir", default="figure_data",
                        help="directory for the CSV files (default: figure_data)")
    parser.add_argument("--mh-ratio", default="1/2",
                        help="helper memory fraction M_h/N (default: 1/2)")
    args = parser.parse_args(argv)

    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    mh = Fraction(args.mh_ratio)
    for name, profile in CONFIGS.items():
        t2_values = tuple(range(0, profile.part(1) + 1))
        points = sweep(SweepConfig(profile, mh, t2_values))
        path = out_dir / f"{name}.csv"
        path.write_text(sweep_csv(points))
        print(f"wrote {path} ({len(points)} points, profile {profile.parts})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
