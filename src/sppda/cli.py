"""Command-line front end.

Subcommands: construct, verify, simulate, search, sweep, formulas.
PDA inputs are either files in the text format or family specs
``man:K,t`` / ``consa:q,m``.

``main`` runs its one command with the collector's generation-0 threshold
raised to ``GC_THRESHOLD``: a command builds many long-lived containers (the
grid's rows, the code->cells table, the transmissions) and frees them only
at exit, so frequent young collections find almost nothing to free.  The
previous thresholds come back when the command returns or raises, so library
callers of ``sim``, ``construct`` and the rest run at their own settings.
"""

from __future__ import annotations

import argparse
import gc
import sys
from fractions import Fraction
from pathlib import Path

from . import analysis, permsearch, sim, textio
from .arrays import (
    MAX_VIOLATIONS,
    AssociationProfile,
    InvalidPdaError,
    ParameterError,
    PdaArray,
    PdaError,
    construction_a_pda,
    man_pda,
)
from .construct import (
    SpPdaArray,
    construct_sppda,
    s_closed_form_construction_a,
    s_closed_form_man,
    s_count,
)


_FAMILIES = {"man": man_pda, "consa": construction_a_pda}

# generation-0 threshold while a command runs (CPython 3.10-3.12 default to 700)
GC_THRESHOLD = 100_000


def _load_pda(spec: str) -> PdaArray:
    family, colon, params = spec.partition(":")
    if colon and family in _FAMILIES:
        return _FAMILIES[family](*textio.parse_ints(params.split(","), f"{family} parameters", 2))
    return textio.parse_pda(Path(spec).read_text())


def _profile(text: str) -> AssociationProfile:
    """The ``--profile`` parts, separated by commas or spaces."""
    return AssociationProfile(textio.parse_ints(text.replace(",", " ").split(), "--profile"))


def _emit(text: str, output: str | None):
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_construct(args) -> int:
    profile = _profile(args.profile)
    p1 = _load_pda(args.p1)
    p2 = _load_pda(args.p2)
    sp = construct_sppda(p1, p2, profile)
    _emit(textio.sppda_to_json(sp) if args.json else textio.write_sppda(sp), args.output)
    return 0


def cmd_verify(args) -> int:
    try:
        array = textio.read_array(Path(args.file).read_text())
    except (InvalidPdaError, textio.ConditionError) as exc:
        for line in exc.violations:
            print(f"violation {line}")
        if isinstance(exc, InvalidPdaError) and exc.capped:
            print(f"stopped at MAX_VIOLATIONS = {MAX_VIOLATIONS}: more violations not listed")
        return 1
    if isinstance(array, SpPdaArray):
        pda, profile = array.pda, array.profile
        print(f"valid sppda: K={pda.k} Lambda={profile.num_groups} L={profile.parts} "
              f"F={pda.f} Z={pda.z} Zh={array.helper_stars} S={pda.s}")
    else:
        print(f"valid pda: K={array.k} F={array.f} Z={array.z} S={array.s}")
    return 0


def cmd_simulate(args) -> int:
    sp = textio.parse_sppda(Path(args.file).read_text())
    f = sp.pda.f
    if args.synthetic:
        n, size, seed = textio.parse_ints(args.synthetic.split(","), "--synthetic", 3)
        library = sim.FileLibrary.synthetic(n, size, f, seed)
    elif args.library:
        library = sim.FileLibrary.from_dir(args.library, f)
    else:
        raise ParameterError("need --library DIR or --synthetic N,B,seed")
    if args.worst_case:
        if library.n < sp.pda.k:
            raise ParameterError(f"worst case needs N >= K ({library.n} < {sp.pda.k})")
        demands = tuple(range(1, sp.pda.k + 1))
    elif args.demands:
        demands = textio.parse_ints(args.demands.split(","), "--demands")
    else:
        raise ParameterError("need --demands d1,...,dK or --worst-case")
    report = sim.sp_run(sp, library, demands)
    sys.stdout.write(sim.format_report(report))
    sys.stdout.write(sim.report_csv_row(report))
    if args.log:
        Path(args.log).write_text(sim.format_transmission_log(report.transmissions))
    return 0 if report.all_decoded else 1


def cmd_search(args) -> int:
    profile = _profile(args.profile)
    p1 = _load_pda(args.p1)
    p2 = _load_pda(args.p2)
    if args.greedy:
        r1 = permsearch.heuristic_reorder(p1, profile, side="first")
        r2 = permsearch.heuristic_reorder(p2, profile, side="second")
        before = s_count(p1, p2, profile)
        after = s_count(r1, r2, profile)
        print(f"greedy: S {before} -> {after}")
        if args.output:
            Path(args.output).write_text(
                "side,s_before,s_after\n" f"both,{before},{after}\n")
        return 0
    # one search under one budget: the extremes, and the class list on the same
    # tables only past its first pair, which is the extremes' best pair
    search = permsearch._Search(p1, p2, profile, args.budget)
    permsearch._check_limit(args.top)
    result = search.extremes()
    pairs = search.top(args.top) if args.top > 1 else [result.best][:args.top]
    lines = ["pi1,pi2,S"]
    for pair in pairs:
        pi1 = " ".join(str(x + 1) for x in pair.pi1)
        pi2 = " ".join(str(x + 1) for x in pair.pi2)
        lines.append(f"{pi1},{pi2},{pair.s_value}")
    lines.append(f"s_min,,{result.s_min}")
    lines.append(f"s_max,,{result.s_max}")
    csv = "\n".join(lines) + "\n"
    _emit(csv, args.output)
    return 0


def cmd_sweep(args) -> int:
    profile = _profile(args.profile)
    l1 = profile.part(1)
    if args.t2:
        lo, hi = textio.parse_ints(args.t2.split(":"), "--t2", 2)
        t2_values = tuple(range(lo, hi + 1))
    else:
        t2_values = tuple(range(0, l1 + 1))
    schemes = tuple(
        {"man": "man_pair", "consa": "construction_a_pair"}.get(s, s)
        for s in args.schemes.split(","))
    try:
        mh_ratio = Fraction(args.mh_ratio)
    except (ValueError, ZeroDivisionError):
        raise ParameterError(f"bad --mh-ratio {args.mh_ratio!r}: expected a fraction") from None
    config = analysis.SweepConfig(profile, mh_ratio, t2_values, schemes, args.verify_cap)
    points = analysis.sweep(config)
    _emit(analysis.sweep_csv(points), args.output)
    return 0


def cmd_formulas(args) -> int:
    profile = _profile(args.profile)
    if args.family == "man":
        if args.t1 is None:
            raise ParameterError("man formulas need --t1")
        s = s_closed_form_man(profile.num_groups, args.t1, profile, args.t2)
        rate = analysis.rate_man_pair(profile.num_groups, args.t1, profile, args.t2)
    elif args.q is None or args.m is None:
        raise ParameterError("consa formulas need --q and --m")
    else:
        s = s_closed_form_construction_a(args.q, args.m, profile, args.t2)
        rate = analysis.rate_construction_a(args.q, args.m, profile, args.t2)
    print(f"S = {s}")
    print(f"rate = {rate} ({float(rate):.6g})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sppda",
                                     description="Coded caching with shared and private caches")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build an SP-PDA from two PDAs")
    p.add_argument("p1", help="first PDA: file, man:K,t, or consa:q,m")
    p.add_argument("p2", help="second PDA: file, man:K,t, or consa:q,m")
    p.add_argument("--profile", required=True, help="association profile, e.g. 3,2")
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="validate a PDA or SP-PDA file")
    p.add_argument("file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="run the caching scheme bit-exactly")
    p.add_argument("file", help="SP-PDA file")
    p.add_argument("--library", help="directory of equal-role binary files")
    p.add_argument("--synthetic", help="N,B,seed for a generated library")
    p.add_argument("--demands", help="comma-separated 1-based file indices")
    p.add_argument("--worst-case", action="store_true", help="demands = (1, ..., K)")
    p.add_argument("--log", help="write the transmission log here")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("search", help="minimize S over column permutations")
    p.add_argument("p1")
    p.add_argument("p2")
    p.add_argument("--profile", required=True)
    p.add_argument("--greedy", action="store_true")
    p.add_argument("--budget", type=int, default=10 ** 7)
    p.add_argument("--top", type=int, default=10)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("sweep", help="closed-form rate/subpacketization sweep")
    p.add_argument("--profile", required=True)
    p.add_argument("--mh-ratio", required=True, help="helper memory fraction, e.g. 1/2")
    p.add_argument("--t2", help="t2 range lo:hi (default 0:L1)")
    p.add_argument("--schemes", default="man,consa")
    p.add_argument("--verify-cap", type=int, default=10 ** 5)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("formulas", help="evaluate the closed-form code counts")
    p.add_argument("family", choices=["man", "consa"])
    p.add_argument("--profile", required=True)
    p.add_argument("--t1", type=int, help="MaN first-array parameter")
    p.add_argument("--t2", type=int, required=True)
    p.add_argument("--q", type=int)
    p.add_argument("--m", type=int)
    p.set_defaults(func=cmd_formulas)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    thresholds = gc.get_threshold()
    gc.set_threshold(GC_THRESHOLD, *thresholds[1:])
    try:
        return args.func(args)
    except (PdaError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        gc.set_threshold(*thresholds)


if __name__ == "__main__":
    sys.exit(main())
