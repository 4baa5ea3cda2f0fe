"""Closed-form rate and subpacketization comparison of the two family
pairings (MaN x MaN versus Construction-A x MaN), plus the sweep that
regenerates the figure data behind the uniform and skewed profiles.

Each closed form is one expression over two families' ``ClosedForm``
records (K, F, Z, phi): with MaN(L_1, t2) second, F = F1 F2, Z^(h) = Z1 F2
and S = sum_n phi1(n) (a_n - a_{n+1}), a_n = phi2(L_n), a_{Lambda+1} = 0,
where phi(w) = C(k, t+1) - C(k-w, t+1) for MaN(k, t) and
q^{m-1}(q-1) min(w, q) for ConstructionA(q, m).  The sweep takes each
scheme's phi1 once and, per t2, a_n once for both schemes.  It
cross-checks each point under its cap against the construction's tables
(``construct.block_tables``: F, S, Z^(h) and each group's all-star rows),
which read no closed form: MaN arrays are their ``man_tables``, with no
grid, and only Construction A's small first arrays are built.  The first
array's share is built once per scheme, the second array's once per t2.

All rates are exact rationals; floats appear only in rendered output.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction

from .arrays import (
    AssociationProfile,
    ParameterError,
    construction_a_closed_form,
    construction_a_pda,
    man_closed_form,
    man_tables,
)
from .construct import (
    BlockTables,
    InsufficientStarRowsError,
    _FirstShare,
    check_helper_stars,
    check_users,
    s_closed_form_construction_a,
    s_closed_form_man,
    s_weights,
    _second_share,
)


class MemoryMismatchError(ParameterError):
    pass


class UnrealizableMemoryError(ParameterError):
    pass


def rate_man_pair(num_helpers: int, t1: int, profile: AssociationProfile, t2: int) -> Fraction:
    """Exact rate of the MaN(Lambda, t1) x MaN(L_1, t2) scheme."""
    if not 1 <= t1 <= num_helpers - 1:
        raise ParameterError(f"t1={t1} not in [1, {num_helpers - 1}]")
    return Fraction(s_closed_form_man(num_helpers, t1, profile, t2),
                    man_pair_subpacketization(num_helpers, t1, profile.part(1), t2))


def rate_construction_a(q: int, m: int, profile: AssociationProfile, t2: int) -> Fraction:
    """Exact rate of the ConstructionA(q, m) x MaN(L_1, t2) scheme."""
    return Fraction(s_closed_form_construction_a(q, m, profile, t2),
                    construction_a_subpacketization(q, m, profile.part(1), t2))


def man_pair_subpacketization(num_helpers: int, t1: int, l1: int, t2: int) -> int:
    return man_closed_form(num_helpers, t1).f * man_closed_form(l1, t2).f


def construction_a_subpacketization(q: int, m: int, l1: int, t2: int) -> int:
    return construction_a_closed_form(q, m).f * man_closed_form(l1, t2).f


@dataclass(frozen=True)
class ComparisonReport:
    q: int
    m: int
    t1: int  # = m + 1, fixed by matching the helper memory
    t2: int
    profile: AssociationProfile
    f_ratio_exact: Fraction  # C(Lambda, t1) / q^m
    rate_man: Fraction
    rate_a: Fraction
    rate_ratio: Fraction | None  # rate_man / rate_a; None when rate_a == 0
    uniform: bool


def compare(q: int, m: int, t2: int, profile: AssociationProfile) -> ComparisonReport:
    """Compare the two pairings at matched helper memory (t1 = m + 1)."""
    num_helpers = profile.num_groups
    if num_helpers != q * (m + 1):
        raise MemoryMismatchError(
            f"profile has {num_helpers} groups but q(m+1)={q * (m + 1)}")
    t1 = m + 1
    rate_man = rate_man_pair(num_helpers, t1, profile, t2)
    rate_a = rate_construction_a(q, m, profile, t2)
    ratio = rate_man / rate_a if rate_a else None
    uniform = len(set(profile.parts)) == 1
    return ComparisonReport(q, m, t1, t2, profile,
                            Fraction(man_closed_form(num_helpers, t1).f,
                                     construction_a_closed_form(q, m).f),
                            rate_man, rate_a, ratio, uniform)


@dataclass(frozen=True)
class SchemePoint:
    scheme: str  # "man_pair" | "construction_a_pair"
    t2: int
    mp_ratio: Fraction
    rate: Fraction
    subpacketization: int
    s: int
    verified: bool


@dataclass(frozen=True)
class SweepConfig:
    profile: AssociationProfile
    mh_ratio: Fraction
    t2_values: tuple[int, ...]
    schemes: tuple[str, ...] = ("man_pair", "construction_a_pair")
    verify_cap: int = 10 ** 5


def _man_parameters(config: SweepConfig) -> tuple[int, int]:
    lam = config.profile.num_groups
    t1 = config.mh_ratio * lam
    if t1.denominator != 1 or not 1 <= t1 <= lam - 1:
        raise UnrealizableMemoryError(
            f"mh_ratio {config.mh_ratio} needs t1 = Lambda*mh in [1, {lam - 1}], got {t1}")
    return lam, int(t1)


def _construction_a_parameters(config: SweepConfig) -> tuple[int, int]:
    lam = config.profile.num_groups
    if config.mh_ratio.numerator != 1:
        raise UnrealizableMemoryError(f"mh_ratio {config.mh_ratio} is not 1/q")
    q = config.mh_ratio.denominator
    if q < 2 or lam % q != 0 or lam // q < 2:
        raise UnrealizableMemoryError(f"Lambda={lam} is not q(m+1) for q={q}")
    return q, lam // q - 1


# Per scheme: the first array's parameters for a config, its closed form, and its family
# for the tables (MaN's as tables).  As t1/Lambda = 1/q = M_h/N, M_p/N = (1 - M_h/N) t2/L_1.
_PAIRINGS = {
    "man_pair": (_man_parameters, man_closed_form, man_tables),
    "construction_a_pair": (_construction_a_parameters, construction_a_closed_form,
                            construction_a_pda),
}


def _cross_check(tables: BlockTables, f: int, s: int, zh: int) -> bool:
    """Check the closed forms against the construction's tables: exact F,
    distinct-code count and Z^(h), and D2 star availability in every helper
    group."""
    if tables.f != f or tables.s != s or tables.zh != zh:
        return False
    try:
        check_helper_stars(tables.group_stars, zh)
    except InsufficientStarRowsError:
        return False
    return True


def sweep(config: SweepConfig) -> list[SchemePoint]:
    """One point per (scheme, t2); rows with F under the cap are cross-checked
    against the construction's tables.  An empty ``t2_values`` (a reversed
    t2 range) or a negative ``verify_cap``, which would sweep or verify
    nothing, raises ``ParameterError``, as does a profile with no users
    (``check_users``), whose empty largest group also leaves t2/L_1, and so
    M_p/N, undefined."""
    if not config.t2_values:
        raise ParameterError("t2_values is empty (a --t2 range lo:hi needs lo <= hi)")
    if config.verify_cap < 0:
        raise ParameterError(f"verify_cap is {config.verify_cap} (--verify-cap must be >= 0)")
    profile = config.profile
    l1 = check_users(profile)
    schemes = []
    for scheme in config.schemes:
        if scheme not in _PAIRINGS:
            raise ParameterError(f"unknown scheme {scheme!r}")
        if config.schemes.count(scheme) > 1:
            raise ParameterError(f"scheme {scheme!r} repeated")
        parameters, closed_form, family = _PAIRINGS[scheme]
        first = parameters(config)
        form = closed_form(*first)
        schemes.append((scheme, form, tuple(map(form.phi, range(1, form.k + 1))), family, first))
    firsts: dict[str, _FirstShare] = {}  # per scheme, its first array's share once one is needed
    points = []
    private = 1 - config.mh_ratio
    for t2 in config.t2_values:
        mp = private * Fraction(t2, l1)
        second = man_closed_form(l1, t2)
        weights = s_weights(list(map(second.phi, profile.parts)))
        tables2 = None  # MaN(L_1, t2)'s share of the tables, built once and shared by the schemes
        for scheme, form, phi1, family, first in schemes:
            f = form.f * second.f
            s = sum(map(operator.mul, phi1, weights))
            verified = False
            if f <= config.verify_cap:
                if scheme not in firsts:
                    firsts[scheme] = _FirstShare(family(*first), profile)
                if tables2 is None:
                    tables2 = _second_share(man_tables(l1, t2), profile)
                tables = firsts[scheme].tables(tables2)
                if not _cross_check(tables, f, s, form.z * second.f):
                    raise ParameterError(
                        f"closed form disagrees with construction at {scheme} t2={t2}")
                verified = True
            points.append(SchemePoint(scheme, t2, mp, Fraction(s, f), f, s, verified))
    points.sort(key=lambda p: (p.scheme, p.t2))
    return points


def sweep_csv(points) -> str:
    lines = ["scheme,t2,mp_ratio,rate,subpacketization,s,verified"]
    for p in points:
        lines.append(f"{p.scheme},{p.t2},{float(p.mp_ratio):.10g},{float(p.rate):.10g},"
                     f"{p.subpacketization},{p.s},{int(p.verified)}")
    return "\n".join(lines) + "\n"
