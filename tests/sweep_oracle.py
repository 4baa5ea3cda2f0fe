"""The sweep on checked grids: the reference for ``sppda.analysis.sweep``,
which reads MaN's tables from its definition (``man_tables``) instead of
building the arrays.  Here every first and second array is built by
``man_pda`` or ``construction_a_pda`` and so checked by ``PdaArray``, and a
point under the cap takes F, S and the private memory from ``block_tables``
of the pair, not from the closed forms, after checking D2."""

from fractions import Fraction

from sppda.analysis import SchemePoint, UnrealizableMemoryError
from sppda.arrays import construction_a_pda, man_pda
from sppda.construct import (
    block_tables,
    check_helper_stars,
    s_closed_form_construction_a,
    s_closed_form_man,
)


def first_array(scheme, profile, mh):
    """The checked first array of ``scheme`` at helper memory ratio ``mh``:
    MaN(Lambda, Lambda mh) or ConstructionA(q, Lambda/q - 1) with mh = 1/q.
    Raises ``UnrealizableMemoryError`` when the family has no such member."""
    lam = profile.num_groups
    if scheme == "man_pair":
        t1 = mh * lam
        if t1.denominator != 1 or not 1 <= t1 < lam:
            raise UnrealizableMemoryError(f"no MaN({lam}, t1) with t1/Lambda = {mh}")
        return man_pda(lam, int(t1))
    q = mh.denominator
    if mh.numerator != 1 or q < 2 or lam % q or lam // q < 2:
        raise UnrealizableMemoryError(f"no ConstructionA(q, m) with q(m+1) = {lam}, 1/q = {mh}")
    return construction_a_pda(q, lam // q - 1)


def closed_form_s(scheme, p1, profile, t2):
    """The closed-form S of the pairing of ``p1`` with MaN(L_1, t2)."""
    if scheme == "man_pair":
        return s_closed_form_man(p1.k, p1.z * p1.k // p1.f, profile, t2)
    q = p1.f // p1.z
    return s_closed_form_construction_a(q, p1.k // q - 1, profile, t2)


def sweep(config):
    """The points of ``analysis.sweep(config)``, from checked arrays."""
    profile = config.profile
    points = []
    for scheme in config.schemes:
        p1 = first_array(scheme, profile, config.mh_ratio)
        for t2 in config.t2_values:
            p2 = man_pda(profile.part(1), t2)
            f = p1.f * p2.f
            mp = Fraction((p1.f - p1.z) * p2.z, f)  # (Z - Z^(h)) / F
            if f <= config.verify_cap:
                tables = block_tables(p1, p2, profile)
                check_helper_stars(tables.group_stars, tables.zh)
                assert (tables.f, tables.zh, tables.z - tables.zh) == (f, p1.z * p2.f, mp * f)
                points.append(SchemePoint(scheme, t2, mp, Fraction(tables.s, f), f, tables.s, True))
            else:
                s = closed_form_s(scheme, p1, profile, t2)
                points.append(SchemePoint(scheme, t2, mp, Fraction(s, f), f, s, False))
    points.sort(key=lambda p: (p.scheme, p.t2))
    return points
