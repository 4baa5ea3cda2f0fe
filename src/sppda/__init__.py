"""Coded caching with shared and private caches via placement delivery arrays."""

from .arrays import (
    STAR,
    AssociationProfile,
    PdaArray,
    construction_a_pda,
    man_pda,
    permute_columns,
    verify_pda,
    xi,
)
from .construct import (
    SpPdaArray,
    construct_sppda,
    s_closed_form_construction_a,
    s_closed_form_man,
    s_count,
    verify_sppda,
)
from .permsearch import check_E1, check_E2, exhaustive_best, heuristic_reorder
from .sim import FileLibrary, dedicated_run, sp_deliver, sp_place, sp_run

__all__ = [
    "STAR", "AssociationProfile", "PdaArray", "SpPdaArray",
    "check_E1", "check_E2", "construct_sppda", "construction_a_pda",
    "dedicated_run", "exhaustive_best", "FileLibrary", "heuristic_reorder",
    "man_pda", "permute_columns", "s_closed_form_construction_a",
    "s_closed_form_man", "s_count", "sp_deliver", "sp_place", "sp_run",
    "verify_pda", "verify_sppda", "xi",
]
