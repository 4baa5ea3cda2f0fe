"""The public surface: ``sppda.__all__`` holds exactly the names that the CLI,
the scripts and the bench harness use, and every function that the bench
tracer looks up by name still exists where it looks."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import sppda

SURFACE = {
    "STAR", "AssociationProfile", "PdaArray", "SpPdaArray",
    "check_E1", "check_E2", "construct_sppda", "construction_a_pda",
    "dedicated_run", "exhaustive_best", "FileLibrary", "heuristic_reorder",
    "man_pda", "permute_columns", "s_closed_form_construction_a",
    "s_closed_form_man", "s_count", "sp_deliver", "sp_place", "sp_run",
    "verify_pda", "verify_sppda", "xi",
}


def test_all_is_the_trimmed_surface():
    assert len(sppda.__all__) == len(SURFACE) == 23
    assert set(sppda.__all__) == SURFACE
    for name in sppda.__all__:
        assert getattr(sppda, name) is not None


def test_traced_functions_resolve():
    # a traced bench run rebinds these by name; loading the module installs nothing
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for module, func_name, *_ in tracing.TARGETS:
        namespace = importlib.import_module(f"sppda.{module}")
        func = getattr(namespace, func_name)
        assert inspect.isfunction(func) and func.__module__ == namespace.__name__


def test_pda_array_takes_only_its_grid():
    # K, F, Z, S and the tables are read off the grid by the one C1-C3 check
    assert list(inspect.signature(sppda.PdaArray).parameters) == ["grid"]
