#!/usr/bin/env python3
"""Time the C1-C3 check and the CLI pipeline on the F=8400 grid of
MaN(8,4) x MaN(10,3) under the profile 10,4,2,2,2,2,1,1 and print the
median and quartiles, in seconds, of: ``accept_s``, ``PdaArray(grid)``;
``reject_s``, ``verify_pda(one_swap(grid))``, whose ``PdaArray`` raises
``InvalidPdaError``; ``read_s``, ``textio.read_array`` of the array's
``sppda`` text, the loader ``verify`` and ``simulate`` each run;
``code_cells_s``, a fresh array's first ``code_cells``
read, and ``code_cells_MiB``, the memory that read keeps (tracemalloc, one
run); ``pipeline_s``, ``construct``, ``verify`` and ``simulate`` of that
array through ``sppda.cli.main`` in a temporary directory; ``man_tables_s``,
``arrays.man_tables`` of the 34 MaN arrays that the sweeps below read, the
first array MaN(Lambda, Lambda M_h/N) of each sweep and MaN(L_1, t2) at every
t2 (no sweep builds their grids); ``sweep_s``, ``analysis.sweep`` of the
uniform 3^8 and the skewed profile at M_h/N = 1/2 and 1/4, every t2;
``exhaustive_s`` and ``top_pairs_s``, ``permsearch.exhaustive_best`` and
``permsearch.top_pairs`` of MaN(16,2) and MaN(3,1) under the profile
3,3,3,2,2,2,2,1,1,1,1,1,1,1,1,1, the two halves of the README's
``sppda search`` example, so that the subset DP's share shows.  It also
prints ``gc_collections``, the collections of each generation during one
pipeline, counted with ``gc.callbacks``.  It reports only and sets no time
limit.

    PYTHONPATH=src python3 scripts/check_timing.py --repeat 21
"""

import argparse
import contextlib
import gc
import io
import json
import statistics
import tempfile
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

from sppda import analysis, cli, permsearch, textio
from sppda.arrays import STAR, AssociationProfile, PdaArray, man_pda, man_tables, verify_pda
from sppda.construct import construct_sppda

PROFILE = "10,4,2,2,2,2,1,1"
SEARCH_PROFILE = "3,3,3,2,2,2,2,1,1,1,1,1,1,1,1,1"


def profile_of(text):
    """The profile whose parts ``text`` lists, separated by commas."""
    return AssociationProfile(tuple(map(int, text.split(","))))


SWEEP_CONFIGS = [analysis.SweepConfig(profile, mh, tuple(range(profile.part(1) + 1)))
                 for profile in map(profile_of, ("3,3,3,3,3,3,3,3", PROFILE))
                 for mh in (Fraction(1, 2), Fraction(1, 4))]


def skewed_array():
    return construct_sppda(man_pda(8, 4), man_pda(10, 3), profile_of(PROFILE))


def skewed_grid():
    return skewed_array().pda.grid


def one_swap(grid):
    """``grid`` with the first two codes of its first row holding two codes
    swapped: C1 and C2 still hold, C3b does not."""
    rows = [list(row) for row in grid]
    j = next(j for j, row in enumerate(rows) if sum(e != STAR for e in row) >= 2)
    c1, c2 = [c for c, e in enumerate(rows[j]) if e != STAR][:2]
    rows[j][c1], rows[j][c2] = rows[j][c2], rows[j][c1]
    return tuple(map(tuple, rows))


def pipeline(directory):
    """``construct``, ``verify`` and ``simulate`` of the array through the
    command line, in ``directory``; each command must exit 0."""
    path = str(Path(directory) / "skewed.sppda")
    for argv in (["construct", "man:8,4", "man:10,3", "--profile", PROFILE, "-o", path],
                 ["verify", path],
                 ["simulate", path, "--synthetic", "24,16384,7", "--worst-case"]):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code:
            raise SystemExit(f"{argv[0]} exited {code}")


def tables(configs):
    """The MaN tables the sweeps of ``configs`` read: per config, those of the
    first array MaN(Lambda, Lambda M_h/N) and of MaN(L_1, t2) at every t2."""
    for config in configs:
        lam = config.profile.num_groups
        man_tables(lam, int(lam * config.mh_ratio))
        for t2 in config.t2_values:
            man_tables(config.profile.part(1), t2)


def sweeps(configs):
    for config in configs:
        analysis.sweep(config)


def search_arrays():
    """The first and second array of the README's ``sppda search`` example."""
    return man_pda(16, 2), man_pda(3, 1)


def exhaustive(arrays):
    permsearch.exhaustive_best(*arrays, profile_of(SEARCH_PROFILE))


def pairs(arrays):
    permsearch.top_pairs(*arrays, profile_of(SEARCH_PROFILE))


def gc_collections(directory):
    """Per generation, the collections the collector ran during one pipeline."""
    counts = [0, 0, 0]

    def count(phase, info):
        if phase == "start":
            counts[info["generation"]] += 1

    gc.callbacks.append(count)
    try:
        pipeline(directory)
    finally:
        gc.callbacks.remove(count)
    return dict(enumerate(counts))


def code_cells_mib(pda):
    """MiB that ``pda``'s first ``code_cells`` read keeps, by tracemalloc."""
    tracemalloc.start()
    try:
        pda.code_cells
        return round(tracemalloc.get_traced_memory()[0] / 2 ** 20, 3)
    finally:
        tracemalloc.stop()


def sample(step, repeat, setup):
    """Median and quartiles of the seconds of ``step(setup())``, ``setup`` untimed."""
    times = []
    for _ in range(repeat):
        arg = setup()
        start = time.perf_counter()
        step(arg)
        times.append(time.perf_counter() - start)
    # quantiles needs two values, so a single run is counted twice
    q1, median, q3 = statistics.quantiles(times * 2 if repeat == 1 else times, n=4, method="inclusive")
    return {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6)}


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=11, help="runs of each step (default 11)")
    repeat = parser.parse_args().repeat
    array = skewed_array()
    grid, text = array.pda.grid, textio.write_sppda(array)
    # first: tuples that later runs free are reused from free lists, untraced
    cells_mib = code_cells_mib(PdaArray(grid))
    broken = one_swap(grid)
    assert verify_pda(broken), "the one-swap grid was accepted"
    with tempfile.TemporaryDirectory() as tmp:
        print(json.dumps({"repeat": repeat, "accept_s": sample(PdaArray, repeat, lambda: grid),
                          "reject_s": sample(verify_pda, repeat, lambda: broken),
                          "read_s": sample(textio.read_array, repeat, lambda: text),
                          "code_cells_s": sample(lambda pda: pda.code_cells, repeat,
                                                 lambda: PdaArray(grid)),
                          "code_cells_MiB": cells_mib,
                          "pipeline_s": sample(pipeline, repeat, lambda: tmp),
                          "man_tables_s": sample(tables, repeat, lambda: SWEEP_CONFIGS),
                          "sweep_s": sample(sweeps, repeat, lambda: SWEEP_CONFIGS),
                          "exhaustive_s": sample(exhaustive, repeat, search_arrays),
                          "top_pairs_s": sample(pairs, repeat, search_arrays),
                          "gc_collections": gc_collections(tmp)}))
