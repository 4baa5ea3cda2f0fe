"""A/B benchmark of two git revisions, run in alternating pairs.

    python3 scripts/bench_ab.py OLD NEW [--workload W ...] [--pairs 10] [--seconds S]

Each revision is exported with ``git archive`` into a temporary directory,
and each tree runs its own ``bench/run.py --trace 0``.  Pair i runs every
workload once on each side with seed ``--seed + i``; the side that runs
first is swapped every pair, so both meet the same states of a shared host.
Every run starts with no ``__pycache__`` in its tree and with
``PYTHONDONTWRITEBYTECODE=1``, as ``setup_s`` and ``peak_rss_MiB`` depend on
whether cached bytecode exists.

For each workload and each end-to-end metric of NEW's ``BENCHMARK.json`` it
prints both sides' median and quartiles and the pairs NEW won, and whether
the claim rule holds: NEW wins at least 9 of 10 pairs (``CLAIM_SHARE``), and
its median is better than OLD's by more than OLD's interquartile range.  It
then lists every metric whose median got worse than OLD's by more than its
``bound``, read as a share of OLD's median, and every workload where NEW
failed a larger share of its operations.  Times are the scaled seconds that
``run.py`` reports.  Stdlib only.  Exits 1 if a run fails to complete, and 0
otherwise, whatever the verdicts.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CLAIM_SHARE = 0.9  # the share of pairs NEW must win for a claimed gain
RUN_TIMEOUT_S = 600


def export(revision: str, tree: Path) -> Path:
    """Write ``git archive revision`` of this repository into ``tree``."""
    data = subprocess.run(["git", "-C", str(ROOT), "archive", revision],
                          check=True, capture_output=True).stdout
    tree.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(tree, filter="data")
        else:
            tar.extractall(tree)
    return tree


def run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last line of one ``bench/run.py --trace 0`` run in ``tree``, parsed."""
    for cache in list(tree.rglob("__pycache__")):
        shutil.rmtree(cache)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    cmd = [sys.executable, str(tree / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S + 20 * seconds)
    if done.returncode != 0 or not done.stdout.strip():
        raise RuntimeError(f"{tree.name} {workload} seed {seed}: exit {done.returncode}: "
                           f"{done.stderr.strip()}")
    return json.loads(done.stdout.splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile); one value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def aggregate(pairs: dict[str, list[tuple[dict, dict]]], spec: dict) -> list[dict]:
    """One row per workload and end-to-end metric of ``spec`` from the
    ``(OLD, NEW)`` last lines of each pair, in the order given."""
    rows = []
    for workload, runs in pairs.items():
        for metric in spec["end_to_end"]:
            name, lower = metric["name"], metric["better"] == "lower"
            old = [o["metrics"][name]["value"] for o, _ in runs]
            new = [n["metrics"][name]["value"] for _, n in runs]
            wins = sum(n < o if lower else n > o for o, n in zip(old, new))
            (q1, median, q3), new_spread = spread(old), spread(new)
            gain = median - new_spread[1] if lower else new_spread[1] - median
            rows.append({
                "workload": workload, "metric": name, "unit": metric["unit"],
                "old": (q1, median, q3), "new": new_spread, "wins": wins, "pairs": len(runs),
                "claim": wins >= CLAIM_SHARE * len(runs) and gain > q3 - q1,
                "worse": -gain > metric["bound"] * abs(median), "bound": metric["bound"],
            })
    return rows


def fail_shares(pairs: dict[str, list[tuple[dict, dict]]]) -> dict[str, tuple[float, float]]:
    """Per workload, the share of operations that failed on OLD and on NEW."""
    shares = {}
    for workload, runs in pairs.items():
        sides = []
        for side in (0, 1):
            failed = sum(r[side]["failed"] for r in runs)
            attempted = sum(r[side]["attempted"] for r in runs)
            sides.append(failed / attempted if attempted else 1.0)
        shares[workload] = tuple(sides)
    return shares


def _cell(spread3: tuple[float, float, float]) -> str:
    q1, median, q3 = spread3
    return f"{median:.4g} [{q1:.4g}-{q3:.4g}]"


def report(pairs: dict[str, list[tuple[dict, dict]]], spec: dict) -> str:
    """The A/B table, the claim verdicts, and the regressions past a bound."""
    rows = aggregate(pairs, spec)
    lines = ["| workload | metric | OLD median [q1-q3] | NEW median [q1-q3] | NEW won | claim |",
             "|---|---|---|---|---|---|"]
    for r in rows:
        lines.append(f"| {r['workload']} | `{r['metric']}` | {_cell(r['old'])} | {_cell(r['new'])} "
                     f"| {r['wins']}/{r['pairs']} | {'holds' if r['claim'] else 'no'} |")
    worse = [f"{r['workload']} {r['metric']}: median {r['old'][1]:.4g} -> {r['new'][1]:.4g} "
             f"{r['unit']}, past the bound of {r['bound']:.0%}" for r in rows if r["worse"]]
    failing = [f"{w}: failed share {old:.3g} -> {new:.3g}"
               for w, (old, new) in fail_shares(pairs).items() if new > old]
    lines.append("worse beyond the bound: " + ("none" if not worse else ""))
    lines += [f"  {line}" for line in worse]
    lines.append("more operations failing: " + ("none" if not failing else ""))
    lines += [f"  {line}" for line in failing]
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("old", help="the baseline revision, e.g. HEAD~1")
    parser.add_argument("new", help="the revision under test, e.g. HEAD")
    parser.add_argument("--workload", action="append",
                        help="a workload to run (repeatable; default: all of NEW's)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=6.0, help="seconds per run")
    parser.add_argument("--seed", type=int, default=1, help="the seed of the first pair")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be >= 1 and --seconds > 0")

    with tempfile.TemporaryDirectory(prefix="bench-ab-") as tmp:
        trees = (export(args.old, Path(tmp) / "old"), export(args.new, Path(tmp) / "new"))
        spec = json.loads((trees[1] / "BENCHMARK.json").read_text())
        workloads = args.workload or [w["name"] for w in spec["workloads"]]
        pairs: dict[str, list[tuple[dict, dict]]] = {w: [] for w in workloads}
        try:
            for i in range(args.pairs):
                seed = args.seed + i
                for workload in workloads:
                    order = (0, 1) if i % 2 == 0 else (1, 0)
                    got = {side: run(trees[side], workload, seed, args.seconds) for side in order}
                    pairs[workload].append((got[0], got[1]))
                    first = spec["end_to_end"][0]["name"]
                    print(f"pair {i + 1}/{args.pairs} {workload} seed {seed} {first}: "
                          f"OLD {got[0]['metrics'][first]['value']:.4g}, "
                          f"NEW {got[1]['metrics'][first]['value']:.4g}", file=sys.stderr, flush=True)
        except (RuntimeError, subprocess.SubprocessError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    print(f"OLD {args.old}, NEW {args.new}: {args.pairs} pairs of {args.seconds:g} s runs, "
          f"seeds {args.seed}-{args.seed + args.pairs - 1}")
    sys.stdout.write(report(pairs, spec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
