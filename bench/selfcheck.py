"""Self-check of the benchmark's output checks: one clean iteration of every
workload must pass all checks, and each corruption of its outputs below must
fail at least one, so that ``fail_ratio`` rises above 0.

    python3 bench/selfcheck.py

Exits 0 when every check behaves, 1 otherwise.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs the package path above)


def _flip_byte(data: bytes, index: int) -> bytes:
    return data[:index] + bytes([data[index] ^ 0x01]) + data[index + 1:]


def _skewed(runs):
    (c_rc, c_out), (v_rc, v_out), (s_rc, s_out) = runs
    yield "user 5 reported FAILED", [(c_rc, c_out), (v_rc, v_out),
                                     (s_rc, s_out.replace("user 5: ok", "user 5: FAILED"))]
    yield "verify exit code 1", [(c_rc, c_out), (1, v_out), (s_rc, s_out)]
    yield "verify reports S off by one", [(c_rc, c_out), (v_rc, v_out.replace("S=11115", "S=11116")),
                                          (s_rc, s_out)]


def _bulk(reports):
    sp, dedicated = reports
    sent = sp.transmissions
    flipped = (replace(sent[0], payload=_flip_byte(sent[0].payload, 7)),) + sent[1:]
    yield "one flipped byte in a broadcast payload", (replace(sp, transmissions=flipped), dedicated)
    yield "one user's verdict flipped", (sp, replace(dedicated, decoded=(False,) + dedicated.decoded[1:]))
    yield "one transmission dropped", (sp, replace(dedicated, transmissions=dedicated.transmissions[:-1]))


def _search(outcomes):
    yield "s_min off by one", [dict(outcomes[0], s_min=outcomes[0]["s_min"] + 1), outcomes[1]]
    yield "greedy below s_min", [outcomes[0], dict(outcomes[1], greedy=outcomes[1]["s_min"] - 1)]


def _sweep(out):
    sweeps, comparison = out
    points, csv = sweeps[0]
    wrong_rate = [replace(points[0], rate=points[0].rate + Fraction(1, 7))] + points[1:]
    yield "one rate off the closed form", ([(wrong_rate, csv)] + sweeps[1:], comparison)
    yield "one CSV byte changed", ([(points, csv.replace("man_pair", "man_paiR", 1))] + sweeps[1:],
                                   comparison)
    yield "one point left unverified", (
        [([replace(points[0], verified=False)] + points[1:], csv)] + sweeps[1:], comparison)


CORRUPTIONS = {
    "sim-skewed-large": _skewed,
    "sim-uniform-bulk": _bulk,
    "search-exact": _search,
    "sweep-reference": _sweep,
}


def main() -> int:
    ok = True
    scratch = ROOT / ".bench_out"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selfcheck-", dir=scratch))
    try:
        for name, cls in workloads.WORKLOADS.items():
            workload = cls(workdir, 1)
            if name == "sim-uniform-bulk":
                # decode every user with the reference so any flipped byte shows
                workload.SAMPLED_USERS = workloads.NUM_USERS
            try:
                out = workload.iterate()
                failed = [n for n, passed in workload.check(out) if not passed]
                print(f"{name}: clean outputs, {len(failed)} failed checks")
                ok &= not failed
                for label, corrupt in CORRUPTIONS[name](out):
                    failed = [n for n, passed in workload.check(corrupt) if not passed]
                    print(f"{name}: {label}, {len(failed)} failed checks {failed[:3]}")
                    ok &= bool(failed)
            finally:
                workload.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selfcheck", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
