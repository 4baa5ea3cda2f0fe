"""The four benchmark workloads.

Each workload builds its inputs from the seed in ``__init__`` (timed as set-up,
outside ``wall_s``), runs one closed-loop iteration in ``iterate``, and checks
that iteration's outputs in ``check``, which returns ``(name, ok)`` pairs that
feed ``fail_ratio``.  ``counts`` derives work and quality counts from the
outputs for the traced run.  The sppda package must be importable.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import shutil
import tempfile
from fractions import Fraction
from pathlib import Path

from sppda import analysis, cli, construct, permsearch, sim
from sppda.arrays import (
    STAR,
    AssociationProfile,
    PdaArray,
    canonicalize_codes,
    construction_a_pda,
    man_pda,
    permute_columns,
)

NUM_USERS = 24


class Workload:
    def iterate(self):
        raise NotImplementedError

    def check(self, out) -> list[tuple[str, bool]]:
        raise NotImplementedError

    def counts(self, out) -> dict:
        return {}

    def close(self) -> None:
        pass


class SimSkewedLarge(Workload):
    """`sppda construct | verify | simulate` in-process on MaN(8,4) x MaN(10,3),
    the skewed reference profile at F=8400, S=11115."""

    PROFILE = "10,4,2,2,2,2,1,1"
    VERIFY = "F=8400 Z=5460 Zh=4200 S=11115"
    TRANSMISSIONS = 11115

    def __init__(self, workdir: Path, seed: int):
        self.seed = seed
        self.tmp = Path(tempfile.mkdtemp(prefix="skewed-", dir=workdir))
        self.path = str(self.tmp / "array.sppda")

    def iterate(self):
        steps = (
            ["construct", "man:8,4", "man:10,3", "--profile", self.PROFILE, "-o", self.path],
            ["verify", self.path],
            ["simulate", self.path, "--synthetic", f"{NUM_USERS},16384,{self.seed}",
             "--worst-case"],
        )
        runs = []
        for argv in steps:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            runs.append((code, out.getvalue()))
        return runs

    def check(self, runs):
        (construct_rc, _), (verify_rc, verify), (simulate_rc, simulate) = runs
        lines = simulate.splitlines()
        checks = [
            ("construct exit code 0", construct_rc == 0),
            ("verify exit code 0", verify_rc == 0),
            ("simulate exit code 0", simulate_rc == 0),
            ("verify reports " + self.VERIFY,
             verify.startswith("valid sppda:") and self.VERIFY in verify),
            (f"{self.TRANSMISSIONS} transmissions", f"transmissions: {self.TRANSMISSIONS}" in lines),
        ]
        checks += [(f"user {k} decodes", f"user {k}: ok" in lines)
                   for k in range(1, NUM_USERS + 1)]
        return checks

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


def reference_decode(grid, user: int, transmissions, read, length: int, demands) -> bytes | None:
    """Rebuild one user's file from its column's star rows plus the broadcast;
    ``read(i, start, stop)`` gives bytes ``[start, stop)`` of file ``i``
    (1-based) of ``length`` bytes.  None if a code it needs was never sent.
    It shares no code with the simulator's decoder, so it checks that
    decoder's verdicts."""
    piece = -(-length // len(grid))

    def subfile(file_index: int, row: int) -> int:
        start = min((row - 1) * piece, length)
        chunk = read(file_index, start, min(start + piece, length))
        return int.from_bytes(chunk.ljust(piece, b"\0"), "big")

    by_code = {t.code: t for t in transmissions}
    pieces = []
    for j, row in enumerate(grid, start=1):
        e = row[user - 1]
        if e == STAR:
            value = subfile(demands[user - 1], j)
        else:
            sent = by_code.get(e)
            if sent is None:
                return None
            value = int.from_bytes(sent.payload, "big")
            for k2, j2 in sent.components:
                if (k2, j2) != (user, j):
                    value ^= subfile(demands[k2 - 1], j2)
        pieces.append(value.to_bytes(piece, "big"))
    return b"".join(pieces)[:length]


class SimUniformBulk(Workload):
    """``sp_run`` on MaN(8,4) x MaN(3,1), profile 3^8, and ``dedicated_run`` on
    MaN(24,2), both over 24 seeded 4 MiB files with distinct demands.

    The benchmark keeps no copy of the files beside the two libraries: it
    builds them one file at a time, and the reference decoder recomputes the
    bytes it needs from the seed.  So ``peak_rss_MiB`` is reached while the
    program runs, not while the benchmark sets up or checks."""

    FILE_BYTES = 4 << 20
    BLOCK = 4096  # files are made of seeded blocks, so any slice is cheap to recompute
    SAMPLED_USERS = 2  # users per scheme and iteration decoded by the reference

    def __init__(self, workdir: Path, seed: int):
        self.seed = seed
        rng = random.Random(seed)
        self.demands = tuple(rng.sample(range(1, NUM_USERS + 1), NUM_USERS))
        self.rng = rng
        self.sppda = construct.construct_sppda(man_pda(8, 4), man_pda(3, 1),
                                               AssociationProfile((3,) * 8))
        self.dedicated = man_pda(NUM_USERS, 2)
        # from_bytes pads each file with its own copy; feeding it one file at a
        # time keeps the unpadded originals from piling up during set-up.
        fs = (self.sppda.pda.f, self.dedicated.f)
        padded = ([], [])
        for i in range(1, NUM_USERS + 1):
            data = self.read(i, 0, self.FILE_BYTES)
            for f, files in zip(fs, padded):
                files.append(sim.FileLibrary.from_bytes([data], f).files[0])
        self.sp_library, self.dedicated_library = (
            sim.FileLibrary(tuple(files), f, self.FILE_BYTES) for f, files in zip(fs, padded))

    def read(self, index: int, start: int, stop: int) -> bytes:
        """Bytes ``[start, stop)`` of file ``index`` (1-based), from the seed."""
        first = start // self.BLOCK
        data = b"".join(
            hashlib.shake_256(f"{self.seed}:{index}:{b}".encode()).digest(self.BLOCK)
            for b in range(first, -(-stop // self.BLOCK)))
        return data[start - first * self.BLOCK: stop - first * self.BLOCK]

    def iterate(self):
        return (sim.sp_run(self.sppda, self.sp_library, self.demands),
                sim.dedicated_run(self.dedicated, self.dedicated_library, self.demands))

    def check(self, reports):
        checks = []
        for label, report, grid, expected in (
                ("sp", reports[0], self.sppda.pda.grid, 168),
                ("dedicated", reports[1], self.dedicated.grid, 2024)):
            checks.append((f"{label}: {expected} transmissions",
                           len(report.transmissions) == expected))
            verdicts = report.decoded
            checks += [(f"{label}: user {k} decodes", len(verdicts) >= k and verdicts[k - 1])
                       for k in range(1, NUM_USERS + 1)]
            for user in self.rng.sample(range(1, NUM_USERS + 1), self.SAMPLED_USERS):
                got = reference_decode(grid, user, report.transmissions, self.read,
                                       self.FILE_BYTES, self.demands)
                checks.append((f"{label}: user {user} bytes match",
                               got == self.read(self.demands[user - 1], 0, self.FILE_BYTES)))
        return checks


def _first_columns(pda: PdaArray, width: int) -> PdaArray:
    """The array restricted to its first ``width`` columns, codes re-canonicalized."""
    return PdaArray.from_grid(canonicalize_codes([row[:width] for row in pda.grid]))


def _shuffled(pda: PdaArray, rng: random.Random) -> PdaArray:
    return permute_columns(pda, rng.sample(range(pda.k), pda.k))


class SearchExact(Workload):
    """What ``sppda search`` runs, plus the E1/E2 checks and greedy reorder, on
    two instances whose column orders are shuffled by the seed."""

    def __init__(self, workdir: Path, seed: int):
        rng = random.Random(seed)
        a1 = _first_columns(construction_a_pda(3, 2), 8)
        a2 = _first_columns(construction_a_pda(3, 1), 5)
        # (name, p1, p2, profile, (s_min, s_max), E1 and E2 expected to hold)
        self.instances = (
            ("A", _shuffled(a1, rng), _shuffled(a2, rng),
             AssociationProfile((5, 4, 3, 2, 2, 1, 1, 1)), (80, 108), None),
            ("B", _shuffled(man_pda(7, 3), rng), _shuffled(man_pda(5, 2), rng),
             AssociationProfile((5, 3, 2, 2, 1, 1, 1)), (345, 345), True),
        )

    def iterate(self):
        outcomes = []
        for _, p1, p2, profile, _, _ in self.instances:
            result = permsearch.exhaustive_best(p1, p2, profile)
            pairs = permsearch.top_pairs(p1, p2, profile, limit=10)
            e1 = permsearch.check_E1(p1)
            e2 = permsearch.check_E2(p2, profile)
            r1 = permsearch.heuristic_reorder(p1, side="first")
            r2 = permsearch.heuristic_reorder(p2, profile, side="second")
            outcomes.append({
                "s_min": result.s_min, "s_max": result.s_max,
                "top": pairs[0].s_value if pairs else None,
                "e1": e1, "e2": e2,
                "greedy": construct.s_count(r1, r2, profile),
                "identity": construct.s_count(p1, p2, profile),
            })
        return outcomes

    def check(self, outcomes):
        checks = []
        for (name, _, _, _, (s_min, s_max), e_hold), out in zip(self.instances, outcomes):
            checks += [
                (f"{name}: s_min = {s_min}", out["s_min"] == s_min),
                (f"{name}: s_max = {s_max}", out["s_max"] == s_max),
                (f"{name}: top pair S = s_min", out["top"] == out["s_min"]),
                (f"{name}: greedy S >= s_min", out["greedy"] >= out["s_min"]),
                (f"{name}: E1 and E2 imply identity S = s_min",
                 not (out["e1"] and out["e2"]) or out["identity"] == out["s_min"]),
            ]
            if e_hold is not None:
                checks.append((f"{name}: E1 and E2 hold", (out["e1"] and out["e2"]) == e_hold))
        return checks

    def counts(self, outcomes):
        return {"permsearch.greedy_gap": sum(o["greedy"] - o["s_min"] for o in outcomes),
                "permsearch.identity_gap": sum(o["identity"] - o["s_min"] for o in outcomes)}


class SweepReference(Workload):
    """``analysis.sweep`` over the uniform and skewed reference profiles at
    M_h/N in {1/2, 1/4}, every t2, both schemes, plus one ``compare``.
    Deterministic: the seed is not used."""

    PROFILES = ((3,) * 8, (10, 4, 2, 2, 2, 2, 1, 1))
    MH_RATIOS = (Fraction(1, 2), Fraction(1, 4))
    # sha256 of the four sweep_csv outputs, concatenated in run order
    CSV_DIGEST = "5994d26689cced05a6e8400e05537a5ce8023603f1429d9d7ebe528850cb5a08"

    def __init__(self, workdir: Path, seed: int):
        self.configs = []
        for parts in self.PROFILES:
            profile = AssociationProfile(parts)
            for mh in self.MH_RATIOS:
                self.configs.append(
                    analysis.SweepConfig(profile, mh, tuple(range(profile.part(1) + 1))))
        self.compare_profile = AssociationProfile((3,) * 8)

    def iterate(self):
        sweeps = []
        for config in self.configs:
            points = analysis.sweep(config)
            sweeps.append((points, analysis.sweep_csv(points)))
        return sweeps, analysis.compare(2, 3, 2, self.compare_profile)

    def check(self, out):
        sweeps, comparison = out
        checks = []
        digest = hashlib.sha256()
        for config, (points, csv) in zip(self.configs, sweeps):
            digest.update(csv.encode())
            lam = config.profile.num_groups
            q = config.mh_ratio.denominator
            tag = f"{config.profile.parts} mh={config.mh_ratio}"
            checks.append((f"{tag}: one point per scheme and t2",
                           len(points) == len(config.schemes) * len(config.t2_values)))
            for p in points:
                if p.scheme == "man_pair":
                    rate = analysis.rate_man_pair(lam, int(config.mh_ratio * lam),
                                                  config.profile, p.t2)
                else:
                    rate = analysis.rate_construction_a(q, lam // q - 1, config.profile, p.t2)
                checks.append((f"{tag} {p.scheme} t2={p.t2}: rate matches closed form",
                               p.rate == rate))
                checks.append((f"{tag} {p.scheme} t2={p.t2}: verified under the cap",
                               p.verified or p.subpacketization > config.verify_cap))
        checks.append(("sweep_csv digest", digest.hexdigest() == self.CSV_DIGEST))
        checks.append(("compare(2,3,2,3^8) rate ratio 4/5",
                       comparison.rate_ratio == Fraction(4, 5)))
        return checks


WORKLOADS = {
    "sim-skewed-large": SimSkewedLarge,
    "sim-uniform-bulk": SimUniformBulk,
    "search-exact": SearchExact,
    "sweep-reference": SweepReference,
}
