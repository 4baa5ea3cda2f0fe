"""One benchmark workload in a fresh process, so that its set-up time and peak
memory are its own.  Started by ``run.py``; prints one JSON object.

Set-up is timed from ``--spawned-at``, the parent's ``time.monotonic()`` just
before it started this process, to the end of input building.  A calibration
block follows set-up and, in an untraced run, calibration blocks precede
every iteration, so that ``run.py`` can scale times by the host's speed at
that moment.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
MIN_ITERATIONS = 3
# Calibration time before an iteration, as a share of the previous iteration.
# Host jitter makes both the iterations and the blocks noisy; the noise of
# the ratio of their totals is least when the two totals are alike, and a
# half keeps two thirds of the run for the program.
CALIBRATION_SHARE = 0.5


def calibration() -> float:
    """Seconds this host takes for a fixed block of pure-Python work that uses
    nothing from sppda: integer arithmetic, dict stores and big-integer XOR
    over 64 KiB.  About 0.4 s and under 1 MiB."""
    t0 = time.perf_counter()
    total, table = 0, {}
    for i in range(1_250_000):
        total += i * i % 7
        table[i & 1023] = total
    x = int.from_bytes(bytes(range(256)) * 256, "big")
    for _ in range(5000):
        x ^= x >> 3
    return time.perf_counter() - t0


def calibrate(seconds: float) -> float:
    """Mean time of calibration blocks run until ``seconds`` are spent, and
    of at least one."""
    blocks = [calibration()]
    while sum(blocks) < seconds:
        blocks.append(calibration())
    return statistics.fmean(blocks)


def measure(workload, seconds: float, tracer=None) -> dict:
    """Closed loop: each iteration starts when the previous one and its checks
    are done; stops before an iteration would overrun ``seconds``.

    With a tracer, iterations alternate untraced and traced (the wrappers are
    installed for the traced ones only), so both kinds meet the same states of
    a shared host and the difference within each pair is the tracing overhead.
    Without one, calibration blocks run before every iteration."""
    times, traced_times, counts, failures, calibrations = [], [], [], [], []
    attempted = 0
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(traced_times) < len(times)
        if tracer is None:
            calibrations.append(calibrate(CALIBRATION_SHARE * times[-1] if times else 0.0))
        try:
            if traced:
                tracer.install()
            try:
                t0 = time.perf_counter()
                with tracer.span(tracing.ITERATION) if traced else contextlib.nullcontext():
                    out = workload.iterate()
                elapsed = time.perf_counter() - t0
            finally:
                if traced:
                    tracer.uninstall()
            (traced_times if traced else times).append(elapsed)
            results = workload.check(out)
            if traced:
                counts.append(workload.counts(out))
        except Exception:
            traceback.print_exc()
            attempted += 1
            failures.append("iteration raised")
            break
        del out
        attempted += len(results)
        failures += [name for name, ok in results if not ok]
        # stop before one more iteration, at the run's mean cost with its
        # calibration and checks, would overrun
        done = len(times) + len(traced_times)
        elapsed = time.perf_counter() - start
        if done >= (2 if tracer else 1) * MIN_ITERATIONS and elapsed * (done + 1) / done > seconds:
            break
    result = {"times": times, "calibrations": calibrations[:len(times)],
              "attempted": attempted, "failures": failures}
    if tracer is not None:
        layers = layer_medians(tracer, counts)
        if traced_times:
            # median over adjacent (untraced, traced) pairs; it is within the
            # host's noise, and can be negative, when the wrappers cost little
            layers["trace.overhead_s"] = statistics.median(
                t - u for u, t in zip(times, traced_times))
        result.update(traced_times=traced_times, layers=layers,
                      trace={"spans": tracer.spans, "counts": tracer.counts})
    return result


def layer_medians(tracer, counts: list[dict]) -> dict:
    """Per-layer self times and counts, median over traced iterations."""
    per_iteration = tracer.per_root()
    for layers, extra in zip(per_iteration, counts):
        layers.update(extra)
    names = sorted({name for layers in per_iteration for name in layers})
    return {name: statistics.median(layers.get(name, 0) for layers in per_iteration)
            for name in names}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    workload = workloads.WORKLOADS[args.workload](Path(args.workdir), args.seed)
    result = {"setup_s": time.monotonic() - args.spawned_at, "setup_calibration": calibration()}
    try:
        if not args.setup_only:
            tracer = tracing.Tracer() if args.trace else None
            result.update(measure(workload, args.seconds, tracer))
        result["peak_rss_MiB"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        workload.close()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
