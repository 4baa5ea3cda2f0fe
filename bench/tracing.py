"""Tracing of the sppda layers, installed from outside the package.

The package binds many public functions by value (``from .arrays import
verify_pda`` in ``construct``, ``textio``, ``cli`` and ``__init__``), so
patching one module attribute would miss most calls.  ``Tracer.install``
therefore replaces every attribute of every loaded ``sppda`` module that is
bound to a traced function, and ``Tracer.uninstall`` puts the originals back.

Spans are kept in memory as ``(id, parent, name, start, end)`` tuples and
written out once, by ``run.py``, when the run ends.  A layer's self time
is its span minus the spans of its wrapped children.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from contextlib import contextmanager


def _transmission_counts(args, report) -> dict:
    piece = args["library"].piece_size
    sizes = [len(t.components) for t in report.transmissions]
    return {
        "sim.transmissions": len(sizes),
        "sim.broadcast_bytes": len(sizes) * piece,
        # deliver XORs g subfiles per code; each of its g users XORs the other g-1
        "sim.xor_bytes": piece * sum(g + g * (g - 1) for g in sizes),
    }


def _layout_counts(args, layout) -> dict:
    piece = args["library"].piece_size
    return {
        "sim.helper_cache_bytes": piece * sum(len(rows) for rows in layout.helper_sets),
        "sim.private_cache_bytes": piece * sum(len(rows) for rows in layout.private_sets),
    }


def _grid_cells(args, _result) -> dict:
    rows = args["rows"]
    return {"arrays.verify_pda_calls": 1,
            "arrays.verify_pda_cells": len(rows) * len(rows[0]) if len(rows) else 0}


# (module, public function, layer metric prefix, counter or None).  Counters
# compute work from the call's bound arguments and result; they are derived
# counts, not measurements.
TARGETS = (
    ("arrays", "verify_pda", "arrays.verify_pda", _grid_cells),
    ("arrays", "man_pda", "arrays.family", None),
    ("arrays", "construction_a_pda", "arrays.family", None),
    ("construct", "construct_sppda", "construct.construct_sppda",
     lambda a, r: {"construct.cells_built": r.pda.f * r.pda.k}),
    ("construct", "verify_sppda", "construct.verify_sppda", None),
    ("textio", "write_sppda", "textio.write", lambda a, r: {"textio.bytes": len(r)}),
    ("textio", "write_pda", "textio.write", lambda a, r: {"textio.bytes": len(r)}),
    ("textio", "parse_sppda", "textio.parse", lambda a, r: {"textio.bytes": len(a["text"])}),
    ("textio", "parse_pda", "textio.parse", lambda a, r: {"textio.bytes": len(a["text"])}),
    ("sim", "sp_place", "sim.place", _layout_counts),
    ("sim", "sp_deliver", "sim.deliver", None),
    ("sim", "sp_decode", "sim.decode", None),
    ("sim", "sp_run", "sim.run", _transmission_counts),
    ("sim", "dedicated_run", "sim.dedicated", _transmission_counts),
    ("permsearch", "exhaustive_best", "permsearch.exhaustive",
     lambda a, r: {"permsearch.evaluations": r.evaluations}),
    ("permsearch", "top_pairs", "permsearch.top_pairs", None),
    ("permsearch", "check_E1", "permsearch.check_E", None),
    ("permsearch", "check_E2", "permsearch.check_E", None),
    ("permsearch", "heuristic_reorder", "permsearch.greedy", None),
    ("analysis", "sweep", "analysis.sweep",
     lambda a, r: {"analysis.points": len(r),
                   "analysis.points_verified": sum(p.verified for p in r)}),
    ("cli", "cmd_construct", "cli.construct", None),
    ("cli", "cmd_verify", "cli.verify", None),
    ("cli", "cmd_simulate", "cli.simulate", None),
)

ITERATION = "trace.unattributed"  # self time of an iteration outside every wrapped call
COUNTING = "trace.counting"  # time spent in counters, kept out of every layer


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: list[tuple[int, dict]] = []  # (span id, increments)
        self._stack: list[int] = []
        self._bindings: list = []  # (namespace, attribute, original, wrapper)

    def _open(self, name: str) -> tuple[int, int | None]:
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid: int, parent, name: str, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans[sid] = (sid, parent, name, start, end)

    @contextmanager
    def span(self, name: str):
        sid, parent = self._open(name)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            self._close(sid, parent, name, start)

    def _wrap(self, func, name: str, counter):
        signature = inspect.signature(func)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            sid, parent = self._open(name)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(sid, parent, name, start)
            if counter is not None:
                with self.span(COUNTING):
                    bound = signature.bind(*args, **kwargs).arguments
                    self.counts.append((sid, counter(bound, result)))
            return result

        return traced

    def install(self) -> None:
        """Rebind every attribute of a loaded ``sppda`` module that refers to a
        traced function.  The wrappers are built once, on the first call."""
        if not self._bindings:
            namespaces = [vars(m) for n, m in list(sys.modules.items())
                          if m is not None and (n == "sppda" or n.startswith("sppda."))]
            for module, func_name, prefix, counter in TARGETS:
                original = getattr(sys.modules[f"sppda.{module}"], func_name)
                wrapper = self._wrap(original, prefix, counter)
                self._bindings += [(ns, attr, original, wrapper) for ns in namespaces
                                   for attr, value in list(ns.items()) if value is original]
        for ns, attr, _, wrapper in self._bindings:
            ns[attr] = wrapper

    def uninstall(self) -> None:
        """Restore the functions that ``install`` replaced."""
        for ns, attr, original, _ in self._bindings:
            ns[attr] = original

    def per_root(self) -> list[dict[str, float]]:
        """Per root span (one per traced iteration): self seconds per layer
        prefix plus the counter totals, keyed by final metric name."""
        root_of: dict[int, int] = {}
        child_time: dict[int, float] = {}
        for sid, parent, _name, start, end in self.spans:
            root_of[sid] = sid if parent is None else root_of[parent]
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        totals: dict[int, dict[str, float]] = {}
        for sid, parent, name, start, end in self.spans:
            if name == COUNTING:
                continue
            bucket = totals.setdefault(root_of[sid], {})
            key = f"{name}_s"
            bucket[key] = bucket.get(key, 0.0) + (end - start) - child_time.get(sid, 0.0)
        for sid, increments in self.counts:
            bucket = totals.setdefault(root_of[sid], {})
            for key, value in increments.items():
                bucket[key] = bucket.get(key, 0) + value
        return [totals[sid] for sid, parent, *_ in self.spans if parent is None]
