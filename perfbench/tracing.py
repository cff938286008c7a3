"""Span tracing of slitsim's layers from outside the package.

Tracing wraps public names at every binding inside ``slitsim`` that holds
them, so ``from .optics import fit_p`` copies in ``reports`` and ``cli`` are
traced as well as ``optics.fit_p``.  Validation in value-object
constructors is traced through their ``__post_init__`` methods.  Spans keep
a name, start, end, parent span and operation id in flat arrays until the
run ends; self time is a span's duration minus the time its child spans
cover.
"""
from __future__ import annotations

import functools
import importlib
import math
import sys
from array import array
from collections import Counter
from time import perf_counter

# (layer metric prefix, module, attribute path).  Several attributes may
# share one prefix; their spans are pooled.
LAYERS = (
    ("optics.fit_p", "slitsim.optics", "fit_p"),
    ("optics.synthesize_scan", "slitsim.optics", "synthesize_scan"),
    ("film.compile_film", "slitsim.film", "compile_film"),
    ("film.effective_channel", "slitsim.film", "effective_channel"),
    ("channels.apply_channel", "slitsim.channels", "apply_channel"),
    ("experiment.concurrence_uncertainty", "slitsim.experiment", "concurrence_uncertainty"),
    ("experiment.reconstruct_state", "slitsim.experiment", "reconstruct_state"),
    ("experiment.CountsTable", "slitsim.experiment", "CountsTable.__post_init__"),
    ("qcore.i_concurrence", "slitsim.qcore", "i_concurrence"),
    ("qcore.validate", "slitsim.qcore", "DensityMatrix.__post_init__"),
    ("qcore.validate", "slitsim.qcore", "PureBipartiteState.__post_init__"),
    ("rng.derive_rng", "slitsim.rng", "derive_rng"),
    ("dynamics.run_trajectories", "slitsim.dynamics", "run_trajectories"),
    ("dynamics.integrate_master", "slitsim.dynamics", "integrate_master"),
    ("fileio.format", "slitsim.fileio", "format_state"),
    ("fileio.format", "slitsim.fileio", "format_counts"),
    ("fileio.format", "slitsim.fileio", "format_film"),
    ("fileio.format", "slitsim.fileio", "format_scan"),
    ("fileio.parse", "slitsim.fileio", "parse_state"),
    ("fileio.parse", "slitsim.fileio", "parse_counts_text"),
    ("fileio.parse", "slitsim.fileio", "parse_film"),
    ("fileio.parse", "slitsim.fileio", "parse_scan"),
    ("cli.main", "slitsim.cli", "main"),
    ("reports.dephasing_recovery_report", "slitsim.reports", "dephasing_recovery_report"),
    ("reports.damping_series_report", "slitsim.reports", "damping_series_report"),
)

LAYER_NAMES = tuple(dict.fromkeys(name for name, _, _ in LAYERS))

# Counters computed at layer boundaries from the call arguments, not timed.
COUNTERS = (
    ("fileio.format.bytes", "bytes"),
    ("fileio.parse.bytes", "bytes"),
    ("dynamics.steps.computed", "count"),
    ("dynamics.uniforms_bytes.computed", "bytes"),
)


def _format_bytes(tracer, args, kwargs, result):
    tracer.count("fileio.format.bytes", len(result))


def _parse_bytes(tracer, args, kwargs, result):
    tracer.count("fileio.parse.bytes", len(args[0] if args else kwargs["text"]))


def _trajectory_work(tracer, args, kwargs, result):
    """Step count and uniform-matrix bytes from t, dt and n, as the integrator sizes them."""
    model, _, t, cfg = args
    if t <= 0 or model.gamma == 0:
        return
    steps = max(1, math.ceil(t / cfg.dt - 1e-12))
    tracer.count("dynamics.steps.computed", steps)
    tracer.count("dynamics.uniforms_bytes.computed", 8 * steps * cfg.n_trajectories)


_HOOKS = {"fileio.format": _format_bytes, "fileio.parse": _parse_bytes,
          "dynamics.run_trajectories": _trajectory_work}


class Tracer:
    """In-memory span store; ``install`` wraps the layers, ``uninstall`` restores them."""

    def __init__(self):
        self.names: list[str] = list(LAYER_NAMES)
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("H")
        self.op = array("q")
        self.failed = array("B")
        self.counters: dict[int, Counter] = {}
        self.op_id = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def count(self, name: str, value: int) -> None:
        self.counters.setdefault(self.op_id, Counter())[name] += value

    def _wrap(self, name: str, fn):
        ix = self.names.index(name)
        hook = _HOOKS.get(name)
        start, end, parent, names, op, failed = (
            self.start, self.end, self.parent, self.name, self.op, self.failed)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(start)
            start.append(perf_counter())
            end.append(math.nan)
            parent.append(stack[-1] if stack else -1)
            names.append(ix)
            op.append(self.op_id)
            failed.append(0)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                failed[span] = 1
                raise
            finally:
                stack.pop()
                end[span] = perf_counter()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every layer at every slitsim binding; returns the bindings wrapped."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if (key == "slitsim" or key.startswith("slitsim.")) and m is not None]
        bound = []
        for name, modname, path in LAYERS:
            owner = importlib.import_module(modname)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            fn = getattr(owner, attr)
            traced = self._wrap(name, fn)
            if outer:
                holders = [(owner, attr)]
            else:
                holders = [(m, key) for m in modules for key, v in vars(m).items() if v is fn]
            for holder, key in holders:
                self._undo.append((holder, key, fn))
                setattr(holder, key, traced)
                bound.append(f"{getattr(holder, '__qualname__', holder.__name__)}.{key}")
        return bound

    def uninstall(self) -> None:
        for holder, key, fn in reversed(self._undo):
            setattr(holder, key, fn)
        self._undo.clear()

    def op_counts(self) -> dict[int, Counter]:
        """Per-operation calls and errors per layer, plus the computed counters."""
        out: dict[int, Counter] = {}
        for ix, op, bad in zip(self.name, self.op, self.failed):
            c = out.setdefault(op, Counter())
            c[self.names[ix] + ".calls"] += 1
            c[self.names[ix] + ".errors"] += bad
        for op, extra in self.counters.items():
            out.setdefault(op, Counter()).update(extra)
        return out

    def self_seconds(self) -> Counter:
        """Total self time per layer over all spans."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        total = Counter()
        for i in range(n):
            total[self.names[self.name[i]]] += self.end[i] - self.start[i] - child[i]
        return total
