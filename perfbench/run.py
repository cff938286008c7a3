"""Benchmark of slitsim's command line, run in-process on one workload.

    python3 perfbench/run.py --workload recovery --seed 0 --seconds 20 --trace 0

Run it from the root of a slitsim checkout; the package is imported from
``src/`` there.  Workloads (see ``workloads.py`` and ``BENCHMARK.json``):
recovery, damping_series, trajectories, cli_roundtrip.  Each run is one
fresh process and a closed loop with one caller: an operation starts when
the previous one and its oracle checks have finished.  BLAS threads are
pinned to 1.

Every operation's outputs are checked against oracles outside the timed
section, and every repeat of an input must reproduce the first run's
bytes.  ``--trace 0`` reports the end-to-end metrics, the gated times
scaled by a fixed reference computation timed beside them (see
``_reference_seconds``) and the raw times printed too; ``--trace 1`` runs a
third of the time untraced and the rest with every layer wrapped, and
reports the per-layer metrics.  Metrics are printed one per line with
their units, then a ``detail`` line, then the result as the last line:
one JSON object with the keys correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from tracing import COUNTERS, LAYER_NAMES, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_RUNS = 15
# Gated times are scaled to a host on which one run of _reference_seconds'
# computation takes REFERENCE_S seconds (see _reference_seconds).
REFERENCE_S = 0.005


def _import_program():
    """Import slitsim from this checkout's src/, or exit with code 1."""
    src = ROOT / "src"
    if not (src / "slitsim" / "__init__.py").is_file():
        raise SystemExit(f"error: no slitsim package under {src}; run from a slitsim checkout")
    sys.path.insert(0, str(src))
    import slitsim.cli

    if Path(slitsim.__file__).resolve().parent != (src / "slitsim").resolve():
        raise SystemExit(f"error: imported slitsim from {slitsim.__file__}, not from {src}")
    return slitsim.cli


def _execute(cli, commands) -> tuple[list[tuple[int | None, str, str]], float]:
    """Run command lines through cli.main in order; returns results and wall time."""
    captured = []
    t0 = time.perf_counter()
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except Exception:
                # an escaped exception is a failed operation, not a crashed benchmark
                traceback.print_exc()
                rc = None
        captured.append((rc, out, err))
    elapsed = time.perf_counter() - t0
    return [(rc, out.getvalue(), err.getvalue()) for rc, out, err in captured], elapsed


def _digest(results, outputs) -> str:
    h = hashlib.sha256()
    for _, stdout, _ in results:
        h.update(stdout.encode())
    for path in outputs:
        h.update(path.read_bytes() if path.exists() else b"<missing>")
    return h.hexdigest()


class Runner:
    """Runs a workload's operations, checking each one outside the timed section."""

    def __init__(self, cli, workload, ops):
        self.cli, self.workload, self.ops = cli, workload, ops
        self.digests: dict[str, str] = {}
        self.health: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, op) -> float:
        results, elapsed = _execute(self.cli, op.commands)
        self.attempted += 1
        try:
            problems, health = self.workload.check(op, results)
        except (ValueError, OSError, IndexError, KeyError) as exc:
            problems, health = [f"oracle could not read the output: {exc!r}"], None
        digest = _digest(results, op.outputs)
        if self.digests.setdefault(op.key, digest) != digest:
            problems.append("output bytes differ from the first run of the same input")
        if health is not None:
            self.health.setdefault(op.key, health)
        if problems:
            self.failed += 1
            self.problems.extend(f"{op.key}: {p}" for p in problems[: max(0, 5 - len(self.problems))])
        return elapsed

    def passes(self, seconds: float, min_passes: int, before=None) -> list[list[float]]:
        """Run whole passes over the inputs until `seconds` of operations and
        `min_passes` are done; returns the wall time of every operation, by pass.

        `before(i, t)` runs, untimed, ahead of the i-th operation, t being
        the seconds of operations done so far.
        """
        passes: list[list[float]] = []
        total, index = 0.0, 0
        while total < seconds or len(passes) < min_passes:
            times = []
            for op in self.ops:
                if before is not None:
                    before(index, total)
                index += 1
                times.append(self.run(op))
                total += times[-1]
            passes.append(times)
        return passes

    def output_sha256(self) -> str:
        return hashlib.sha256("".join(self.digests[op.key] for op in self.ops).encode()).hexdigest()

    def health_value(self) -> float:
        return self.workload.health_combine(self.health[op.key] for op in self.ops)


def _reference_seconds() -> float:
    """Wall time of a fixed computation that uses nothing of slitsim.

    It gauges the host's speed at the moment it runs.  On a shared 2-vCPU
    virtual machine the speed flips between states up to 1.9x apart, second
    by second, and can stay in the slow state for minutes, so that no
    statistic of raw times agrees between two sets of runs.  Times divided
    by this one, taken beside them, do.  The mix, small numpy linear algebra,
    a Python loop and a vectorised pass over a 16 kB array, resembles the
    program's.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    acc = 0.0
    t0 = time.perf_counter()
    for _ in range(200):
        acc += float(np.linalg.svd(rng.standard_normal((3, 3)), compute_uv=False)[0])
        acc += sum(j * 0.5 for j in range(20))
        acc += float(np.exp(rng.random(2000)).sum())
    return time.perf_counter() - t0


def _setup_seconds(args) -> tuple[float, float]:
    """Fresh interpreter start to readiness for the first operation, in a child
    process, and the child's reference time right after it."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        argv.append("--tiny")
    t0 = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=60, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"error: setup probe failed:\n{proc.stderr}")
    ready, reference = proc.stdout.split()[-2:]
    return float(ready) - t0, float(reference)


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else ref[5:]
    return ref


def _machine() -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "threads": threading.active_count(),
        "git_commit": _git_commit(),
    }


def _best(passes: list[list[float]]) -> float:
    """Mean over the inputs of each input's fastest run.

    Medians and means over a run follow the share of time the host spends
    in its slow state (see _reference_seconds); each input's fastest run
    does not, as long as the host is fast for some of the run.
    """
    return statistics.fmean(min(runs) for runs in zip(*passes))


def _end_to_end(args, workload, runner, items_per_op) -> tuple[dict, dict, dict]:
    """Gated metrics, printed-only metrics and notes of an untraced run."""
    probes = 1 if args.tiny else SETUP_RUNS
    setup: list[tuple[float, float]] = []
    reference: list[float] = []

    def before(_: int, done: float) -> None:
        # spread the set-up probes over the run instead of sampling one moment
        if len(setup) < probes and done >= len(setup) * args.seconds / probes:
            setup.append(_setup_seconds(args))
        reference.append(_reference_seconds())

    runner.run(runner.ops[0])  # warm-up: lazy imports and first-call costs
    _reference_seconds()
    passes = runner.passes(args.seconds, 1, before=before)
    reference.append(_reference_seconds())
    while len(setup) < probes:
        setup.append(_setup_seconds(args))

    # each operation against the mean of the reference times just before and after it
    n = len(runner.ops)
    scaled = [[t * 2.0 * REFERENCE_S / (reference[k * n + i] + reference[k * n + i + 1])
               for i, t in enumerate(times)] for k, times in enumerate(passes)]
    per_op = [statistics.fmean(times) for times in passes]
    q1, median, q3 = (statistics.quantiles(per_op, n=4) if len(per_op) > 1 else per_op * 3)
    metrics = {
        "setup_s": (statistics.median(t * REFERENCE_S / ref for t, ref in setup), "s"),
        "wall_norm_s": (statistics.fmean(statistics.median(runs) for runs in zip(*scaled)), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    printed = {
        "setup_raw_s": (statistics.median(t for t, _ in setup), "s"),
        "wall_s": (median, "s"),
        "wall_best_s": (_best(passes), "s"),
        "reference_s": (statistics.median(reference), "s"),
        "items_per_s": (items_per_op * len(per_op) / sum(per_op), "1/s"),
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters, each scaled by "
                   f"{REFERENCE_S:g} s / its own reference time",
        "wall_norm_s": f"per operation, mean over {n} inputs of the median of {len(passes)} runs "
                       f"each, every run scaled by {REFERENCE_S:g} s / the reference times beside it",
        "peak_rss_mb": "ru_maxrss of this process",
        "setup_raw_s": "median of the same fresh interpreters, unscaled",
        "wall_s": f"per operation, unscaled, median of {len(per_op)} passes over the inputs; "
                  f"q1 {q1:.6g} s, q3 {q3:.6g} s",
        "wall_best_s": f"per operation, unscaled, mean over {n} inputs of the fastest "
                       f"of {len(passes)} runs each",
        "reference_s": f"median of {len(reference)} runs of the reference computation",
        "items_per_s": f"{workload.item} per second over the timed section, "
                       f"{items_per_op} per operation",
    }
    return metrics, printed, notes


def _per_layer(args, runner, tracer) -> tuple[dict, dict, list[str]]:
    n = len(runner.ops)
    runner.run(runner.ops[0])
    untraced = runner.passes(args.seconds / 3.0, 1)
    bound = tracer.install()

    def mark(i, _):
        tracer.op_id = i

    try:
        traced = runner.passes(2.0 * args.seconds / 3.0, 2, before=mark)
    finally:
        tracer.uninstall()

    counts = tracer.op_counts()
    problems = []
    for i in range(n):
        if counts.get(i, {}) != counts.get(i + n, {}):
            problems.append(f"layer counts of {runner.ops[i].key} differ between two runs")
    first = {}
    for i in range(n):
        for key, value in counts.get(i, {}).items():
            first[key] = first.get(key, 0) + value
    self_s = tracer.self_seconds()
    errors = sum(tracer.failed)
    metrics = {}
    for name in LAYER_NAMES:
        metrics[f"{name}.calls"] = (first.get(f"{name}.calls", 0) / n, "count")
        metrics[f"{name}.self_s"] = (self_s.get(name, 0.0) / (len(traced) * n), "s")
        metrics[f"{name}.errors"] = (
            sum(c.get(f"{name}.errors", 0) for c in counts.values()), "count")
    for name, unit in COUNTERS:
        metrics[name] = (first.get(name, 0) / n, unit)
    metrics["trace.overhead_s"] = (_best(traced) - _best(untraced), "s")
    notes = {
        "tracing": f"{len(untraced)} untraced and {len(traced)} traced passes over {n} inputs, "
                 f"{len(tracer.start)} spans, {errors} raised",
        "bindings": bound,
    }
    return metrics, notes, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs and one set-up probe (smoke test)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    for var in BLAS_VARS:
        os.environ[var] = "1"
    cli = _import_program()
    from workloads import WORKLOADS  # imports numpy, so only after the BLAS pin

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH_DIR) as tmp:
        ops, items_per_op = workload.build(args.seed, args.tiny, Path(tmp))
        if args.setup_probe:
            ready = time.monotonic()
            _reference_seconds()  # warm-up
            print(ready, statistics.median(_reference_seconds() for _ in range(5)))
            return 0
        runner = Runner(cli, workload, ops)
        if args.trace:
            metrics, notes, problems = _per_layer(args, runner, Tracer())
            printed = {}
        else:
            metrics, printed, notes = _end_to_end(args, workload, runner, items_per_op)
            problems = []

    health = runner.health_value() if len(runner.health) == len(ops) else None
    if args.trace:
        # every workload's health metric is printed; those of other workloads read 0
        for other in WORKLOADS.values():
            value = health if other is workload and health is not None else 0
            metrics[other.health] = (value, other.health_unit)
    error_rate = runner.failed / runner.attempted
    print(f"workload {workload.name}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}: "
          f"closed loop, 1 caller, BLAS threads 1")
    for name, (value, unit) in {**metrics, **printed}.items():
        note = notes.get(name)
        print(f"{name:<40} {value:<14.6g} {unit}" + (f"   ({note})" if note else ""))
    print(f"{'error_rate':<40} {error_rate:<14.6g} ratio   "
          f"({runner.failed} failed of {runner.attempted} attempted)")
    detail = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "output_sha256": runner.output_sha256(),
        "health": {workload.health: health}, "error_rate": error_rate,
        "problems": runner.problems + problems, "machine": _machine(),
        **{k: v for k, v in notes.items() if k not in metrics and k not in printed},
    }
    print("detail " + json.dumps(detail))
    result = {
        "correct": runner.failed == 0 and not problems and health is not None,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
