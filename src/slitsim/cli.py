"""Command-line surface.

Subcommands: prepare | dephase | film | damp | trajectories | pattern |
fit-p | reproduce-table1 | reproduce-table2.  Every stochastic command
takes an explicit --seed; identical invocations produce identical output
bytes.  Exit codes: 0 success, 1 validation error, 2 a reproduction
report failed its own threshold.
"""
from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

import numpy as np

from . import datasets, fileio, reports
from .channels import apply_channel, uniform_dephasing_channel
from .dynamics import (
    MAX_STEPS,
    STEP_PROBABILITY_BOUND,
    DampingModel,
    TrajectoryConfig,
    integrate_master,
    resolve_convention,
    run_trajectories,
)
from .experiment import SlitStatePrep, anti_correlated_block, apply_sagnac, prepare_state
from .film import DEFAULT_FRAMES, compile_film
from .optics import MAX_SCAN_POINTS, MIN_SCAN_SAMPLES, OpticalGeometry, fit_p, synthesize_scan, x_pi
from .qcore import DensityMatrix, PureBipartiteState, i_concurrence, trace_distance


# What a command returns to main: exit code, stdout text, --out document (None: no --out).
_Output = tuple[int, str, str | None]


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to the validation exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load_pair_density(path: str | None, d: int | None = None) -> DensityMatrix:
    """Pair-basis density from a state file, or the uniform d-slit default."""
    if path is None:
        return anti_correlated_block(prepare_state(SlitStatePrep.uniform(d)))
    state = fileio.parse_state(Path(path).read_text())
    if isinstance(state, PureBipartiteState):
        return anti_correlated_block(state)
    return state


def _noise_seed(args) -> int:
    """The --seed of a command that may run --noiseless, where no seed is needed."""
    if not args.noiseless and args.seed is None:
        raise ValueError("--seed is required unless --noiseless is given")
    return 0 if args.seed is None else args.seed


def _cmd_prepare(args) -> _Output:
    if args.uniform:
        prep = SlitStatePrep.uniform(args.d)
    elif args.amps:
        amps = tuple(float(t) for t in args.amps.split(","))
        prep = SlitStatePrep(args.d, amps)
    else:
        raise ValueError("provide --amps or --uniform")
    psi = prepare_state(prep)
    return 0, f"concurrence: {i_concurrence(psi):.4f}\n", fileio.format_state(psi)


def _cmd_dephase(args) -> _Output:
    rho = _load_pair_density(args.state)
    out = apply_channel(uniform_dephasing_channel(rho.dim, args.p), rho)
    off = ~np.eye(rho.dim, dtype=bool)
    expected = (1.0 - args.p) * rho.matrix[off]
    dev = float(np.max(np.abs(out.matrix[off] - expected))) if off.any() else 0.0
    text = f"off-diagonal scaling: (1 - p) = {1.0 - args.p:.6g}, max deviation {dev:.3e}\n"
    return 0, text, fileio.format_state(out)


def _cmd_film(args) -> _Output:
    film = compile_film(args.d, args.p, args.n_frames)
    *flips, identity = map(float, film.weight_fractions())
    weights = ", ".join(f"{w:.6g}" for w in flips)
    text = f"frames: {film.n_frames}, operator weights: [{weights}], identity weight: {identity:.6g}\n"
    return 0, text, fileio.format_film(film)


def _cmd_damp(args) -> _Output:
    convention = resolve_convention(args.convention)
    state = fileio.parse_state(Path(args.state).read_text())
    if not isinstance(state, PureBipartiteState):
        raise ValueError("damp expects a pure bipartite state file")
    evolved, survival = apply_sagnac(state, args.gamma_t, convention)
    text = (f"convention: {convention}\n"
            f"concurrence: {i_concurrence(evolved):.4f}\n"
            f"survival probability: {survival:.6f}\n")
    return 0, text, fileio.format_state(evolved)


def _cmd_trajectories(args) -> _Output:
    model = DampingModel(args.dim, args.gamma)
    if not 0 <= args.initial_level < args.dim:
        raise ValueError("initial level outside the truncated space")
    psi0 = np.zeros(args.dim, dtype=complex)
    psi0[args.initial_level] = 1.0
    dt = args.dt
    if dt is None and model.gamma > 0:
        dt = STEP_PROBABILITY_BOUND / (2.0 * model.gamma * model.dim)
        if not 0.0 < dt < math.inf:  # 2 gamma dim overflowed or is subnormal
            raise ValueError(f"the default step {STEP_PROBABILITY_BOUND:g} / (2 gamma dim) is not finite "
                             f"and positive at gamma = {model.gamma:g}; give --dt")
        if math.isfinite(args.t) and args.t > MAX_STEPS * dt:
            raise ValueError(f"t = {args.t:g} at the default step {STEP_PROBABILITY_BOUND:g} / (2 gamma dim) "
                             f"= {dt:.3g} for gamma = {model.gamma:g} exceeds the {MAX_STEPS} steps allowed; "
                             "give --dt")
    elif dt is None:
        dt = args.t or 1.0
    cfg = TrajectoryConfig(args.n, dt, args.seed)
    rho = run_trajectories(model, psi0, args.t, cfg)
    pops = ", ".join(f"{v:.4f}" for v in np.real(np.diag(rho.matrix)))
    text = f"trajectories: {args.n}, steps dt = {dt:.6g}\npopulations: [{pops}]\n"
    if args.compare_master:
        rho_m = integrate_master(model, DensityMatrix.from_vector(psi0), args.t, dt)
        text += f"trace distance to master solution: {trace_distance(rho, rho_m):.4f}\n"
    return 0, text, fileio.format_state(rho)


def _cmd_pattern(args) -> _Output:
    geom = OpticalGeometry()
    rho0 = _load_pair_density(args.state, args.d)
    seed = _noise_seed(args)
    fixed = x_pi(geom) if args.at_xpi else args.fixed_position_mm
    if not MIN_SCAN_SAMPLES <= args.points <= MAX_SCAN_POINTS:
        raise ValueError(
            f"points must lie in [{MIN_SCAN_SAMPLES}, MAX_SCAN_POINTS = {MAX_SCAN_POINTS}], got {args.points}"
        )
    for option, value in (("--start-mm", args.start_mm), ("--stop-mm", args.stop_mm)):
        if not math.isfinite(value):
            raise ValueError(f"{option} must be finite, got {value}")
    if not math.isfinite(args.stop_mm - args.start_mm):  # linspace divides this span
        raise ValueError(f"the span from --start-mm {args.start_mm:g} to --stop-mm {args.stop_mm:g} "
                         "overflows")
    positions = np.linspace(args.start_mm, args.stop_mm, args.points)
    scan = synthesize_scan(geom, rho0, args.p, args.fixed_arm, fixed, positions,
                           args.peak_counts, seed, noiseless=args.noiseless)
    text = (f"scan: {args.points} points in [{args.start_mm}, {args.stop_mm}] mm, "
            f"fixed {args.fixed_arm} at {fixed:.4f} mm\n")
    return 0, text, fileio.format_scan(scan, geom)


def _cmd_fit_p(args) -> _Output:
    scan, geom = fileio.parse_scan(Path(args.scan).read_text())
    rho0 = _load_pair_density(args.state, args.d)
    result = fit_p(scan, geom, rho0)
    text = f"p_hat: {result.p_hat:.6f}\nsigma_p: {result.sigma_p:.6f}\nscale: {result.scale_hat:.6g}\n"
    if scan.p_true is not None:
        error = round(result.p_hat - scan.p_true, 6) + 0.0  # + 0.0 turns -0.0 into +0.0
        text += f"p_true: {scan.p_true:.6f} (error {error:+.6f})\n"
    return 0, text, None


def _cmd_reproduce_table1(args) -> _Output:
    text, all_pass = reports.dephasing_recovery_report(
        _noise_seed(args), peak_counts=args.peak_counts, noiseless=args.noiseless
    )
    return (0 if all_pass else 2), text, text


def _cmd_reproduce_table2(args) -> _Output:
    if args.counts is None:
        tables = datasets.damping_counts()
    else:
        tables = fileio.parse_counts_text(Path(args.counts).read_text())
    text, all_ok = reports.damping_series_report(tables, seed=args.seed, n_resamples=args.resamples)
    return (0 if all_ok else 2), text, text


@functools.cache  # one parser per process; each parse_args returns a fresh Namespace
def _build_parser() -> _Parser:
    parser = _Parser(prog="slitsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="write a slit pair state and print its concurrence")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--amps", help="comma-separated per-slit amplitudes")
    p.add_argument("--uniform", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_prepare)

    p = sub.add_parser("dephase", help="apply the single-parameter dephasing channel")
    p.add_argument("--state", required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_dephase)

    p = sub.add_parser("film", help="compile a dephasing parameter into a frame schedule")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--n-frames", type=int, default=DEFAULT_FRAMES)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_film)

    p = sub.add_parser("damp", help="jump-free damping (the Sagnac filter) of a pure pair state")
    p.add_argument("--state", required=True)
    p.add_argument("--gamma-t", type=float, required=True)
    p.add_argument("--convention", default="amplitude",
                   choices=["amplitude", "population", "eq17", "table2"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_damp)

    p = sub.add_parser("trajectories", help="stochastic jump/no-jump ensemble average")
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--initial-level", type=int, default=2)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--dt", type=float)
    p.add_argument("--n", type=int, default=10000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--compare-master", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_trajectories)

    p = sub.add_parser("pattern", help="synthesize a coincidence scan")
    p.add_argument("--d", type=int, default=4)
    p.add_argument("--state", help="state file for the pair density (default: uniform)")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--fixed-arm", default="signal", choices=["signal", "idler"])
    p.add_argument("--fixed-position-mm", type=float, default=0.0)
    p.add_argument("--at-xpi", action="store_true",
                   help="fix the detector at the anti-fringe point")
    p.add_argument("--start-mm", type=float, default=-reports.DENSE_SCAN_HALF_SPAN_MM)
    p.add_argument("--stop-mm", type=float, default=reports.DENSE_SCAN_HALF_SPAN_MM)
    p.add_argument("--points", type=int, default=reports.DENSE_SCAN_POINTS)
    p.add_argument("--peak-counts", type=float, default=500.0)
    p.add_argument("--seed", type=int)
    p.add_argument("--noiseless", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_pattern)

    p = sub.add_parser("fit-p", help="estimate the dephasing parameter from a scan file")
    p.add_argument("--scan", required=True)
    p.add_argument("--d", type=int, default=4)
    p.add_argument("--state", help="state file for the pair density (default: uniform)")
    p.set_defaults(func=_cmd_fit_p)

    p = sub.add_parser("reproduce-table1", help="dephasing recovery grid report")
    p.add_argument("--seed", type=int)
    p.add_argument("--peak-counts", type=float, default=500.0)
    p.add_argument("--noiseless", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_reproduce_table1)

    p = sub.add_parser("reproduce-table2", help="damping-series concurrence report")
    p.add_argument("--counts", help="counts file (default: packaged measurement data)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--resamples", type=int, default=1000)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_reproduce_table2)

    return parser


def main(argv=None) -> int:
    """Run one command line (default ``sys.argv[1:]``) and return its exit code.

    Commands return an ``_Output`` and do no I/O; this is the one place
    that writes --out, first, and then prints.  An error while computing
    or writing prints one ``error:`` line to stderr, nothing to stdout,
    and returns 1.  In-process callers may call it repeatedly: the parser
    is built on the first call and reused, and each call parses into a
    fresh namespace.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code, text, document = args.func(args)
        if document is not None:
            Path(args.out).write_text(document)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(text, end="")
    return code


if __name__ == "__main__":
    sys.exit(main())
