"""Command-line surface.

Subcommands: prepare | dephase | film | damp | trajectories | pattern |
fit-p | reproduce-table1 | reproduce-table2.  Every stochastic command
takes an explicit --seed; identical invocations produce identical output
bytes.  Exit codes: 0 success, 1 validation error, 2 a reproduction
report failed its own threshold.
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from . import datasets, fileio, reports
from .channels import apply_channel, dephasing_closed_form, uniform_dephasing_channel
from .dynamics import (
    DampingModel,
    TrajectoryConfig,
    damping_lindblad,
    integrate_master,
    no_jump_conditional_state,
    no_jump_survival,
    resolve_convention,
    run_trajectories,
)
from .experiment import SlitStatePrep, anti_correlated_block, prepare_state
from .film import compile_film, effective_channel
from .optics import OpticalGeometry, fit_p, synthesize_scan, x_pi
from .qcore import DensityMatrix, PureBipartiteState, i_concurrence, trace_distance


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to the validation exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load_pair_density(path: str | None, d: int) -> DensityMatrix:
    """Pair-basis density from a state file, or the uniform d-slit default."""
    if path is None:
        return anti_correlated_block(prepare_state(SlitStatePrep.uniform(d)))
    state = fileio.parse_state(fileio.read_text(path))
    if isinstance(state, PureBipartiteState):
        return anti_correlated_block(state)
    return state


def _cmd_prepare(args) -> int:
    if args.uniform:
        prep = SlitStatePrep.uniform(args.d)
    elif args.amps:
        amps = tuple(float(t) for t in args.amps.split(","))
        prep = SlitStatePrep(args.d, amps)
    else:
        raise ValueError("provide --amps or --uniform")
    psi = prepare_state(prep)
    print(f"concurrence: {i_concurrence(psi):.4f}")
    fileio.write_text(args.out, fileio.format_state(psi))
    return 0


def _cmd_dephase(args) -> int:
    state = fileio.parse_state(fileio.read_text(args.state))
    rho = anti_correlated_block(state) if isinstance(state, PureBipartiteState) else state
    chan = uniform_dephasing_channel(rho.dim, args.p)
    out = dephasing_closed_form(rho, chan.weights[:-1])  # the last weight is the identity's
    cross = apply_channel(chan, rho)
    off = ~np.eye(rho.dim, dtype=bool)
    expected = (1.0 - args.p) * rho.matrix[off]
    dev = float(np.max(np.abs(out.matrix[off] - expected))) if off.any() else 0.0
    routes = float(np.max(np.abs(out.matrix - cross.matrix)))
    print(f"off-diagonal scaling: (1 - p) = {1.0 - args.p:.6g}, "
          f"max deviation {dev:.3e}, closed-form vs Kraus {routes:.3e}")
    fileio.write_text(args.out, fileio.format_state(out))
    return 0


def _cmd_film(args) -> int:
    film = compile_film(args.d, args.p, args.n_frames)
    chan = effective_channel(film)
    flips = ", ".join(f"{w:.6g}" for w in chan.weights[:-1])
    print(f"frames: {film.n_frames}, operator weights: [{flips}], "
          f"identity weight: {chan.weights[-1]:.6g}")
    fileio.write_text(args.out, fileio.format_film(film))
    return 0


def _cmd_damp(args) -> int:
    convention = resolve_convention(args.convention)
    state = fileio.parse_state(fileio.read_text(args.state))
    if not isinstance(state, PureBipartiteState):
        raise ValueError("damp expects a pure bipartite state file")
    evolved = no_jump_conditional_state(state, args.gamma_t, convention)
    survival = no_jump_survival(state, args.gamma_t, convention)
    print(f"convention: {convention}")
    print(f"concurrence: {i_concurrence(evolved):.4f}")
    print(f"survival probability: {survival:.6f}")
    fileio.write_text(args.out, fileio.format_state(evolved))
    return 0


def _cmd_trajectories(args) -> int:
    model = DampingModel(args.dim, args.gamma)
    if not 0 <= args.initial_level < args.dim:
        raise ValueError("initial level outside the truncated space")
    psi0 = np.zeros(args.dim, dtype=complex)
    psi0[args.initial_level] = 1.0
    dt = args.dt
    if dt is None:
        dt = 1e-2 / (2.0 * model.gamma * model.dim) if model.gamma > 0 else args.t or 1.0
    cfg = TrajectoryConfig(args.n, dt, args.seed)
    rho = run_trajectories(model, psi0, args.t, cfg)
    pops = ", ".join(f"{v:.4f}" for v in np.real(np.diag(rho.matrix)))
    print(f"trajectories: {args.n}, steps dt = {dt:.6g}")
    print(f"populations: [{pops}]")
    if args.compare_master:
        rho_m = integrate_master(damping_lindblad(model), DensityMatrix.from_vector(psi0), args.t, dt)
        print(f"trace distance to master solution: {trace_distance(rho, rho_m):.4f}")
    fileio.write_text(args.out, fileio.format_state(rho))
    return 0


def _cmd_pattern(args) -> int:
    geom = OpticalGeometry()
    rho0 = _load_pair_density(args.state, args.d)
    if not args.noiseless and args.seed is None:
        raise ValueError("--seed is required unless --noiseless is given")
    fixed = x_pi(geom) if args.at_xpi else args.fixed_position_mm
    positions = np.linspace(args.start_mm, args.stop_mm, args.points)
    scan = synthesize_scan(
        geom, rho0, args.p, args.fixed_arm, fixed, positions,
        args.peak_counts, 0 if args.seed is None else args.seed,
        noiseless=args.noiseless,
    )
    print(f"scan: {args.points} points in [{args.start_mm}, {args.stop_mm}] mm, "
          f"fixed {args.fixed_arm} at {fixed:.4f} mm")
    fileio.write_text(args.out, fileio.format_scan(scan, geom))
    return 0


def _cmd_fit_p(args) -> int:
    scan, geom = fileio.parse_scan(fileio.read_text(args.scan))
    rho0 = _load_pair_density(args.state, args.d)
    result = fit_p(scan, geom, rho0)
    print(f"p_hat: {result.p_hat:.6f}")
    print(f"sigma_p: {result.sigma_p:.6f}")
    print(f"scale: {result.scale_hat:.6g}")
    if scan.p_true is not None:
        print(f"p_true: {scan.p_true:.6f} (error {result.p_hat - scan.p_true:+.6f})")
    return 0


def _cmd_reproduce_table1(args) -> int:
    if not args.noiseless and args.seed is None:
        raise ValueError("--seed is required unless --noiseless is given")
    text, all_pass = reports.dephasing_recovery_report(
        0 if args.seed is None else args.seed,
        peak_counts=args.peak_counts,
        noiseless=args.noiseless,
    )
    fileio.write_text(args.out, text)
    print(text, end="")
    return 0 if all_pass else 2


def _cmd_reproduce_table2(args) -> int:
    if args.counts is None:
        tables = datasets.damping_counts()
    else:
        tables = fileio.parse_counts_text(fileio.read_text(args.counts))
    text, all_ok = reports.damping_series_report(
        tables, seed=args.seed, n_resamples=args.resamples
    )
    fileio.write_text(args.out, text)
    print(text, end="")
    return 0 if all_ok else 2


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
    p.add_argument("--n-frames", type=int, default=32)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_film)

    p = sub.add_parser("damp", help="jump-free damping evolution of an anti-diagonal state")
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
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
