"""Reproduction reports: the dephasing-recovery grid and the damping series.

Both reports are deterministic given their seed and emit plain text tables
(plot-ready, no graphics).
"""
from __future__ import annotations

import numpy as np

from .channels import apply_channel
from .datasets import MEASURED_CONCURRENCE
from .experiment import (
    CountsTable,
    SlitStatePrep,
    anti_correlated_block,
    concurrence_uncertainty,
    populations,
    prepare_state,
    reconstruct_state,
)
from .film import compile_film, effective_channel
from .optics import OpticalGeometry, fit_p, synthesize_scan, x_pi
from .qcore import i_concurrence
from .rng import child_seed

# Dephasing grid implemented by 32-frame films on a four-slit state.
P_GRID = tuple(i / 8 for i in range(9))
FILM_DIMENSION = 4
FILM_FRAMES = 32

# Sparse scan mirroring the bench acquisition: few points, three fringe
# periods, so quoted uncertainties sit at the measured scale.
REPORT_SCAN_POINTS = 9
REPORT_SCAN_HALF_SPAN_MM = 0.852

# Dense scan for accuracy-focused fits and the default of the pattern command.
DENSE_SCAN_POINTS = 21
DENSE_SCAN_HALF_SPAN_MM = 0.55

CONCURRENCE_FLAG_THRESHOLD = 0.02


def report_scan_positions() -> np.ndarray:
    return np.linspace(-REPORT_SCAN_HALF_SPAN_MM, REPORT_SCAN_HALF_SPAN_MM, REPORT_SCAN_POINTS)


def dephasing_recovery_report(
    seed: int,
    peak_counts: float = 500.0,
    noiseless: bool = False,
) -> tuple[str, bool]:
    """Film -> channel -> synthetic scans -> fit, for every grid value of p.

    Each row compiles the film, applies its effective channel to the
    maximally entangled four-slit pair state, synthesizes one idler scan at
    each standard signal position (0 and the anti-fringe point), and fits p
    back out.  A cell passes when |p_hat - p_predicted| <= 3 sigma.
    """
    geom = OpticalGeometry()
    rho0 = anti_correlated_block(prepare_state(SlitStatePrep.uniform(FILM_DIMENSION)))
    positions = report_scan_positions()
    fixed = (("x=0", 0.0), ("x=x_pi", x_pi(geom)))

    lines = [
        "dephasing parameter recovery",
        f"films: {FILM_FRAMES} frames, d={FILM_DIMENSION}; "
        f"scans: {len(positions)} points, peak {peak_counts:g} counts, "
        f"{'noiseless' if noiseless else f'Poisson noise, seed {seed}'}",
        "",
        "p_predicted  p_x0      sigma_x0  ok_x0  p_xpi     sigma_xpi  ok_xpi",
    ]
    all_pass = True
    for row, p in enumerate(P_GRID):
        film = compile_film(FILM_DIMENSION, p, FILM_FRAMES)
        dephased = apply_channel(effective_channel(film), rho0)
        cells = []
        for col, (_, x_fixed) in enumerate(fixed):
            scan = synthesize_scan(
                geom,
                dephased,
                0.0,
                "signal",
                x_fixed,
                positions,
                peak_counts,
                child_seed(seed, row, col),
                noiseless=noiseless,
            )
            result = fit_p(scan, geom, rho0)
            ok = abs(result.p_hat - p) <= 3.0 * result.sigma_p
            all_pass = all_pass and ok
            cells.append((result.p_hat, result.sigma_p, ok))
        (p0, s0, ok0), (p1, s1, ok1) = cells
        lines.append(
            f"{p:<11.3f} {p0:<9.4f} {s0:<9.4f} {'yes' if ok0 else 'NO ':<6} "
            f"{p1:<9.4f} {s1:<10.4f} {'yes' if ok1 else 'NO'}"
        )
    lines.append("")
    lines.append(f"overall: {'pass' if all_pass else 'FAIL'} "
                 f"(criterion: |p_hat - p_predicted| <= 3 sigma per cell)")
    return "\n".join(lines) + "\n", all_pass


def damping_series_report(
    tables: list[CountsTable],
    *,
    seed: int,
    n_resamples: int = 1000,
) -> tuple[str, bool]:
    """Per-column state reconstruction, concurrence, and population summary.

    Every table must be 3x3, one row and column per Sagnac level.

    Reconstructed concurrences are compared against the measured reference
    values where available; any absolute difference above
    CONCURRENCE_FLAG_THRESHOLD is flagged.
    """
    lines = [
        "damping-series concurrence reconstruction",
        f"bootstrap: {n_resamples} Poisson resamples per column, seed {seed}",
        "",
        "gamma_t  total  concurrence  sigma    reference      delta    flag   "
        "pop_s0  pop_s1  pop_s2",
    ]
    for table in tables:
        if table.counts.shape != (3, 3):
            raise ValueError(
                f"counts block gamma_t={table.gamma_t} has shape {table.counts.shape}; "
                "the damping series needs 3x3 tables (three Sagnac levels)"
            )
    all_ok = True
    for col, table in enumerate(tables):
        state = reconstruct_state(table)
        conc = i_concurrence(state)
        sigma = concurrence_uncertainty(table, seed=child_seed(seed, col), n_resamples=n_resamples)
        sig_pop, _ = populations(table)
        ref = MEASURED_CONCURRENCE.get(round(table.gamma_t, 6)) if table.gamma_t is not None else None
        if ref is None:
            ref_txt, delta_txt, flag = "n/a          ", "n/a     ", ""
        else:
            delta = conc - ref[0]
            flagged = abs(delta) > CONCURRENCE_FLAG_THRESHOLD
            all_ok = all_ok and not flagged
            ref_txt = f"{ref[0]:.3f}+-{ref[1]:.3f}"
            delta_txt = f"{delta:+.4f} "
            flag = "FLAG" if flagged else "ok"
        gt = f"{table.gamma_t:.2f}" if table.gamma_t is not None else "?"
        lines.append(
            f"{gt:<8} {table.total:<6d} {conc:<12.4f} {sigma:<8.4f} {ref_txt:<14} "
            f"{delta_txt:<8} {flag:<6} "
            f"{sig_pop[0]:<7.4f} {sig_pop[1]:<7.4f} {sig_pop[2]:<7.4f}"
        )
    lines.append("")
    lines.append(
        f"overall: {'ok' if all_ok else 'FLAGGED'} "
        f"(threshold |delta| > {CONCURRENCE_FLAG_THRESHOLD})"
    )
    return "\n".join(lines) + "\n", all_ok
