"""Acceptance suite: every criterion at its stated tolerance and budget.

Each test prints one PASS/FAIL line (run pytest with -s to see them all).
"""
import time
from fractions import Fraction

import numpy as np

from conftest import (
    dense_scan_positions,
    dephasing_by_kraus,
    jump_free_oracle,
    random_density,
    random_pure,
    random_schmidt_qutrit,
)
from slitsim.channels import DephasingChannel, apply_channel
from slitsim.datasets import MEASURED_CONCURRENCE, damping_counts
from slitsim.dynamics import DampingModel, TrajectoryConfig, integrate_master, run_trajectories
from slitsim.experiment import (
    SlitStatePrep,
    anti_correlated_block,
    apply_sagnac,
    prepare_state,
    reconstruct_state,
)
from slitsim.film import compile_film, effective_channel
from slitsim.optics import OpticalGeometry, fit_p, synthesize_scan, x_pi
from slitsim.qcore import DensityMatrix, PureBipartiteState, i_concurrence, trace_distance
from slitsim.reports import P_GRID
from slitsim.rng import child_seed, derive_rng

GEOM = OpticalGeometry()


def _finish(number: int, description: str, t0: float, limit: float, ok: bool, detail: str):
    elapsed = time.perf_counter() - t0
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"{status} criterion {number} [{elapsed:.2f}s < {limit:g}s]: {description} ({detail})")
    assert ok, f"criterion {number}: {detail}"
    assert elapsed < limit, f"criterion {number} exceeded its {limit:g}s budget ({elapsed:.1f}s)"


def test_criterion_1_dephasing_law():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst_entry = 0.0
    worst_diag = 0.0
    for _ in range(1000):
        d = int(rng.integers(2, 7))
        rho = random_density(rng, d)
        weights = rng.uniform(0.0, 1.0, size=d)
        if weights.sum() > 1.0:
            weights = weights / (weights.sum() * rng.uniform(1.0, 2.0))
        via_kraus = dephasing_by_kraus(weights, rho)
        via_law = apply_channel(DephasingChannel(weights), rho)
        worst_entry = max(worst_entry, float(np.max(np.abs(via_kraus - via_law.matrix))))
        worst_diag = max(worst_diag, float(np.max(np.abs(
            np.diag(via_law.matrix) - np.diag(rho.matrix)
        ))))
    ok = worst_entry < 1e-12 and worst_diag < 1e-12
    _finish(1, "closed-form dephasing equals the weighted Kraus map", t0, 10.0, ok,
            f"1000 cases, worst entry {worst_entry:.2e}, worst diagonal {worst_diag:.2e}")


def test_criterion_2_film_fidelity():
    t0 = time.perf_counter()
    rho0 = anti_correlated_block(prepare_state(SlitStatePrep.uniform(4)))
    ok = True
    for p in P_GRID:
        film = compile_film(4, p, 32)
        w = film.weight_fractions()
        p_exact = Fraction(p).limit_denominator(8)
        for i in range(4):
            for j in range(4):
                if i != j and 1 - 2 * w[i] - 2 * w[j] != 1 - p_exact:
                    ok = False
        out = apply_channel(effective_channel(film), rho0)
        off = ~np.eye(4, dtype=bool)
        if not np.array_equal(out.matrix[off], (1.0 - p) * rho0.matrix[off]):
            ok = False
        if not np.array_equal(np.diag(out.matrix), np.diag(rho0.matrix)):
            ok = False
    _finish(2, "32-frame films scale ququart coherences by exactly (1 - p)", t0, 1.0, ok,
            "rational and float routes exact on the full p grid")


def test_criterion_3_parameter_recovery():
    t0 = time.perf_counter()
    rho0 = anti_correlated_block(prepare_state(SlitStatePrep.uniform(4)))
    positions = dense_scan_positions()
    fixed_positions = (0.0, x_pi(GEOM))

    worst_noiseless = 0.0
    for p in P_GRID:
        for x_fixed in fixed_positions:
            scan = synthesize_scan(GEOM, rho0, p, "signal", x_fixed, positions,
                                   500.0, seed=0, noiseless=True)
            result = fit_p(scan, GEOM, rho0)
            worst_noiseless = max(worst_noiseless, abs(result.p_hat - p))

    hits = 0
    total = 0
    for row, p in enumerate(P_GRID):
        for col, x_fixed in enumerate(fixed_positions):
            for rep in range(100):
                scan = synthesize_scan(GEOM, rho0, p, "signal", x_fixed, positions,
                                       500.0, seed=child_seed(2024, row, col, rep))
                result = fit_p(scan, GEOM, rho0)
                hits += abs(result.p_hat - p) <= 0.07
                total += 1
    coverage = hits / total
    ok = worst_noiseless <= 1e-4 and coverage >= 0.95
    _finish(3, "p recovery: noiseless to 1e-4, Poisson(peak 500) to +-0.07 at 95%",
            t0, 120.0, ok,
            f"worst noiseless {worst_noiseless:.2e}, coverage {coverage:.3f} of {total}")


def test_criterion_4_concurrence_oracle():
    t0 = time.perf_counter()
    ok = True
    details = []
    for table in damping_counts():
        conc = i_concurrence(reconstruct_state(table))
        reference, _ = MEASURED_CONCURRENCE[table.gamma_t]
        tolerance = 0.02 if table.gamma_t == 1.5 else 0.005
        if abs(conc - reference) > tolerance:
            ok = False
            details.append(f"gamma_t={table.gamma_t}: {conc:.4f} vs {reference}")
    _finish(4, "reconstructed concurrences match the measured series", t0, 1.0, ok,
            "all nine columns in tolerance" if ok else "; ".join(details))


def test_criterion_5_entanglement_increase():
    t0 = time.perf_counter()
    table = damping_counts()[0]
    anti = np.array([table.counts[level, 2 - level] for level in range(3)], dtype=float)
    amps = np.sqrt(anti / anti.sum())
    assert amps[0] < amps[1] < amps[2]
    psi0 = prepare_state(SlitStatePrep(3, tuple(amps)))

    curve = [
        i_concurrence(apply_sagnac(psi0, gt, convention="population")[0])
        for gt in np.linspace(0.0, 2.0, 100)
    ]
    interior_maxima = [
        i for i in range(1, 99) if curve[i] > curve[i - 1] and curve[i] > curve[i + 1]
    ]
    peak_index = int(np.argmax(curve))
    c_start = i_concurrence(psi0)
    c_at_one = i_concurrence(apply_sagnac(psi0, 1.0, convention="population")[0])
    ok = (c_at_one > c_start) and len(interior_maxima) == 1 and 0 < peak_index < 99
    _finish(5, "jump-free damping transiently increases the entanglement", t0, 1.0, ok,
            f"C(0)={c_start:.4f}, C(1.0)={c_at_one:.4f}, "
            f"single interior peak at grid index {peak_index}")


def test_criterion_6_trajectories_match_master():
    t0 = time.perf_counter()
    gamma = 1.0
    model = DampingModel(3, gamma)
    psi0 = np.array([0.0, 0.0, 1.0], dtype=complex)
    dt = 1e-2 / (2.0 * gamma * 3)
    distances = []
    for gt in (0.5, 1.0, 2.0):
        rho_traj = run_trajectories(model, psi0, gt, TrajectoryConfig(10_000, dt, seed=12345))
        rho_master = integrate_master(model, DensityMatrix.from_vector(psi0), gt, dt)
        distances.append(trace_distance(rho_traj, rho_master))
    ok = all(dist <= 0.02 for dist in distances)
    _finish(6, "10^4 trajectories track the master equation", t0, 30.0, ok,
            "trace distances " + ", ".join(f"{d:.4f}" for d in distances))


def test_criterion_7_sagnac_is_the_no_jump_map():
    t0 = time.perf_counter()
    rng = derive_rng(777)
    worst = 0.0
    for k in range(100):
        d = 2 + k % 5
        psi = random_pure(rng, d, d)
        for gt in np.linspace(0.0, 3.0, 13):
            for convention in ("amplitude", "population"):
                filtered, prob = apply_sagnac(psi, gt, convention)
                evolved, survival = jump_free_oracle(psi, gt, convention)
                worst = max(worst, float(np.max(np.abs(filtered.amplitudes - evolved))), abs(prob - survival))
    ok = worst < 1e-12
    _finish(7, "the interferometer filter equals the k = 0 Kraus operator of damping", t0, 1.0, ok,
            f"worst amplitude or probability deviation {worst:.2e} at d = 2..6")


def test_criterion_8_survival_monotonicity():
    t0 = time.perf_counter()
    rng = derive_rng(778)
    states = [random_schmidt_qutrit(rng) for _ in range(20)]
    table = damping_counts()[0]
    anti = np.array([table.counts[level, 2 - level] for level in range(3)], dtype=float)
    states.append(prepare_state(SlitStatePrep(3, tuple(np.sqrt(anti / anti.sum())))))
    c = np.zeros((3, 3))
    c[2, 0] = 1.0  # pure top-level support decays fastest
    states.append(PureBipartiteState(c))

    ok = True
    for psi in states:
        grid = np.linspace(0.0, 2.5, 11)
        probs = [apply_sagnac(psi, gt)[1] for gt in grid]
        if not all(b < a for a, b in zip(probs, probs[1:])):
            ok = False
    _finish(8, "no-jump success probability falls strictly with gamma*t", t0, 1.0, ok,
            f"{len(states)} states on an increasing grid")
