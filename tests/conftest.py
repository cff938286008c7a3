"""Shared random-object builders and oracles for the test suite."""
from __future__ import annotations

import math
from math import comb

import numpy as np

from slitsim import dynamics
from slitsim.qcore import DensityMatrix, PureBipartiteState
from slitsim.reports import DENSE_SCAN_HALF_SPAN_MM, DENSE_SCAN_POINTS


def joint_density(psi: PureBipartiteState) -> DensityMatrix:
    """Density matrix of the full pair in the product basis |l>|m>."""
    return DensityMatrix.from_vector(psi.amplitudes.ravel())


def partial_trace(rho: DensityMatrix, dims: tuple[int, int], keep: str) -> DensityMatrix:
    """Reduced density matrix of one subsystem of a bipartite state.

    ``dims = (dim_s, dim_i)`` are the subsystem dimensions in the product
    basis |l>_s |m>_i; ``keep`` selects which subsystem survives.
    """
    dim_s, dim_i = dims
    if rho.dim != dim_s * dim_i:
        raise ValueError(f"dims {dims} do not factor a {rho.dim}-dimensional matrix")
    r = rho.matrix.reshape(dim_s, dim_i, dim_s, dim_i)
    if keep == "signal":
        reduced = np.einsum("imjm->ij", r)
    elif keep == "idler":
        reduced = np.einsum("lilj->ij", r)
    else:
        raise ValueError(f"keep must be 'signal' or 'idler', got {keep!r}")
    return DensityMatrix(reduced)


def purity(rho: DensityMatrix) -> float:
    """Tr(rho^2), in (0, 1]."""
    return float(np.real(np.trace(rho.matrix @ rho.matrix)))


def schmidt_coefficients(psi: PureBipartiteState) -> np.ndarray:
    """Squared singular values of the amplitude matrix, descending."""
    s = np.linalg.svd(psi.amplitudes, compute_uv=False)
    return np.sort(s**2)[::-1]


def dense_scan_positions() -> np.ndarray:
    """The default position grid of the `pattern` command."""
    return np.linspace(-DENSE_SCAN_HALF_SPAN_MM, DENSE_SCAN_HALF_SPAN_MM, DENSE_SCAN_POINTS)


def random_density(rng: np.random.Generator, d: int) -> DensityMatrix:
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = a @ a.conj().T
    return DensityMatrix(h / np.trace(h).real)


def random_pure(rng: np.random.Generator, dim_s: int, dim_i: int) -> PureBipartiteState:
    c = rng.normal(size=(dim_s, dim_i)) + 1j * rng.normal(size=(dim_s, dim_i))
    return PureBipartiteState(c / np.linalg.norm(c))


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_schmidt_qutrit(rng: np.random.Generator) -> PureBipartiteState:
    """Anti-diagonal qutrit pair state with non-negative amplitudes."""
    amps = rng.uniform(0.05, 1.0, size=3)
    amps = amps / np.linalg.norm(amps)
    c = np.zeros((3, 3), dtype=complex)
    for level, a in enumerate(amps):
        c[level, 2 - level] = a
    return PureBipartiteState(c)


def dephasing_kraus(d: int) -> tuple[np.ndarray, ...]:
    """The d+1 dephasing Kraus operators: sign flips K_0..K_{d-1} (-1 at slit j), then the identity."""
    return tuple(np.diag(np.where(np.arange(d) == j, -1.0, 1.0)) for j in range(d)) + (np.eye(d),)


def kraus_sum(ops, weights, rho: DensityMatrix) -> np.ndarray:
    """sum_i w_i K_i rho K_i^dagger, one operator at a time."""
    out = np.zeros_like(rho.matrix)
    for op, w in zip(ops, weights, strict=True):
        out = out + w * (op @ rho.matrix @ op.conj().T)
    return out


def dephasing_by_kraus(weights, rho: DensityMatrix) -> np.ndarray:
    """Oracle for channels.apply_channel: the Kraus sum with flip weights {p_i} and the
    identity weighted 1 - sum(p_i)."""
    ws = [float(w) for w in weights]
    return kraus_sum(dephasing_kraus(rho.dim), ws + [max(1.0 - sum(ws), 0.0)], rho)


def damping_kraus(d: int, gamma_t: float, k: int) -> np.ndarray:
    """Kraus operator k of the closed-form damping channel (Chuang, Leung & Yamamoto, PRA 56, 1114 (1997)):
    K_k = sum_n sqrt(C(n, k)) e^{-(n-k) gamma t} (1 - e^{-2 gamma t})^{k/2} |n-k><n|."""
    loss = -np.expm1(-2.0 * gamma_t)
    kraus = np.zeros((d, d))
    for n in range(k, d):
        kraus[n - k, n] = np.sqrt(comb(n, k)) * np.exp(-(n - k) * gamma_t) * loss ** (k / 2)
    return kraus


def jump_free_oracle(psi: PureBipartiteState, gamma_t: float, convention: str = "amplitude"):
    """(K_0 x I) psi renormalized, and its squared norm; the population convention halves the rate."""
    rate = {"amplitude": 1.0, "population": 0.5}[convention]
    filtered = damping_kraus(psi.dim_s, rate * gamma_t, 0) @ psi.amplitudes
    survival = float(np.sum(np.abs(filtered) ** 2))
    return filtered / np.sqrt(survival), survival


def lowering(d: int) -> np.ndarray:
    """Truncated lowering operator a|n> = sqrt(n)|n-1>."""
    return np.diag(np.sqrt(np.arange(1, d)), 1)


def stagewise_rhs(model: dynamics.DampingModel, rho: np.ndarray) -> np.ndarray:
    """The damping generator written term by term, c rho c+ - {c+ c, rho} / 2 with c = sqrt(2 gamma) a,
    on one matrix or a stack of them."""
    c = math.sqrt(2.0 * model.gamma) * lowering(model.dim)
    c_dag = c.conj().T
    return c @ rho @ c_dag - 0.5 * (c_dag @ c @ rho + rho @ c_dag @ c)


def rk4_step_loop(model: dynamics.DampingModel, rho0: np.ndarray, t: float, steps: int) -> np.ndarray:
    """Reference for dynamics.integrate_master: ``steps`` RK4 steps of h = t / steps, each the
    Horner polynomial r + h L(r + h/2 L(r + h/3 L(r + h/4 L r))) applied one generator call at a time."""
    h = t / steps
    r = np.array(rho0, dtype=np.complex128)
    for _ in range(steps):
        x = r + (h / 4.0) * stagewise_rhs(model, r)
        x = r + (h / 3.0) * stagewise_rhs(model, x)
        x = r + (h / 2.0) * stagewise_rhs(model, x)
        r = r + h * stagewise_rhs(model, x)
    return 0.5 * (r + r.conj().T)


def no_jump_step(model: dynamics.DampingModel, psi: np.ndarray, dt: float) -> tuple[np.ndarray, float]:
    """One jump-free interval of the step rule (Plenio & Knight, RMP 70, 101 (1998)):
    level n shrinks by exp(-n gamma dt), then renormalize.

    Returns the renormalized state together with the survival probability
    (the squared norm before renormalization).
    """
    v = np.asarray(psi, dtype=np.complex128)
    if v.shape != (model.dim,):
        raise ValueError(f"expected a {model.dim}-vector")
    scaled = v * dynamics._jump_free_factors(model.dim, model.gamma * dt)
    survival = float(np.sum(np.abs(scaled) ** 2))
    if survival == 0.0:
        raise ValueError("no-jump evolution annihilated the state; dt inconsistent")
    return scaled / np.sqrt(survival), survival


def jump_step(model: dynamics.DampingModel, psi: np.ndarray) -> np.ndarray:
    """One quantum jump of the step rule: apply the lowering operator and renormalize."""
    v = np.asarray(psi, dtype=np.complex128)
    if v.shape != (model.dim,):
        raise ValueError(f"expected a {model.dim}-vector")
    lowered = lowering(model.dim) @ v
    norm = np.linalg.norm(lowered)
    if norm == 0.0:
        raise ValueError("jump impossible: state has no support above the ground level")
    return lowered / norm
