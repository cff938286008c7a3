"""Dense complex linear algebra for small quantum systems.

States are immutable value objects wrapping numpy arrays;
every operation is a pure function.  Slit states and oscillator models
stay small (d <= MAX_DIM = 16), so everything is stored densely in double
precision.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
# Counts-derived matrices can carry tiny negative eigenvalues from rounding.
EIGENVALUE_TOL = 1e-9
NORM_TOL = 1e-10

# Largest slit-state or oscillator dimension, checked before anything d-sized
# is allocated: integrate_master's step superoperator alone holds d^4 entries.
MAX_DIM = 16


def _check_dim(d: int, name: str = "dim") -> None:
    """The one slit-state and oscillator dimension rule, 2 <= d <= MAX_DIM."""
    if d < 2:
        raise ValueError(f"{name} must be at least 2, got {d}")
    if d > MAX_DIM:
        raise ValueError(f"{name} must be at most MAX_DIM = {MAX_DIM}, got {d}")


def _normalized(v: np.ndarray) -> np.ndarray:
    """v / ||v|| for a non-zero float64 or complex128 array of any finite scale: v is first
    scaled by the exact power of two that brings its largest real or imaginary part into
    [1/2, 1), so the squares in the norm cannot overflow or underflow, and the bits of
    v / ||v|| are kept wherever they would not have.  The division runs on the real
    float64 view: numpy's complex division can leave a lone amplitude at 0.9999999999999999."""
    parts = np.ascontiguousarray(v).view(np.float64)
    parts = np.ldexp(parts, -np.frexp(np.abs(parts).max())[1])
    return (parts / np.linalg.norm(parts)).view(v.dtype)


def _frozen_complex(entries, name: str) -> np.ndarray:
    m = np.array(entries, dtype=np.complex128)
    if not np.all(np.isfinite(m.view(np.float64))):
        raise ValueError(f"{name} contains non-finite entries")
    m.setflags(write=False)
    return m


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix (within tolerance)."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _frozen_complex(self.matrix, "density matrix")
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise ValueError(f"density matrix must be square, got shape {m.shape}")
        herm = np.max(np.abs(m - m.conj().T))
        if herm > HERMITICITY_TOL:
            raise ValueError(f"density matrix not Hermitian (max deviation {herm:.3e})")
        tr = np.trace(m)
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix trace {tr:.12g} != 1")
        lam_min = float(np.linalg.eigvalsh(m)[0])
        if lam_min < -EIGENVALUE_TOL:
            raise ValueError(f"density matrix not positive semidefinite (lambda_min {lam_min:.3e})")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_vector(cls, psi) -> "DensityMatrix":
        """|psi><psi| for a normalized state vector."""
        v = np.asarray(psi, dtype=np.complex128).ravel()
        n = np.linalg.norm(v)
        if n == 0:
            raise ValueError("cannot form a density matrix from the zero vector")
        v = v / n
        return cls(np.outer(v, v.conj()))


@dataclass(frozen=True)
class PureBipartiteState:
    """Pure state of a signal x idler pair, stored as the amplitude matrix c[l][m]."""

    amplitudes: np.ndarray

    def __post_init__(self):
        c = _frozen_complex(self.amplitudes, "amplitude matrix")
        if c.ndim != 2 or min(c.shape) < 1:
            raise ValueError(f"amplitude matrix must be 2-d, got shape {c.shape}")
        with np.errstate(over="ignore"):  # a huge amplitude gives an inf total, rejected below
            total = float(np.sum(np.abs(c) ** 2))
        if abs(total - 1.0) > NORM_TOL:
            raise ValueError(f"state not normalized (sum |c|^2 = {total:.12g})")
        object.__setattr__(self, "amplitudes", c)

    @property
    def dim_s(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def dim_i(self) -> int:
        return self.amplitudes.shape[1]


def _i_concurrence(c: np.ndarray) -> np.ndarray:
    """I-concurrence of each normalized amplitude matrix in a (..., d, d) stack.

    With the stack axes last, g[l, k] = sum_m c_lm conj(c_km) is d products
    of whole (d, d, ...) slabs and the purity is sum_lk |g_lk|^2, in float64
    for real input and complex128 only for complex input.  Both sums run in
    a fixed order (numpy reductions switch to pairwise summation on
    contiguous axes), so a matrix gets the same bits in any stack.
    """
    d = c.shape[-1]
    if c.shape[-2] != d or d < 2:
        raise ValueError(f"i_concurrence requires equal subsystem dimensions >= 2, got {c.shape[-2:]}")
    dtype = np.complex128 if np.iscomplexobj(c) else np.float64
    a = np.ascontiguousarray(c.reshape(-1, d, d).transpose(1, 2, 0), dtype=dtype)
    b = a.conj() if dtype is np.complex128 else a
    g = a[:, None, 0] * b[None, :, 0]
    for m in range(1, d):
        g += a[:, None, m] * b[None, :, m]
    g = g.reshape(d * d, -1)
    terms = g.real**2 + g.imag**2 if dtype is np.complex128 else np.square(g, out=g)
    pur = terms[0].copy()
    for term in terms[1:]:
        pur += term
    omega = math.sqrt(2.0 * (d - 1) / d)
    return (np.sqrt(np.maximum(2.0 * (1.0 - pur), 0.0)) / omega).reshape(c.shape[:-2])


def i_concurrence(psi: PureBipartiteState) -> float:
    """Entanglement of a pure d x d state, normalized to [0, 1].

    sqrt(2 [1 - Tr(rho_reduced^2)]) / Omega with Omega = sqrt(2 (d-1) / d);
    both reduced states give the same value, Tr(rho^2) = ||c c^dagger||_F^2
    (Rungta et al., PRA 64, 042315 (2001)).
    """
    return float(_i_concurrence(psi.amplitudes))


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """(1/2) sum of absolute eigenvalues of (a - b)."""
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    ev = np.linalg.eigvalsh(a.matrix - b.matrix)
    return 0.5 * float(np.sum(np.abs(ev)))
