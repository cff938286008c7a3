"""Dense complex linear algebra for small quantum systems.

States and operators are immutable value objects wrapping numpy arrays;
every operation is a pure function.  Dimensions in this package stay
small (d <= 16), so everything is stored densely in double precision.
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


def _frozen_complex(entries, name: str) -> np.ndarray:
    m = np.array(entries, dtype=np.complex128)
    if not np.all(np.isfinite(m.view(np.float64))):
        raise ValueError(f"{name} contains non-finite entries")
    m.setflags(write=False)
    return m


@dataclass(frozen=True)
class ComplexOperator:
    """A d x d complex matrix with finite entries."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _frozen_complex(self.matrix, "operator")
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise ValueError(f"operator must be square, got shape {m.shape}")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def identity(dim: int) -> ComplexOperator:
    return ComplexOperator(np.eye(dim))


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

    def joint_density(self) -> DensityMatrix:
        """Density matrix of the full pair in the product basis |l>|m>."""
        return DensityMatrix.from_vector(self.amplitudes.ravel())

    def reduced_signal(self) -> DensityMatrix:
        c = self.amplitudes
        return DensityMatrix(c @ c.conj().T)

    def reduced_idler(self) -> DensityMatrix:
        c = self.amplitudes
        return DensityMatrix(c.T @ c.conj())


def tensor(a: ComplexOperator, b: ComplexOperator) -> ComplexOperator:
    """Kronecker product, dim = dim_a * dim_b."""
    return ComplexOperator(np.kron(a.matrix, b.matrix))


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


def _i_concurrence(c: np.ndarray) -> np.ndarray:
    """I-concurrence of each normalized amplitude matrix in a (..., d, d) stack."""
    d = c.shape[-1]
    if c.shape[-2] != d or d < 2:
        raise ValueError(f"i_concurrence requires equal subsystem dimensions >= 2, got {c.shape[-2:]}")
    c = np.asarray(c, dtype=np.complex128)
    flat = (c @ np.conj(np.swapaxes(c, -1, -2))).reshape(c.shape[:-2] + (d * d,))
    # one row-times-column product per matrix: the conj(x) . x inner product of np.vdot
    pur = (np.conj(flat)[..., None, :] @ flat[..., :, None])[..., 0, 0].real
    omega = math.sqrt(2.0 * (d - 1) / d)
    return np.sqrt(np.maximum(2.0 * (1.0 - pur), 0.0)) / omega


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
