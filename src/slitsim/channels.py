"""Weighted Kraus-operator channels and the diagonal-phase dephasing family.

A dephasing channel over dimension d mixes d sign-flip operators with the
identity: operator j (j < d) is diagonal with -1 at slit j and +1 elsewhere,
operator d is the identity.  Mixing them with weights {p_i} leaves
populations untouched and scales each coherence rho_ij by (1 - 2 p_i - 2 p_j).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qcore import ComplexOperator, DensityMatrix, identity

WEIGHT_TOL = 1e-12
COMPLETENESS_TOL = 1e-10


@dataclass(frozen=True)
class WeightedKrausSet:
    """Kraus operators K_i with probability weights p_i.

    With ``trace_preserving`` the weighted completeness sum must equal the
    identity; otherwise it may sit below it (a filtering operation).
    """

    operators: tuple[ComplexOperator, ...]
    weights: tuple[float, ...]
    trace_preserving: bool = True

    def __post_init__(self):
        ops = tuple(self.operators)
        ws = tuple(float(w) for w in self.weights)
        if len(ops) == 0 or len(ops) != len(ws):
            raise ValueError("need one weight per operator")
        dim = ops[0].dim
        if any(op.dim != dim for op in ops):
            raise ValueError("all Kraus operators must share one dimension")
        if any(w < -WEIGHT_TOL for w in ws):
            raise ValueError("weights must be non-negative")
        if abs(sum(ws) - 1.0) > WEIGHT_TOL:
            raise ValueError(f"weights must sum to 1, got {sum(ws):.15g}")
        total = sum(w * (op.matrix.conj().T @ op.matrix) for op, w in zip(ops, ws))
        gap = np.eye(dim) - total
        if self.trace_preserving:
            if np.max(np.abs(gap)) > COMPLETENESS_TOL:
                raise ValueError("weighted Kraus set is not trace preserving")
        else:
            lam_min = float(np.linalg.eigvalsh(gap)[0])
            if lam_min < -COMPLETENESS_TOL:
                raise ValueError("weighted Kraus completeness sum exceeds the identity")
        object.__setattr__(self, "operators", ops)
        object.__setattr__(self, "weights", ws)

    @property
    def dim(self) -> int:
        return self.operators[0].dim


def dephasing_kraus(d: int) -> list[ComplexOperator]:
    """The d+1 dephasing operators: sign flips K_0..K_{d-1}, then the identity."""
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    ops = []
    for j in range(d):
        diag = np.ones(d)
        diag[j] = -1.0
        ops.append(ComplexOperator(np.diag(diag)))
    ops.append(identity(d))
    return ops


def dephasing_channel(d: int, weights) -> WeightedKrausSet:
    """Dephasing channel with sign-flip weights {p_i}; the identity weight is derived.

    The identity gets 1 - sum(p_i), so callers can never hand in an
    inconsistent total.
    """
    ws = [float(w) for w in weights]
    if len(ws) != d:
        raise ValueError(f"expected {d} weights, got {len(ws)}")
    if any(w < 0 for w in ws):
        raise ValueError("weights must be non-negative")
    total = sum(ws)
    if total > 1.0 + WEIGHT_TOL:
        raise ValueError(f"weights sum to {total:.15g} > 1")
    ws.append(max(1.0 - total, 0.0))
    return WeightedKrausSet(tuple(dephasing_kraus(d)), tuple(ws))


def uniform_dephasing_channel(d: int, p: float) -> WeightedKrausSet:
    """Single-parameter channel with every sign-flip weight p/4.

    Scales every coherence by exactly (1 - p); requires d*p/4 <= 1.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    if d * p / 4.0 > 1.0 + WEIGHT_TOL:
        raise ValueError(
            f"p = {p} is not realizable at d = {d}: the uniform sign-flip weight p/4 "
            f"needs p <= 4/d = {4.0 / d:.6g}"
        )
    return dephasing_channel(d, [p / 4.0] * d)


def apply_channel(chan: WeightedKrausSet, rho: DensityMatrix) -> DensityMatrix:
    """sum_i p_i K_i rho K_i^dagger."""
    if chan.dim != rho.dim:
        raise ValueError(f"channel dim {chan.dim} != state dim {rho.dim}")
    out = np.zeros_like(rho.matrix)
    for op, w in zip(chan.operators, chan.weights):
        out = out + w * (op.matrix @ rho.matrix @ op.matrix.conj().T)
    return DensityMatrix(out)


def dephasing_closed_form(rho: DensityMatrix, weights) -> DensityMatrix:
    """Elementwise dephasing law: rho_ii kept, rho_ij scaled by (1 - 2p_i - 2p_j)."""
    d = rho.dim
    ws = np.asarray([float(w) for w in weights])
    if ws.shape != (d,):
        raise ValueError(f"expected {d} weights, got {ws.shape}")
    if np.any(ws < 0) or ws.sum() > 1.0 + WEIGHT_TOL:
        raise ValueError("weights must be non-negative and sum to at most 1")
    scale = 1.0 - 2.0 * (ws[:, None] + ws[None, :])
    np.fill_diagonal(scale, 1.0)
    return DensityMatrix(rho.matrix * scale)
