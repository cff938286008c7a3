"""The diagonal-phase dephasing family.

A dephasing channel over dimension d mixes d sign-flip operators with the
identity: operator j is diagonal with -1 at slit j and +1 elsewhere.  Mixing
them with weights {p_i}, and the identity with 1 - sum(p_i), leaves
populations untouched and scales each coherence rho_ij by (1 - 2 p_i - 2 p_j).
The channel is held as its flip weights and applied in that closed form.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qcore import DensityMatrix, _check_dim

WEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class DephasingChannel:
    """Sign-flip weights p_0..p_{d-1}, one per slit; the identity's weight
    1 - sum(p_i) is implied, so the channel is trace preserving by construction."""

    weights: tuple[float, ...]

    def __post_init__(self):
        ws = tuple(float(w) for w in self.weights)
        _check_dim(len(ws), "d")
        if not all(math.isfinite(w) for w in ws):
            raise ValueError(f"weights must be finite, got {list(ws)}")
        if any(w < 0 for w in ws):
            raise ValueError("weights must be non-negative")
        total = sum(ws)
        if total > 1.0 + WEIGHT_TOL:
            raise ValueError(f"weights sum to {total:.15g} > 1")
        object.__setattr__(self, "weights", ws)

    @property
    def dim(self) -> int:
        return len(self.weights)


def _uniform_flip_weight(d: int, p: float) -> float:
    """The one meaning of the dephasing parameter: every sign flip gets weight p/4,
    so each coherence scales by exactly (1 - p) at any d; the d flips share at
    most unit weight, so p <= 4/d."""
    _check_dim(d, "d")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    if d * p / 4.0 > 1.0 + WEIGHT_TOL:
        raise ValueError(
            f"p = {p} is not realizable at d = {d}: the uniform sign-flip weight p/4 "
            f"needs p <= 4/d = {4.0 / d:.6g}"
        )
    return p / 4.0


def uniform_dephasing_channel(d: int, p: float) -> DephasingChannel:
    """Single-parameter channel: sign-flip weights p/4 scale every coherence by (1 - p)."""
    return DephasingChannel((_uniform_flip_weight(d, p),) * d)


def apply_channel(chan: DephasingChannel, rho: DensityMatrix) -> DensityMatrix:
    """The dephasing law: rho_ii kept, rho_ij scaled by (1 - 2p_i - 2p_j)."""
    if chan.dim != rho.dim:
        raise ValueError(f"channel dim {chan.dim} != state dim {rho.dim}")
    ws = np.asarray(chan.weights)
    scale = 1.0 - 2.0 * (ws[:, None] + ws[None, :])
    np.fill_diagonal(scale, 1.0)
    return DensityMatrix(rho.matrix * scale)
