"""Optical-experiment models: slit-state preparation, the Sagnac amplitude
filter realizing jump-free damping at any d and in either rate convention,
and state and concurrence estimation from coincidence-count tables.

Slit labels run over {-(d-1)/2, ..., (d-1)/2} on the bench; internally
everything uses oscillator levels {0, ..., d-1} (level = label + (d-1)/2),
with the mapping applied only at I/O boundaries.  Momentum conservation
pairs signal level l with idler level d-1-l, so prepared states live on
the anti-diagonal of the amplitude matrix.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import AMPLITUDE, _jump_free_factors
from .qcore import DensityMatrix, PureBipartiteState, _check_dim, _i_concurrence, _normalized
from .rng import derive_rng


@dataclass(frozen=True)
class SlitStatePrep:
    """Per-slit transmission weights imprinted on the pair source."""

    d: int
    amplitudes: tuple[float, ...]

    def __post_init__(self):
        _check_dim(self.d, "d")
        amps = tuple(float(a) for a in self.amplitudes)
        if len(amps) != self.d:
            raise ValueError(f"expected {self.d} amplitudes, got {len(amps)}")
        if not all(math.isfinite(a) for a in amps):
            raise ValueError(f"amplitudes must be finite, got {amps}")
        if any(a < 0 for a in amps):
            raise ValueError("amplitudes must be non-negative")
        if max(amps) == 0.0:
            raise ValueError("amplitudes are all zero")
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def uniform(cls, d: int) -> "SlitStatePrep":
        _check_dim(d, "d")  # before the weights are built
        return cls(d, tuple([1.0] * d))


def prepare_state(prep: SlitStatePrep) -> PureBipartiteState:
    """Place the normalized weights on anti-correlated pairs |l>_s |d-1-l>_i."""
    amps = _normalized(np.asarray(prep.amplitudes, dtype=float))
    c = np.zeros((prep.d, prep.d), dtype=np.complex128)
    for level, a in enumerate(amps):
        c[level, prep.d - 1 - level] = a
    return PureBipartiteState(c)


def anti_correlated_block(psi: PureBipartiteState) -> DensityMatrix:
    """Pair-basis density over the anti-correlated subspace.

    Entry (l, m) is the coherence between pairs |l, d-1-l> and |m, d-1-m>,
    renormalized to unit trace; this is the d x d matrix the interference
    pattern model consumes.
    """
    if psi.dim_s != psi.dim_i:
        raise ValueError("expected equal subsystem dimensions")
    d = psi.dim_s
    pair = np.array([psi.amplitudes[level, d - 1 - level] for level in range(d)])
    weight = float(np.sum(np.abs(pair) ** 2))
    if weight == 0.0:
        raise ValueError("state has no anti-correlated component")
    pair = pair / math.sqrt(weight)
    return DensityMatrix(np.outer(pair, pair.conj()))


def apply_sagnac(
    psi: PureBipartiteState, gamma_t: float, convention: str = AMPLITUDE
) -> tuple[PureBipartiteState, float]:
    """Filter the signal arm through the interferometer set to a jump-free damping of gamma*t.

    Signal level l is transmitted with amplitude t_l = exp(-r gamma t l),
    r = 1 under the amplitude convention and 1/2 under the population
    convention (on the bench, the level-l phase is 2 arcsin t_l).  Scaling
    the signal rows and renormalizing is the jump-free damping map itself,
    for any d x d pair state.  Returns the renormalized state and the
    success probability, the squared norm before renormalization.
    """
    if psi.dim_s != psi.dim_i:
        raise ValueError("expected equal signal and idler dimensions")
    scaled = psi.amplitudes * _jump_free_factors(psi.dim_s, gamma_t, convention)[:, None]
    if not scaled.any():
        raise ValueError("evolution annihilated the state")
    return PureBipartiteState(_normalized(scaled)), float(np.sum(np.abs(scaled) ** 2))


@dataclass(frozen=True)
class CountsTable:
    """Coincidence counts per slit-image pair (signal rows, idler columns)."""

    counts: np.ndarray
    gamma_t: float | None = None
    metadata: str | None = None

    def __post_init__(self):
        # summed in Python integers: int64 casts and sums wrap silently
        if sum(abs(v) for v in np.asarray(self.counts).ravel().tolist()) >= 2**63:
            raise ValueError("counts overflow int64: entries and their total must stay below 2^63")
        c = np.array(self.counts, dtype=np.int64)
        if c.ndim != 2 or min(c.shape) < 1:
            raise ValueError("counts must form a 2-d grid")
        if np.any(c < 0):
            raise ValueError("counts must be non-negative")
        if c.sum() == 0:
            raise ValueError("counts table needs at least one positive entry")
        if self.gamma_t is not None and not math.isfinite(self.gamma_t):
            raise ValueError(f"gamma_t must be finite, got {self.gamma_t}")
        c.setflags(write=False)
        object.__setattr__(self, "counts", c)

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def reconstruct_state(table: CountsTable) -> PureBipartiteState:
    """Amplitude-magnitude state sqrt(N/total), all phases zero.

    Coincidence measurements fix only the moduli, so the reconstruction is
    real and non-negative by construction.
    """
    c = np.sqrt(table.counts / table.total)
    return PureBipartiteState(c)


def populations(table: CountsTable) -> tuple[np.ndarray, np.ndarray]:
    """Per-level populations of each arm: (row sums, column sums) / total."""
    total = table.total
    signal = table.counts.sum(axis=1) / total
    idler = table.counts.sum(axis=0) / total
    return signal, idler


# bounds the run time: 10^6 resamples of one table take seconds
MAX_RESAMPLES = 10**6

# Resamples drawn and evaluated at once; memory stays bounded at the cap.
_RESAMPLE_BLOCK = 2**14


def concurrence_uncertainty(table: CountsTable, *, seed: int, n_resamples: int = 1000) -> float:
    """Parametric-bootstrap standard deviation of the reconstructed concurrence.

    Resample r is slab r of one Poisson(N_ij) draw of shape
    (n_resamples, *counts.shape) from stream seed (so prefix-stable in
    n_resamples), and all-zero resamples are dropped.  The draw is made and
    evaluated in blocks of whole slabs from the one generator, which gives
    the bytes of a single draw.  Draws of a validated table need no checks
    of their own, so each block's survivors are one stack.
    """
    if not 2 <= n_resamples <= MAX_RESAMPLES:
        raise ValueError(f"n_resamples must lie in [2, {MAX_RESAMPLES}], got {n_resamples}")
    rng = derive_rng(seed)
    blocks = []
    for lo in range(0, n_resamples, _RESAMPLE_BLOCK):
        draws = rng.poisson(table.counts, size=(min(_RESAMPLE_BLOCK, n_resamples - lo), *table.counts.shape))
        totals = draws.sum(axis=(1, 2), keepdims=True)
        kept = totals[:, 0, 0] > 0  # the counts are non-negative, so these are the non-empty draws
        blocks.append(_i_concurrence(np.sqrt(draws[kept] / totals[kept])))
    values = np.concatenate(blocks)
    if len(values) < 2:
        raise ValueError(
            f"only {len(values)} of {n_resamples} bootstrap resamples are non-empty; "
            "the spread needs at least two"
        )
    return float(np.std(values))
