"""Optical-experiment models: slit-state preparation, the Sagnac amplitude
filter realizing jump-free damping, coincidence counting, and state and
concurrence estimation from count tables.

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

from .dynamics import _jump_free_factors
from .qcore import DensityMatrix, PureBipartiteState, _i_concurrence
from .rng import derive_rng


@dataclass(frozen=True)
class SlitStatePrep:
    """Per-slit transmission weights imprinted on the pair source."""

    d: int
    amplitudes: tuple[float, ...]

    def __post_init__(self):
        if self.d < 2:
            raise ValueError(f"need at least two slits, got {self.d}")
        amps = tuple(float(a) for a in self.amplitudes)
        if len(amps) != self.d:
            raise ValueError(f"expected {self.d} amplitudes, got {len(amps)}")
        if any(a < 0 for a in amps):
            raise ValueError("amplitudes must be non-negative")
        if sum(a * a for a in amps) == 0.0:
            raise ValueError("amplitudes are all zero")
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def uniform(cls, d: int) -> "SlitStatePrep":
        return cls(d, tuple([1.0] * d))


def prepare_state(prep: SlitStatePrep) -> PureBipartiteState:
    """Place the normalized weights on anti-correlated pairs |l>_s |d-1-l>_i."""
    amps = np.asarray(prep.amplitudes, dtype=float)
    amps = amps / np.linalg.norm(amps)
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


@dataclass(frozen=True)
class SagnacSchedule:
    """Per-level transmissions t_l = sin(phi_l / 2) of the interferometer."""

    gamma_t: float
    transmissions: tuple[float, float, float]
    phases: tuple[float, float, float]

    def __post_init__(self):
        ts = tuple(float(t) for t in self.transmissions)
        ph = tuple(float(p) for p in self.phases)
        if len(ts) != 3 or len(ph) != 3:
            raise ValueError("schedule covers exactly three levels")
        for t, p in zip(ts, ph):
            if not 0.0 <= t <= 1.0:
                raise ValueError(f"transmission {t} outside [0, 1]")
            if abs(t - math.sin(p / 2.0)) > 1e-12:
                raise ValueError("transmissions and phases are inconsistent")
        if self.gamma_t > 0 and any(ts[i] < ts[i + 1] for i in range(2)):
            raise ValueError("transmissions must be non-increasing in the level")
        object.__setattr__(self, "transmissions", ts)
        object.__setattr__(self, "phases", ph)


def sagnac_schedule(gamma_t: float) -> SagnacSchedule:
    """Transmissions exp(-l gamma t) with phases back-computed as 2 arcsin(t_l)."""
    ts = tuple(float(t) for t in _jump_free_factors(3, gamma_t))
    phases = tuple(2.0 * math.asin(t) for t in ts)
    return SagnacSchedule(gamma_t, ts, phases)


def apply_sagnac(psi: PureBipartiteState, sched: SagnacSchedule) -> tuple[PureBipartiteState, float]:
    """Filter the signal arm through the interferometer.

    Signal level l is transmitted with amplitude t_l; the returned success
    probability is the squared norm before renormalization.  On states in
    anti-diagonal Schmidt form this equals the jump-free damping evolution
    at the schedule's gamma*t.
    """
    if psi.dim_s != 3:
        raise ValueError("the interferometer filters a three-level signal")
    scaled = psi.amplitudes * np.asarray(sched.transmissions)[:, None]
    prob = float(np.sum(np.abs(scaled) ** 2))
    if prob == 0.0:
        raise ValueError("filter annihilated the state")
    return PureBipartiteState(scaled / math.sqrt(prob)), prob


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


def simulate_counts(psi: PureBipartiteState, total_pairs: int, seed: int) -> CountsTable:
    """Multinomial coincidence counts over the joint detection probabilities."""
    if total_pairs < 1:
        raise ValueError("total_pairs must be positive")
    probs = np.abs(psi.amplitudes.ravel()) ** 2
    probs = probs / probs.sum()
    draws = derive_rng(seed).multinomial(total_pairs, probs)
    return CountsTable(draws.reshape(psi.amplitudes.shape))


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
        draws = draws[draws.any(axis=(1, 2))]
        totals = draws.sum(axis=(1, 2), keepdims=True)
        blocks.append(_i_concurrence(np.sqrt(draws / totals)))
    values = np.concatenate(blocks)
    if len(values) < 2:
        raise ValueError(
            f"only {len(values)} of {n_resamples} bootstrap resamples are non-empty; "
            "the spread needs at least two"
        )
    return float(np.std(values))
