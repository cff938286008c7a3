"""Two-photon conditional interference patterns under dephasing and
least-squares estimation of the dephasing parameter.

All lengths are in millimetres.  The pattern at idler position x_i with the
signal detector at x_s is

    P = A sinc^2(k a x_i / f) sinc^2(k a x_s / (f beta))
        * [1 + (1-p) Re sum_{n=1}^{d-1} det_n S_n exp(i n theta)]

with theta = k d x_i / f - k d x_s / (f beta), the detector factor
det_n = sinc(n k d b / f) sinc(n k d b / (f beta)), S_n = sum_m rho_{m+n,m}
the n-th subdiagonal sum of the pair-basis density rho of the initial
state, and sinc(x) = sin(x)/x.  Each slit pair l > m adds
|rho_lm| det_n cos(n theta + arg rho_lm) with n = l - m, so the fringe is a
sum over slit difference.  The normalization A is a free scale; p enters
only through the fringe visibilities, which is what the fit exploits.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .qcore import DensityMatrix
from .rng import scan_counts

MIN_SCAN_SAMPLES = 8
# Most positions `pattern` synthesizes, checked before its position grid is allocated.
MAX_SCAN_POINTS = 2**16
SIGMA_FLOOR = 1e-6
# Largest mean numpy's Generator.poisson accepts ("lam value too large" above it).
_POISSON_MEAN_MAX = float(np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10)


class DegenerateScanError(ValueError):
    """The scan carries no fringe information, so p is unidentifiable."""


@dataclass(frozen=True)
class OpticalGeometry:
    """Bench constants, lengths in mm."""

    wavelength: float = 7.10e-4
    half_slit_width: float = 0.05
    slit_separation: float = 0.25
    focal_length: float = 200.0
    half_detector_width: float = 0.05
    beta: float = 0.62

    def __post_init__(self):
        for name in ("wavelength", "half_slit_width", "slit_separation",
                     "focal_length", "half_detector_width", "beta"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if 2.0 * self.half_slit_width >= self.slit_separation:
            raise ValueError("slit width must be smaller than the slit separation")

    @property
    def wave_number(self) -> float:
        return 2.0 * math.pi / self.wavelength


def _sinc(x):
    """Unnormalized sinc: sin(x)/x with sinc(0) = 1."""
    return np.sinc(np.asarray(x) / np.pi)


def x_pi(geom: OpticalGeometry) -> float:
    """Signal position where k d x / (f beta) = pi (the anti-fringe point)."""
    return math.pi * geom.focal_length * geom.beta / (geom.wave_number * geom.slit_separation)


def fringe_period(geom: OpticalGeometry, arm: str = "idler") -> float:
    """Nearest-neighbour fringe period in the given arm's coordinate."""
    period = 2.0 * math.pi * geom.focal_length / (geom.wave_number * geom.slit_separation)
    if arm == "idler":
        return period
    if arm == "signal":
        return period * geom.beta
    raise ValueError(f"arm must be 'signal' or 'idler', got {arm!r}")


def _envelope_and_fringe(geom: OpticalGeometry, rho0: DensityMatrix, x_i, x_s):
    """Envelope E and fringe sum G with P = scale * E * (1 + (1-p) G);
    positions whose arguments overflow or are not finite raise ValueError."""
    x_i = np.asarray(x_i, dtype=float)
    x_s = np.asarray(x_s, dtype=float)
    env, det, phases = _scan_terms(geom, rho0.dim, (x_i.shape, x_i.tobytes()), (x_s.shape, x_s.tobytes()))
    coherence = np.array([np.trace(rho0.matrix, offset=-m) for m in range(1, rho0.dim)])
    return env, (phases @ (det * coherence)).real


# Scans whose state-independent terms are kept; an entry holds the envelope and the
# (points, d-1) complex phase matrix, ~16 MB at MAX_SCAN_POINTS and d = 16.
_SCAN_TERMS_CACHED = 4


@functools.lru_cache(maxsize=_SCAN_TERMS_CACHED)
def _scan_terms(geom: OpticalGeometry, dim: int, x_i: tuple, x_s: tuple):
    """The read-only terms of the pattern that depend on neither p nor the state:
    the envelope E, the detector weights det_n and the matrix exp(i n theta).
    Each position argument is the (shape, bytes) of a float64 array, so a scan
    repeated exactly reuses its terms."""
    k, a, d, f = geom.wave_number, geom.half_slit_width, geom.slit_separation, geom.focal_length
    b, beta = geom.half_detector_width, geom.beta
    x_i, x_s = (np.frombuffer(buf).reshape(shape) for shape, buf in (x_i, x_s))
    n = np.arange(1, dim)
    det = _sinc(n * k * d * b / f) * _sinc(n * k * d * b / (f * beta))
    with np.errstate(over="ignore", invalid="ignore"):
        env = _sinc(k * a * x_i / f) ** 2 * _sinc(k * a * x_s / (f * beta)) ** 2
        theta = k * d * x_i / f - k * d * x_s / (f * beta)
        phases = np.exp(1j * np.multiply.outer(theta, n))
    # E and G are bounded where the arguments are finite; a raise caches nothing
    bad = ~(np.isfinite(env) & np.isfinite(phases).all(axis=-1))
    if bad.any():
        x_i, x_s = np.broadcast_arrays(x_i, x_s)
        raise ValueError(f"pattern arguments are not finite at {int(bad.sum())} of {bad.size} positions, "
                         f"first at x_i = {x_i[bad][0]:.6g} mm, x_s = {x_s[bad][0]:.6g} mm")
    for term in (env, det, phases):
        if isinstance(term, np.ndarray):  # a scalar position's envelope is a numpy scalar
            term.setflags(write=False)
    return env, det, phases


def pattern_intensity(
    geom: OpticalGeometry,
    rho0: DensityMatrix,
    p: float,
    x_i,
    x_s,
    scale: float = 1.0,
):
    """Conditional coincidence rate at (x_i, x_s).

    ``rho0`` is the initial pair-basis density over anti-correlated slit
    pairs; ``p`` is the dephasing parameter.  Scalar or array positions.
    The rate is never negative: the detector weights form a positive-definite
    sequence, so any valid ``rho0`` keeps the bracket 1 + (1-p) G >= 1/2.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    if scale < 0:
        raise ValueError(f"scale must be non-negative, got {scale}")
    env, fringe = _envelope_and_fringe(geom, rho0, x_i, x_s)
    out = scale * env * (1.0 + (1.0 - p) * fringe)
    return float(out) if np.ndim(x_i) == 0 and np.ndim(x_s) == 0 else out


@dataclass(frozen=True)
class PatternScan:
    """Sampled coincidence counts along one detector, the other held fixed."""

    fixed_arm: str
    fixed_position: float
    positions: np.ndarray
    counts: np.ndarray
    p_true: float | None = None

    def __post_init__(self):
        if self.fixed_arm not in ("signal", "idler"):
            raise ValueError(f"fixed_arm must be 'signal' or 'idler', got {self.fixed_arm!r}")
        pos = np.array(self.positions, dtype=float)
        cts = np.array(self.counts, dtype=float)
        if pos.ndim != 1 or pos.shape != cts.shape:
            raise ValueError("positions and counts must be matching 1-d arrays")
        if len(np.unique(pos)) < MIN_SCAN_SAMPLES:
            raise ValueError(f"need at least {MIN_SCAN_SAMPLES} distinct sample positions")
        if not (np.all(np.isfinite(pos)) and np.all(np.isfinite(cts))
                and math.isfinite(self.fixed_position)):
            raise ValueError("scan contains non-finite values")
        if self.p_true is not None and not 0.0 <= self.p_true <= 1.0:
            raise ValueError(f"p_true must be in [0, 1], got {self.p_true}")
        if np.any(cts < 0):
            raise ValueError("counts must be non-negative")
        pos.setflags(write=False)
        cts.setflags(write=False)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "counts", cts)

    @property
    def scanned_arm(self) -> str:
        return "idler" if self.fixed_arm == "signal" else "signal"

    def span(self) -> float:
        return float(self.positions.max() - self.positions.min())


def _scan_axes(fixed_arm: str, fixed_position, positions):
    """Map a scan along one arm, the other arm's detector fixed, onto (x_i, x_s)."""
    if fixed_arm == "signal":
        return positions, fixed_position
    if fixed_arm == "idler":
        return fixed_position, positions
    raise ValueError(f"fixed_arm must be 'signal' or 'idler', got {fixed_arm!r}")


def synthesize_scan(
    geom: OpticalGeometry,
    rho0: DensityMatrix,
    p: float,
    fixed_arm: str,
    fixed_position: float,
    positions,
    peak_counts: float,
    seed: int,
    noiseless: bool = False,
) -> PatternScan:
    """Poisson counts with mean peak_counts * P / max(P) over the positions.

    With ``noiseless`` the exact means are recorded instead of draws.
    """
    if not (math.isfinite(peak_counts) and peak_counts > 0):
        raise ValueError(f"peak_counts must be finite and positive, got {peak_counts}")
    positions = np.asarray(positions, dtype=float)
    mean = pattern_intensity(geom, rho0, p, *_scan_axes(fixed_arm, fixed_position, positions))
    top = mean.max()
    if top <= 0:
        raise ValueError("pattern vanishes over the requested positions")
    with np.errstate(over="ignore"):  # an overflow gives inf, rejected below
        mean = peak_counts * mean / top
    largest = mean.max()
    if not np.isfinite(largest):
        raise ValueError(f"peak_counts {peak_counts} overflows the mean counts")
    if not noiseless and largest > _POISSON_MEAN_MAX:
        raise ValueError(f"peak_counts {peak_counts} puts the mean counts above "
                         f"{_POISSON_MEAN_MAX}, the largest Poisson mean that can be sampled")
    counts = mean if noiseless else scan_counts(seed, mean).astype(float)
    return PatternScan(fixed_arm, float(fixed_position), positions, counts, p_true=float(p))


class FitResult(NamedTuple):
    p_hat: float
    sigma_p: float
    scale_hat: float


def _profiled(counts: np.ndarray, model: np.ndarray) -> tuple[float, float]:
    """Residual sum of squares with the scale profiled out, plus that scale."""
    mm = float(np.dot(model, model))
    if mm == 0.0:
        return float(np.dot(counts, counts)), 0.0
    amp = float(np.dot(counts, model)) / mm
    resid = counts - amp * model
    return float(np.dot(resid, resid)), amp


def fit_p(scan: PatternScan, geom: OpticalGeometry, rho0: DensityMatrix) -> FitResult:
    """Least-squares estimate of p with the overall scale profiled out.

    The model E (1 + q G) is affine in q = 1 - p, so one 2x2 normal-equation
    solve of counts ~ alpha E + beta E G gives q = beta / alpha.  The profiled
    residual has a single minimum on the projective line of (alpha, beta), so
    when q leaves [0, 1] the better endpoint is the exact constrained optimum.
    sigma_p scales the Gauss-approximation curvature of the objective at
    the minimum by the counting noise of the fitted rates, so idealized
    noiseless scans still quote the counting-noise floor of their count
    level rather than zero.
    """
    period = fringe_period(geom, scan.scanned_arm)
    if scan.span() < period * (1.0 - 1e-9):
        raise ValueError(
            f"scan spans {scan.span():.4g} mm, below one fringe period {period:.4g} mm"
        )
    x_i, x_s = _scan_axes(scan.fixed_arm, scan.fixed_position, scan.positions)
    env, fringe = _envelope_and_fringe(geom, rho0, x_i, x_s)
    if np.max(np.abs(env * fringe)) <= 1e-12 * max(np.max(np.abs(env)), 1e-300):
        raise DegenerateScanError("pattern model carries no fringe term; p is unidentifiable")

    top = float(scan.counts.max())
    if top <= 0.0:
        raise ValueError("scan contains no counts")
    # normalizing makes the fit exactly invariant under count rescaling
    counts = scan.counts / top

    basis = np.stack([env, env * fringe])
    gram = basis @ basis.T
    if not 0.0 < gram[0, 0] < math.inf:
        raise DegenerateScanError("squared pattern envelope underflows; p is unidentifiable")
    proj = basis @ counts
    # Cramer's rule; the determinant cancels in q = beta / alpha
    alpha = gram[1, 1] * proj[0] - gram[0, 1] * proj[1]
    beta = gram[0, 0] * proj[1] - gram[0, 1] * proj[0]
    if alpha != 0.0 and 0.0 <= beta / alpha <= 1.0:
        q = float(beta / alpha)
    else:
        q = min((0.0, 1.0), key=lambda q: _profiled(counts, env * (1.0 + q * fringe))[0])
    p_hat = 1.0 - q

    # a valid pair density keeps 1 + q G >= 1/2, so the model needs no clamp
    model = env * (1.0 + q * fringe)
    _, amp = _profiled(counts, model)
    scale_hat = amp * top

    # expected Poisson variance of the normalized counts at the fitted rates
    s2 = float(np.mean(amp * model)) / top
    deriv = -env * fringe
    mm = float(np.dot(model, model))
    if mm > 0.0:
        perp = deriv - (float(np.dot(deriv, model)) / mm) * model
    else:
        perp = deriv
    curvature = amp * amp * float(np.dot(perp, perp))
    if not math.isfinite(curvature):
        raise DegenerateScanError("fit curvature overflows on a vanishing envelope; p is unidentifiable")
    sigma = math.sqrt(s2 / curvature) if curvature > 0.0 and s2 > 0.0 else math.inf
    return FitResult(p_hat, max(sigma, SIGMA_FLOOR), scale_hat)
