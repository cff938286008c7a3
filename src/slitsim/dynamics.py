"""Open-system time evolution: master equation, trajectories, jump-free factors.

The one generator is that of amplitude damping (Nielsen & Chuang 8.3.5;
Chuang, Leung & Yamamoto, PRA 56, 1114 (1997)),

    d(rho)/dt = 2 gamma a rho a+  -  gamma {a+ a, rho},

built in closed form as a d^2 x d^2 superoperator and integrated by RK4 as
one matrix power of the step superoperator, which holds d^4 entries, so
every model has d <= qcore.MAX_DIM.  Under it a pure state evolving
without any jump has its level-n amplitude multiplied by exp(-n gamma t)
and the per-step jump probability is dp = 2 gamma <a+ a> dt.  Those three pieces are mutually consistent and
are the package default ("amplitude" convention).  Measured population
series are sometimes quoted against the halved rate where level-n
*populations* decay as exp(-n gamma t); pass convention="population" to
select that reading.  The jump-free factors exp(-r gamma t n) come from
one helper, which experiment.apply_sagnac applies to the signal arm of a
pair state.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qcore import DensityMatrix, _check_dim
from .rng import uniform_blocks

# Per-step jump probability stays below this bound, keeping the first-order
# jump/no-jump split valid.
STEP_PROBABILITY_BOUND = 1e-2

# Most fixed steps one integration or trajectory ensemble may take; the step
# count is checked against it before anything is allocated.
MAX_STEPS = 2**20

AMPLITUDE = "amplitude"
POPULATION = "population"
_CONVENTION_ALIASES = {
    "amplitude": AMPLITUDE,
    "eq17": AMPLITUDE,
    "population": POPULATION,
    "table2": POPULATION,
}


def resolve_convention(name: str) -> str:
    """Normalize a damping-rate convention name."""
    try:
        return _CONVENTION_ALIASES[name.lower()]
    except KeyError:
        raise ValueError(f"unknown convention {name!r}; use 'amplitude' or 'population'") from None


def _amplitude_rate(convention: str) -> float:
    """Per-level amplitude decay rate in units of gamma."""
    return 1.0 if resolve_convention(convention) == AMPLITUDE else 0.5


def _jump_free_factors(dim: int, gamma_t: float, convention: str = AMPLITUDE) -> np.ndarray:
    """Amplitude factor exp(-r gamma t l) of each level l after a jump-free evolution."""
    if not (math.isfinite(gamma_t) and gamma_t >= 0):
        raise ValueError(f"gamma_t must be finite and non-negative, got {gamma_t}")
    # the scalar math.exp, not numpy's SIMD loop, whose last bit depends on the CPU features
    # numpy dispatches; an argument so large it overflows to -inf decays to exactly 0
    rate = -_amplitude_rate(convention) * float(gamma_t)
    return np.array([math.exp(rate * level) for level in range(dim)])


@dataclass(frozen=True)
class DampingModel:
    """Truncated-oscillator photon loss at decay rate gamma."""

    dim: int
    gamma: float

    def __post_init__(self):
        _check_dim(self.dim)
        if not (math.isfinite(self.gamma) and self.gamma >= 0):
            raise ValueError(f"gamma must be finite and non-negative, got {self.gamma}")


@dataclass(frozen=True)
class TrajectoryConfig:
    n_trajectories: int
    dt: float
    seed: int

    def __post_init__(self):
        if self.n_trajectories < 1:
            raise ValueError("need at least one trajectory")
        if not self.dt > 0:
            raise ValueError("dt must be positive")


def _check_step(model: DampingModel, dt: float):
    """The jump rate 2 gamma times the level bound d times dt stays within STEP_PROBABILITY_BOUND."""
    bound = 2.0 * model.gamma * model.dim * dt
    if bound > STEP_PROBABILITY_BOUND:
        raise ValueError(f"step too large: rate*dim*dt = {bound:.3g} > {STEP_PROBABILITY_BOUND}")


def _step_count(t: float, dt: float) -> int:
    """Number of equal steps of at most dt that cover [0, t], at most MAX_STEPS."""
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"t must be finite and non-negative, got {t}")
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and positive, got {dt}")
    # compared as a product: t / dt may overflow
    if t > MAX_STEPS * dt:
        raise ValueError(f"t/dt = {float(t) / float(dt):.3g} exceeds the {MAX_STEPS} steps allowed")
    return max(1, math.ceil(t / dt - 1e-12))


def _superoperator(model: DampingModel) -> np.ndarray:
    """The damping generator as the d^2 x d^2 matrix S on row-major vec(rho).

    With c_m = sqrt(2 gamma m) and K_m = -c_m^2 / 2, S maps the basis matrix
    E_ml to (K_m + K_l) E_ml + c_m c_l E_(m-1)(l-1): the first term is
    K rho + rho K+ with K = -gamma a+ a, the second the jump 2 gamma a rho a+.
    Each factor is rounded in that order, c_m as sqrt(2 gamma) * sqrt(m).
    """
    d = model.dim
    c = math.sqrt(2.0 * model.gamma) * np.sqrt(np.arange(d))
    k = -0.5 * (c * c)
    # complex: with a real S the step power rounds differently and the pinned bytes move
    s = np.diag((k[:, None] + k[None, :]).ravel()).astype(np.complex128)
    m = np.arange(1, d)
    # s[(m', l'), (m, l)] as a (d, d, d, d) view: column E_ml gets c_m c_l in row E_(m-1)(l-1)
    s.reshape(d, d, d, d)[m[:, None] - 1, m - 1, m[:, None], m] = c[1:, None] * c[1:]
    return s


def integrate_master(model: DampingModel, rho0: DensityMatrix, t: float, dt: float) -> DensityMatrix:
    """Fixed-step classical 4th-order integration of the damping master equation.

    RK4 as one matrix power of the step superoperator, d <= MAX_DIM.  One
    step is the Horner polynomial r + h L(r + h/2 L(r + h/3 L(r + h/4 L r))),
    which for the constant linear generator L equals the four classical
    stages.  With S = _superoperator(model), the matrix of L on row-major
    vec(rho), that step is P = I + hS(I + h/2 S(I + h/3 S(I + h/4 S))), and
    the result is P^steps vec(rho0).
    """
    steps = _step_count(t, dt)
    if model.dim != rho0.dim:
        raise ValueError("dimension mismatch")
    _check_step(model, dt)
    if t == 0:
        return rho0
    h = t / steps
    n = model.dim * model.dim
    s = _superoperator(model)
    eye = np.eye(n)
    p = eye + h * s @ (eye + (h / 2.0) * s @ (eye + (h / 3.0) * s @ (eye + (h / 4.0) * s)))
    r = (np.linalg.matrix_power(p, steps) @ rho0.matrix.reshape(n)).reshape(model.dim, model.dim)
    # re-validation doubles as the dt-too-large signal
    return DensityMatrix(0.5 * (r + r.conj().T))


def _class_states(v0: np.ndarray, gamma_h: float, jumps: int, calm: np.ndarray) -> np.ndarray:
    """Normalized a^j exp(-gamma h N q) v0 for j = ``jumps`` and each q in ``calm``.

    This is the state of every trajectory that took j jumps and q jump-free
    steps, in any order: exp(-gamma h N) a = exp(gamma h) a exp(-gamma h N).
    Exponents are measured from the lowest populated level, so the weights
    of higher levels may underflow to zero but the state never becomes 0/0.
    """
    d = v0.shape[0]
    low = jumps + np.flatnonzero(v0[jumps:])[0]
    src = np.arange(low, d)
    # a^j |l> = sqrt(l! / (l - j)!) |l - j>
    lowered = v0[low:] * np.sqrt(np.prod(src[:, None] - np.arange(jumps, dtype=float), axis=1))
    states = np.zeros((len(calm), d), dtype=np.complex128)
    states[:, src - jumps] = lowered * np.exp(-gamma_h * np.outer(calm, src - low))
    return states / np.linalg.norm(states, axis=1, keepdims=True)


def _jump_counts(dp: np.ndarray, dim: int, seed: int, n: int) -> np.ndarray:
    """N_j, how many of n trajectories take j jumps under the step rule, j = 0..len(dp).

    The step rule jumps at step s with probability dp[j, s] while j jumps
    have been taken.  Trajectory k reads row k of rng.uniform_blocks(seed,
    n, dim - 1), and its uniform j sets the step of its (j+1)-th jump by
    inverting the survival: it jumps at the first step s >= start with
    prod_{start <= s' <= s} (1 - dp[j, s']) < u, start being the step after
    its j-th jump.  That is the law of drawing a fresh uniform against dp
    at every step.
    """
    max_jumps, steps = dp.shape
    # survival[j, s] = -log prod_{s' < s} (1 - dp[j, s']), non-decreasing in s
    survival = np.zeros((max_jumps, steps + 1))
    np.cumsum(-np.log1p(-dp), axis=1, out=survival[:, 1:])
    hist = np.zeros(max_jumps + 1, dtype=np.int64)
    for u in uniform_blocks(seed, n, dim - 1):
        with np.errstate(divide="ignore"):  # u = 0 never jumps
            threshold = -np.log(u[:, :max_jumps])
        live = np.arange(len(u))
        start = np.zeros(len(u), dtype=np.intp)
        jumps = np.zeros(len(u), dtype=np.intp)
        for j in range(max_jumps):
            # after = s + 1 for the jump step s; after = steps + 1 means no further jump
            after = np.searchsorted(survival[j], survival[j, start] + threshold[live, j], side="right")
            jumped = after <= steps
            live, start = live[jumped], after[jumped]
            jumps[live] += 1
            if not live.size:
                break
        hist += np.bincount(jumps, minlength=max_jumps + 1)
    return hist


def run_trajectories(model: DampingModel, psi0: np.ndarray, t: float, cfg: TrajectoryConfig) -> DensityMatrix:
    """Ensemble average of |psi><psi| over stochastic jump/no-jump unravelings.

    Trajectory k reads row k of rng.uniform_blocks(cfg.seed, n, dim - 1),
    so the result is reproducible and a prefix of the trajectories is
    independent of how many follow.  The jump decision per step is first
    order: jump with probability dp = 2 gamma <a+ a> dt.

    With H = 0 and the single jump operator a, a trajectory's state after s
    steps with j jumps is normalize(a^j exp(-gamma h N (s - j)) psi0),
    whatever the order of its jumps.  So dp is tabulated once per (j, s),
    each trajectory is reduced to its jump count, and the ensemble is
    sum_j (N_j / n) |psi_j><psi_j| over the final state psi_j of each count.
    """
    v0 = np.asarray(psi0, dtype=np.complex128)
    if v0.shape != (model.dim,):
        raise ValueError(f"expected a {model.dim}-vector")
    norm = np.linalg.norm(v0)
    if norm == 0:
        raise ValueError("initial state is zero")
    v0 = v0 / norm
    steps = _step_count(t, cfg.dt)
    _check_step(model, cfg.dt)
    if t == 0 or model.gamma == 0:
        return DensityMatrix.from_vector(v0)

    h = t / steps
    gamma_h = model.gamma * h
    levels = np.arange(model.dim, dtype=float)
    # each jump lowers the highest populated level by one
    max_jumps = int(np.flatnonzero(v0)[-1])

    dp = np.zeros((max_jumps, steps))
    for j in range(max_jumps):
        n_mean = np.abs(_class_states(v0, gamma_h, j, np.arange(steps - j))) ** 2 @ levels
        dp[j, j:] = 2.0 * model.gamma * h * n_mean
    weights = _jump_counts(dp, model.dim, cfg.seed, cfg.n_trajectories) / cfg.n_trajectories

    # a count above steps never occurs; clamping q keeps its unused row finite
    final = np.concatenate(
        [_class_states(v0, gamma_h, j, np.array([max(steps - j, 0)])) for j in range(max_jumps + 1)]
    )
    rho = (final.T * weights) @ final.conj()
    return DensityMatrix(0.5 * (rho + rho.conj().T))

