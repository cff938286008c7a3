"""Open-system time evolution: master equation, trajectories, no-jump filtering.

The damping generator used throughout is

    d(rho)/dt = 2 gamma a rho a+  -  gamma {a+ a, rho},

under which a pure state evolving without any jump has its level-n
amplitude multiplied by exp(-n gamma t) and the per-step jump probability
is dp = 2 gamma <a+ a> dt.  Those three pieces are mutually consistent and
are the package default ("amplitude" convention).  Measured population
series are sometimes quoted against the halved rate where level-n
*populations* decay as exp(-n gamma t); pass convention="population" to
select that reading.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qcore import ComplexOperator, DensityMatrix, PureBipartiteState
from .rng import derive_rng

# Per-step jump probability stays below this bound, keeping the first-order
# jump/no-jump split valid.
STEP_PROBABILITY_BOUND = 1e-2

# Most fixed steps one integration or trajectory ensemble may take; the step
# count is checked against it before anything is allocated.
MAX_STEPS = 2**20

# Largest block of per-trajectory uniforms that run_trajectories holds at once.
_UNIFORM_BLOCK_BYTES = 2**20

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
    return np.exp(-_amplitude_rate(convention) * gamma_t * np.arange(dim))


@dataclass(frozen=True)
class LindbladModel:
    """Hamiltonian (pre-divided by hbar) plus Lindblad operators with rates."""

    dim: int
    hamiltonian: ComplexOperator
    lindblad_ops: tuple[tuple[ComplexOperator, float], ...]

    def __post_init__(self):
        if self.hamiltonian.dim != self.dim:
            raise ValueError("Hamiltonian dimension mismatch")
        ops = tuple((op, float(g)) for op, g in self.lindblad_ops)
        for op, g in ops:
            if op.dim != self.dim:
                raise ValueError("Lindblad operator dimension mismatch")
            if not (math.isfinite(g) and g >= 0):
                raise ValueError(f"rate must be finite and non-negative, got {g}")
        object.__setattr__(self, "lindblad_ops", ops)

    @property
    def max_rate(self) -> float:
        return max((g for _, g in self.lindblad_ops), default=0.0)


@dataclass(frozen=True)
class DampingModel:
    """Truncated-oscillator photon loss at decay rate gamma."""

    dim: int
    gamma: float

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError(f"dimension must be >= 2, got {self.dim}")
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


def _check_step(max_rate: float, dim: int, dt: float):
    if max_rate * dim * dt > STEP_PROBABILITY_BOUND:
        raise ValueError(
            f"step too large: rate*dim*dt = {max_rate * dim * dt:.3g} "
            f"> {STEP_PROBABILITY_BOUND}"
        )


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


def annihilation(dim: int) -> ComplexOperator:
    """Truncated lowering operator: a|n> = sqrt(n)|n-1>."""
    if dim < 2:
        raise ValueError(f"dimension must be >= 2, got {dim}")
    a = np.zeros((dim, dim), dtype=np.complex128)
    for n in range(1, dim):
        a[n - 1, n] = np.sqrt(n)
    return ComplexOperator(a)


def damping_lindblad(model: DampingModel) -> LindbladModel:
    """Lindblad form of the damping generator: H = 0, operator a at rate 2*gamma."""
    zero = ComplexOperator(np.zeros((model.dim, model.dim)))
    return LindbladModel(model.dim, zero, ((annihilation(model.dim), 2.0 * model.gamma),))


def lindblad_rhs(model: LindbladModel, rho: DensityMatrix) -> ComplexOperator:
    """d(rho)/dt: commutator part plus dissipators; traceless and Hermitian."""
    if model.dim != rho.dim:
        raise ValueError("dimension mismatch")
    return ComplexOperator(_generator(model)(rho.matrix))


def _generator(model: LindbladModel):
    """The Lindblad generator in K form, L(x) = K x + x K+ + sum_c c x c+.

    K = -i H - 1/2 sum g a+ a is the non-Hermitian effective Hamiltonian and
    c = sqrt(g) a runs over the jump operators; the operators are built once.
    """
    k = -1j * model.hamiltonian.matrix
    jumps = []
    for op, g in model.lindblad_ops:
        c = math.sqrt(g) * op.matrix
        c_dag = c.conj().T
        k = k - 0.5 * (c_dag @ c)
        jumps.append((c, c_dag))
    k_dag = k.conj().T

    def apply(x: np.ndarray) -> np.ndarray:
        out = k @ x + x @ k_dag
        for c, c_dag in jumps:
            out += c @ x @ c_dag
        return out

    return apply


def integrate_master(model: LindbladModel, rho0: DensityMatrix, t: float, dt: float) -> DensityMatrix:
    """Fixed-step classical 4th-order integration of the master equation.

    Each step applies the RK4 polynomial in Horner form,
    r + h L(r + h/2 L(r + h/3 L(r + h/4 L r))), which for the constant
    linear generator L equals the four classical stages.
    """
    steps = _step_count(t, dt)
    if model.dim != rho0.dim:
        raise ValueError("dimension mismatch")
    _check_step(model.max_rate, model.dim, dt)
    if t == 0:
        return rho0
    h = t / steps
    gen = _generator(model)
    r = rho0.matrix.copy()
    for _ in range(steps):
        x = r + (h / 4.0) * gen(r)
        x = r + (h / 3.0) * gen(x)
        x = r + (h / 2.0) * gen(x)
        r = r + h * gen(x)
    # re-validation doubles as the dt-too-large signal
    return DensityMatrix(0.5 * (r + r.conj().T))


def no_jump_step(model: DampingModel, psi: np.ndarray, dt: float) -> tuple[np.ndarray, float]:
    """One jump-free interval: level n shrinks by exp(-n gamma dt), then renormalize.

    Returns the renormalized state together with the survival probability
    (the squared norm before renormalization).
    """
    v = np.asarray(psi, dtype=np.complex128)
    if v.shape != (model.dim,):
        raise ValueError(f"expected a {model.dim}-vector")
    levels = np.arange(model.dim)
    scaled = v * np.exp(-model.gamma * dt * levels)
    survival = float(np.sum(np.abs(scaled) ** 2))
    if survival == 0.0:
        raise ValueError("no-jump evolution annihilated the state; dt inconsistent")
    return scaled / np.sqrt(survival), survival


def jump_step(model: DampingModel, psi: np.ndarray) -> np.ndarray:
    """One quantum jump: apply the lowering operator and renormalize."""
    v = np.asarray(psi, dtype=np.complex128)
    if v.shape != (model.dim,):
        raise ValueError(f"expected a {model.dim}-vector")
    lowered = annihilation(model.dim).matrix @ v
    norm = np.linalg.norm(lowered)
    if norm == 0.0:
        raise ValueError("jump impossible: state has no support above the ground level")
    return lowered / norm


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
    have been taken.  Trajectory k reads row k of one
    derive_rng(seed).random((n, dim - 1)) draw, and its uniform j sets the
    step of its (j+1)-th jump by inverting the survival: it jumps at the
    first step s >= start with prod_{start <= s' <= s} (1 - dp[j, s']) < u,
    start being the step after its j-th jump.  That is the law of drawing
    a fresh uniform against dp at every step.  The rows are drawn in
    blocks of whole rows from the one generator, which gives the bytes of
    a single draw while memory stays bounded in n.
    """
    max_jumps, steps = dp.shape
    rows = max(1, _UNIFORM_BLOCK_BYTES // (8 * (dim - 1)))
    # survival[j, s] = -log prod_{s' < s} (1 - dp[j, s']), non-decreasing in s
    survival = np.zeros((max_jumps, steps + 1))
    np.cumsum(-np.log1p(-dp), axis=1, out=survival[:, 1:])
    rng = derive_rng(seed)
    hist = np.zeros(max_jumps + 1, dtype=np.int64)
    for lo in range(0, n, rows):
        u = rng.random((min(rows, n - lo), dim - 1))
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

    Trajectory k reads row k of one derive_rng(cfg.seed) draw of dim - 1
    uniforms per trajectory, so the result is reproducible and a prefix of
    the trajectories is independent of how many follow.  The jump decision
    per step is first order: jump with probability dp = 2 gamma <a+ a> dt.

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
    _check_step(2.0 * model.gamma, model.dim, cfg.dt)
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


def no_jump_conditional_state(
    psi0: PureBipartiteState, gamma_t: float, convention: str = AMPLITUDE
) -> PureBipartiteState:
    """Conditional pair state after a jump-free signal evolution of length gamma*t.

    The input must be in anti-diagonal Schmidt form (amplitude on |l>_s
    paired with idler level d-1-l only).  Signal level l is damped by
    exp(-l gamma t) under the default amplitude convention, by
    exp(-l gamma t / 2) under the population convention, then the state is
    renormalized.
    """
    c = psi0.amplitudes
    if psi0.dim_s != psi0.dim_i:
        raise ValueError("expected equal signal and idler dimensions")
    d = psi0.dim_s
    anti = np.fliplr(np.eye(d)) > 0
    if np.max(np.abs(c[~anti])) > 1e-12:
        raise ValueError("state is not in anti-diagonal Schmidt form")
    scaled = c * _jump_free_factors(d, gamma_t, convention)[:, None]
    norm = np.linalg.norm(scaled)
    if norm == 0.0:
        raise ValueError("evolution annihilated the state")
    return PureBipartiteState(scaled / norm)


def no_jump_survival(psi0: PureBipartiteState, gamma_t: float, convention: str = AMPLITUDE) -> float:
    """Probability that the signal evolves for gamma*t without a jump."""
    factors = _jump_free_factors(psi0.dim_s, gamma_t, convention)
    return float(np.sum(np.abs(psi0.amplitudes * factors[:, None]) ** 2))
