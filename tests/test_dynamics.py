import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    damping_kraus,
    jump_step,
    lowering,
    no_jump_step,
    random_density,
    random_pure,
    rk4_step_loop,
    stagewise_rhs,
)
from slitsim import dynamics
from slitsim.dynamics import DampingModel, TrajectoryConfig, integrate_master, resolve_convention, run_trajectories
from slitsim.experiment import SlitStatePrep, apply_sagnac, prepare_state
from slitsim.qcore import MAX_DIM, DensityMatrix, PureBipartiteState, trace_distance
from slitsim.rng import derive_rng


def anti_diagonal_state(amps) -> PureBipartiteState:
    amps = np.asarray(amps, dtype=float)
    amps = amps / np.linalg.norm(amps)
    c = np.zeros((len(amps), len(amps)), dtype=complex)
    for level, a in enumerate(amps):
        c[level, len(amps) - 1 - level] = a
    return PureBipartiteState(c)


def generator(model: DampingModel):
    """x -> L(x) through the closed-form superoperator on row-major vec(x)."""
    s = dynamics._superoperator(model)
    return lambda x: (s @ x.reshape(-1)).reshape(x.shape)


def test_lindblad_rhs_steady_state_is_stationary():
    ground = DensityMatrix(np.diag([1.0, 0.0, 0.0]))
    assert np.max(np.abs(generator(DampingModel(3, 0.7))(ground.matrix))) < 1e-14


def test_lindblad_rhs_excited_qubit_rates():
    gamma = 0.8
    rhs = generator(DampingModel(2, gamma))(np.diag([0.0, 1.0]))
    assert rhs[1, 1] == pytest.approx(-2.0 * gamma, abs=1e-12)
    assert rhs[0, 0] == pytest.approx(+2.0 * gamma, abs=1e-12)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_lindblad_rhs_traceless_hermitian(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 7))
    rhs = generator(DampingModel(d, rng.uniform(0, 2)))(random_density(rng, d).matrix)
    assert abs(np.trace(rhs)) < 1e-12
    assert np.max(np.abs(rhs - rhs.conj().T)) < 1e-12


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_lindblad_rhs_matches_the_stagewise_generator(seed):
    rng = np.random.default_rng(seed)
    model = DampingModel(int(rng.integers(2, 7)), rng.uniform(0, 2))
    rho = random_density(rng, model.dim).matrix
    assert np.max(np.abs(generator(model)(rho) - stagewise_rhs(model, rho))) < 1e-14


@pytest.mark.parametrize("d", range(2, MAX_DIM + 1))
def test_superoperator_equals_the_stagewise_generator_on_the_basis_stack(d):
    model = DampingModel(d, np.random.default_rng(d).uniform(0, 3))
    n = d * d
    # row j of the generator applied to the basis stack is vec(L(E_j)), i.e. column j of S
    oracle = stagewise_rhs(model, np.eye(n, dtype=complex).reshape(n, d, d)).reshape(n, n).T
    assert np.array_equal(dynamics._superoperator(model), oracle)


def bosonic_damping(rho, gamma_t):
    """The closed-form damping channel, sum_k K_k rho K_k+."""
    kraus = [damping_kraus(rho.shape[0], gamma_t, k) for k in range(rho.shape[0])]
    return sum(op @ rho @ op.T for op in kraus)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, MAX_DIM])
def test_integrate_master_matches_the_closed_form_damping_channel(d):
    gamma = 0.8
    model = DampingModel(d, gamma)
    excited = np.zeros((d, d))
    excited[-1, -1] = 1.0
    mixed = random_density(np.random.default_rng(d), d).matrix
    for rho0 in (excited, mixed):
        for gamma_t in (0.1, 0.7, 2.0):
            rho = integrate_master(model, DensityMatrix(rho0), gamma_t / gamma, 1e-2 / (2.0 * gamma * d))
            assert np.max(np.abs(rho.matrix - bosonic_damping(rho0, gamma_t))) < 1e-10


@pytest.mark.parametrize("d", [2, 3, 6, MAX_DIM])
@pytest.mark.parametrize("steps", [1, 2, 301, 1024])
def test_integrate_master_equals_the_rk4_step_loop(d, steps):
    rng = np.random.default_rng(1000 * d + steps)
    model = DampingModel(d, rng.uniform(0, 2))
    rho0 = random_density(rng, d)
    dt = 0.5 * dynamics.STEP_PROBABILITY_BOUND / (2.0 * model.gamma * d)
    t = steps * dt
    assert dynamics._step_count(t, dt) == steps
    rho = integrate_master(model, rho0, t, dt)
    assert np.max(np.abs(rho.matrix - rk4_step_loop(model, rho0.matrix, t, steps))) <= 1e-12


def test_integrate_master_time_zero_is_input():
    model = DampingModel(3, 1.0)
    rho0 = DensityMatrix(np.diag([0.0, 0.0, 1.0]))
    assert integrate_master(model, rho0, 0.0, 1e-3) is rho0


def test_integrate_master_matches_analytic_decay():
    gamma = 1.0
    model = DampingModel(3, gamma)
    rho0 = DensityMatrix(np.diag([0.0, 0.0, 1.0]))
    for t in (0.25, 0.5, 1.0):
        rho = integrate_master(model, rho0, t, 1e-3)
        assert rho.matrix[2, 2].real == pytest.approx(np.exp(-4.0 * gamma * t), abs=1e-6)


def test_integrate_master_step_halving_converges():
    rng = np.random.default_rng(5)
    model = DampingModel(3, 1.0)
    rho0 = random_density(rng, 3)
    coarse = integrate_master(model, rho0, 0.6, 1.5e-3)
    fine = integrate_master(model, rho0, 0.6, 0.75e-3)
    assert np.max(np.abs(coarse.matrix - fine.matrix)) < 1e-8


def test_integrate_master_rejects_large_steps():
    model = DampingModel(3, 1.0)
    rho0 = DensityMatrix(np.diag([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        integrate_master(model, rho0, 1.0, 0.1)


@pytest.mark.parametrize("t, dt", [
    (np.inf, 1e-3), (np.nan, 1e-3), (-0.5, 1e-3), (1.0, 1e-300), (1e12, 1e-3),
    (1.0, 0.0), (1.0, -1e-3), (1.0, np.nan), (1.0, np.inf),
])
@pytest.mark.filterwarnings("error")
def test_integrate_master_rejects_step_counts_it_cannot_take(t, dt):
    model = DampingModel(3, 1.0)
    with pytest.raises(ValueError, match="must be finite|steps allowed"):
        integrate_master(model, DensityMatrix(np.diag([0.0, 0.0, 1.0])), t, dt)


def test_step_count_bound_admits_max_steps_exactly():
    assert dynamics._step_count(dynamics.MAX_STEPS * 1e-3, 1e-3) == dynamics.MAX_STEPS
    with pytest.raises(ValueError, match="steps allowed"):
        dynamics._step_count((dynamics.MAX_STEPS + 1) * 1e-3, 1e-3)


@pytest.mark.parametrize("gamma", [np.nan, np.inf, -1.0])
def test_damping_model_rejects_gamma_that_is_not_a_finite_rate(gamma):
    with pytest.raises(ValueError, match="gamma must be finite and non-negative"):
        DampingModel(3, gamma)


@pytest.mark.parametrize("d", [MAX_DIM + 1, 100_000])
@pytest.mark.parametrize("build", [lambda d: DampingModel(d, 1.0)], ids=["damping"])
@pytest.mark.filterwarnings("error")
def test_models_reject_dimensions_above_the_cap(build, d):
    with pytest.raises(ValueError, match=f"^dim must be at most MAX_DIM = {MAX_DIM}, got {d}$"):
        build(d)


@pytest.mark.parametrize("d", [1, 0])
@pytest.mark.parametrize("build", [lambda d: DampingModel(d, 1.0)], ids=["damping"])
def test_models_reject_dimensions_below_two(build, d):
    with pytest.raises(ValueError, match=f"^dim must be at least 2, got {d}$"):
        build(d)


@pytest.mark.parametrize("gamma_t", [np.nan, np.inf, -1.0])
@pytest.mark.parametrize("evolve", [
    lambda gt: apply_sagnac(prepare_state(SlitStatePrep.uniform(3)), gt, "amplitude"),
    # the per-step survival of the trajectory oracle, at gamma = 1 so that dt is gamma t
    lambda gt: no_jump_step(DampingModel(3, 1.0), np.ones(3) / np.sqrt(3), gt),
    lambda gt: apply_sagnac(prepare_state(SlitStatePrep.uniform(3)), gt, "population"),
], ids=["conditional_state", "survival", "population"])
def test_jump_free_maps_reject_gamma_t_that_is_not_finite_and_non_negative(evolve, gamma_t):
    with pytest.raises(ValueError, match="gamma_t must be finite and non-negative, got"):
        evolve(gamma_t)


def test_no_jump_step_examples():
    model = DampingModel(3, 1.0)
    psi, p = no_jump_step(model, np.array([1.0, 0.0, 0.0]), 0.3)
    assert np.allclose(psi, [1.0, 0.0, 0.0])
    assert p == pytest.approx(1.0, abs=1e-15)

    psi, p = no_jump_step(model, np.array([0.0, 1.0, 0.0]), 0.1)
    assert np.allclose(psi, [0.0, 1.0, 0.0], atol=1e-15)
    assert p == pytest.approx(np.exp(-0.2), abs=1e-12)

    psi, _ = no_jump_step(model, np.ones(3) / np.sqrt(3), 400.0)
    assert np.allclose(psi, [1.0, 0.0, 0.0], atol=1e-15)


def test_no_jump_step_zero_norm_error():
    model = DampingModel(3, 1.0)
    with pytest.raises(ValueError):
        no_jump_step(model, np.array([0.0, 0.0, 1.0]), 1e6)


def test_jump_step_examples():
    model = DampingModel(3, 1.0)
    assert np.allclose(jump_step(model, np.array([0.0, 1.0, 0.0])), [1.0, 0.0, 0.0])
    assert np.allclose(jump_step(model, np.array([0.0, 0.0, 1.0])), [0.0, 1.0, 0.0])
    b, c = 0.6, 0.8
    got = jump_step(model, np.array([0.0, b, c]))
    expect = np.array([b, np.sqrt(2) * c, 0.0])
    assert np.allclose(got, expect / np.linalg.norm(expect), atol=1e-14)
    with pytest.raises(ValueError):
        jump_step(model, np.array([1.0, 0.0, 0.0]))


def test_trajectories_without_damping_reproduce_input():
    model = DampingModel(3, 0.0)
    psi0 = np.array([0.6, 0.0, 0.8], dtype=complex)
    cfg = TrajectoryConfig(50, 1e-3, seed=99)
    rho = run_trajectories(model, psi0, 1.0, cfg)
    assert np.allclose(rho.matrix, np.outer(psi0, psi0.conj()), atol=1e-15)


def test_trajectories_deterministic_per_seed():
    model = DampingModel(3, 1.0)
    psi0 = np.array([0.0, 0.0, 1.0], dtype=complex)
    cfg = TrajectoryConfig(500, 1e-3, seed=7)
    a = run_trajectories(model, psi0, 0.3, cfg)
    b = run_trajectories(model, psi0, 0.3, cfg)
    assert np.array_equal(a.matrix, b.matrix)


def test_trajectories_match_master_equation():
    gamma = 1.0
    model = DampingModel(3, gamma)
    psi0 = np.array([0.0, 0.0, 1.0], dtype=complex)
    dt = 1e-2 / (2.0 * gamma * 3)
    rho_t = run_trajectories(model, psi0, 0.5, TrajectoryConfig(10_000, dt, seed=12345))
    rho_m = integrate_master(model, DensityMatrix.from_vector(psi0), 0.5, dt)
    assert trace_distance(rho_t, rho_m) <= 0.02


def test_trajectory_config_validation():
    with pytest.raises(ValueError):
        TrajectoryConfig(0, 1e-3, 1)
    with pytest.raises(ValueError):
        TrajectoryConfig(10, 0.0, 1)
    model = DampingModel(3, 1.0)
    with pytest.raises(ValueError):
        run_trajectories(model, np.array([0, 0, 1.0]), 1.0, TrajectoryConfig(10, 0.1, 1))


def v2_uniforms(n, dim, seed):
    """Stream contract v2: row k of one draw holds trajectory k's dim - 1 uniforms."""
    return derive_rng(seed).random((n, dim - 1))


def oracle_trajectories(model, psi0, t, cfg):
    """Literal per-trajectory loop over the public step maps and the v2 stream.

    Trajectory k walks the steps and multiplies its no-jump survival by
    (1 - dp) until the product falls below its next uniform; then it jumps
    and the product restarts at 1.  Returns the running ensemble averages
    after 1..n trajectories, and the jump count of every trajectory.
    """
    steps = max(1, int(np.ceil(t / cfg.dt - 1e-12)))
    h = t / steps
    levels = np.arange(model.dim)
    v0 = np.asarray(psi0, dtype=complex) / np.linalg.norm(psi0)
    total = np.zeros((model.dim, model.dim), dtype=complex)
    averages, counts = [], []
    for k, u in enumerate(v2_uniforms(cfg.n_trajectories, model.dim, cfg.seed)):
        psi, jumps, survival = v0, 0, 1.0
        for s in range(steps):
            survival *= 1.0 - 2.0 * model.gamma * h * (np.abs(psi) ** 2 @ levels)
            # in the ground state dp = 0, so the product stays at 1 and never jumps
            if jumps < len(u) and survival < u[jumps]:
                psi, jumps, survival = jump_step(model, psi), jumps + 1, 1.0
            else:
                psi, _ = no_jump_step(model, psi, h)
        total += np.outer(psi, psi.conj())
        averages.append(total / (k + 1))
        counts.append(jumps)
    return averages, counts


@pytest.mark.parametrize("dim", [2, 3, 5])
@pytest.mark.parametrize("kind", ["basis", "superposition"])
@pytest.mark.parametrize("gamma, t, dt_scale", [(1.0, 0.5, 1.0), (2.5, 0.3, 0.5), (0.4, 1.5, 0.7)])
def test_trajectories_match_per_trajectory_oracle(dim, kind, gamma, t, dt_scale):
    model = DampingModel(dim, gamma)
    if kind == "basis":
        psi0 = np.zeros(dim, dtype=complex)
        psi0[-1] = 1.0
    else:
        rng = np.random.default_rng(dim)
        psi0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    dt = dt_scale * 1e-2 / (2.0 * gamma * dim)
    n, seed = 6, 17 * dim + 3
    averages, counts = oracle_trajectories(model, psi0, t, TrajectoryConfig(n, dt, seed))
    assert any(counts), "no trajectory jumped; the case does not exercise the chain"
    # a prefix of m trajectories must reproduce the oracle's first m final states
    for m in range(1, n + 1):
        rho = run_trajectories(model, psi0, t, TrajectoryConfig(m, dt, seed)).matrix
        assert np.max(np.abs(rho - averages[m - 1])) < 1e-12


def test_trajectories_match_stepwise_ensemble():
    # enough trajectories that a jump rule off by one step changes some decisions
    dim, gamma, t = 4, 1.0, 1.0
    model = DampingModel(dim, gamma)
    psi0 = np.array([1.0, 1.0j, 1.0, 1.0]) / 2.0
    cfg = TrajectoryConfig(2000, 1e-2 / (2.0 * gamma * dim), seed=21)
    n = cfg.n_trajectories
    steps = int(np.ceil(t / cfg.dt - 1e-12))
    h = t / steps
    # a trajectory in the ground state compares its survival, 1, with a padded 0
    u = np.hstack([v2_uniforms(n, dim, cfg.seed), np.zeros((n, 1))])
    a = lowering(dim)
    decay = np.exp(-gamma * h * np.arange(dim))
    psi = np.tile(psi0, (n, 1))
    survival, jumps = np.ones(n), np.zeros(n, dtype=int)
    for s in range(steps):
        survival *= 1.0 - 2.0 * gamma * h * (np.abs(psi) ** 2 @ np.arange(dim))
        jumped = survival < u[np.arange(n), jumps]
        psi = np.where(jumped[:, None], psi @ a.T, psi * decay)
        psi /= np.linalg.norm(psi, axis=1, keepdims=True)
        survival[jumped] = 1.0
        jumps += jumped
    assert set(jumps) == {0, 1, 2, 3}
    expect = psi.T @ psi.conj() / n
    rho = run_trajectories(model, psi0, t, cfg).matrix
    assert np.max(np.abs(rho - expect)) < 1e-12


@pytest.mark.parametrize("gamma_t", [200.0, 1000.0])
@pytest.mark.parametrize("psi0", [[0.0, 1.0], [0.6, 0.8]])
def test_trajectories_at_large_gamma_t_reach_the_ground_state(gamma_t, psi0):
    # exp(-2 gamma t) underflows here; the class states must not become 0/0
    model = DampingModel(2, 1.0)
    rho = run_trajectories(model, np.array(psi0, dtype=complex), gamma_t, TrajectoryConfig(10, 2.5e-3, seed=4))
    assert np.allclose(rho.matrix, np.diag([1.0, 0.0]), rtol=0.0, atol=1e-15)


def test_trajectories_do_not_depend_on_the_uniform_block_size(monkeypatch):
    model = DampingModel(4, 1.2)
    psi0 = np.array([0.1, 0.5j, 0.3, 0.8], dtype=complex)
    cfg = TrajectoryConfig(257, 1e-3, seed=11)
    whole = run_trajectories(model, psi0, 0.8, cfg)
    # one trajectory's 3 uniforms per block, then blocks of 3 trajectories
    for block_bytes in (1, 3 * 8 * 3):
        monkeypatch.setattr(dynamics, "_UNIFORM_BLOCK_BYTES", block_bytes)
        assert np.array_equal(run_trajectories(model, psi0, 0.8, cfg).matrix, whole.matrix)


def step_rule_table(model, psi0, t, dt):
    """dp[j, s]: jump probability at step s after j jumps, from the states a^j e^{-gamma h N (s - j)} psi0."""
    steps = max(1, int(np.ceil(t / dt - 1e-12)))
    h = t / steps
    levels = np.arange(model.dim)
    v0 = np.asarray(psi0, dtype=complex)
    max_jumps = int(np.flatnonzero(v0)[-1])
    a = lowering(model.dim)
    dp = np.zeros((max_jumps, steps))
    for j in range(max_jumps):
        calm = np.arange(steps - j)[:, None]
        states = (v0 * np.exp(-model.gamma * h * levels) ** calm) @ np.linalg.matrix_power(a, j).T
        weights = np.abs(states) ** 2
        dp[j, j:] = 2.0 * model.gamma * h * (weights @ levels) / weights.sum(axis=1)
    return dp


def step_rule_law(dp):
    """P(J = j) after the last step, by the forward recursion of the step rule over (j, s)."""
    max_jumps, steps = dp.shape
    rates = np.vstack([dp, np.zeros(steps)])  # the last level cannot jump
    q = np.zeros(max_jumps + 1)
    q[0] = 1.0
    for s in range(steps):
        moved = q * rates[:, s]
        q -= moved
        q[1:] += moved[:-1]
    return q


def test_jump_count_histogram_follows_the_step_rule_law():
    model = DampingModel(4, 1.0)
    psi0 = np.array([0.5, 0.5j, -0.5, 0.5])
    dp = step_rule_table(model, psi0, 0.6, 1e-2 / (2.0 * 4))
    law = step_rule_law(dp)
    n = 200_000
    hist = dynamics._jump_counts(dp, model.dim, seed=2024, n=n)
    assert hist.sum() == n and np.all(law > 0.01)
    # binomial z-score of every count; at this fixed seed all lie well inside 4
    z = (hist - n * law) / np.sqrt(n * law * (1.0 - law))
    assert np.max(np.abs(z)) <= 4.0


def test_no_jump_conditional_state_examples():
    psi = anti_diagonal_state([1.0, 1.0, 1.0])
    assert np.array_equal(apply_sagnac(psi, 0.0)[0].amplitudes, psi.amplitudes)

    evolved, _ = apply_sagnac(psi, np.log(2.0))
    expect = np.array([1.0, 0.5, 0.25]) / np.sqrt(21.0 / 16.0)
    got = [evolved.amplitudes[level, 2 - level].real for level in range(3)]
    assert np.allclose(got, expect, atol=1e-12)

    late, _ = apply_sagnac(psi, 50.0)
    assert late.amplitudes[0, 2].real == pytest.approx(1.0, abs=1e-15)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("d", [3, 5])
@pytest.mark.parametrize("convention", ["amplitude", "population"])
def test_jump_free_maps_at_overflowing_gamma_t_keep_only_level_zero(d, convention):
    # -r gamma t l overflows to -inf for the upper levels; exp(-inf) = 0 is the exact limit
    amps = np.arange(1.0, d + 1.0)
    psi = anti_diagonal_state(amps)
    evolved, survival = apply_sagnac(psi, 1e308, convention)
    expect = np.zeros((d, d), dtype=complex)
    expect[0, d - 1] = 1.0
    assert np.array_equal(evolved.amplitudes, expect)
    assert survival == pytest.approx(1.0 / np.sum(amps**2), rel=1e-15)


@given(st.floats(0.0, 2.0), st.floats(0.0, 2.0), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_no_jump_flow_is_a_semigroup(s, t, seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 7))
    psi = random_pure(rng, d, d)
    halfway, first = apply_sagnac(psi, s)
    two_steps, second = apply_sagnac(halfway, t)
    one_step, whole = apply_sagnac(psi, s + t)
    assert np.max(np.abs(two_steps.amplitudes - one_step.amplitudes)) < 1e-12
    # surviving both intervals is surviving the whole
    assert first * second == pytest.approx(whole, abs=1e-12)


def test_population_convention_halves_the_rate():
    for d in range(2, 7):
        psi = random_pure(np.random.default_rng(d), d, d)
        slow, slow_survival = apply_sagnac(psi, 1.0, convention="population")
        fast, fast_survival = apply_sagnac(psi, 0.5, convention="amplitude")
        assert np.max(np.abs(slow.amplitudes - fast.amplitudes)) < 1e-12
        assert slow_survival == pytest.approx(fast_survival, abs=1e-12)


def test_convention_aliases():
    assert resolve_convention("eq17") == "amplitude"
    assert resolve_convention("table2") == "population"
    with pytest.raises(ValueError):
        resolve_convention("bogus")
