from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_density, random_schmidt_qutrit
from slitsim import dynamics
from slitsim.dynamics import (
    DampingModel,
    LindbladModel,
    TrajectoryConfig,
    annihilation,
    damping_lindblad,
    integrate_master,
    jump_step,
    lindblad_rhs,
    no_jump_conditional_state,
    no_jump_step,
    no_jump_survival,
    resolve_convention,
    run_trajectories,
)
from slitsim.experiment import SlitStatePrep, prepare_state, sagnac_schedule
from slitsim.qcore import ComplexOperator, DensityMatrix, PureBipartiteState, trace_distance
from slitsim.rng import derive_rng


def anti_diagonal_state(amps) -> PureBipartiteState:
    amps = np.asarray(amps, dtype=float)
    amps = amps / np.linalg.norm(amps)
    c = np.zeros((len(amps), len(amps)), dtype=complex)
    for level, a in enumerate(amps):
        c[level, len(amps) - 1 - level] = a
    return PureBipartiteState(c)


def test_annihilation_entries():
    a = annihilation(3).matrix
    expect = np.zeros((3, 3))
    expect[0, 1] = 1.0
    expect[1, 2] = np.sqrt(2)
    assert np.array_equal(a, expect)
    assert np.allclose(a.conj().T @ a, np.diag([0.0, 1.0, 2.0]), atol=1e-15)
    with pytest.raises(ValueError):
        annihilation(1)


def test_commutator_on_untruncated_block():
    for dim in (3, 5, 8):
        a = annihilation(dim).matrix
        comm = a @ a.conj().T - a.conj().T @ a
        # the commutator equals the identity wherever truncation cannot bite
        assert np.allclose(np.diag(comm)[: dim - 1], 1.0, atol=1e-12)


def test_lindblad_rhs_steady_state_is_stationary():
    model = damping_lindblad(DampingModel(3, 0.7))
    ground = DensityMatrix(np.diag([1.0, 0.0, 0.0]))
    assert np.max(np.abs(lindblad_rhs(model, ground).matrix)) < 1e-14


def test_lindblad_rhs_excited_qubit_rates():
    gamma = 0.8
    model = damping_lindblad(DampingModel(2, gamma))
    rho = DensityMatrix(np.diag([0.0, 1.0]))
    rhs = lindblad_rhs(model, rho).matrix
    assert rhs[1, 1] == pytest.approx(-2.0 * gamma, abs=1e-12)
    assert rhs[0, 0] == pytest.approx(+2.0 * gamma, abs=1e-12)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_lindblad_rhs_traceless_hermitian(seed):
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    model = LindbladModel(
        3,
        ComplexOperator(h + h.conj().T),
        ((annihilation(3), 0.5), (ComplexOperator(np.diag([1.0, -1.0, 0.5])), 0.3)),
    )
    rhs = lindblad_rhs(model, random_density(rng, 3)).matrix
    assert abs(np.trace(rhs)) < 1e-12
    assert np.max(np.abs(rhs - rhs.conj().T)) < 1e-12


def stagewise_rhs(model, rho):
    """The generator written term by term: -i[H, rho] + sum g (a rho a+ - {a+ a, rho} / 2)."""
    h = model.hamiltonian.matrix
    out = -1j * (h @ rho - rho @ h)
    for op, g in model.lindblad_ops:
        a = op.matrix
        a_dag = a.conj().T
        out = out + g * (a @ rho @ a_dag - 0.5 * (a_dag @ a @ rho + rho @ a_dag @ a))
    return out


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_lindblad_rhs_matches_the_stagewise_generator(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 7))
    h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    b = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    model = LindbladModel(
        d,
        ComplexOperator(h + h.conj().T),
        ((annihilation(d), rng.uniform(0, 2)), (ComplexOperator(b / np.linalg.norm(b)), rng.uniform(0, 2))),
    )
    rho = random_density(rng, d)
    assert np.max(np.abs(lindblad_rhs(model, rho).matrix - stagewise_rhs(model, rho.matrix))) < 1e-14


def bosonic_damping(rho, gamma_t):
    """Closed-form damping channel (Chuang, Leung & Yamamoto, PRA 56, 1114 (1997)):
    K_k = sum_n sqrt(C(n, k)) e^{-(n-k) gamma t} (1 - e^{-2 gamma t})^{k/2} |n-k><n|."""
    d = rho.shape[0]
    loss = -np.expm1(-2.0 * gamma_t)
    out = np.zeros((d, d), dtype=complex)
    for k in range(d):
        kraus = np.zeros((d, d))
        for n in range(k, d):
            kraus[n - k, n] = np.sqrt(comb(n, k)) * np.exp(-(n - k) * gamma_t) * loss ** (k / 2)
        out += kraus @ rho @ kraus.T
    return out


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_integrate_master_matches_the_closed_form_damping_channel(d):
    gamma = 0.8
    model = damping_lindblad(DampingModel(d, gamma))
    excited = np.zeros((d, d))
    excited[-1, -1] = 1.0
    mixed = random_density(np.random.default_rng(d), d).matrix
    for rho0 in (excited, mixed):
        for gamma_t in (0.1, 0.7, 2.0):
            rho = integrate_master(model, DensityMatrix(rho0), gamma_t / gamma, 1e-2 / (2.0 * gamma * d))
            assert np.max(np.abs(rho.matrix - bosonic_damping(rho0, gamma_t))) < 1e-10


def test_integrate_master_time_zero_is_input():
    model = damping_lindblad(DampingModel(3, 1.0))
    rho0 = DensityMatrix(np.diag([0.0, 0.0, 1.0]))
    assert integrate_master(model, rho0, 0.0, 1e-3) is rho0


def test_integrate_master_matches_analytic_decay():
    gamma = 1.0
    model = damping_lindblad(DampingModel(3, gamma))
    rho0 = DensityMatrix(np.diag([0.0, 0.0, 1.0]))
    for t in (0.25, 0.5, 1.0):
        rho = integrate_master(model, rho0, t, 1e-3)
        assert rho.matrix[2, 2].real == pytest.approx(np.exp(-4.0 * gamma * t), abs=1e-6)


def test_integrate_master_step_halving_converges():
    rng = np.random.default_rng(5)
    model = damping_lindblad(DampingModel(3, 1.0))
    rho0 = random_density(rng, 3)
    coarse = integrate_master(model, rho0, 0.6, 1.5e-3)
    fine = integrate_master(model, rho0, 0.6, 0.75e-3)
    assert np.max(np.abs(coarse.matrix - fine.matrix)) < 1e-8


def test_integrate_master_rejects_large_steps():
    model = damping_lindblad(DampingModel(3, 1.0))
    rho0 = DensityMatrix(np.diag([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        integrate_master(model, rho0, 1.0, 0.1)


@pytest.mark.parametrize("t, dt", [
    (np.inf, 1e-3), (np.nan, 1e-3), (-0.5, 1e-3), (1.0, 1e-300), (1e12, 1e-3),
    (1.0, 0.0), (1.0, -1e-3), (1.0, np.nan), (1.0, np.inf),
])
@pytest.mark.filterwarnings("error")
def test_integrate_master_rejects_step_counts_it_cannot_take(t, dt):
    model = damping_lindblad(DampingModel(3, 1.0))
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


@pytest.mark.parametrize("rate", [np.nan, np.inf, -1.0])
def test_lindblad_model_rejects_rate_that_is_not_finite_and_non_negative(rate):
    with pytest.raises(ValueError, match="rate must be finite and non-negative, got"):
        LindbladModel(3, ComplexOperator(np.zeros((3, 3))), ((annihilation(3), rate),))


@pytest.mark.parametrize("gamma_t", [np.nan, np.inf, -1.0])
@pytest.mark.parametrize("evolve", [
    lambda gt: no_jump_conditional_state(prepare_state(SlitStatePrep.uniform(3)), gt),
    lambda gt: no_jump_survival(prepare_state(SlitStatePrep.uniform(3)), gt),
    sagnac_schedule,
], ids=["conditional_state", "survival", "sagnac_schedule"])
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
    rho_m = integrate_master(damping_lindblad(model), DensityMatrix.from_vector(psi0), 0.5, dt)
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
    a = annihilation(dim).matrix
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
    a = annihilation(model.dim).matrix
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
    assert np.allclose(no_jump_conditional_state(psi, 0.0).amplitudes, psi.amplitudes)

    evolved = no_jump_conditional_state(psi, np.log(2.0))
    expect = np.array([1.0, 0.5, 0.25]) / np.sqrt(21.0 / 16.0)
    got = [evolved.amplitudes[level, 2 - level].real for level in range(3)]
    assert np.allclose(got, expect, atol=1e-12)

    late = no_jump_conditional_state(psi, 50.0)
    assert late.amplitudes[0, 2].real == pytest.approx(1.0, abs=1e-12)


def test_no_jump_conditional_state_rejects_general_states():
    c = np.zeros((3, 3))
    c[0, 0] = 1.0
    with pytest.raises(ValueError):
        no_jump_conditional_state(PureBipartiteState(c), 0.5)


@given(st.floats(0.0, 2.0), st.floats(0.0, 2.0), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_no_jump_flow_is_a_semigroup(s, t, seed):
    psi = random_schmidt_qutrit(np.random.default_rng(seed))
    two_steps = no_jump_conditional_state(no_jump_conditional_state(psi, s), t)
    one_step = no_jump_conditional_state(psi, s + t)
    assert np.max(np.abs(two_steps.amplitudes - one_step.amplitudes)) < 1e-12


def test_population_convention_halves_the_rate():
    psi = anti_diagonal_state([0.2771, 0.5420, 0.7934])
    slow = no_jump_conditional_state(psi, 1.0, convention="population")
    fast = no_jump_conditional_state(psi, 0.5, convention="amplitude")
    assert np.max(np.abs(slow.amplitudes - fast.amplitudes)) < 1e-12
    assert no_jump_survival(psi, 1.0, "population") == pytest.approx(
        no_jump_survival(psi, 0.5, "amplitude"), abs=1e-12
    )


def test_convention_aliases():
    assert resolve_convention("eq17") == "amplitude"
    assert resolve_convention("table2") == "population"
    with pytest.raises(ValueError):
        resolve_convention("bogus")
