import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_schmidt_qutrit
from slitsim import experiment
from slitsim.datasets import MEASURED_CONCURRENCE, damping_counts
from slitsim.dynamics import no_jump_conditional_state, no_jump_survival
from slitsim.experiment import (
    CountsTable,
    SlitStatePrep,
    anti_correlated_block,
    apply_sagnac,
    concurrence_uncertainty,
    populations,
    prepare_state,
    reconstruct_state,
    sagnac_schedule,
    simulate_counts,
)
from slitsim.qcore import _i_concurrence as i_concurrence_stack
from slitsim.qcore import i_concurrence
from slitsim.rng import child_seed, derive_rng

TABLE2_INITIAL_AMPS = (0.2771, 0.5420, 0.7934)


def table_at(gamma_t: float) -> CountsTable:
    for table in damping_counts():
        if table.gamma_t == gamma_t:
            return table
    raise LookupError(gamma_t)


def test_prepare_uniform_ququart():
    psi = prepare_state(SlitStatePrep.uniform(4))
    for level in range(4):
        assert psi.amplitudes[level, 3 - level] == pytest.approx(0.5, abs=1e-15)
    assert i_concurrence(psi) == pytest.approx(1.0, abs=1e-12)


def test_prepare_product_state_has_no_entanglement():
    psi = prepare_state(SlitStatePrep(3, (1.0, 0.0, 0.0)))
    assert i_concurrence(psi) == pytest.approx(0.0, abs=1e-12)


def test_prepare_partial_state_concurrence():
    psi = prepare_state(SlitStatePrep(3, TABLE2_INITIAL_AMPS))
    assert i_concurrence(psi) == pytest.approx(0.876, abs=5e-4)


def test_prepare_validation():
    with pytest.raises(ValueError):
        SlitStatePrep(3, (0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        SlitStatePrep(3, (1.0, -0.2, 0.0))


def test_sagnac_schedule_values():
    sched = sagnac_schedule(0.0)
    assert sched.transmissions == (1.0, 1.0, 1.0)
    assert np.allclose(sched.phases, [np.pi] * 3, atol=1e-12)

    sched = sagnac_schedule(0.5)
    assert np.allclose(sched.transmissions, [1.0, np.exp(-0.5), np.exp(-1.0)], atol=1e-12)
    # transmissions always equal sin(phi/2)
    assert np.allclose(sched.transmissions, np.sin(np.array(sched.phases) / 2), atol=1e-12)

    sched = sagnac_schedule(40.0)
    assert sched.transmissions[0] == 1.0
    assert sched.transmissions[1] < 1e-15
    with pytest.raises(ValueError):
        sagnac_schedule(-0.1)


def test_apply_sagnac_examples():
    psi = prepare_state(SlitStatePrep.uniform(3))
    out, prob = apply_sagnac(psi, sagnac_schedule(0.0))
    assert np.allclose(out.amplitudes, psi.amplitudes)
    assert prob == pytest.approx(1.0, abs=1e-12)

    out, prob = apply_sagnac(psi, sagnac_schedule(np.log(2.0)))
    anti = [out.amplitudes[level, 2 - level].real for level in range(3)]
    assert np.allclose(np.array(anti) / anti[0], [1.0, 0.5, 0.25], atol=1e-12)
    assert prob <= 1.0


@given(st.floats(0.0, 3.0), st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_sagnac_equals_no_jump_evolution(gamma_t, seed):
    psi = random_schmidt_qutrit(np.random.default_rng(seed))
    via_optics, prob = apply_sagnac(psi, sagnac_schedule(gamma_t))
    via_dynamics = no_jump_conditional_state(psi, gamma_t)
    assert np.max(np.abs(via_optics.amplitudes - via_dynamics.amplitudes)) < 1e-12
    assert prob == pytest.approx(no_jump_survival(psi, gamma_t), abs=1e-12)


def test_sagnac_success_probability_decreases():
    psi = prepare_state(SlitStatePrep(3, TABLE2_INITIAL_AMPS))
    probs = [apply_sagnac(psi, sagnac_schedule(gt))[1] for gt in np.linspace(0, 3, 13)]
    assert all(b < a for a, b in zip(probs, probs[1:]))


def test_simulate_counts_product_state():
    c = np.zeros((3, 3))
    c[0, 0] = 1.0
    from slitsim.qcore import PureBipartiteState

    table = simulate_counts(PureBipartiteState(c), 100, seed=3)
    assert table.counts[0, 0] == 100
    assert table.total == 100


def test_simulate_counts_multinomial_scale():
    psi = prepare_state(SlitStatePrep.uniform(3))
    table = simulate_counts(psi, 3_000_000, seed=11)
    sigma = np.sqrt(3_000_000 * (1 / 3) * (2 / 3))
    for level in range(3):
        assert abs(table.counts[level, 2 - level] - 1_000_000) <= 4 * sigma
    assert table.total == 3_000_000


def test_simulate_counts_deterministic():
    psi = prepare_state(SlitStatePrep.uniform(3))
    a = simulate_counts(psi, 1000, seed=5)
    b = simulate_counts(psi, 1000, seed=5)
    assert np.array_equal(a.counts, b.counts)


def test_reconstruct_single_cell():
    table = CountsTable(np.array([[0, 0, 7], [0, 0, 0], [0, 0, 0]]))
    psi = reconstruct_state(table)
    assert psi.amplitudes[0, 2] == pytest.approx(1.0, abs=1e-15)


def test_reconstruct_measured_columns():
    # zero-phase reconstruction reproduces the quoted concurrences
    assert i_concurrence(reconstruct_state(table_at(0.0))) == pytest.approx(0.862, abs=0.005)
    assert i_concurrence(reconstruct_state(table_at(0.1))) == pytest.approx(0.895, abs=0.005)
    assert i_concurrence(reconstruct_state(table_at(1.0))) == pytest.approx(0.971, abs=0.005)


def test_populations_measured_column():
    signal, idler = populations(table_at(0.0))
    assert np.allclose(signal, [0.083, 0.293, 0.625], atol=1e-3)
    assert abs(signal.sum() - 1.0) < 1e-12
    assert abs(idler.sum() - 1.0) < 1e-12


def test_populations_uniform_table():
    table = CountsTable(np.full((3, 3), 5))
    signal, idler = populations(table)
    assert np.allclose(signal, 1 / 3)
    assert np.allclose(idler, 1 / 3)


def test_populations_late_column_ordering():
    signal, _ = populations(table_at(1.7))
    assert signal[2] < signal[1] < signal[0]


def test_concurrence_uncertainty_scale():
    sigma = concurrence_uncertainty(table_at(0.0), seed=21)
    assert 0.0035 <= sigma <= 0.014  # within a factor two of the quoted 0.007


def test_concurrence_uncertainty_shrinks_with_counts():
    base = table_at(0.0)
    scaled = CountsTable(base.counts * 100, gamma_t=base.gamma_t)
    s1 = concurrence_uncertainty(base, seed=4, n_resamples=500)
    s2 = concurrence_uncertainty(scaled, seed=4, n_resamples=500)
    assert 5.0 <= s1 / s2 <= 20.0  # Poisson scaling is ~x10


def test_concurrence_uncertainty_deterministic():
    t = table_at(0.5)
    assert concurrence_uncertainty(t, seed=9, n_resamples=300) == concurrence_uncertainty(
        t, seed=9, n_resamples=300
    )


def _per_resample_sigma(table: CountsTable, seed: int, n_resamples: int) -> float:
    """One validated table, state and concurrence per resample, all-zero draws dropped."""
    draws = derive_rng(seed).poisson(table.counts, size=(n_resamples, *table.counts.shape))
    values = []
    for redrawn in draws:
        if redrawn.sum() == 0:
            continue
        values.append(i_concurrence(reconstruct_state(CountsTable(redrawn))))
    return float(np.std(values))


@pytest.mark.parametrize("n_resamples", [2, 50, 1000])
def test_concurrence_uncertainty_matches_per_resample_oracle(n_resamples):
    # the sparse table loses about one resample in twenty (e^-3) to the drop rule
    sparse = CountsTable(np.eye(3, dtype=int))
    for table in damping_counts() + [sparse]:
        for seed in (0, 7, 12345):
            got = concurrence_uncertainty(table, seed=seed, n_resamples=n_resamples)
            assert got == pytest.approx(_per_resample_sigma(table, seed, n_resamples), abs=1e-15)


def _v1_sigma(table: CountsTable, seed: int, n_resamples: int) -> float:
    """The earlier stream contract: resample r from its own stream (seed, r)."""
    draws = np.array([derive_rng(seed, r).poisson(table.counts) for r in range(n_resamples)])
    draws = draws[draws.any(axis=(1, 2))]
    return float(np.std(i_concurrence_stack(np.sqrt(draws / draws.sum(axis=(1, 2), keepdims=True)))))


def test_concurrence_uncertainty_agrees_with_v1_streams_within_monte_carlo_error():
    # Each sigma estimate carries a relative Monte Carlo error of ~1/sqrt(2R)
    # (Efron & Tibshirani 1993, normal approximation), so the relative
    # difference of two independent estimates has standard deviation ~1/sqrt(R).
    # Over N (seed, column) pairs the mean difference then has standard error
    # 1/sqrt(R N): the mean must sit within 4 of those of 0 and every pair
    # within 5 standard deviations, 5/sqrt(R).
    n_resamples = 400
    rel = np.array([
        concurrence_uncertainty(table, seed=child_seed(seed, col), n_resamples=n_resamples)
        / _v1_sigma(table, child_seed(seed, col), n_resamples) - 1.0
        for seed in range(20)
        for col, table in enumerate(damping_counts())
    ])
    assert abs(rel.mean()) <= 4.0 / np.sqrt(n_resamples * len(rel))
    assert np.max(np.abs(rel)) <= 5.0 / np.sqrt(n_resamples)


@pytest.mark.parametrize("short", [37, 400])
def test_concurrence_uncertainty_draws_are_prefix_stable(monkeypatch, short):
    # the stacks handed to the concurrence pass are the surviving resamples
    stacks = []

    def record(amplitudes):
        stacks.append(amplitudes)
        return i_concurrence_stack(amplitudes)

    monkeypatch.setattr(experiment, "_i_concurrence", record)
    for table in damping_counts() + [CountsTable(np.eye(3, dtype=int))]:
        for seed in (0, 7):
            stacks.clear()
            concurrence_uncertainty(table, seed=seed, n_resamples=1000)
            concurrence_uncertainty(table, seed=seed, n_resamples=short)
            full, prefix = stacks
            kept = derive_rng(seed).poisson(table.counts, size=(short, 3, 3)).any(axis=(1, 2)).sum()
            assert len(prefix) == kept
            np.testing.assert_array_equal(prefix, full[:kept])


@pytest.mark.parametrize("n_resamples", [1, experiment.MAX_RESAMPLES + 1, 10**11])
def test_concurrence_uncertainty_caps_resamples_before_drawing(monkeypatch, n_resamples):
    def no_draw(*key):
        raise AssertionError("drew resamples past the cap")

    monkeypatch.setattr(experiment, "derive_rng", no_draw)
    with pytest.raises(ValueError, match=rf"n_resamples must lie in \[2, {experiment.MAX_RESAMPLES}\]"):
        concurrence_uncertainty(table_at(0.0), seed=1, n_resamples=n_resamples)


@pytest.mark.filterwarnings("error")
def test_concurrence_uncertainty_needs_two_non_empty_resamples():
    table = CountsTable(np.array([[1, 0, 0], [0, 0, 0], [0, 0, 0]]))
    with pytest.raises(ValueError, match="only 0 of 2 bootstrap resamples are non-empty"):
        concurrence_uncertainty(table, seed=3, n_resamples=2)


def test_reconstruction_converges_with_statistics():
    psi = prepare_state(SlitStatePrep(3, TABLE2_INITIAL_AMPS))
    table = simulate_counts(psi, 1_000_000, seed=17)
    recon = reconstruct_state(table)
    assert np.max(np.abs(np.abs(psi.amplitudes) - recon.amplitudes)) < 0.01


def test_anti_correlated_block():
    rho = anti_correlated_block(prepare_state(SlitStatePrep.uniform(4)))
    assert np.allclose(rho.matrix, np.full((4, 4), 0.25), atol=1e-15)
    from slitsim.qcore import PureBipartiteState

    c = np.zeros((3, 3))
    c[0, 0] = 1.0  # correlated pair only
    with pytest.raises(ValueError):
        anti_correlated_block(PureBipartiteState(c))


def test_counts_table_validation():
    with pytest.raises(ValueError):
        CountsTable(np.zeros((3, 3), dtype=int))
    with pytest.raises(ValueError):
        CountsTable(np.array([[1, -2], [0, 0]]))


def test_measured_reference_is_complete():
    tables = damping_counts()
    assert len(tables) == 9
    assert [t.gamma_t for t in tables] == sorted(MEASURED_CONCURRENCE)
