import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import jump_free_oracle, random_pure
from slitsim import experiment
from slitsim.datasets import MEASURED_CONCURRENCE, damping_counts
from slitsim.dynamics import _jump_free_factors
from slitsim.experiment import (
    CountsTable,
    SlitStatePrep,
    anti_correlated_block,
    apply_sagnac,
    concurrence_uncertainty,
    populations,
    prepare_state,
    reconstruct_state,
)
from slitsim.qcore import _i_concurrence as i_concurrence_stack
from slitsim.qcore import MAX_DIM, i_concurrence
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


@pytest.mark.parametrize("build", [
    lambda d: SlitStatePrep.uniform(d),
    # the cap is checked before the amplitudes, so they need not match d
    lambda d: SlitStatePrep(d, (1.0,)),
], ids=["uniform", "amplitudes"])
@pytest.mark.parametrize("d", [MAX_DIM + 1, 10**12])
@pytest.mark.filterwarnings("error")
def test_slit_state_prep_rejects_dimensions_above_the_cap(build, d):
    with pytest.raises(ValueError, match=f"^d must be at most MAX_DIM = {MAX_DIM}, got {d}$"):
        build(d)
    assert prepare_state(SlitStatePrep.uniform(MAX_DIM)).dim_s == MAX_DIM


@pytest.mark.filterwarnings("error")
def test_prepare_validation():
    with pytest.raises(ValueError):
        SlitStatePrep(3, (0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        SlitStatePrep(3, (1.0, -0.2, 0.0))
    for amps in ((1.0, np.inf, 1.0), (np.nan, 1.0, 1.0)):
        with pytest.raises(ValueError, match="amplitudes must be finite"):
            SlitStatePrep(3, amps)
    # squares that overflow are no reason to reject: the state depends only on the ratios
    psi = prepare_state(SlitStatePrep(3, (1e200, 1e200, 1.0)))
    assert [psi.amplitudes[level, 2 - level].real for level in range(3)] == pytest.approx(
        [2**-0.5, 2**-0.5, 2**-0.5 * 1e-200], rel=1e-15)


@pytest.mark.filterwarnings("error")
def test_prepare_normalizes_amplitudes_whose_squares_stay_finite():
    psi = prepare_state(SlitStatePrep(3, (1e150, 1e150, 0.0)))
    assert psi.amplitudes[0, 2].real == psi.amplitudes[1, 1].real == pytest.approx(2 ** -0.5)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e-160, 1e-200, 5e-324, 1e300])
def test_prepare_depends_only_on_the_amplitude_ratios(scale):
    uniform = prepare_state(SlitStatePrep.uniform(3)).amplitudes
    assert np.max(np.abs(prepare_state(SlitStatePrep(3, (scale,) * 3)).amplitudes - uniform)) <= 1e-15
    if scale > 1e-300:  # the table amplitudes times 5e-324 are not representable
        partial = prepare_state(SlitStatePrep(3, TABLE2_INITIAL_AMPS)).amplitudes
        scaled = prepare_state(SlitStatePrep(3, tuple(scale * a for a in TABLE2_INITIAL_AMPS)))
        assert np.max(np.abs(scaled.amplitudes - partial)) <= 1e-15


def test_prepare_matches_plain_normalization_bit_for_bit():
    # wherever sum a^2 neither overflows nor underflows, the power-of-two scale changes no bit
    rng = np.random.default_rng(20151107)
    for _ in range(3000):
        d = int(rng.integers(2, 8))
        if rng.random() < 0.3:
            amps = rng.integers(0, 1000, size=d).astype(float)
            amps[0] += 1.0
        else:
            amps = 10.0 ** rng.uniform(-150, 150, size=d) * rng.uniform(0.5, 1.0, size=d)
            amps[rng.random(d) < 0.2] = 0.0
            amps[0] = 10.0 ** rng.uniform(-150, 150)
        psi = prepare_state(SlitStatePrep(d, tuple(amps)))
        got = np.array([psi.amplitudes[level, d - 1 - level] for level in range(d)])
        assert np.array_equal(got, amps / np.linalg.norm(amps))


def test_sagnac_schedule_values():
    # the interferometer transmits level l with amplitude exp(-l gamma t)
    assert np.array_equal(_jump_free_factors(3, 0.0), [1.0, 1.0, 1.0])
    assert np.allclose(_jump_free_factors(3, 0.5), [1.0, np.exp(-0.5), np.exp(-1.0)], atol=1e-15)
    assert np.allclose(_jump_free_factors(3, np.log(2.0)), [1.0, 0.5, 0.25], atol=1e-15)
    # the population convention reads gamma t at half the rate
    assert np.allclose(_jump_free_factors(3, np.log(4.0), "population"), [1.0, 0.5, 0.25], atol=1e-15)

    late = _jump_free_factors(3, 40.0)
    assert late[0] == 1.0
    assert late[1] < 1e-15
    with pytest.raises(ValueError):
        _jump_free_factors(3, -0.1)


def test_apply_sagnac_examples():
    psi = prepare_state(SlitStatePrep.uniform(3))
    out, prob = apply_sagnac(psi, 0.0)
    assert np.array_equal(out.amplitudes, psi.amplitudes)
    assert prob == pytest.approx(1.0, abs=1e-15)

    # transmissions 1, 1/2, 1/4 pass (1 + 1/4 + 1/16) / 3 of the pairs
    out, prob = apply_sagnac(psi, np.log(2.0))
    assert prob == pytest.approx(21.0 / 48.0, abs=1e-15)
    out_pop, prob_pop = apply_sagnac(psi, np.log(4.0), "population")
    assert np.allclose(out_pop.amplitudes, out.amplitudes, atol=1e-15)
    assert prob_pop == pytest.approx(prob, abs=1e-15)

    out, prob = apply_sagnac(psi, 0.5)
    assert np.allclose(prob * 3.0, 1.0 + np.exp(-1.0) + np.exp(-2.0), atol=1e-15)

    # level 0 alone survives a long evolution
    _, prob = apply_sagnac(psi, 50.0)
    assert prob == pytest.approx(1.0 / 3.0, abs=1e-15)


@given(st.floats(0.0, 3.0), st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_sagnac_equals_no_jump_evolution(gamma_t, seed):
    # general complex pair states at d = 2..6 against the k = 0 Kraus operator of bosonic damping
    rng = np.random.default_rng(seed)
    for d in range(2, 7):
        psi = random_pure(rng, d, d)
        for convention in ("amplitude", "population"):
            filtered, prob = apply_sagnac(psi, gamma_t, convention)
            expect, survival = jump_free_oracle(psi, gamma_t, convention)
            assert np.max(np.abs(filtered.amplitudes - expect)) < 1e-12
            assert abs(prob - survival) < 1e-12


def test_sagnac_success_probability_decreases():
    psi = prepare_state(SlitStatePrep(3, TABLE2_INITIAL_AMPS))
    probs = [apply_sagnac(psi, gt)[1] for gt in np.linspace(0, 3, 13)]
    assert all(b < a for a, b in zip(probs, probs[1:]))


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


@pytest.mark.parametrize("block", [1, 7, 333])
def test_concurrence_uncertainty_does_not_depend_on_the_block_size(monkeypatch, block):
    tables = damping_counts() + [CountsTable(np.eye(3, dtype=int))]
    whole = [concurrence_uncertainty(table, seed=5, n_resamples=1000) for table in tables]
    # one 3 x 3 slab of int64 counts is 72 bytes, so each block holds `block` resamples
    monkeypatch.setattr("slitsim.rng._BLOCK_BYTES", block * 72)
    assert np.array_equal([concurrence_uncertainty(table, seed=5, n_resamples=1000) for table in tables], whole)


@pytest.mark.filterwarnings("error")
def test_concurrence_uncertainty_counts_survivors_over_all_blocks(monkeypatch):
    # at seed 0 the first resample of this table is non-empty and the second empty
    monkeypatch.setattr("slitsim.rng._BLOCK_BYTES", 1)
    table = CountsTable(np.array([[1, 0, 0], [0, 0, 0], [0, 0, 0]]))
    with pytest.raises(ValueError, match="only 1 of 2 bootstrap resamples are non-empty"):
        concurrence_uncertainty(table, seed=0, n_resamples=2)


@pytest.mark.parametrize("n_resamples", [1, experiment.MAX_RESAMPLES + 1, 10**11])
def test_concurrence_uncertainty_caps_resamples_before_drawing(monkeypatch, n_resamples):
    def no_draw(*key):
        raise AssertionError("drew resamples past the cap")

    monkeypatch.setattr("slitsim.rng.derive_rng", no_draw)
    with pytest.raises(ValueError, match=rf"n_resamples must lie in \[2, {experiment.MAX_RESAMPLES}\]"):
        concurrence_uncertainty(table_at(0.0), seed=1, n_resamples=n_resamples)


@pytest.mark.filterwarnings("error")
def test_concurrence_uncertainty_needs_two_non_empty_resamples():
    table = CountsTable(np.array([[1, 0, 0], [0, 0, 0], [0, 0, 0]]))
    with pytest.raises(ValueError, match="only 0 of 2 bootstrap resamples are non-empty"):
        concurrence_uncertainty(table, seed=3, n_resamples=2)


def test_reconstruction_converges_with_statistics():
    psi = prepare_state(SlitStatePrep(3, TABLE2_INITIAL_AMPS))
    probs = np.abs(psi.amplitudes.ravel()) ** 2
    table = CountsTable(derive_rng(17).multinomial(1_000_000, probs / probs.sum()).reshape(3, 3))
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


def test_measured_counts_are_parsed_once_and_returned_in_a_new_list():
    first, second = damping_counts(), damping_counts()
    assert first == second and first is not second
    assert all(a is b for a, b in zip(first, second))
    assert not first[0].counts.flags.writeable


def test_measured_reference_is_complete():
    tables = damping_counts()
    assert len(tables) == 9
    assert [t.gamma_t for t in tables] == sorted(MEASURED_CONCURRENCE)
