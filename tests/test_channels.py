import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dephasing_by_kraus, dephasing_kraus, random_density
from slitsim.channels import DephasingChannel, apply_channel, uniform_dephasing_channel
from slitsim.film import compile_film
from slitsim.qcore import MAX_DIM, DensityMatrix


def maximally_coherent(d: int) -> DensityMatrix:
    return DensityMatrix(np.full((d, d), 1.0 / d))


@pytest.mark.parametrize("build", [
    lambda d: uniform_dephasing_channel(d, 0.0),
    lambda d: compile_film(d, 0.0),
], ids=["uniform-channel", "film"])
@pytest.mark.parametrize("d", [MAX_DIM + 1, 10**12])
@pytest.mark.filterwarnings("error")
def test_dephasing_rejects_dimensions_above_the_cap(build, d):
    with pytest.raises(ValueError, match=f"^d must be at most MAX_DIM = {MAX_DIM}, got {d}$"):
        build(d)
    assert uniform_dephasing_channel(MAX_DIM, 0.0).dim == MAX_DIM


def test_dephasing_kraus_rejects_small_dims():
    for d in (0, 1):
        with pytest.raises(ValueError, match=f"^d must be at least 2, got {d}$"):
            uniform_dephasing_channel(d, 0.0)
        with pytest.raises(ValueError, match=f"^d must be at least 2, got {d}$"):
            DephasingChannel([0.0] * d)
        with pytest.raises(ValueError, match=f"^d must be at least 2, got {d}$"):
            compile_film(d, 0.0)


def test_dephasing_kraus_entries():
    ops = dephasing_kraus(3)
    assert np.array_equal(ops[1], np.diag([1.0, -1.0, 1.0]))
    ops4 = dephasing_kraus(4)
    assert np.array_equal(ops4[4], np.eye(4))
    for op in ops4:
        assert np.allclose(op.conj().T @ op, np.eye(4), atol=1e-15)


def test_channel_completeness():
    # the implied identity weight makes the Kraus set trace preserving
    for d in range(2, 7):
        chan = DephasingChannel([0.9 / d] * d)
        weights = [*chan.weights, 1.0 - sum(chan.weights)]
        total = sum(w * (op.conj().T @ op) for op, w in zip(dephasing_kraus(d), weights))
        assert np.max(np.abs(total - np.eye(d))) < 1e-12


def test_zero_weights_is_identity_channel():
    chan = DephasingChannel([0.0] * 4)
    rho = maximally_coherent(4)
    assert np.allclose(apply_channel(chan, rho).matrix, rho.matrix, atol=1e-15)


def test_single_weight_kills_selected_coherences():
    # weights (0.5, 0, 0): rho_01 scaled by (1 - 2*0.5) = 0, rho_12 untouched
    rho = maximally_coherent(3)
    out = apply_channel(DephasingChannel([0.5, 0.0, 0.0]), rho)
    assert out.matrix[0, 1] == pytest.approx(0.0, abs=1e-15)
    assert out.matrix[1, 2] == pytest.approx(rho.matrix[1, 2], abs=1e-15)


def test_uniform_full_dephasing_diagonalizes():
    rho = maximally_coherent(4)
    out = apply_channel(uniform_dephasing_channel(4, 1.0), rho)
    assert np.allclose(out.matrix, np.diag([0.25] * 4), atol=1e-15)


def test_uniform_half_dephasing_scales_coherences():
    rho = DensityMatrix(np.array([
        [0.5, 0.3],
        [0.3, 0.5],
    ]))
    out = apply_channel(uniform_dephasing_channel(2, 0.5), rho)
    assert out.matrix[0, 1] == pytest.approx(0.15, abs=1e-15)


def _valid_weights(rng: np.random.Generator, d: int) -> np.ndarray:
    w = rng.uniform(0.0, 1.0, size=d)
    total = w.sum()
    if total > 1.0:
        w = w / (total * rng.uniform(1.0, 2.0))
    return w


@given(st.integers(2, 6), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_closed_form_matches_kraus_application(d, seed):
    rng = np.random.default_rng(seed)
    rho = random_density(rng, d)
    weights = _valid_weights(rng, d)
    via_kraus = dephasing_by_kraus(weights, rho)
    via_law = apply_channel(DephasingChannel(weights), rho)
    assert np.max(np.abs(via_kraus - via_law.matrix)) < 1e-12
    assert np.max(np.abs(np.diag(via_law.matrix) - np.diag(rho.matrix))) < 1e-12


@given(st.integers(2, 6), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_apply_channel_preserves_density_invariants(d, seed):
    rng = np.random.default_rng(seed)
    rho = random_density(rng, d)
    out = apply_channel(DephasingChannel(_valid_weights(rng, d)), rho)
    m = out.matrix
    assert np.max(np.abs(m - m.conj().T)) < 1e-12
    assert abs(np.trace(m) - 1.0) < 1e-12
    assert np.linalg.eigvalsh(m)[0] > -1e-10


@given(
    st.floats(0.0, 1.0, allow_nan=False),
    st.floats(0.0, 1.0, allow_nan=False),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_uniform_channels_compose_multiplicatively(p, q, seed):
    rng = np.random.default_rng(seed)
    rho = random_density(rng, 4)
    once = apply_channel(uniform_dephasing_channel(4, q), apply_channel(uniform_dephasing_channel(4, p), rho))
    combined = 1.0 - (1.0 - p) * (1.0 - q)
    direct = apply_channel(uniform_dephasing_channel(4, combined), rho)
    assert np.max(np.abs(once.matrix - direct.matrix)) < 1e-12


@pytest.mark.filterwarnings("error")
def test_weight_validation():
    with pytest.raises(ValueError, match=r"^weights sum to 1\.2 > 1$"):
        DephasingChannel([0.5, 0.4, 0.3])
    with pytest.raises(ValueError, match="^weights must be non-negative$"):
        DephasingChannel([-0.1, 0.0, 0.0])
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="^weights must be finite"):
            DephasingChannel([bad, 0.0, 0.0])
    with pytest.raises(ValueError, match="^d must be at least 2, got 1$"):
        DephasingChannel([0.1])  # d is the number of flip weights
    with pytest.raises(ValueError):
        uniform_dephasing_channel(6, 1.0)  # p/4 weights infeasible at d=6


def test_apply_channel_dimension_mismatch():
    chan = uniform_dephasing_channel(3, 0.5)
    with pytest.raises(ValueError):
        apply_channel(chan, DensityMatrix(np.eye(4) / 4))
