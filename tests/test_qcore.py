import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import joint_density, partial_trace, purity, random_pure, random_unitary, schmidt_coefficients
from slitsim.qcore import (
    MAX_DIM,
    DensityMatrix,
    PureBipartiteState,
    _i_concurrence,
    i_concurrence,
    trace_distance,
)


def test_partial_trace_product_state():
    c = np.zeros((3, 3))
    c[0, 0] = 1.0
    rho = joint_density(PureBipartiteState(c))
    reduced = partial_trace(rho, (3, 3), keep="signal")
    expect = np.zeros((3, 3))
    expect[0, 0] = 1.0
    assert np.allclose(reduced.matrix, expect, atol=1e-14)


def test_partial_trace_maximally_entangled_qutrit():
    c = np.fliplr(np.eye(3)) / np.sqrt(3)
    rho = joint_density(PureBipartiteState(c))
    for keep in ("signal", "idler"):
        reduced = partial_trace(rho, (3, 3), keep=keep)
        assert np.allclose(reduced.matrix, np.eye(3) / 3, atol=1e-14)


def test_partial_trace_dimension_mismatch():
    rho = DensityMatrix(np.eye(4) / 4)
    with pytest.raises(ValueError):
        partial_trace(rho, (3, 3), keep="signal")


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_partial_trace_purities_agree(seed):
    rng = np.random.default_rng(seed)
    psi = random_pure(rng, 3, 4)
    rho = joint_density(psi)
    ps = purity(partial_trace(rho, (3, 4), keep="signal"))
    pi = purity(partial_trace(rho, (3, 4), keep="idler"))
    assert abs(ps - pi) < 1e-12
    for keep in ("signal", "idler"):
        assert abs(np.trace(partial_trace(rho, (3, 4), keep).matrix) - 1.0) < 1e-12


def test_purity_examples():
    pure = DensityMatrix.from_vector([1.0, 0.0, 0.0])
    assert purity(pure) == pytest.approx(1.0, abs=1e-12)
    assert purity(DensityMatrix(np.eye(3) / 3)) == pytest.approx(1 / 3, abs=1e-12)
    # hand oracle: 0.0768^2 + 0.2938^2 + 0.6294^2
    rho = DensityMatrix(np.diag([0.0768, 0.2938, 0.6294]))
    assert purity(rho) == pytest.approx(0.48836104, abs=1e-12)
    assert round(purity(rho), 4) == 0.4884


def test_concurrence_extremes():
    c = np.fliplr(np.eye(3)) / np.sqrt(3)
    assert i_concurrence(PureBipartiteState(c)) == pytest.approx(1.0, abs=1e-12)
    c = np.zeros((3, 3))
    c[0, 0] = 1.0
    assert i_concurrence(PureBipartiteState(c)) == pytest.approx(0.0, abs=1e-12)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_concurrence_same_from_either_subsystem(seed):
    rng = np.random.default_rng(seed)
    psi = random_pure(rng, 3, 3)
    rho = joint_density(psi)
    d = 3
    omega = np.sqrt(2 * (d - 1) / d)
    c_s = np.sqrt(max(2 * (1 - purity(partial_trace(rho, (3, 3), "signal"))), 0.0)) / omega
    c_i = np.sqrt(max(2 * (1 - purity(partial_trace(rho, (3, 3), "idler"))), 0.0)) / omega
    assert abs(c_s - c_i) < 1e-12
    assert i_concurrence(psi) == pytest.approx(c_s, abs=1e-10)


def _normalized_stack(rng, shape, d, complex_entries):
    c = rng.normal(size=(*shape, d, d))
    if complex_entries:
        c = c + 1j * rng.normal(size=c.shape)
    return c / np.sqrt(np.sum(np.abs(c) ** 2, axis=(-2, -1), keepdims=True))


@pytest.mark.parametrize("complex_entries", [False, True])
@pytest.mark.parametrize("shape", [(1,), (7,), (2, 5)])
@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_stacked_concurrence_equals_each_matrix_bit_for_bit(d, shape, complex_entries):
    rng = np.random.default_rng([d, len(shape), shape[-1], complex_entries])
    c = _normalized_stack(rng, shape, d, complex_entries)
    stacked = _i_concurrence(c)
    assert stacked.shape == shape
    assert stacked.dtype == np.float64
    for idx in np.ndindex(shape):
        assert stacked[idx] == _i_concurrence(c[idx])
        assert stacked[idx] == i_concurrence(PureBipartiteState(c[idx]))


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, MAX_DIM])
def test_stacked_concurrence_matches_the_schmidt_purity(d):
    rng = np.random.default_rng(d)
    c = _normalized_stack(rng, (50,), d, complex_entries=True)
    omega = np.sqrt(2 * (d - 1) / d)
    for got, amplitudes in zip(_i_concurrence(c), c):
        lam = schmidt_coefficients(PureBipartiteState(amplitudes))
        assert got == pytest.approx(np.sqrt(max(2 * (1 - np.sum(lam**2)), 0.0)) / omega, abs=1e-12)


def test_schmidt_examples():
    c = np.zeros((3, 3))
    c[0, 0] = 1.0
    assert np.allclose(schmidt_coefficients(PureBipartiteState(c)), [1.0, 0.0, 0.0])

    c = np.fliplr(np.eye(3)) / np.sqrt(3)
    assert np.allclose(schmidt_coefficients(PureBipartiteState(c)), [1 / 3] * 3, atol=1e-12)

    amps = (0.2771, 0.5420, 0.7934)
    c = np.zeros((3, 3))
    for level, a in enumerate(amps):
        c[level, 2 - level] = a
    c = c / np.linalg.norm(c)
    lam = schmidt_coefficients(PureBipartiteState(c))
    assert np.allclose(lam, [0.6295, 0.2938, 0.0768], atol=2e-4)
    assert abs(lam.sum() - 1.0) < 1e-10


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_schmidt_invariant_under_local_unitaries(seed):
    rng = np.random.default_rng(seed)
    psi = random_pure(rng, 3, 3)
    u = random_unitary(rng, 3)
    v = random_unitary(rng, 3)
    rotated = PureBipartiteState(u @ psi.amplitudes @ v.T)
    assert np.allclose(
        schmidt_coefficients(psi), schmidt_coefficients(rotated), atol=1e-10
    )


def test_density_matrix_invariants_enforced():
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0.5, 0.5], [0.1, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([1.5, -0.5]))  # negative eigenvalue
    # tiny numerical negativity within tolerance is accepted
    DensityMatrix(np.diag([1.0 + 5e-10, -5e-10]))
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[np.nan, 0], [0, 1]]))


def test_values_are_immutable():
    rho = DensityMatrix(np.eye(2) / 2)
    with pytest.raises(Exception):
        rho.matrix[0, 0] = 9.0
    psi = PureBipartiteState(np.eye(2) / np.sqrt(2))
    with pytest.raises(Exception):
        psi.amplitudes[0, 0] = 1.0


def test_trace_distance_basics():
    a = DensityMatrix(np.diag([1.0, 0.0]))
    b = DensityMatrix(np.diag([0.0, 1.0]))
    assert trace_distance(a, b) == pytest.approx(1.0, abs=1e-12)
    assert trace_distance(a, a) == pytest.approx(0.0, abs=1e-14)
