import math
import re

import numpy as np
import pytest

from conftest import dense_scan_positions, random_density
from slitsim import optics
from slitsim.experiment import SlitStatePrep, anti_correlated_block, prepare_state
from slitsim.optics import (
    DegenerateScanError,
    OpticalGeometry,
    PatternScan,
    _envelope_and_fringe,
    fit_p,
    fringe_period,
    pattern_intensity,
    synthesize_scan,
    x_pi,
)
from slitsim.qcore import DensityMatrix

GEOM = OpticalGeometry()
RHO0 = anti_correlated_block(prepare_state(SlitStatePrep.uniform(4)))


def test_x_pi_values():
    assert x_pi(GEOM) == pytest.approx(0.176, abs=5e-4)
    wide = OpticalGeometry(beta=1.0)
    assert x_pi(wide) == pytest.approx(0.284, abs=5e-4)
    # linear in beta
    assert x_pi(OpticalGeometry(beta=1.24)) == pytest.approx(2 * x_pi(OpticalGeometry(beta=0.62)), rel=1e-12)
    # definition: k d x_pi / (f beta) = pi
    assert GEOM.wave_number * GEOM.slit_separation * x_pi(GEOM) / (
        GEOM.focal_length * GEOM.beta
    ) == pytest.approx(math.pi, rel=1e-12)


def test_fringe_period_value():
    assert fringe_period(GEOM) == pytest.approx(0.568, abs=5e-4)
    assert fringe_period(GEOM, "signal") == pytest.approx(0.568 * 0.62, abs=5e-4)


def test_full_dephasing_leaves_envelope_only():
    xs = np.linspace(-0.8, 0.8, 101)
    k, a, f, beta = GEOM.wave_number, GEOM.half_slit_width, GEOM.focal_length, GEOM.beta
    envelope = np.sinc(k * a * xs / f / np.pi) ** 2 * np.sinc(0.0) ** 2
    assert np.allclose(pattern_intensity(GEOM, RHO0, 1.0, xs, 0.0), envelope, atol=1e-12)


def test_pattern_peak_at_origin_for_maximal_entanglement():
    xs = np.linspace(-1.5, 1.5, 4001)
    curve = pattern_intensity(GEOM, RHO0, 0.0, xs, 0.0)
    assert pattern_intensity(GEOM, RHO0, 0.0, 0.0, 0.0) >= curve.max() - 1e-12


def test_envelope_normalized_pattern_is_periodic():
    period = fringe_period(GEOM)
    xs = np.linspace(-period / 2, period / 2, 200)
    bracket = pattern_intensity(GEOM, RHO0, 0.3, xs, 0.0) / pattern_intensity(GEOM, RHO0, 1.0, xs, 0.0)
    shifted = pattern_intensity(GEOM, RHO0, 0.3, xs + period, 0.0) / pattern_intensity(
        GEOM, RHO0, 1.0, xs + period, 0.0
    )
    assert np.allclose(bracket, shifted, atol=1e-12)


def test_pattern_rejects_bad_p():
    with pytest.raises(ValueError):
        pattern_intensity(GEOM, RHO0, 1.5, 0.0, 0.0)
    with pytest.raises(ValueError):
        pattern_intensity(GEOM, RHO0, 0.5, 0.0, 0.0, scale=-1.0)


def test_pattern_nonnegative_without_meaningful_clamping():
    import warnings

    xs = np.linspace(-2.0, 2.0, 3001)
    # the model itself is never negative (no clamp exists to hide it), and the
    # error filter rules out numpy warnings along the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p in (0.0, 0.5, 1.0):
            for x_s in (0.0, x_pi(GEOM)):
                curve = pattern_intensity(GEOM, RHO0, p, xs, x_s)
                assert np.min(curve) >= 0.0


def test_synthesize_noiseless_records_exact_pattern():
    xs = dense_scan_positions()
    scan = synthesize_scan(GEOM, RHO0, 0.25, "signal", 0.0, xs, 500.0, seed=1, noiseless=True)
    curve = pattern_intensity(GEOM, RHO0, 0.25, xs, 0.0)
    assert np.allclose(scan.counts, 500.0 * curve / curve.max(), atol=1e-12)
    assert scan.p_true == 0.25


def test_synthesize_full_dephasing_has_no_fringe():
    period = fringe_period(GEOM)
    xs = np.linspace(-period / 2, period / 2, 25)
    scan = synthesize_scan(GEOM, RHO0, 1.0, "signal", 0.0, xs, 500.0, seed=8)
    ideal = synthesize_scan(GEOM, RHO0, 1.0, "signal", 0.0, xs, 500.0, seed=8, noiseless=True)
    v_obs = (scan.counts.max() - scan.counts.min()) / (scan.counts.max() + scan.counts.min())
    v_env = (ideal.counts.max() - ideal.counts.min()) / (ideal.counts.max() + ideal.counts.min())
    # envelope contrast plus a 3-sigma Poisson allowance at peak 500
    assert v_obs <= v_env + 6.0 * math.sqrt(500.0) / (2.0 * 500.0 * (1.0 - v_env))


def test_synthesize_deterministic():
    xs = dense_scan_positions()
    a = synthesize_scan(GEOM, RHO0, 0.5, "signal", 0.0, xs, 500.0, seed=21)
    b = synthesize_scan(GEOM, RHO0, 0.5, "signal", 0.0, xs, 500.0, seed=21)
    assert np.array_equal(a.counts, b.counts)


def test_noiseless_round_trip():
    xs = dense_scan_positions()
    for x_fixed in (0.0, x_pi(GEOM)):
        scan = synthesize_scan(GEOM, RHO0, 0.375, "signal", x_fixed, xs, 500.0, seed=0, noiseless=True)
        result = fit_p(scan, GEOM, RHO0)
        assert abs(result.p_hat - 0.375) <= 1e-4


def test_noiseless_p_zero_gives_floor_sigma():
    xs = dense_scan_positions()
    scan = synthesize_scan(GEOM, RHO0, 0.0, "signal", 0.0, xs, 500.0, seed=0, noiseless=True)
    result = fit_p(scan, GEOM, RHO0)
    assert result.p_hat == pytest.approx(0.0, abs=1e-6)
    # a perfect curve still quotes the counting-noise floor of its count level
    assert 0.005 < result.sigma_p < 0.15
    noisy = fit_p(synthesize_scan(GEOM, RHO0, 0.0, "signal", 0.0, xs, 500.0, seed=4), GEOM, RHO0)
    assert result.sigma_p == pytest.approx(noisy.sigma_p, rel=0.25)


def test_fit_scale_invariance():
    xs = dense_scan_positions()
    scan = synthesize_scan(GEOM, RHO0, 0.5, "signal", 0.0, xs, 500.0, seed=13)
    scaled = PatternScan(scan.fixed_arm, scan.fixed_position, scan.positions, scan.counts * 37.0)
    a = fit_p(scan, GEOM, RHO0)
    b = fit_p(scaled, GEOM, RHO0)
    assert abs(a.p_hat - b.p_hat) < 1e-10
    assert b.scale_hat == pytest.approx(37.0 * a.scale_hat, rel=1e-9)


def _model_peak_spacing(p_hat: float, scale: float) -> float:
    # spacing of the fitted model's fringe maxima, envelope divided out
    period = fringe_period(GEOM)

    def peak_near(center):
        xs = np.linspace(center - period / 4, center + period / 4, 20001)
        curve = pattern_intensity(GEOM, RHO0, p_hat, xs, 0.0, scale=scale)
        env = pattern_intensity(GEOM, RHO0, 1.0, xs, 0.0, scale=scale)
        bracket = curve / env
        i = int(np.argmax(bracket))
        f0, fp, fm = bracket[i], bracket[i + 1], bracket[i - 1]
        # parabolic sub-grid refinement around the peak sample
        shift = 0.5 * (fm - fp) / (fm - 2.0 * f0 + fp)
        return xs[i] + shift * (xs[1] - xs[0])

    return peak_near(period) - peak_near(0.0)


def test_fitted_fringe_period_independent_of_p():
    xs = np.linspace(-0.9, 0.9, 61)
    spacings = []
    for p in (0.0, 0.5):
        scan = synthesize_scan(GEOM, RHO0, p, "signal", 0.0, xs, 500.0, seed=0, noiseless=True)
        result = fit_p(scan, GEOM, RHO0)
        spacings.append(_model_peak_spacing(result.p_hat, result.scale_hat))
    assert spacings[0] == pytest.approx(spacings[1], rel=1e-9)


def test_visibility_affine_in_one_minus_p():
    period = fringe_period(GEOM)
    xs = np.linspace(-period / 2, period / 2, 2001)
    env = pattern_intensity(GEOM, RHO0, 1.0, xs, 0.0)
    ps = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    vis = []
    for p in ps:
        bracket = pattern_intensity(GEOM, RHO0, p, xs, 0.0) / env
        vis.append((bracket.max() - bracket.min()) / 2.0)
    design = np.vstack([1.0 - ps, np.ones_like(ps)]).T
    coef, *_ = np.linalg.lstsq(design, np.asarray(vis), rcond=None)
    fitted = design @ coef
    ss_res = float(np.sum((vis - fitted) ** 2))
    ss_tot = float(np.sum((vis - np.mean(vis)) ** 2))
    assert 1.0 - ss_res / ss_tot > 0.9999


def test_degenerate_scan_is_signaled():
    diagonal = DensityMatrix(np.diag([0.25] * 4))
    xs = dense_scan_positions()
    scan = synthesize_scan(GEOM, RHO0, 0.5, "signal", 0.0, xs, 500.0, seed=2)
    with pytest.raises(DegenerateScanError):
        fit_p(scan, GEOM, diagonal)


@pytest.mark.parametrize("start", [1e80, 1e85, 1e160])
def test_far_tail_scan_is_degenerate(start):
    # the squared envelope (or, at 1e80, the curvature's amp^2) leaves the float range
    scan = PatternScan("signal", 0.0, np.linspace(start, 2 * start, 9), np.full(9, 100.0))
    with pytest.raises(DegenerateScanError):
        fit_p(scan, GEOM, RHO0)


@pytest.mark.parametrize("fixed_arm", ["signal", "idler"])
def test_overflowing_positions_are_named(fixed_arm):
    xs = np.linspace(1e306, 2e306, 9)
    with pytest.raises(ValueError, match=r"not finite at 9 of 9 positions, first at"):
        synthesize_scan(GEOM, RHO0, 0.5, fixed_arm, 0.0, xs, 500.0, seed=1)
    scan = PatternScan(fixed_arm, 0.0, xs, np.full(9, 100.0))
    with pytest.raises(ValueError, match=r"x_[is] = 1e\+306 mm") as err:
        fit_p(scan, GEOM, RHO0)
    assert not isinstance(err.value, DegenerateScanError)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("peak_counts, noiseless, message", [
    (math.nan, False, "peak_counts must be finite and positive, got nan"),
    (math.inf, True, "peak_counts must be finite and positive, got inf"),
    (0.0, True, "peak_counts must be finite and positive, got 0.0"),
    (1.7e308, True, "peak_counts 1.7e+308 overflows the mean counts"),
    (1e300, False, "peak_counts 1e+300 puts the mean counts above 9.22"),
], ids=["nan", "inf", "zero", "overflow", "above-poisson-limit"])
def test_peak_counts_is_rejected_under_its_own_name(peak_counts, noiseless, message):
    xs = np.linspace(-0.5, 0.5, 21)
    with pytest.raises(ValueError, match=re.escape(message)):
        synthesize_scan(GEOM, RHO0, 0.5, "signal", 0.0, xs, peak_counts, seed=1, noiseless=noiseless)


@pytest.mark.filterwarnings("error")
def test_peak_counts_up_to_the_poisson_limit_is_sampled():
    # the limit is numpy's own: it samples this mean and refuses the next float up
    rng = np.random.default_rng(0)
    rng.poisson(optics._POISSON_MEAN_MAX)
    with pytest.raises(ValueError, match="lam value too large"):
        rng.poisson(np.nextafter(optics._POISSON_MEAN_MAX, np.inf))
    # scaling by max(P) can round the top mean one step above peak_counts
    xs = np.linspace(-0.5, 0.5, 21)
    peak = np.nextafter(optics._POISSON_MEAN_MAX, 0.0)
    scan = synthesize_scan(GEOM, RHO0, 0.5, "signal", 0.0, xs, peak, seed=1)
    assert np.all(np.isfinite(scan.counts)) and scan.counts.max() > 0.99 * peak


def test_non_finite_pattern_position_is_rejected():
    optics._scan_terms.cache_clear()
    with pytest.raises(ValueError, match=r"1 of 1 positions, first at x_i = nan mm"):
        pattern_intensity(GEOM, RHO0, 0.5, math.nan, 0.0)
    with pytest.raises(ValueError, match=r"1 of 3 positions"):
        pattern_intensity(GEOM, RHO0, 0.5, 0.0, np.array([0.0, math.inf, 0.1]))
    assert optics._scan_terms.cache_info().currsize == 0  # a raise caches nothing


def test_cached_scan_terms_give_the_uncached_bits(monkeypatch):
    xs = np.linspace(-0.852, 0.852, 9)
    states = (RHO0, random_density(np.random.default_rng(21), 4))
    optics._scan_terms.cache_clear()
    cached = [_envelope_and_fringe(GEOM, rho, xs, x_pi(GEOM)) for rho in states]
    info = optics._scan_terms.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    monkeypatch.setattr(optics, "_scan_terms", optics._scan_terms.__wrapped__)
    for rho, (env, fringe) in zip(states, cached):
        fresh_env, fresh_fringe = _envelope_and_fringe(GEOM, rho, xs, x_pi(GEOM))
        assert env.tobytes() == fresh_env.tobytes() and fringe.tobytes() == fresh_fringe.tobytes()
    assert cached[0][1].tobytes() != cached[1][1].tobytes()


def test_cached_scan_terms_are_read_only():
    xs = np.linspace(-0.5, 0.5, 21)
    env, fringe = _envelope_and_fringe(GEOM, RHO0, xs, 0.0)
    cached = optics._scan_terms(GEOM, 4, (xs.shape, xs.tobytes()), ((), np.float64(0.0).tobytes()))
    assert cached[0] is env
    for term in cached:
        with pytest.raises(ValueError, match="read-only"):
            term[0] = 0.0
    fringe[0] = 0.0  # the state-dependent fringe is the caller's own array


def test_scan_terms_cache_stays_bounded():
    optics._scan_terms.cache_clear()
    maxsize = optics._scan_terms.cache_info().maxsize
    for shift in range(3 * maxsize):
        _envelope_and_fringe(GEOM, RHO0, np.linspace(-0.5, 0.5, 21) + shift, 0.0)
        assert optics._scan_terms.cache_info().currsize <= maxsize
    assert optics._scan_terms.cache_info().currsize == maxsize


def test_scalar_positions_give_floats_on_a_cache_hit():
    optics._scan_terms.cache_clear()
    for _ in range(2):
        value = pattern_intensity(GEOM, RHO0, 0.5, 0.1, 0.0)
        assert type(value) is float
        env, fringe = _envelope_and_fringe(GEOM, RHO0, 0.1, 0.0)
        assert np.ndim(env) == 0 and np.ndim(fringe) == 0
        assert isinstance(env, float) and isinstance(fringe, float)
    assert optics._scan_terms.cache_info().hits >= 1


def test_scan_validation():
    with pytest.raises(ValueError):
        PatternScan("signal", 0.0, np.linspace(0, 1, 5), np.ones(5))  # too few samples
    with pytest.raises(ValueError):
        PatternScan("signal", 0.0, np.linspace(0, 1, 9), -np.ones(9))
    with pytest.raises(ValueError):
        PatternScan("elsewhere", 0.0, np.linspace(0, 1, 9), np.ones(9))
    # spanning less than one fringe period is rejected at fit time
    xs = np.linspace(-0.2, 0.2, 15)
    short = synthesize_scan(GEOM, RHO0, 0.5, "signal", 0.0, xs, 500.0, seed=3)
    with pytest.raises(ValueError):
        fit_p(short, GEOM, RHO0)
    with pytest.raises(ValueError, match="^fixed_arm must be 'signal' or 'idler', got 'elsewhere'$"):
        synthesize_scan(GEOM, RHO0, 0.5, "elsewhere", 0.0, xs, 500.0, seed=3)


def test_fit_p_joint_consistency():
    xs = dense_scan_positions()
    scan0 = synthesize_scan(GEOM, RHO0, 0.25, "signal", 0.0, xs, 500.0, seed=31)
    scan_pi = synthesize_scan(GEOM, RHO0, 0.25, "signal", x_pi(GEOM), xs, 500.0, seed=32)
    r0, r1 = fit_p(scan0, GEOM, RHO0), fit_p(scan_pi, GEOM, RHO0)
    combined = math.hypot(r0.sigma_p, r1.sigma_p)
    assert abs(r0.p_hat - r1.p_hat) <= 2.0 * combined

    noiseless0 = synthesize_scan(GEOM, RHO0, 0.0, "signal", 0.0, xs, 500.0, seed=0, noiseless=True)
    noiseless1 = synthesize_scan(GEOM, RHO0, 0.0, "signal", x_pi(GEOM), xs, 500.0, seed=0, noiseless=True)
    r0, r1 = fit_p(noiseless0, GEOM, RHO0), fit_p(noiseless1, GEOM, RHO0)
    assert r0.p_hat == pytest.approx(0.0, abs=1e-6)
    assert r1.p_hat == pytest.approx(0.0, abs=1e-6)


def test_fit_p_joint_full_dephasing():
    xs = dense_scan_positions()
    scan0 = synthesize_scan(GEOM, RHO0, 1.0, "signal", 0.0, xs, 500.0, seed=41)
    scan_pi = synthesize_scan(GEOM, RHO0, 1.0, "signal", x_pi(GEOM), xs, 500.0, seed=42)
    r0, r1 = fit_p(scan0, GEOM, RHO0), fit_p(scan_pi, GEOM, RHO0)
    assert r0.p_hat >= 0.9
    assert r1.p_hat >= 0.9


def test_poisson_recovery_at_small_p():
    # 100 fixed seeds at p=0.125: at least 95 estimates land within +-0.07
    # (true coverage of this cell is ~97%)
    xs = dense_scan_positions()
    hits = 0
    for rep in range(100):
        scan = synthesize_scan(GEOM, RHO0, 0.125, "signal", 0.0, xs, 500.0, seed=rep)
        hits += abs(fit_p(scan, GEOM, RHO0).p_hat - 0.125) <= 0.07
    assert hits >= 95


def test_geometry_validation():
    with pytest.raises(ValueError):
        OpticalGeometry(half_slit_width=0.2)  # slit wider than the separation
    with pytest.raises(ValueError):
        OpticalGeometry(beta=-1.0)


@pytest.mark.parametrize("geom", [
    GEOM,
    OpticalGeometry(half_detector_width=0.3),
    OpticalGeometry(beta=1.7, half_detector_width=0.01, half_slit_width=0.1),
], ids=["bench", "wide-detector", "beta-1.7"])
def test_fringe_bracket_stays_above_one_half(geom):
    # The detector weights form a positive-definite sequence, so for any
    # physical pair density 1 + 2 G >= 0 and the model 1 + q G >= 1/2 for
    # q in [0, 1]: the fit needs no clamp at zero.
    rng = np.random.default_rng(11)
    x_i = np.linspace(-3.0, 3.0, 2001)
    lowest = math.inf
    for d in range(2, 7):
        for trial in range(20):
            if trial % 2:
                rho = random_density(rng, d)
            else:
                v = rng.normal(size=d) + 1j * rng.normal(size=d)
                rho = DensityMatrix.from_vector(v)
            for x_s in (0.0, x_pi(geom), 0.1, -0.37):
                _, fringe = _envelope_and_fringe(geom, rho, x_i, x_s)
                lowest = min(lowest, float(np.min(1.0 + fringe)))
    assert lowest >= 0.5 - 1e-12


def _assert_no_worse_than_grid(scan, rho0, p_hat, points=2001):
    """Brute-force oracle: the profiled residual at p_hat, built from
    pattern_intensity with the scale solved per model, is no larger than the
    smallest on a dense p grid, up to rounding."""
    def rss(p):
        model = pattern_intensity(GEOM, rho0, p, scan.positions, scan.fixed_position)
        amp = np.dot(scan.counts, model) / np.dot(model, model)
        resid = scan.counts - amp * model
        return float(np.dot(resid, resid))

    best = min(rss(p) for p in np.linspace(0.0, 1.0, points))
    assert rss(p_hat) <= best + 1e-12 * float(np.dot(scan.counts, scan.counts))


@pytest.mark.parametrize("p, seed", [(0.125, 3), (0.875, 5)])
@pytest.mark.parametrize("x_fixed", [0.0, x_pi(GEOM)], ids=["x0", "xpi"])
def test_fit_is_no_worse_than_a_dense_grid(p, seed, x_fixed):
    scan = synthesize_scan(GEOM, RHO0, p, "signal", x_fixed, dense_scan_positions(), 500.0, seed=seed)
    _assert_no_worse_than_grid(scan, RHO0, fit_p(scan, GEOM, RHO0).p_hat)


def test_fit_clamps_excess_fringe_to_p_zero():
    # the scan carries full coherence, the assumed pair density only half of it
    weaker = DensityMatrix(0.5 * RHO0.matrix + 0.5 * np.diag(np.diag(RHO0.matrix)))
    scan = synthesize_scan(GEOM, RHO0, 0.0, "signal", 0.0, dense_scan_positions(), 500.0, seed=6)
    p_hat = fit_p(scan, GEOM, weaker).p_hat
    assert p_hat == 0.0
    _assert_no_worse_than_grid(scan, weaker, p_hat)


def test_fit_clamps_anti_phase_fringe_to_p_one():
    # fringes of |-> = (|0> - |1>)/sqrt(2) fitted with the pair density of |+>
    plus = DensityMatrix(np.full((2, 2), 0.5))
    minus = DensityMatrix(np.array([[0.5, -0.5], [-0.5, 0.5]]))
    scan = synthesize_scan(GEOM, minus, 0.0, "signal", 0.0, dense_scan_positions(), 500.0, seed=7)
    p_hat = fit_p(scan, GEOM, plus).p_hat
    assert p_hat == 1.0
    _assert_no_worse_than_grid(scan, plus, p_hat)


def _per_pair_fringe(geom, rho, x_i, x_s):
    """Reference fringe sum written pair by pair:
    sum_{l>m} |rho_lm| det_n cos(n theta + arg rho_lm) with n = l - m."""
    k, d, f = geom.wave_number, geom.slit_separation, geom.focal_length
    b, beta = geom.half_detector_width, geom.beta

    def sinc(y):
        return math.sin(y) / y

    fringe = np.zeros(np.broadcast(x_i, x_s).shape)
    for l in range(rho.dim):
        for m in range(l):
            n, elem = l - m, rho.matrix[l, m]
            det = sinc(n * k * d * b / f) * sinc(n * k * d * b / (f * beta))
            fringe = fringe + abs(elem) * det * np.cos(
                n * k * d * x_i / f - n * k * d * x_s / (f * beta) + np.angle(elem))
    return fringe


def _oracle_states(rng, d):
    """Random mixed complex densities, every single-coherence density, and a diagonal one."""
    states = [random_density(rng, d) for _ in range(20)]
    for l in range(d):
        for m in range(l):
            single = np.eye(d, dtype=complex) / d
            single[l, m] = np.exp(1j * rng.uniform(-math.pi, math.pi)) / d
            single[m, l] = np.conj(single[l, m])
            states.append(DensityMatrix(single))
    diagonal = rng.uniform(0.1, 1.0, size=d)
    return states, DensityMatrix(np.diag(diagonal / diagonal.sum()))


@pytest.mark.parametrize("geom", [
    GEOM,
    OpticalGeometry(half_detector_width=0.3),
    OpticalGeometry(beta=1.7, half_detector_width=0.01, half_slit_width=0.1),
], ids=["bench", "wide-detector", "beta-1.7"])
@pytest.mark.parametrize("d", range(2, 7))
def test_fringe_sum_over_slit_difference_matches_per_pair_sum(geom, d):
    rng = np.random.default_rng(100 + d)
    x = np.linspace(-3.0, 3.0, 401)
    states, diagonal = _oracle_states(rng, d)
    worst = 0.0
    for x_fixed in (0.0, x_pi(geom)):
        for x_i, x_s in ((x, x_fixed), (x_fixed, x)):
            for rho in states:
                _, fringe = _envelope_and_fringe(geom, rho, x_i, x_s)
                worst = max(worst, float(np.max(np.abs(fringe - _per_pair_fringe(geom, rho, x_i, x_s)))))
            _, fringe = _envelope_and_fringe(geom, diagonal, x_i, x_s)
            assert np.all(fringe == 0.0)
    assert worst <= 1e-13
