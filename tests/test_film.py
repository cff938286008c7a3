from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dephasing_by_kraus, dephasing_kraus, random_density
from slitsim.channels import DephasingChannel, apply_channel, uniform_dephasing_channel
from slitsim.experiment import SlitStatePrep, anti_correlated_block, prepare_state
from slitsim.fileio import parse_film
from slitsim.film import (
    MAX_FRAMES,
    FilmSchedule,
    NonRepresentableP,
    compile_film,
    effective_channel,
    mask_phases,
)
from slitsim.qcore import MAX_DIM

P_GRID = [i / 8 for i in range(9)]


def test_compile_smallest_step():
    film = compile_film(4, 0.125, 32)
    assert film.frames[:28] == (4,) * 28
    assert film.frames[28:] == (0, 1, 2, 3)


def test_compile_full_dephasing():
    film = compile_film(4, 1.0, 32)
    assert film.frames == (0,) * 8 + (1,) * 8 + (2,) * 8 + (3,) * 8
    assert film.operator_counts() == [8, 8, 8, 8, 0]


def test_compile_identity_film():
    film = compile_film(4, 0.0, 32)
    assert film.frames == (4,) * 32


def test_compile_rejects_off_grid_p():
    with pytest.raises(NonRepresentableP) as err:
        compile_film(4, 0.13, 32)
    assert err.value.below == pytest.approx(0.125)
    assert err.value.above == pytest.approx(0.25)
    assert "0.125" in str(err.value) and "0.25" in str(err.value)


def test_compile_rejects_p_one_when_frames_do_not_divide():
    with pytest.raises(NonRepresentableP) as err:
        compile_film(4, 1.0, 30)
    assert err.value.above <= 1.0


def test_effective_channel_weights():
    film = compile_film(4, 0.5, 32)
    chan = effective_channel(film)
    assert chan.weights == (0.125, 0.125, 0.125, 0.125)

    rho = anti_correlated_block(prepare_state(SlitStatePrep.uniform(4)))
    out = apply_channel(chan, rho)
    off = ~np.eye(4, dtype=bool)
    assert np.allclose(out.matrix[off], 0.5 * rho.matrix[off], atol=1e-15)


def test_all_identity_film_acts_trivially():
    chan = effective_channel(compile_film(4, 0.0, 32))
    rho = anti_correlated_block(prepare_state(SlitStatePrep.uniform(4)))
    assert np.array_equal(apply_channel(chan, rho).matrix, rho.matrix)


def test_round_trip_weights_are_exact():
    for p in P_GRID:
        film = compile_film(4, p, 32)
        fractions = film.weight_fractions()
        per_op = Fraction(p).limit_denominator(8) / 4
        assert fractions[:4] == [per_op] * 4
        assert fractions[4] == 1 - 4 * per_op
        # equals the directly constructed channel
        direct = DephasingChannel([float(per_op)] * 4)
        assert effective_channel(film).weights == direct.weights


def test_grid_scaling_is_exactly_one_minus_p():
    rho = anti_correlated_block(prepare_state(SlitStatePrep.uniform(4)))
    for p in P_GRID:
        film = compile_film(4, p, 32)
        w = film.weight_fractions()
        p_exact = Fraction(p).limit_denominator(8)
        for i in range(4):
            for j in range(4):
                if i != j:
                    assert 1 - 2 * w[i] - 2 * w[j] == 1 - p_exact
        out = apply_channel(effective_channel(film), rho)
        off = ~np.eye(4, dtype=bool)
        # dyadic weights keep the float arithmetic exact
        assert np.array_equal(out.matrix[off], (1.0 - p) * rho.matrix[off])
        assert np.array_equal(np.diag(out.matrix), np.diag(rho.matrix))


@given(st.permutations(list(range(32))), st.sampled_from(P_GRID))
@settings(max_examples=40, deadline=None)
def test_frame_order_is_irrelevant(order, p):
    film = compile_film(4, p, 32)
    shuffled = FilmSchedule(4, 32, tuple(film.frames[i] for i in order))
    assert effective_channel(shuffled).weights == effective_channel(film).weights


def test_frame_conservation():
    for p in P_GRID:
        counts = compile_film(4, p, 32).operator_counts()
        assert sum(counts) == 32


def test_mask_phases():
    film = compile_film(4, 0.125, 32)
    assert mask_phases(film, 0) == [0.0, 0.0, 0.0, 0.0]
    # frame 30 holds the flip of slit 2
    assert mask_phases(film, 30) == [0.0, 0.0, np.pi, 0.0]
    with pytest.raises(ValueError):
        mask_phases(film, 32)


def test_mask_phases_reproduce_operators():
    film = compile_film(4, 1.0, 32)
    for idx in range(film.n_frames):
        phases = mask_phases(film, idx)
        realized = np.diag([complex(np.cos(p), np.sin(p)) for p in phases])
        target = dephasing_kraus(film.d)[film.frames[idx]]
        assert np.allclose(realized, target, atol=1e-15)
        assert np.array_equal(realized.real, target.real)


def test_schedule_validation():
    with pytest.raises(ValueError):
        FilmSchedule(4, 4, (0, 0, 1, 4))  # unequal flip multiplicities
    with pytest.raises(ValueError):
        FilmSchedule(4, 3, (0, 1))  # length mismatch
    with pytest.raises(ValueError):
        FilmSchedule(4, 2, (0, 5))  # index out of range


@pytest.mark.parametrize("d, message", [
    (1, "^d must be at least 2, got 1$"),
    (MAX_DIM + 1, f"^d must be at most MAX_DIM = {MAX_DIM}, got {MAX_DIM + 1}$"),
])
def test_schedule_dimension_follows_the_one_dimension_rule(d, message):
    with pytest.raises(ValueError, match=message):
        FilmSchedule(d, 1, (d,))
    with pytest.raises(ValueError, match=message):
        parse_film(f"d {d}\nn_frames 1\n{d} " + " ".join(["0"] * d) + "\n")


# ------------------------------------------------ one meaning of p at every d

FRAME_COUNTS = (8, 12, 30, 32)


def _grid(d: int, n_frames: int) -> list[float]:
    """Every representable p: 4k / n_frames with d k <= n_frames and 4 k <= n_frames."""
    return [4 * k / n_frames for k in range(n_frames // max(d, 4) + 1)]


@pytest.mark.parametrize("d", range(2, 7))
@pytest.mark.parametrize("n_frames", FRAME_COUNTS)
def test_film_channel_is_the_uniform_dephasing_channel(d, n_frames):
    rng = np.random.default_rng([d, n_frames])
    rhos = [random_density(rng, d) for _ in range(3)]
    off = ~np.eye(d, dtype=bool)
    for p in _grid(d, n_frames):
        film_chan = effective_channel(compile_film(d, p, n_frames))
        assert film_chan == uniform_dephasing_channel(d, p)
        for rho in rhos:
            got = apply_channel(film_chan, rho).matrix
            assert np.max(np.abs(got - dephasing_by_kraus(film_chan.weights, rho))) <= 1e-15
            assert np.allclose(got[off], (1.0 - p) * rho.matrix[off], rtol=0, atol=1e-15)


def test_film_flip_weight_is_p_over_four_off_d4():
    # d = 3, p = 0.375: 3 of 32 frames per flip, coherences scaled by 0.625
    film = compile_film(3, 0.375, 32)
    assert film.operator_counts() == [3, 3, 3, 23]
    assert effective_channel(film).weights == (0.09375,) * 3


def test_compile_rejects_p_above_four_over_d():
    with pytest.raises(ValueError, match=r"p <= 4/d"):
        compile_film(6, 0.75, 32)
    assert compile_film(6, 0.625, 32).operator_counts()[:6] == [5] * 6


@pytest.mark.parametrize("d", range(2, 7))
@pytest.mark.parametrize("n_frames", FRAME_COUNTS)
def test_reported_neighbours_are_representable(d, n_frames):
    bound = min(1.0, 4 / d)
    off_grid = [p for p in (0.13, 0.3, 0.55, 0.8, 1.0, bound - 1e-3) if p <= bound]
    grid = _grid(d, n_frames)
    for p in off_grid:
        if any(abs(p - g) < 1e-12 for g in grid):
            continue
        with pytest.raises(NonRepresentableP) as err:
            compile_film(d, p, n_frames)
        for neighbour in (err.value.below, err.value.above):
            assert neighbour <= bound
            compile_film(d, neighbour, n_frames)
        assert err.value.below <= p


@pytest.mark.parametrize("d, n_frames, p, nearest", [
    (4, 30, 1.0, 28 / 30),
    (2, 30, 1.0, 28 / 30),
    (5, 32, 0.8, 0.75),
])
def test_rejected_p_names_only_representable_values(d, n_frames, p, nearest):
    with pytest.raises(NonRepresentableP) as err:
        compile_film(d, p, n_frames)
    assert err.value.below == err.value.above == pytest.approx(nearest)
    assert f"nearest representable value is {nearest:.6g}" in str(err.value)
    compile_film(d, err.value.above, n_frames)


@pytest.mark.parametrize("d, n_frames, frames", [
    (4, 4, (0, 4, 4, 4)),  # only slit 0 flips
    (2, 2, (0, 1)),  # p would be 4 * 1 / 2 = 2
])
def test_schedule_needs_one_p(d, n_frames, frames):
    with pytest.raises(ValueError):
        FilmSchedule(d, n_frames, frames)
    text = f"d {d}\nn_frames {n_frames}\n" + "".join(
        f"{op} " + " ".join("3.141592653589793" if s == op else "0" for s in range(d)) + "\n"
        for op in frames
    )
    with pytest.raises(ValueError):
        parse_film(text)


def test_frame_count_is_capped_before_any_frame_list_is_built():
    assert compile_film(4, 0.5, MAX_FRAMES).n_frames == MAX_FRAMES
    for n_frames in (0, MAX_FRAMES + 1, 10**12):
        with pytest.raises(ValueError, match=rf"n_frames must lie in \[1, {MAX_FRAMES}\], got {n_frames}"):
            compile_film(4, 0.5, n_frames)
        with pytest.raises(ValueError, match="n_frames must lie in"):
            FilmSchedule(4, n_frames, ())
        with pytest.raises(ValueError, match="n_frames must lie in"):
            parse_film(f"d 4\nn_frames {n_frames}\n4 0 0 0 0\n")
