import hashlib
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import slitsim
from slitsim.cli import main
from slitsim.fileio import format_scan, parse_film, parse_scan, parse_state
from slitsim.optics import OpticalGeometry, PatternScan
from slitsim.qcore import DensityMatrix, PureBipartiteState, i_concurrence


def run(*args) -> int:
    return main([str(a) for a in args])


def test_prepare_uniform(tmp_path, capsys):
    out = tmp_path / "state.txt"
    assert run("prepare", "--d", 4, "--uniform", "--out", out) == 0
    assert "concurrence: 1.0000" in capsys.readouterr().out
    psi = parse_state(out.read_text())
    assert isinstance(psi, PureBipartiteState)


def test_prepare_partial_amps(tmp_path, capsys):
    out = tmp_path / "state.txt"
    assert run("prepare", "--d", 3, "--amps", "0.2771,0.5420,0.7934", "--out", out) == 0
    assert "concurrence: 0.8760" in capsys.readouterr().out


def test_prepare_requires_amplitudes(tmp_path, capsys):
    assert run("prepare", "--d", 3, "--out", tmp_path / "s.txt") == 1
    assert not (tmp_path / "s.txt").exists()


def test_prepare_usage_error_exit_code(tmp_path):
    # argparse-level failures use the validation exit code as well
    assert run("prepare", "--uniform", "--out", tmp_path / "s.txt") == 1


def test_dephase_identity_is_byte_stable(tmp_path):
    state = tmp_path / "state.txt"
    run("prepare", "--d", 4, "--uniform", "--out", state)
    first = tmp_path / "rho0.txt"
    second = tmp_path / "rho1.txt"
    assert run("dephase", "--state", state, "--p", 0.0, "--out", first) == 0
    assert run("dephase", "--state", first, "--p", 0.0, "--out", second) == 0
    assert first.read_bytes() == second.read_bytes()


def test_dephase_full_strength_diagonalizes(tmp_path):
    state = tmp_path / "state.txt"
    run("prepare", "--d", 4, "--uniform", "--out", state)
    out = tmp_path / "rho.txt"
    assert run("dephase", "--state", state, "--p", 1.0, "--out", out) == 0
    rho = parse_state(out.read_text())
    off = ~np.eye(4, dtype=bool)
    assert np.max(np.abs(rho.matrix[off])) == 0.0


def test_dephase_half_strength(tmp_path, capsys):
    state = tmp_path / "state.txt"
    run("prepare", "--d", 4, "--uniform", "--out", state)
    out = tmp_path / "rho.txt"
    assert run("dephase", "--state", state, "--p", 0.5, "--out", out) == 0
    rho = parse_state(out.read_text())
    off = ~np.eye(4, dtype=bool)
    assert np.allclose(rho.matrix[off], 0.125, atol=1e-15)


def test_dephase_rejects_bad_p(tmp_path):
    state = tmp_path / "state.txt"
    run("prepare", "--d", 4, "--uniform", "--out", state)
    assert run("dephase", "--state", state, "--p", 1.5, "--out", tmp_path / "r.txt") == 1


def test_dephase_names_unrealizable_p(tmp_path, capsys):
    state = tmp_path / "state.txt"
    run("prepare", "--d", 5, "--uniform", "--out", state)
    capsys.readouterr()
    assert run("dephase", "--state", state, "--p", 0.9, "--out", tmp_path / "r.txt") == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "not realizable at d = 5" in err[0] and "4/d = 0.8" in err[0]
    assert not (tmp_path / "r.txt").exists()
    # the bound itself is realizable
    assert run("dephase", "--state", state, "--p", 0.8, "--out", tmp_path / "r.txt") == 0


@pytest.mark.parametrize("entries", [
    "kind density\ndims 2\n5 0 1.0 0.0\n",
    "kind density\ndims 2\n-1 0 1.0 0.0\n",
    "kind pure\ndims 2 2\n0 2 1.0 0.0\n",
])
def test_state_entry_outside_dims_is_an_error(tmp_path, capsys, entries):
    state = tmp_path / "state.txt"
    state.write_text(entries)
    assert run("dephase", "--state", state, "--p", 0.5, "--out", tmp_path / "r.txt") == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "outside" in err[0]
    assert not (tmp_path / "r.txt").exists()


@pytest.mark.parametrize("key", ["fixed_arm", "fixed_position_mm", "wavelength_mm", "beta"])
def test_scan_missing_header_key_is_an_error(tmp_path, capsys, key):
    scan = tmp_path / "scan.txt"
    assert run("pattern", "--p", 0.25, "--noiseless", "--points", 9, "--out", scan) == 0
    kept = [l for l in scan.read_text().splitlines() if l.split()[0] != key]
    scan.write_text("\n".join(kept) + "\n")
    capsys.readouterr()
    assert run("fit-p", "--scan", scan) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and repr(key) in err[0]


def test_film_smallest_step(tmp_path, capsys):
    out = tmp_path / "film.txt"
    assert run("film", "--d", 4, "--p", 0.125, "--out", out) == 0
    film = parse_film(out.read_text())
    assert film.frames[:28] == (4,) * 28
    assert film.frames[28:] == (0, 1, 2, 3)


def test_film_rejects_off_grid(tmp_path, capsys):
    assert run("film", "--d", 4, "--p", 0.13, "--out", tmp_path / "f.txt") == 1
    err = capsys.readouterr().err
    assert "0.125" in err and "0.25" in err
    assert not (tmp_path / "f.txt").exists()


def test_film_full_strength(tmp_path):
    out = tmp_path / "film.txt"
    assert run("film", "--d", 4, "--p", 1.0, "--out", out) == 0
    film = parse_film(out.read_text())
    assert film.operator_counts() == [8, 8, 8, 8, 0]


def test_film_and_dephase_agree_on_p_off_d4(tmp_path, capsys):
    # one meaning of p: each flip weighs p/4 and coherences scale by 1 - p at any d
    assert run("film", "--d", 3, "--p", 0.375, "--out", tmp_path / "film.txt") == 0
    assert "operator weights: [0.09375, 0.09375, 0.09375]" in capsys.readouterr().out
    state = tmp_path / "state.txt"
    run("prepare", "--d", 3, "--uniform", "--out", state)
    out = tmp_path / "rho.txt"
    assert run("dephase", "--state", state, "--p", 0.375, "--out", out) == 0
    assert "(1 - p) = 0.625" in capsys.readouterr().out
    rho = parse_state(out.read_text()).matrix
    off = ~np.eye(3, dtype=bool)
    assert np.allclose(rho[off], 0.625 / 3, rtol=0, atol=1e-15)


def test_film_rejects_p_above_four_over_d(tmp_path, capsys):
    assert run("film", "--d", 6, "--p", 0.75, "--out", tmp_path / "f.txt") == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "p <= 4/d" in err[0]
    assert not (tmp_path / "f.txt").exists()


@pytest.mark.parametrize("n_frames", [0, 65537, 10**12])
def test_film_rejects_frame_counts_outside_the_cap(tmp_path, capsys, n_frames):
    assert run("film", "--d", 4, "--p", 0.5, "--n-frames", n_frames, "--out", tmp_path / "f.txt") == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "n_frames must lie in [1, 65536]" in err[0]
    assert not (tmp_path / "f.txt").exists()


def test_damp_zero_time(tmp_path, capsys):
    state = tmp_path / "state.txt"
    run("prepare", "--d", 3, "--amps", "0.2771,0.5420,0.7934", "--out", state)
    out = tmp_path / "evolved.txt"
    assert run("damp", "--state", state, "--gamma-t", 0.0, "--out", out) == 0
    printed = capsys.readouterr().out
    assert "survival probability: 1.000000" in printed
    assert np.array_equal(
        parse_state(out.read_text()).amplitudes, parse_state(state.read_text()).amplitudes
    )


def test_damp_population_convention(tmp_path, capsys):
    state = tmp_path / "state.txt"
    run("prepare", "--d", 3, "--amps", "0.2771,0.5420,0.7934", "--out", state)
    out = tmp_path / "evolved.txt"
    assert run("damp", "--state", state, "--gamma-t", 1.0,
               "--convention", "population", "--out", out) == 0
    printed = capsys.readouterr().out
    assert "convention: population" in printed
    evolved = parse_state(out.read_text())
    assert i_concurrence(evolved) == pytest.approx(0.99, abs=0.01)


def test_damp_accepts_convention_aliases(tmp_path):
    state = tmp_path / "state.txt"
    run("prepare", "--d", 3, "--uniform", "--out", state)
    assert run("damp", "--state", state, "--gamma-t", 0.5,
               "--convention", "table2", "--out", tmp_path / "a.txt") == 0
    assert run("damp", "--state", state, "--gamma-t", 0.5,
               "--convention", "eq17", "--out", tmp_path / "b.txt") == 0


def test_damp_rejects_negative_time(tmp_path):
    state = tmp_path / "state.txt"
    run("prepare", "--d", 3, "--uniform", "--out", state)
    assert run("damp", "--state", state, "--gamma-t", -1.0, "--out", tmp_path / "e.txt") == 1


@pytest.mark.parametrize("gamma_t", ["nan", "inf", "-1"])
def test_damp_names_gamma_t_that_is_not_finite_and_non_negative(tmp_path, capsys, gamma_t):
    state = tmp_path / "state.txt"
    run("prepare", "--d", 3, "--uniform", "--out", state)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("damp", "--state", state, "--gamma-t", gamma_t, "--out", tmp_path / "e.txt") == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: gamma_t must be finite and non-negative, got")


def test_trajectories_deterministic_output(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    printed = []
    for out in (a, b):
        assert run("trajectories", "--dim", 3, "--initial-level", 2, "--gamma", 1.0,
                   "--t", 0.2, "--n", 300, "--seed", 5, "--out", out) == 0
        printed.append(capsys.readouterr().out)
    assert a.read_bytes() == b.read_bytes() and printed[0] == printed[1]
    rho = parse_state(a.read_text())
    assert isinstance(rho, DensityMatrix)
    # stream contract v2: trajectory k reads row k of one derive_rng(5) draw
    assert hashlib.sha256(printed[0].encode()).hexdigest() == (
        "7ab2789cf10b2bacdfb9a4c66ea9ef8baeb119ecbb134b3b981ccfaf2480ee30")
    assert hashlib.sha256(a.read_bytes()).hexdigest() == (
        "abada36b3bca327a0eb00e733a3c571c517e62b678ff540d330d6ab43220aadd")


@pytest.mark.parametrize("args, message", [
    (("--t", "inf"), "t must be finite and non-negative, got inf"),
    (("--t", "nan"), "t must be finite and non-negative, got nan"),
    (("--t", "1e12"), "exceeds the 1048576 steps allowed"),
    (("--t", "1", "--dt", "1e-300"), "exceeds the 1048576 steps allowed"),
    (("--t", "1", "--gamma", "nan"), "gamma must be finite and non-negative, got nan"),
], ids=["t-inf", "t-nan", "t-1e12", "dt-1e-300", "gamma-nan"])
@pytest.mark.filterwarnings("error")
def test_trajectories_reject_unbounded_step_counts(tmp_path, capsys, args, message):
    out = tmp_path / "rho.txt"
    assert run("trajectories", *args, "--n", 10, "--seed", 1, "--compare-master", "--out", out) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and message in err[0]
    assert not out.exists()


def test_pattern_requires_seed(tmp_path):
    assert run("pattern", "--p", 0.5, "--out", tmp_path / "scan.txt") == 1
    assert not (tmp_path / "scan.txt").exists()


def test_pattern_fit_round_trip(tmp_path, capsys):
    scan_path = tmp_path / "scan.txt"
    assert run("pattern", "--p", 0.25, "--noiseless", "--out", scan_path) == 0
    scan, _ = parse_scan(scan_path.read_text())
    assert scan.p_true == 0.25
    assert run("fit-p", "--scan", scan_path) == 0
    printed = capsys.readouterr().out
    p_line = [l for l in printed.splitlines() if l.startswith("p_hat:")][0]
    assert float(p_line.split()[1]) == pytest.approx(0.25, abs=1e-4)


def test_pattern_at_xpi(tmp_path, capsys):
    scan_path = tmp_path / "scan.txt"
    assert run("pattern", "--p", 0.5, "--at-xpi", "--seed", 3, "--out", scan_path) == 0
    scan, geom = parse_scan(scan_path.read_text())
    assert scan.fixed_position == pytest.approx(0.1761, abs=1e-4)


@pytest.mark.parametrize("command", ["pattern", "fit-p"])
def test_far_tail_positions_give_one_error_line(tmp_path, command):
    # positions near 1e306 mm overflow the pattern's phase arguments
    if command == "pattern":
        args = ["pattern", "--p", "0.5", "--seed", "1", "--start-mm", "1e306",
                "--stop-mm", "2e306", "--points", "9", "--out", str(tmp_path / "scan.txt")]
    else:
        scan = PatternScan("signal", 0.0, np.linspace(1e306, 2e306, 9), np.arange(9.0) + 1.0)
        (tmp_path / "scan.txt").write_text(format_scan(scan, OpticalGeometry()))
        args = ["fit-p", "--scan", str(tmp_path / "scan.txt")]
    # a fresh interpreter shows what a user sees, numpy warnings included
    src = str(Path(slitsim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONWARNINGS", None)
    proc = subprocess.run([sys.executable, "-m", "slitsim.cli", *args],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("error: pattern arguments are not finite")
    assert "x_i = 1e+306 mm" in err[0]


def test_reproduce_table1_noiseless(tmp_path, capsys):
    report = tmp_path / "report.txt"
    assert run("reproduce-table1", "--noiseless", "--out", report) == 0
    text = report.read_text()
    assert "overall: pass" in text
    for line in text.splitlines():
        parts = line.split()
        if parts and parts[0].replace(".", "").isdigit() and len(parts) >= 7:
            predicted = float(parts[0])
            assert abs(float(parts[1]) - predicted) <= 1e-4
            assert abs(float(parts[4]) - predicted) <= 1e-4


def test_reproduce_table1_with_noise(tmp_path):
    report = tmp_path / "report.txt"
    assert run("reproduce-table1", "--seed", 0, "--out", report) == 0
    text = report.read_text()
    assert "overall: pass" in text
    sigmas = []
    for line in text.splitlines():
        parts = line.split()
        if parts and parts[0].replace(".", "").isdigit() and len(parts) >= 7:
            sigmas += [float(parts[2]), float(parts[5])]
    assert len(sigmas) == 18
    assert all(0.03 <= s <= 0.11 for s in sigmas)


def test_reproduce_table1_deterministic(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    run("reproduce-table1", "--seed", 7, "--out", a)
    run("reproduce-table1", "--seed", 7, "--out", b)
    assert a.read_bytes() == b.read_bytes()


def test_reproduce_table2_packaged_data(tmp_path, capsys):
    report = tmp_path / "report.txt"
    assert run("reproduce-table2", "--seed", 5, "--resamples", 400, "--out", report) == 0
    text = report.read_text()
    assert "overall: ok" in text
    assert text.count("FLAG") == 0
    assert "0.862" in text  # reference column present


def test_reproduce_table2_malformed_counts(tmp_path):
    bad = tmp_path / "counts.txt"
    bad.write_text("gamma_t 0.0\n1 2\n3 4 5\n")
    assert run("reproduce-table2", "--counts", bad, "--seed", 5,
               "--out", tmp_path / "r.txt") == 1
    assert not (tmp_path / "r.txt").exists()


@pytest.mark.parametrize("rows", [
    "9223372036854775808 1\n1 1\n",  # one entry of 2^63
    "18446744073709551616 1\n1 1\n",  # one entry of 2^64
    "9223372036854775807 1\n1 1\n",  # entries below 2^63 whose total is not
], ids=["entry-2^63", "entry-2^64", "total-above-2^63"])
@pytest.mark.filterwarnings("error")
def test_reproduce_table2_rejects_counts_beyond_int64(tmp_path, capsys, rows):
    counts = tmp_path / "counts.txt"
    counts.write_text("gamma_t 0.0\n" + rows)
    assert run("reproduce-table2", "--counts", counts, "--seed", 5, "--out", tmp_path / "r.txt") == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "2^63" in err[0]
    assert not (tmp_path / "r.txt").exists()


@pytest.mark.parametrize("args, digest", [
    (("--seed", 5, "--resamples", 400), "0c9ef6b85dcfd8d72f85060061b11da19ad271aba72609f8a0a92543551fd4eb"),
    (("--seed", 0), "c1eb30c635df13c6f15a306b3699c3fe45d59df20dfe45fa8ee8f0064141a9e7"),
], ids=["seed5-400", "seed0-1000"])
def test_reproduce_table2_bytes_are_pinned(tmp_path, capsys, args, digest):
    report = tmp_path / "report.txt"
    assert run("reproduce-table2", *args, "--out", report) == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == digest
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.filterwarnings("error")
def test_reproduce_table2_too_few_non_empty_resamples(tmp_path, capsys):
    counts = tmp_path / "counts.txt"
    counts.write_text("gamma_t 0.5\n1 0 0\n0 0 0\n0 0 0\n")
    assert run("reproduce-table2", "--counts", counts, "--resamples", 2, "--seed", 11,
               "--out", tmp_path / "r.txt") == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "0 of 2" in err[0]
    assert not (tmp_path / "r.txt").exists()


@pytest.mark.parametrize("resamples", [1, 1_000_001, 100_000_000_000])
def test_reproduce_table2_rejects_resamples_outside_the_cap(tmp_path, capsys, monkeypatch, resamples):
    def no_draw(*key):
        raise AssertionError("drew resamples past the cap")

    monkeypatch.setattr("slitsim.experiment.derive_rng", no_draw)
    assert run("reproduce-table2", "--seed", 5, "--resamples", resamples, "--out", tmp_path / "r.txt") == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert f"n_resamples must lie in [2, 1000000], got {resamples}" in err[0]
    assert not (tmp_path / "r.txt").exists()


@pytest.mark.parametrize("rows, shape", [
    ("1 2\n3 4\n", "(2, 2)"),
    ("1 2 3 4\n" * 4, "(4, 4)"),
    ("1 2 3\n4 5 6\n", "(2, 3)"),
], ids=["2x2", "4x4", "2x3"])
@pytest.mark.filterwarnings("error")
def test_reproduce_table2_rejects_tables_that_are_not_3x3(tmp_path, capsys, rows, shape):
    counts = tmp_path / "counts.txt"
    counts.write_text("gamma_t 0.0\n1 2 3\n4 5 6\n7 8 9\ngamma_t 0.7\n" + rows)
    assert run("reproduce-table2", "--counts", counts, "--seed", 5, "--out", tmp_path / "r.txt") == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "gamma_t=0.7" in err[0] and shape in err[0]
    assert not (tmp_path / "r.txt").exists()


def test_unknown_command_exit_code():
    assert run("no-such-command") == 1
