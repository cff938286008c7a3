import contextlib
import hashlib
import importlib
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

import slitsim
from conftest import jump_free_oracle, random_pure
from slitsim.cli import _build_parser, main
from slitsim.fileio import format_scan, format_state, parse_film, parse_scan, parse_state
from slitsim.optics import OpticalGeometry, PatternScan
from slitsim.qcore import DensityMatrix, PureBipartiteState, i_concurrence
from slitsim.reports import P_GRID


def run(*args) -> int:
    return main([str(a) for a in args])


class Pin(NamedTuple):
    argv: tuple[str, ...]  # the command line without its --out option
    stdout: str  # sha256 of what it prints
    out: str  # sha256 of its --out file


STATE = "<the state file of the prepare row>"

# Every pinned output of the CLI, taken with numpy 2.4.6; a deliberate byte change edits its row.
# test_pinned_bytes_do_not_depend_on_numpy_simd_dispatch reruns the whole table.
PINNED = {
    "prepare": Pin(("prepare", "--d", "3", "--amps", "0.2771,0.5420,0.7934"),
                   "5e31375cccf794c88f7a991d729ea544228ad6c06d6724ff40b9098c538dbea2",
                   "0556389dcfb17c060e8091e75e3b6d2c4a4560ee717d256b4708be1c8082a1e0"),
    # the jump-free factors come from math.exp and the renormalization divides the real view
    "damp-amplitude-0.7": Pin(("damp", "--state", STATE, "--gamma-t", "0.7", "--convention", "amplitude"),
                              "dd8fe65d394d1b17bf10107886420c426f06a2cafd626a00b8d5275330984e84",
                              "a798fda38eed5472d489dff19ba82decc79ef7ff850db7bfcfbbf3635e591222"),
    "damp-amplitude-40": Pin(("damp", "--state", STATE, "--gamma-t", "40", "--convention", "amplitude"),
                             "ce3b9baabc0aff90dc8a634651d98230a17c94f58fcedbe1f1f8d2a17706b382",
                             "61f1d7ae56b7df8192f706b42797a3b6d8a0bd32a15870085e95a3911d570cef"),
    "damp-population-0.7": Pin(("damp", "--state", STATE, "--gamma-t", "0.7", "--convention", "population"),
                               "aae35a321e37610e44fee1ffd1ffa0de8a340217f1f880ce21c7d3170e8249a5",
                               "a3fca3638d07baa553ebd7b19adb8a7703883a0844a65bb541bf2d80de0ae2d3"),
    "damp-population-40": Pin(("damp", "--state", STATE, "--gamma-t", "40", "--convention", "population"),
                              "da49d79a4c587147ea004528cbaf6412b3953608177a404e9b8bfb8ef1fc70e0",
                              "399134298c17352984f87a5ddd7552a5b6fc98644c3ea1b688df5f28058acb7e"),
    # stream contract v2: trajectory k reads row k of one derive_rng(seed) draw
    "trajectories": Pin(("trajectories", "--dim", "3", "--initial-level", "2", "--gamma", "1.0", "--t", "0.2",
                         "--n", "300", "--seed", "5"),
                        "7ab2789cf10b2bacdfb9a4c66ea9ef8baeb119ecbb134b3b981ccfaf2480ee30",
                        "abada36b3bca327a0eb00e733a3c571c517e62b678ff540d330d6ab43220aadd"),
    # the criterion-6 setup; stdout carries the 4-digit trace distance to the RK4 master solution
    **{f"compare-master-{t}": Pin(("trajectories", "--dim", "3", "--initial-level", "2", "--gamma", "1",
                                   "--n", "10000", "--seed", "0", "--compare-master", "--t", t), stdout, out)
       for t, stdout, out in [
           ("0.5", "655f5b1651e23dea6f301a1e894950315efa5c86a26a645a27449c18ce4c2471",
            "2cb64353e4727f018da87a1785ff2c7398103155cbfb54f2b4fe6d33b2949fb9"),
           ("1", "3a3755734421cb9103053e1d85494b7a07eea3ded6b9e308412dffdd742834aa",
            "43e303f72dcdc6681cb2e291efa2c6bba7a74009da42eb22b079342b0a4b81cd"),
           ("2", "ad4e910887d892bb23d740f09b9bae6ffd83d153f97ac07c50aab275f35d4622",
            "01ffbfff561bbc73e0be8538fe16b749b13d9a73bb55172dbdd1aadfecfc10fc"),
       ]},
    # the reports print what they write
    **{name: Pin(argv, digest, digest) for name, argv, digest in [
        ("table1-seed0", ("reproduce-table1", "--seed", "0"),
         "2caebe50b56e04b87d40e5892d51cedd9bc679275c29b5c78a0b90e9c61c5670"),
        ("table1-noiseless", ("reproduce-table1", "--noiseless"),
         "b2d4a95f651d7a45aa24409df19bcfc7e717c3480cb51bf04dcba6a6abdc61fb"),
        ("table2-seed5-400", ("reproduce-table2", "--seed", "5", "--resamples", "400"),
         "0c9ef6b85dcfd8d72f85060061b11da19ad271aba72609f8a0a92543551fd4eb"),
        ("table2-seed0-1000", ("reproduce-table2", "--seed", "0"),
         "c1eb30c635df13c6f15a306b3699c3fe45d59df20dfe45fa8ee8f0064141a9e7"),
    ]},
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _pinned_digests(tmp_path: Path, name: str) -> list[str]:
    """sha256 of the stdout and of the --out file of one PINNED row, run in this process."""
    argv = PINNED[name].argv
    state, out = tmp_path / "pinned-state.txt", tmp_path / f"pinned-{name}.txt"
    if STATE in argv:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([*PINNED["prepare"].argv, "--out", str(state)]) == 0
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        assert main([str(state) if a == STATE else a for a in argv] + ["--out", str(out)]) == 0
    return [_sha256(stdout.getvalue().encode()), _sha256(out.read_bytes())]


def _assert_pinned(tmp_path: Path, name: str) -> None:
    assert _pinned_digests(tmp_path, name) == [PINNED[name].stdout, PINNED[name].out]


def _pinned_rows(prefix: str, id_of):
    """The PINNED rows whose name starts with prefix, as parameters under their test ids."""
    return [pytest.param(name, id=id_of(name)) for name in PINNED if name.startswith(prefix)]


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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("amps, message", [
    ("1,inf,1", "error: amplitudes must be finite"),
    ("nan,1,1", "error: amplitudes must be finite"),
])
def test_prepare_names_amplitudes_that_cannot_be_normalized(tmp_path, capsys, amps, message):
    assert run("prepare", "--d", 3, "--amps", amps, "--out", tmp_path / "s.txt") == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(message)
    assert not (tmp_path / "s.txt").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("amps, concurrence", [
    ("1e200,1e200,1", "0.8660"),
    ("1e-160,1e-160,1e-160", "1.0000"),
    ("1e-200,1e-200,1e-200", "1.0000"),
])
def test_prepare_normalizes_amplitudes_of_any_scale(tmp_path, capsys, amps, concurrence):
    out = tmp_path / "s.txt"
    assert run("prepare", "--d", 3, "--amps", amps, "--out", out) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and captured.out == f"concurrence: {concurrence}\n"
    assert isinstance(parse_state(out.read_text()), PureBipartiteState)


def test_prepare_bytes_are_pinned(tmp_path):
    _assert_pinned(tmp_path, "prepare")


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


@pytest.mark.parametrize("name", _pinned_rows("damp-", lambda name: f"{name[5:]}-{PINNED[name].out}"))
def test_damp_bytes_are_pinned(tmp_path, name):
    _assert_pinned(tmp_path, name)


def _dispatched_cpu_features() -> list[str]:
    """The CPU features numpy dispatches to on this machine, or [] where it does not say."""
    for name in ("numpy._core._multiarray_umath", "numpy.core._multiarray_umath"):
        try:
            module = importlib.import_module(name)
        except ImportError:
            continue
        return list(getattr(module, "__cpu_dispatch__", []))
    return []


def test_pinned_bytes_do_not_depend_on_numpy_simd_dispatch(tmp_path):
    # every PINNED row reruns in a child interpreter with every dispatched feature disabled
    features = _dispatched_cpu_features()
    if not features:
        pytest.skip("numpy names no dispatched CPU features here")
    src = str(Path(slitsim.__file__).resolve().parents[1])
    tests = str(Path(__file__).resolve().parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, tests]),
               NPY_DISABLE_CPU_FEATURES=" ".join(features))
    env.pop("PYTHONWARNINGS", None)
    child = (
        "import json, sys\n"
        "from pathlib import Path\n"
        "from test_cli import PINNED, _pinned_digests\n"
        "print(json.dumps({name: _pinned_digests(Path(sys.argv[1]), name) for name in PINNED}))\n"
    )
    proc = subprocess.run([sys.executable, "-W", "error::ImportWarning", "-W", "error::RuntimeWarning",
                           "-c", child, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    expected = {name: [pin.stdout, pin.out] for name, pin in PINNED.items()}
    assert json.loads(proc.stdout.splitlines()[-1]) == expected


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("d", [3, 5])
@pytest.mark.parametrize("convention", ["amplitude", "population"])
def test_damp_at_overflowing_gamma_t_keeps_only_level_zero(tmp_path, capsys, d, convention):
    state, out = tmp_path / "state.txt", tmp_path / "evolved.txt"
    amps = [float(k) for k in range(1, d + 1)]
    run("prepare", "--d", d, "--amps", ",".join(map(str, amps)), "--out", state)
    capsys.readouterr()
    assert run("damp", "--state", state, "--gamma-t", "1e308", "--convention", convention,
               "--out", out) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert f"survival probability: {1.0 / sum(a * a for a in amps):.6f}" in captured.out
    assert "concurrence: 0.0000" in captured.out
    evolved = parse_state(out.read_text()).amplitudes
    assert evolved[0, d - 1] == 1.0 and np.count_nonzero(evolved) == 1


@pytest.mark.filterwarnings("error")
def test_damp_keeps_a_state_whose_squared_norm_underflows(tmp_path, capsys):
    # exp(-600) ~ 2.6e-261 scales the only amplitude; its square underflows, the amplitude does not
    state, out = tmp_path / "state.txt", tmp_path / "evolved.txt"
    state.write_text("kind pure\ndims 3 3\n2 0 1.0 0.0\n")
    assert run("damp", "--state", state, "--gamma-t", 300, "--out", out) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "survival probability: 0.000000" in captured.out
    # the renormalization divides the real view, so the lone amplitude is written back as exactly 1.0
    assert "2 0 1.0 0.0" in out.read_text().splitlines()
    assert np.array_equal(parse_state(out.read_text()).amplitudes, parse_state(state.read_text()).amplitudes)


@pytest.mark.parametrize("convention", ["amplitude", "population"])
def test_damp_filters_a_general_pair_state(tmp_path, capsys, convention):
    # any d x d pair state, not only the anti-diagonal ones prepare writes
    psi = random_pure(np.random.default_rng(4), 4, 4)
    state, out = tmp_path / "state.txt", tmp_path / "evolved.txt"
    state.write_text(format_state(psi))
    assert run("damp", "--state", state, "--gamma-t", 0.6, "--convention", convention, "--out", out) == 0
    expect, survival = jump_free_oracle(psi, 0.6, convention)
    assert np.max(np.abs(parse_state(out.read_text()).amplitudes - expect)) < 1e-12
    assert f"survival probability: {survival:.6f}" in capsys.readouterr().out


def test_damp_names_unequal_signal_and_idler_dimensions(tmp_path, capsys):
    state = tmp_path / "state.txt"
    state.write_text(format_state(random_pure(np.random.default_rng(5), 2, 3)))
    assert run("damp", "--state", state, "--gamma-t", 0.5, "--out", tmp_path / "e.txt") == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: expected equal signal and idler dimensions"]
    assert not (tmp_path / "e.txt").exists()


def test_trajectories_deterministic_output(tmp_path):
    for _ in range(2):
        _assert_pinned(tmp_path, "trajectories")
    assert isinstance(parse_state((tmp_path / "pinned-trajectories.txt").read_text()), DensityMatrix)


@pytest.mark.parametrize("name", _pinned_rows("compare-master-", lambda name: "-".join(
    (name.removeprefix("compare-master-"), PINNED[name].stdout, PINNED[name].out))))
def test_trajectories_compare_master_bytes_are_pinned(tmp_path, name):
    _assert_pinned(tmp_path, name)


@pytest.mark.parametrize("args, message", [
    (("--t", "inf"), "t must be finite and non-negative, got inf"),
    (("--t", "nan"), "t must be finite and non-negative, got nan"),
    (("--t", "1e12"), "exceeds the 1048576 steps allowed"),
    (("--t", "1", "--dt", "1e-300"), "exceeds the 1048576 steps allowed"),
    (("--t", "1", "--gamma", "nan"), "gamma must be finite and non-negative, got nan"),
    (("--t", "0.01", "--dim", "17"), "dim must be at most MAX_DIM = 16, got 17"),
    (("--t", "0.01", "--dim", "100000"), "dim must be at most MAX_DIM = 16, got 100000"),
], ids=["t-inf", "t-nan", "t-1e12", "dt-1e-300", "gamma-nan", "dim-17", "dim-1e5"])
@pytest.mark.filterwarnings("error")
def test_trajectories_reject_unbounded_step_counts(tmp_path, capsys, args, message):
    out = tmp_path / "rho.txt"
    assert run("trajectories", *args, "--n", 10, "--seed", 1, "--compare-master", "--out", out) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and message in err[0]
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-0.0", "1e308", "1e-320", "0", "-1"])
@pytest.mark.parametrize("option", ["--gamma", "--t", "--dt"])
def test_trajectories_compare_master_edge_values(tmp_path, capsys, option, value):
    # each option alone at an edge value: a result or one named error, never a warning or a stray file
    out = tmp_path / "rho.txt"
    args = {"--gamma": "1", "--t": "0.5", option: value}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run("trajectories", *(f"{k}={v}" for k, v in args.items()), "--n", 20, "--seed", 3,
                   "--compare-master", "--out", out)
    assert code in (0, 1)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    if code == 1:
        err = capsys.readouterr().err.splitlines()[-1]
        assert err.startswith("error:")
        if option == "--gamma":  # the default step derives from gamma, so an error names gamma
            assert "gamma" in err
        assert not out.exists()
    else:
        assert isinstance(parse_state(out.read_text()), DensityMatrix)


def _scan_file(tmp_path) -> Path:
    scan = tmp_path / "scan.txt"
    assert run("pattern", "--p", 0.5, "--noiseless", "--points", 9, "--out", scan) == 0
    return scan


def _state_file(tmp_path, dims: str) -> Path:
    path = tmp_path / "big.txt"
    path.write_text(f"kind {'pure' if ' ' in dims else 'density'}\ndims {dims}\n0 0 1 0\n")
    return path


@pytest.mark.parametrize("command, message", [
    (lambda tmp: ("prepare", "--d", 100000, "--uniform"), "d must be at most MAX_DIM = 16, got 100000"),
    (lambda tmp: ("prepare", "--d", 17, "--amps", ",".join(["1"] * 17)), "d must be at most MAX_DIM = 16, got 17"),
    (lambda tmp: ("film", "--d", 100000, "--p", 0), "d must be at most MAX_DIM = 16, got 100000"),
    (lambda tmp: ("film", "--d", 17, "--p", 0), "d must be at most MAX_DIM = 16, got 17"),
    (lambda tmp: ("pattern", "--d", 100000, "--p", 0.5, "--noiseless"), "d must be at most MAX_DIM = 16, got 100000"),
    (lambda tmp: ("fit-p", "--d", 100000, "--scan", _scan_file(tmp)), "d must be at most MAX_DIM = 16, got 100000"),
    (lambda tmp: ("dephase", "--state", _state_file(tmp, "1024"), "--p", 0.1),
     "state dims must lie in [1, MAX_DIM = 16], got 1024"),
    (lambda tmp: ("damp", "--state", _state_file(tmp, "17 17"), "--gamma-t", 0.1),
     "state dims must lie in [1, MAX_DIM = 16], got 17 17"),
    (lambda tmp: ("pattern", "--p", 0.5, "--noiseless", "--points", 10**10),
     "points must lie in [8, MAX_SCAN_POINTS = 65536], got 10000000000"),
    (lambda tmp: ("pattern", "--p", 0.5, "--noiseless", "--points", 0),
     "points must lie in [8, MAX_SCAN_POINTS = 65536], got 0"),
], ids=["prepare-uniform-1e5", "prepare-amps-17", "film-1e5", "film-17", "pattern-1e5", "fit-p-1e5",
        "dephase-1024", "damp-17", "pattern-points-1e10", "pattern-points-0"])
@pytest.mark.filterwarnings("error")
def test_commands_reject_sizes_above_their_caps_before_allocating(tmp_path, capsys, command, message):
    args = command(tmp_path)
    capsys.readouterr()
    out = tmp_path / "out.txt"
    argv = args if args[0] == "fit-p" else (*args, "--out", out)
    assert run(*argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {message}"]
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


@pytest.mark.parametrize("p", P_GRID)
@pytest.mark.parametrize("at_xpi", [False, True], ids=["x0", "xpi"])
def test_fit_p_error_that_rounds_to_zero_prints_unsigned(tmp_path, capsys, p, at_xpi):
    # at p = 1 and the anti-fringe point p_hat lands just below p_true, which printed -0.000000
    scan_path = tmp_path / "scan.txt"
    assert run("pattern", "--p", p, *(["--at-xpi"] if at_xpi else []), "--noiseless",
               "--out", scan_path) == 0
    assert run("fit-p", "--scan", scan_path) == 0
    printed = capsys.readouterr().out
    assert f"p_true: {p:.6f} (error +0.000000)" in printed.splitlines()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", [["pattern", "--p", "0.5"], ["reproduce-table1"]],
                         ids=["pattern", "table1"])
@pytest.mark.parametrize("noise, peak_counts", [
    *((["--seed", "1"], peak) for peak in ("nan", "inf", "-1", "1e300", "1.7e308")),
    # noiseless means need no sampling, so only non-finite or overflowing values fail
    *((["--noiseless"], peak) for peak in ("nan", "inf", "-1", "1.7e308")),
])
def test_peak_counts_is_named_in_one_error_line(tmp_path, capsys, command, noise, peak_counts):
    out = tmp_path / "out.txt"
    assert run(*command, *noise, "--peak-counts", peak_counts, "--out", out) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: peak_counts ")
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("span, message", [
    (["--start-mm", "inf"], "error: --start-mm must be finite, got inf"),
    (["--start-mm", "nan"], "error: --start-mm must be finite, got nan"),
    (["--stop-mm=-inf"], "error: --stop-mm must be finite, got -inf"),
    (["--start-mm=-1e308", "--stop-mm", "1e308"],
     "error: the span from --start-mm -1e+308 to --stop-mm 1e+308 overflows"),
])
def test_pattern_span_is_checked_before_the_grid_is_built(tmp_path, capsys, span, message):
    out = tmp_path / "scan.txt"
    assert run("pattern", "--p", 0.5, "--seed", 1, *span, "--out", out) == 1
    assert capsys.readouterr().err.splitlines() == [message]
    assert not out.exists()


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


@pytest.mark.parametrize("name", _pinned_rows("table1-", lambda name: name.removeprefix("table1-")))
def test_reproduce_table1_bytes_are_pinned(tmp_path, name):
    _assert_pinned(tmp_path, name)


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


@pytest.mark.parametrize("name", _pinned_rows("table2-", lambda name: name.removeprefix("table2-")))
def test_reproduce_table2_bytes_are_pinned(tmp_path, name):
    _assert_pinned(tmp_path, name)


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


# run twice over, so a second usage error or round trip would show any carried state
SESSION = 2 * [
    ["pattern", "--p", "0.3", "--seed", "5", "--out", "scan.txt"],
    ["fit-p", "--scan", "scan.txt"],
    ["fit-p"],  # usage error: --scan is required
    ["pattern", "--p", "0.5", "--out", "other.txt"],  # ValueError: no --seed
    ["--help"],
]


def _run_session(workdir, capsys, monkeypatch, fresh_parser):
    monkeypatch.chdir(workdir)
    records = []
    for argv in SESSION:
        if fresh_parser:
            _build_parser.cache_clear()
        rc = main(argv)
        captured = capsys.readouterr()
        out = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
        written = out.read_bytes() if out is not None and out.exists() else None
        records.append((rc, captured.out, captured.err, written))
    return records


def test_one_parser_serves_every_call_without_state_between_them(tmp_path, capsys, monkeypatch):
    (tmp_path / "fresh").mkdir()
    (tmp_path / "reused").mkdir()
    fresh = _run_session(tmp_path / "fresh", capsys, monkeypatch, fresh_parser=True)
    _build_parser.cache_clear()
    reused = _run_session(tmp_path / "reused", capsys, monkeypatch, fresh_parser=False)
    assert _build_parser.cache_info().misses == 1
    assert [rc for rc, *_ in reused] == 2 * [0, 0, 1, 1, 0]
    assert reused == fresh
    assert reused[:5] == reused[5:]
    assert reused[2][2].startswith("usage: slitsim fit-p") and reused[4][1].startswith("usage: slitsim")
    assert _build_parser() is _build_parser()


def test_importing_the_cli_builds_no_parser():
    src = str(Path(slitsim.__file__).resolve().parents[1])
    code = "import slitsim.cli as cli; print(cli._build_parser.cache_info().currsize)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.returncode == 0 and proc.stdout == "0\n", proc.stderr


def test_unknown_command_exit_code():
    assert run("no-such-command") == 1
