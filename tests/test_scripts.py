"""The package's outside surface: the names `slitsim` exports, and the plotting
scripts, which run with their default arguments and write the pinned bytes."""
import hashlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import slitsim

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("script, outputs", [
    ("fringe_curves.py", {
        "fringe_x0.txt": "65aebe59f51c0f9bd89fa361ef1f10237cc98cd498297111409079178e4c4395",
        "fringe_xpi.txt": "9f81f13b9ae164d7d8cc059a6b0e226d214b3c4c7794598fb7ba501594265b1e",
    }),
    ("entanglement_curve.py", {
        "entanglement_curve.txt": "273ac8b3f92f8a2cf6d7999fe142602403f37e0b49af53a17b699ebe430adcfe",
    }),
])
def test_script_writes_pinned_output(tmp_path, script, outputs):
    src = str(Path(slitsim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, str(SCRIPTS / script)], cwd=tmp_path,
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in outputs}
    assert digests == outputs


def test_package_exports_the_pinned_names():
    exported = {name for name, value in vars(slitsim).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == {
        "AMPLITUDE", "POPULATION", "CountsTable", "DampingModel", "DegenerateScanError",
        "DensityMatrix", "DephasingChannel", "FilmSchedule", "FitResult",
        "NonRepresentableP", "OpticalGeometry", "PatternScan", "PureBipartiteState",
        "SlitStatePrep", "TrajectoryConfig",
        "anti_correlated_block", "apply_channel", "apply_sagnac", "compile_film",
        "concurrence_uncertainty", "effective_channel", "fit_p", "fringe_period",
        "i_concurrence", "integrate_master", "mask_phases", "pattern_intensity",
        "populations", "prepare_state", "reconstruct_state", "run_trajectories", "synthesize_scan",
        "trace_distance", "uniform_dephasing_channel", "x_pi",
    }
