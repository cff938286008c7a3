"""The benchmark's four workloads: inputs from a seed, CLI argv, and oracles.

Each workload is a cycle of operations.  An operation is one user-facing
result: a list of ``slitsim`` command lines run in order, plus the files
they write.  Inputs depend only on the workload seed.  Oracles are
independent of the package (own parsers, closed forms) and run outside
the timed section.  A check returns the problems it found and the
operation's health value; health is recorded, never gated.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

P_GRID = tuple(i / 8 for i in range(9))


@dataclass
class Op:
    """One operation: command lines run in order and the files they write."""

    key: str
    commands: list[list[str]]
    outputs: list[Path]
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    item: str
    build: Callable  # (seed, tiny, workdir) -> (list[Op], items per op)
    check: Callable  # (op, results) -> (problems, health)
    health: str
    health_unit: str
    health_combine: Callable  # how per-operation health values combine over a cycle


# ------------------------------------------------------------- file parsers

def _content(path: Path) -> list[str]:
    lines = []
    for raw in path.read_text().splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            lines.append(line)
    return lines


def _read_matrix(path: Path) -> np.ndarray:
    """Matrix of a state file, read without going through slitsim.fileio."""
    lines = _content(path)
    dims = [int(t) for t in lines[1].split()[1:]]
    shape = (dims[0], dims[-1])
    m = np.zeros(shape, dtype=complex)
    for line in lines[2:]:
        r, c, re, im = line.split()
        m[int(r), int(c)] = float(re) + 1j * float(im)
    return m


def _labelled(stdout: str, label: str) -> float:
    for line in stdout.splitlines():
        if line.startswith(label + ":"):
            return float(line.split(":", 1)[1].split()[0])
    raise ValueError(f"no '{label}:' line in output")


def _concurrence(c: np.ndarray) -> float:
    """I-concurrence of a pure d x d amplitude matrix from the purity of its reduced state."""
    d = c.shape[0]
    rho_s = c @ c.conj().T
    purity = float(np.real(np.sum(rho_s * rho_s.conj())))
    return math.sqrt(max(2.0 * (1.0 - purity), 0.0)) / math.sqrt(2.0 * (d - 1) / d)


def _same_file(results, op) -> list[str]:
    """A report command prints exactly the text it writes to --out."""
    (_, stdout, _), = results
    return [] if op.outputs[0].read_text() == stdout else ["--out file differs from stdout"]


# ----------------------------------------------------------------- recovery

RECOVERY_SEEDS = 20


def _build_recovery(seed: int, tiny: bool, workdir: Path):
    n = 2 if tiny else RECOVERY_SEEDS
    out = workdir / "table1.txt"
    ops = [Op(f"table1-{s}", [["reproduce-table1", "--seed", str(s), "--out", str(out)]], [out])
           for s in range(seed * RECOVERY_SEEDS, seed * RECOVERY_SEEDS + n)]
    return ops, 2 * len(P_GRID)


def _check_recovery(op: Op, results):
    """Report structure, per-cell 3-sigma flags against the printed numbers, and
    exit code 2 exactly when a cell misses; returns the number of missed cells."""
    (rc, stdout, _), = results
    if rc not in (0, 2):
        return [f"exit code {rc}"], None
    problems = _same_file(results, op)
    rows = [line.split() for line in stdout.splitlines()
            if len(line.split()) == 7 and line.split()[3] in ("yes", "NO")]
    if [float(r[0]) for r in rows] != list(P_GRID):
        return problems + ["report rows do not cover the p grid"], None
    missed = 0
    for r in rows:
        p = float(r[0])
        for p_hat, sigma, flag in ((r[1], r[2], r[3]), (r[4], r[5], r[6])):
            gap = abs(float(p_hat) - p) - 3.0 * float(sigma)
            missed += flag == "NO"
            # printed to 4 decimals: only judge cells clear of the boundary
            if abs(gap) > 2.5e-4 and (gap <= 0) != (flag == "yes"):
                problems.append(f"p={p}: flag {flag} disagrees with printed values")
    overall_pass = "overall: pass" in stdout
    if overall_pass != (missed == 0) or (rc == 0) != (missed == 0):
        problems.append("exit code and overall line disagree with the cell flags")
    return problems, missed


# ----------------------------------------------------------- damping_series

# criterion-4 tolerances on the reconstructed concurrence per gamma_t
_CONCURRENCE_TOL = {1.5: 0.02}
_CONCURRENCE_TOL_DEFAULT = 0.005


def _build_damping(seed: int, tiny: bool, workdir: Path):
    from slitsim.datasets import MEASURED_CONCURRENCE, damping_counts

    tables = [(t.gamma_t, np.array(t.counts)) for t in damping_counts()]
    resamples = 50 if tiny else 1000
    out = workdir / "table2.txt"
    argv = ["reproduce-table2", "--seed", str(seed), "--out", str(out)]
    if tiny:
        argv += ["--resamples", str(resamples)]
    op = Op(f"table2-{seed}", [argv], [out], {"tables": tables, "reference": MEASURED_CONCURRENCE})
    return [op], resamples * len(tables)


def _check_damping(op: Op, results):
    """Every column's concurrence equals the purity formula on sqrt(N/total) and
    lies within criterion-4 tolerance of the measured value; returns flags."""
    (rc, stdout, _), = results
    if rc not in (0, 2):
        return [f"exit code {rc}"], None
    problems = _same_file(results, op)
    rows = [line.split() for line in stdout.splitlines()
            if len(line.split()) == 10 and line.split()[6] in ("ok", "FLAG")]
    tables, reference = op.params["tables"], op.params["reference"]
    if len(rows) != len(tables):
        return problems + [f"{len(rows)} report rows for {len(tables)} tables"], None
    flags = 0
    for row, (gamma_t, counts) in zip(rows, tables):
        total = int(counts.sum())
        conc = float(row[2])
        expected = _concurrence(np.sqrt(counts / total))
        ref = reference[gamma_t][0]
        tol = _CONCURRENCE_TOL.get(gamma_t, _CONCURRENCE_TOL_DEFAULT)
        pops = counts.sum(axis=1) / total
        if float(row[0]) != round(gamma_t, 2) or int(row[1]) != total:
            problems.append(f"gamma_t={gamma_t}: wrong column label or total")
        if abs(conc - expected) > 5.1e-5:
            problems.append(f"gamma_t={gamma_t}: concurrence {conc} != {expected:.6f}")
        if abs(conc - ref) > tol + 5e-5:
            problems.append(f"gamma_t={gamma_t}: concurrence {conc} outside {ref}+-{tol}")
        if np.max(np.abs(np.array(row[7:], dtype=float) - pops)) > 5.1e-5:
            problems.append(f"gamma_t={gamma_t}: populations differ")
        if not 0.0 < float(row[3]) < 1.0:
            problems.append(f"gamma_t={gamma_t}: bootstrap sigma {row[3]} not in (0, 1)")
        flags += row[6] == "FLAG"
    if (rc == 0) != (flags == 0):
        problems.append("exit code disagrees with the flags")
    return problems, flags


# ------------------------------------------------------------- trajectories

TRAJECTORY_TIMES = (0.5, 1.0, 2.0)
TRAJECTORY_COUNT = 10_000
TRACE_DISTANCE_BOUND = 0.02


def _build_trajectories(seed: int, tiny: bool, workdir: Path):
    ops = []
    for t in TRAJECTORY_TIMES[:1] if tiny else TRAJECTORY_TIMES:
        out = workdir / f"rho_t{t:g}.txt"
        argv = ["trajectories", "--dim", "3", "--initial-level", "2", "--gamma", "1",
                "--n", str(TRAJECTORY_COUNT), "--seed", str(seed), "--compare-master",
                "--t", f"{t:g}", "--out", str(out)]
        ops.append(Op(f"traj-{seed}-t{t:g}", [argv], [out], {"t": t}))
    return ops, TRAJECTORY_COUNT


def _check_trajectories(op: Op, results):
    """Trace distance to the closed-form bosonic damping of |2> (gamma = 1):
    P2 = e^{-4t}, P1 = 2(e^{-2t} - e^{-4t}); returns that distance."""
    (rc, stdout, _), = results
    if rc != 0:
        return [f"exit code {rc}"], None
    t = op.params["t"]
    p2 = math.exp(-4.0 * t)
    p1 = 2.0 * (math.exp(-2.0 * t) - p2)
    exact = np.diag([1.0 - p1 - p2, p1, p2]).astype(complex)
    dist = 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(_read_matrix(op.outputs[0]) - exact))))
    problems = []
    if dist > TRACE_DISTANCE_BOUND:
        problems.append(f"trace distance {dist:.4f} to the exact state")
    if abs(_labelled(stdout, "trace distance to master solution")) > TRACE_DISTANCE_BOUND:
        problems.append(f"master comparison above {TRACE_DISTANCE_BOUND}")
    return problems, dist


# ------------------------------------------------------------ cli_roundtrip

def _build_roundtrip(seed: int, tiny: bool, workdir: Path):
    rng = random.Random(seed)
    amps = [round(rng.uniform(0.1, 1.0), 4) for _ in range(3)]
    p_dephase = round(rng.uniform(0.0, 1.0), 4)
    p_film = rng.randrange(9) / 8
    gamma_t = round(rng.uniform(0.1, 2.0), 3)
    commands, fits = [], []
    for p in P_GRID:
        for at_xpi in (False, True):
            for noiseless in (False, True):
                scan = workdir / f"scan{len(fits)}.txt"
                argv = ["pattern", "--p", f"{p:g}", "--out", str(scan)]
                argv += ["--at-xpi"] if at_xpi else []
                argv += ["--noiseless"] if noiseless else ["--seed", str(seed * 100 + len(fits))]
                commands += [argv, ["fit-p", "--scan", str(scan)]]
                fits.append((p, noiseless))
    state, dephased = workdir / "state.txt", workdir / "dephased.txt"
    film, damped = workdir / "film.txt", workdir / "damped.txt"
    commands += [
        ["prepare", "--d", "3", "--amps", ",".join(f"{a:g}" for a in amps), "--out", str(state)],
        ["dephase", "--state", str(state), "--p", f"{p_dephase:g}", "--out", str(dephased)],
        ["film", "--d", "4", "--p", f"{p_film:g}", "--out", str(film)],
        ["damp", "--state", str(state), "--gamma-t", f"{gamma_t:g}", "--out", str(damped)],
    ]
    scans = [workdir / f"scan{k}.txt" for k in range(len(fits))]
    params = {"amps": amps, "p_dephase": p_dephase, "p_film": p_film, "gamma_t": gamma_t,
              "fits": fits}
    op = Op(f"roundtrip-{seed}", commands, scans + [state, dephased, film, damped], params)
    return [op], len(commands)


def _check_roundtrip(op: Op, results):
    """Noiseless fits recover p to 1e-4; prepare, dephase, film and damp match
    closed forms; returns the largest |p_hat - p| over the Poisson fits."""
    problems = [f"{argv[0]}: exit code {rc} {err.strip()}"
                for argv, (rc, _, err) in zip(op.commands, results) if rc != 0]
    if problems:
        return problems, None
    prm = op.params
    worst = 0.0
    for k, (p, noiseless) in enumerate(prm["fits"]):
        err = abs(_labelled(results[2 * k + 1][1], "p_hat") - p)
        if noiseless and err > 1e-4:
            problems.append(f"noiseless fit at p={p}: error {err:.2e}")
        if not noiseless:
            worst = max(worst, err)

    a = np.array(prm["amps"]) / np.linalg.norm(prm["amps"])
    d = len(a)
    prep_out, damp_out = results[-4][1], results[-1][1]
    state_path, deph_path, film_path, damp_path = op.outputs[-4:]

    pure = np.zeros((d, d), dtype=complex)
    pure[np.arange(d), d - 1 - np.arange(d)] = a
    if np.max(np.abs(_read_matrix(state_path) - pure)) > 1e-12:
        problems.append("prepare: amplitudes differ from the normalized weights")
    if abs(_labelled(prep_out, "concurrence") - _concurrence(pure)) > 5.1e-5:
        problems.append("prepare: concurrence differs from the purity formula")

    p = prm["p_dephase"]
    scale = np.where(np.eye(d, dtype=bool), 1.0, 1.0 - p)
    if np.max(np.abs(_read_matrix(deph_path) - scale * np.outer(a, a))) > 1e-12:
        problems.append("dephase: coherences are not scaled by (1 - p)")

    lines = _content(film_path)
    frames = [int(line.split()[0]) for line in lines[2:]]
    per_op = round(prm["p_film"] * 32 / 4)
    if lines[:2] != ["d 4", "n_frames 32"] or \
            [frames.count(j) for j in range(5)] != [per_op] * 4 + [32 - 4 * per_op]:
        problems.append("film: frame multiplicities differ from p * n_frames / d")

    gt = prm["gamma_t"]
    decay = np.exp(-np.arange(d) * gt)
    survival = float(np.sum(a**2 * decay**2))
    if abs(_labelled(damp_out, "survival probability") - survival) > 5.1e-7:
        problems.append("damp: survival differs from sum |c_l|^2 exp(-2 l gamma t)")
    evolved = np.zeros((d, d), dtype=complex)
    evolved[np.arange(d), d - 1 - np.arange(d)] = a * decay / math.sqrt(survival)
    if np.max(np.abs(_read_matrix(damp_path) - evolved)) > 1e-12:
        problems.append("damp: evolved amplitudes differ from the closed form")
    return problems, worst


WORKLOADS = {
    w.name: w
    for w in (
        Workload("recovery", "p-fits", _build_recovery, _check_recovery,
                 "recovery.cells_outside_3sigma", "count", sum),
        Workload("damping_series", "bootstrap resamples", _build_damping, _check_damping,
                 "damping_series.flags", "count", sum),
        Workload("trajectories", "trajectories", _build_trajectories, _check_trajectories,
                 "trajectories.trace_distance_max", "dimensionless", max),
        Workload("cli_roundtrip", "CLI commands", _build_roundtrip, _check_roundtrip,
                 "cli_roundtrip.fit_abs_err_max", "dimensionless", max),
    )
}
