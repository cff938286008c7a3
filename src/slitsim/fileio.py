"""Plain-text serialization of states, schedules, scans, and count tables.

Every format is a line-oriented, self-describing document; floats are
written with shortest round-trip precision so that read/write cycles are
byte-stable.  Comment lines start with '#' and blank lines are ignored.
"""
from __future__ import annotations

import numpy as np

from .experiment import CountsTable
from .film import FilmSchedule, mask_phases
from .optics import OpticalGeometry, PatternScan
from .qcore import MAX_DIM, DensityMatrix, PureBipartiteState


def _fmt(x: float) -> str:
    return repr(float(x))


def _content_lines(text: str) -> list[str]:
    lines = []
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            lines.append(line)
    return lines


def _keyed(line: str, key: str) -> str:
    parts = line.split(None, 1)
    if len(parts) != 2 or parts[0] != key:
        raise ValueError(f"expected '{key} <value>' line, got {line!r}")
    return parts[1]


# ---------------------------------------------------------------- state files

def format_state(state: PureBipartiteState | DensityMatrix) -> str:
    """State file: a 'kind' line, a 'dims' line, then 'row col re im' entries."""
    lines = []
    if isinstance(state, PureBipartiteState):
        lines.append("kind pure")
        lines.append(f"dims {state.dim_s} {state.dim_i}")
        matrix = state.amplitudes
    elif isinstance(state, DensityMatrix):
        lines.append("kind density")
        lines.append(f"dims {state.dim}")
        matrix = state.matrix
    else:
        raise TypeError(f"cannot serialize {type(state).__name__}")
    rows, cols = matrix.shape
    for r in range(rows):
        for c in range(cols):
            z = matrix[r, c]
            lines.append(f"{r} {c} {_fmt(z.real)} {_fmt(z.imag)}")
    return "\n".join(lines) + "\n"


def parse_state(text: str) -> PureBipartiteState | DensityMatrix:
    lines = _content_lines(text)
    if len(lines) < 2:
        raise ValueError("state file too short")
    kind = _keyed(lines[0], "kind")
    dims = [int(t) for t in _keyed(lines[1], "dims").split()]
    if kind == "pure":
        if len(dims) != 2:
            raise ValueError("pure state needs two dimensions")
        shape = (dims[0], dims[1])
    elif kind == "density":
        if len(dims) != 1:
            raise ValueError("density matrix needs one dimension")
        shape = (dims[0], dims[0])
    else:
        raise ValueError(f"unknown state kind {kind!r}")
    if not all(1 <= n <= MAX_DIM for n in dims):  # a 'dims' typo must not exhaust memory
        raise ValueError(f"state dims must lie in [1, MAX_DIM = {MAX_DIM}], got {' '.join(map(str, dims))}")
    matrix = np.zeros(shape, dtype=np.complex128)
    for line in lines[2:]:
        parts = line.split()
        if len(parts) != 4:
            raise ValueError(f"bad entry line {line!r}")
        r, c = int(parts[0]), int(parts[1])
        if not (0 <= r < shape[0] and 0 <= c < shape[1]):
            raise ValueError(f"entry ({r}, {c}) lies outside the {shape[0]}x{shape[1]} matrix")
        matrix[r, c] = float(parts[2]) + 1j * float(parts[3])
    if kind == "pure":
        return PureBipartiteState(matrix)
    return DensityMatrix(matrix)


# -------------------------------------------------------------- counts files

def format_counts(tables: list[CountsTable]) -> str:
    """Counts file: blocks of 'gamma_t <value>' plus one integer row per level."""
    blocks = []
    for table in tables:
        if table.gamma_t is None:
            raise ValueError("counts blocks need a gamma_t label")
        rows = [f"gamma_t {_fmt(table.gamma_t)}"]
        for row in np.asarray(table.counts):
            rows.append(" ".join(str(int(v)) for v in row))
        blocks.append("\n".join(rows))
    return "\n\n".join(blocks) + "\n"


def parse_counts_text(text: str) -> list[CountsTable]:
    lines = _content_lines(text)
    tables: list[CountsTable] = []
    i = 0
    while i < len(lines):
        gamma_t = float(_keyed(lines[i], "gamma_t"))
        i += 1
        rows = []
        while i < len(lines) and not lines[i].startswith("gamma_t"):
            rows.append([int(tok) for tok in lines[i].split()])
            i += 1
        if not rows:
            raise ValueError(f"counts block for gamma_t={gamma_t} is empty")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged counts block")
        tables.append(CountsTable(np.array(rows), gamma_t=gamma_t))
    if not tables:
        raise ValueError("no counts blocks found")
    return tables


# ------------------------------------------------------------ schedule files

def format_film(film: FilmSchedule) -> str:
    """Schedule file: 'd' and 'n_frames' header, then one line per frame
    holding the operator index and the per-slit phases."""
    lines = [f"d {film.d}", f"n_frames {film.n_frames}"]
    for idx in range(film.n_frames):
        phases = mask_phases(film, idx)
        lines.append(f"{film.frames[idx]} " + " ".join(_fmt(p) for p in phases))
    return "\n".join(lines) + "\n"


def parse_film(text: str) -> FilmSchedule:
    lines = _content_lines(text)
    if len(lines) < 3:
        raise ValueError("schedule file too short")
    d = int(_keyed(lines[0], "d"))
    n_frames = int(_keyed(lines[1], "n_frames"))
    frames, phases = [], []
    for line in lines[2:]:
        parts = line.split()
        if len(parts) != d + 1:
            raise ValueError(f"frame line must hold an index and {d} phases: {line!r}")
        frames.append(int(parts[0]))
        phases.append([float(tok) for tok in parts[1:]])
    film = FilmSchedule(d, n_frames, tuple(frames))
    # a non-finite phase fails the comparison too
    for idx, (line, got) in enumerate(zip(lines[2:], phases)):
        if not all(abs(g - w) <= 1e-12 for g, w in zip(got, mask_phases(film, idx))):
            raise ValueError(
                f"frame {idx} phases differ from its mask (pi at the flipped slit, 0 elsewhere): {line!r}"
            )
    return film


# ---------------------------------------------------------------- scan files

_GEOM_KEYS = (
    ("wavelength_mm", "wavelength"),
    ("half_slit_width_mm", "half_slit_width"),
    ("slit_separation_mm", "slit_separation"),
    ("focal_length_mm", "focal_length"),
    ("half_detector_width_mm", "half_detector_width"),
    ("beta", "beta"),
)


def format_scan(scan: PatternScan, geom: OpticalGeometry) -> str:
    """Scan file: geometry and fixed-arm header, then position/counts rows."""
    lines = [f"fixed_arm {scan.fixed_arm}", f"fixed_position_mm {_fmt(scan.fixed_position)}"]
    if scan.p_true is not None:
        lines.append(f"p_true {_fmt(scan.p_true)}")
    for key, attr in _GEOM_KEYS:
        lines.append(f"{key} {_fmt(getattr(geom, attr))}")
    lines.append("position_mm counts")
    for x, c in zip(scan.positions, scan.counts):
        lines.append(f"{_fmt(x)} {_fmt(c)}")
    return "\n".join(lines) + "\n"


def parse_scan(text: str) -> tuple[PatternScan, OpticalGeometry]:
    lines = _content_lines(text)
    header: dict[str, str] = {}
    i = 0
    while i < len(lines) and lines[i] != "position_mm counts":
        parts = lines[i].split(None, 1)
        if len(parts) != 2:
            raise ValueError(f"bad header line {lines[i]!r}")
        header[parts[0]] = parts[1]
        i += 1
    if i == len(lines):
        raise ValueError("scan file has no sample table")
    positions, counts = [], []
    for line in lines[i + 1:]:
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"bad sample line {line!r}")
        positions.append(float(parts[0]))
        counts.append(float(parts[1]))
    for key in ("fixed_arm", "fixed_position_mm", *(k for k, _ in _GEOM_KEYS)):
        if key not in header:
            raise ValueError(f"scan file is missing header key {key!r}")
    geom = OpticalGeometry(**{attr: float(header[key]) for key, attr in _GEOM_KEYS})
    p_true = float(header["p_true"]) if "p_true" in header else None
    scan = PatternScan(
        fixed_arm=header["fixed_arm"],
        fixed_position=float(header["fixed_position_mm"]),
        positions=np.array(positions),
        counts=np.array(counts),
        p_true=p_true,
    )
    return scan, geom
