import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slitsim.datasets import damping_counts, damping_counts_text
from slitsim.experiment import CountsTable, SlitStatePrep, prepare_state
from slitsim.fileio import (
    format_counts,
    format_film,
    format_scan,
    format_state,
    parse_counts_text,
    parse_film,
    parse_scan,
    parse_state,
)
from slitsim.film import FilmSchedule, compile_film
from slitsim.optics import OpticalGeometry, PatternScan
from slitsim.qcore import DensityMatrix, PureBipartiteState


def test_pure_state_round_trip():
    psi = prepare_state(SlitStatePrep(3, (0.2771, 0.5420, 0.7934)))
    text = format_state(psi)
    back = parse_state(text)
    assert isinstance(back, PureBipartiteState)
    assert np.array_equal(back.amplitudes, psi.amplitudes)
    assert format_state(back) == text


def test_density_round_trip():
    rho = DensityMatrix(np.array([
        [0.5, 0.25 - 0.1j],
        [0.25 + 0.1j, 0.5],
    ]))
    text = format_state(rho)
    back = parse_state(text)
    assert isinstance(back, DensityMatrix)
    assert np.array_equal(back.matrix, rho.matrix)
    assert format_state(back) == text


def test_state_parse_errors():
    with pytest.raises(ValueError):
        parse_state("kind banana\ndims 2\n")
    with pytest.raises(ValueError):
        parse_state("kind pure\n")
    with pytest.raises(ValueError):
        parse_state("kind density\ndims 2\n0 0 bad 0\n")


def test_counts_round_trip():
    tables = [
        CountsTable(np.array([[1, 2, 3], [4, 5, 6], [7, 8, 9]]), gamma_t=0.0),
        CountsTable(np.array([[9, 0, 0], [0, 1, 0], [0, 0, 4]]), gamma_t=1.5),
    ]
    text = format_counts(tables)
    back = parse_counts_text(text)
    assert len(back) == 2
    assert back[1].gamma_t == 1.5
    assert np.array_equal(back[0].counts, tables[0].counts)
    assert format_counts(back) == text


def test_packaged_counts_parse():
    tables = damping_counts()
    assert len(tables) == 9
    first = tables[0]
    assert first.gamma_t == 0.0
    assert first.counts[2, 0] == 2042
    assert first.total == 3303
    # comments in the asset are ignored by the parser
    assert damping_counts_text().startswith("#")


def test_counts_parse_errors():
    with pytest.raises(ValueError):
        parse_counts_text("gamma_t 0.0\n")
    with pytest.raises(ValueError):
        parse_counts_text("1 2 3\n")
    with pytest.raises(ValueError):
        parse_counts_text("gamma_t 0.0\n1 2\n3 4 5\n")


def test_film_round_trip():
    film = compile_film(4, 0.375, 32)
    text = format_film(film)
    back = parse_film(text)
    assert back == film
    assert format_film(back) == text
    # frame lines carry the operator index plus one phase per slit
    line = text.splitlines()[2]
    assert len(line.split()) == 5


def test_film_phases_within_tolerance():
    film = parse_film("d 2\nn_frames 4\n2 -0.0 0\n0 3.1415926535898 0\n1 0 3.1415926535898\n2 0 -0.0\n")
    assert film.frames == (2, 0, 1, 2)


def test_scan_round_trip():
    geom = OpticalGeometry()
    scan = PatternScan(
        "signal", 0.0,
        np.linspace(-0.5, 0.5, 11),
        np.arange(11, dtype=float) * 3.0 + 1.0,
        p_true=0.25,
    )
    text = format_scan(scan, geom)
    back, geom_back = parse_scan(text)
    assert geom_back == geom
    assert back.p_true == 0.25
    assert np.array_equal(back.positions, scan.positions)
    assert np.array_equal(back.counts, scan.counts)
    assert format_scan(back, geom_back) == text


def test_scan_without_p_true():
    geom = OpticalGeometry()
    scan = PatternScan("idler", 0.1, np.linspace(0, 1, 9), np.ones(9))
    back, _ = parse_scan(format_scan(scan, geom))
    assert back.p_true is None
    assert back.fixed_arm == "idler"


# ------------------------------------------------------------ parser fuzzing

def _scan_document() -> str:
    scan = PatternScan("signal", 0.0, np.linspace(-0.5, 0.5, 9), np.arange(9.0) + 1.0, p_true=0.25)
    return format_scan(scan, OpticalGeometry())


_PARSERS = {
    "state": (parse_state, format_state(prepare_state(SlitStatePrep(3, (0.2771, 0.5420, 0.7934))))),
    "density": (parse_state, format_state(DensityMatrix(np.array([[0.5, 0.25], [0.25, 0.5]])))),
    "counts": (parse_counts_text, format_counts([
        CountsTable(np.array([[1, 2, 3], [4, 5, 6], [7, 8, 9]]), gamma_t=0.0),
        CountsTable(np.array([[9, 0, 0], [0, 1, 0], [0, 0, 4]]), gamma_t=1.5),
    ])),
    "film": (parse_film, format_film(compile_film(4, 0.5, 8))),
    "scan": (parse_scan, _scan_document()),
}

_MUTANT_TOKENS = st.one_of(
    st.integers(min_value=2**31).map(str),
    st.integers(max_value=-2**31).map(str),
    st.sampled_from(["nan", "-nan", "inf", "-inf", "NaN", "Infinity", "1e999", "-1e999", "1e-999",
                     "0", "-0", "1", "-1", "2", "3", "4", "9223372036854775807",
                     "9223372036854775808", "18446744073709551616", "0.5", "1e308"]),
    st.text(max_size=6),
)


@st.composite
def _mutated(draw, document: str) -> str:
    """A well-formed document with tokens replaced, dropped, or added and
    lines dropped or repeated."""
    lines = [line.split() for line in document.splitlines()]
    for _ in range(draw(st.integers(1, 4))):
        row = draw(st.integers(0, len(lines) - 1))
        tokens = lines[row]
        op = draw(st.sampled_from(["replace", "drop", "add", "drop_line", "repeat_line"]))
        if op == "replace" and tokens:
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(_MUTANT_TOKENS)
        elif op == "drop" and tokens:
            del tokens[draw(st.integers(0, len(tokens) - 1))]
        elif op == "add":
            tokens.insert(draw(st.integers(0, len(tokens))), draw(_MUTANT_TOKENS))
        elif op == "drop_line" and len(lines) > 1:
            del lines[row]
        elif op == "repeat_line":
            lines.insert(row, list(tokens))
    return "\n".join(" ".join(tokens) for tokens in lines) + "\n"


def _assert_valid(parsed):
    """A parser result holds only objects whose own checks passed and finite numbers."""
    if isinstance(parsed, (PureBipartiteState, DensityMatrix, FilmSchedule)):
        return
    if isinstance(parsed, list):
        assert parsed and all(isinstance(t, CountsTable) for t in parsed)
        assert all(math.isfinite(t.gamma_t) and t.total > 0 for t in parsed)
        return
    scan, geom = parsed
    assert isinstance(scan, PatternScan) and isinstance(geom, OpticalGeometry)
    assert math.isfinite(scan.fixed_position)
    assert scan.p_true is None or math.isfinite(scan.p_true)
    assert all(math.isfinite(v) and v > 0 for v in vars(geom).values())


def _parse_or_reject(parser, text: str):
    try:
        parsed = parser(text)
    except ValueError:
        return
    _assert_valid(parsed)


@pytest.mark.parametrize("name", sorted(_PARSERS))
@given(text=st.text(max_size=200))
@settings(max_examples=100, deadline=None)
def test_parsers_reject_arbitrary_text_with_value_error(name, text):
    parser, document = _PARSERS[name]
    _parse_or_reject(parser, text)
    # the same garbage behind a well-formed header
    _parse_or_reject(parser, "\n".join(document.splitlines()[:2] + [text]))


@pytest.mark.parametrize("name", sorted(_PARSERS))
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_parsers_reject_mutated_documents_with_value_error(name, data):
    parser, document = _PARSERS[name]
    _assert_valid(parser(document))
    _parse_or_reject(parser, data.draw(_mutated(document)))


@pytest.mark.parametrize("parser, text", [
    (parse_counts_text, "gamma_t nan\n1 2\n3 4\n"),
    (parse_counts_text, "gamma_t 0.0\n18446744073709551616 2\n3 4\n"),
    (parse_scan, _scan_document().replace("focal_length_mm 200.0", "focal_length_mm inf")),
    (parse_scan, _scan_document().replace("fixed_position_mm 0.0", "fixed_position_mm -inf")),
    (parse_scan, _scan_document().replace("p_true 0.25", "p_true nan")),
    # rejected before any allocation: the dense matrix would need gigabytes
    (parse_state, "kind pure\ndims 2 100000000\n0 0 1 0\n"),
    (parse_state, "kind density\ndims 100000\n0 0 1 0\n"),
    (parse_state, "kind density\ndims 0\n"),
    (parse_state, "kind pure\ndims 3 17\n0 0 1 0\n"),
    # film phases are numbers equal to the frame's mask: pi at the flipped slit, 0 elsewhere
    (parse_film, "d 2\nn_frames 2\n2 nan banana\n0 0 0\n"),
    (parse_film, "d 2\nn_frames 2\n2 0 zero\n0 3.141592653589793 0\n"),
    (parse_film, "d 2\nn_frames 2\n2 0 inf\n0 3.141592653589793 0\n"),
    (parse_film, "d 2\nn_frames 2\n2 nan 0\n0 3.141592653589793 0\n"),
    (parse_film, "d 2\nn_frames 2\n2 0 0\n0 0 3.141592653589793\n"),
    (parse_film, "d 2\nn_frames 2\n2 3.141592653589793 0\n0 3.141592653589793 0\n"),
], ids=["counts-nan-gamma_t", "counts-entry-2^64", "scan-inf-geometry", "scan-inf-fixed-position",
        "scan-nan-p_true", "state-pure-oversized", "state-density-oversized", "state-zero-dims",
        "state-dim-above-cap",
        "film-nan-and-text-phases", "film-text-phase", "film-inf-phase", "film-nan-phase",
        "film-pi-at-wrong-slit", "film-pi-on-identity-frame"])
def test_parsers_reject_non_finite_and_oversized_values(parser, text):
    with pytest.raises(ValueError):
        parser(text)


@pytest.mark.filterwarnings("error")
def test_parse_state_rejects_an_amplitude_whose_square_overflows_without_a_warning():
    # a document the mutation fuzz drew: one amplitude replaced by 1e308, whose square is inf
    document = _PARSERS["state"][1].replace("0 2 0.2770955706627042 0.0", "0 2 1e308 0.0")
    assert "1e308" in document
    with pytest.raises(ValueError, match=r"^state not normalized \(sum \|c\|\^2 = inf\)$"):
        parse_state(document)


@pytest.mark.parametrize("frame_lines", [
    "2 0 0\n0 0 3.141592653589793\n1 0 3.141592653589793\n2 0 0\n",  # pi at the wrong slit
    "2 3.141592653589793 0\n0 3.141592653589793 0\n1 0 3.141592653589793\n2 0 0\n",  # pi on identity
    "2 nan 0\n0 3.141592653589793 0\n1 0 3.141592653589793\n2 0 0\n",
    "2 0 0\n0 3.141592653589793 0\n1 0 inf\n2 0 0\n",
])
def test_parse_film_checks_the_phases_of_a_valid_schedule(frame_lines):
    # frames (2, 0, 1, 2) are a valid d = 2 schedule, so only the phases are wrong
    with pytest.raises(ValueError, match="phases differ from its mask"):
        parse_film("d 2\nn_frames 4\n" + frame_lines)
