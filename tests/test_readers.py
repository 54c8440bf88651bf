"""Property tests of the file readers: any single-line mutation of a valid
file either reads back as a file that round-trips bit-exactly, or raises
FileFormatError naming a line of the mutated file; and the readers read
back every Hologram and CodingMatrix the writers can be given."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from holoris.beamforming import CodingMatrix, read_coding_file, write_coding_file
from holoris.errors import FileFormatError
from holoris.geometry import ArrayGeometry
from holoris.wavefield import Hologram, read_hologram_csv, write_hologram_csv

HEADER_KEYS = ("f_c_hz", "d_x_m", "d_z_m", "n_x", "n_z", "frequency_tag")

_values = st.one_of(
    st.integers().map(str),
    st.floats().map(repr),
    st.sampled_from(["", "nan", "-inf", "1e400", "1e-400", "0", "-0.0", "1_0", " 7"]),
)
# Replacement lines never contain a line break, so the line count is kept.
_lines = st.one_of(
    st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=40),
    st.builds(lambda k, v: f"# {k}={v}", st.sampled_from(HEADER_KEYS), _values),
    st.lists(_values, max_size=6).map(",".join),
    st.text("012", max_size=6),
)


def _check_mutation(path, lines, data, read, write, fingerprint):
    """Replace one line of a valid file, read it back, check the outcome."""
    lines = list(lines)
    index = data.draw(st.integers(0, len(lines) - 1))
    key, sep, _ = lines[index].partition("=")
    # Half the time keep a header's '# key=' and change only its value.
    same_key = _values.map(lambda v: key + sep + v) if sep else _lines
    lines[index] = data.draw(st.one_of(_lines, same_key))
    path.write_text("\n".join(lines) + "\n")
    try:
        obj = read(path)
    except FileFormatError as exc:
        assert exc.line_number is not None
        assert 1 <= exc.line_number <= len(lines)
        return
    again_path = path.with_name("again_" + path.name)
    write(again_path, obj)
    assert fingerprint(read(again_path)) == fingerprint(obj)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("readers")


@pytest.fixture(scope="module")
def hologram_lines(workdir):
    geom = ArrayGeometry(n_z=3, n_x=4, d_z_m=0.02, d_x_m=0.015, f_c_hz=3_500_000_000)
    values = np.random.default_rng(0).uniform(0.0, 4.0, size=geom.shape)
    path = workdir / "valid.csv"
    write_hologram_csv(path, Hologram(values=values, geometry=geom, frequency_tag=2))
    return path.read_text().splitlines()


@pytest.fixture(scope="module")
def coding_lines(workdir):
    path = workdir / "valid.txt"
    write_coding_file(path, CodingMatrix(states=[[0, 1, 1, 0], [1, 0, 0, 1], [1, 1, 0, 0]]))
    return path.read_text().splitlines()


def _hologram_fingerprint(holo):
    return (holo.values.shape, holo.values.tobytes(), holo.geometry, holo.frequency_tag)


def _coding_fingerprint(coding):
    return (coding.states.shape, coding.states.tobytes())


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_hologram_reader_on_mutated_line(workdir, hologram_lines, data):
    _check_mutation(workdir / "mutated.csv", hologram_lines, data, read_hologram_csv,
                    write_hologram_csv, _hologram_fingerprint)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_coding_reader_on_mutated_line(workdir, coding_lines, data):
    _check_mutation(workdir / "mutated.txt", coding_lines, data, read_coding_file,
                    write_coding_file, _coding_fingerprint)


_FLOAT_MAX = float(np.finfo(float).max)
# 2**970 is half the spacing of floats at the top of the range: sums of
# intensities near it round either to the float maximum or beyond it.
_HALF_TOP_ULP = 2.0**970
_intensities = st.one_of(
    st.floats(0.0, _FLOAT_MAX),
    st.floats(_FLOAT_MAX / 64, _FLOAT_MAX),
    st.sampled_from([0.0, math.nextafter(_HALF_TOP_ULP, 0.0), _HALF_TOP_ULP, _FLOAT_MAX]),
)
_pitches = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@settings(max_examples=400, deadline=None)
@given(
    values=arrays(float, array_shapes(min_dims=2, max_dims=2, max_side=4),
                  elements=_intensities),
    pitches=st.tuples(_pitches, _pitches),
    # carriers and tags up to and beyond the float range
    f_c_hz=st.one_of(st.integers(1, 10**12), st.integers(1, 2**1100)),
    tag=st.one_of(st.integers(0, 16), st.integers(0, 2**1100)),
)
# a sum that stays finite in numpy's order but not row by row
@example(values=np.array([[_FLOAT_MAX, 0.0], [math.nextafter(_HALF_TOP_ULP, 0.0)] * 2]),
         pitches=(0.02, 0.02), f_c_hz=3_500_000_000, tag=0)
def test_every_hologram_survives_write_then_read(workdir, values, pitches, f_c_hz, tag):
    """write_hologram_csv then read_hologram_csv gives back every Hologram that
    constructs: the reader accepts whatever the types accept."""
    try:
        geom = ArrayGeometry(n_z=values.shape[0], n_x=values.shape[1], d_z_m=pitches[0],
                             d_x_m=pitches[1], f_c_hz=f_c_hz)
        holo = Hologram(values=values, geometry=geom, frequency_tag=tag)
    except ValueError:
        return  # not a hologram
    path = workdir / "written.csv"
    write_hologram_csv(path, holo)
    assert _hologram_fingerprint(read_hologram_csv(path)) == _hologram_fingerprint(holo)


@settings(max_examples=400, deadline=None)
@given(states=arrays(np.int8, array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=4),
                     elements=st.integers(-1, 2)))
@example(states=np.zeros((0, 3), dtype=np.int8))  # an empty coding writes an n_z of 0
def test_every_coding_survives_write_then_read(workdir, states):
    """write_coding_file then read_coding_file gives back every CodingMatrix that
    constructs: the reader accepts whatever the type accepts."""
    try:
        coding = CodingMatrix(states=states)
    except ValueError:
        return  # not a coding
    path = workdir / "written.txt"
    write_coding_file(path, coding)
    assert _coding_fingerprint(read_coding_file(path)) == _coding_fingerprint(coding)
