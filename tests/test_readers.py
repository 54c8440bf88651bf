"""Property test of the file readers: any single-line mutation of a valid
file either reads back as a file that round-trips bit-exactly, or raises
FileFormatError naming a line of the mutated file."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
