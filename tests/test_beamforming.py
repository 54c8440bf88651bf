"""Phase profiles, 1-bit quantization, and reflected link power."""

import itertools
import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from holoris.errors import FileFormatError
from holoris.geometry import (
    AngularLocation,
    ArrayGeometry,
    _MAX_BYTES,
    _POSITION_BYTES,
    _check_bytes,
    _frequency_grid,
    default_geometry,
    element_positions,
    unit_direction,
)
from holoris.beamforming import (
    CodingMatrix,
    LinkGainResult,
    PhaseProfile,
    _ONE_BIT_FACTORS,
    _block_rows,
    _fold,
    _hpbw,
    _pattern_plan,
    _reflection,
    farfield_phase_profile,
    link_gain,
    nearfield_phase_profile,
    pattern,
    quantize_1bit,
    read_coding_file,
    received_power,
    write_coding_file,
)
from holoris.localization import OraclePolicy, localize, ml_refine
from holoris.wavefield import (
    _MAX_AMPLITUDE,
    Source,
    complex_field_at_array,
    synthesize_hologram,
)

GEOM = default_geometry()
BS = AngularLocation(0.0, 0.0)
UE = AngularLocation(0.0, 30.0)

# Frozen fixture: broadside reference, user at (0, 30), default panel.
STRIPE_ROW = "01111000001111000011110000011110"
P_CONTINUOUS = 1048576.0          # (32*32)^2: perfect conjugation is coherent
P_ONE_BIT = 402474.52706143784
P_ALL_ZERO = 4333.236383668582
GAIN_DB = 19.67926017716198


def test_farfield_profile_is_projected_sum_direction():
    """Profile equals -k0 (u_bs + u_ue) . p element by element."""
    k0 = 2.0 * math.pi / GEOM.wavelength_m
    s = unit_direction(BS) + unit_direction(UE)
    expected = -k0 * element_positions(GEOM) @ s
    prof = farfield_phase_profile(BS, UE, GEOM)
    assert np.allclose(prof.values, expected, rtol=1e-12, atol=1e-12)


def test_farfield_profile_column_slope():
    # for this fixture the per-column phase step is -kappa * sin(30) = -kappa/2
    prof = farfield_phase_profile(BS, UE, GEOM)
    kappa = 2.0 * math.pi * GEOM.d_x_m / GEOM.wavelength_m
    steps = np.diff(prof.values, axis=1)
    assert np.allclose(steps, -kappa / 2.0, rtol=1e-12)
    assert np.allclose(np.diff(prof.values, axis=0), 0.0, atol=1e-12)


def test_quantization_stripes():
    coding = quantize_1bit(farfield_phase_profile(BS, UE, GEOM))
    assert "".join(str(int(b)) for b in coding.states[0]) == STRIPE_ROW
    assert (coding.states == coding.states[0]).all()  # pure azimuth steering


def test_quantize_rule_and_ties():
    eps = 1e-9
    prof = PhaseProfile(values=np.array([
        [0.0, math.pi / 2.0, -math.pi / 2.0, math.pi / 2.0 + eps],
        [math.pi, -math.pi, 2.0 * math.pi, math.pi / 2.0 - eps],
    ]))
    states = quantize_1bit(prof).states
    # |wrapped| > pi/2 flips to state 1; the boundary itself stays 0
    assert states.tolist() == [[0, 0, 0, 1], [1, 1, 0, 0]]
    # a phase that is no number has no state
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            quantize_1bit(PhaseProfile(values=np.full((2, 2), bad)))


def test_phase_profile_rejects_complex_phases():
    # the imaginary part of a phase would otherwise be dropped with a warning
    with pytest.raises(ValueError, match="^PhaseProfile values must be real, got dtype complex128$"):
        PhaseProfile(values=np.zeros((2, 2)) + 0.5j)
    # in an object array the conversion to float raises TypeError instead
    with pytest.raises(ValueError, match="^PhaseProfile values must be real, got dtype object$"):
        PhaseProfile(values=np.array([[1 + 0j, 1], [1, 1]], dtype=object))


@pytest.mark.parametrize("values", [np.zeros(4), np.zeros((2, 2, 2)), 0.5])
def test_phase_profile_must_be_a_2d_matrix(values):
    with pytest.raises(ValueError, match="^phase profile must be a 2D matrix$"):
        PhaseProfile(values=values)


def test_reciprocity_and_zero_profile_for_retroreflection():
    a = farfield_phase_profile(BS, UE, GEOM)
    b = farfield_phase_profile(UE, BS, GEOM)
    assert np.array_equal(a.values, b.values)
    # mirror-image pair: u_bs + u_ue has no in-plane component
    mirror = farfield_phase_profile(
        AngularLocation(20.0, 35.0), AngularLocation(-20.0, -35.0), GEOM)
    assert np.allclose(mirror.values, mirror.values[0, 0])


def test_fixture_powers_and_gain():
    src = Source.far_field(BS)
    prof = farfield_phase_profile(BS, UE, GEOM)
    coding = quantize_1bit(prof)
    assert received_power(prof, src, UE, GEOM) == pytest.approx(P_CONTINUOUS, rel=1e-12)
    assert received_power(coding, src, UE, GEOM) == pytest.approx(P_ONE_BIT, rel=1e-12)
    assert received_power(CodingMatrix.all_zero(GEOM.shape), src, UE, GEOM) == \
        pytest.approx(P_ALL_ZERO, rel=1e-12)
    res = link_gain(coding, None, src, UE, GEOM)
    assert res.gain_db == pytest.approx(GAIN_DB, rel=1e-12)
    assert not res.baseline_floored
    assert link_gain(coding, coding, src, UE, GEOM).gain_db == 0.0


def test_all_zero_power_matches_dirichlet_closed_form():
    """Unit panel + plane waves: |AF| factorizes into Dirichlet kernels."""
    src = Source.far_field(BS)
    kappa = 2.0 * math.pi * GEOM.d_x_m / GEOM.wavelength_m

    def dirichlet(omega, count):
        if abs(math.sin(omega / 2.0)) < 1e-15:
            return float(count)
        return math.sin(count * omega / 2.0) / math.sin(omega / 2.0)

    for ue in (UE, AngularLocation(10.0, -25.0), AngularLocation(-17.0, 42.0)):
        u = unit_direction(BS) + unit_direction(ue)
        w_x = kappa * u[0]
        w_z = -kappa * u[2] * (GEOM.d_z_m / GEOM.d_x_m)
        expected = (dirichlet(w_x, 32) * dirichlet(w_z, 32)) ** 2
        got = received_power(CodingMatrix.all_zero(GEOM.shape), src, ue, GEOM)
        assert got == pytest.approx(expected, rel=1e-9)


def test_power_ordering_continuous_one_bit_all_zero():
    rng = np.random.default_rng(5)
    src_cache = {}
    for _ in range(25):
        bs = AngularLocation(rng.uniform(-50, 50), rng.uniform(-50, 50))
        ue = AngularLocation(rng.uniform(-50, 50), rng.uniform(-50, 50))
        s = unit_direction(bs) + unit_direction(ue)
        if math.hypot(s[0], s[2]) < 0.2:
            continue
        prof = farfield_phase_profile(bs, ue, GEOM)
        src = src_cache.setdefault((bs.theta_deg, bs.phi_deg), Source.far_field(bs))
        p_c = received_power(prof, src, ue, GEOM)
        p_q = received_power(quantize_1bit(prof), src, ue, GEOM)
        p_0 = received_power(CodingMatrix.all_zero(GEOM.shape), src, ue, GEOM)
        assert p_c >= p_q > p_0


def test_global_bit_flip_leaves_power_unchanged():
    src = Source.far_field(BS)
    coding = quantize_1bit(farfield_phase_profile(BS, UE, GEOM))
    flipped = CodingMatrix(states=1 - coding.states)
    assert received_power(flipped, src, UE, GEOM) == \
        pytest.approx(received_power(coding, src, UE, GEOM), rel=1e-12)


def test_nearfield_profile_converges_to_farfield():
    """At 100 m range both profiles steer the beam the same way (< 0.5 dB)."""
    bs = AngularLocation(0.0, -20.0)
    ue = AngularLocation(5.0, 35.0)
    r = 100.0
    prof_far = farfield_phase_profile(bs, ue, GEOM)
    prof_near = nearfield_phase_profile(
        r * unit_direction(bs), r * unit_direction(ue), GEOM)
    src = Source.far_field(bs)
    p_far = received_power(quantize_1bit(prof_far), src, ue, GEOM)
    p_near = received_power(quantize_1bit(prof_near), src, ue, GEOM)
    assert abs(10.0 * math.log10(p_far / p_near)) < 0.5


@pytest.mark.parametrize("bad, message", [
    ((0.0, math.nan, 0.0), "finite 3-vector"),
    ((math.inf, 2.0, 0.0), "finite 3-vector"),
    ((0.0, 0.0, 1.0), "y > 0"),
    ((0.0, -2.0, 0.0), "y > 0"),
    ((0.0, 2.0), "finite 3-vector"),
])
def test_nearfield_profile_rejects_points_a_near_field_source_rejects(bad, message):
    good = (0.5, 2.0, -0.3)
    for bs_pos, ue_pos in ((bad, good), (good, bad)):
        with pytest.raises(ValueError, match=message):
            nearfield_phase_profile(bs_pos, ue_pos, GEOM)


def null_user():
    """An on-bin user direction, in an exact null of the all-zero panel."""
    kappa = 2.0 * math.pi * GEOM.d_x_m / GEOM.wavelength_m
    return AngularLocation(0.0, math.degrees(math.asin((2.0 * math.pi * 4 / 32) / kappa)))


def test_baseline_floor_flag():
    ue = null_user()
    src = Source.far_field(BS)
    coding = quantize_1bit(farfield_phase_profile(BS, ue, GEOM))
    res = link_gain(coding, None, src, ue, GEOM)
    assert res.baseline_floored
    assert res.gain_db == pytest.approx(120.0, abs=1.0)  # the 1e-12 floor in dB


def test_pattern_peaks_at_target():
    coding = quantize_1bit(farfield_phase_profile(BS, UE, GEOM))
    res = pattern(coding, Source.far_field(BS), GEOM,
                  theta_grid_deg=np.arange(-10.0, 10.5, 1.0),
                  phi_grid_deg=np.arange(0.0, 60.5, 0.5))
    assert abs(res.peak.phi_deg - UE.phi_deg) <= 1.0
    assert abs(res.peak.theta_deg) <= 1.0
    assert res.hpbw_phi_deg > 0.0
    assert res.power.shape == (21, 121)


def first_tied_cell(power):
    """The first cell in row-major order within 1e-12 of the maximum power."""
    return tuple(int(v) for v in np.argwhere(power >= power.max() * (1.0 - 1e-12))[0])


def test_pattern_peak_is_the_first_of_two_mirror_lobes():
    # A broadside reference makes a 1-bit excitation real but for the
    # rounding of exp(i*pi), so the beam at (10, phi) has a mirror lobe at
    # (-10, -phi) of the same power but for rounding.  On this grid angle a
    # sits at index a + 60 up to its last bits, so mirror angles differ in
    # their bits and so do the lobes.  The earlier lobe is reported whichever
    # rounds higher; on at least one of these beams the later one does, so
    # plain argmax fails.
    grid = np.linspace(-0.6, 0.6, 121) * 100.0
    later_higher = []
    for phi in (5, 10, 15, 20):
        coding = quantize_1bit(farfield_phase_profile(BS, AngularLocation(10.0, phi), GEOM))
        res = pattern(coding, Source.far_field(BS), GEOM, grid, grid)
        power = res.power
        tied = np.argwhere(power >= power.max() * (1.0 - 1e-12)).tolist()
        assert tied == [[50, 60 - phi], [70, 60 + phi]]
        later_higher.append(power[70, 60 + phi] > power[50, 60 - phi])
        assert res.peak == AngularLocation(grid[50], grid[60 - phi])
        assert res.hpbw_theta_deg == _hpbw(grid, power[:, 60 - phi], 50)
        assert res.hpbw_phi_deg == _hpbw(grid, power[50, :], 60 - phi)
    assert any(later_higher)


def test_coding_file_round_trip(tmp_path):
    coding = quantize_1bit(farfield_phase_profile(BS, UE, GEOM))
    path = tmp_path / "coding.txt"
    write_coding_file(path, coding)
    back = read_coding_file(path)
    assert np.array_equal(back.states, coding.states)

    text = path.read_text().splitlines()
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(["# wrong-magic"] + text[1:]) + "\n")
    with pytest.raises(FileFormatError) as exc:
        read_coding_file(bad)
    assert exc.value.line_number == 1

    data_start = next(i for i, l in enumerate(text) if not l.startswith("#"))
    broken = text[:]
    broken[data_start] = broken[data_start][:-1] + "2"  # invalid state symbol
    bad2 = tmp_path / "bad2.txt"
    bad2.write_text("\n".join(broken) + "\n")
    with pytest.raises(FileFormatError) as exc:
        read_coding_file(bad2)
    assert exc.value.line_number == data_start + 1


@pytest.mark.parametrize("shape", [(1, 1), (1, 40), (40, 1), (7, 5), (32, 32)])
def test_coding_file_spells_each_state_as_its_digit(tmp_path, shape):
    states = np.random.default_rng(shape[0] * 100 + shape[1]).integers(0, 2, shape)
    path = tmp_path / "coding.txt"
    write_coding_file(path, CodingMatrix(states=states))
    rows = ["".join(str(int(s)) for s in row) for row in states]
    assert path.read_bytes() == "\n".join(
        ["# holoris-coding v1", f"# n_x={shape[1]}", f"# n_z={shape[0]}", *rows, ""]).encode()


@pytest.mark.parametrize("lineno, key, bad", [
    pytest.param(2, "n_x", "abc", id="2-n_x"),
    pytest.param(3, "n_z", "abc", id="3-n_z"),
    pytest.param(2, "n_x", "-2", id="2-n_x-negative"),
    pytest.param(3, "n_z", "0", id="3-n_z-zero"),
    pytest.param(2, "n_x", str(np.iinfo(np.intp).max + 1), id="2-n_x-beyond-element-bound"),
])
def test_coding_file_header_errors_carry_their_line(tmp_path, lineno, key, bad):
    path = tmp_path / "coding.txt"
    write_coding_file(path, CodingMatrix.all_zero((3, 4)))
    lines = path.read_text().splitlines()
    assert lines[lineno - 1].startswith(f"# {key}=")
    lines[lineno - 1] = f"# {key}={bad}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FileFormatError) as exc:
        read_coding_file(path)
    assert exc.value.line_number == lineno


def test_coding_file_undecodable_bytes_carry_their_line(tmp_path):
    path = tmp_path / "coding.txt"
    write_coding_file(path, CodingMatrix.all_zero((3, 4)))
    data = path.read_bytes().split(b"\n")
    data[4] = b"\xff\xfe00"  # second coding row, line 5
    path.write_bytes(b"\n".join(data))
    with pytest.raises(FileFormatError, match="UTF-8") as exc:
        read_coding_file(path)
    assert exc.value.line_number == 5


def brute_force_pattern(factor, bs, geom, theta_grid_deg, phi_grid_deg):
    """Independent oracle: |sum over elements of incident * factor * outgoing|^2.

    Incident and outgoing plane waves are exp(i*k0*u.p) with u the unit
    direction toward each terminal and p the element position, summed
    element by element for every grid direction.
    """
    k0 = 2.0 * math.pi / geom.wavelength_m
    pos = element_positions(geom)
    excitation = np.exp(1j * k0 * (pos @ unit_direction(bs))) * factor
    power = np.empty((len(theta_grid_deg), len(phi_grid_deg)))
    for a, th in enumerate(theta_grid_deg):
        for b, ph in enumerate(phi_grid_deg):
            u = unit_direction(AngularLocation(float(th), float(ph)))
            total = 0j
            for m in range(geom.n_z):
                for n in range(geom.n_x):
                    total += excitation[m, n] * np.exp(1j * k0 * (pos[m, n] @ u))
            power[a, b] = abs(total) ** 2
    return power


PANEL_5X7 = ArrayGeometry(n_z=5, n_x=7, d_z_m=0.02, d_x_m=0.03, f_c_hz=3_500_000_000)
PANEL_4X1 = replace(PANEL_5X7, n_z=4, n_x=1)
PANEL_4X2 = replace(PANEL_5X7, n_z=4, n_x=2)
PANEL_3X6 = replace(PANEL_5X7, n_z=3, n_x=6)
# phi grids: mirrored, repeated angles with both zeros, one-sided, partly mirrored, one angle
ORACLE_PHI_GRIDS = [np.arange(-60.0, 61.0, 7.5), [20.0, -20.0, 20.0, -0.0, 0.0],
                    np.arange(0.0, 61.0, 15.0), np.arange(-50.0, 71.0, 20.0), [12.5]]


@pytest.mark.parametrize("theta_grid", [
    np.arange(-40.0, 41.0, 10.0), [12.5], [10.0, -10.0, 10.0, 0.0, 0.0], [-0.0, 0.0, 5.0, -5.0],
    np.arange(0.0, 61.0, 10.0), np.arange(-50.0, 71.0, 10.0)])
def test_pattern_matches_per_element_field_sum(theta_grid):
    # Each theta grid against each phi grid, on panels of an odd and an even
    # number of columns, one and two columns among them, so that pattern's
    # fold about the centre column meets a centre column and none.
    bs = AngularLocation(-8.0, 15.0)
    rng = np.random.default_rng(5)
    for geom, phi_grid in itertools.product((PANEL_5X7, PANEL_4X1, PANEL_4X2, PANEL_3X6),
                                            ORACLE_PHI_GRIDS):
        phases = rng.uniform(-math.pi, math.pi, geom.shape)
        states = rng.integers(0, 2, geom.shape)
        for coding, factor in (
            (CodingMatrix(states=states), np.exp(1j * math.pi * states)),
            (PhaseProfile(values=phases), np.exp(1j * phases)),
        ):
            res = pattern(coding, Source.far_field(bs), geom, theta_grid, phi_grid)
            own = brute_force_pattern(factor, bs, geom, theta_grid, phi_grid)
            assert res.power.shape == (len(theta_grid), len(phi_grid))
            assert np.max(np.abs(res.power - own)) <= 1e-12 * np.max(own)
            i, j = first_tied_cell(own)
            assert (res.peak.theta_deg, res.peak.phi_deg) == (theta_grid[i], phi_grid[j])


@pytest.mark.parametrize("phase, error, message", [
    (CodingMatrix(states=np.zeros((1, 32))), ValueError,
     r"phase shape \(1, 32\) does not match \(32, 32\)"),
    (PhaseProfile(values=np.zeros((32, 31))), ValueError,
     r"phase shape \(32, 31\) does not match \(32, 32\)"),
    (np.zeros((32, 32)), TypeError, "phase must be a CodingMatrix or PhaseProfile"),
], ids=["coding-1x32", "profile-32x31", "array"])
@pytest.mark.parametrize("evaluate", [
    lambda phase: received_power(phase, Source.far_field(BS), UE, GEOM),
    lambda phase: pattern(phase, Source.far_field(BS), GEOM, [0.0], [0.0, 30.0]),
], ids=["received_power", "pattern"])
def test_phase_of_another_shape_or_kind_is_rejected(evaluate, phase, error, message):
    with pytest.raises(error, match=message):
        evaluate(phase)


def _dtft2(x: np.ndarray, w_z: np.ndarray, w_x: np.ndarray) -> np.ndarray:
    """|sum_{m,n} x[m, n] * exp(i*(m*w_z[t] + n*w_x[t, p]))|^2 for every (t, p).

    x is (n_z, n_x), w_z is (T,) and w_x is (T, P); returns (T, P).  The z
    axis is one matrix product, taken at -|w_z| and |w_z| as
    beamforming.pattern takes a plan row's two slots.  Then each row t on
    its own, about its centre column: with k = n - (n_x - 1)/2 for the H
    columns hi at and right of the centre and lo their mirrors, even =
    y[hi] + y[lo] and odd = y[hi] - y[lo], the rows [Re even | -Im odd]
    and [Im even | Re odd] of both slots times [cos(k*w) with its k = 0
    entry halved; sin(k*w)] are the real and imaginary parts of the sums,
    up to a phase of modulus 1, and the power is the slot of w_z's sign.
    No plan, no rows shared between grid rows, no blocks.
    """
    pairs = np.stack([-np.abs(w_z), np.abs(w_z)], axis=1).ravel()
    y = (np.exp(1j * np.outer(pairs, np.arange(x.shape[0]))) @ x).reshape(len(w_z), 2, -1)
    n_x = x.shape[1]
    h = (n_x + 1) // 2
    k = np.arange(n_x - h, n_x)[:, np.newaxis] - (n_x - 1) / 2
    half = np.where(k == 0.0, 0.5, 1.0)
    power = np.empty(w_x.shape)
    for t, (row, w) in enumerate(zip(y, w_x)):
        even = row[:, n_x - h:] + row[:, h - 1::-1]
        odd = row[:, n_x - h:] - row[:, h - 1::-1]
        arg = k * w
        table = np.vstack([np.cos(arg) * half, np.sin(arg)])
        re = np.hstack([even.real, -odd.imag]) @ table
        im = np.hstack([even.imag, odd.real]) @ table
        slot = int(w_z[t] > 0.0)
        power[t] = re[slot] ** 2 + im[slot] ** 2
    return power


def inline_power(coding, bs_src, geom, theta_grid_deg, phi_grid_deg):
    """pattern's power as _dtft2 takes it, every factor built on every call
    from the caller's grids, a grid row at a time, with no |theta| fold."""
    excitation = complex_field_at_array(bs_src, geom) * _reflection(coding, geom)
    return _dtft2(excitation, *_frequency_grid(np.asarray(theta_grid_deg, dtype=float),
                                               np.asarray(phi_grid_deg, dtype=float), geom))


def test_dtft2_matches_explicit_sum():
    rng = np.random.default_rng(2)
    for n_z, n_x in ((3, 5), (4, 1), (1, 6)):
        x = rng.normal(size=(n_z, n_x)) + 1j * rng.normal(size=(n_z, n_x))
        w_z = rng.uniform(-4, 4, 3)
        w_x = np.concatenate([rng.uniform(-4, 4, (3, 2)), np.full((3, 1), -0.0),
                              np.zeros((3, 1))], axis=1)
        own = np.abs(np.array([[
            sum(x[m, n] * np.exp(1j * (m * w_z[t] + n * w_x[t, p]))
                for m in range(n_z) for n in range(n_x))
            for p in range(4)] for t in range(3)])) ** 2
        assert np.max(np.abs(_dtft2(x, w_z, w_x) - own)) <= 1e-13 * np.max(own)


@pytest.mark.parametrize("n_x", [1, 2, 5, 8, 9, 17, 32])
def test_blocked_dtft_matches_explicit_sum(n_x):
    # pattern's x axis on one block of 6 plan rows of two slots each, at 7
    # signed frequencies a row: the rows _fold makes, times a centred cos/sin
    # table, squared, their halves summed, against the complex sums over n.
    rng = np.random.default_rng(n_x)
    y = rng.normal(size=(6, 2, n_x)) + 1j * rng.normal(size=(6, 2, n_x))
    w = rng.uniform(-math.pi, math.pi, (6, 7))
    h = (n_x + 1) // 2
    k = np.arange(n_x - h, n_x)[:, np.newaxis] - (n_x - 1) / 2
    arg = k * w[:, np.newaxis, :]
    table = np.concatenate([np.cos(arg) * np.where(k == 0.0, 0.5, 1.0), np.sin(arg)], axis=1)
    folded = _fold(y)
    assert folded.shape == (2, 6, 2, 2 * h)
    sums = np.square(folded @ table)
    got = sums[0] + sums[1]
    own = np.abs(np.einsum("bsn,bnv->bsv", y, np.exp(
        1j * np.arange(n_x)[np.newaxis, :, np.newaxis] * w[:, np.newaxis, :]))) ** 2
    assert np.max(np.abs(got - own)) <= 1e-13 * np.max(own)


ANGLE = st.floats(-89.99, 89.99)


@given(n_z=st.integers(1, 9), n_x=st.integers(1, 9),
       pitches=st.tuples(*[st.sampled_from((0.01, 0.02, 0.043))] * 2),
       theta=st.lists(ANGLE, min_size=1, max_size=12),
       phi=st.lists(ANGLE, min_size=1, max_size=12),
       bs=st.tuples(ANGLE, ANGLE), profile=st.booleans(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_planned_pattern_is_the_inline_dtft_bit_for_bit(n_z, n_x, pitches, theta, phi, bs,
                                                         profile, seed):
    geom = ArrayGeometry(n_z=n_z, n_x=n_x, d_z_m=pitches[0], d_x_m=pitches[1],
                         f_c_hz=3_500_000_000)
    rng = np.random.default_rng(seed)
    if profile:
        coding = PhaseProfile(values=rng.uniform(-math.pi, math.pi, geom.shape))
    else:
        coding = CodingMatrix(states=rng.integers(0, 2, geom.shape))
    src = Source.far_field(AngularLocation(*bs))
    res = pattern(coding, src, geom, theta, phi)
    want = inline_power(coding, src, geom, theta, phi)
    assert np.array_equal(res.power, want)
    i, j = first_tied_cell(want)
    assert (res.peak.theta_deg.hex(), res.peak.phi_deg.hex()) == (theta[i].hex(), phi[j].hex())
    assert res.hpbw_theta_deg.hex() == _hpbw(np.array(theta), want[:, j], i).hex()
    assert res.hpbw_phi_deg.hex() == _hpbw(np.array(phi), want[i, :], j).hex()


# 63 phi columns, so a block of pattern's x axis takes 32 plan rows.
SEAM_PHI = np.arange(-31, 32) * 1.5
SEAM_ROWS = _block_rows(SEAM_PHI.size)


@pytest.mark.parametrize("n_theta", [1, 2 * SEAM_ROWS - 1, 2 * SEAM_ROWS, 2 * SEAM_ROWS + 1,
                                     4 * SEAM_ROWS + 1, 121])
def test_pattern_is_the_inline_dtft_bit_for_bit_across_row_blocks(monkeypatch, n_theta):
    # One-sided theta grids of one plan row, one row short of two blocks,
    # two blocks, one row past them and four blocks and a row, and the
    # -60..60 deg grid, whose 121 rows are 61 plan rows.  On a panel of
    # fewer than 16 columns the power is the inline DTFT's bits.  On the
    # 32x32 panel, whose products round by their shape, it is the bits of
    # one block of all plan rows, and the inline DTFT to 1e-13 of its maximum.
    theta = np.linspace(-60.0, 60.0, 121) if n_theta == 121 else np.linspace(0.0, 60.0, n_theta)
    bs = AngularLocation(-8.0, 15.0)
    src = Source.far_field(bs)
    for geom in (PANEL_5X7, GEOM):
        profile = farfield_phase_profile(bs, UE, geom)
        for coding in (quantize_1bit(profile), profile):
            res = pattern(coding, src, geom, theta, SEAM_PHI)
            want = inline_power(coding, src, geom, theta, SEAM_PHI)
            if geom is PANEL_5X7:
                assert np.array_equal(res.power, want)
            else:
                assert np.max(np.abs(res.power - want)) <= 1e-13 * np.max(want)
                with monkeypatch.context() as m:
                    m.setattr("holoris.beamforming._BLOCK_POINTS", 10**9)
                    want = pattern(coding, src, geom, theta, SEAM_PHI).power
                assert np.array_equal(res.power, want)
            i, j = first_tied_cell(want)
            assert (res.peak.theta_deg.hex(), res.peak.phi_deg.hex()) == (
                theta[i].hex(), SEAM_PHI[j].hex())
            assert res.hpbw_theta_deg.hex() == _hpbw(theta, want[:, j], i).hex()
            assert res.hpbw_phi_deg.hex() == _hpbw(SEAM_PHI, want[i, :], j).hex()


@given(n_z=st.integers(1, 64), n_x=st.integers(1, 64), seed=st.integers(0, 2**32 - 1))
@example(n_z=1, n_x=1, seed=0)
@example(n_z=1, n_x=64, seed=1)
@example(n_z=64, n_x=1, seed=2)
@example(n_z=64, n_x=64, seed=3)
@settings(max_examples=100, deadline=None)
def test_reflection_of_a_coding_is_the_exp_of_its_phases_bit_for_bit(n_z, n_x, seed):
    geom = ArrayGeometry(n_z=n_z, n_x=n_x, d_z_m=0.02, d_x_m=0.02, f_c_hz=3_500_000_000)
    coding = CodingMatrix(states=np.random.default_rng(seed).integers(0, 2, geom.shape))
    got = _reflection(coding, geom)
    want = np.exp(1j * (math.pi * coding.states))
    assert (got.shape, got.dtype) == (want.shape, want.dtype)
    assert got.tobytes() == want.tobytes()


def test_the_one_bit_factor_table_is_read_only():
    assert _ONE_BIT_FACTORS.shape == (2,) and not _ONE_BIT_FACTORS.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        _ONE_BIT_FACTORS[1] = 1.0


def test_pattern_plans_are_kept_apart_by_grid():
    coding = quantize_1bit(farfield_phase_profile(BS, UE, PANEL_5X7))
    src = Source.far_field(BS)
    base = np.linspace(-40.0, 40.0, 9)
    moved = base.copy()
    moved[4] = 1.0
    grids = [
        (base, base),
        (moved, base),                                   # one theta value
        (base, moved),                                   # one phi value
        (base[::-1], base),                              # order
        (base[:3], np.concatenate([base[3:], base])),    # the same 18 values, split apart
    ]
    powers = [pattern(coding, src, PANEL_5X7, t, p).power for t, p in grids]
    powers.append(pattern(coding, src, PANEL_5X7, base, base).power)  # its plan built again
    for (t, p), power in zip(grids + grids[:1], powers):
        assert np.array_equal(power, inline_power(coding, src, PANEL_5X7, t, p))
    for a in range(len(grids)):
        for b in range(a):
            assert powers[a].shape != powers[b].shape or not np.array_equal(powers[a],
                                                                             powers[b])


def test_pattern_plan_cache_keeps_one_plan():
    coding, src = quantize_1bit(farfield_phase_profile(BS, UE, GEOM)), Source.far_field(BS)
    pattern(coding, src, GEOM, np.linspace(-40.0, 40.0, 9), np.linspace(-40.0, 40.0, 9))
    pattern(coding, src, GEOM, np.linspace(-30.0, 30.0, 7), np.linspace(-20.0, 20.0, 5))
    assert _pattern_plan.cache_info().currsize == 1


def test_pattern_plans_are_kept_apart_by_geometry_and_read_only():
    key = np.linspace(-30.0, 30.0, 7).tobytes()  # 4 distinct |theta|
    e_z, table, rows = _pattern_plan(PANEL_5X7, key, key)
    assert (e_z.shape, table.shape, rows.shape) == ((8, 5), (4, 8, 7), (7,))
    assert rows.tolist() == [1, 3, 5, 6, 4, 2, 0]
    for factor in (e_z, table, rows):
        assert not factor.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            factor[(0,) * factor.ndim] = 0
    # an equal geometry shares the plan; another pitch along z or x does not
    assert _pattern_plan(replace(PANEL_5X7), key, key)[0] is e_z
    e_z2, table2, rows2 = _pattern_plan(replace(PANEL_5X7, d_z_m=0.03), key, key)
    assert not np.array_equal(e_z2, e_z)
    assert np.array_equal(table2, table) and np.array_equal(rows2, rows)
    e_z3, table3, rows3 = _pattern_plan(replace(PANEL_5X7, d_x_m=0.02), key, key)
    assert np.array_equal(e_z3, e_z) and np.array_equal(rows3, rows)
    assert not np.array_equal(table3, table)
    grid = np.frombuffer(key)
    for geom in (PANEL_5X7, replace(PANEL_5X7, d_z_m=0.03), replace(PANEL_5X7, d_x_m=0.02)):
        coding = quantize_1bit(farfield_phase_profile(BS, UE, geom))
        got = pattern(coding, Source.far_field(BS), geom, grid, grid).power
        assert np.array_equal(got, inline_power(coding, Source.far_field(BS), geom, grid, grid))


def test_pattern_after_the_caller_mutates_its_grid():
    coding = quantize_1bit(farfield_phase_profile(BS, UE, PANEL_5X7))
    src = Source.far_field(BS)
    phi = np.linspace(-40.0, 40.0, 9)
    theta = phi.copy()
    res = pattern(coding, src, PANEL_5X7, theta, phi)
    first = res.power
    assert np.array_equal(first, inline_power(coding, src, PANEL_5X7, theta, phi))
    theta[2] = 5.0
    after = pattern(coding, src, PANEL_5X7, theta, phi).power
    assert np.array_equal(after, inline_power(coding, src, PANEL_5X7, theta, phi))
    assert not np.array_equal(after, first)
    # The first result keeps the grids its power and peak were computed on:
    # its own read-only copies, not the caller's arrays.
    phi[:] = 0.0
    want = np.linspace(-40.0, 40.0, 9)
    assert res.theta_deg.tobytes() == want.tobytes() and res.phi_deg.tobytes() == want.tobytes()
    assert res.peak.theta_deg in res.theta_deg and res.peak.phi_deg in res.phi_deg
    for grid in (res.theta_deg, res.phi_deg):
        assert grid.dtype == np.float64 and not grid.flags.writeable
        with pytest.raises(ValueError):
            grid[0] = 1.0


GRID_VALUES = r"must hold at least one angle, each finite with \|angle\| < 90 deg"


@pytest.mark.parametrize("bad, message", [
    (np.zeros((2, 3)), r"must be 1-D, got shape \(2, 3\)"),
    ([], GRID_VALUES),
    (12.5, r"must be 1-D, got shape \(\)"),
    ([0.0, math.nan], GRID_VALUES),
    ([0.0, 120.0], GRID_VALUES),
    ([-90.0, 0.0], GRID_VALUES),
    ([0.0, 10.0 + 1j], "must be real, got dtype complex128"),
    (np.array([0.0, 10.0 + 0j], dtype=object), "must be real, got dtype object"),
], ids=["2-D", "empty", "scalar", "nan", "120", "-90", "complex", "complex-object"])
@pytest.mark.parametrize("name", ["theta_grid_deg", "phi_grid_deg"])
def test_pattern_rejects_a_grid_it_cannot_evaluate(name, bad, message):
    grids = {"theta_grid_deg": [0.0, 10.0], "phi_grid_deg": [0.0, 30.0], name: bad}
    coding = CodingMatrix.all_zero(GEOM.shape)
    with pytest.raises(ValueError, match=f"^{name} {message}$"):
        pattern(coding, Source.far_field(BS), GEOM, **grids)


def test_pattern_grid_memory_cannot_hold_fails_before_any_exp(monkeypatch):
    # 10**5 by 10**5 directions, 83,512 distinct |theta|, would take ~2.1 TB
    # of cos/sin table.  Should the check let them through, reaching
    # the frequency grid fails before any array of the table's size is built.
    def reached(*args):
        raise AssertionError("the grid reached _frequency_grid")
    monkeypatch.setattr("holoris.beamforming._frequency_grid", reached)
    grid = np.linspace(-80.0, 80.0, 10**5)
    with pytest.raises(ValueError, match="^pattern's grid must be at most 2147483648 bytes "
                                         "at 256 bytes each$"):
        pattern(CodingMatrix.all_zero(GEOM.shape), Source.far_field(BS), GEOM, grid, grid)


def test_pattern_budget_admits_a_grid_of_exactly_its_bytes(monkeypatch):
    # 3 thetas by 5 phis on the 32x32 panel, 2 distinct |theta|: the
    # table's 2*5 points at 16*16 bytes, e_z's 2*2 slot rows of n_z = 32
    # complex factors, the 3 rows' int64 slots, and a call's complex z-axis
    # rows, 2*2*32 elements of 16 bytes, with their folded copies and float
    # rows, 128 bytes a plan row and folded column (here larger than the
    # build's w_x and argument, and than a block's sums beside the float
    # rows and slot powers), 10,776 bytes.  Each call clears the plan
    # cache, since a cached plan is not checked again.
    thetas, phis = np.linspace(-10.0, 10.0, 3), np.linspace(-20.0, 20.0, 5)
    coding, src = quantize_1bit(farfield_phase_profile(BS, UE, GEOM)), Source.far_field(BS)
    _pattern_plan.cache_clear()
    want = pattern(coding, src, GEOM, thetas, phis)
    _pattern_plan.cache_clear()
    charge = 10 * 16 * 16 + 16 * 4 * 32 + 8 * 3 + 16 * 4 * 32 + 128 * 2 * 16
    assert charge == 10776
    monkeypatch.setattr("holoris.geometry._MAX_BYTES", charge)
    assert np.array_equal(pattern(coding, src, GEOM, thetas, phis).power, want.power)
    _pattern_plan.cache_clear()
    monkeypatch.setattr("holoris.geometry._MAX_BYTES", charge - 1)
    with pytest.raises(ValueError, match="^pattern's grid must be at most 10775 bytes "):
        pattern(coding, src, GEOM, thetas, phis)


def test_pattern_charges_its_plan_and_a_calls_rows(monkeypatch, traced_peak):
    """pattern's charge against tracemalloc's peak over a call that builds its
    plan, on 128x128 and 256x256 grids on the 32x32 panel.

    The rise in the peak from the smaller grid to the larger, less 64 bytes
    an axis point for the 1-D arrays of both grids, is at most the rise in
    the charge the size check is given (no undercharge) and at least that
    less 1 byte a grid point (no overcharge).  These grids are not exact
    mirrors: 92 and 183 distinct |theta|.  The peak is the plan, 16*H bytes
    (H = n_x/2) a point of U distinct |theta| by the P phi columns for its
    table, 32*n_z a plan row for e_z and 8 a theta for its slot rows, and
    then, on the 128 grid, a call's block of plan rows: the folded float
    rows, 64*H a plan row, the slot powers, 16 bytes a point of U by P, and
    a block's sums, 32 bytes a point of the block; on the 256 grid the slot
    powers beside the power grid and its peak mask, 9 bytes a grid point.
    """
    charges = []

    def check_bytes(what, count, item_bytes, extra_bytes=0):
        charges.append(count * item_bytes + extra_bytes)
        return _check_bytes(what, count, item_bytes, extra_bytes)

    monkeypatch.setattr("holoris.beamforming._check_bytes", check_bytes)
    coding, src = quantize_1bit(farfield_phase_profile(BS, UE, GEOM)), Source.far_field(BS)
    peaks = []
    for n in (128, 256):
        grid = np.linspace(-60.0, 60.0, n)
        _pattern_plan.cache_clear()
        peaks.append(traced_peak(lambda: pattern(coding, src, GEOM, grid, grid)))
    rise = peaks[1] - peaks[0] - 64 * (256 - 128)
    assert len(charges) == 2
    assert rise <= charges[1] - charges[0] <= rise + (256**2 - 128**2)


@pytest.mark.parametrize("grids", [
    pytest.param(lambda n: ([10.0], np.linspace(-60.0, 60.0, n)), id="build"),
    pytest.param(lambda n: (np.linspace(0.0, 60.0, n), [10.0]), id="fold"),
])
def test_pattern_charges_the_phase_that_leads(monkeypatch, traced_peak, grids):
    """pattern's charge against tracemalloc's peak over a call that builds its
    plan, on 512 and 1024 angles of one axis by one of the other on the
    32x32 panel, where a phase test_pattern_charges_its_plan_and_a_calls_rows
    does not reach leads.  On one theta, the plan's build: the table, 16*H
    bytes a phi (H = n_x/2), and beside it the plan's w_x, 8 bytes a phi,
    and one plan row's (H, P) exp argument, 8*H.  On one phi, the fold: the
    plan, and a call's complex z-axis rows with their folded complex
    copies and float rows, 32*n_x + 128*H bytes a theta.  The rise in the
    peak from the smaller grid to the larger, less 8 bytes an angle for the
    grid's key, is at most the rise in the charge and at least that less 1
    byte a grid point.  Each grid's peak is the least of three calls, as in
    test_byte_charge_is_the_traced_slope: with one call, the build's rise
    read up to 1,735 bytes under its charge's, past the 512 bytes allowed.
    """
    charges = []

    def check_bytes(what, count, item_bytes, extra_bytes=0):
        charges.append(count * item_bytes + extra_bytes)
        return _check_bytes(what, count, item_bytes, extra_bytes)

    monkeypatch.setattr("holoris.beamforming._check_bytes", check_bytes)
    coding, src = quantize_1bit(farfield_phase_profile(BS, UE, GEOM)), Source.far_field(BS)

    def planned(theta, phi):
        _pattern_plan.cache_clear()
        return pattern(coding, src, GEOM, theta, phi)

    peaks = []
    for n in (512, 1024):
        theta, phi = grids(n)
        peaks.append(min(traced_peak(lambda: planned(theta, phi)) for _ in range(3)))
    rise = peaks[1] - peaks[0] - 8 * (1024 - 512)
    assert len(charges) == 6
    assert rise <= charges[3] - charges[0] <= rise + (1024 - 512)


def test_pattern_takes_no_page_faults_once_warm(warm_faults):
    setup = """
import numpy as np
from holoris.beamforming import farfield_phase_profile, pattern, quantize_1bit
from holoris.geometry import AngularLocation, default_geometry
from holoris.wavefield import Source

geom = default_geometry()
bs = AngularLocation(0.0, 0.0)
coding = quantize_1bit(farfield_phase_profile(bs, AngularLocation(10.0, 25.0), geom))
src = Source.far_field(bs)
grid = np.linspace(-60.0, 60.0, 121)
"""
    assert warm_faults(setup, "pattern(coding, src, geom, grid, grid)") < 5


def test_a_user_one_metre_out_defeats_the_plane_wave_coding():
    """The plane-wave limit of localize, ml_refine and farfield_phase_profile.

    A far-field BS at (0, -30) deg and a user at (10, 20) deg synthesized
    as a near-field source 1 m out, noiseless, well inside the default
    panel's 9.6 m Fraunhofer distance.  localize (pad 2, guard 2, oracle)
    then ml_refine keep the angle (0.35 deg off), but the 1-bit far coding
    from the estimate gains -0.98 dB over the all-zero coding at the user,
    against 8.30 dB for the 1-bit near coding from the true position, the
    BS a point 1e6 m out along its direction.
    """
    bs, ue = AngularLocation(0.0, -30.0), AngularLocation(10.0, 20.0)
    ue_pos = 1.0 * unit_direction(ue)
    src = Source.far_field(bs)
    holo = synthesize_hologram([src, Source.near_field(ue_pos)], GEOM)[0]
    coarse = localize(holo, bs, zero_pad_factor=2, dc_guard=2,
                      disambiguation=OraclePolicy(truth=ue)).chosen
    estimate = ml_refine(holo, bs, coarse)
    assert abs(estimate.theta_deg - 10.0) < 0.5 and abs(estimate.phi_deg - 20.0) < 0.5
    far = quantize_1bit(farfield_phase_profile(bs, estimate, GEOM))
    near = quantize_1bit(nearfield_phase_profile(1e6 * unit_direction(bs), ue_pos, GEOM))
    far_db = link_gain(far, None, src, ue_pos, GEOM).gain_db
    near_db = link_gain(near, None, src, ue_pos, GEOM).gain_db
    assert far_db < near_db - 5.0


def two_call_gain(coding, baseline, bs_src, ue, geom):
    """link_gain's rule on two received_power calls, each building its own fields."""
    if baseline is None:
        baseline = CodingMatrix.all_zero(geom.shape)
    p_coding = received_power(coding, bs_src, ue, geom)
    p_baseline = received_power(baseline, bs_src, ue, geom)
    floor = 1e-12 * p_coding
    floored = p_baseline < floor
    if floored:
        p_baseline = floor
    if p_baseline == 0.0:
        return 0.0, True
    return 10.0 * math.log10(max(p_coding / p_baseline, 5e-324)), floored


@pytest.mark.parametrize("case", ["far", "profile-over-coding", "near", "floored"])
def test_link_gain_is_two_received_powers(case):
    src, ue = Source.far_field(BS), UE
    coding = quantize_1bit(farfield_phase_profile(BS, UE, GEOM))
    baseline = None
    if case == "profile-over-coding":
        coding, baseline = farfield_phase_profile(BS, UE, GEOM), coding
    elif case == "near":
        bs_pos, ue = (0.5, 2.0, -0.3), (-0.4, 1.5, 0.2)
        src = Source.near_field(bs_pos)
        coding = quantize_1bit(nearfield_phase_profile(bs_pos, ue, GEOM))
    elif case == "floored":
        ue = null_user()
        coding = quantize_1bit(farfield_phase_profile(BS, ue, GEOM))
    res = link_gain(coding, baseline, src, ue, GEOM)
    gain_db, floored = two_call_gain(coding, baseline, src, ue, GEOM)
    assert (res.gain_db.hex(), res.baseline_floored) == (gain_db.hex(), floored)
    assert res.baseline_floored == (case == "floored")


def test_coding_matrix_validation():
    with pytest.raises(ValueError):
        CodingMatrix(states=np.array([[0, 2]]))
    with pytest.raises(ValueError):
        CodingMatrix(states=np.zeros(4))
    # The states keep the values checked: they are a read-only copy.
    given = np.zeros((2, 2))
    coding = CodingMatrix(states=given)
    with pytest.raises(ValueError):
        coding.states[0, 0] = 2
    given[0, 0] = 1
    assert not coding.states.any()


def test_coding_matrix_rejects_complex_states():
    # 0 and 1 with imaginary parts 0 would pass the 0/1 check and warn in the
    # conversion to int8
    with pytest.raises(ValueError, match="^CodingMatrix states must be real, got dtype complex128$"):
        CodingMatrix(states=np.ones((2, 2)) + 0j)
    # in an object array they would pass it and fail the conversion with TypeError
    with pytest.raises(ValueError, match="^CodingMatrix states must be real, got dtype object$"):
        CodingMatrix(states=np.array([[1 + 0j, 1], [1, 1]], dtype=object))


def test_the_amplitude_bound_keeps_a_power_finite_on_the_largest_panel():
    # the largest panel _check_bytes admits; its power tops out at (amplitude*n)**2
    assert (_MAX_AMPLITUDE * (_MAX_BYTES // _POSITION_BYTES)) ** 2 < sys.float_info.max


@pytest.mark.parametrize("bs_src, ue", [
    (Source.far_field(BS, amplitude=_MAX_AMPLITUDE), UE),
    (Source.near_field((0.0, 1e9, 0.0), amplitude=_MAX_AMPLITUDE), (0.0, 1e-9, 0.0)),
    (Source.near_field((0.0, 1e-9, 0.0), amplitude=_MAX_AMPLITUDE), (1e9, 0.5, 0.0)),
], ids=["far", "near-far-bs", "near-near-bs"])
def test_link_gain_is_finite_at_the_bounds_of_its_inputs(bs_src, ue):
    # link_gain gave nan for an amplitude of 1e200 and for a user at 1e170 m
    coding = quantize_1bit(farfield_phase_profile(BS, UE, GEOM))
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        gain = link_gain(coding, None, bs_src, ue, GEOM).gain_db
        power = received_power(coding, bs_src, ue, GEOM)
    assert math.isfinite(gain) and math.isfinite(power) and power > 0


PANEL_1X2 = ArrayGeometry(n_z=1, n_x=2, d_z_m=0.02, d_x_m=0.02, f_c_hz=3_500_000_000)


@pytest.mark.parametrize("amplitude", [0.0, 1e-150, 1e146])
def test_link_gain_does_not_depend_on_the_source_amplitude(amplitude):
    # At 1e-150 the 1x2 coding's power underflowed to 0 and the baseline's
    # (4e-300) did not, so math.log10(0) raised; at 0 both powers were 0 and
    # the gain read 0.0 dB, flagged as floored.
    fixture = quantize_1bit(farfield_phase_profile(BS, UE, GEOM))
    for coding, src, ue, geom in [
        (CodingMatrix(states=[[0, 1]]), Source.far_field(BS), BS, PANEL_1X2),
        (fixture, Source.far_field(BS), UE, GEOM),
        (fixture, Source.near_field((0.5, 2.0, -0.3)), (-0.4, 1.5, 0.2), GEOM),
    ]:
        want = link_gain(coding, None, src, ue, geom)
        assert link_gain(coding, None, replace(src, amplitude=amplitude), ue, geom) == want
    on_1x2 = link_gain(CodingMatrix(states=[[0, 1]]), None, Source.far_field(BS), BS, PANEL_1X2)
    assert on_1x2.gain_db == pytest.approx(-324.26, abs=0.01) and not on_1x2.baseline_floored


def test_link_gain_of_a_coding_whose_terms_cancel_exactly():
    # Both broadside fields are exactly 1 on every element, and
    # 1 + 1 + exp(i*pi) + exp(-i*pi) is exactly 0.
    panel = ArrayGeometry(n_z=1, n_x=4, d_z_m=0.02, d_x_m=0.02, f_c_hz=3_500_000_000)
    cancelling = PhaseProfile(values=[[0.0, 0.0, math.pi, -math.pi]])
    src = Source.far_field(BS)
    assert received_power(cancelling, src, BS, panel) == 0.0
    # the ratio 0 is taken at the least positive float, 5e-324
    assert link_gain(cancelling, None, src, BS, panel) == LinkGainResult(
        10.0 * math.log10(5e-324), False)
    assert link_gain(cancelling, cancelling, src, BS, panel) == LinkGainResult(0.0, True)


ANGLES = st.builds(AngularLocation, ANGLE, ANGLE)
# A point in front of the panel, 1e-9 to 1e9 m from its centre.
POINTS = st.builds(lambda exponent, u: tuple(10.0 ** exponent * unit_direction(u)),
                   st.floats(-9.0, 9.0), ANGLES).filter(
                       lambda p: 1e-9 <= math.hypot(*p) <= 1e9)
SOURCE_TERMS = {"amplitude": st.floats(0.0, _MAX_AMPLITUDE),
                "phase_rad": st.floats(allow_nan=False, allow_infinity=False)}
SOURCES = (st.builds(Source.far_field, ANGLES, **SOURCE_TERMS)
           | st.builds(Source.near_field, POINTS, **SOURCE_TERMS))


@given(shape=st.tuples(st.integers(1, 12), st.integers(1, 12)),
       pitches=st.tuples(*[st.sampled_from((0.01, 0.02, 0.043))] * 2),
       bs_src=SOURCES, ue=st.one_of(ANGLES, POINTS), bits=st.integers(0, 2**144 - 1),
       theta=st.lists(ANGLE, min_size=1, max_size=4),
       phi=st.lists(ANGLE, min_size=1, max_size=4))
@example(shape=(1, 2), pitches=(0.02, 0.02), bs_src=Source.far_field(BS, amplitude=1e-150),
         ue=BS, bits=0b10, theta=[0.0], phi=[0.0])
# a source in the plane z = 0 gives both rows one field: the coding's power is exactly 0
@example(shape=(2, 2), pitches=(0.01, 0.02),
         bs_src=Source.near_field(unit_direction(AngularLocation(0.0, -41.0))),
         ue=AngularLocation(0.0, -23.0), bits=0b1001, theta=[0.0], phi=[0.0])
@settings(max_examples=300, deadline=None)
def test_powers_and_gains_are_finite_for_every_input_the_types_accept(
        shape, pitches, bs_src, ue, bits, theta, phi):
    # Underflow is left out: a tiny amplitude's power underflows by design.
    geom = ArrayGeometry(*shape, *pitches, f_c_hz=3_500_000_000)
    states = [(bits >> k) & 1 for k in range(geom.n_z * geom.n_x)]
    coding = CodingMatrix(states=np.reshape(states, shape))
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        power = received_power(coding, bs_src, ue, geom)
        gain = link_gain(coding, None, bs_src, ue, geom).gain_db
        beam = pattern(coding, bs_src, geom, theta, phi).power
    assert math.isfinite(power) and math.isfinite(gain) and np.isfinite(beam).all()
