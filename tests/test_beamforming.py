"""Phase profiles, 1-bit quantization, and reflected link power."""

import math

import numpy as np
import pytest

from holoris.errors import FileFormatError
from holoris.geometry import (
    AngularLocation,
    ArrayGeometry,
    default_geometry,
    element_positions,
    unit_direction,
)
from holoris.beamforming import (
    CodingMatrix,
    PhaseProfile,
    farfield_phase_profile,
    link_gain,
    nearfield_phase_profile,
    pattern,
    quantize_1bit,
    read_coding_file,
    received_power,
    write_coding_file,
)
from holoris.wavefield import Source

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


def test_baseline_floor_flag():
    # an on-bin user direction sits in an exact null of the all-zero panel
    kappa = 2.0 * math.pi * GEOM.d_x_m / GEOM.wavelength_m
    sin_phi = (2.0 * math.pi * 4 / 32) / kappa
    ue = AngularLocation(0.0, math.degrees(math.asin(sin_phi)))
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


@pytest.mark.parametrize("lineno, key, bad", [
    pytest.param(2, "n_x", "abc", id="2-n_x"),
    pytest.param(3, "n_z", "abc", id="3-n_z"),
    pytest.param(2, "n_x", "-2", id="2-n_x-negative"),
    pytest.param(3, "n_z", "0", id="3-n_z-zero"),
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


@pytest.mark.parametrize("theta_grid", [np.arange(-40.0, 41.0, 10.0), [12.5]])
def test_pattern_matches_per_element_field_sum(theta_grid):
    bs = AngularLocation(-8.0, 15.0)
    phi_grid = np.arange(-60.0, 61.0, 7.5)
    rng = np.random.default_rng(5)
    phases = rng.uniform(-math.pi, math.pi, PANEL_5X7.shape)
    states = rng.integers(0, 2, PANEL_5X7.shape)
    for coding, factor in (
        (CodingMatrix(states=states), np.exp(1j * math.pi * states)),
        (PhaseProfile(values=phases), np.exp(1j * phases)),
    ):
        res = pattern(coding, Source.far_field(bs), PANEL_5X7, theta_grid, phi_grid)
        own = brute_force_pattern(factor, bs, PANEL_5X7, theta_grid, phi_grid)
        assert res.power.shape == (len(theta_grid), len(phi_grid))
        assert np.max(np.abs(res.power - own)) <= 1e-12 * np.max(own)
        i, j = np.unravel_index(int(np.argmax(own)), own.shape)
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


def test_coding_matrix_validation():
    with pytest.raises(ValueError):
        CodingMatrix(states=np.array([[0, 2]]))
    with pytest.raises(ValueError):
        CodingMatrix(states=np.zeros(4))
