"""Angle <-> spatial-frequency mapping and array bookkeeping."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holoris.errors import InfeasibleFrequency
from holoris.localization import candidate_frequencies
from holoris.geometry import (
    AngularLocation,
    ArrayGeometry,
    SpatialFrequencyPair,
    angles_from_frequencies,
    _is_int,
    angular_distance_deg,
    default_geometry,
    element_positions,
    position_at,
    spatial_frequencies,
    unit_direction,
    wrap_degrees,
)

# Default panel: 32x32, 2 cm pitch, 3.5 GHz.
LAMBDA_M = 0.085654988          # 299792458 / 3.5e9, exact in binary64
D_OVER_LAMBDA = 0.23349486663870644
KAPPA = 1.4670915153661772      # 2*pi*d/lambda, rad per element per unit sine


def test_default_geometry_constants():
    geom = default_geometry()
    assert geom.shape == (32, 32)
    assert geom.wavelength_m == pytest.approx(LAMBDA_M, rel=0, abs=0)
    assert geom.d_x_m / geom.wavelength_m == pytest.approx(D_OVER_LAMBDA, rel=1e-15)


def test_geometry_validation():
    with pytest.raises(ValueError):
        ArrayGeometry(n_z=0, n_x=32, d_z_m=0.02, d_x_m=0.02, f_c_hz=3_500_000_000)
    with pytest.raises(ValueError):
        ArrayGeometry(n_z=32, n_x=32, d_z_m=-0.02, d_x_m=0.02, f_c_hz=3_500_000_000)
    with pytest.raises(ValueError):
        ArrayGeometry(n_z=32, n_x=32, d_z_m=0.02, d_x_m=0.02, f_c_hz=0)


@pytest.mark.parametrize("value, want", [
    (3, True),
    (10**400, True),         # Python integers have no width
    (np.int64(3), True),
    (np.uint8(3), True),
    (True, False),           # bool is an int subclass, but never a count
    (False, False),
    (np.bool_(True), False),
    (3.0, False),
    ("3", False),
])
def test_is_int(value, want):
    assert _is_int(value) is want


@pytest.mark.parametrize("field, bad", [
    ("f_c_hz", 3.5e9),       # the hologram file could not be read back
    ("f_c_hz", True),        # would give a 299792458 m wavelength
    ("n_z", 32.0),
    ("n_x", False),
    ("n_x", "32"),
])
def test_geometry_rejects_non_integer_counts_and_carrier(field, bad):
    kwargs = dict(n_z=32, n_x=32, d_z_m=0.02, d_x_m=0.02, f_c_hz=3_500_000_000)
    kwargs[field] = bad
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        ArrayGeometry(**kwargs)
    kwargs[field] = np.int64(4)     # numpy integers are integers
    assert getattr(ArrayGeometry(**kwargs), field) == 4


@pytest.mark.parametrize("field, bad, message", [
    # the hologram file reader reads the carrier back as a finite number
    ("f_c_hz", 10**400, "f_c_hz is too large to convert to a float"),
    # past the byte budget at element_positions' 24 bytes an element
    ("n_z", 10**400, r"n_z\*n_x must be at most 2147483648 bytes at 24 bytes each"),
])
def test_geometry_rejects_carrier_beyond_float_and_size_beyond_numpy(field, bad, message):
    kwargs = dict(n_z=32, n_x=32, d_z_m=0.02, d_x_m=0.02, f_c_hz=3_500_000_000)
    kwargs[field] = bad
    with pytest.raises(ValueError, match=message):
        ArrayGeometry(**kwargs)


def test_geometry_is_held_to_the_byte_budget(monkeypatch):
    # a 32x32 panel takes 32*32*24 bytes in element_positions, and its two
    # axis vectors 8 bytes an axis point
    monkeypatch.setattr("holoris.geometry._MAX_BYTES", 32 * 32 * 24 + 8 * 64)
    assert default_geometry().shape == (32, 32)
    monkeypatch.setattr("holoris.geometry._MAX_BYTES", 32 * 32 * 24 + 8 * 64 - 1)
    with pytest.raises(ValueError,
                       match=r"^n_z\*n_x must be at most 25087 bytes at 24 bytes each$"):
        default_geometry()


@pytest.mark.parametrize("field", ["d_z_m", "d_x_m"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_geometry_rejects_non_finite_pitch(field, bad):
    # the hologram file reader rejects such a header, so the writer must not get one
    kwargs = dict(n_z=32, n_x=32, d_z_m=0.02, d_x_m=0.02, f_c_hz=3_500_000_000)
    kwargs[field] = bad
    with pytest.raises(ValueError, match=f"{field} must be finite and > 0"):
        ArrayGeometry(**kwargs)


def test_angular_location_open_interval():
    AngularLocation(89.9, -89.9)
    for theta, phi in ((90.0, 0.0), (-90.0, 0.0), (0.0, 90.0), (0.0, -90.0)):
        with pytest.raises(ValueError):
            AngularLocation(theta, phi)


def test_element_positions_centered():
    """Element (m, n) sits at ((n - (N_x+1)/2) d_x, 0, (m - (N_z+1)/2) d_z), 1-based."""
    geom = default_geometry()
    pos = element_positions(geom)
    assert pos.shape == (32, 32, 3)
    assert np.allclose(pos.sum(axis=(0, 1)), 0.0)               # symmetric about origin
    assert pos[0, 0, 0] == pytest.approx(-(32 - 1) / 2 * 0.02)  # leftmost column
    assert np.all(pos[:, :, 1] == 0.0)                          # panel lies in y = 0
    # the 1x1 panel degenerates to a single element at the origin
    tiny = ArrayGeometry(n_z=1, n_x=1, d_z_m=0.02, d_x_m=0.02, f_c_hz=3_500_000_000)
    assert np.allclose(element_positions(tiny), 0.0)


def test_position_at_scales_unit_direction():
    loc = AngularLocation(-25.0, 40.0)
    p = position_at(loc, 3.5)
    assert np.allclose(p, 3.5 * unit_direction(loc))
    with pytest.raises(ValueError):
        position_at(loc, 0.0)
    for bad in (math.nan, math.inf):  # `<= 0` is false for both
        with pytest.raises(ValueError, match="finite and > 0"):
            position_at(loc, bad)


def test_unit_direction_components():
    # (cos(theta) sin(phi), cos(theta) cos(phi), -sin(theta)); broadside is +y
    assert np.allclose(unit_direction(AngularLocation(0.0, 0.0)), (0.0, 1.0, 0.0))
    u = unit_direction(AngularLocation(30.0, 45.0))
    assert u[0] == pytest.approx(math.cos(math.radians(30)) * math.sin(math.radians(45)))
    assert u[2] == pytest.approx(-math.sin(math.radians(30)))
    assert np.linalg.norm(u) == pytest.approx(1.0, rel=1e-15)


def test_spatial_frequency_signs_and_values():
    geom = default_geometry()
    w = spatial_frequencies(AngularLocation(0.0, 30.0), geom)
    assert w.omega_x == pytest.approx(KAPPA / 2.0, rel=1e-15)   # cos0 * sin30 = 1/2
    assert w.omega_z == 0.0
    # positive elevation tilts the z-frequency negative, positive azimuth the
    # x-frequency positive
    w = spatial_frequencies(AngularLocation(20.0, 10.0), geom)
    assert w.omega_z < 0.0 and w.omega_x > 0.0
    assert w.omega_z == pytest.approx(-KAPPA * math.sin(math.radians(20)), rel=1e-14)


def test_inverse_mapping_rejects_evanescent():
    geom = default_geometry()
    with pytest.raises(InfeasibleFrequency):
        angles_from_frequencies(SpatialFrequencyPair(KAPPA * 1.01, 0.0), geom)
    with pytest.raises(InfeasibleFrequency):
        angles_from_frequencies(SpatialFrequencyPair(0.0, -KAPPA * 1.5), geom)
    # |u_z| = 1 exactly sits on the array plane: not a usable direction either,
    # with or without an azimuth component (cos(asin(+-1)) is 6.1e-17, not 0)
    for omega_z in (-KAPPA, KAPPA):
        for omega_x in (0.0, 1e-20, 0.5):
            with pytest.raises(InfeasibleFrequency):
                angles_from_frequencies(SpatialFrequencyPair(omega_z, omega_x), geom)


@pytest.mark.parametrize("omega_z, omega_x", [
    (math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0), (0.0, -math.inf)])
def test_spatial_frequency_pair_is_finite(omega_z, omega_x):
    with pytest.raises(ValueError, match="spatial frequencies must be finite"):
        SpatialFrequencyPair(omega_z, omega_x)


def test_non_finite_frequencies_reach_neither_inverse_map_nor_candidates():
    # a NaN pair used to read as "on the array plane", an infinite one to
    # overflow in regulate; neither pair is built now
    with pytest.raises(ValueError, match="must be finite"):
        angles_from_frequencies(SpatialFrequencyPair(math.nan, 0.0), default_geometry())
    with pytest.raises(ValueError, match="must be finite"):
        candidate_frequencies(SpatialFrequencyPair(math.inf, 0.0), (2, 3), (64, 64))


@settings(max_examples=300, deadline=None)
@given(
    theta=st.floats(-80.0, 80.0),
    phi=st.floats(-80.0, 80.0),
    d_over_lambda=st.floats(0.1, 0.5),
)
def test_angle_frequency_round_trip(theta, phi, d_over_lambda):
    """angles -> frequencies -> angles is the identity to 1e-9 degrees."""
    lam = 299792458.0 / 3.5e9
    geom = ArrayGeometry(
        n_z=16, n_x=16, d_z_m=d_over_lambda * lam, d_x_m=d_over_lambda * lam,
        f_c_hz=3_500_000_000,
    )
    truth = AngularLocation(theta, phi)
    back = angles_from_frequencies(spatial_frequencies(truth, geom), geom)
    assert abs(back.theta_deg - theta) < 1e-9
    assert abs(back.phi_deg - phi) < 1e-9


@settings(max_examples=300, deadline=None)
@given(x=st.floats(-1e6, 1e6))
def test_wrap_degrees_range_and_congruence(x):
    w = wrap_degrees(x)
    assert -180.0 <= w < 180.0
    # congruent modulo 360 up to accumulated rounding
    assert abs((x - w) / 360.0 - round((x - w) / 360.0)) < 1e-6


def test_wrap_degrees_examples():
    assert wrap_degrees(0.0) == 0.0
    assert wrap_degrees(180.0) == -180.0
    assert wrap_degrees(-180.0) == -180.0
    assert wrap_degrees(350.0) == -10.0
    assert wrap_degrees(-350.0) == 10.0


def test_angular_distance():
    a = AngularLocation(10.0, 20.0)
    b = AngularLocation(13.0, 16.0)
    assert angular_distance_deg(a, b) == pytest.approx(5.0)
    assert angular_distance_deg(a, a) == 0.0
