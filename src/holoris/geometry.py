"""Array geometry and the angle <-> spatial-frequency maps.

The panel lies in the xOz plane with its phase center at the origin and
boresight along +y.  Angles are degrees at every public boundary; spatial
frequencies are radians per element index.  The operational sign convention
is fixed by the forward map:

    omega_x = 2*pi*(d_x/lambda) * cos(theta) * sin(phi)
    omega_z = -2*pi*(d_z/lambda) * sin(theta)

so increasing theta decreases omega_z and increasing phi (at theta = 0)
increases omega_x.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleFrequency

SPEED_OF_LIGHT = 299792458.0


def _is_int(value) -> bool:
    """True for Python and numpy integers, False for bool."""
    # The exact type test spares the common case the abstract-class check.
    return type(value) is int or (isinstance(value, numbers.Integral)
                                  and not isinstance(value, bool))


def _check_integer(name: str, value, minimum: int) -> None:
    """Raise ValueError unless value is an integer >= minimum that converts to a float."""
    if not (_is_int(value) and value >= minimum):
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    try:
        float(value)
    except OverflowError:
        raise ValueError(f"{name} is too large to convert to a float") from None


# The most bytes one computation's work arrays may take, so that a size memory
# cannot hold is refused before anything is allocated.
_MAX_BYTES = 2**31
_POSITION_BYTES = 3 * 8  # element_positions' float64 (n_z, n_x, 3): a panel's largest array
_AXIS_BYTES = 8  # element_positions' float64 z (n_z,) and x (n_x,) beside it, an axis point


def _check_bytes(what: str, count, item_bytes: int, extra_bytes=0) -> None:
    """The one size rule: ValueError unless count items of item_bytes bytes, and
    extra_bytes more, fit _MAX_BYTES."""
    if count * item_bytes + extra_bytes > _MAX_BYTES:
        raise ValueError(f"{what} must be at most {_MAX_BYTES} bytes at {item_bytes} bytes each")


_TIE_RTOL = 1e-12  # values this close to the maximum tie, so rounding never picks one


def _first_tied(a: np.ndarray, top) -> np.ndarray:
    """The first index along a's last axis whose value is >= top*(1 - _TIE_RTOL)."""
    return np.argmax(a >= top * (1.0 - _TIE_RTOL), axis=-1)


def _real(name: str, value) -> np.ndarray:
    """value as an array; ValueError naming it if the array is complex, or of object dtype
    holding a complex value, which a conversion to float would drop or raise TypeError on."""
    array = np.asarray(value)
    if np.iscomplexobj(array) or (array.dtype == object and any(
            isinstance(v, (complex, np.complexfloating)) for v in array.flat)):
        raise ValueError(f"{name} must be real, got dtype {array.dtype}")
    return array


@dataclass(frozen=True)
class AngularLocation:
    """Direction of a terminal as seen from the panel center.

    theta_deg: elevation angle in degrees, |theta| < 90.
    phi_deg: azimuth angle in degrees, |phi| < 90.
    """

    theta_deg: float
    phi_deg: float

    def __post_init__(self):
        if not (abs(self.theta_deg) < 90.0 and abs(self.phi_deg) < 90.0):
            raise ValueError(
                f"angles must satisfy |theta|, |phi| < 90 deg, got "
                f"({self.theta_deg}, {self.phi_deg})"
            )


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform rectangular detector/reflector panel.

    n_z rows spaced d_z_m apart along z, n_x columns spaced d_x_m along x.
    The carrier f_c_hz fixes the wavelength used by every phase computation.
    n_z, n_x and f_c_hz are integers >= 1 that convert to a float, with
    n_z*n_x elements held to _check_bytes; the pitches are finite and > 0.
    """

    n_z: int
    n_x: int
    d_z_m: float
    d_x_m: float
    f_c_hz: int

    def __post_init__(self):
        for name in ("n_z", "n_x"):  # not _check_integer: a huge count fails the size bound
            value = getattr(self, name)
            if not (_is_int(value) and value >= 1):
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        _check_bytes("n_z*n_x", self.n_z * self.n_x, _POSITION_BYTES,
                     _AXIS_BYTES * (self.n_z + self.n_x))
        _check_integer("f_c_hz", self.f_c_hz, 1)
        for name in ("d_z_m", "d_x_m"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / self.f_c_hz

    @property
    def wavenumber(self) -> float:
        """Free-space wavenumber k0 = 2*pi/lambda in rad/m."""
        return 2.0 * math.pi / self.wavelength_m

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_z, self.n_x)


@dataclass(frozen=True)
class SpatialFrequencyPair:
    """Per-index phase increments (radians/sample) along z and x, both finite."""

    omega_z: float
    omega_x: float

    def __post_init__(self):
        if not (math.isfinite(self.omega_z) and math.isfinite(self.omega_x)):
            raise ValueError(f"spatial frequencies must be finite, got "
                             f"({self.omega_z!r}, {self.omega_x!r})")


def default_geometry() -> ArrayGeometry:
    """32x32 panel, 0.02 m pitch, 3.5 GHz carrier."""
    return ArrayGeometry(n_z=32, n_x=32, d_z_m=0.02, d_x_m=0.02, f_c_hz=3_500_000_000)


def element_positions(geom: ArrayGeometry) -> np.ndarray:
    """Cartesian element centers, shape (n_z, n_x, 3).

    Element (m, n) in 1-based indexing sits at
    ((n - (n_x+1)/2) * d_x, 0, (m - (n_z+1)/2) * d_z), i.e. the panel is
    centered on the origin for odd and even counts alike.
    """
    z = (np.arange(1, geom.n_z + 1, dtype=float) - (geom.n_z + 1) / 2.0) * geom.d_z_m
    x = (np.arange(1, geom.n_x + 1, dtype=float) - (geom.n_x + 1) / 2.0) * geom.d_x_m
    pos = np.zeros((geom.n_z, geom.n_x, 3))
    pos[:, :, 0] = x[np.newaxis, :]
    pos[:, :, 2] = z[:, np.newaxis]
    return pos


def unit_direction(loc: AngularLocation) -> np.ndarray:
    """Unit vector from the panel center toward the terminal.

    Components follow the operational sign convention of the forward map:
    u = (cos(theta)sin(phi), cos(theta)cos(phi), -sin(theta)).
    """
    th = math.radians(loc.theta_deg)
    ph = math.radians(loc.phi_deg)
    return np.array(
        [math.cos(th) * math.sin(ph), math.cos(th) * math.cos(ph), -math.sin(th)]
    )


def position_at(loc: AngularLocation, range_m: float) -> np.ndarray:
    """3D point at the given range along the direction of ``loc``."""
    if not 0.0 < range_m < math.inf:
        raise ValueError(f"range must be finite and > 0, got {range_m!r}")
    return range_m * unit_direction(loc)


def spatial_frequencies(loc: AngularLocation, geom: ArrayGeometry) -> SpatialFrequencyPair:
    """Forward map from arrival angles to per-index phase increments."""
    lam = geom.wavelength_m
    th = math.radians(loc.theta_deg)
    ph = math.radians(loc.phi_deg)
    omega_x = 2.0 * math.pi * (geom.d_x_m / lam) * math.cos(th) * math.sin(ph)
    omega_z = -2.0 * math.pi * (geom.d_z_m / lam) * math.sin(th)
    return SpatialFrequencyPair(omega_z=omega_z, omega_x=omega_x)


def _frequency_grid(theta_deg, phi_deg, geom: ArrayGeometry) -> tuple:
    """spatial_frequencies on a grid of theta_deg (T,) by phi_deg (P,), up to
    rounding: (omega_z of shape (T,), omega_x of shape (T, P))."""
    lam = geom.wavelength_m
    th = np.radians(theta_deg)
    ph = np.radians(phi_deg)
    omega_z = -(2.0 * math.pi * geom.d_z_m / lam) * np.sin(th)
    omega_x = (2.0 * math.pi * geom.d_x_m / lam) * np.cos(th)[:, np.newaxis] * np.sin(ph)
    return omega_z, omega_x


def angles_from_frequencies(
    freqs: SpatialFrequencyPair, geom: ArrayGeometry
) -> AngularLocation:
    """Inverse map from phase increments to arrival angles.

    Elevation first, then azimuth using the recovered elevation:

        theta = -asin(omega_z * lambda / (2*pi*d_z))
        phi   =  asin(omega_x * lambda / (2*pi*d_x*cos(theta)))

    Raises InfeasibleFrequency when the pair falls outside the
    propagating-wave disk (either asin argument leaves [-1, 1]).
    """
    lam = geom.wavelength_m
    u_z = freqs.omega_z * lam / (2.0 * math.pi * geom.d_z_m)
    if abs(u_z) > 1.0:
        raise InfeasibleFrequency(
            f"omega_z={freqs.omega_z:.6g} maps to |sin(theta)|={abs(u_z):.6g} > 1"
        )
    th = -math.asin(u_z)
    u_x = freqs.omega_x * lam / (2.0 * math.pi * geom.d_x_m)
    sin_ph = u_x / math.cos(th)  # cos(asin(+-1)) is 6.1e-17, never 0
    if abs(sin_ph) > 1.0:
        raise InfeasibleFrequency(
            f"omega pair ({freqs.omega_z:.6g}, {freqs.omega_x:.6g}) is evanescent: "
            f"|sin(phi)|={abs(sin_ph):.6g} > 1"
        )
    try:
        return AngularLocation(
            theta_deg=math.degrees(th), phi_deg=math.degrees(math.asin(sin_ph))
        )
    except ValueError:
        # exactly grazing (|sin| == 1): on the propagating boundary, but the
        # angle domain is the open interval
        raise InfeasibleFrequency(
            "direction lies exactly on the array plane"
        ) from None


def wrap_degrees(x: float) -> float:
    """Wrap an angle difference into [-180, 180)."""
    return (x + 180.0) % 360.0 - 180.0


def angular_distance_deg(a: AngularLocation, b: AngularLocation) -> float:
    """Euclidean distance between two directions in wrapped degrees."""
    return math.hypot(
        wrap_degrees(a.theta_deg - b.theta_deg), wrap_degrees(a.phi_deg - b.phi_deg)
    )
