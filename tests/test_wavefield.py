"""Hologram synthesis against a per-element brute-force field sum."""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from holoris import wavefield
from holoris.errors import DegenerateInterference, FileFormatError
from holoris.experiments import ExperimentConfig, _placement_generators
from holoris.geometry import (
    AngularLocation,
    ArrayGeometry,
    _check_bytes,
    default_geometry,
    element_positions,
    spatial_frequencies,
)
from holoris.localization import _check_spectral_settings
from holoris.wavefield import (
    DetectorModel,
    Hologram,
    Source,
    complex_field_at_array,
    read_hologram_csv,
    synthesize_hologram,
    synthesize_trials,
    write_hologram_csv,
)

GEOM = default_geometry()


def brute_force_intensity(sources, geom):
    """Independent oracle: sum complex element fields source by source.

    Far-field source: A * exp(i(phase + m*omega_z + n*omega_x)) with
    0-based element indices; near-field: spherical wave
    A * exp(i(phase - k0*r)) / max(r/r_ref, 1) evaluated per element.
    """
    k0 = 2.0 * math.pi / geom.wavelength_m
    pos = element_positions(geom)
    total = np.zeros(geom.shape, dtype=complex)
    for src in sources:
        if src.kind == "far_field":
            w = spatial_frequencies(src.angles, geom)
            m = np.arange(geom.n_z)[:, None]
            n = np.arange(geom.n_x)[None, :]
            field = src.amplitude * np.exp(
                1j * (src.phase_rad + m * w.omega_z + n * w.omega_x)
            )
        else:
            r = np.linalg.norm(pos - src.position, axis=2)
            r_ref = float(np.linalg.norm(src.position))
            field = (
                src.amplitude
                * np.exp(1j * (src.phase_rad - k0 * r))
                / np.maximum(r / r_ref, 1.0)
            )
        total += field
    return np.abs(total) ** 2


def test_two_wave_interference_matches_brute_force():
    rng = np.random.default_rng(11)
    for _ in range(20):
        sources = [
            Source.far_field(
                AngularLocation(rng.uniform(-60, 60), rng.uniform(-60, 60)),
                amplitude=rng.uniform(0.2, 2.0),
                phase_rad=rng.uniform(-math.pi, math.pi),
            )
            for _ in range(2)
        ]
        holo = synthesize_hologram(sources, GEOM)[0]
        assert np.allclose(holo.values, brute_force_intensity(sources, GEOM),
                           rtol=1e-12, atol=1e-12)


def test_near_field_matches_brute_force():
    sources = [
        Source.far_field(AngularLocation(0.0, -20.0)),
        Source.near_field(position=(0.4, 2.5, -0.3), amplitude=1.3, phase_rad=0.7),
    ]
    holo = synthesize_hologram(sources, GEOM)[0]
    assert np.allclose(holo.values, brute_force_intensity(sources, GEOM),
                       rtol=1e-12, atol=1e-12)


def test_equal_broadside_pair_is_constant_four():
    src = Source.far_field(AngularLocation(0.0, 0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateInterference)
        holo = synthesize_hologram([src, src], GEOM)[0]
    assert np.allclose(holo.values, 4.0)
    # a pi phase offset cancels the pair element by element
    anti = Source.far_field(AngularLocation(0.0, 0.0), phase_rad=math.pi)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateInterference)
        holo = synthesize_hologram([src, anti], GEOM)[0]
    assert np.allclose(holo.values, 0.0, atol=1e-25)


def test_single_source_carries_no_fringes():
    with pytest.warns(DegenerateInterference):
        holo = synthesize_hologram([Source.far_field(AngularLocation(17.0, -42.0))], GEOM)[0]
    assert np.allclose(holo.values, 1.0)


def test_degenerate_pair_warns():
    src = Source.far_field(AngularLocation(10.0, 10.0))
    with pytest.warns(DegenerateInterference) as caught:
        synthesize_hologram([src, src], GEOM)
    # synthesize_trials warns at its caller's frame, here synthesize_hologram's
    assert caught[0].filename == synthesize_hologram.__code__.co_filename
    with pytest.warns(DegenerateInterference) as caught:
        synthesize_trials([src, src], GEOM, None, [0])
    assert caught[0].filename == __file__


def test_fringe_frequency_lands_on_expected_bin():
    """A bin-aligned pair concentrates off-DC energy on the difference bin."""
    bs = AngularLocation(0.0, 0.0)
    k = 4  # omega_x difference of 2*pi*k/32
    w_ue = 2.0 * math.pi * k / 32
    sin_phi = w_ue / (2.0 * math.pi * GEOM.d_x_m / GEOM.wavelength_m)
    ue = AngularLocation(0.0, math.degrees(math.asin(sin_phi)))
    holo = synthesize_hologram([Source.far_field(bs), Source.far_field(ue)], GEOM)[0]
    spec = np.fft.fft2(holo.values)
    mags = np.abs(spec)
    mags[0, 0] = 0.0
    assert np.unravel_index(np.argmax(mags), mags.shape) == (0, k)


def test_detector_floor_ceiling_and_agc():
    bs = Source.far_field(AngularLocation(0.0, 0.0))
    ue = Source.far_field(AngularLocation(5.0, 25.0))
    det = DetectorModel(floor=1.0, ceiling=3.0)
    holo = synthesize_hologram([bs, ue], GEOM, detector=det)[0]
    assert holo.values.min() >= 1.0 and holo.values.max() <= 3.0
    # AGC rescales onto [0, ceiling] without moving the intensity argmax
    raw = synthesize_hologram([bs, ue], GEOM)[0]
    agc = synthesize_hologram(
        [bs, ue], GEOM, detector=DetectorModel(ceiling=100.0, agc_enabled=True)
    )[0]
    assert agc.values.max() == pytest.approx(100.0)
    assert np.argmax(agc.values) == np.argmax(raw.values)


def test_noise_is_seed_deterministic():
    det = DetectorModel(noise_std=0.5)
    srcs = [Source.far_field(AngularLocation(0.0, 0.0)),
            Source.far_field(AngularLocation(3.0, 33.0))]
    a = synthesize_hologram(srcs, GEOM, detector=det, seed=123)[0]
    b = synthesize_hologram(srcs, GEOM, detector=det, seed=123)[0]
    c = synthesize_hologram(srcs, GEOM, detector=det, seed=124)[0]
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def reference_capture(sources, geom, detector, seed):
    """One capture by the per-capture detector loop: a fresh generator, the
    jitter scalar drawn before the noise matrix, the jitter applied to the
    last source only when non-zero, AGC on the capture's own maximum."""
    rng = np.random.default_rng(seed)
    jitter = 0.0
    if detector.phase_jitter_std > 0:
        jitter = detector.phase_jitter_std * rng.standard_normal()
    total = np.zeros(geom.shape, dtype=complex)
    for i, src in enumerate(sources):
        field = complex_field_at_array(src, geom)
        if i == len(sources) - 1 and jitter != 0.0:
            field = field * np.exp(1j * jitter)
        total += field
    intensity = np.abs(total) ** 2
    if detector.noise_std > 0:
        intensity = intensity + detector.noise_std * rng.standard_normal(geom.shape)
    intensity = np.clip(intensity, detector.floor, detector.ceiling)
    if detector.agc_enabled and intensity.max() > 0:
        intensity = intensity * (detector.ceiling / intensity.max())
    return intensity


@pytest.mark.parametrize("detector", [
    pytest.param(DetectorModel(), id="ideal"),
    pytest.param(DetectorModel(noise_std=0.8), id="noise"),
    pytest.param(DetectorModel(phase_jitter_std=0.3), id="jitter"),
    pytest.param(DetectorModel(noise_std=6.9, phase_jitter_std=0.2), id="noise-jitter"),
    pytest.param(DetectorModel(noise_std=0.5, floor=0.2, ceiling=3.0, agc_enabled=True,
                               phase_jitter_std=0.1), id="agc"),
])
@pytest.mark.parametrize("geom", [GEOM, ArrayGeometry(n_z=5, n_x=7, d_z_m=0.02, d_x_m=0.02,
                                                      f_c_hz=3_500_000_000)],
                         ids=["32x32", "5x7"])
def test_synthesize_trials_matches_synthesize_hologram(detector, geom):
    """Each capture of the stack is bit-identical to a one-seed synthesis
    and to the per-capture reference loop."""
    srcs = [Source.far_field(AngularLocation(-15.0, 0.0)),
            Source.far_field(AngularLocation(7.0, 31.0), amplitude=0.7),
            Source.near_field((0.2, 1.5, -0.1), phase_rad=0.4)]
    seeds = [0, 1, 7, 2**40 + 3, 1]
    stack = synthesize_trials(srcs, geom, detector, seeds)
    assert stack.shape == (len(seeds), *geom.shape)
    for capture, seed in zip(stack, seeds):
        one = synthesize_hologram(srcs, geom, detector=detector, seed=seed)[0]
        assert capture.tobytes() == one.values.tobytes()
        assert capture.tobytes() == reference_capture(srcs, geom, detector, seed).tobytes()


def loop_capture_stack(tag_sources, geom, detector, rngs):
    """synthesize_trials' stack as a loop over the captures: the jitter applied to
    the last field only when non-zero, each capture added into its own row,
    AGC scaling only the captures whose maximum is positive."""
    fields = [complex_field_at_array(s, geom) for s in tag_sources]
    head = np.zeros(geom.shape, dtype=complex)
    for fld in fields[:-1]:
        head += fld
    jitters = [
        detector.phase_jitter_std * rng.standard_normal()
        if detector.phase_jitter_std > 0 else 0.0
        for rng in rngs
    ]
    total = np.empty((len(rngs), *geom.shape), dtype=complex)
    for t, jitter in enumerate(jitters):
        last = fields[-1] * np.exp(1j * jitter) if jitter != 0.0 else fields[-1]
        np.add(head, last, out=total[t])
    intensity = np.abs(total)
    np.square(intensity, out=intensity)
    if detector.noise_std > 0:
        noise = np.empty_like(intensity)
        for rng, out in zip(rngs, noise):
            rng.standard_normal(out=out)
        noise *= detector.noise_std
        intensity += noise
    np.clip(intensity, detector.floor, detector.ceiling, out=intensity)
    if detector.agc_enabled:
        peaks = intensity.max(axis=(1, 2))
        for t in np.flatnonzero(peaks > 0):
            intensity[t] *= detector.ceiling / peaks[t]
    return intensity


STACK_PANELS = st.sampled_from([GEOM, ArrayGeometry(n_z=5, n_x=7, d_z_m=0.02, d_x_m=0.02,
                                                     f_c_hz=3_500_000_000),
                                ArrayGeometry(n_z=1, n_x=3, d_z_m=0.05, d_x_m=0.01,
                                              f_c_hz=2_400_000_000)])
ANGLES = st.floats(-89.0, 89.0)
AMPLITUDES = st.one_of(st.just(0.0), st.floats(0.1, 3.0))
PHASES = st.floats(-math.pi, math.pi)
STACK_SOURCES = st.one_of(
    st.builds(Source.far_field, st.builds(AngularLocation, ANGLES, ANGLES), AMPLITUDES, PHASES),
    st.builds(Source.near_field, st.tuples(st.floats(-2.0, 2.0), st.floats(0.05, 3.0),
                                           st.floats(-2.0, 2.0)), AMPLITUDES, PHASES),
)


@st.composite
def stack_detectors(draw):
    """Detectors with and without noise and jitter, AGC on and off, each with
    a floor and a ceiling (finite when AGC is on)."""
    floor = draw(st.sampled_from([0.0, 0.3, 2.0]))
    agc = draw(st.booleans())
    ceilings = [floor + 0.5, floor + 8.0] if agc else [floor + 0.5, math.inf]
    return DetectorModel(noise_std=draw(st.sampled_from([0.0, 0.4, 5.0])), floor=floor,
                         ceiling=draw(st.sampled_from(ceilings)), agc_enabled=agc,
                         phase_jitter_std=draw(st.sampled_from([0.0, 0.05, 2.0])))


@given(geom=STACK_PANELS, sources=st.lists(STACK_SOURCES, min_size=1, max_size=4),
       detector=stack_detectors(),
       seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=20))
@settings(max_examples=200, deadline=None)
def test_capture_stack_equals_the_per_capture_loop(geom, sources, detector, seeds):
    """The broadcast stack is bit for bit the per-capture loop, for every
    generator count, with or without jitter, noise and AGC."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateInterference)
        got = synthesize_trials(sources, geom, detector,
                                [np.random.default_rng(s) for s in seeds])
        want = loop_capture_stack(sources, geom, detector,
                                  [np.random.default_rng(s) for s in seeds])
    assert got.shape == (len(seeds), *geom.shape)
    assert np.array_equal(got, want)


def test_capture_stack_agc_leaves_an_all_zero_capture_zero():
    dark = [Source.far_field(AngularLocation(0.0, 0.0), amplitude=0.0),
            Source.far_field(AngularLocation(0.0, 30.0), amplitude=0.0)]
    det = DetectorModel(ceiling=2.0, agc_enabled=True)
    stack = synthesize_trials(dark, GEOM, det, [np.random.default_rng(s) for s in range(3)])
    assert stack.shape == (3, *GEOM.shape) and not stack.any()


def test_synthesize_trials_validation():
    pair = [Source.far_field(AngularLocation(0.0, 0.0)),
            Source.far_field(AngularLocation(0.0, 30.0))]
    other_tag = Source.far_field(AngularLocation(5.0, 5.0), frequency_tag=1)
    with pytest.raises(ValueError, match="one frequency tag"):
        synthesize_trials(pair + [other_tag], GEOM, None, [0])
    assert synthesize_trials(pair, GEOM, None, []).shape == (0, *GEOM.shape)
    with pytest.raises(ValueError, match="source"):
        synthesize_trials([], GEOM, None, [0])


class Unbuilt(Exception):
    """Raised where synthesize_trials starts to build its generators."""


class UnbuiltSeeds:
    """A sequence of n seeds whose generators are never built: iterating it raises."""

    def __init__(self, n: int):
        self.n = n

    def __len__(self):
        return self.n

    def __iter__(self):
        raise Unbuilt


PAIR = [Source.far_field(AngularLocation(0.0, 0.0)), Source.far_field(AngularLocation(0.0, 30.0))]
SYNTHESIS_BYTES = r"^synthesis of n_z\*n_x must be at most "


def test_synthesize_trials_is_held_to_the_byte_budget_before_any_generator(monkeypatch):
    # 10**9 captures of a 32x32 panel would take ~33 TB: 3 fields and 10**9
    # captures of 16 + 32 bytes each per element
    with pytest.raises(ValueError, match=SYNTHESIS_BYTES
                       + "2147483648 bytes at 32000000048 bytes each$"):
        synthesize_trials(PAIR, GEOM, None, UnbuiltSeeds(10**9))
    # a budget of the pair's 3 fields and 4 captures: 32*32*(3*16 + 4*32) bytes
    monkeypatch.setattr("holoris.geometry._MAX_BYTES", 32 * 32 * 176)
    with pytest.raises(Unbuilt):
        synthesize_trials(PAIR, GEOM, None, UnbuiltSeeds(4))
    with pytest.raises(ValueError, match=SYNTHESIS_BYTES + "180224 bytes at 208 bytes each$"):
        synthesize_trials(PAIR, GEOM, None, UnbuiltSeeds(5))
    # 4 sources take two more fields
    with pytest.raises(ValueError, match=SYNTHESIS_BYTES + "180224 bytes at 208 bytes each$"):
        synthesize_trials(PAIR * 2, GEOM, None, UnbuiltSeeds(4))
    # a near field's build, 88 bytes beside the field before it, is freed
    # before the captures are made, so the larger of the two is charged:
    # the build at 1 capture, the pair's 3 fields and 2 captures at 2
    near = [PAIR[0], Source.near_field((0.1, 2.0, 0.3))]
    monkeypatch.setattr("holoris.geometry._MAX_BYTES", 32 * 32 * 104)
    with pytest.raises(Unbuilt):
        synthesize_trials(near, GEOM, None, UnbuiltSeeds(1))
    with pytest.raises(ValueError, match=SYNTHESIS_BYTES + "106496 bytes at 112 bytes each$"):
        synthesize_trials(near, GEOM, None, UnbuiltSeeds(2))
    monkeypatch.setattr("holoris.geometry._MAX_BYTES", 32 * 32 * 104 - 1)
    with pytest.raises(ValueError, match=SYNTHESIS_BYTES + "106495 bytes at 104 bytes each$"):
        synthesize_trials(near, GEOM, None, UnbuiltSeeds(1))


def _synthesis_of(sources, captures: int):
    """synthesize_trials of sources on a noisy detector, so every capture
    holds its noise, as a call on an n x n panel."""
    detector = DetectorModel(noise_std=1.0, phase_jitter_std=0.1)

    def run(n: int) -> None:
        geom = ArrayGeometry(n_z=n, n_x=n, d_z_m=0.02, d_x_m=0.02, f_c_hz=3_500_000_000)
        synthesize_trials(sources, geom, detector, list(range(captures)))
    return run


def _positions(n: int) -> None:
    element_positions(ArrayGeometry(n_z=n, n_x=n, d_z_m=0.02, d_x_m=0.02,
                                    f_c_hz=3_500_000_000))


def _holograms_of_three_tags(n: int) -> None:
    geom = ArrayGeometry(n_z=n, n_x=n, d_z_m=0.02, d_x_m=0.02, f_c_hz=3_500_000_000)
    synthesize_hologram([Source.far_field(source.angles, frequency_tag=tag)
                         for tag in range(3) for source in PAIR],
                        geom, DetectorModel(noise_std=1.0, phase_jitter_std=0.1))


# A far BS and a user 2 m out, in front of every panel the measurement builds.
FAR_NEAR = [PAIR[0], Source.near_field((0.1, 2.0, 0.3))]

# The sized entry points whose byte charge is measured: the module whose
# _check_bytes the call's first size check, its own, goes through, and the
# call on an n x n panel.
CHARGED_CALLS = {
    "synthesize_trials-far-1": ("holoris.wavefield", _synthesis_of(PAIR, 1)),
    "synthesize_trials-far-4": ("holoris.wavefield", _synthesis_of(PAIR, 4)),
    "synthesize_trials-near-1": ("holoris.wavefield", _synthesis_of(FAR_NEAR, 1)),
    "synthesize_trials-near-4": ("holoris.wavefield", _synthesis_of(FAR_NEAR, 4)),
    "element_positions": ("holoris.geometry", _positions),
    "synthesize_hologram-3-tags": ("holoris.wavefield", _holograms_of_three_tags),
}


@pytest.mark.parametrize("case", list(CHARGED_CALLS))
def test_byte_charge_is_the_traced_slope(monkeypatch, traced_peak, case):
    """A sized entry point's charge against tracemalloc's peak over one call,
    on 64x64 and 128x128 panels.

    The rise in the peak from the smaller panel to the larger is at most
    the rise in the charge the size check is given (no undercharge) and at
    least that less 1 byte an element (no overcharge), so fixed overhead
    drops out.  A call on a 16x16 panel first takes the one-time
    allocations of a first call out of the smaller panel's peak, and each
    panel's peak is the least of three calls: a call can find a few small
    objects already free that another allocates (with one call a panel,
    the three-tag synthesize_hologram's rise passed its charge by up to 52
    bytes in two of eight runs of the suite).  The
    charge, an element: for synthesize_trials _FIELD_BYTES for each of the
    two fields and their sum and _CAPTURE_BYTES for each capture or, with
    the near user at 1 capture, the larger _FIELD_BYTES of the far field
    beside _NEAR_FIELD_BYTES of the near one's build; for element_positions
    _POSITION_BYTES, with its two axis vectors; for synthesize_hologram the
    _HOLOGRAM_BYTES of the two holograms held beside the last tag's
    synthesis, a pair's at 1 capture.
    """
    module, run = CHARGED_CALLS[case]
    charges = []

    def check_bytes(what, count, item_bytes, extra_bytes=0):
        charges.append(count * item_bytes + extra_bytes)
        return _check_bytes(what, count, item_bytes, extra_bytes)

    monkeypatch.setattr(f"{module}._check_bytes", check_bytes)
    run(16)
    peaks, charged = [], []
    for n in (64, 128):
        charges.clear()
        peaks.append(min(traced_peak(lambda: run(n)) for _ in range(3)))
        charged.append(charges[0])
    rise = peaks[1] - peaks[0]
    assert rise <= charged[1] - charged[0] <= rise + (128**2 - 64**2)


def test_synthesize_hologram_is_held_to_the_byte_budget_before_any_field(monkeypatch):
    def built(*args):
        raise AssertionError("a field was built")
    monkeypatch.setattr("holoris.wavefield.complex_field_at_array", built)
    # an 8000x8000 panel holds a pair's synthesis in ~5.1 GB
    big = ArrayGeometry(n_z=8000, n_x=8000, d_z_m=0.02, d_x_m=0.02, f_c_hz=3_500_000_000)
    with pytest.raises(ValueError, match=SYNTHESIS_BYTES + "2147483648 bytes at 80 bytes each$"):
        synthesize_hologram(PAIR, big)
    monkeypatch.setattr("holoris.geometry._MAX_BYTES", 32 * 32 * 80 - 1)
    with pytest.raises(ValueError, match=SYNTHESIS_BYTES + "81919 bytes at 80 bytes each$"):
        synthesize_hologram(PAIR, GEOM)


def test_synthesize_hologram_charges_the_holograms_held_beside_a_tag(monkeypatch):
    def built(*args):
        raise AssertionError("a field was built")
    monkeypatch.setattr("holoris.wavefield.complex_field_at_array", built)
    # 100 tags of a pair on a 4096x4096 panel: each tag's synthesis fits in ~1.3 GB
    # (80 bytes an element), but the 99 holograms alive while the last tag is
    # synthesized take 792 bytes more
    big = ArrayGeometry(n_z=4096, n_x=4096, d_z_m=0.02, d_x_m=0.02, f_c_hz=3_500_000_000)
    tagged = [Source.far_field(AngularLocation(0.0, phi), frequency_tag=tag)
              for tag in range(100) for phi in (0.0, 30.0)]
    with pytest.raises(ValueError, match=SYNTHESIS_BYTES + "2147483648 bytes at 872 bytes each$"):
        synthesize_hologram(tagged, big)
    # the first tag's hologram beside the larger tag's work, a near-field pair's
    # build, 16 + 88 bytes
    mixed = [*PAIR, Source.far_field(AngularLocation(0.0, 0.0), frequency_tag=1),
             Source.near_field((0.1, 2.0, 0.3), frequency_tag=1)]
    monkeypatch.setattr("holoris.geometry._MAX_BYTES", 32 * 32 * 112)
    with pytest.raises(AssertionError, match="a field was built"):
        synthesize_hologram(mixed, GEOM)
    monkeypatch.setattr("holoris.geometry._MAX_BYTES", 32 * 32 * 112 - 1)
    with pytest.raises(ValueError, match=SYNTHESIS_BYTES + "114687 bytes at 112 bytes each$"):
        synthesize_hologram(mixed, GEOM)


def test_synthesize_hologram_is_synthesize_trials_per_tag_on_one_generator():
    det = DetectorModel(noise_std=0.7, phase_jitter_std=0.3)
    tag1 = [Source.far_field(AngularLocation(-5.0, 10.0), frequency_tag=1),
            Source.near_field((0.3, 1.2, 0.1), amplitude=0.6, frequency_tag=1)]
    tag0 = [Source.far_field(AngularLocation(0.0, 0.0)),
            Source.far_field(AngularLocation(12.0, -33.0), amplitude=1.4)]
    holos = synthesize_hologram([tag1[0], *tag0, tag1[1]], GEOM, det, seed=17)
    rng = np.random.default_rng(17)
    want = [synthesize_trials(tag, GEOM, det, [rng])[0] for tag in (tag0, tag1)]
    assert [h.frequency_tag for h in holos] == [0, 1]
    assert [h.values.tobytes() for h in holos] == [w.tobytes() for w in want]


def test_synthesize_hologram_rejects_an_empty_source_list():
    with pytest.raises(ValueError, match="^at least one source is required$"):
        synthesize_hologram([], GEOM)


SIZES = st.integers(0, 30).flatmap(lambda e: st.integers(1, 2**e))


@settings(max_examples=300, deadline=None)
@given(trials=SIZES, n_z=SIZES, n_x=SIZES, pad=st.integers(1, 16))
@example(trials=2**14, n_z=32, n_x=32, pad=2)   # the default panel's spectra at the budget
@example(trials=2**26, n_z=1, n_x=1, pad=1)     # the spectra at the budget, the synthesis past it
@example(trials=248_551, n_z=1, n_x=1, pad=1)   # the default grid's seeds at the budget
@example(trials=2**20, n_z=2, n_x=2, pad=1)     # the synthesis fits, the seeds are past it
def test_an_accepted_experiment_config_passes_the_size_checks_of_a_run(trials, n_z, n_x, pad):
    # Each check is called on the config's stack and grid; no array is built.
    try:
        geom = ArrayGeometry(n_z=n_z, n_x=n_x, d_z_m=0.02, d_x_m=0.02, f_c_hz=3_500_000_000)
        cfg = ExperimentConfig(geometry=geom, trials=trials, zero_pad_factor=pad)
    except ValueError:
        return
    with pytest.raises(Unbuilt):
        synthesize_trials(PAIR, geom, None, UnbuiltSeeds(trials))
    _check_spectral_settings((trials, n_z, n_x), pad)  # _transform's check of the stack
    placements = range(len(cfg.bs_locations) * len(cfg.ue_locations))
    with mock.patch("holoris.experiments._capture_seeds", side_effect=Unbuilt), \
            pytest.raises(Unbuilt):
        next(_placement_generators(cfg.seed, placements, trials))


def test_frequency_tags_do_not_interfere():
    """Each tag's hologram equals the hologram of that tag's sources alone."""
    pair0 = [Source.far_field(AngularLocation(0.0, 0.0), frequency_tag=0),
             Source.far_field(AngularLocation(10.0, 20.0), frequency_tag=0)]
    pair1 = [Source.far_field(AngularLocation(0.0, 0.0), frequency_tag=1),
             Source.far_field(AngularLocation(-8.0, -31.0), frequency_tag=1)]
    holos = synthesize_hologram(pair0 + pair1, GEOM)
    assert [h.frequency_tag for h in holos] == [0, 1]
    alone0 = synthesize_hologram(pair0, GEOM)[0]
    assert np.array_equal(holos[0].values, alone0.values)


def test_distant_spherical_wave_approaches_plane_wave():
    """At 100 m the near-field hologram is a small perturbation of the far one."""
    ue = AngularLocation(6.0, 14.0)
    far = synthesize_hologram(
        [Source.far_field(AngularLocation(0.0, 0.0)), Source.far_field(ue)], GEOM
    )[0]
    near = synthesize_hologram(
        [Source.far_field(AngularLocation(0.0, 0.0)),
         Source.near_field(position=tuple(100.0 * v for v in
                                          (math.cos(math.radians(6)) * math.sin(math.radians(14)),
                                           math.cos(math.radians(6)) * math.cos(math.radians(14)),
                                           -math.sin(math.radians(6)))))],
        GEOM,
    )[0]
    # fringe structure matches: same dominant off-DC bin
    fa = np.abs(np.fft.fft2(far.values - far.values.mean()))
    na = np.abs(np.fft.fft2(near.values - near.values.mean()))
    assert np.unravel_index(np.argmax(fa), fa.shape) == np.unravel_index(np.argmax(na), na.shape)


def test_hologram_csv_round_trip_is_bit_exact(tmp_path):
    det = DetectorModel(noise_std=0.3)
    holo = synthesize_hologram(
        [Source.far_field(AngularLocation(0.0, 0.0)),
         Source.far_field(AngularLocation(4.0, 18.0))],
        GEOM, detector=det, seed=9,
    )[0]
    path = tmp_path / "holo.csv"
    write_hologram_csv(path, holo)
    back = read_hologram_csv(path)
    assert np.array_equal(back.values, holo.values)
    assert back.geometry == holo.geometry
    assert back.frequency_tag == holo.frequency_tag


def test_hologram_csv_round_trip_of_non_default_capture(tmp_path):
    geom = ArrayGeometry(n_z=3, n_x=5, d_z_m=0.015, d_x_m=0.025,
                         f_c_hz=np.int64(2_600_000_000))
    values = np.random.default_rng(4).uniform(0.0, 9.0, size=(3, 5))
    holo = Hologram(values=values, geometry=geom, frequency_tag=np.int64(3))
    path = tmp_path / "holo.csv"
    write_hologram_csv(path, holo)
    back = read_hologram_csv(path)
    assert np.array_equal(back.values, holo.values)
    assert back.geometry == geom
    assert back.frequency_tag == 3


def test_hologram_values_are_a_read_only_copy():
    values = np.ones(GEOM.shape)
    holo = Hologram(values=values, geometry=GEOM)
    values[0, 0] = math.nan          # the caller's array stays its own
    assert np.all(holo.values == 1.0)
    with pytest.raises(ValueError, match="read-only"):
        holo.values[0, 0] = math.nan


@pytest.mark.parametrize("bad", [-1, 1.0, True, "1"])
def test_hologram_rejects_non_integer_or_negative_tag(bad):
    with pytest.raises(ValueError, match="frequency_tag must be an integer >= 0"):
        Hologram(values=np.ones(GEOM.shape), geometry=GEOM, frequency_tag=bad)


def test_hologram_rejects_tag_beyond_float_and_largest_tag_reads_back(tmp_path):
    # read_hologram_csv reads the tag as a finite number, so a tag beyond the
    # float range would be written but never read back
    with pytest.raises(ValueError, match="frequency_tag is too large to convert to a float"):
        Hologram(values=np.ones(GEOM.shape), geometry=GEOM, frequency_tag=10**400)
    largest = int(np.finfo(float).max)
    path = tmp_path / "h.csv"
    write_hologram_csv(path, Hologram(values=np.ones(GEOM.shape), geometry=GEOM,
                                      frequency_tag=largest))
    assert read_hologram_csv(path).frequency_tag == largest


def test_hologram_csv_rejects_corruption(tmp_path):
    holo = synthesize_hologram(
        [Source.far_field(AngularLocation(0.0, 0.0)),
         Source.far_field(AngularLocation(0.0, 30.0))], GEOM
    )[0]
    path = tmp_path / "holo.csv"
    write_hologram_csv(path, holo)
    lines = path.read_text().splitlines()

    bad = tmp_path / "bad_magic.csv"
    bad.write_text("\n".join(["# not-a-hologram v1"] + lines[1:]) + "\n")
    with pytest.raises(FileFormatError) as exc:
        read_hologram_csv(bad)
    assert exc.value.line_number == 1

    # truncate one data row
    data_start = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    broken = lines[:]
    broken[data_start] = ",".join(broken[data_start].split(",")[:-1])
    bad2 = tmp_path / "bad_row.csv"
    bad2.write_text("\n".join(broken) + "\n")
    with pytest.raises(FileFormatError) as exc:
        read_hologram_csv(bad2)
    assert exc.value.line_number == data_start + 1

    broken = lines[:]
    broken[data_start] = broken[data_start].replace(
        broken[data_start].split(",")[0], "not_a_number", 1
    )
    bad3 = tmp_path / "bad_float.csv"
    bad3.write_text("\n".join(broken) + "\n")
    with pytest.raises(FileFormatError):
        read_hologram_csv(bad3)


def test_hologram_rejects_complex_values():
    # np.ones + 1j would otherwise be accepted as all 1.0, with a warning
    with pytest.raises(ValueError, match="^Hologram values must be real, got dtype complex128$"):
        Hologram(values=np.ones(GEOM.shape) + 1j, geometry=GEOM)
    # an object array holding a complex value, whose conversion raises TypeError
    values = np.ones(GEOM.shape, dtype=object)
    values[3, 4] = np.complex64(1)
    with pytest.raises(ValueError, match="^Hologram values must be real, got dtype object$"):
        Hologram(values=values, geometry=GEOM)
    # an object array of real numbers converts as before
    values[3, 4] = 1
    assert np.array_equal(Hologram(values=values, geometry=GEOM).values, np.ones(GEOM.shape))


def test_hologram_shape_validation():
    with pytest.raises(ValueError):
        Hologram(values=np.zeros((4, 4)), geometry=GEOM)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_hologram_rejects_non_finite_intensity(bad):
    values = np.ones(GEOM.shape)
    values[3, 5] = bad
    with pytest.raises(ValueError, match="finite"):
        Hologram(values=values, geometry=GEOM)


def test_hologram_rejects_overflowing_intensity_sum():
    values = np.full(GEOM.shape, 1e306)  # each finite, their sum is not
    with pytest.raises(ValueError, match="sum overflows"):
        Hologram(values=values, geometry=GEOM)


def write_fixture_csv(tmp_path):
    holo = synthesize_hologram(
        [Source.far_field(AngularLocation(0.0, 0.0)),
         Source.far_field(AngularLocation(0.0, 30.0))], GEOM
    )[0]
    path = tmp_path / "holo.csv"
    write_hologram_csv(path, holo)
    return path.read_text().splitlines()


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN"])
def test_hologram_csv_rejects_non_finite_intensity(tmp_path, bad):
    lines = write_fixture_csv(tmp_path)
    row = 7 + 4  # 0-based index of the fifth data row
    cells = lines[row].split(",")
    cells[2] = bad
    lines[row] = ",".join(cells)
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FileFormatError, match="intensities must be finite") as exc:
        read_hologram_csv(path)
    assert exc.value.line_number == row + 1


def test_hologram_csv_reader_bisects_for_the_rejected_row(tmp_path):
    """A 1024x1024 file with a NaN in its last row: the reader reports that
    row's line, having checked at most 11 prefixes (1 + log2(1024)), not
    each of the 1024 in turn."""
    geom = ArrayGeometry(n_z=1024, n_x=1024, d_z_m=0.02, d_x_m=0.02, f_c_hz=3_500_000_000)
    path = tmp_path / "big.csv"
    write_hologram_csv(path, Hologram(values=np.ones(geom.shape), geometry=geom))
    lines = path.read_text().splitlines()
    lines[-1] = "nan" + lines[-1][len("1.0"):]
    path.write_text("\n".join(lines) + "\n")
    with mock.patch("holoris.wavefield._intensity_sums",
                    wraps=wavefield._intensity_sums) as spy:
        with pytest.raises(FileFormatError, match="intensities must be finite") as exc:
            read_hologram_csv(path)
    assert exc.value.line_number == len(lines) == 1031
    # Hologram's own check of the whole matrix, then the search's prefixes;
    # the header's 1x1 reference hologram is checked too.
    prefixes = [c.args[0] for c in spy.call_args_list if c.args[0].shape[1:] == (1024,)]
    assert len(prefixes) <= 1 + 11


@pytest.mark.parametrize("lineno, key, bad", [
    (2, "f_c_hz", "3.5e9"),
    (3, "d_x_m", "abc"),
    (4, "d_z_m", ""),
    (5, "n_x", "thirty-two"),
    (6, "n_z", "32.0"),
    (7, "frequency_tag", "x"),
    (2, "f_c_hz", "0"),
    pytest.param(2, "f_c_hz", "1" + "0" * 400, id="2-f_c_hz-beyond-float"),
    (3, "d_x_m", "-0.02"),
    (3, "d_x_m", "inf"),
    (4, "d_z_m", "0.0"),
    (4, "d_z_m", "nan"),
    (5, "n_x", "-2"),
    (6, "n_z", "0"),
    (7, "frequency_tag", "-1"),
    pytest.param(4, "d_z_m", "1e400", id="4-d_z_m-parses-to-inf"),
    pytest.param(5, "n_x", str(np.iinfo(np.intp).max + 1), id="5-n_x-beyond-element-bound"),
    pytest.param(7, "frequency_tag", "1" + "0" * 400, id="7-frequency_tag-beyond-float"),
])
def test_hologram_csv_header_errors_carry_their_line(tmp_path, lineno, key, bad):
    lines = write_fixture_csv(tmp_path)
    assert lines[lineno - 1].startswith(f"# {key}=")
    lines[lineno - 1] = f"# {key}={bad}"
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FileFormatError) as exc:
        read_hologram_csv(path)
    assert exc.value.line_number == lineno
    assert str(exc.value).startswith(f"line {lineno}: ")


def test_hologram_csv_overflowing_intensity_sum_carries_its_line(tmp_path):
    lines = write_fixture_csv(tmp_path)
    # Rows of 32 values 1e306 sum to 3.2e307 each: the running sum leaves
    # the float range on the sixth data row.
    lines[7:] = [",".join(["1e306"] * 32)] * 32
    path = tmp_path / "huge.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FileFormatError, match="sum overflows") as exc:
        read_hologram_csv(path)
    assert exc.value.line_number == 7 + 6


def test_hologram_csv_undecodable_bytes_carry_their_line(tmp_path):
    lines = write_fixture_csv(tmp_path)
    data = [line.encode() for line in lines]
    data[11] = b"1.0,\xff\xfe" + data[11][4:]  # fifth data row, line 12
    path = tmp_path / "bytes.csv"
    path.write_bytes(b"\r\n".join(data) + b"\r\n")
    with pytest.raises(FileFormatError, match="UTF-8") as exc:
        read_hologram_csv(path)
    assert exc.value.line_number == 12


def test_hologram_csv_truncated_header(tmp_path):
    lines = write_fixture_csv(tmp_path)
    path = tmp_path / "short.csv"
    path.write_text("\n".join(lines[:4]) + "\n")
    with pytest.raises(FileFormatError, match="truncated header") as exc:
        read_hologram_csv(path)
    assert exc.value.line_number == 4


@pytest.mark.parametrize("kwargs, message", [
    ({"amplitude": math.nan}, "amplitude must be finite"),
    ({"amplitude": math.inf}, "amplitude must be finite"),
    ({"phase_rad": math.inf}, "phase_rad must be finite"),
    ({"frequency_tag": 10**400}, "frequency_tag is too large to convert to a float"),
    ({"frequency_tag": 1.5}, "frequency_tag must be an integer"),
])
def test_source_rejects_non_finite_or_non_integer_values(kwargs, message):
    # a NaN amplitude would give link_gain a NaN gain and no error
    with pytest.raises(ValueError, match=message):
        Source.far_field(AngularLocation(0.0, 0.0), **kwargs)
    with pytest.raises(ValueError, match=message):
        Source.near_field((0.0, 1.0, 0.0), **kwargs)


@pytest.mark.parametrize("kwargs, message", [
    ({"kind": "plane_wave", "angles": AngularLocation(0.0, 0.0)},
     "^unknown source kind 'plane_wave'$"),
    ({"kind": "far_field", "position": (0.0, 1.0, 0.0)}, "^far_field source requires angles$"),
    ({"kind": "near_field", "angles": AngularLocation(0.0, 0.0)},
     "^near_field source requires a position$"),
], ids=["unknown-kind", "far-without-angles", "near-without-position"])
def test_source_requires_a_known_kind_and_its_location(kwargs, message):
    with pytest.raises(ValueError, match=message):
        Source(**kwargs)


@pytest.mark.parametrize("amplitude", [1.0000000000000001e146, 1e147, 1e200])
def test_source_rejects_an_amplitude_past_its_bound(amplitude):
    # at 1e200 a received power overflows: link_gain returned nan
    for make in (lambda: Source.far_field(AngularLocation(0.0, 0.0), amplitude=amplitude),
                 lambda: Source.near_field((0.0, 1.0, 0.0), amplitude=amplitude)):
        with pytest.raises(ValueError, match="^amplitude must be at most 1e\\+146, got "):
            make()
    assert Source.far_field(AngularLocation(0.0, 0.0), amplitude=1e146).amplitude == 1e146


@pytest.mark.parametrize("position", [(0.0, 1e170, 0.0), (0.0, 1.0000001e9, 0.0),
                                      (6e8, 8.1e8, 0.0), (0.0, 9.9e-10, 0.0),
                                      (0.0, 1e-200, 0.0), (0.0, 5e-324, 0.0)])
def test_near_field_source_rejects_a_point_beyond_its_range_bound(position):
    with pytest.raises(ValueError, match="^position must lie 1e-09 to 1e\\+09 m from the panel "):
        Source.near_field(position)


@pytest.mark.parametrize("position", [(0.0, 1e9, 0.0), (0.0, 1e-9, 0.0), (6e8, 8e8, 0.0)])
def test_near_field_source_takes_a_point_at_its_range_bound(position):
    assert np.array_equal(Source.near_field(position).position, position)


@pytest.mark.parametrize("field, bad", [("noise_std", math.nan), ("noise_std", math.inf),
                                        ("phase_jitter_std", math.nan), ("floor", math.inf)])
def test_detector_rejects_non_finite_values(field, bad):
    with pytest.raises(ValueError, match=f"{field} must be finite and >= 0"):
        DetectorModel(**{field: bad})


@pytest.mark.parametrize("position", [(math.nan, 1.0, 0.0), (0.0, math.nan, 0.0),
                                      (0.0, math.inf, 0.0), (0.0, 1.0, -math.inf)])
def test_near_field_source_rejects_non_finite_position(position):
    with pytest.raises(ValueError, match="finite 3-vector"):
        Source.near_field(position)


def test_near_field_position_rejects_complex_coordinates():
    # y = 2 + 1j would otherwise be kept as y = 2.0, with a warning
    with pytest.raises(ValueError, match="^position must be real, got dtype complex128$"):
        Source.near_field(np.array([0.1, 2 + 1j, 0.3]))
    with pytest.raises(ValueError, match="^position must be real, got dtype object$"):
        Source.near_field(np.array([0.1, 2 + 0j, 0.3], dtype=object))


def test_field_amplitude_attenuates_beyond_reference_range():
    """Spherical spreading follows 1/max(r/r_ref, 1) element by element."""
    src = Source.near_field(position=(0.0, 1.0, 0.0))
    field = complex_field_at_array(src, GEOM)
    r = np.linalg.norm(element_positions(GEOM) - np.asarray(src.position), axis=2)
    expected = 1.0 / np.maximum(r / 1.0, 1.0)
    assert np.allclose(np.abs(field), expected, rtol=1e-12)
    assert expected.max() < 1.0  # even grid: no element sits at the foot point
    assert expected.min() < expected.max()
