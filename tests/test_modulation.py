"""OOK and VPPM waveform tests: round trips, dimming means, edge cases."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from owpan import _kernels
from owpan._kernels import _BLOCK
from owpan.phy.frames import _plan
from owpan.phy.modes import mode_by_name
from owpan.phy.modulation import (
    SAMPLES_PER_CHIP,
    _dimming,
    _ook_modulate,
    _per_chip,
    _vppm_modulate,
)

bit_lists = st.lists(st.integers(0, 1), max_size=120)
dimmings = st.floats(min_value=0.05, max_value=0.95)


# Each stage as the frame chains call it: the modulators on checked chips
# and a checked dimming, the demodulators as the first decode form of a
# mode's plan, which checks the samples and raises at a VPPM tie.

def ook_wave(chips):
    return _ook_modulate(np.array(chips, dtype=np.uint8))


def vppm_wave(bits, dimming):
    return _vppm_modulate(np.array(bits, dtype=np.uint8), _dimming(dimming))


def _demodulator(name):
    _, (demodulate, *_) = _plan(mode_by_name(name))
    return demodulate


ook_read = _demodulator("phy2-ook-96m")
vppm_read = _demodulator("phy1-vppm-35k")


def test_ook_sample_expansion():
    wf = ook_wave([1, 0, 1])
    assert wf.size == 3 * SAMPLES_PER_CHIP
    assert wf.tolist() == [1.0] * 4 + [0.0] * 4 + [1.0] * 4


@given(bit_lists)
def test_ook_round_trip(chips):
    wf = ook_wave(chips)
    assert ook_read(wf).tolist() == chips
    assert (wf >= 0.0).all()


def test_ook_survives_attenuation_above_threshold():
    chips = [1, 0, 1, 1]
    wf = ook_wave(chips) * 0.6  # still above the 0.5 threshold
    assert ook_read(wf).tolist() == chips


def test_ook_rejects_partial_chip():
    with pytest.raises(ValueError, match="^sample count 3 is not a whole number of chips$"):
        ook_read([1.0, 1.0, 1.0])


@pytest.mark.parametrize(
    "samples",
    [[2**2000, 0, 0, 0], [-(2**2000), 0, 0, 0], np.array(["a", "b", "c", "d"])],
    ids=["huge_int", "huge_negative_int", "text"],
)
def test_samples_the_float_cast_cannot_make_are_rejected(samples):
    with pytest.raises(ValueError, match="^samples must be real numbers: "):
        _per_chip(samples)


def test_vppm_half_dimming_shapes():
    # dimming 0.5: bit 1 fills the first half, bit 0 the second half
    wf = vppm_wave([1, 0], dimming=0.5)
    assert wf.tolist() == [1, 1, 0, 0, 0, 0, 1, 1]


def test_vppm_fractional_edge():
    # dimming 3/8 covers sample 0 fully and half of sample 1
    wf = vppm_wave([1], dimming=0.375)
    assert wf.tolist() == [1.0, 0.5, 0.0, 0.0]
    wf = vppm_wave([0], dimming=0.375)
    assert wf.tolist() == [0.0, 0.0, 0.5, 1.0]


@given(bit_lists, dimmings)
def test_vppm_round_trip(bits, dimming):
    wf = vppm_wave(bits, dimming)
    assert vppm_read(wf).tolist() == bits
    assert (wf >= 0.0).all()


@given(st.lists(st.integers(0, 1), min_size=1, max_size=120), dimmings)
def test_vppm_mean_equals_dimming(bits, dimming):
    """The waveform mean is the duty cycle exactly, independent of the data."""
    wf = vppm_wave(bits, dimming)
    per_symbol = wf.reshape(-1, SAMPLES_PER_CHIP).mean(axis=1)
    assert np.allclose(per_symbol, dimming, rtol=0, atol=1e-12)


def test_vppm_symbols_are_mirrors():
    for dimming in (0.2, 0.5, 0.8):
        one = vppm_wave([1], dimming)
        zero = vppm_wave([0], dimming)
        assert one.tolist() == zero[::-1].tolist()


def test_vppm_rejects_degenerate_dimming():
    for bad in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError, match=r"^dimming must lie in \(0, 1\)"):
            _dimming(bad)


def test_vppm_tie_is_ambiguous():
    flat = np.full(SAMPLES_PER_CHIP, 0.5)
    with pytest.raises(ValueError, match="^ambiguous VPPM symbol at index 0: "):
        vppm_read(flat)


def test_vppm_rejects_partial_chip():
    with pytest.raises(ValueError, match="^sample count 5 is not"):
        vppm_read([1.0] * 5)


def test_empty_streams():
    assert ook_wave([]).size == 0
    assert ook_read([]).size == 0
    assert vppm_wave([], 0.5).size == 0
    assert vppm_read([]).size == 0


# --- dimmings given as numpy values -------------------------------------------
#
# VPPM keeps one sample table per dimming, keyed on the dimming as a Python
# float; a numpy scalar or a 0-d or one-element array still gives the
# samples that the dimming itself gives, without a warning.


def _vppm_samples(bits, dimming):
    lo = np.arange(SAMPLES_PER_CHIP) / SAMPLES_PER_CHIP
    leading = np.clip(dimming - lo, 0.0, 1 / SAMPLES_PER_CHIP) * SAMPLES_PER_CHIP
    return np.concatenate([leading if b else leading[::-1] for b in bits])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dimming", [np.array(0.5), np.array([0.5]), np.float32(0.3), 0.3])
def test_vppm_accepts_numpy_dimming(dimming):
    bits = [1, 0, 0, 1, 1]
    assert vppm_wave(bits, dimming).tolist() == _vppm_samples(bits, dimming).tolist()


def test_writing_into_a_waveform_leaves_the_next_one_alone():
    for modulate in (ook_wave, lambda chips: vppm_wave(chips, 0.3)):
        first = modulate([1, 0])
        expected = first.tolist()
        first[:] = -7.0
        assert modulate([1, 0]).tolist() == expected


# --- the block-wise demodulators against the unblocked expressions ----------
#
# The demodulators reduce one block of _BLOCK chips at a time.  These
# oracles are the whole-array expressions they replaced; decisions and the
# reported tie index must match them on any float input, NaN and inf
# included, at chip counts on both sides of the block edges.

CHIP_COUNTS = [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5]


def _ook_oracle(samples):
    samples = np.asarray(samples, dtype=np.float64).ravel()
    means = samples.reshape(-1, SAMPLES_PER_CHIP).mean(axis=1)
    return (means > 0.5).astype(np.uint8)


def _vppm_oracle(samples):
    per = np.asarray(samples, dtype=np.float64).reshape(-1, SAMPLES_PER_CHIP)
    e_first = per[:, :2].sum(axis=1)
    e_second = per[:, 2:].sum(axis=1)
    ties = e_first == e_second
    if ties.any():
        return f"ambiguous VPPM symbol at index {int(np.argmax(ties))}: equal half energies"
    return (e_first > e_second).astype(np.uint8)


def _vppm_outcome(samples):
    try:
        return vppm_read(samples)
    except ValueError as exc:
        return str(exc)


def _noisy(waveform, rng):
    """Gaussian noise, with about one sample in 500 set to NaN or +-inf."""
    noisy = waveform + rng.normal(scale=0.4, size=waveform.size)
    hits = rng.random(noisy.size) < 0.002
    noisy[hits] = rng.choice([np.nan, np.inf, -np.inf], size=int(hits.sum()))
    return noisy


@pytest.mark.parametrize("nchips", CHIP_COUNTS)
def test_ook_demodulate_matches_unblocked_oracle(nchips):
    rng = np.random.default_rng(nchips)
    chips = rng.integers(0, 2, nchips).astype(np.uint8)
    wf = _noisy(ook_wave(chips), rng)
    assert np.array_equal(ook_read(wf), _ook_oracle(wf))
    single = wf.astype(np.float32)
    assert np.array_equal(ook_read(single), _ook_oracle(single))
    # chips on the edge: summed left to right, ((-2.5 + 1e17) - 1e17) + 2.5
    # is 2.5 while the other orders round to 0; a mean of exactly 0.5 is 0
    edge = np.tile([-2.5, 1e17, -1e17, 2.5, 0.5, 0.5, 0.5, 0.5], max(nchips, 1))
    assert _ook_oracle(edge).tolist() == [1, 0] * max(nchips, 1)
    assert np.array_equal(ook_read(edge), _ook_oracle(edge))
    # means 1 ulp either side of 0.5, and subnormal samples
    near = np.repeat([np.nextafter(0.5, 1.0), np.nextafter(0.5, 0.0), 5e-324], SAMPLES_PER_CHIP)
    assert ook_read(near).tolist() == _ook_oracle(near).tolist() == [1, 0, 0]


@pytest.mark.parametrize("nchips", CHIP_COUNTS)
def test_vppm_demodulate_matches_unblocked_oracle(nchips):
    rng = np.random.default_rng(nchips)
    bits = rng.integers(0, 2, nchips).astype(np.uint8)
    for dimming in (0.25, 0.5, 0.75):
        wf = _noisy(vppm_wave(bits, dimming), rng)
        expected = _vppm_oracle(wf)
        outcome = _vppm_outcome(wf)
        if isinstance(expected, str):
            assert outcome == expected
        else:
            assert np.array_equal(outcome, expected)


def test_vppm_tie_in_a_later_block_reports_its_global_index():
    wf = vppm_wave(np.ones(3 * _BLOCK + 5, np.uint8), 0.5)
    at = 2 * _BLOCK + 7
    wf[at * SAMPLES_PER_CHIP : (at + 1) * SAMPLES_PER_CHIP] = 0.5
    wf[-SAMPLES_PER_CHIP:] = 0.5  # a later tie in a later block
    assert _vppm_oracle(wf) == _vppm_outcome(wf)
    with pytest.raises(ValueError, match=f"index {at}:"):
        vppm_read(wf)


# --- (chips, bad) per chip ---------------------------------------------------
#
# VPPM's demodulation kernel marks exactly the tied chips; OOK's cannot
# fail, returns its chips alone and marks none.


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 40) | st.integers(_BLOCK - 3, _BLOCK + 40),
    st.integers(0, 2**32 - 1),
    st.lists(st.integers(0, 10**6), max_size=3),
    st.sampled_from([0.0, 0.25, 0.5, 1.0]),
)
def test_vppm_demodulate_marks_exactly_the_tied_chips(nchips, seed, ties, level):
    bits = np.random.default_rng(seed).integers(0, 2, nchips).astype(np.uint8)
    wf = vppm_wave(bits, 0.4)
    ties = sorted({t % nchips for t in ties}) if nchips else []
    for t in ties:
        wf[t * SAMPLES_PER_CHIP : (t + 1) * SAMPLES_PER_CHIP] = level  # equal halves
    chips, bad = _kernels.vppm_demodulate(_per_chip(wf))
    if bad is None:
        assert ties == []
        assert np.array_equal(chips, bits)
        return
    assert np.flatnonzero(bad).tolist() == ties and len(bad) == nchips
    clean = np.ones(nchips, dtype=bool)
    clean[ties] = False
    assert np.array_equal(chips[clean], bits[clean])


@given(bit_lists, st.integers(0, 2**32 - 1))
def test_ook_demodulate_marks_nothing(chips, seed):
    rng = np.random.default_rng(seed)
    wf = ook_wave(chips) + rng.normal(scale=0.3, size=4 * len(chips))
    assert np.array_equal(ook_read(wf), _ook_oracle(wf))


# --- float32 samples decide as their float64 widening -------------------------
#
# The demodulators read float32 samples without a copy and sum and compare
# in float64, so a float32 array must give exactly what its float64
# widening gives: chips, tie marks and raised messages, for any values.

_F32_MAX = float(np.finfo(np.float32).max)
float32_samples = st.floats(width=32) | st.sampled_from(
    [0.0, 0.5, 1.0, 2.0**-24, np.inf, -np.inf, np.nan, _F32_MAX, -_F32_MAX]
)


def _outcome(demodulate, samples):
    try:
        return demodulate(samples).tolist()
    except ValueError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.lists(float32_samples, min_size=4, max_size=4), max_size=40),
    st.lists(st.integers(0, 39), max_size=6),
)
def test_float32_samples_decide_as_their_float64_widening(chips, ties):
    single = np.array(chips, dtype=np.float32).reshape(-1, SAMPLES_PER_CHIP)
    for t in ties:
        if t < len(single):
            single[t, 2:] = single[t, 1::-1]  # equal half energies unless NaN
    single = single.ravel()
    double = single.astype(np.float64)
    for samples in (single, double):
        # read without a copy
        assert samples.size == 0 or np.shares_memory(_per_chip(samples), samples)
    ook = [_kernels.ook_demodulate(_per_chip(samples)) for samples in (single, double)]
    assert np.array_equal(*ook)
    (c32, bad32), (c64, bad64) = (_kernels.vppm_demodulate(_per_chip(s)) for s in (single, double))
    assert np.array_equal(c32, c64)
    assert (bad32 is None and bad64 is None) or np.array_equal(bad32, bad64)
    for read in (ook_read, vppm_read):
        assert _outcome(read, single) == _outcome(read, double)


def test_float32_tie_and_overflow_cases_decide_in_float64():
    # samples whose sums round or overflow in float32 arithmetic but not in
    # float64; each decision is the float64 one
    cases = [
        (vppm_read, [1.0, 2.0**-24, 1.0, 0.0], [1]),  # 1 + 2**-24 is 1 in float32
        (vppm_read, [_F32_MAX, _F32_MAX, _F32_MAX, _F32_MAX / 2], [1]),  # both inf
        (vppm_read, [_F32_MAX, _F32_MAX, np.inf, 0.0], [0]),
        (ook_read, [1.0, 2.0**-24, 0.5, 0.5], [1]),  # a sum of 2 in float32
        (ook_read, [_F32_MAX, _F32_MAX, -_F32_MAX, -_F32_MAX], [0]),  # inf in float32
    ]
    for demodulate, samples, chips in cases:
        single = np.array(samples, dtype=np.float32)
        assert _outcome(demodulate, single) == _outcome(demodulate, single.astype(np.float64))
        assert _outcome(demodulate, single) == chips
