"""Full transmit/receive chain tests across the bound PHY modes."""

import ast
import dataclasses
import hashlib
import re
import sys
import warnings
from array import array
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from owpan.phy import fec, frames, line_codes
from owpan.phy.fec import ConvCode, RsCode, _cc_encode, _viterbi_decode, rs_decode, rs_encode
from owpan.phy.frames import (
    MAX_PAYLOAD,
    FrameDecodeError,
    _plan,
    chips_from_hex,
    chips_to_hex,
    decode_frame,
    decode_from_chips,
    encode_frame,
    encode_to_chips,
)
from owpan.phy.modes import LineCode, Modulation, mode_by_name, phy_mode_catalog
from owpan.phy.modulation import SAMPLES_PER_CHIP, _ook_modulate, _vppm_modulate

GOLDEN = Path(__file__).parent / "golden" / "frame_phy1_ook_11k.hex"

BOUND_MODES = [m for m in phy_mode_catalog() if m.bound]
PAYLOADS = [b"", b"\x00", b"hi", b"W-OWPAN frame golden.", bytes(range(256))]


def _u8(values):
    # the checked uint8 array the frame chains hand each stage
    return np.array(values, dtype=np.uint8)


@pytest.mark.parametrize("mode", BOUND_MODES, ids=lambda m: m.name)
def test_chip_round_trip_all_modes(mode):
    for payload in PAYLOADS:
        chips = encode_to_chips(payload, mode)
        assert set(np.unique(chips)) <= {0, 1}
        assert decode_from_chips(chips, mode) == payload


@pytest.mark.parametrize("mode", BOUND_MODES, ids=lambda m: m.name)
def test_waveform_round_trip_all_modes(mode):
    payload = b"waveform check \xde\xad\xbe\xef"
    frame = encode_frame(payload, mode, dimming=0.4)
    assert frame.payload == payload
    assert frame.mode is mode
    assert (frame.waveform >= 0.0).all()
    assert decode_frame(frame.waveform, mode, dimming=0.4) == payload


def test_ook_waveform_is_binary_levels():
    frame = encode_frame(b"x", mode_by_name("phy2-ook-96m"))
    assert set(np.unique(frame.waveform)) <= {0.0, 1.0}


def test_ook_waveform_under_small_additive_noise_decodes():
    mode = mode_by_name("phy2-ook-96m")
    frame = encode_frame(b"denoise", mode)
    rng = np.random.default_rng(1)
    noisy = frame.waveform + rng.uniform(0.0, 0.2, frame.waveform.size)
    assert decode_frame(noisy, mode) == b"denoise"


def test_all_dark_waveform_raises_frame_error():
    mode = mode_by_name("phy2-ook-96m")
    dark = np.zeros_like(encode_frame(b"garble", mode).waveform)
    with pytest.raises(FrameDecodeError):
        decode_frame(dark, mode)


def test_vppm_waveform_mean_tracks_dimming():
    mode = mode_by_name("phy1-vppm-35k")
    for dimming in (0.25, 0.5, 0.75):
        frame = encode_frame(b"dim", mode, dimming=dimming)
        assert frame.waveform.mean() == pytest.approx(dimming, abs=1e-12)


VPPM_MODES = [m for m in BOUND_MODES if m.modulation is Modulation.VPPM]


@pytest.mark.parametrize("mode", VPPM_MODES, ids=lambda m: m.name)
@pytest.mark.parametrize("dimming", [1e-300, 1e-9, 0.01, 0.99, np.nextafter(1.0, 0.0)])
def test_vppm_round_trips_at_extreme_duty_cycles(mode, dimming):
    payload = b"duty \x00\xff"
    assert decode_frame(encode_frame(payload, mode, dimming).waveform, mode) == payload


# dimming -> the dtype of a VPPM waveform: float32 where every sample of
# the dimming's table is a float32, float64 where one would round
_WAVEFORM_DTYPES = {
    0.25: np.float32,
    0.375: np.float32,
    0.4: np.float64,  # 0.6 of a sample
    0.75: np.float32,
    1e-300: np.float64,  # 4e-300 of a sample, 0 in float32
    np.nextafter(1.0, 0.0): np.float64,  # 1 - 2**-51 of a sample
}


def _reference_waveform(chips, mode, dimming):
    # float64 samples from the chips alone, with none of modulation's tables
    if mode.modulation is Modulation.OOK:
        return np.repeat(chips.astype(np.float64), SAMPLES_PER_CHIP)
    lo = np.arange(SAMPLES_PER_CHIP) / SAMPLES_PER_CHIP
    leading = np.clip(dimming - lo, 0.0, 1 / SAMPLES_PER_CHIP) * SAMPLES_PER_CHIP
    return np.where(chips[:, None] == 1, leading, leading[::-1]).ravel()


@pytest.mark.parametrize("mode", BOUND_MODES, ids=lambda m: m.name)
@pytest.mark.parametrize("dimming", list(_WAVEFORM_DTYPES))
def test_waveform_is_float32_exactly_when_no_sample_rounds(mode, dimming):
    for payload in _DIGEST_PAYLOADS:  # 0, 1, 33 and 4097 bytes
        frame = encode_frame(payload, mode, dimming)
        reference = _reference_waveform(frame.chips, mode, dimming)
        exact = np.array_equal(reference.astype(np.float32), reference)
        if mode.modulation is Modulation.VPPM:
            assert exact == (_WAVEFORM_DTYPES[dimming] is np.float32)
        assert frame.waveform.dtype == (np.float32 if exact else np.float64)
        assert np.array_equal(frame.waveform.astype(np.float64), reference)
        assert decode_frame(frame.waveform, mode) == payload


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "dimming",
    [np.float32(0.3), np.array(0.3), np.array([0.3])],
    ids=["float32", "0d_array", "1_element_array"],
)
def test_numpy_dimming_gives_the_waveform_of_its_float(dimming):
    mode = mode_by_name("phy1-vppm-35k")
    expected = encode_frame(b"dim", mode, np.asarray(dimming).item()).waveform
    assert np.array_equal(encode_frame(b"dim", mode, dimming).waveform, expected)


@pytest.mark.parametrize("name", ["phy1-ook-11k", "phy1-vppm-35k", "phy2-ook-96m"])
def test_overflowing_and_cancelling_samples_raise_no_warning(name):
    # a chip sum past float64's range is inf and inf + -inf is NaN; numpy
    # warns on both, and a warning made an error broke the receive chain
    mode = mode_by_name(name)
    payload = b"W-OWPAN frame golden."
    waveform = encode_frame(payload, mode).waveform
    assert waveform.dtype == np.float32
    _, (demodulate, *_) = _plan(mode)
    chips = demodulate(waveform)
    # float64 samples near float64's maximum, and float32 samples at float32's,
    # whose chip sums would overflow float32 but not the float64 sums
    huge = [waveform.astype(np.float64) * 1e308, waveform * np.finfo(np.float32).max]
    cancelled = waveform.copy()
    cancelled[:2] = (np.inf, -np.inf)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scaled in huge:
            assert decode_frame(scaled, mode) == payload
            assert np.array_equal(demodulate(scaled), chips)
        # the NaN chip reads 0
        assert np.array_equal(demodulate(cancelled), np.concatenate([[0], chips[1:]]))
        try:
            assert isinstance(decode_frame(cancelled, mode), bytes)
        except FrameDecodeError:
            pass


@settings(max_examples=30, deadline=None)
@given(st.binary(max_size=300), st.sampled_from(["phy1-ook-24k", "phy1-vppm-71k", "phy2-ook-9m6"]))
def test_random_payload_round_trips(payload, name):
    mode = mode_by_name(name)
    assert decode_from_chips(encode_to_chips(payload, mode), mode) == payload


def test_4b6b_symbol_error_is_corrected():
    """Swapping one 6-chip word for a different valid word is an RS symbol
    error, inside the budget of every 4B6B mode's outer code."""
    mode = mode_by_name("phy1-vppm-124k")  # RS(15,7), t=4
    payload = b"tolerates symbol errors"
    chips = encode_to_chips(payload, mode)
    word = line_codes._encode_4b6b(_u8([9]))
    chips[12:18] = word  # clobber the third symbol
    assert decode_from_chips(chips, mode) == payload


def test_manchester_pair_swap_is_corrected():
    """Swapping a chip pair flips one coded bit; Viterbi absorbs it."""
    mode = mode_by_name("phy1-ook-24k")  # CC(1/3) + RS(15,11)
    payload = b"tolerates bit errors"
    chips = encode_to_chips(payload, mode)
    chips[40], chips[41] = chips[41], chips[40]
    assert decode_from_chips(chips, mode) == payload


def test_pair_swap_without_inner_code_hits_rs():
    mode = mode_by_name("phy1-ook-73k")  # RS(15,11) alone, t=2
    payload = b"rs only"
    chips = encode_to_chips(payload, mode)
    chips[10], chips[11] = chips[11], chips[10]
    assert decode_from_chips(chips, mode) == payload


@pytest.mark.parametrize("p", [0.01, 0.02])
def test_coded_bit_flips_within_the_rs_budget_decode_exactly(p):
    """Each coded bit of a phy1-ook-73k frame flips with probability p: the
    8 waveform samples of its Manchester chip pair are swapped.  Wherever
    every RS(15,11) block holds at most t = 2 wrong symbols, decode_frame
    returns the exact payload; elsewhere it returns bytes or raises
    FrameDecodeError.  The waveform is read by the live kernel backend."""
    mode = mode_by_name("phy1-ook-73k")
    rs = mode.outer_code
    t = (rs.n - rs.k) // 2
    rng = np.random.default_rng(round(1000 * p))
    within = 0
    for _ in range(300):
        payload = rng.integers(0, 256, rng.integers(16, 257), dtype=np.uint8).tobytes()
        waveform = encode_frame(payload, mode).waveform
        # one row per coded bit, holding the samples of its two chips
        pairs = waveform.reshape(-1, 2, SAMPLES_PER_CHIP)
        flips = rng.random(len(pairs)) < p
        pairs[flips] = pairs[flips, ::-1]
        # four coded bits make an RS symbol, and rs.n symbols a block
        wrong = flips.reshape(-1, 4).any(axis=1).reshape(-1, rs.n).sum(axis=1)
        if wrong.max() <= t:
            within += flips.any()
            assert decode_frame(waveform, mode) == payload
        else:
            try:
                assert isinstance(decode_frame(waveform, mode), bytes)
            except FrameDecodeError:
                pass
    # frames with flips that the rule covers
    assert within >= 20


def test_invalid_line_symbols_raise_frame_errors():
    payload = b"zap"
    cases = [
        ("phy1-ook-100k", slice(0, 2), [1, 1]),  # 11 Manchester pair
        ("phy1-vppm-266k", slice(0, 6), [1, 1, 1, 0, 0, 0]),  # off-table 4B6B
        ("phy2-ook-96m", slice(0, 10), [0] * 10),  # invalid 8b10b word
    ]
    for name, sl, junk in cases:
        mode = mode_by_name(name)
        chips = encode_to_chips(payload, mode)
        chips[sl] = junk
        with pytest.raises(FrameDecodeError):
            decode_from_chips(chips, mode)


def test_beyond_budget_corruption_detected():
    mode = mode_by_name("phy1-vppm-71k")  # RS(15,4), t=5
    payload = b"\xffhello world payload"
    chips = encode_to_chips(payload, mode)
    # replace eight symbols of the first block with valid-but-wrong words
    for i in range(8):
        chips[6 * i : 6 * i + 6] = line_codes._encode_4b6b(_u8([(i * 3 + 1) % 16]))
    with pytest.raises(FrameDecodeError):
        decode_from_chips(chips, mode)


def test_truncated_stream_detected():
    mode = mode_by_name("phy2-ook-6m")
    chips = encode_to_chips(b"truncate me", mode)
    with pytest.raises(FrameDecodeError):
        decode_from_chips(chips[:-10], mode)  # drop one whole 8b10b word


def test_length_prefix_overrun_detected():
    # a bare prefix claiming five bytes with nothing after it
    chips = line_codes._encode_8b10b(_u8([0, 5]))
    with pytest.raises(FrameDecodeError) as exc:
        decode_from_chips(chips, mode_by_name("phy2-ook-96m"))
    assert "length prefix" in str(exc.value)


def test_stream_shorter_than_prefix_detected():
    chips = line_codes._encode_8b10b(_u8([7]))
    with pytest.raises(FrameDecodeError):
        decode_from_chips(chips, mode_by_name("phy2-ook-96m"))


def test_payload_size_limits():
    mode = mode_by_name("phy2-ook-96m")
    with pytest.raises(ValueError):
        encode_to_chips(bytes(MAX_PAYLOAD + 1), mode)
    big = bytes(np.random.default_rng(0).integers(0, 256, MAX_PAYLOAD, dtype=np.uint8))
    assert decode_from_chips(encode_to_chips(big, mode), mode) == big


@pytest.mark.parametrize(
    "payload",
    [
        np.array([1, 2, 3]),
        memoryview(array("i", [1, 2])),
        np.arange(12, dtype=np.uint8).reshape(3, 4),
        np.arange(12, dtype=np.uint8)[::2],
        bytearray(b"bytes-like"),
    ],
    ids=["int64_array", "int_memoryview", "2d_uint8", "strided_uint8", "bytearray"],
)
def test_length_prefix_counts_the_bytes_a_bytes_like_payload_sends(payload):
    sent = memoryview(payload).tobytes()
    for mode in (mode_by_name("phy1-ook-11k"), mode_by_name("phy1-vppm-35k")):
        frame = encode_frame(payload, mode)
        assert frame.payload == sent
        assert decode_frame(frame.waveform, mode) == sent
        assert decode_from_chips(encode_to_chips(payload, mode), mode) == sent


def test_payload_limit_counts_bytes_not_items():
    mode = mode_by_name("phy2-ook-96m")
    with pytest.raises(ValueError, match="^payload of 80000 bytes exceeds 65535$"):
        encode_to_chips(np.zeros(10_000, np.int64), mode)
    with pytest.raises(ValueError, match="^payload of 80000 bytes exceeds 65535$"):
        encode_frame(np.zeros(10_000, np.int64), mode)


@pytest.mark.parametrize("payload", [3, "abc", [1, 2, 3]], ids=["int", "str", "list"])
def test_payloads_that_are_not_bytes_like_are_rejected(payload):
    # bytes(3) would send three zero bytes
    mode = mode_by_name("phy2-ook-96m")
    for encode in (encode_to_chips, encode_frame):
        with pytest.raises(TypeError):
            encode(payload, mode)


def test_catalog_only_modes_rejected():
    with pytest.raises(ValueError):
        encode_to_chips(b"x", mode_by_name("phy3-csk"))
    with pytest.raises(ValueError):
        decode_frame(np.zeros(4), mode_by_name("phy5-mpm"))


@pytest.mark.parametrize("mode", BOUND_MODES, ids=lambda m: m.name)
@settings(max_examples=30, deadline=None)
@given(st.sampled_from([0, 1, 2, 7, 39]).flatmap(lambda n: st.binary(min_size=n, max_size=n)))
def test_each_plan_stage_decodes_what_it_encodes(mode, payload):
    """Every stage pair of the mode's plan, on what the stages before it make
    of a random payload: decode inverts encode, the length prefix exactly,
    the RS stage up to its zero block padding, every line code (8b/10b
    included) and the modulator at two dimmings."""
    encoders, decoders = _plan(mode)
    assert len(encoders) == len(decoders)
    *stages, (modulate, demodulate) = zip(encoders, reversed(decoders))
    prefix, strip = stages[0]
    values = prefix(payload)
    assert strip(values) == payload
    for stage, (encode, decode) in enumerate(stages[1:], 1):
        coded = encode(values)
        back = decode(coded)
        assert back.dtype == np.uint8
        assert np.array_equal(back[: values.size], values)
        assert not back[values.size :].any()
        if stage != 2 or mode.outer_code is None:  # the RS stage comes third
            assert back.size == values.size
        values = coded
    for dimming in (0.25, 0.4):
        assert np.array_equal(demodulate(modulate(values, dimming)), values)


def test_a_copy_of_a_mode_hashes_equal_and_shares_its_plan():
    for mode in BOUND_MODES:
        copy = dataclasses.replace(mode)
        assert copy is not mode and copy == mode and hash(copy) == hash(mode)
        assert _plan(copy) is _plan(mode)


def test_only_the_plan_reads_the_modes_codes():
    """frames.py reads the modulation, the line code and the RS and CC codes
    in _plan alone, so a new stage is one more pair there, not a rung on
    two ladders that must stay inverse."""
    tree = ast.parse(Path(frames.__file__).read_text())
    plans = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_plan"]
    inside = {id(node) for plan in plans for node in ast.walk(plan)}
    names = {"LineCode", "line_code", "outer_code", "inner_code", "Modulation", "modulation"}
    outside = [
        (node.lineno, ast.unparse(node))
        for node in ast.walk(tree)
        if id(node) not in inside
        and (
            isinstance(node, ast.Name) and node.id in names
            or isinstance(node, ast.Attribute) and node.attr in names
        )
    ]
    assert outside == []
    assert plans


def test_chip_dump_matches_golden():
    chips = encode_to_chips(b"W-OWPAN frame golden.", mode_by_name("phy1-ook-11k"))
    assert chips_to_hex(chips) == GOLDEN.read_text()


def test_chip_dump_round_trips_through_hex():
    mode = mode_by_name("phy1-ook-11k")
    payload = b"W-OWPAN frame golden."
    chips = encode_to_chips(payload, mode)
    parsed = chips_from_hex(GOLDEN.read_text())
    # parsing pads to a whole number of hex digits
    assert parsed.size >= chips.size
    assert not parsed[chips.size :].any()
    assert decode_from_chips(parsed[: chips.size], mode) == payload


@given(st.lists(st.integers(0, 1), max_size=300))
def test_hex_dump_inverse(chips):
    text = chips_to_hex(np.array(chips, dtype=np.uint8))
    assert text.endswith("\n")
    assert all(len(line) <= 16 for line in text.splitlines())
    parsed = chips_from_hex(text)
    pad = (-len(chips)) % 4
    assert parsed.tolist() == chips + [0] * pad


def test_modes_share_one_chip_alphabet():
    """Every bound mode's chip stream length matches its line-code geometry."""
    payload = b"geometry"
    for mode in BOUND_MODES:
        chips = encode_to_chips(payload, mode)
        if mode.line_code is LineCode.EIGHT_B_TEN_B:
            assert chips.size % 10 == 0
        elif mode.line_code is LineCode.FOUR_B_SIX_B:
            assert chips.size % 6 == 0
        else:
            assert chips.size % 2 == 0


@pytest.mark.parametrize("mode", BOUND_MODES, ids=lambda m: m.name)
def test_cut_padded_or_shifted_streams_yield_bytes_or_frame_error(mode):
    """The receive chain is total over wrong-length streams: cutting or
    padding the end, or dropping chips from the front, gives the payload
    or a FrameDecodeError, never another exception."""
    chips = encode_to_chips(b"cut me", mode)
    for k in range(1, 40):
        zeros = np.zeros(k, np.uint8)
        for damaged in (chips[:-k], np.concatenate([chips, zeros]), chips[k:]):
            try:
                assert isinstance(decode_from_chips(damaged, mode), bytes)
            except FrameDecodeError:
                pass


@pytest.mark.parametrize("mode", BOUND_MODES, ids=lambda m: m.name)
@pytest.mark.parametrize(
    "chips",
    [np.full(60, 2), -np.ones(60), np.full(60, 0.5), np.full(60, np.nan)],
    ids=["twos", "minus_ones", "halves", "nans"],
)
def test_samples_that_are_no_chips_raise_frame_errors(mode, chips):
    with pytest.raises(FrameDecodeError, match="chips must contain only 0s and 1s"):
        decode_from_chips(chips, mode)


@pytest.mark.parametrize("mode", BOUND_MODES, ids=lambda m: m.name)
def test_samples_that_are_no_numbers_raise_frame_errors(mode):
    text = np.array(["a"] * 8)
    with pytest.raises(FrameDecodeError, match="could not convert string to float"):
        decode_frame(text, mode)
    with pytest.raises(FrameDecodeError):
        decode_from_chips(text, mode)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mode", BOUND_MODES, ids=lambda m: m.name)
@pytest.mark.parametrize("decode", [decode_frame, decode_from_chips])
@pytest.mark.parametrize(
    "samples",
    [
        np.array([None] * 8),
        np.ones(64) * (1 + 1j),
        np.array([2**2000, 0, 0, 0] * 2, dtype=object),
        [2**70, 0] * 4,
        np.array(["a", "b"] * 4),
    ],
    ids=["object_none", "complex", "huge_int", "int_beyond_int64", "text"],
)
def test_object_and_complex_samples_raise_frame_errors(mode, decode, samples):
    with pytest.raises(FrameDecodeError):
        decode(samples, mode)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mode", BOUND_MODES, ids=lambda m: m.name)
def test_object_arrays_of_numbers_decode(mode):
    frame = encode_frame(b"boxed", mode)
    assert decode_frame(frame.waveform.astype(object), mode) == b"boxed"
    assert decode_from_chips(frame.chips.astype(object), mode) == b"boxed"


@pytest.mark.parametrize("decode", [decode_frame, decode_from_chips])
def test_catalog_only_mode_is_rejected_before_the_frame_boundary(decode):
    # a caller error, not a defect of the received samples
    with pytest.raises(ValueError, match="catalog-only") as exc:
        decode(np.array(["a"] * 8), mode_by_name("phy3-csk"))
    assert not isinstance(exc.value, FrameDecodeError)


def _overwrite(chips, at, junk):
    # a copy of chips with junk written from chip `at` on
    chips = np.array(chips, dtype=np.uint8)
    chips[at : at + len(junk)] = junk
    return chips


def _vppm_tie_at(index):
    # a VPPM waveform of index + 1 leading pulses whose last chip is dark,
    # so that its two half energies tie
    waveform = _vppm_modulate(np.ones(index + 1, np.uint8), 0.5)
    waveform[4 * index :] = 0.0
    return waveform


@st.composite
def _damaged_frames(draw):
    """A bound mode and an encoded frame's chips, flipped at a few chips,
    cut short, extended, or replaced by random chips."""
    mode = draw(st.sampled_from(BOUND_MODES))
    chips = encode_to_chips(draw(st.binary(max_size=24)), mode)
    damage = draw(st.sampled_from(["flip", "truncate", "extend", "random"]))
    if damage == "flip":
        at = draw(st.lists(st.integers(0, chips.size - 1), min_size=1, max_size=8))
        chips[at] ^= 1
    elif damage == "truncate":
        chips = chips[: draw(st.integers(0, chips.size - 1))]
    elif damage == "extend":
        tail = draw(st.lists(st.integers(0, 1), min_size=1, max_size=40))
        chips = np.concatenate([chips, np.array(tail, np.uint8)])
    else:
        chips = np.array(draw(st.lists(st.integers(0, 1), max_size=600)), np.uint8)
    return mode, chips


@settings(max_examples=300, deadline=None)
@given(_damaged_frames(), st.integers(0, 3))
def test_damaged_frames_yield_bytes_or_frame_error(damaged, cut):
    """The receive chain is total: whatever the damage, both decoders
    return bytes or raise FrameDecodeError, never another exception.  The
    payload is not checked, since an uncoded mode can decode a damaged
    frame to a wrong payload without an error."""
    mode, chips = damaged
    waveform = _plan(mode)[0][-1](chips, 0.5)
    # a cut of 1-3 samples leaves no whole number of chips
    for decode, signal in ((decode_from_chips, chips), (decode_frame, waveform[cut:])):
        try:
            assert isinstance(decode(signal, mode), bytes)
        except FrameDecodeError:
            pass


def _garbled_rs_blocks(code):
    blocks = np.zeros((2, code.n), np.uint8)
    blocks[0] = np.arange(code.n)  # far outside the code's correction radius
    return blocks


# one input per message of the FEC and frame stages, each pinned in full
_STAGE_ERRORS = {
    "cc_encode_odd": (
        lambda: _cc_encode(_u8([1]), ConvCode(Fraction(2, 3))),
        "rate-2/3 puncturing needs an even bit count",
    ),
    "viterbi_r23_length": (
        lambda: _viterbi_decode(_u8([0] * 4), ConvCode(Fraction(2, 3))),
        "rate-2/3 stream length must be a multiple of 3, got 4",
    ),
    "viterbi_r13_length": (
        lambda: _viterbi_decode(_u8([0] * 5), ConvCode(Fraction(1, 3))),
        "coded length 5 does not fit rate 1/3",
    ),
    "viterbi_r14_length": (
        lambda: _viterbi_decode(_u8([0] * 6), ConvCode(Fraction(1, 4))),
        "coded length 6 does not fit rate 1/4",
    ),
    "viterbi_short": (
        lambda: _viterbi_decode(_u8([0] * 12), ConvCode(Fraction(1, 4))),
        "coded stream shorter than the tail",
    ),
    "rs_uncorrectable": (
        lambda: rs_decode(_garbled_rs_blocks(RsCode(15, 11)), RsCode(15, 11)),
        "RS(15,11): 1 of 2 blocks uncorrectable",
    ),
    "rs_shortened_uncorrectable": (
        lambda: rs_decode(_garbled_rs_blocks(RsCode(14, 7)), RsCode(14, 7)),
        "RS(14,7): 1 of 2 blocks uncorrectable",
    ),
    "frame_manchester_pair_11": (
        lambda: decode_from_chips(
            _overwrite(line_codes._manchester_encode(_u8([0] * 8)), 6, [1, 1]),
            mode_by_name("phy1-ook-100k"),
        ),
        "invalid Manchester chip pair 11 (symbol index 3)",
    ),
    "frame_manchester_pair_00": (
        lambda: decode_from_chips(
            _overwrite(line_codes._manchester_encode(_u8([1] * 8)), 4, [0, 0]),
            mode_by_name("phy1-ook-24k"),
        ),
        "invalid Manchester chip pair 00 (symbol index 2)",
    ),
    "frame_manchester_odd_length": (
        lambda: decode_from_chips(np.zeros(9), mode_by_name("phy1-ook-73k")),
        "chip stream length must be even (symbol index 4)",
    ),
    "frame_4b6b_off_table": (
        lambda: decode_from_chips(
            _overwrite(line_codes._encode_4b6b(_u8([1] * 5)), 12, [1, 1, 1, 0, 0, 0]),
            mode_by_name("phy1-vppm-124k"),
        ),
        "invalid 4B6B codeword 111000 (symbol index 2)",
    ),
    "frame_4b6b_length": (
        lambda: decode_from_chips(
            line_codes._encode_4b6b(_u8([1] * 5))[:-1], mode_by_name("phy1-vppm-266k")
        ),
        "chip stream length must be a multiple of 6 (symbol index 4)",
    ),
    "frame_8b10b_invalid_word": (
        lambda: decode_from_chips(
            _overwrite(line_codes._encode_8b10b(_u8([0, 5, 1])), 10, [0] * 10),
            mode_by_name("phy2-ook-96m"),
        ),
        "invalid 8b10b codeword 0000000000 (symbol index 1)",
    ),
    "frame_8b10b_disparity": (
        # byte 3 at negative disparity, twice: the first word leaves the
        # running disparity positive, where the second is a violation
        lambda: decode_from_chips(
            np.tile(line_codes._encode_8b10b(_u8([3])), 2),
            mode_by_name("phy2-ook-6m"),
        ),
        "8b10b disparity violation in word 1100011011 (symbol index 1)",
    ),
    "frame_8b10b_length": (
        lambda: decode_from_chips(
            line_codes._encode_8b10b(_u8([0, 5, 1]))[:-3], mode_by_name("phy2-ook-96m")
        ),
        "chip stream length must be a multiple of 10 (symbol index 2)",
    ),
    "frame_vppm_tie_in_a_later_block": (
        lambda: decode_frame(_vppm_tie_at(20000), mode_by_name("phy1-vppm-266k")),
        "ambiguous VPPM symbol at index 20000: equal half energies",
    ),
    "frame_samples_not_whole_chips": (
        lambda: decode_frame(np.zeros(5), mode_by_name("phy1-ook-100k")),
        "sample count 5 is not a whole number of chips",
    ),
    "frame_viterbi_length": (
        lambda: decode_from_chips(
            line_codes._manchester_encode(_u8([0] * 5)), mode_by_name("phy1-ook-24k")
        ),
        "coded length 5 does not fit rate 1/3",
    ),
    "frame_viterbi_punctured_length": (
        lambda: decode_from_chips(
            line_codes._manchester_encode(_u8([0] * 4)), mode_by_name("phy1-ook-48k")
        ),
        "rate-2/3 stream length must be a multiple of 3, got 4",
    ),
    "frame_partial_rs_block": (
        lambda: decode_from_chips(
            line_codes._encode_4b6b(_u8([1] * 5)), mode_by_name("phy1-vppm-124k")
        ),
        "5 symbols do not form whole RS(15,7) blocks",
    ),
    "frame_bits_not_nibbles": (
        lambda: decode_from_chips(
            line_codes._manchester_encode(_u8([0] * 6)), mode_by_name("phy1-ook-100k")
        ),
        "bit stream length 6 is not nibble-aligned",
    ),
    "frame_no_prefix": (
        lambda: decode_from_chips(
            line_codes._encode_8b10b(_u8([7])), mode_by_name("phy2-ook-96m")
        ),
        "frame shorter than its length prefix",
    ),
    "frame_prefix_overrun": (
        lambda: decode_from_chips(
            line_codes._encode_8b10b(_u8([0, 5, 1])), mode_by_name("phy2-ook-96m")
        ),
        "length prefix claims 5 bytes but only 1 present",
    ),
}


@pytest.mark.parametrize("case", _STAGE_ERRORS)
def test_stage_error_messages_are_pinned(case):
    call, message = _STAGE_ERRORS[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


# --- the transmit chain checks its input once ---------------------------------
#
# encode_frame checks the payload and dimming, then calls each transmit
# stage on the array the stage before it made.  The reference is the chain
# built here from the payload's bytes, stage by stage.


def _reference_frame(payload, mode, dimming):
    wire = np.frombuffer(len(payload).to_bytes(2, "big") + payload, np.uint8)
    symbols = np.stack([wire >> 4, wire & 0xF], axis=1).ravel()
    rs = mode.outer_code
    if rs is not None:
        blocks = -(-symbols.size // rs.k)
        if mode.line_code is LineCode.EIGHT_B_TEN_B and rs.n % 2 and blocks % 2:
            blocks += 1
        padded = np.zeros(blocks * rs.k, np.uint8)
        padded[: symbols.size] = symbols
        symbols = rs_encode(padded.reshape(blocks, rs.k), rs).ravel()
    if mode.line_code is LineCode.EIGHT_B_TEN_B:
        chips = line_codes._encode_8b10b(symbols[0::2] << 4 | symbols[1::2])
    elif mode.line_code is LineCode.FOUR_B_SIX_B:
        chips = line_codes._encode_4b6b(symbols)
    else:
        bits = ((symbols[:, None] >> np.arange(3, -1, -1)) & 1).ravel().astype(np.uint8)
        if mode.inner_code is not None:
            bits = _cc_encode(bits, mode.inner_code)
        chips = line_codes._manchester_encode(bits)
    if mode.modulation is Modulation.VPPM:
        return chips, _vppm_modulate(chips, dimming)
    return chips, _ook_modulate(chips)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(BOUND_MODES),
    st.binary(max_size=300),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
)
def test_encode_frame_matches_the_chain_of_its_stages(mode, payload, dimming):
    frame = encode_frame(payload, mode, dimming)
    chips, waveform = _reference_frame(payload, mode, dimming)
    assert frame.chips.dtype == chips.dtype and np.array_equal(frame.chips, chips)
    assert frame.waveform.dtype == waveform.dtype and np.array_equal(frame.waveform, waveform)


def test_the_codec_checks_each_input_array_once(monkeypatch):
    """Counted over 16-byte frames in every bound mode: encode_frame and
    decode_frame make no _as_uint8 call (the payload is bytes, a waveform
    is checked as floats), decode_from_chips one, of its chips."""
    calls = 0
    check = line_codes._as_uint8

    def counted(*args):
        nonlocal calls
        calls += 1
        return check(*args)

    monkeypatch.setattr(line_codes, "_as_uint8", counted)
    monkeypatch.setattr(fec, "_as_uint8", counted)

    def count(call, *args):
        nonlocal calls
        calls = 0
        call(*args)
        return calls

    per_mode = {}
    for mode in BOUND_MODES:
        frame = encode_frame(bytes(range(16)), mode)
        per_mode[mode.name] = (
            count(encode_frame, bytes(range(16)), mode),
            count(decode_frame, frame.waveform, mode),
            count(decode_from_chips, frame.chips, mode),
        )
    assert per_mode == {mode.name: (0, 0, 1) for mode in BOUND_MODES}


# --- encoder output pinned to the recorded outputs ----------------------------
#
# SHA-256 over the chips and the waveform of encode_frame for every bound
# mode, at three dimmings and four payload lengths (4097 B spans several
# modulation blocks).  Recorded from the per-call numpy encoders that the
# table-driven line codes and block-wise modulation replaced, with numpy
# 2.4: a numpy release that changes the streams of its seeded Generator
# changes the payloads, and the digests must then be recorded again.  The
# digest hashes each array's dtype string, so the waveforms' move from
# float64 to exact float32 samples (all three dimmings are dyadic)
# changed every entry; hashing ``waveform.astype(np.float64)`` instead
# still gives the float64 entries, so no sample changed value.
# phy1-ook-48k's entry was recorded again when rate 2/3 moved from the
# catastrophic puncturing pattern 110001 to 110100.

_PINNED_FRAMES = {
    "phy1-ook-11k": "087e510698a4bcaaf7a4c5bf2371c9a341cc67ecb15c43eb1ffe0c8e81b9e943",
    "phy1-ook-24k": "af30334ed2a1c1759a43bbbf21a0ffee3e5d05ebeed3741865b0bf696eb405f4",
    "phy1-ook-48k": "f819a88dc2da0adf7d4099d926eca6f95dc92507de9403a4255bd255c3b715a5",
    "phy1-ook-73k": "9a73e67122f6aeb205632d2e36c2ba49aa721d2fd8749db7d1db69a3848c2aa5",
    "phy1-ook-100k": "fea698be306b02c277f9797dd58836fb1f615fe0c48b374b2cc841f0ea753844",
    "phy1-vppm-35k": "b1e999294252f143545457ddbab7631a5da5f236c87adf7ac3cbc448c4d340bd",
    "phy1-vppm-71k": "28ae429bd6185fa59270ad4c6504f561102db3d49992cc796cd19e2336a81e59",
    "phy1-vppm-124k": "3219ffa981b4a0b83c791e425835c16ac46ad8968469b27d64d36a4a996ff63b",
    "phy1-vppm-266k": "d5d45798f948a333efae9bd1f0a1897d1476ccf68a236f359efad4c031d03fd4",
    "phy2-vppm-1m25": "df234dd0f23fb3f77452e97c9943a9380c7209cce39573a36aff64a625ccd982",
    "phy2-vppm-2m": "bfc823525a1c101511e43e451911a8763a499e61ce1cc2bfe175a28fd665c26c",
    "phy2-vppm-2m5": "df234dd0f23fb3f77452e97c9943a9380c7209cce39573a36aff64a625ccd982",
    "phy2-vppm-4m": "bfc823525a1c101511e43e451911a8763a499e61ce1cc2bfe175a28fd665c26c",
    "phy2-vppm-5m": "d5d45798f948a333efae9bd1f0a1897d1476ccf68a236f359efad4c031d03fd4",
    "phy2-ook-6m": "9a0a3191db89e776bfac038fef84fa361e3435251950c46d80a80a3fc7e0f676",
    "phy2-ook-9m6": "0ee4668559a0a66df908301ab2182bbbee67ba9e25abc6755483ef4e3b3f20ab",
    "phy2-ook-12m": "9a0a3191db89e776bfac038fef84fa361e3435251950c46d80a80a3fc7e0f676",
    "phy2-ook-19m2": "0ee4668559a0a66df908301ab2182bbbee67ba9e25abc6755483ef4e3b3f20ab",
    "phy2-ook-24m": "9a0a3191db89e776bfac038fef84fa361e3435251950c46d80a80a3fc7e0f676",
    "phy2-ook-38m4": "0ee4668559a0a66df908301ab2182bbbee67ba9e25abc6755483ef4e3b3f20ab",
    "phy2-ook-48m": "9a0a3191db89e776bfac038fef84fa361e3435251950c46d80a80a3fc7e0f676",
    "phy2-ook-76m8": "0ee4668559a0a66df908301ab2182bbbee67ba9e25abc6755483ef4e3b3f20ab",
    "phy2-ook-96m": "1af44efe155bb208b85e71434dc0b3395ddc667e8ad72cdcceba964f5ef91c55",
}

_DIGEST_PAYLOADS = [
    np.random.default_rng(707).integers(0, 256, size=n, dtype=np.uint8).tobytes()
    for n in (0, 1, 33, 4097)
]


def _frame_digest(mode):
    h = hashlib.sha256()
    for dimming in (0.25, 0.5, 0.75):
        for payload in _DIGEST_PAYLOADS:
            frame = encode_frame(payload, mode, dimming)
            for a in (frame.chips, frame.waveform):
                h.update(f"{a.dtype.str}{a.shape}".encode())
                h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("mode", BOUND_MODES, ids=lambda m: m.name)
def test_encoder_outputs_match_pinned_digest(mode):
    assert _frame_digest(mode) == _PINNED_FRAMES[mode.name]


@pytest.mark.skipif(sys.platform == "win32", reason="needs the resource module")
def test_64k_vppm_round_trip_peak_memory_stays_near_the_waveform(run_fresh):
    """A 64 KiB phy1-vppm-35k frame (a 94 MB float32 waveform) round-trips
    with its peak RSS growing by less than 1.3x the waveform.

    Modulation writes the waveform straight into its output (the pure
    backend a block of chips at a time), and demodulation keeps one byte
    per chip besides O(block) temporaries, so the waveform is the only
    frame-sized float array; a whole-array float64 demodulator peaked at
    1.6x.  Measured in a fresh process, whose peak RSS this one round
    trip sets.
    """
    script = (
        "import resource, numpy as np\n"
        "from owpan.phy.frames import MAX_PAYLOAD, decode_frame, encode_frame\n"
        "from owpan.phy.modes import mode_by_name\n"
        "mode = mode_by_name('phy1-vppm-35k')\n"
        "payload = np.random.default_rng(1).integers(0, 256, MAX_PAYLOAD, np.uint8).tobytes()\n"
        "decode_frame(encode_frame(payload[:64], mode).waveform, mode)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "waveform = encode_frame(payload, mode).waveform\n"
        "assert decode_frame(waveform, mode) == payload\n"
        "grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before\n"
        "print(grown, waveform.nbytes)\n"
    )
    grown, nbytes = map(int, run_fresh(script).split())
    grown_bytes = grown if sys.platform == "darwin" else grown * 1024  # ru_maxrss unit
    assert grown_bytes < 1.3 * nbytes
