"""Full transmit/receive chain tests across the bound PHY modes."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from owpan.phy import line_codes
from owpan.phy.frames import (
    MAX_PAYLOAD,
    FrameDecodeError,
    chips_from_hex,
    chips_to_hex,
    decode_frame,
    decode_from_chips,
    encode_frame,
    encode_to_chips,
)
from owpan.phy.modes import LineCode, Modulation, mode_by_name, phy_mode_catalog

GOLDEN = Path(__file__).parent / "golden" / "frame_phy1_ook_11k.hex"

BOUND_MODES = [m for m in phy_mode_catalog() if m.bound]
PAYLOADS = [b"", b"\x00", b"hi", b"W-OWPAN frame golden.", bytes(range(256))]


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


def test_vppm_waveform_mean_tracks_dimming():
    mode = mode_by_name("phy1-vppm-35k")
    for dimming in (0.25, 0.5, 0.75):
        frame = encode_frame(b"dim", mode, dimming=dimming)
        assert frame.waveform.mean() == pytest.approx(dimming, abs=1e-12)


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
    word = line_codes.encode_4b6b([9])
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
        chips[6 * i : 6 * i + 6] = line_codes.encode_4b6b([(i * 3 + 1) % 16])
    with pytest.raises(FrameDecodeError):
        decode_from_chips(chips, mode)


def test_truncated_stream_detected():
    mode = mode_by_name("phy2-ook-6m")
    chips = encode_to_chips(b"truncate me", mode)
    with pytest.raises(FrameDecodeError):
        decode_from_chips(chips[:-10], mode)  # drop one whole 8b10b word


def test_length_prefix_overrun_detected():
    # a bare prefix claiming five bytes with nothing after it
    chips, _ = line_codes.encode_8b10b([0, 5])
    with pytest.raises(FrameDecodeError) as exc:
        decode_from_chips(chips, mode_by_name("phy2-ook-96m"))
    assert "length prefix" in str(exc.value)


def test_stream_shorter_than_prefix_detected():
    chips, _ = line_codes.encode_8b10b([7])
    with pytest.raises(FrameDecodeError):
        decode_from_chips(chips, mode_by_name("phy2-ook-96m"))


def test_payload_size_limits():
    mode = mode_by_name("phy2-ook-96m")
    with pytest.raises(ValueError):
        encode_to_chips(bytes(MAX_PAYLOAD + 1), mode)
    big = bytes(np.random.default_rng(0).integers(0, 256, MAX_PAYLOAD, dtype=np.uint8))
    assert decode_from_chips(encode_to_chips(big, mode), mode) == big


def test_catalog_only_modes_rejected():
    with pytest.raises(ValueError):
        encode_to_chips(b"x", mode_by_name("phy3-csk"))
    with pytest.raises(ValueError):
        decode_frame(np.zeros(4), mode_by_name("phy5-mpm"))


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
