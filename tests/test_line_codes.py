"""Line-code round trips, DC balance, and decoder error reporting."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from owpan._kernels import _BLOCK, _pure
from owpan.phy import frames, line_codes
from owpan.phy.fec import RsCode, rs_decode, rs_encode
from owpan.phy.frames import FrameDecodeError, chips_to_hex, decode_frame, decode_from_chips
from owpan.phy.line_codes import (
    TABLE_4B6B,
    _bad_word,
    _decode_words,
    _encode_4b6b,
    _encode_8b10b,
    _manchester_encode,
)
from owpan.phy.modes import mode_by_name

bit_lists = st.lists(st.integers(0, 1), max_size=200)
nibble_lists = st.lists(st.integers(0, 15), max_size=200)
byte_lists = st.lists(st.integers(0, 255), max_size=200)
disparities = st.sampled_from([-1, 1])


def _u8(values):
    # the checked uint8 array the frame chains hand each stage
    return np.array(values, dtype=np.uint8)


# each line code's word width and decode_words tables
_MANCHESTER = (2, line_codes._MANCHESTER_BIT, line_codes._MANCHESTER_BAD)
_4B6B = (6, line_codes._REV_4B6B, line_codes._BAD_4B6B)
_8B10B = (10, line_codes._DEC_BYTE, line_codes._DEC_STATUS, line_codes._DEC_FLIP)


def _decoded(code, chips):
    """The words of ``chips`` under one line code's ``(width, *tables)``,
    raising at the first bad word as the receive chain does."""
    chips = _u8(chips)
    values, bad = _decode_words(chips, *code)
    if bad.any():
        raise _bad_word(chips, code[0], bad, int(np.flatnonzero(bad)[0]))
    return values


# ---------------------------------------------------------------- Manchester

def test_manchester_bit_mapping():
    chips = _manchester_encode(_u8([0, 1, 1, 0]))
    assert chips.tolist() == [0, 1, 1, 0, 1, 0, 0, 1]


def test_manchester_empty():
    assert _manchester_encode(_u8([])).size == 0
    bits, bad = _decode_words(_u8([]), *_MANCHESTER)
    assert bits.size == 0 and bad.size == 0


@given(bit_lists)
def test_manchester_round_trip(bits):
    chips = _manchester_encode(_u8(bits))
    out, bad = _decode_words(chips, *_MANCHESTER)
    assert out.tolist() == bits and not bad.any()


@given(st.lists(st.integers(0, 1), min_size=1, max_size=200))
def test_manchester_dc_balance(bits):
    chips = _manchester_encode(_u8(bits))
    assert int(chips.sum()) * 2 == chips.size


def test_manchester_rejects_odd_length():
    with pytest.raises(ValueError, match=r"^chip stream length must be even \(symbol index 1\)$"):
        _decode_words(_u8([0, 1, 0]), *_MANCHESTER)


def test_manchester_invalid_pair_index():
    chips = _manchester_encode(_u8([1, 0, 1, 1]))
    chips[5] = 1  # third pair becomes 11
    assert _decode_words(chips, *_MANCHESTER)[1].tolist() == [False, False, True, False]
    with pytest.raises(ValueError, match=r"^invalid Manchester chip pair 11 \(symbol index 2\)$"):
        _decoded(_MANCHESTER, chips)


# ---------------------------------------------------------------------- 4B6B

def test_4b6b_table_shape():
    assert TABLE_4B6B.size == 16
    assert len(set(TABLE_4B6B.tolist())) == 16
    weights = [bin(int(w)).count("1") for w in TABLE_4B6B]
    assert weights == [3] * 16


def test_4b6b_known_word():
    # nibble 0 -> 001110, MSB first
    assert _encode_4b6b(_u8([0])).tolist() == [0, 0, 1, 1, 1, 0]


@given(nibble_lists)
def test_4b6b_round_trip(nibbles):
    chips = _encode_4b6b(_u8(nibbles))
    assert chips.size == 6 * len(nibbles)
    assert _decoded(_4B6B, chips).tolist() == nibbles


@given(st.lists(st.integers(0, 15), min_size=1, max_size=200))
def test_4b6b_per_word_balance(nibbles):
    chips = _encode_4b6b(_u8(nibbles)).reshape(-1, 6)
    assert (chips.sum(axis=1) == 3).all()


def test_4b6b_rejects_bad_length():
    with pytest.raises(ValueError, match="multiple of 6"):
        _decode_words(_u8([0, 0, 1, 1, 1, 0, 1]), *_4B6B)


def test_4b6b_invalid_word_index():
    chips = _encode_4b6b(_u8([5, 9]))
    chips[6:12] = [1, 1, 1, 0, 0, 0]  # weight 3 but not on the table
    with pytest.raises(ValueError, match=r"^invalid 4B6B codeword 111000 \(symbol index 1\)$"):
        _decoded(_4B6B, chips)


# -------------------------------------------------------------------- 8b/10b
#
# Every frame starts at running disparity -1.  A word is reached at +1 by
# leading it with byte 3, whose D.3.0 word is unbalanced: it leaves -1 for +1.

_LEAD = {-1: [], 1: [3]}


def _encode_at(data, rd):
    """The 8b/10b chips of ``data`` encoded from running disparity ``rd``."""
    lead = _LEAD[rd]
    return _encode_8b10b(_u8(lead + list(data)))[10 * len(lead) :]


def _decode_at(chips, rd):
    """``(bytes, status)`` of ``chips`` decoded from running disparity ``rd``."""
    lead = _LEAD[rd]
    chips = np.concatenate([_encode_8b10b(_u8(lead)), _u8(chips)])
    data, status = _decode_words(chips, *_8B10B)
    return data[len(lead) :], status[len(lead) :]


def test_8b10b_d00_both_disparities():
    # the lead byte's D.3.0 at RD-, 110001 1011, has six ones
    assert _encode_8b10b(_u8(_LEAD[1])).tolist() == [1, 1, 0, 0, 0, 1, 1, 0, 1, 1]
    # D.0.0 is the textbook pair: 100111 0100 at RD-, 011000 1011 at RD+.
    assert _encode_at([0x00], -1).tolist() == [1, 0, 0, 1, 1, 1, 0, 1, 0, 0]
    assert _encode_at([0x00], 1).tolist() == [0, 1, 1, 0, 0, 0, 1, 0, 1, 1]


def test_8b10b_d21_5_alternates():
    # D.21.5 is balanced in both halves and insensitive to disparity.
    for rd0 in (-1, 1):
        assert _encode_at([0xB5], rd0).tolist() == [1, 0, 1, 0, 1, 0, 1, 0, 1, 0]


def test_8b10b_empty():
    assert _encode_8b10b(_u8([])).size == 0
    data, status = _decode_words(_u8([]), *_8B10B)
    assert data.size == 0 and status.size == 0


def test_8b10b_all_bytes_round_trip():
    data = np.arange(256, dtype=np.uint8)
    for rd0 in (-1, 1):
        chips = _encode_at(data, rd0)
        out, status = _decode_at(chips, rd0)
        assert out.tolist() == data.tolist() and not status.any()
        # every codeword is balanced to within one chip pair
        counts = chips.reshape(-1, 10).sum(axis=1)
        assert set(counts.tolist()) <= {4, 5, 6}


def test_8b10b_single_words_round_trip():
    """Every byte, alone, at both running disparities."""
    for value in range(256):
        for rd0 in (-1, 1):
            out, status = _decode_at(_encode_at([value], rd0), rd0)
            assert out.tolist() == [value] and status.tolist() == [0]


@given(byte_lists, disparities)
def test_8b10b_round_trip(data, rd0):
    out, status = _decode_at(_encode_at(data, rd0), rd0)
    assert out.tolist() == data and not status.any()


@settings(max_examples=50)
@given(st.lists(st.integers(0, 255), min_size=1, max_size=500))
def test_8b10b_running_balance_bounded(data):
    """The chip-stream imbalance at word boundaries never exceeds one pair."""
    chips = _encode_8b10b(_u8(data))
    word_disp = chips.reshape(-1, 10).sum(axis=1).astype(np.int64) * 2 - 10
    running = np.cumsum(word_disp)
    assert set(np.abs(running).tolist()) <= {0, 2}


def test_8b10b_invalid_codeword_index():
    chips = np.concatenate([_encode_8b10b(_u8([0x4A])), np.zeros(10, np.uint8)])
    # 0000000000 is not a codeword
    assert _decode_words(chips, *_8B10B)[1].tolist() == [0, 1]
    with pytest.raises(ValueError, match=r"^invalid 8b10b codeword 0000000000 \(symbol index 1\)$"):
        _decoded(_8B10B, chips)


def test_8b10b_disparity_violation_detected():
    # the RD- form of D.0.0 presented at RD+ runs the imbalance the wrong way
    chips = _encode_at([0x00], -1)
    assert _decode_at(chips, 1)[1].tolist() == [2]
    behind_d30 = np.concatenate([_encode_8b10b(_u8([3])), chips])
    assert _decode_words(behind_d30, *_8B10B)[1].tolist() == [0, 2]


def test_8b10b_rejects_bad_length():
    with pytest.raises(ValueError, match="multiple of 10"):
        _decode_words(_u8([0, 1] * 7), *_8B10B)


def _8b10b_line(out, chips, status, rd):
    """One word's line of the digest: its output and the disparity after it
    (a valid word moves the disparity by its own imbalance), or its error."""
    if status[0]:
        return f"{_bad_word(chips, 10, status, 0)}|0"
    return f"{bytes(out).hex()}|{rd + 2 * int(chips.sum()) - 10}"


def test_8b10b_every_word_matches_pinned_digest():
    """Every byte encoded and every 10-chip word decoded, at both running
    disparities, including the errors the decoder reports."""
    words = ((np.arange(1024)[:, None] >> np.arange(9, -1, -1)) & 1).astype(np.uint8)
    lines = []
    for rd in (-1, 1):
        for b in range(256):
            chips = _encode_at([b], rd)
            lines.append(_8b10b_line(chips, chips, np.zeros(1, np.uint8), rd))
        for w in words:
            out, status = _decode_at(w, rd)
            lines.append(_8b10b_line(out, w, status, rd))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "f82de5b3907e29de7c3e167ebc5b4d585fc945e92edb714aa9a4ec3ebd8d91cd"


def test_8b10b_reports_the_first_bad_word_of_either_kind():
    # at RD+, behind the lead word: the RD- form of D.0.0 is a violation;
    # 0000000000 is off the code and leaves the running disparity where it was
    lead = _encode_8b10b(_u8(_LEAD[1])).tolist()
    violation = _encode_at([0x00], -1).tolist()
    invalid = [0] * 10
    with pytest.raises(ValueError, match=r"^8b10b disparity violation .* \(symbol index 1\)$"):
        _decoded(_8B10B, lead + violation + invalid)
    with pytest.raises(ValueError, match=r"^invalid 8b10b codeword .* \(symbol index 1\)$"):
        _decoded(_8B10B, lead + invalid + violation)


# ------------------------------------------- symbol range checked before the cast

# every entry point that casts its symbols to uint8, called on a 1-D pair
# of values resized to the shape it takes
_UINT8_ENTRY_POINTS = {
    "rs_encode": lambda x: rs_encode(np.resize(x, (1, 11)), RsCode(15, 11)),
    "rs_decode": lambda x: rs_decode(np.resize(x, (1, 15)), RsCode(15, 11)),
    "chips_to_hex": chips_to_hex,
}


@pytest.mark.parametrize("entry", sorted(_UINT8_ENTRY_POINTS))
def test_values_the_uint8_cast_would_change_are_rejected(entry):
    """256 would wrap to 0, -255 to 1 and 0.5 truncate to 0: each raises a
    plain ValueError, as arrays and as lists, instead of being encoded."""
    call = _UINT8_ENTRY_POINTS[entry]
    for bad in (256, -255, 0.5, np.nan):
        for x in (np.array([bad, 1]), [bad, 1]):
            with pytest.raises(ValueError) as exc:
                call(x)
            assert exc.type is ValueError, (bad, type(x))
    # floats that the cast keeps behave as the same uint8 values (the
    # resized pair is no RS codeword, so rs_decode raises on both)
    assert _outcome(call, np.array([1.0, 0.0])) == _outcome(call, np.array([1, 0], np.uint8))


@pytest.mark.parametrize("entry", sorted(_UINT8_ENTRY_POINTS))
def test_values_the_uint8_cast_cannot_make_get_the_checks_own_message(entry):
    """Integers beyond int64 (an OverflowError in the cast) and text (a
    ValueError of numpy's own) raise the same plain ValueError, with the
    same message, as a value of 256 does."""
    call = _UINT8_ENTRY_POINTS[entry]
    expected = _outcome(call, np.array([256, 1]))
    for bad in ([2**70, 1], [-(2**70), 1], [2**2000, 1], np.array(["a", "b"])):
        assert _outcome(call, bad) == expected, bad


def test_chips_to_hex_rejects_a_chip_of_two():
    # the 2 would pack to nibble 16 and vanish from the dump
    with pytest.raises(ValueError, match="only 0s and 1s"):
        chips_to_hex(np.array([2, 0, 0, 0, 1, 1, 1, 1]))


# A ragged nesting fails numpy's own conversion to an array.  Every public
# PHY function must still raise its own check's error, of the entry's type
# and starting with its message (a waveform's adds numpy's text).

_CHIPS = (ValueError, "chips must contain only 0s and 1s")
_RAGGED_ERRORS = {
    "rs_encode": (
        lambda x: rs_encode(x, RsCode(15, 11)),
        ValueError,
        "data symbols must lie in 0..15",
    ),
    "rs_decode": (
        lambda x: rs_decode(x, RsCode(15, 11)),
        ValueError,
        "blocks symbols must lie in 0..15",
    ),
    "chips_to_hex": (chips_to_hex, *_CHIPS),
    "decode_frame": (
        lambda x: decode_frame(x, mode_by_name("phy1-ook-11k")),
        FrameDecodeError,
        "samples must be real numbers: setting an array element",
    ),
    "decode_from_chips": (
        lambda x: decode_from_chips(x, mode_by_name("phy1-ook-11k")),
        FrameDecodeError,
        _CHIPS[1],
    ),
}


@pytest.mark.parametrize("entry", sorted(_RAGGED_ERRORS))
@pytest.mark.parametrize("ragged", [[[1], [1, 0]], [[0, 1], [1]], [1, [0, 1]]])
def test_ragged_input_gets_the_checks_own_error(entry, ragged):
    call, error, message = _RAGGED_ERRORS[entry]
    with pytest.raises(ValueError) as exc:
        call(ragged)
    assert exc.type is error
    assert str(exc.value).startswith(message)


def _outcome(call, x):
    try:
        result = call(x)
    except ValueError as exc:
        return type(exc), str(exc)
    return np.asarray(result).tolist()


# --- table lookups taken in blocks --------------------------------------------
#
# On the pure backend, every uint8- or uint16-indexed table lookup of the
# line codes and the frame's nibble packing goes through _pure._take,
# _BLOCK indices per np.take call.  Across the block edges it must give
# plain fancy indexing, and on every backend each codec must round-trip
# with a bad word reported at its global index.

_BLOCK_SIZES = [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3]

_LOOKUPS = {
    "chips_4b6b": (line_codes._CHIPS_4B6B, np.uint8),
    "rev_4b6b": (line_codes._REV_4B6B, np.uint8),
    "enc_flip": (line_codes._ENC_FLIP, np.uint8),
    "enc_chips": (line_codes._ENC_CHIPS, np.uint16),
    "dec_flip": (line_codes._DEC_FLIP, np.uint16),
    "dec_byte": (line_codes._DEC_BYTE, np.uint16),
    "dec_status": (line_codes._DEC_STATUS, np.uint16),
    "byte_nibbles": (frames._BYTE_NIBBLES, np.uint8),
    "nibble_bits": (frames._NIBBLE_BITS, np.uint8),
}


@pytest.mark.parametrize("n", _BLOCK_SIZES)
@pytest.mark.parametrize("name", sorted(_LOOKUPS))
def test_blocked_lookup_equals_fancy_indexing(name, n):
    table, index_dtype = _LOOKUPS[name]
    index = np.random.default_rng(n).integers(0, len(table), n).astype(index_dtype)
    taken = _pure._take(table, index)
    assert taken.dtype == table.dtype
    assert np.array_equal(taken, table[index])


@pytest.mark.parametrize("n", _BLOCK_SIZES)
def test_4b6b_round_trips_across_block_edges(n):
    nibbles = np.random.default_rng(n).integers(0, 16, n).astype(np.uint8)
    chips = _encode_4b6b(nibbles)
    assert np.array_equal(chips, line_codes._CHIPS_4B6B[nibbles].ravel())
    assert np.array_equal(_decoded(_4B6B, chips), nibbles)
    chips[6 * (n - 1) : 6 * n] = [1, 1, 1, 0, 0, 0]  # off the table, in the last block
    assert np.flatnonzero(_decode_words(chips, *_4B6B)[1]).tolist() == [n - 1]


@pytest.mark.parametrize("n", _BLOCK_SIZES)
@pytest.mark.parametrize("rd0", [-1, 1])
def test_8b10b_round_trips_across_block_edges(n, rd0):
    data = np.random.default_rng(n).integers(0, 256, n).astype(np.uint8)
    chips = _encode_at(data, rd0)
    back, status = _decode_at(chips, rd0)
    assert np.array_equal(back, data) and not status.any()
    chips[10 * (n - 1) : 10 * n] = 0  # off the code, in the last block
    assert np.flatnonzero(_decode_at(chips, rd0)[1]).tolist() == [n - 1]


@pytest.mark.parametrize("n", _BLOCK_SIZES)
def test_frame_nibble_packing_round_trips_across_block_edges(n):
    data = np.random.default_rng(n).integers(0, 256, n).astype(np.uint8)
    nibbles = frames._bytes_to_nibbles(data)
    assert np.array_equal(nibbles[0::2], data >> 4) and np.array_equal(nibbles[1::2], data & 15)
    assert np.array_equal(frames._nibbles_to_bytes(nibbles), data)
    bits = frames._nibbles_to_bits(nibbles)
    assert np.array_equal(bits, np.unpackbits(data))
