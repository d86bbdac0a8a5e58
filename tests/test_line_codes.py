"""Line-code round trips, DC balance, and decoder error reporting."""

import hashlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from owpan.phy.fec import ConvCode, RsCode, cc_encode, rs_decode, rs_encode, viterbi_decode
from owpan.phy.frames import FrameDecodeError, chips_to_hex, decode_frame, decode_from_chips
from owpan.phy.line_codes import (
    TABLE_4B6B,
    LineCodeError,
    _decode_4b6b,
    _decode_8b10b,
    _manchester_decode,
    decode_4b6b,
    decode_8b10b,
    encode_4b6b,
    encode_8b10b,
    manchester_decode,
    manchester_encode,
)
from owpan.phy.modes import mode_by_name
from owpan.phy.modulation import (
    ModulationError,
    ook_demodulate,
    ook_modulate,
    vppm_demodulate,
    vppm_modulate,
)

bit_lists = st.lists(st.integers(0, 1), max_size=200)
nibble_lists = st.lists(st.integers(0, 15), max_size=200)
byte_lists = st.lists(st.integers(0, 255), max_size=200)
disparities = st.sampled_from([-1, 1])


# ---------------------------------------------------------------- Manchester

def test_manchester_bit_mapping():
    chips = manchester_encode([0, 1, 1, 0])
    assert chips.tolist() == [0, 1, 1, 0, 1, 0, 0, 1]


def test_manchester_empty():
    assert manchester_encode([]).size == 0
    assert manchester_decode([]).size == 0


@given(bit_lists)
def test_manchester_round_trip(bits):
    chips = manchester_encode(bits)
    assert manchester_decode(chips).tolist() == bits


@given(st.lists(st.integers(0, 1), min_size=1, max_size=200))
def test_manchester_dc_balance(bits):
    chips = manchester_encode(bits)
    assert int(chips.sum()) * 2 == chips.size


def test_manchester_rejects_odd_length():
    with pytest.raises(LineCodeError):
        manchester_decode([0, 1, 0])


def test_manchester_invalid_pair_index():
    chips = manchester_encode([1, 0, 1, 1]).tolist()
    chips[5] = 1  # third pair becomes 11
    with pytest.raises(LineCodeError) as exc:
        manchester_decode(chips)
    assert exc.value.index == 2
    assert "11" in str(exc.value)


def test_manchester_rejects_non_binary():
    with pytest.raises(ValueError):
        manchester_decode([0, 2])


# ---------------------------------------------------------------------- 4B6B

def test_4b6b_table_shape():
    assert TABLE_4B6B.size == 16
    assert len(set(TABLE_4B6B.tolist())) == 16
    weights = [bin(int(w)).count("1") for w in TABLE_4B6B]
    assert weights == [3] * 16


def test_4b6b_known_word():
    # nibble 0 -> 001110, MSB first
    assert encode_4b6b([0]).tolist() == [0, 0, 1, 1, 1, 0]


@given(nibble_lists)
def test_4b6b_round_trip(nibbles):
    chips = encode_4b6b(nibbles)
    assert chips.size == 6 * len(nibbles)
    assert decode_4b6b(chips).tolist() == nibbles


@given(st.lists(st.integers(0, 15), min_size=1, max_size=200))
def test_4b6b_per_word_balance(nibbles):
    chips = encode_4b6b(nibbles).reshape(-1, 6)
    assert (chips.sum(axis=1) == 3).all()


def test_4b6b_rejects_bad_length():
    with pytest.raises(LineCodeError):
        decode_4b6b([0, 0, 1, 1, 1, 0, 1])


def test_4b6b_invalid_word_index():
    chips = encode_4b6b([5, 9]).tolist()
    chips[6:12] = [1, 1, 1, 0, 0, 0]  # weight 3 but not on the table
    with pytest.raises(LineCodeError) as exc:
        decode_4b6b(chips)
    assert exc.value.index == 1
    assert "111000" in str(exc.value)


def test_4b6b_rejects_nibble_out_of_range():
    with pytest.raises(ValueError):
        encode_4b6b([16])


# -------------------------------------------------------------------- 8b/10b

def test_8b10b_d00_both_disparities():
    # D.0.0 is the textbook pair: 100111 0100 at RD-, 011000 1011 at RD+.
    chips, rd = encode_8b10b([0x00], disparity=-1)
    assert chips.tolist() == [1, 0, 0, 1, 1, 1, 0, 1, 0, 0]
    assert rd == -1
    chips, rd = encode_8b10b([0x00], disparity=+1)
    assert chips.tolist() == [0, 1, 1, 0, 0, 0, 1, 0, 1, 1]
    assert rd == 1


def test_8b10b_d21_5_alternates():
    # D.21.5 is balanced in both halves and insensitive to disparity.
    for rd0 in (-1, 1):
        chips, rd = encode_8b10b([0xB5], disparity=rd0)
        assert chips.tolist() == [1, 0, 1, 0, 1, 0, 1, 0, 1, 0]
        assert rd == rd0


def test_8b10b_empty():
    chips, rd = encode_8b10b([], disparity=1)
    assert chips.size == 0 and rd == 1
    data, rd = decode_8b10b([], disparity=-1)
    assert data.size == 0 and rd == -1
    # integer-like disparities come back as a Python int, empty input or not
    for rd0 in (True, np.int64(1), np.int8(1)):
        for data in ([], [0xB5]):
            rd = encode_8b10b(data, disparity=rd0)[1]
            assert rd == 1 and type(rd) is int
    for data in ([], [0xB5]):
        chips = encode_8b10b(data, disparity=-1)[0]
        rd = decode_8b10b(chips, disparity=np.int16(-1))[1]
        assert rd == -1 and type(rd) is int


@pytest.mark.parametrize("data", [[], [0]])
def test_8b10b_rejects_bad_disparity_argument(data):
    with pytest.raises(ValueError):
        encode_8b10b([0], disparity=0)
    with pytest.raises(ValueError):
        decode_8b10b([], disparity=2)
    chips = encode_8b10b(data)[0]
    for rd in (1.0, -1.0, np.float64(1.0), 0.5, "1", None, np.True_):
        with pytest.raises(ValueError, match="running disparity must be -1 or \\+1"):
            encode_8b10b(data, disparity=rd)
        with pytest.raises(ValueError, match="running disparity must be -1 or \\+1"):
            decode_8b10b(chips, disparity=rd)


def test_8b10b_all_bytes_round_trip():
    data = np.arange(256, dtype=np.uint8)
    for rd0 in (-1, 1):
        chips, rd_enc = encode_8b10b(data, disparity=rd0)
        out, rd_dec = decode_8b10b(chips, disparity=rd0)
        assert out.tolist() == data.tolist()
        assert rd_dec == rd_enc
        # every codeword is balanced to within one chip pair
        counts = chips.reshape(-1, 10).sum(axis=1)
        assert set(counts.tolist()) <= {4, 5, 6}


def test_8b10b_single_words_round_trip():
    for value in range(256):
        for rd0 in (-1, 1):
            chips, rd = encode_8b10b([value], disparity=rd0)
            out, rd2 = decode_8b10b(chips, disparity=rd0)
            assert out.tolist() == [value]
            assert rd2 == rd


@given(byte_lists, disparities)
def test_8b10b_round_trip(data, rd0):
    chips, rd_enc = encode_8b10b(data, disparity=rd0)
    out, rd_dec = decode_8b10b(chips, disparity=rd0)
    assert out.tolist() == data
    assert rd_dec == rd_enc
    assert rd_enc in (-1, 1)


@given(byte_lists, byte_lists, disparities)
def test_8b10b_chaining(head, tail, rd0):
    """Encoding in two chunks with the carried disparity matches one call."""
    chips_a, rd_mid = encode_8b10b(head, disparity=rd0)
    chips_b, rd_end = encode_8b10b(tail, disparity=rd_mid)
    chips_all, rd_all = encode_8b10b(head + tail, disparity=rd0)
    assert np.concatenate([chips_a, chips_b]).tolist() == chips_all.tolist()
    assert rd_all == rd_end


@settings(max_examples=50)
@given(st.lists(st.integers(0, 255), min_size=1, max_size=500), disparities)
def test_8b10b_running_balance_bounded(data, rd0):
    """The chip-stream imbalance at word boundaries never exceeds one pair."""
    chips, _ = encode_8b10b(data, disparity=rd0)
    word_disp = chips.reshape(-1, 10).sum(axis=1).astype(np.int64) * 2 - 10
    running = np.cumsum(word_disp)
    assert set(np.abs(running).tolist()) <= {0, 2}


def test_8b10b_invalid_codeword_index():
    chips, _ = encode_8b10b([0x4A], disparity=-1)
    bad = chips.tolist() + [0] * 10  # 0000000000 is not a codeword
    with pytest.raises(LineCodeError) as exc:
        decode_8b10b(bad, disparity=-1)
    assert exc.value.index == 1
    assert "invalid" in str(exc.value)


def test_8b10b_disparity_violation_detected():
    # the RD- form of D.0.0 presented at RD+ runs the imbalance the wrong way
    chips, _ = encode_8b10b([0x00], disparity=-1)
    with pytest.raises(LineCodeError) as exc:
        decode_8b10b(chips, disparity=+1)
    assert "disparity" in str(exc.value)
    assert exc.value.index == 0


def test_8b10b_rejects_bad_length():
    with pytest.raises(LineCodeError):
        decode_8b10b([0, 1] * 7)


def _8b10b_outcome(call, x, rd):
    """Output bytes and disparity out, or error message and index."""
    try:
        out, rd_out = call(x, disparity=rd)
    except LineCodeError as exc:
        return f"{exc}|{exc.index}"
    return f"{bytes(out).hex()}|{rd_out}"


def test_8b10b_every_word_matches_pinned_digest():
    """Every byte encoded and every 10-chip word decoded, at both running
    disparities, including the errors the decoder reports."""
    words = ((np.arange(1024)[:, None] >> np.arange(9, -1, -1)) & 1).astype(np.uint8)
    lines = []
    for rd in (-1, 1):
        lines += [_8b10b_outcome(encode_8b10b, [b], rd) for b in range(256)]
        lines += [_8b10b_outcome(decode_8b10b, w, rd) for w in words]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "f82de5b3907e29de7c3e167ebc5b4d585fc945e92edb714aa9a4ec3ebd8d91cd"


def test_8b10b_reports_the_first_bad_word_of_either_kind():
    # the RD- form of D.0.0 violates disparity at RD+; 0000000000 is off the
    # code and leaves the running disparity where it was
    violation = encode_8b10b([0x00], disparity=-1)[0].tolist()
    invalid = [0] * 10
    with pytest.raises(LineCodeError) as exc:
        decode_8b10b(violation + invalid, disparity=+1)
    assert exc.value.index == 0 and "disparity" in str(exc.value)
    with pytest.raises(LineCodeError) as exc:
        decode_8b10b(invalid + violation, disparity=+1)
    assert exc.value.index == 0 and "invalid" in str(exc.value)


# ------------------------------------------- symbol range checked before the cast

# every entry point that casts its symbols to uint8, called on a 1-D pair
# of values resized to the shape it takes
_UINT8_ENTRY_POINTS = {
    "ook_modulate": ook_modulate,
    "vppm_modulate": lambda x: vppm_modulate(x, 0.5),
    "manchester_encode": manchester_encode,
    "manchester_decode": manchester_decode,
    "encode_4b6b": encode_4b6b,
    "decode_4b6b": lambda x: decode_4b6b(np.resize(x, 6)),
    "encode_8b10b": encode_8b10b,
    "decode_8b10b": lambda x: decode_8b10b(np.resize(x, 10)),
    "rs_encode": lambda x: rs_encode(np.resize(x, (1, 11)), RsCode(15, 11)),
    "rs_decode": lambda x: rs_decode(np.resize(x, (1, 15)), RsCode(15, 11)),
    "cc_encode": lambda x: cc_encode(x, ConvCode(Fraction(1, 3))),
    "viterbi_decode": lambda x: viterbi_decode(np.resize(x, 24), ConvCode(Fraction(1, 3))),
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
# and starting with its message (the demodulators add numpy's text).

_BITS = (ValueError, "bits must contain only 0s and 1s")
_CHIPS = (ValueError, "chips must contain only 0s and 1s")
_SAMPLES = (ModulationError, "samples must be real numbers: setting an array element")
_RAGGED_ERRORS = {
    "manchester_encode": (manchester_encode, *_BITS),
    "manchester_decode": (manchester_decode, *_CHIPS),
    "encode_4b6b": (encode_4b6b, ValueError, "nibbles must lie in 0..15"),
    "decode_4b6b": (decode_4b6b, *_CHIPS),
    "encode_8b10b": (encode_8b10b, ValueError, "data must hold byte values 0..255"),
    "decode_8b10b": (decode_8b10b, *_CHIPS),
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
    "cc_encode": (lambda x: cc_encode(x, ConvCode(Fraction(1, 3))), *_BITS),
    "viterbi_decode": (
        lambda x: viterbi_decode(x, ConvCode(Fraction(1, 3))),
        ValueError,
        "coded bits must contain only 0s and 1s",
    ),
    "ook_modulate": (ook_modulate, *_CHIPS),
    "vppm_modulate": (lambda x: vppm_modulate(x, 0.5), *_CHIPS),
    "ook_demodulate": (ook_demodulate, *_SAMPLES),
    "vppm_demodulate": (vppm_demodulate, *_SAMPLES),
    "chips_to_hex": (chips_to_hex, *_CHIPS),
    "decode_frame": (
        lambda x: decode_frame(x, mode_by_name("phy1-ook-11k")),
        FrameDecodeError,
        _SAMPLES[1],
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
    return [np.asarray(r).tolist() for r in (result if isinstance(result, tuple) else (result,))]


# ------------------------------------- private forms: (values, bad) per word
#
# Each decoder's private form returns its values and a mask of bad words;
# the public decoder must raise exactly when the mask marks a word, at the
# first one, with the message it has always given.

_LINE_STAGES = {
    # encoder of random byte values, word width, public decoder, private
    # form, and the message of a bad word by its mask value
    "manchester": (
        lambda v: manchester_encode(v & 1),
        2,
        manchester_decode,
        _manchester_decode,
        {1: "invalid Manchester chip pair"},
    ),
    "4b6b": (
        lambda v: encode_4b6b(v & 15),
        6,
        decode_4b6b,
        _decode_4b6b,
        {1: "invalid 4B6B codeword"},
    ),
    "8b10b": (
        lambda v: encode_8b10b(v)[0],
        10,
        decode_8b10b,
        lambda chips: _decode_8b10b(chips, -1),
        {1: "invalid 8b10b codeword", 2: "8b10b disparity violation in word"},
    ),
}


def _as_lists(values):
    return [np.asarray(v).tolist() for v in (values if isinstance(values, tuple) else (values,))]


@pytest.mark.parametrize("code", _LINE_STAGES)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_public_decoder_raises_exactly_at_the_first_bad_word_of_the_private_form(code, data):
    encode, width, decode, form, kinds = _LINE_STAGES[code]
    chips = encode(np.array(data.draw(byte_lists.map(lambda v: v[:40])), dtype=np.uint8))
    nwords = chips.size // width
    if nwords:
        # overwrite a few words with arbitrary chips, valid or not
        for i in data.draw(st.lists(st.integers(0, nwords - 1), max_size=3)):
            chips[i * width : (i + 1) * width] = data.draw(
                st.lists(st.integers(0, 1), min_size=width, max_size=width)
            )
    values, bad = form(chips)
    assert len(bad) == nwords
    if not bad.any():
        assert _as_lists(decode(chips)) == _as_lists(values)
        return
    first = int(np.flatnonzero(bad)[0])
    word = "".join(str(c) for c in chips[first * width : (first + 1) * width])
    with pytest.raises(LineCodeError) as exc:
        decode(chips)
    assert type(exc.value) is LineCodeError
    assert exc.value.index == first
    assert str(exc.value) == f"{kinds[int(bad[first])]} {word} (symbol index {first})"
