"""Manchester, 4B6B, and 8b/10b line codes over 0/1 chip arrays.

All three codecs are table-driven and vectorized; inputs and outputs are
numpy uint8 arrays of bits/chips (or nibble/byte values where stated).
Chip order within a codeword is MSB first throughout.

Each encoder is a transmit stage: its private form takes a checked
array and only encodes it, and the public encoder is its input check
followed by that form.  Each decoder is a receive stage: its private form
takes checked chips and returns ``(values, bad)``, ``bad`` marking each
invalid word (8b/10b gives its ``_DEC_STATUS``, nonzero when bad); a
stream of no whole number of words raises there.  The public decoder
checks its input, calls the private form, then raises at the first bad
word through the shared :func:`_raise_first`.  The frame chains check
their input once and call the private forms only.  A value that the
uint8 cast cannot convert (an int beyond int64, text) fails the check
with its own message, as 256 does.

The 8b/10b here is the IBM data-character code (5b/6b + 3b/4b with running
disparity and the alternate D.x.A7 encoding); control (K) characters are
not needed by any PHY mode and are treated as invalid.  Its rules are
evaluated once, at import, over all 256 bytes and all 1024 words at both
running disparities.  Whether a word flips the disparity does not depend
on the state, so a call takes the disparity before each word from a
prefix xor of the flips and then reads its chips, or its byte and
validity, from those tables.  The decoder accepts what the rules accept
(330 words at each disparity), not only the 256 the encoder emits there.
"""

from __future__ import annotations

import operator

import numpy as np

__all__ = [
    "LineCodeError",
    "manchester_encode",
    "manchester_decode",
    "encode_4b6b",
    "decode_4b6b",
    "encode_8b10b",
    "decode_8b10b",
    "TABLE_4B6B",
]


class LineCodeError(ValueError):
    """A decoder met an invalid symbol; ``index`` is the symbol position."""

    def __init__(self, message: str, index: int) -> None:
        super().__init__(f"{message} (symbol index {index})")
        self.index = index


def _as_uint8(x, top: int, message: str) -> np.ndarray:
    """``x`` cast to uint8, or ValueError(message) unless it holds integers
    in 0..top only: 256, -255, 0.5, NaN, complex values and None would not
    survive the cast."""
    try:
        arr = np.asarray(x)
        if arr.dtype != np.uint8:
            if arr.dtype.kind == "c":  # the cast would only warn
                raise ValueError(message)
            with np.errstate(invalid="ignore"):
                cast = arr.astype(np.uint8)
            if not np.array_equal(cast, arr):
                raise ValueError(message)
            arr = cast
    except (TypeError, ValueError, OverflowError):
        # a ragged nesting, an object array holding None, a complex number
        # or an int beyond int64, or text that is no number
        raise ValueError(message) from None
    if top < 255 and arr.size and np.maximum.reduce(arr, axis=None) > top:
        raise ValueError(message)
    return arr


def _as_bits(x, name: str) -> np.ndarray:
    return _as_uint8(x, 1, f"{name} must contain only 0s and 1s").ravel()


def _raise_first(bad, error) -> None:
    """Raise ``error(i)`` at the first symbol ``i`` that ``bad`` marks with
    a nonzero entry; return if none is marked or ``bad`` is None.  Every
    receive stage reports its first bad symbol through this."""
    if bad is not None and bad.any():
        raise error(int(np.flatnonzero(bad)[0]))


# what a bad word is called, by code width and bad value
_BAD_WORD = {
    2: {1: "invalid Manchester chip pair"},
    6: {1: "invalid 4B6B codeword"},
    10: {1: "invalid 8b10b codeword", 2: "8b10b disparity violation in word"},
}


def _raise_bad_word(chips: np.ndarray, width: int, bad: np.ndarray) -> None:
    """LineCodeError at the first ``width``-chip word of ``chips`` that
    ``bad`` marks, naming the word's chips."""

    def error(i: int) -> LineCodeError:
        word = "".join(map(str, chips[i * width : (i + 1) * width].tolist()))
        return LineCodeError(f"{_BAD_WORD[width][int(bad[i])]} {word}", i)

    _raise_first(bad, error)


# indices per np.take call: take copies a uint8 or uint16 index array to
# 8-byte intp, so a lookup in blocks keeps that copy O(block)
_BLOCK = 1 << 14


def _take(table: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``table[index]`` along axis 0, taken ``_BLOCK`` indices at a time.
    Every index is in range by construction, so ``mode="clip"``, which
    lets take write into ``out`` unbuffered, never clips one."""
    # one call for a short index: the loop's extra empty() and out= cost
    # 16-byte frame round trips about 10%
    if index.size <= _BLOCK:
        return table.take(index, axis=0, mode="clip")
    out = np.empty(index.shape + table.shape[1:], dtype=table.dtype)
    for i in range(0, index.size, _BLOCK):
        table.take(index[i : i + _BLOCK], axis=0, out=out[i : i + _BLOCK], mode="clip")
    return out


def _chip_table(words: np.ndarray, width: int) -> np.ndarray:
    # row i: the ``width`` chips of words[i], MSB first
    return ((words[:, None] >> np.arange(width - 1, -1, -1)) & 1).astype(np.uint8)


# MSB-first chip weights of a word, in the narrowest dtype that holds it
_WEIGHTS = {w: 1 << np.arange(w - 1, -1, -1, dtype=np.uint8) for w in (4, 6)}
_WEIGHTS[10] = 1 << np.arange(9, -1, -1, dtype=np.uint16)


def _pack(chips: np.ndarray, width: int) -> np.ndarray:
    """Pack each group of ``width`` chips, MSB first, into one word."""
    return chips.reshape(-1, width) @ _WEIGHTS[width]


# Manchester: bit 0 -> chips 01, bit 1 -> chips 10 (IEEE convention:
# the chip pair carries the bit in its leading half).

def _manchester_encode(bits: np.ndarray) -> np.ndarray:
    chips = np.empty(bits.size * 2, dtype=np.uint8)
    chips[0::2] = bits
    chips[1::2] = bits ^ 1
    return chips


def manchester_encode(bits) -> np.ndarray:
    """Expand each bit to its two-chip Manchester symbol."""
    return _manchester_encode(_as_bits(bits, "bits"))


def _manchester_decode(chips: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # (bits, bad): bad marks each 00 or 11 pair
    if chips.size % 2:
        raise LineCodeError("chip stream length must be even", chips.size // 2)
    first = chips[0::2]
    return first.copy(), first == chips[1::2]


def manchester_decode(chips) -> np.ndarray:
    """Collapse chip pairs back to bits; 00 and 11 pairs are invalid."""
    chips = _as_bits(chips, "chips")
    bits, bad = _manchester_decode(chips)
    _raise_bad_word(chips, 2, bad)
    return bits


# 4B6B: each nibble maps to a six-chip word of Hamming weight 3, so the
# output is DC balanced word by word.  Table as standardized for VPPM.
TABLE_4B6B = np.array(
    [
        0b001110, 0b001101, 0b010011, 0b010110,
        0b010101, 0b100011, 0b100110, 0b100101,
        0b011001, 0b011010, 0b011100, 0b110001,
        0b110010, 0b101001, 0b101010, 0b101100,
    ],
    dtype=np.uint8,
)

# 0xFF marks the 48 words off the table
_REV_4B6B = np.full(64, 0xFF, dtype=np.uint8)
_REV_4B6B[TABLE_4B6B] = np.arange(16)
_CHIPS_4B6B = _chip_table(TABLE_4B6B, 6)


def _encode_4b6b(nibbles: np.ndarray) -> np.ndarray:
    return _take(_CHIPS_4B6B, nibbles).ravel()


def encode_4b6b(nibbles) -> np.ndarray:
    """Map nibble values (0..15) to their 6-chip codewords, MSB first."""
    return _encode_4b6b(_as_uint8(nibbles, 15, "nibbles must lie in 0..15").ravel())


def _decode_4b6b(chips: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # (nibbles, bad): bad marks each word off the table, whose nibble is 0xFF
    if chips.size % 6:
        raise LineCodeError("chip stream length must be a multiple of 6", chips.size // 6)
    nibbles = _take(_REV_4B6B, _pack(chips, 6))
    return nibbles, nibbles > 15


def decode_4b6b(chips) -> np.ndarray:
    """Map 6-chip groups back to nibbles; any word off the table is invalid."""
    chips = _as_bits(chips, "chips")
    nibbles, bad = _decode_4b6b(chips)
    _raise_bad_word(chips, 6, bad)
    return nibbles


# 8b/10b code rules.  The stored 6b/4b words are the encodings used at
# positive running disparity; flip6/flip4 mark the entries complemented at
# negative disparity, unbal6/unbal4 the words that flip the disparity.
_T5B6B = np.array(
    [
        0b011000, 0b100010, 0b010010, 0b110001, 0b001010, 0b101001,
        0b011001, 0b000111, 0b000110, 0b100101, 0b010101, 0b110100,
        0b001101, 0b101100, 0b011100, 0b101000, 0b100100, 0b100011,
        0b010011, 0b110010, 0b001011, 0b101010, 0b011010, 0b000101,
        0b001100, 0b100110, 0b010110, 0b001001, 0b001110, 0b010001,
        0b100001, 0b010100,
    ],
    dtype=np.uint8,
)
_T3B4B = np.array(
    [0b0100, 0b1001, 0b0101, 0b0011, 0b0010, 0b1010, 0b0110, 0b0001],
    dtype=np.uint8,
)


def _popcount(values: np.ndarray, nbits: int) -> np.ndarray:
    return sum((values >> i) & 1 for i in range(nbits))


def _tables_8b10b():
    """The code rules evaluated over every byte and every 10-chip word at
    both running disparities.  A table of n entries per disparity holds
    RD +1 before the symbol at 0..n-1 and RD -1 at n..2n-1."""
    unbal6 = _popcount(_T5B6B, 6) != 3
    flip6 = unbal6.copy()
    flip6[7] = True  # D.x7's balanced word still alternates (000111/111000)
    unbal4 = _popcount(_T3B4B, 4) != 2
    flip4 = unbal4.copy()
    flip4[3] = True  # D.3.x likewise (0011/1100)
    neg = np.array([[False], [True]])

    byte = np.arange(256)
    x5, x3 = byte & 31, byte >> 5
    t6, t4 = _T5B6B[x5].astype(int), _T3B4B[x3].astype(int)
    word6 = np.where(neg & flip6[x5], t6 ^ 0x3F, t6)
    neg_mid = neg ^ unbal6[x5]  # disparity between the sub-blocks
    # alternate D.x.A7: replaces the primary 4b word to avoid five-chip runs
    alt7 = (x3 == 7) & np.where(neg_mid, np.isin(x5, (17, 18, 20)), np.isin(x5, (11, 13, 14)))
    word4 = np.where(neg_mid & flip4[x3], t4 ^ 0xF, t4)
    word4 = np.where(alt7, np.where(neg_mid, 0b0111, 0b1000), word4)
    enc_chips = _chip_table(((word6 << 4) | word4).ravel(), 10)
    enc_flip = unbal6[x5] ^ unbal4[x3]

    rev6 = np.full(64, -1)
    rev6[_T5B6B] = np.arange(32)
    rev6[(_T5B6B ^ 0x3F)[flip6]] = np.arange(32)[flip6]
    rev4 = np.full(16, -1)
    rev4[_T3B4B] = np.arange(8)
    rev4[(_T3B4B ^ 0xF)[flip4]] = np.arange(8)[flip4]
    rev4[[0b0111, 0b1000]] = 7  # A7 at negative and at positive disparity
    w6, w4 = np.arange(1024) >> 4, np.arange(1024) & 0xF
    x5, x3 = rev6[w6], rev4[w4]
    d6, d4 = 2 * _popcount(w6, 6) - 6, 2 * _popcount(w4, 4) - 4
    rd_in = np.where(neg, -1, 1)
    # sub-block disparity must move against the running state and the
    # running state must stay in {-1, +1}
    bad_disp = (d6 != 0) & (np.sign(d6) != -rd_in)
    bad_disp |= (d4 != 0) & (np.sign(d4) != -np.sign(rd_in + d6))
    status = np.where((x5 < 0) | (x3 < 0), 1, 2 * bad_disp).astype(np.uint8)
    dec_byte = ((x3 << 5 | x5) & 0xFF).astype(np.uint8)  # read only where valid
    return enc_chips, enc_flip, dec_byte, (d6 != 0) ^ (d4 != 0), status.ravel()


# _ENC_CHIPS[256 * neg + byte]: the 10 chips; _ENC_FLIP[byte]: flips the
# disparity; _DEC_STATUS[1024 * neg + word]: 0 valid, 1 off the code, 2 a
# disparity violation
_ENC_CHIPS, _ENC_FLIP, _DEC_BYTE, _DEC_FLIP, _DEC_STATUS = _tables_8b10b()


def _check_disparity(rd) -> int:
    # operator.index admits ints and numpy integers, not 1.0, and gives an int
    try:
        value = operator.index(rd)
    except TypeError:
        value = None
    if value not in (-1, 1):
        raise ValueError(f"running disparity must be -1 or +1, got {rd!r}")
    return value


def _running(flips: np.ndarray, rd0: int) -> tuple[np.ndarray, int]:
    """Whether the running disparity is -1 before each word, and its value
    after the last (``rd0`` when there are no words).  A word flips it or
    not whatever the state, so the whole trajectory is a prefix xor."""
    neg = np.empty(flips.size + 1, dtype=bool)
    neg[0] = rd0 < 0
    neg[1:] = flips
    np.bitwise_xor.accumulate(neg, out=neg)
    return neg[:-1], -1 if neg[-1] else 1


def _encode_8b10b(data: np.ndarray, rd0: int) -> tuple[np.ndarray, int]:
    neg_in, rd_out = _running(_take(_ENC_FLIP, data), rd0)
    # a uint16 index, not the int64 of neg_in * 256 + data
    return _take(_ENC_CHIPS, neg_in.astype(np.uint16) << 8 | data).ravel(), rd_out


def encode_8b10b(data, disparity: int = -1) -> tuple[np.ndarray, int]:
    """Encode bytes to 10-chip words; returns (chips, disparity out).

    ``disparity`` is the running-disparity state at the block boundary,
    -1 or +1 (the conventional start is -1).  Chips leave abcdei-fghj,
    MSB of the 6b sub-block first.
    """
    rd0 = _check_disparity(disparity)
    return _encode_8b10b(_as_uint8(data, 255, "data must hold byte values 0..255").ravel(), rd0)


def _decode_8b10b(chips: np.ndarray, rd0: int) -> tuple[tuple[np.ndarray, int], np.ndarray]:
    # ((bytes, disparity out), status): status is each word's _DEC_STATUS
    if chips.size % 10:
        raise LineCodeError("chip stream length must be a multiple of 10", chips.size // 10)
    words = _pack(chips, 10)
    neg_in, rd_out = _running(_take(_DEC_FLIP, words), rd0)
    status = _take(_DEC_STATUS, neg_in.astype(np.uint16) << 10 | words)
    return (_take(_DEC_BYTE, words), rd_out), status


def decode_8b10b(chips, disparity: int = -1) -> tuple[np.ndarray, int]:
    """Decode 10-chip words back to bytes; returns (bytes, disparity out).

    Rejects words outside the code and words whose imbalance runs in the
    same direction as the current disparity (a disparity violation),
    reporting the first offending word index.
    """
    rd0 = _check_disparity(disparity)
    chips = _as_bits(chips, "chips")
    decoded, status = _decode_8b10b(chips, rd0)
    _raise_bad_word(chips, 10, status)
    return decoded
