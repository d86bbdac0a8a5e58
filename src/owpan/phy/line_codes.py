"""Manchester, 4B6B, and 8b/10b line codes over 0/1 chip arrays.

All three codecs are table-driven and vectorized over numpy uint8 arrays
of bits, chips, nibbles or bytes, which the frame chains check once
before calling them.  Chip order within a codeword is MSB first
throughout.  One decoder, ``_decode_words``, serves all three: given a
code's word width and tables (the word's value, its status and, for
8b/10b, whether it flips the running disparity) it returns ``(values,
bad)``, ``bad`` nonzero at each invalid word, and raises on a stream of
no whole number of words.  It is one call into the ``decode_words``
kernel of :mod:`owpan._kernels`, and each encoder one into its twin
``encode_words``; the compiled backend makes one pass for either.

The 8b/10b here is the IBM data-character code (5b/6b + 3b/4b with running
disparity and the alternate D.x.A7 encoding); control (K) characters are
not needed by any PHY mode and are treated as invalid.  Every frame starts
at running disparity -1.  The rules are evaluated once, at import, over
all 256 bytes and all 1024 words at both running disparities.  Whether a
word flips the disparity does not depend on the state, so a call takes
the disparity before each word from the flips and then reads its chips,
or its byte and status, from those tables.  The decoder accepts what the
rules accept (330 words at each disparity), not only the 256 the encoder
emits there.
"""

from __future__ import annotations

import numpy as np

from .. import _kernels

__all__ = ["TABLE_4B6B"]


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
    # count_nonzero, about a third of ndarray.any's cost on a short mask
    if bad is not None and np.count_nonzero(bad):
        raise error(int(np.flatnonzero(bad)[0]))


# what a bad word is called, by code width and bad value
_BAD_WORD = {
    2: {1: "invalid Manchester chip pair"},
    6: {1: "invalid 4B6B codeword"},
    10: {1: "invalid 8b10b codeword", 2: "8b10b disparity violation in word"},
}


def _raise_bad_word(chips: np.ndarray, width: int, bad: np.ndarray) -> None:
    """ValueError at the first ``width``-chip word of ``chips`` that ``bad``
    marks, naming the word's chips and index."""

    def error(i: int) -> ValueError:
        word = "".join(map(str, chips[i * width : (i + 1) * width].tolist()))
        return ValueError(f"{_BAD_WORD[width][int(bad[i])]} {word} (symbol index {i})")

    _raise_first(bad, error)


def _decode_words(chips: np.ndarray, width: int, *tables) -> tuple[np.ndarray, np.ndarray]:
    """``(values, bad)`` of the ``width``-chip words of ``chips`` under one
    line code's ``decode_words`` tables; ValueError unless the words are whole."""
    if chips.size % width:
        whole = "even" if width == 2 else f"a multiple of {width}"
        index = chips.size // width
        raise ValueError(f"chip stream length must be {whole} (symbol index {index})")
    return _kernels.decode_words(chips, width, *tables)


def _chip_table(words: np.ndarray, width: int) -> np.ndarray:
    # row i: the ``width`` chips of words[i], MSB first
    return ((words[:, None] >> np.arange(width - 1, -1, -1)) & 1).astype(np.uint8)


# Manchester: bit 0 -> chips 01, bit 1 -> chips 10 (IEEE convention:
# the chip pair carries the bit in its leading half).
_MANCHESTER_CHIPS = _chip_table(np.array([0b01, 0b10]), 2)


def _manchester_encode(bits: np.ndarray) -> np.ndarray:
    return _kernels.encode_words(bits, _MANCHESTER_CHIPS)


# by chip pair 00, 01, 10, 11: the bit is the first chip, and 00 and 11
# are bad
_MANCHESTER_BIT = np.array([0, 0, 1, 1], dtype=np.uint8)
_MANCHESTER_BAD = np.array([1, 0, 0, 1], dtype=np.uint8)


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
_BAD_4B6B = (_REV_4B6B > 15).astype(np.uint8)
_CHIPS_4B6B = _chip_table(TABLE_4B6B, 6)


def _encode_4b6b(nibbles: np.ndarray) -> np.ndarray:
    return _kernels.encode_words(nibbles, _CHIPS_4B6B)


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
    enc_flip = (unbal6[x5] ^ unbal4[x3]).astype(np.uint8)

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
    dec_flip = ((d6 != 0) ^ (d4 != 0)).astype(np.uint8)
    return enc_chips, enc_flip, dec_byte, dec_flip, status.ravel()


# _ENC_CHIPS[256 * neg + byte]: the 10 chips; _ENC_FLIP[byte] and
# _DEC_FLIP[word]: flips the disparity; _DEC_STATUS[1024 * neg + word]: 0
# valid, 1 off the code, 2 a disparity violation
_ENC_CHIPS, _ENC_FLIP, _DEC_BYTE, _DEC_FLIP, _DEC_STATUS = _tables_8b10b()


def _encode_8b10b(data: np.ndarray) -> np.ndarray:
    # chips leave abcdei-fghj, MSB of the 6b sub-block first
    return _kernels.encode_words(data, _ENC_CHIPS, _ENC_FLIP)
