"""End-to-end frame encoding for the bound PHY I/II modes.

The transmit chain is: payload -> 2-byte big-endian length prefix ->
GF(16) symbols -> RS outer code (whole blocks, zero-padded) ->
convolutional inner code (OOK/Manchester modes only) -> line code ->
intensity waveform.  The receive chain inverts it stage by stage and uses
the length prefix to discard block padding, so any payload from 0 to 65535
bytes round-trips through any mode.  It is total: any input array yields
the payload or a FrameDecodeError.  Only a catalog-only mode raises a plain
ValueError, before any sample is read.

A mode's stages from payload bytes to samples, length prefix to
modulator, are one cached plan, ``_plan``: a named record per stage with
an encode and a decode form, each frame function one fold of them; only
the plan reads the mode's modulation, line code and codes.  Each chain
checks its input once (the payload's bytes and ``dimming``, or the
waveform or the chips).  ``_receive`` alone makes a FrameDecodeError, at
the first stage whose mask marks a bad symbol or that raises.

The 8b/10b modes keep RS symbol padding aligned to whole bytes: RS(14,7)
blocks are 7 bytes long by construction, and RS(15,12) data is padded to
an even block count so the coded stream always packs into bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial
from typing import Callable, NamedTuple

import numpy as np

from .. import _kernels
from . import line_codes
from .fec import RsCode, _cc_encode, _rs_decode, _rs_encode, _uncorrectable, _viterbi_decode
from .line_codes import _as_bits, _bad_word, _chip_table, _decode_words
from .modes import LineCode, Modulation, PhyMode
from .modulation import _dimming, _ook_modulate, _per_chip, _vppm_modulate

__all__ = [
    "Frame",
    "FrameDecodeError",
    "encode_frame",
    "decode_frame",
    "encode_to_chips",
    "decode_from_chips",
    "chips_to_hex",
    "chips_from_hex",
    "MAX_PAYLOAD",
]

MAX_PAYLOAD = 0xFFFF
_LENGTH_BYTES = 2


class FrameDecodeError(ValueError):
    """The receive chain could not reconstruct a frame; ``stage`` names the
    plan stage that found the defect (``"chips"``: decode_from_chips's check)."""

    stage: str


@dataclass(frozen=True)
class Frame:
    """An encoded frame: payload, the mode that framed it, and both the
    channel-symbol (chip) and waveform views of the encoding.

    ``waveform`` is float32 when every sample is exact in float32 (OOK,
    and VPPM at a dyadic dimming such as 0.25 or 0.375) and float64
    otherwise (VPPM at, say, 0.4): no sample is rounded.  ``decode_frame``
    reads either dtype without a copy (a C-contiguous one, on the compiled
    kernels) and decides in float64."""

    payload: bytes
    mode: PhyMode
    chips: np.ndarray
    waveform: np.ndarray


# row b: byte b's high and low nibble
_BYTE_NIBBLES = np.stack([np.arange(256) >> 4, np.arange(256) & 0xF], axis=1).astype(np.uint8)
_NIBBLE_BITS = _chip_table(np.arange(16), 4)
# the nibble of each 4-bit word, MSB first: the decode_words table that
# packs bits into nibbles
_NIBBLES = np.arange(16, dtype=np.uint8)


class _Stage(NamedTuple):
    """One plan stage.  A stage with a ``report`` decodes to ``(values,
    bad)``, ``bad`` None or its kernel's mask of bad symbols, and
    ``report(received, bad, i)`` is the error for the first one, ``i``."""

    name: str
    encode: Callable | None
    decode: Callable
    report: Callable | None = None


# decode_from_chips's check, in place of the plan's demodulator
_CHIPS = _Stage("chips", None, partial(_as_bits, name="chips"))


def _bytes_to_nibbles(data: np.ndarray) -> np.ndarray:
    return _kernels.encode_words(data, _BYTE_NIBBLES)


def _nibbles_to_bytes(nibbles: np.ndarray) -> np.ndarray:
    # nibbles are uint8, so the shifted high nibble stays uint8
    if nibbles.size % 2:
        nibbles = np.concatenate([nibbles, np.zeros(1, np.uint8)])
    return (nibbles[0::2] << 4) | nibbles[1::2]


def _nibbles_to_bits(nibbles: np.ndarray) -> np.ndarray:
    return _kernels.encode_words(nibbles, _NIBBLE_BITS)


def _bits_to_nibbles(bits: np.ndarray) -> np.ndarray:
    if bits.size % 4:
        raise ValueError(f"bit stream length {bits.size} is not nibble-aligned")
    return _kernels.decode_words(bits, 4, _NIBBLES, None)[0]


def _add_rs(nibbles: np.ndarray, rs: RsCode, pair: bool) -> np.ndarray:
    """Nibbles RS-encoded in whole zero-padded blocks, paired up when ``pair``
    (8b/10b packs symbols into bytes); the inverse of :func:`_strip_rs`."""
    blocks = -(-nibbles.size // rs.k) if nibbles.size else 1
    if pair and rs.n % 2 and blocks % 2:
        blocks += 1
    padded = np.zeros(blocks * rs.k, dtype=np.uint8)
    padded[: nibbles.size] = nibbles
    return _rs_encode(padded.reshape(blocks, rs.k), rs).ravel()


def _strip_rs(symbols: np.ndarray, rs: RsCode) -> tuple[np.ndarray, np.ndarray]:
    """RS-decode whole blocks of nibbles, block padding included, with
    ``bad`` marking each uncorrectable block; the inverse of :func:`_add_rs`."""
    if symbols.size == 0 or symbols.size % rs.n:
        raise ValueError(f"{symbols.size} symbols do not form whole {rs} blocks")
    data, bad = _rs_decode(symbols.reshape(-1, rs.n), rs)
    return data.ravel(), bad


def _line(name: str, encode, width: int, *tables) -> _Stage:
    """A line code's stage: its words' values and bad words, by their chips."""
    decode = lambda chips: _decode_words(chips, width, *tables)
    return _Stage(name, encode, decode, lambda chips, bad, i: _bad_word(chips, width, bad, i))


def _prefix_length(payload: bytes) -> np.ndarray:
    if len(payload) > MAX_PAYLOAD:
        raise ValueError(f"payload of {len(payload)} bytes exceeds {MAX_PAYLOAD}")
    return np.frombuffer(len(payload).to_bytes(_LENGTH_BYTES, "big") + payload, dtype=np.uint8)


def _strip_length(wire: np.ndarray) -> bytes:
    # the bytes the prefix counts, without the block padding after them
    if wire.size < _LENGTH_BYTES:
        raise ValueError("frame shorter than its length prefix")
    plen = int.from_bytes(wire[:_LENGTH_BYTES].tobytes(), "big")
    body = wire[_LENGTH_BYTES:]
    if plen > body.size:
        raise ValueError(f"length prefix claims {plen} bytes but only {body.size} present")
    return body[:plen].tobytes()


def _vppm_tie(_, bad, i: int) -> ValueError:
    return ValueError(f"ambiguous VPPM symbol at index {i}: equal half energies")


@cache
def _plan(mode: PhyMode) -> tuple[_Stage, ...]:
    """The mode's stages in transmit order, from payload bytes to samples
    (the modulator's encode form also takes dimming).  A catalog-only mode
    raises ValueError."""
    if not mode.bound:
        raise ValueError(f"{mode.name} is a catalog-only mode; only PHY I/II modes have codecs")
    eight_ten = mode.line_code is LineCode.EIGHT_B_TEN_B
    rs, cc = mode.outer_code, mode.inner_code
    stages = [_Stage("length", _prefix_length, _strip_length)]
    # 8b/10b codes bytes, so its modes take nibbles only for an RS code
    if not eight_ten or rs is not None:
        stages.append(_Stage("nibbles", _bytes_to_nibbles, _nibbles_to_bytes))
    if rs is not None:
        encode, decode = lambda n: _add_rs(n, rs, eight_ten), lambda s: _strip_rs(s, rs)
        stages.append(_Stage("rs", encode, decode, lambda _, bad, i: _uncorrectable(bad, rs)))
    if eight_ten:
        if rs is not None:
            stages.append(_Stage("bytes", _nibbles_to_bytes, _bytes_to_nibbles))
        tables = line_codes._DEC_BYTE, line_codes._DEC_STATUS, line_codes._DEC_FLIP
        stages.append(_line("8b10b", line_codes._encode_8b10b, 10, *tables))
    elif mode.line_code is LineCode.FOUR_B_SIX_B:
        tables = line_codes._REV_4B6B, line_codes._BAD_4B6B
        stages.append(_line("4b6b", line_codes._encode_4b6b, 6, *tables))
    else:
        stages.append(_Stage("bits", _nibbles_to_bits, _bits_to_nibbles))
        if cc is not None:
            encode, decode = lambda b: _cc_encode(b, cc), lambda c: _viterbi_decode(c, cc)
            stages.append(_Stage("cc", encode, decode))
        tables = line_codes._MANCHESTER_BIT, line_codes._MANCHESTER_BAD
        stages.append(_line("manchester", line_codes._manchester_encode, 2, *tables))
    if mode.modulation is Modulation.VPPM:
        demodulate = lambda s: _kernels.vppm_demodulate(_per_chip(s))
        stages.append(_Stage("vppm", _vppm_modulate, demodulate, _vppm_tie))
    else:  # OOK thresholding cannot fail
        demodulate = lambda s: _kernels.ook_demodulate(_per_chip(s))
        stages.append(_Stage("ook", lambda c, _: _ook_modulate(c), demodulate))
    return tuple(stages)


def _as_payload(payload) -> bytes:
    # the bytes of any bytes-like object: an int array's are its items'
    # machine bytes, and the length prefix counts these bytes
    return memoryview(payload).tobytes()


def encode_to_chips(payload: bytes, mode: PhyMode) -> np.ndarray:
    """Run the digital half of the transmit chain, yielding 0/1 chips.
    ``payload`` is any bytes-like object; its bytes are sent."""
    stages = _plan(mode)
    chips = _as_payload(payload)
    for stage in stages[:-1]:
        chips = stage.encode(chips)
    return chips


def encode_frame(payload: bytes, mode: PhyMode, dimming: float = 0.5) -> Frame:
    """Encode payload bytes to a fully modulated frame.  ``dimming`` must lie
    in (0, 1) in every mode, though only VPPM reads it."""
    stages = _plan(mode)
    dimming = _dimming(dimming)
    chips = payload = _as_payload(payload)
    for stage in stages[:-1]:
        chips = stage.encode(chips)
    return Frame(payload, mode, chips, stages[-1].encode(chips, dimming))


def decode_from_chips(chips: np.ndarray, mode: PhyMode) -> bytes:
    """Invert :func:`encode_to_chips`; raises FrameDecodeError on any defect."""
    return _receive(chips, (_CHIPS, *reversed(_plan(mode)[:-1])))


def decode_frame(waveform: np.ndarray, mode: PhyMode, dimming: float = 0.5) -> bytes:
    """Demodulate and decode a waveform back to the payload bytes; raises
    FrameDecodeError on any defect.  ``dimming`` is never read: VPPM compares
    each chip's half energies, which works at any duty cycle below 1."""
    return _receive(waveform, reversed(_plan(mode)))


def _receive(signal, stages) -> bytes:
    """Fold the decode forms of ``stages``, in receive order, over
    ``signal``.  The one place a FrameDecodeError is made: at the first
    stage whose mask marks a symbol, from its report, or from any
    ValueError a form raises, with ``stage`` naming that stage."""
    try:
        for stage in stages:
            received = signal
            signal = stage.decode(received)
            if stage.report is not None:
                signal, bad = signal
                # count_nonzero, about a third of ndarray.any's cost on a short mask
                if bad is not None and np.count_nonzero(bad):
                    raise stage.report(received, bad, int(np.flatnonzero(bad)[0]))
    except ValueError as exc:  # any defect of the input, e.g. a chip of 2
        error = FrameDecodeError(str(exc))
        error.stage = stage.name
        raise error from exc
    return signal


def chips_to_hex(chips: np.ndarray) -> str:
    """Render chips as hex, 64 chips (16 digits) per line, MSB first.

    The final nibble is zero-padded when the chip count is not a multiple
    of four; consumers that need the exact count must carry it separately.
    """
    chips = _as_bits(chips, "chips")
    text = np.packbits(chips).tobytes().hex()[: -(-chips.size // 4)]
    lines = [text[i : i + 16] for i in range(0, len(text), 16)]
    return "\n".join(lines) + "\n"


def chips_from_hex(text: str) -> np.ndarray:
    """Parse a :func:`chips_to_hex` dump back to chips (nibble-padded)."""
    digits = [int(c, 16) for c in "".join(text.split())]
    return _nibbles_to_bits(np.asarray(digits, dtype=np.uint8))
