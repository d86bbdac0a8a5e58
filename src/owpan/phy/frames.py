"""End-to-end frame encoding for the bound PHY I/II modes.

The transmit chain is: payload -> 2-byte big-endian length prefix ->
GF(16) symbols -> RS outer code (whole blocks, zero-padded) ->
convolutional inner code (OOK/Manchester modes only) -> line code ->
intensity waveform.  The receive chain inverts it stage by stage and uses
the length prefix to discard block padding, so any payload from 0 to 65535
bytes round-trips through any mode.  It is total: any input array yields
the payload or a FrameDecodeError.  Only a catalog-only mode raises a plain
ValueError, before any sample is read.

Each chain checks its input once: the transmit chain takes the payload's
bytes (any bytes-like object; the length prefix counts its bytes) and
checks ``dimming``, the receive chain checks the waveform (``_per_chip``)
or the chips (``_as_bits``).  No stage re-checks the array the stage
before it made.  Each receive stage returns ``(values, bad)``, and the
chain raises at the first bad symbol after each stage, so the first bad
stage in chain order is the one reported.

The 8b/10b modes keep RS symbol padding aligned to whole bytes: RS(14,7)
blocks are 7 bytes long by construction, and RS(15,12) data is padded to
an even block count so the coded stream always packs into bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import line_codes, modulation
from .fec import _cc_encode, _raise_uncorrectable, _rs_decode, _rs_encode, _viterbi_decode
from .line_codes import _as_bits, _chip_table, _pack, _raise_bad_word, _take
from .modes import LineCode, Modulation, PhyMode

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
    """The receive chain could not reconstruct a frame."""


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


def _require_bound(mode: PhyMode) -> None:
    if not mode.bound:
        raise ValueError(
            f"{mode.name} is a catalog-only mode; only PHY I/II modes have codecs"
        )


# row b: byte b's high and low nibble
_BYTE_NIBBLES = np.stack([np.arange(256) >> 4, np.arange(256) & 0xF], axis=1).astype(np.uint8)
_NIBBLE_BITS = _chip_table(np.arange(16), 4)


def _bytes_to_nibbles(data: np.ndarray) -> np.ndarray:
    return _take(_BYTE_NIBBLES, data).ravel()


def _nibbles_to_bytes(nibbles: np.ndarray) -> np.ndarray:
    # nibbles are uint8, so the shifted high nibble stays uint8
    if nibbles.size % 2:
        nibbles = np.concatenate([nibbles, np.zeros(1, np.uint8)])
    return (nibbles[0::2] << 4) | nibbles[1::2]


def _nibbles_to_bits(nibbles: np.ndarray) -> np.ndarray:
    return _take(_NIBBLE_BITS, nibbles).ravel()


def _add_rs(wire: np.ndarray, mode: PhyMode) -> np.ndarray:
    """Wire bytes as nibbles, RS-encoded in whole zero-padded blocks; the
    inverse of :func:`_strip_rs`."""
    nibbles = _bytes_to_nibbles(wire)
    rs = mode.outer_code
    if rs is None:
        return nibbles
    blocks = -(-nibbles.size // rs.k) if nibbles.size else 1
    # 8b/10b packs symbols into bytes, so odd-length blocks must pair up
    if mode.line_code is LineCode.EIGHT_B_TEN_B and rs.n % 2 and blocks % 2:
        blocks += 1
    padded = np.zeros(blocks * rs.k, dtype=np.uint8)
    padded[: nibbles.size] = nibbles
    return _rs_encode(padded.reshape(blocks, rs.k), rs).ravel()


def _strip_rs(symbols: np.ndarray, mode: PhyMode) -> np.ndarray:
    """RS-decode whole blocks of nibbles into wire bytes, block padding
    included; the inverse of :func:`_add_rs`."""
    rs = mode.outer_code
    if rs is not None:
        if symbols.size == 0 or symbols.size % rs.n:
            raise FrameDecodeError(
                f"{symbols.size} symbols do not form whole RS({rs.n},{rs.k}) blocks"
            )
        data, bad = _rs_decode(symbols.reshape(-1, rs.n), rs)
        _raise_uncorrectable(bad, rs)
        symbols = data.ravel()
    return _nibbles_to_bytes(symbols)


def _as_payload(payload) -> bytes:
    # the bytes of any bytes-like object: an int array's are its items'
    # machine bytes, and the length prefix counts these bytes
    return memoryview(payload).tobytes()


def encode_to_chips(payload: bytes, mode: PhyMode) -> np.ndarray:
    """Run the digital half of the transmit chain, yielding 0/1 chips.
    ``payload`` is any bytes-like object; its bytes are sent."""
    _require_bound(mode)
    payload = _as_payload(payload)
    if len(payload) > MAX_PAYLOAD:
        raise ValueError(f"payload of {len(payload)} bytes exceeds {MAX_PAYLOAD}")
    wire = np.frombuffer(len(payload).to_bytes(_LENGTH_BYTES, "big") + payload, dtype=np.uint8)
    coded = _add_rs(wire, mode)
    if mode.line_code is LineCode.EIGHT_B_TEN_B:
        return line_codes._encode_8b10b(_nibbles_to_bytes(coded))
    if mode.line_code is LineCode.FOUR_B_SIX_B:
        return line_codes._encode_4b6b(coded)
    bits = _nibbles_to_bits(coded)
    if mode.inner_code is not None:
        bits = _cc_encode(bits, mode.inner_code)
    return line_codes._manchester_encode(bits)


def encode_frame(payload: bytes, mode: PhyMode, dimming: float = 0.5) -> Frame:
    """Encode payload bytes to a fully modulated frame.  ``dimming`` must lie
    in (0, 1) in every mode, though only VPPM reads it."""
    dimming = modulation._dimming(dimming)
    payload = _as_payload(payload)
    chips = encode_to_chips(payload, mode)
    if mode.modulation is Modulation.VPPM:
        waveform = modulation._vppm_modulate(chips, dimming)
    else:
        waveform = modulation._ook_modulate(chips)
    return Frame(payload=payload, mode=mode, chips=chips, waveform=waveform)


def decode_from_chips(chips: np.ndarray, mode: PhyMode) -> bytes:
    """Invert :func:`encode_to_chips`; raises FrameDecodeError on any defect."""
    return _receive(chips, mode, demodulate=False)


def decode_frame(waveform: np.ndarray, mode: PhyMode, dimming: float = 0.5) -> bytes:
    """Demodulate and decode a waveform back to the payload bytes; raises
    FrameDecodeError on any defect.  ``dimming`` is never read: VPPM compares
    each chip's half energies, which works at any duty cycle below 1."""
    return _receive(waveform, mode, demodulate=True)


def _receive(signal: np.ndarray, mode: PhyMode, demodulate: bool) -> bytes:
    """The receive chain: the transmit stages inverted in reverse order,
    with every ValueError they raise reported as a FrameDecodeError."""
    _require_bound(mode)
    try:
        if not demodulate:
            chips = _as_bits(signal, "chips")
        elif mode.modulation is Modulation.VPPM:
            chips, bad = modulation._vppm_demodulate(modulation._per_chip(signal))
            modulation._raise_tie(bad)
        else:
            chips, _ = modulation._ook_demodulate(modulation._per_chip(signal))
        if mode.line_code is LineCode.EIGHT_B_TEN_B:
            data, bad = line_codes._decode_8b10b(chips)
            _raise_bad_word(chips, 10, bad)
            coded = _bytes_to_nibbles(data)
        elif mode.line_code is LineCode.FOUR_B_SIX_B:
            coded, bad = line_codes._decode_4b6b(chips)
            _raise_bad_word(chips, 6, bad)
        else:
            bits, bad = line_codes._manchester_decode(chips)
            _raise_bad_word(chips, 2, bad)
            if mode.inner_code is not None:
                bits = _viterbi_decode(bits, mode.inner_code)
            if bits.size % 4:
                raise FrameDecodeError(f"bit stream length {bits.size} is not nibble-aligned")
            coded = _pack(bits, 4)
        data = _strip_rs(coded, mode).tobytes()
    except FrameDecodeError:
        raise
    except ValueError as exc:  # any other defect of the input, e.g. a chip of 2
        raise FrameDecodeError(str(exc)) from exc
    if len(data) < _LENGTH_BYTES:
        raise FrameDecodeError("frame shorter than its length prefix")
    plen = int.from_bytes(data[:_LENGTH_BYTES], "big")
    body = data[_LENGTH_BYTES:]
    if plen > len(body):
        raise FrameDecodeError(
            f"length prefix claims {plen} bytes but only {len(body)} present"
        )
    return body[:plen]


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
