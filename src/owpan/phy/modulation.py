"""OOK and VPPM waveform mapping at four samples per optical clock.

Waveforms are real, non-negative float64 arrays (intensity modulation
cannot go dark-er than zero).  The sample rate is fixed at
``SAMPLES_PER_CHIP`` per chip period so golden waveform dumps stay
deterministic.

VPPM carries each bit in the pulse position within its chip period: bit 1
is a leading pulse, bit 0 a trailing pulse, and the pulse width equals the
dimming duty cycle.  Pulse edges that fall inside a sample are represented
by that sample taking the covered fraction as its amplitude, which keeps
the per-symbol mean exactly equal to the duty cycle at any dimming value.

Waveforms are built and read one block of chips at a time, so peak memory
is the waveform plus O(block).
"""

from __future__ import annotations

import numpy as np

from .line_codes import _as_bits

__all__ = [
    "SAMPLES_PER_CHIP",
    "ModulationError",
    "ook_modulate",
    "ook_demodulate",
    "vppm_modulate",
    "vppm_demodulate",
]

SAMPLES_PER_CHIP = 4
# chips per pass; np.take copies a block's uint8 indices as 8-byte intp
_BLOCK = 1 << 14


class ModulationError(ValueError):
    """Demodulation met an ambiguous or malformed waveform."""


def _modulate(chips, table: np.ndarray) -> np.ndarray:
    # row c of the (2, SAMPLES_PER_CHIP) table holds the samples of chip c
    chips = _as_bits(chips, "chips")
    out = np.empty((chips.size, SAMPLES_PER_CHIP))
    for i in range(0, chips.size, _BLOCK):
        np.take(table, chips[i : i + _BLOCK], axis=0, out=out[i : i + _BLOCK], mode="clip")
    return out.ravel()


def _per_chip(samples) -> np.ndarray:
    samples = np.asarray(samples)
    if samples.dtype.kind == "c":
        raise ModulationError("samples must be real, got complex values")
    try:
        samples = np.asarray(samples, dtype=np.float64).ravel()  # float64 is not copied
    except TypeError as exc:  # an object array holding, say, a complex number
        raise ModulationError(f"samples must be real numbers: {exc}") from None
    if samples.size % SAMPLES_PER_CHIP:
        raise ModulationError(f"sample count {samples.size} is not a whole number of chips")
    return samples.reshape(-1, SAMPLES_PER_CHIP)


def _check_high(high: float) -> None:
    if not 0.0 < high < np.inf:
        raise ValueError(f"high level must be finite and > 0, got {high!r}")


def ook_modulate(chips, high: float = 1.0) -> np.ndarray:
    """Chip 1 -> ``high`` level, chip 0 -> dark, four samples each."""
    _check_high(high)
    return _modulate(chips, np.array([[0.0] * SAMPLES_PER_CHIP, [high] * SAMPLES_PER_CHIP]))


def ook_demodulate(samples, high: float = 1.0) -> np.ndarray:
    """Threshold each chip period's mean at half the high level."""
    _check_high(high)
    per = _per_chip(samples)
    chips = np.empty(len(per), dtype=bool)
    for i in range(0, len(per), _BLOCK):
        b = per[i : i + _BLOCK]
        # ((s0 + s1) + s2) + s3, the order in which numpy's mean(axis=1) sums
        chips[i : i + _BLOCK] = (b[:, 0] + b[:, 1] + b[:, 2] + b[:, 3]) / 4 > high / 2.0
    return chips.view(np.uint8)


def _vppm_symbols(dimming: float) -> tuple[np.ndarray, np.ndarray]:
    # fraction of each quarter-chip sample covered by a width-`dimming`
    # pulse anchored at the start (bit 1) or the end (bit 0) of the chip
    edges = np.arange(SAMPLES_PER_CHIP + 1) / SAMPLES_PER_CHIP
    lo, hi = edges[:-1], edges[1:]
    leading = np.clip(dimming - lo, 0.0, hi - lo) * SAMPLES_PER_CHIP
    trailing = leading[::-1].copy()
    return leading, trailing


def _check_dimming(dimming: float) -> None:
    if not 0.0 < dimming < 1.0:
        raise ValueError(f"dimming must lie in (0, 1), got {dimming!r}")


def vppm_modulate(bits, dimming: float) -> np.ndarray:
    """Map bits to pulse-position symbols with duty cycle ``dimming``."""
    _check_dimming(dimming)
    leading, trailing = _vppm_symbols(dimming)
    return _modulate(bits, np.array([trailing, leading]))


def vppm_demodulate(samples) -> np.ndarray:
    """Recover bits by comparing the energy of each chip period's halves.

    A leading pulse concentrates energy in the first half, so the
    comparison works at any duty cycle below 1.  Symbols whose halves tie
    exactly are ambiguous and rejected (at any dimming < 1 a clean symbol
    always leans one way).
    """
    per = _per_chip(samples)
    bits = np.empty(len(per), dtype=bool)
    for i in range(0, len(per), _BLOCK):
        b = per[i : i + _BLOCK]
        e_first, e_second = b[:, 0] + b[:, 1], b[:, 2] + b[:, 3]
        ties = e_first == e_second
        if ties.any():
            idx = i + int(np.argmax(ties))
            raise ModulationError(f"ambiguous VPPM symbol at index {idx}: equal half energies")
        bits[i : i + _BLOCK] = e_first > e_second
    return bits.view(np.uint8)
