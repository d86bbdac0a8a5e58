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
is the waveform plus O(block).  Each level's (2, SAMPLES_PER_CHIP) sample
table is built once, on its first use, and kept read-only.

Each modulator is a transmit stage: its private form takes checked 0/1
chips and a checked level, and the public modulator checks both, then
calls it.  Each demodulator is a receive stage: its private form takes
the checked samples of ``_per_chip`` and returns ``(chips, bad)``, ``bad``
marking the VPPM chips whose half energies tie, or None when none does
(OOK cannot fail).  The public demodulator checks its input, calls the
private form, then raises at the first bad chip through
``line_codes._raise_first``.  The frame chains check their input once and
call the private forms only.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .line_codes import _as_bits, _raise_first

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
# levels whose sample tables are kept; past that the least recently used goes
_TABLES = 64


class ModulationError(ValueError):
    """Demodulation met an ambiguous or malformed waveform."""


def _modulate(chips: np.ndarray, table: np.ndarray) -> np.ndarray:
    # row c of the (2, SAMPLES_PER_CHIP) table holds the samples of chip c
    out = np.empty((chips.size, SAMPLES_PER_CHIP))
    for i in range(0, chips.size, _BLOCK):
        np.take(table, chips[i : i + _BLOCK], axis=0, out=out[i : i + _BLOCK], mode="clip")
    return out.ravel()


def _level(value) -> float:
    # the table caches' key: a Python float, also for a numpy scalar or a
    # 0-d or one-element array (float() warns on a one-element array)
    return value if type(value) is float else np.asarray(value, dtype=np.float64).item()


def _per_chip(samples) -> np.ndarray:
    samples = np.asarray(samples)
    if samples.dtype.kind == "c":
        raise ModulationError("samples must be real, got complex values")
    try:
        samples = np.asarray(samples, dtype=np.float64).ravel()  # float64 is not copied
    except (TypeError, ValueError, OverflowError) as exc:
        # an object array holding, say, a complex number or an int beyond
        # float64, or text that is no number
        raise ModulationError(f"samples must be real numbers: {exc}") from None
    if samples.size % SAMPLES_PER_CHIP:
        raise ModulationError(f"sample count {samples.size} is not a whole number of chips")
    return samples.reshape(-1, SAMPLES_PER_CHIP)


def _check_high(high: float) -> None:
    if not 0.0 < high < np.inf:
        raise ValueError(f"high level must be finite and > 0, got {high!r}")


@lru_cache(maxsize=_TABLES)
def _ook_table(high: float) -> np.ndarray:
    table = np.zeros((2, SAMPLES_PER_CHIP))
    table[1] = high
    table.flags.writeable = False
    return table


def _ook_modulate(chips: np.ndarray, high: float) -> np.ndarray:
    return _modulate(chips, _ook_table(_level(high)))


def ook_modulate(chips, high: float = 1.0) -> np.ndarray:
    """Chip 1 -> ``high`` level, chip 0 -> dark, four samples each."""
    _check_high(high)
    return _ook_modulate(_as_bits(chips, "chips"), high)


def _ook_demodulate(per: np.ndarray, high: float) -> tuple[np.ndarray, None]:
    chips = np.empty(len(per), dtype=bool)
    acc = np.empty(min(len(per), _BLOCK))
    for i in range(0, len(per), _BLOCK):
        b = per[i : i + _BLOCK]
        mean = acc[: len(b)]
        # ((s0 + s1) + s2) + s3, the order in which numpy's mean(axis=1) sums
        np.add(b[:, 0], b[:, 1], out=mean)
        mean += b[:, 2]
        mean += b[:, 3]
        mean /= 4
        np.greater(mean, high / 2.0, out=chips[i : i + _BLOCK])
    return chips.view(np.uint8), None


def ook_demodulate(samples, high: float = 1.0) -> np.ndarray:
    """Threshold each chip period's mean at half the high level."""
    _check_high(high)
    return _ook_demodulate(_per_chip(samples), high)[0]


@lru_cache(maxsize=_TABLES)
def _vppm_table(dimming: float) -> np.ndarray:
    # fraction of each quarter-chip sample covered by a width-`dimming`
    # pulse anchored at the start (bit 1) or the end (bit 0) of the chip;
    # row 0 is the trailing pulse, row 1 the leading one
    edges = np.arange(SAMPLES_PER_CHIP + 1) / SAMPLES_PER_CHIP
    lo, hi = edges[:-1], edges[1:]
    leading = np.clip(dimming - lo, 0.0, hi - lo) * SAMPLES_PER_CHIP
    table = np.array([leading[::-1], leading])
    table.flags.writeable = False
    return table


def _check_dimming(dimming: float) -> None:
    if not 0.0 < dimming < 1.0:
        raise ValueError(f"dimming must lie in (0, 1), got {dimming!r}")


def _vppm_modulate(bits: np.ndarray, dimming: float) -> np.ndarray:
    return _modulate(bits, _vppm_table(_level(dimming)))


def vppm_modulate(bits, dimming: float) -> np.ndarray:
    """Map bits to pulse-position symbols with duty cycle ``dimming``."""
    _check_dimming(dimming)
    return _vppm_modulate(_as_bits(bits, "chips"), dimming)


def _vppm_demodulate(per: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    # the tie mask is allocated at the first tie, so a clean frame keeps
    # no frame-sized mask
    bits = np.empty(len(per), dtype=bool)
    bad = None
    for i in range(0, len(per), _BLOCK):
        b = per[i : i + _BLOCK]
        e_first, e_second = b[:, 0] + b[:, 1], b[:, 2] + b[:, 3]
        ties = e_first == e_second
        if ties.any():
            if bad is None:
                bad = np.zeros(len(per), dtype=bool)
            bad[i : i + _BLOCK] = ties
        np.greater(e_first, e_second, out=bits[i : i + _BLOCK])
    return bits.view(np.uint8), bad


def _raise_tie(bad: np.ndarray | None) -> None:
    _raise_first(
        bad, lambda i: ModulationError(f"ambiguous VPPM symbol at index {i}: equal half energies")
    )


def vppm_demodulate(samples) -> np.ndarray:
    """Recover bits by comparing the energy of each chip period's halves.

    A leading pulse concentrates energy in the first half, so the
    comparison works at any duty cycle below 1.  Symbols whose halves tie
    exactly are ambiguous and rejected (at any dimming < 1 a clean symbol
    always leans one way).
    """
    bits, bad = _vppm_demodulate(_per_chip(samples))
    _raise_tie(bad)
    return bits
