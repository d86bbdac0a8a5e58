"""OOK and VPPM waveform mapping at four samples per optical clock.

Waveforms are real, non-negative arrays (intensity modulation cannot go
dark-er than zero).  The sample rate is fixed at ``SAMPLES_PER_CHIP`` per
chip period so golden waveform dumps stay deterministic.

A waveform takes its sample table's dtype, and no sample is ever rounded
to get a smaller one.  Each table is computed in float64 and kept as
float32 exactly when every one of its samples survives that cast: OOK's
(0 and 1) and VPPM's at a dyadic dimming such as 0.25, 0.375 or 0.75.  A
dimming such as 0.4, or one whose float32 samples would round, keeps the
float64 table.  The demodulators read float32 and float64 samples without
a copy, convert any other real dtype to float64, and sum and compare in
float64, so a float32 waveform decides exactly as its float64 widening.

VPPM carries each bit in the pulse position within its chip period: bit 1
is a leading pulse, bit 0 a trailing pulse, and the pulse width equals the
dimming duty cycle.  Pulse edges that fall inside a sample are represented
by that sample taking the covered fraction as its amplitude, which keeps
the per-symbol mean exactly equal to the duty cycle at any dimming value.

OOK is at unit intensity: chip 1 is four samples of 1.0, chip 0 four of
0.0, and a chip reads as 1 when its mean exceeds 0.5.

Waveforms are built and read one block of chips at a time, so peak memory
is the waveform plus O(block).  Each (2, SAMPLES_PER_CHIP) sample table
is read-only: OOK's is built at import, each dimming's on its first use.

Each modulator is a transmit stage: its private form takes checked 0/1
chips (and VPPM a checked dimming), and the public modulator checks its
arguments, then calls it.  Each demodulator is a receive stage: its
private form takes the checked samples of ``_per_chip`` and returns
``(chips, bad)``, ``bad`` marking the VPPM chips whose half energies tie,
or None when none does (OOK cannot fail).  The public demodulator checks
its input, calls the private form, then raises at the first bad chip
through ``line_codes._raise_first``.  The frame chains check their input
once and call the private forms only.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .line_codes import _BLOCK, _as_bits, _raise_first, _take

__all__ = [
    "SAMPLES_PER_CHIP",
    "ModulationError",
    "ook_modulate",
    "ook_demodulate",
    "vppm_modulate",
    "vppm_demodulate",
]

SAMPLES_PER_CHIP = 4
# dimmings whose sample tables are kept; past that the least recently used goes
_TABLES = 64


class ModulationError(ValueError):
    """Demodulation met an ambiguous or malformed waveform."""


def _modulate(chips: np.ndarray, table: np.ndarray) -> np.ndarray:
    # row c of the (2, SAMPLES_PER_CHIP) table holds the samples of chip c,
    # in the table's dtype
    return _take(table, chips).ravel()


def _per_chip(samples) -> np.ndarray:
    try:
        samples = np.asarray(samples)
        if samples.dtype.kind != "c" and samples.dtype != np.float32:
            # float32 and float64 samples are read in place
            samples = np.asarray(samples, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        # a ragged nesting, an object array holding, say, a complex number
        # or an int beyond float64, or text that is no number
        raise ModulationError(f"samples must be real numbers: {exc}") from None
    if samples.dtype.kind == "c":
        raise ModulationError("samples must be real, got complex values")
    if samples.size % SAMPLES_PER_CHIP:
        raise ModulationError(f"sample count {samples.size} is not a whole number of chips")
    return samples.reshape(-1, SAMPLES_PER_CHIP)


def _exact_float32(table: np.ndarray) -> np.ndarray:
    # the float32 table when every sample survives the cast, else the float64 one
    single = table.astype(np.float32)
    table = single if np.array_equal(single, table) else table
    table.flags.writeable = False
    return table


_OOK_TABLE = _exact_float32(np.repeat([[0.0], [1.0]], SAMPLES_PER_CHIP, axis=1))


def _ook_modulate(chips: np.ndarray) -> np.ndarray:
    return _modulate(chips, _OOK_TABLE)


def ook_modulate(chips) -> np.ndarray:
    """Chip 1 -> 1.0, chip 0 -> dark, four samples each."""
    return _ook_modulate(_as_bits(chips, "chips"))


def _ook_demodulate(per: np.ndarray) -> tuple[np.ndarray, None]:
    chips = np.empty(len(per), dtype=bool)
    acc = np.empty(min(len(per), _BLOCK))
    # a sum past float64's range is inf and reads as 1; inf + -inf is NaN
    # and reads as 0, so neither needs numpy's warning
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(0, len(per), _BLOCK):
            b = per[i : i + _BLOCK]
            total = acc[: len(b)]
            # ((s0 + s1) + s2) + s3 in float64, the order in which numpy's
            # mean(axis=1) sums; dividing by 4 is exact, so total > 2 is
            # mean > 0.5
            np.add(b[:, 0], b[:, 1], out=total, dtype=np.float64)
            total += b[:, 2]
            total += b[:, 3]
            np.greater(total, 2.0, out=chips[i : i + _BLOCK])
    return chips.view(np.uint8), None


def ook_demodulate(samples) -> np.ndarray:
    """Threshold each chip period's mean at 0.5."""
    return _ook_demodulate(_per_chip(samples))[0]


@lru_cache(maxsize=_TABLES)
def _vppm_table(dimming: float) -> np.ndarray:
    # fraction of each quarter-chip sample covered by a width-`dimming`
    # pulse anchored at the start (bit 1) or the end (bit 0) of the chip;
    # row 0 is the trailing pulse, row 1 the leading one
    edges = np.arange(SAMPLES_PER_CHIP + 1) / SAMPLES_PER_CHIP
    lo, hi = edges[:-1], edges[1:]
    leading = np.clip(dimming - lo, 0.0, hi - lo) * SAMPLES_PER_CHIP
    return _exact_float32(np.array([leading[::-1], leading]))


def _dimming(value) -> float:
    # checked in (0, 1), then the Python float that keys _vppm_table, also for
    # a numpy scalar or a 0-d or one-element array (float() warns on the last)
    if not 0.0 < value < 1.0:
        raise ValueError(f"dimming must lie in (0, 1), got {value!r}")
    return value if type(value) is float else np.asarray(value, dtype=np.float64).item()


def _vppm_modulate(bits: np.ndarray, dimming: float) -> np.ndarray:
    return _modulate(bits, _vppm_table(dimming))


def vppm_modulate(bits, dimming: float) -> np.ndarray:
    """Map bits to pulse-position symbols with duty cycle ``dimming``."""
    dimming = _dimming(dimming)
    return _vppm_modulate(_as_bits(bits, "chips"), dimming)


def _vppm_demodulate(per: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    # the tie mask is allocated at the first tie, so a clean frame keeps
    # no frame-sized mask
    bits = np.empty(len(per), dtype=bool)
    bad = None
    # an overflowed energy is inf; a NaN energy (inf + -inf) is neither
    # greater nor equal, so its bit reads 0 and is not a tie
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(0, len(per), _BLOCK):
            b = per[i : i + _BLOCK]
            e_first = np.add(b[:, 0], b[:, 1], dtype=np.float64)
            e_second = np.add(b[:, 2], b[:, 3], dtype=np.float64)
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
