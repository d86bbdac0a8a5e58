"""OOK and VPPM waveform mapping at four samples per chip.

Waveforms are real, non-negative intensity arrays of ``SAMPLES_PER_CHIP``
samples per chip, each made by one ``encode_words`` call of
:mod:`owpan._kernels` (on the pure backend, a block of chips at a time)
and read into one byte per chip, so peak memory is the waveform plus its
chips.

OOK is at unit intensity: chip 1 is four samples of 1.0, chip 0 four of
0.0, and a chip reads as 1 when its mean exceeds 0.5.

VPPM carries each bit in the pulse position within its chip period: bit 1
is a leading pulse, bit 0 a trailing pulse, and the pulse width equals the
dimming duty cycle.  A sample that a pulse edge cuts takes the covered
fraction as its amplitude, so each symbol's mean is exactly the duty
cycle.  A chip reads as 1 when its first half holds more energy than its
second, which a clean chip does at any duty cycle below 1; a tie is
ambiguous.

Each (2, SAMPLES_PER_CHIP) sample table is computed in float64 and kept,
read-only, as float32 exactly when every sample survives that cast (OOK's,
and VPPM's at a dyadic dimming such as 0.25 or 0.375), so no sample is
rounded.

The modulators take checked 0/1 chips (and VPPM a checked dimming).
``_per_chip`` checks a waveform and shapes it ``(N, SAMPLES_PER_CHIP)``
for the demodulation kernels, which ``frames._plan`` calls directly
(``vppm_demodulate`` also returns its ties).  The compiled backend reads
a C-contiguous float32 or float64 waveform in place in one pass; any
other layout or dtype is converted to float64 first.  Both backends sum
and compare in float64, so a float32 waveform decides exactly as its
float64 widening.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .. import _kernels
from ..params import _real

__all__ = ["SAMPLES_PER_CHIP"]

SAMPLES_PER_CHIP = 4
# dimmings whose sample tables are kept; past that the least recently used goes
_TABLES = 64


def _per_chip(samples) -> np.ndarray:
    try:
        samples = np.asarray(samples)
        if samples.dtype.kind != "c" and samples.dtype != np.float32:
            # float32 and float64 samples are read in place
            samples = np.asarray(samples, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        # a ragged nesting, an object array holding, say, a complex number
        # or an int beyond float64, or text that is no number
        raise ValueError(f"samples must be real numbers: {exc}") from None
    if samples.dtype.kind == "c":
        raise ValueError("samples must be real, got complex values")
    if samples.size % SAMPLES_PER_CHIP:
        raise ValueError(f"sample count {samples.size} is not a whole number of chips")
    return samples.reshape(-1, SAMPLES_PER_CHIP)


def _exact_float32(table: np.ndarray) -> np.ndarray:
    # row c of a (2, SAMPLES_PER_CHIP) table holds the samples of chip c;
    # the float32 table when every sample survives the cast, else the float64 one
    single = table.astype(np.float32)
    table = single if np.array_equal(single, table) else table
    table.flags.writeable = False
    return table


_OOK_TABLE = _exact_float32(np.repeat([[0.0], [1.0]], SAMPLES_PER_CHIP, axis=1))


def _ook_modulate(chips: np.ndarray) -> np.ndarray:
    return _kernels.encode_words(chips, _OOK_TABLE)


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
    # checked in (0, 1), as the Python float that keys _vppm_table; what the
    # number reader rejects is no dimming either, and fails the same way
    try:
        number = _real(value, "dimming", TypeError)
    except TypeError:
        number = math.nan
    if not 0.0 < number < 1.0:
        raise ValueError(f"dimming must lie in (0, 1), got {value!r}")
    return number


def _vppm_modulate(bits: np.ndarray, dimming: float) -> np.ndarray:
    return _kernels.encode_words(bits, _vppm_table(dimming))

