"""Decoder kernel backends.

Importing this package binds six callables to the compiled extension when
it is available, else to the pure-numpy fallback: ``rs_encode_blocks``,
``rs_decode_blocks``, ``viterbi_decode``, ``ook_demodulate``,
``vppm_demodulate`` and ``decode_words`` (``_pure`` states their
contracts).  The extension is ``_native.c``, one hand-written C file that
needs only a C compiler and the Python headers; ``pip install`` or
``python3 setup.py build_ext --inplace`` builds it.  Both backends give
bit-identical results.  Set ``OWPAN_KERNELS=pure`` or ``=native`` to force
a backend (forcing ``native`` raises if the extension is missing, instead
of silently degrading).

The package also holds the two numpy helpers that the line encoders and
the pure backend share, ``_take`` and ``_running``, so that neither side
imports the other.
"""

from __future__ import annotations

import os

import numpy as np

# chips per block of the pure demodulators' float64 sums, indices per
# np.take call in the line codes and rows per gather of the pure RS maps:
# each bounds a temporary to O(block).
_BLOCK = 1 << 14


def _take(table: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``table[index]`` along axis 0, taken ``_BLOCK`` indices at a time:
    take copies a uint8 or uint16 index array to 8-byte intp, so a lookup
    in blocks keeps that copy O(block).  Every index is in range by
    construction, so ``mode="clip"``, which lets take write into ``out``
    unbuffered, never clips one."""
    # one call for a short index: the loop's extra empty() and out= cost
    # 16-byte frame round trips about 10%
    if index.size <= _BLOCK:
        return table.take(index, axis=0, mode="clip")
    out = np.empty(index.shape + table.shape[1:], dtype=table.dtype)
    for i in range(0, index.size, _BLOCK):
        table.take(index[i : i + _BLOCK], axis=0, out=out[i : i + _BLOCK], mode="clip")
    return out


def _running(flips: np.ndarray) -> np.ndarray:
    """Whether the 8b/10b running disparity is -1 before each word, from
    the -1 every frame starts at.  A word flips it or not whatever the
    state, so the whole trajectory is a prefix xor."""
    neg = np.empty(flips.size, dtype=bool)
    neg[:1] = True
    neg[1:] = flips[:-1]
    np.bitwise_xor.accumulate(neg, out=neg)
    return neg


# _BLOCK, _take and _running are bound before the backend import, since
# _pure reads them from this package.
_choice = os.environ.get("OWPAN_KERNELS", "").strip().lower()

if _choice == "pure":
    from . import _pure as _impl
elif _choice == "native":
    from . import _native as _impl  # type: ignore[no-redef]
elif _choice in ("", "auto"):
    try:
        from . import _native as _impl  # type: ignore[no-redef]
    except ImportError:
        from . import _pure as _impl
else:
    raise ImportError(
        f"OWPAN_KERNELS={_choice!r} not recognized (use 'pure', 'native' or 'auto')"
    )

BACKEND: str = _impl.BACKEND
rs_encode_blocks = _impl.rs_encode_blocks
rs_decode_blocks = _impl.rs_decode_blocks
viterbi_decode = _impl.viterbi_decode
ook_demodulate = _impl.ook_demodulate
vppm_demodulate = _impl.vppm_demodulate
decode_words = _impl.decode_words

__all__ = [
    "BACKEND",
    "rs_encode_blocks",
    "rs_decode_blocks",
    "viterbi_decode",
    "ook_demodulate",
    "vppm_demodulate",
    "decode_words",
]
