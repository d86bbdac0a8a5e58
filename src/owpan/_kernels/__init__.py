"""Codec kernel backends.

Importing this package binds eight callables to the compiled extension
when it is available, else to the pure-numpy fallback:
``rs_encode_blocks``, ``rs_decode_blocks``, ``viterbi_decode``,
``ook_demodulate``, ``vppm_demodulate``, ``decode_words``,
``encode_words`` and ``float_reprs`` (``_pure`` states their
contracts).  The first seven convert their inputs to numpy arrays;
``float_reprs`` reads only a list or tuple of Python floats, as a
capacity curve holds.  The extension is ``_native.c``, one hand-written
C file that needs only a C compiler and the Python headers;
``pip install`` or ``python3 setup.py build_ext --inplace`` builds it.
It copies its fixed tables (GF(16), the RS maps and the powers of ten)
from ``_tables`` when it loads, and ``_pure`` computes with the same
arrays.  On a large waveform, such as a 64 KiB frame's, the native
demodulators and modulators run their loop in two halves on two threads
when the process may run on two CPUs, and whole on one otherwise, with
the same bits either way and nothing to set.  Both backends give
bit-identical results.  Set ``OWPAN_KERNELS=pure`` or ``=native`` to
force a backend (forcing ``native`` raises if the extension is missing,
instead of silently degrading).
"""

from __future__ import annotations

import os

# chips per block of the pure demodulators' float64 sums, values per
# np.take call in the pure table lookups and rows per gather of the pure
# RS maps: each bounds a temporary to O(block).  Bound before the backend
# import, since _pure reads it from this package.
_BLOCK = 1 << 14

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
encode_words = _impl.encode_words
float_reprs = _impl.float_reprs
