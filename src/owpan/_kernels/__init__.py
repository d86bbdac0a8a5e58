"""Decoder kernel backends.

Importing this package binds ``rs_encode_blocks``, ``rs_decode_blocks`` and
``viterbi_decode`` to the compiled extension when it is available, else to
the pure-numpy fallback.  The extension is ``_native.c``, one hand-written
C file that needs only a C compiler and the Python headers; ``pip install``
or ``python3 setup.py build_ext --inplace`` builds it.  Both backends give
bit-identical results.  Set ``OWPAN_KERNELS=pure`` or ``=native`` to force
a backend (forcing ``native`` raises if the extension is missing, instead
of silently degrading).
"""

from __future__ import annotations

import os

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

__all__ = ["BACKEND", "rs_encode_blocks", "rs_decode_blocks", "viterbi_decode"]
