"""The fixed tables of the codec kernels, defined once for both backends.

``_pure`` computes with these arrays, and the compiled ``_native`` copies
them when it loads: the GF(16) tables ``_EXP``, ``_LOG``, ``_MUL`` and
``_INV`` (x^4 + x + 1), the packed RS maps ``_parity_map(k)`` and
``_syndrome_map(nroots)``, the K=7 convolutional code's trellises
``_TRELLISES`` and their branch metrics ``_BRANCH_METRICS``, both keyed by
the width R (3 and 4), and ``_pow10_table()``, the powers of ten of the
native ``float_reprs``.  Every array here is read-only; each map is built
once and cached.
"""

from __future__ import annotations

from functools import cache

import numpy as np

_N = 15


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


# GF(16) generated by x^4 + x + 1; EXP is doubled so products of two logs
# (each < 15) index without a modulo.
_PRIM = 0x13
_EXP = np.zeros(30, dtype=np.uint8)
_LOG = np.zeros(16, dtype=np.int16)
_x = 1
for _i in range(15):
    _EXP[_i] = _EXP[_i + 15] = _x
    _LOG[_x] = _i
    _x <<= 1
    if _x & 0x10:
        _x ^= _PRIM
_LOG[0] = 0  # masked out by callers; never a valid exponent source

# full 16x16 product and inverse tables: one gather per multiply beats
# log/exp arithmetic plus zero masking, for tiny and huge batches alike
_MUL = np.zeros((16, 16), dtype=np.uint8)
for _a in range(1, 16):
    for _b in range(1, 16):
        _MUL[_a, _b] = _EXP[_LOG[_a] + _LOG[_b]]
_INV = np.ones(16, dtype=np.uint8)  # _INV[0] is a dummy; callers mask zeros
_INV[1:] = _EXP[15 - _LOG[np.arange(1, 16)]]

# bit offsets of the GF(16) symbols packed one per nibble into a uint64
_NIBBLES = np.arange(0, 64, 4, dtype=np.uint64)

for _table in (_EXP, _LOG, _MUL, _INV, _NIBBLES):
    _readonly(_table)


def _linear_map(mat: np.ndarray) -> np.ndarray:
    """Tabulate the GF(16)-linear map of rows x -> x @ mat, mat (m, r <= 16).

    Entry 16*j + v holds v * mat[j], its r symbols packed into one uint64,
    symbol i in bits 4i..4i+3.  Packed words add by XOR, so the map of a
    row is the XOR of the m entries its symbols select (``_pure._apply``).
    """
    m, r = mat.shape
    prods = _MUL[:, mat].astype(np.uint64) << _NIBBLES[:r]  # (16, m, r)
    return _readonly(np.bitwise_or.reduce(prods, axis=2).T.reshape(16 * m))


def _generator_poly(nroots: int) -> np.ndarray:
    """Coefficients (ascending, monic) of prod_{i=1..nroots} (x - alpha^i)."""
    g = np.zeros(nroots + 1, dtype=np.uint8)
    g[0] = 1
    for i in range(1, nroots + 1):
        g = np.concatenate(([0], g[:-1])).astype(np.uint8) ^ _MUL[g, _EXP[i]]
    return g


@cache
def _parity_map(k: int) -> np.ndarray:
    """Data symbols -> the 15-k parity symbols, as a :func:`_linear_map`.

    Row j of the map is the parity of the unit message e_j, taken from the
    systematic encoder's LFSR run once over all k unit messages.
    """
    nroots = _N - k
    gdesc = _generator_poly(nroots)[-2::-1]  # x^(nroots-1) coefficient first
    unit = np.eye(k, dtype=np.uint8)
    par = np.zeros((k, nroots), dtype=np.uint8)
    for j in range(k):
        fb = unit[:, j] ^ par[:, 0]
        par = np.concatenate([par[:, 1:], np.zeros((k, 1), np.uint8)], axis=1)
        par ^= _MUL[fb[:, None], gdesc[None, :]]
    return _linear_map(par)


@cache
def _syndrome_map(nroots: int) -> np.ndarray:
    """Codeword -> syndromes S_1..S_nroots, as a :func:`_linear_map`.

    S_i = sum_j c_j alpha^(i*p_j), where column j holds the coefficient of
    x^p_j, p_j = 14 - j.
    """
    powers = (14 - np.arange(_N))[:, None] * np.arange(1, nroots + 1)[None, :]
    return _linear_map(_EXP[powers % 15])


def _out_table(gens: tuple[int, ...]) -> np.ndarray:
    """(128, R) output bits of the K=7 code with generators ``gens``: row
    ``(bit << 6) | state``, state the previous six input bits."""
    taps = np.arange(128)[:, None] & np.array(gens)
    return _readonly((sum((taps >> i) & 1 for i in range(7)) & 1).astype(np.uint8))


def _branch_metrics(table: np.ndarray) -> np.ndarray:
    """(3^R, 128) int32 Hamming distances from each observation symbol to
    each word w, whose chips are row w of the (128, R) ``table``.  Symbol s
    holds chip j in base-3 digit j: 0, 1, or 2 for an erasure, which adds
    no distance."""
    nout = table.shape[1]
    digits = (np.arange(3**nout)[:, None] // 3 ** np.arange(nout)) % 3
    # the distance of an observed chip (row) from a sent one (column)
    cost = np.array([[0, 1], [1, 0], [0, 0]], dtype=np.int32)
    return _readonly(sum(cost[digits[:, j, None], table[:, j]] for j in range(nout)))


# the rate-1/3 mother code (generators 133, 171, 165 octal) and its rate-1/4
# extension by 117; rate 2/3 punctures the rate-1/3 trellis
_TRELLISES = {
    3: _out_table((0o133, 0o171, 0o165)),
    4: _out_table((0o117, 0o133, 0o171, 0o165)),
}
_BRANCH_METRICS = {nout: _branch_metrics(table) for nout, table in _TRELLISES.items()}


# the decimal exponents whose powers Schubfach reads for finite doubles
_POW10_MIN, _POW10_MAX = -292, 324


@cache
def _pow10_table() -> np.ndarray:
    """(617, 2) uint64 {high, low} halves of g_k, k = -292..324.

    g_k = floor(10^k / 2^r) + 1 with r = floor(log2 10^k) - 127: 10^k to
    128 significant bits, rounded up.  The native ``shortest_decimal``
    states why that overestimate leaves its comparisons exact.
    """
    rows = []
    for k in range(_POW10_MIN, _POW10_MAX + 1):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        # floor(log2 10^k): 10^-k is no power of two for k < 0
        r = (num.bit_length() - 1 if k >= 0 else -den.bit_length()) - 127
        g = (num << max(-r, 0)) // (den << max(r, 0)) + 1
        rows.append((g >> 64, g & (1 << 64) - 1))
    return _readonly(np.array(rows, dtype=np.uint64))
