"""Pure-numpy implementations of the codec hot loops and the CSV number text.

These are the fallback for :mod:`owpan._kernels._native`, compiled from
the hand-written ``_native.c``, and the readable reference that kernel
must match bit for bit.  Both backends expose the same eight callables:

* ``rs_encode_blocks(data, k)``   -- systematic RS(15, k) over GF(16),
                                     shortened to rows of 1..k symbols
* ``rs_decode_blocks(code, k)``   -- batched bounded-distance decoding of
                                     rows of 16-k..15 symbols
* ``viterbi_decode(obs, table)``  -- hard-decision Viterbi with erasures
* ``ook_demodulate(per)``         -- uint8 OOK chips of a waveform
* ``vppm_demodulate(per)``        -- uint8 VPPM bits and a tie mask
* ``decode_words(chips, width, values, status, flips=None)``
                                  -- table-driven line decoding
* ``encode_words(values, table, flips=None)``
                                  -- table-driven line encoding and modulation
* ``float_reprs(values)``         -- ``repr`` of each float, for the sweep CSV

The decoders convert their arrays to uint8 and raise ``ValueError`` for a
shape, ``k``, symbol or observation outside the contract; a failed RS row
returns the received data.

The RS kernels code shortened RS(15, k) too, as Karn's libfec does with
its ``pad``: the missing leading symbols are implicit zeros, neither sent
nor returned.  ``rs_encode_blocks`` takes data rows of any width ``w`` in
1..k and returns rows of ``w + 15 - k`` symbols; ``rs_decode_blocks``
takes code rows of any width ``n`` in ``16 - k..15`` and returns
``n - 15 + k`` data symbols per row, failing each row whose correction
lands in the implicit zeros.

The demodulators take ``per``, the (N, 4) samples of N chips, and raise
``ValueError`` for any other shape.  They read float32 and float64
samples as they are (the native kernel needs them C-contiguous too) and
convert anything else to float64, which widens float32 exactly, so a
decision never depends on the layout.  OOK chip i is 1 when
``((s0 + s1) + s2) + s3 > 2`` in float64, its mean above 0.5; VPPM bit i
is 1 when ``s0 + s1 > s2 + s3`` in float64, and the bool tie mask marks
``s0 + s1 == s2 + s3``, or is None when no chip ties.  A sum past
float64's range is inf, and inf + -inf is NaN, which reads 0 and is no
tie; neither warns.

``decode_words`` reads ``chips`` as uint8 0/1 chips in words of ``width``
(1..15) chips, MSB first, and returns ``(values[w], mask)`` for each word
``w``.  The mask is ``status[w]``, or None when ``status`` is None.  With
``flips``, it is ``status[2**width * neg + w]``, where ``neg`` is 1 before
the first word and toggled after each word ``w`` with ``flips[w]``
nonzero: the 8b/10b running disparity, -1 when ``neg`` is 1.  ``values``,
``flips`` and a ``status`` without ``flips`` have ``2**width`` entries, a
``status`` with ``flips`` twice that.  The tables are read as uint8, and
both outputs are uint8.  A chip other than 0/1, a chip count that is no
multiple of ``width`` or a table of another size raises ``ValueError``.

``encode_words`` returns ``table[values]`` flattened, in the dtype of the
2-D uint8, float32 or float64 ``table``; with ``flips``, of half as many
entries as ``table`` has rows, row ``len(flips) * neg + v`` for each value
``v``, ``neg`` running as in ``decode_words``.  It reads ``values`` and
``flips`` as uint8 and raises ``ValueError`` for a value past the rows
(past ``flips``) or a table or ``flips`` outside the contract.

``float_reprs`` returns ``[repr(v) for v in values]``: Python's shortest
round-trip text of each value, in the notation ``repr`` picks.  ``values``
must be a list or tuple of Python floats, as a capacity curve holds, and
anything else raises ``ValueError``: an array, an iterator, or an item
that is an int, a bool or a float subclass such as ``numpy.float64``.

The RS routines are vectorized across the block axis, the Viterbi routine
across the trellis states, so the Python-level loop count of a call does
not depend on the batch size:

* ``rs_encode_blocks``: no loop; one gather from the products of the
  code's parity matrix, XOR-reduced per row.
* ``rs_decode_blocks``: no loop when every syndrome is zero, as for every
  noiseless frame.  Otherwise 15-k Berlekamp-Massey steps and 15-k steps
  building the evaluator, over the rows with a non-zero syndrome only.
* ``viterbi_decode``: one iteration of three numpy calls per trellis
  step, then one per step for the traceback.  The branch metrics are
  gathered per block of steps and the survivor decisions kept bit-packed,
  8 bytes per step, so memory stays bounded on a 64 KiB frame.
* ``ook_demodulate``, ``vppm_demodulate``: the exception, one iteration
  of four numpy calls per block of ``_BLOCK`` chips, so the float64
  temporaries stay O(block).
* ``decode_words``: no loop of its own; one matmul packs the words, and
  each table lookup takes ``_BLOCK`` words per np.take call.
* ``encode_words``: likewise ``_BLOCK`` values per np.take call.

The RS maps, too, gather ``_BLOCK`` rows at a time, so a 64 KiB frame's
65,537 blocks need no frame-sized index or gather array.

The GF(16) tables and the RS parity and syndrome maps are those of
:mod:`owpan._kernels._tables`, the same arrays the native extension
copies when it loads.  They and the tables built here, which depend only
on ``k`` or on the trellis output table, are built once, cached and
read-only.  When both predecessors of a state have the
same path metric, the Viterbi keeps the even word ``2*state``; the native
kernel breaks ties the same way.
"""

from __future__ import annotations

import operator
from functools import cache, lru_cache

import numpy as np

from . import _BLOCK
from ._tables import (
    _EXP,
    _INV,
    _MUL,
    _N,
    _NIBBLES,
    _linear_map,
    _parity_map,
    _readonly,
    _syndrome_map,
)

BACKEND = "pure"

# a located root alpha^j marks an error in column 14 - (15 - j) % 15
_ROOT_COL = (14 - (15 - np.arange(15)) % 15) % 15

# the largest trellis output width R; the branch-metric table has 3^R rows
_MAX_NOUT = 6
# Viterbi steps per block of gathered branch metrics, (block, 128) int32
_BLOCK_STEPS = 2048


def _check_k(k: int) -> None:
    if not 0 < k < _N:
        raise ValueError(f"k must lie in 1..{_N - 1}, got {k}")


def _apply(table: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Packed images of ``rows`` (N, m) under a :func:`_linear_map` table.

    The (rows, m) int64 index and uint64 gather are made ``_BLOCK`` rows
    at a time, so they stay O(block) on a 64 KiB frame's blocks."""
    offsets = np.arange(0, table.size, 16)
    if len(rows) <= _BLOCK:
        return np.bitwise_xor.reduce(table[rows + offsets], axis=1)
    out = np.empty(len(rows), dtype=np.uint64)
    for i in range(0, len(rows), _BLOCK):
        images = out[i : i + _BLOCK]
        np.bitwise_xor.reduce(table[rows[i : i + _BLOCK] + offsets], axis=1, out=images)
    return out


def _unpack(words: np.ndarray, r: int, out: np.ndarray | None = None) -> np.ndarray:
    """(N, r) symbols of packed words, written into ``out`` if given.  The
    uint64 shift, the one temporary, is made ``_BLOCK`` words at a time."""
    out = np.empty((len(words), r), dtype=np.uint8) if out is None else out
    for i in range(0, len(words), _BLOCK):
        shifted = words[i : i + _BLOCK, None] >> _NIBBLES[:r]
        np.bitwise_and(shifted, np.uint64(15), out=out[i : i + _BLOCK], casting="unsafe")
        del shifted  # else the next block's shift doubles the peak
    return out


@cache
def _locator_tables(nroots: int) -> tuple[np.ndarray, np.ndarray]:
    """Evaluation at alpha^j, j = 0..14, of a polynomial of degree <= nroots+1.

    Both are :func:`_linear_map` tables from the coefficients (ascending)
    to the 15 values.  ``chien`` evaluates the polynomial itself, and
    ``deriv`` evaluates x times its formal derivative: in characteristic 2
    that keeps the odd-degree terms only.
    """
    degs = np.arange(nroots + 2)[:, None]
    powers = _EXP[(degs * np.arange(15)) % 15]
    odd = np.where(degs % 2 == 1, _EXP[((degs - 1) * np.arange(15)) % 15], 0)
    return _linear_map(powers), _linear_map(odd.astype(np.uint8))


def rs_encode_blocks(data: np.ndarray, k: int) -> np.ndarray:
    """Encode rows of ``data`` (shape (N, w), 1 <= w <= k, symbols 0..15)
    into RS(15, k) shortened by k - w symbols.

    Systematic: the codeword row is the data followed by 15-k parity
    symbols (descending powers left to right), w + 15 - k symbols.
    """
    _check_k(k)
    data = np.ascontiguousarray(data, dtype=np.uint8)
    if data.ndim != 2 or not 0 < data.shape[1] <= k:
        raise ValueError(f"data must have shape (N, 1..{k})")
    if data.size and data.max() > 15:
        raise ValueError("RS symbols must lie in 0..15")
    w = data.shape[1]
    out = np.empty((len(data), w + _N - k), dtype=np.uint8)
    out[:, :w] = data
    # the k - w implicit leading zeros select no parity, so the map is read
    # from the row of the first sent symbol on
    _unpack(_apply(_parity_map(k)[16 * (k - w) :], data), _N - k, out[:, w:])
    return out


def rs_decode_blocks(code: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Decode rows of ``code`` (shape (N, n), 15 - k < n <= 15) of RS(15, k)
    shortened by 15 - n symbols; returns (data, failed), data rows of
    n - 15 + k symbols.

    Corrects up to floor((15-k)/2) symbol errors per row; rows beyond
    that either raise the ``failed`` flag or, unavoidably for any
    bounded-distance decoder, miscorrect to a nearby codeword.
    """
    _check_k(k)
    code = np.ascontiguousarray(code, dtype=np.uint8)
    nroots = _N - k
    if code.ndim != 2 or not nroots < code.shape[1] <= _N:
        raise ValueError(f"code must have shape (N, {nroots + 1}..{_N})")
    if code.size and code.max() > 15:
        raise ValueError("RS symbols must lie in 0..15")
    pad = _N - code.shape[1]
    # the pad implicit leading zeros add nothing to a syndrome
    synd = _apply(_syndrome_map(nroots)[16 * pad :], code)
    out = code[:, : k - pad].copy()
    failed = np.zeros(code.shape[0], dtype=bool)
    # a row with all-zero syndromes is a codeword and stays as it is
    dirty = np.flatnonzero(synd)
    if dirty.size:
        full = np.zeros((dirty.size, _N), dtype=np.uint8)
        full[:, pad:] = code[dirty]
        fixed, bad = _correct(full, _unpack(synd[dirty], nroots))
        # a correction inside the implicit zeros leaves the shortened code
        bad |= fixed[:, :pad].any(axis=1)
        failed[dirty] = bad
        out[dirty[~bad]] = fixed[~bad, pad:k]
    return out, failed


def _product_coeff(a: np.ndarray, b: np.ndarray, l: int) -> np.ndarray:
    """Coefficient l of the row-wise products a(x) * b(x), ascending rows."""
    return np.bitwise_xor.reduce(_MUL[a[:, : l + 1], b[:, l::-1]], axis=1)


def _correct(code: np.ndarray, synd: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bounded-distance correction of rows with non-zero syndromes ``synd``.

    Returns the corrected rows, or the received ones where ``failed``.
    """
    nblk, nroots = synd.shape
    t = nroots // 2

    # Berlekamp-Massey, branchless across the batch.  err/old are the
    # locator and its shifted companion, coefficients ascending.
    width = nroots + 2
    err = np.zeros((nblk, width), dtype=np.uint8)
    old = np.zeros((nblk, width), dtype=np.uint8)
    err[:, 0] = 1
    old[:, 0] = 1
    elen = np.ones(nblk, dtype=np.int64)
    olen = np.ones(nblk, dtype=np.int64)
    for i in range(nroots):
        # discrepancy of the locator against syndrome i (err[:, 0] stays 1)
        delta = _product_coeff(err, synd, i)
        old[:, 1:] = old[:, :-1]
        old[:, 0] = 0
        olen += 1
        swap = (delta != 0) & (olen > elen)
        err_prev = err
        err = err ^ _MUL[delta[:, None], old]
        old = np.where(swap[:, None], _MUL[_INV[delta][:, None], err_prev], old)
        elen, olen = np.where(swap, olen, elen), np.where(swap, elen, olen)
    nerr = elen - 1

    # Chien search: a root of the locator at alpha^j marks an error in
    # column _ROOT_COL[j].  The root count must match the locator degree.
    chien, deriv = _locator_tables(nroots)
    is_root = _unpack(_apply(chien, err), 15) == 0  # (N, 15)
    failed = (nerr > t) | (is_root.sum(axis=1) != nerr)

    # Forney, at the roots of the rows still correctable: omega = S(x) *
    # locator mod x^nroots, magnitude omega / (x * locator').
    omega = np.stack([_product_coeff(err, synd, l) for l in range(nroots)], axis=1)
    rows, roots = np.nonzero(is_root & ~failed[:, None])
    at_root = _NIBBLES[roots]
    # omega has degree < nroots: its map is the first nroots rows of chien's
    om = (_apply(chien[: 16 * nroots], omega)[rows] >> at_root) & np.uint64(15)
    der = (_apply(deriv, err)[rows] >> at_root) & np.uint64(15)
    failed[rows[der == 0]] = True
    keep = ~failed[rows]
    fixed = code.copy()
    fixed[rows[keep], _ROOT_COL[roots[keep]]] ^= _MUL[om[keep], _INV[der[keep]]]

    # A bounded-distance result must be a codeword; anything else is a
    # decoder fault, so re-checking syndromes here costs little and turns
    # silent corruption into a failure flag.
    ok = np.flatnonzero(~failed)
    failed[ok[_apply(_syndrome_map(nroots), fixed[ok]) != 0]] = True
    fixed[failed] = code[failed]
    return fixed, failed


@lru_cache(maxsize=8)
def _branch_metrics(table_bytes: bytes, nout: int) -> np.ndarray:
    """(3^R, 128) Hamming distances from each observation symbol to each word.

    Symbol s holds chip j in base-3 digit j (0, 1, or 2 for an erasure,
    which adds no distance); word w's chips are row w of the output table.
    """
    table = np.frombuffer(table_bytes, dtype=np.uint8).reshape(128, nout)
    digits = (np.arange(3**nout)[:, None] // 3 ** np.arange(nout)) % 3
    differ = (table[None, :, :] != digits[:, None, :]) & (digits != 2)[:, None, :]
    return _readonly(differ.sum(axis=2, dtype=np.int32))


def viterbi_decode(obs: np.ndarray, out_table: np.ndarray) -> np.ndarray:
    """Hard-decision Viterbi over the 64-state rate-1/R trellis.

    ``obs`` holds R chips per trellis step, values 0/1 or 2 for an erased
    (punctured) position; ``out_table`` has shape (128, R), row index
    ``(bit << 6) | state``.  Returns one decoded bit per step, including
    whatever tail the encoder appended.
    """
    obs = np.ascontiguousarray(obs, dtype=np.uint8)
    out_table = np.ascontiguousarray(out_table, dtype=np.uint8)
    if out_table.ndim != 2 or out_table.shape[0] != 128:
        raise ValueError("out_table must have shape (128, R)")
    nout = out_table.shape[1]
    if not 0 < nout <= _MAX_NOUT:
        raise ValueError(f"out_table width {nout} outside 1..{_MAX_NOUT}")
    if obs.size % nout:
        raise ValueError(f"observation length {obs.size} not a multiple of {nout}")
    if obs.size and obs.max() > 2:
        raise ValueError("observations must be 0, 1 or 2 (erased)")
    steps = obs.size // nout
    chips = obs.reshape(steps, nout)
    digits = 3 ** np.arange(nout)
    table = _branch_metrics(out_table.tobytes(), nout)

    # transition w = (bit<<6)|state maps to next state w>>1, so the two
    # predecessors of state ns are words 2*ns and 2*ns+1.  pm holds the
    # path metrics twice, pm[w] = metric of state w & 63, so adding it to
    # a step's branch metrics in place gives every candidate; the minimum
    # of each even/odd pair goes into the first half and is copied to the
    # second.  The metrics are gathered one block of steps at a time, and
    # the survivor decisions kept as 8 bytes per step: bit ns is set when
    # word 2*ns + 1 survives, which it does only if strictly better.
    pm = np.full(128, 1 << 20, dtype=np.int32)
    pm[0] = pm[64] = 0
    pm_lo, pm_hi = pm[:64], pm[64:]
    decisions = bytearray(8 * steps)
    for start in range(0, steps, _BLOCK_STEPS):
        bm = table[chips[start : start + _BLOCK_STEPS] @ digits]  # (block, 128)
        even, odd = bm[:, 0::2], bm[:, 1::2]
        for ext, ext_even, ext_odd in zip(bm, even, odd):
            np.add(pm, ext, out=ext)
            np.minimum(ext_even, ext_odd, out=pm_lo)
            pm_hi[:] = pm_lo
        packed = np.packbits(odd < even, axis=1, bitorder="little")
        decisions[8 * start : 8 * (start + len(bm))] = packed.tobytes()

    bits = bytearray(steps)
    state = 0  # zero tail always drives the encoder back to state 0
    for tstep in range(steps - 1, -1, -1):
        w = 2 * state + (decisions[8 * tstep + (state >> 3)] >> (state & 7) & 1)
        bits[tstep] = w >> 6
        state = w & 63
    return np.frombuffer(bits, dtype=np.uint8)


def _samples(per) -> np.ndarray:
    """``per`` as (N, 4) samples: float32 and float64 read in place, any
    other dtype converted to float64."""
    per = np.asarray(per)
    if per.dtype != np.float32 and per.dtype != np.float64:
        per = np.asarray(per, dtype=np.float64)
    if per.ndim != 2 or per.shape[1] != 4:
        raise ValueError("per must have shape (N, 4)")
    return per


def ook_demodulate(per: np.ndarray) -> np.ndarray:
    """OOK chips of the (N, 4) samples ``per``: 1 where the chip's mean
    exceeds 0.5."""
    per = _samples(per)
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
    return chips.view(np.uint8)


def vppm_demodulate(per: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """VPPM bits of the (N, 4) samples ``per``: 1 where the first half of
    the chip holds more energy than the second.  Also returns the bool
    mask of the chips whose half energies tie, or None when none does."""
    per = _samples(per)
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


# the largest word width: a status index 2**width * neg + w stays uint16
_MAX_WIDTH = 15


def _take(table: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``table[index]`` along axis 0, ``_BLOCK`` indices per take call, which
    keeps take's intp copy of the index O(block).  Every index is in range, so
    ``mode="clip"``, which lets take write into ``out`` unbuffered, clips none."""
    if index.size <= _BLOCK:
        return table.take(index, axis=0, mode="clip")
    out = np.empty(index.shape + table.shape[1:], dtype=table.dtype)
    for i in range(0, index.size, _BLOCK):
        table.take(index[i : i + _BLOCK], axis=0, out=out[i : i + _BLOCK], mode="clip")
    return out


def _running(index: np.ndarray, flips: np.ndarray, size: int) -> np.ndarray:
    """``size * neg + index``, ``neg`` 1 where the 8b/10b running disparity
    is -1 before a word, as it is before the first.  A word flips it or not
    whatever the state, so the whole trajectory is a prefix xor."""
    neg = np.empty(index.size, dtype=bool)
    neg[:1] = True
    neg[1:] = _take(flips, index[:-1])
    np.bitwise_xor.accumulate(neg, out=neg)
    return neg.astype(np.min_scalar_type(2 * size - 1)) * size + index


def _table(table, size: int, name: str) -> np.ndarray:
    """``table`` as a 1-D uint8 array of ``size`` entries."""
    table = np.ascontiguousarray(table, dtype=np.uint8)
    if table.shape != (size,):
        raise ValueError(f"{name} must have shape ({size},)")
    return table


def _pack(chips: np.ndarray, width: int) -> np.ndarray:
    """Pack each group of ``width`` chips, MSB first, into one word, in the
    narrowest dtype that holds it."""
    dtype = np.uint8 if width <= 8 else np.uint16
    return chips.reshape(-1, width) @ (1 << np.arange(width - 1, -1, -1, dtype=dtype))


def decode_words(chips, width: int, values, status, flips=None):
    """``(values[w], mask)`` for each ``width``-chip word ``w`` of ``chips``.

    The mask is ``status[w]``, ``status[2**width * neg + w]`` with the
    running ``neg`` that ``flips`` toggles, or None when ``status`` is
    None.
    """
    width = operator.index(width)
    if not 0 < width <= _MAX_WIDTH:
        raise ValueError(f"width must lie in 1..{_MAX_WIDTH}, got {width}")
    chips = np.ascontiguousarray(chips, dtype=np.uint8).ravel()
    size = 1 << width
    values = _table(values, size, "values")
    if status is not None:
        status = _table(status, 2 * size if flips is not None else size, "status")
    if flips is not None:
        flips = _table(flips, size, "flips")
    if chips.size % width:
        raise ValueError(f"chip count {chips.size} is not a multiple of {width}")
    if chips.size and np.maximum.reduce(chips) > 1:
        raise ValueError("chips must be 0 or 1")
    words = _pack(chips, width)
    mask = None
    if status is not None:
        mask = _take(status, words if flips is None else _running(words, flips, size))
    return _take(values, words), mask


def encode_words(values, table, flips=None):
    """``table[values]`` flattened, each row at the running ``neg`` with ``flips``."""
    values = np.ascontiguousarray(values, dtype=np.uint8).ravel()
    table = np.asarray(table)
    if table.ndim != 2 or table.dtype not in (np.uint8, np.float32, np.float64):
        raise ValueError("table must be a 2-D uint8, float32 or float64 array")
    if flips is not None:
        flips = np.ascontiguousarray(flips, dtype=np.uint8)
        if flips.ndim != 1 or 2 * flips.size != len(table):
            raise ValueError("flips must have half as many entries as table has rows")
    size = len(table) if flips is None else flips.size
    if flips is None and values.size <= _BLOCK:
        # take's own bounds check stands in for a max reduction
        try:
            return table.take(values, axis=0).ravel()
        except IndexError:
            raise ValueError(f"values must lie in 0..{size - 1}") from None
    if values.size and np.maximum.reduce(values) >= size:
        raise ValueError(f"values must lie in 0..{size - 1}")
    return _take(table, values if flips is None else _running(values, flips, size)).ravel()


def float_reprs(values):
    """``[repr(v) for v in values]``, ``values`` a list or tuple of floats."""
    # type(), not isinstance(): the native kernel reads exact floats only
    if not isinstance(values, (list, tuple)) or list(map(type, values)).count(float) < len(values):
        raise ValueError("values must be a list or tuple of floats")
    return list(map(repr, values))
