"""Forward error correction: RS(n, k) over GF(16) and the K=7 binary
convolutional code with hard-decision Viterbi decoding.

RS codes with n < 15 are shortened from the mother RS(15, 15-(n-k)) code
by 15 - n virtual leading zero symbols, which only the kernels know of:
they encode and decode the n-symbol rows as they are, and fail any row
whose "correction" lands in the virtual prefix.

The convolutional code is the constraint-length-7 family: a rate-1/3
mother code (generators 133, 171, 165 octal), extended to rate 1/4 by a
fourth generator and punctured to rate 2/3.  Encoding appends six zero
tail bits so the decoder's traceback can start from the zero state.

The frame chains call the stages over checked arrays: ``_rs_decode``
returns ``(data, bad)``, ``bad`` marking each uncorrectable block, and
``_uncorrectable`` is the error the frame chain reports for such a mask.
``rs_encode`` and ``rs_decode`` check their input first, and
``rs_decode`` raises that :class:`RsDecodeError` at a bad block.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .. import _kernels
from .line_codes import _as_uint8, _popcount

__all__ = [
    "RsCode",
    "ConvCode",
    "RsDecodeError",
    "rs_encode",
    "rs_decode",
    "CC_RATES",
    "CC_CONSTRAINT_LENGTH",
]

CC_CONSTRAINT_LENGTH = 7
_TAIL = CC_CONSTRAINT_LENGTH - 1


def _out_table(gens: tuple[int, ...]) -> np.ndarray:
    # row index: (input bit << 6) | state, state = previous six bits
    w = np.arange(128, dtype=np.uint16)
    cols = [_popcount(w & g, 7) & 1 for g in gens]
    return np.stack(cols, axis=1).astype(np.uint8)


_TABLE_R13 = _out_table((0o133, 0o171, 0o165))
_TABLE_R14 = _out_table((0o117, 0o133, 0o171, 0o165))

# each rate's trellis output table, and the coded bits it keeps over two
# steps (None: all of them); rate 2/3 keeps g133 and g171, then g133: the
# (133, 171) rate-1/2 code punctured [11; 10], which is not catastrophic
_TRELLIS = {
    Fraction(1, 4): (_TABLE_R14, None),
    Fraction(1, 3): (_TABLE_R13, None),
    Fraction(2, 3): (_TABLE_R13, np.array([1, 1, 0, 1, 0, 0], dtype=bool)),
}
CC_RATES = tuple(_TRELLIS)


class RsDecodeError(ValueError):
    """More errors than the code can correct (or an inconsistent locator)."""


@dataclass(frozen=True)
class RsCode:
    """A (possibly shortened) Reed-Solomon code over GF(16)."""

    n: int
    k: int

    def __post_init__(self) -> None:
        if not 0 < self.k < self.n <= 15:
            raise ValueError(f"need 0 < k < n <= 15, got RS({self.n},{self.k})")

    @property
    def nroots(self) -> int:
        return self.n - self.k

    @property
    def t(self) -> int:
        """Guaranteed correction capability in symbols."""
        return self.nroots // 2

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.k, self.n)

    @property
    def base_k(self) -> int:
        """Data length of the unshortened RS(15, .) mother code."""
        return 15 - self.nroots

    def __str__(self) -> str:
        return f"RS({self.n},{self.k})"


@dataclass(frozen=True)
class ConvCode:
    """The K=7 convolutional code at one of the three supported rates."""

    rate: Fraction

    def __post_init__(self) -> None:
        if self.rate not in CC_RATES:
            raise ValueError(f"unsupported convolutional rate {self.rate}")
        # resolved once: a lookup by the Fraction rate hashes it, 0.7 us a call
        object.__setattr__(self, "_trellis", _TRELLIS[self.rate])

    def __str__(self) -> str:
        return f"CC({self.rate})"


def _as_symbols(x, width: int, name: str) -> np.ndarray:
    # the kernels check the symbol range; a symbol in 16..255 raises there
    arr = _as_uint8(x, 255, f"{name} symbols must lie in 0..15")
    if arr.ndim != 2 or arr.shape[1] != width:
        raise ValueError(f"{name} must have shape (nblocks, {width})")
    return arr


def _rs_encode(data: np.ndarray, code: RsCode) -> np.ndarray:
    return _kernels.rs_encode_blocks(data, code.base_k)


def rs_encode(data, code: RsCode) -> np.ndarray:
    """Encode blocks of ``code.k`` symbols; rows of shape (N, k) -> (N, n)."""
    return _rs_encode(_as_symbols(data, code.k, "data"), code)


def _rs_decode(blocks: np.ndarray, code: RsCode) -> tuple[np.ndarray, np.ndarray]:
    # (data, bad) for checked (N, n) blocks: bad marks each block the kernel
    # fails, those it would correct inside the virtual prefix among them
    return _kernels.rs_decode_blocks(blocks, code.base_k)


def _uncorrectable(bad: np.ndarray, code: RsCode) -> RsDecodeError:
    # the error for the blocks ``bad`` marks, which carries their indices
    exc = RsDecodeError(f"{code}: {np.count_nonzero(bad)} of {bad.size} blocks uncorrectable")
    exc.rows = np.flatnonzero(bad)  # type: ignore[attr-defined]
    return exc


def rs_decode(blocks, code: RsCode) -> np.ndarray:
    """Decode rows of shape (N, n) back to (N, k) data symbols.

    Raises :class:`RsDecodeError` if any row is flagged uncorrectable;
    the exception carries the failing row indices in ``.rows``.
    """
    data, bad = _rs_decode(_as_symbols(blocks, code.n, "blocks"), code)
    if np.count_nonzero(bad):
        raise _uncorrectable(bad, code)
    return data


_WINDOW_WEIGHTS = (1 << np.arange(CC_CONSTRAINT_LENGTH)).astype(np.uint8)


def _windows(bits: np.ndarray) -> np.ndarray:
    # trellis row of each step over bits and the zero tail: w_t = current
    # bit in bit 6, previous bits below, zero initial state; w_t <= 127
    # fits the uint8 that correlate sums in
    padded = np.zeros(bits.size + 2 * _TAIL, np.uint8)
    padded[_TAIL : _TAIL + bits.size] = bits
    return np.correlate(padded, _WINDOW_WEIGHTS, "valid")


def _cc_encode(bits: np.ndarray, code: ConvCode) -> np.ndarray:
    # (bits.size + 6) / rate coded bits; rate-2/3 puncturing needs an even
    # count of bits and tail
    table, keep = code._trellis
    coded = table.take(_windows(bits), axis=0)
    if keep is None:
        return coded.ravel()
    if (bits.size + _TAIL) % 2:
        raise ValueError(f"rate-{code.rate} puncturing needs an even bit count")
    return coded.reshape(-1, keep.size).compress(keep, axis=1).ravel()


def _viterbi_decode(coded: np.ndarray, code: ConvCode) -> np.ndarray:
    # maximum-likelihood bits of a _cc_encode stream, tail removed;
    # punctured positions come back as erasures (2), which the trellis
    # metric skips, so the rate-2/3 stream decodes on the rate-1/3 trellis
    table, keep = code._trellis
    obs = coded
    if keep is not None:
        kept = np.count_nonzero(keep)
        if coded.size % kept:
            raise ValueError(
                f"rate-{code.rate} stream length must be a multiple of {kept}, got {coded.size}"
            )
        obs = np.full((coded.size // kept, keep.size), 2, dtype=np.uint8)
        obs[:, keep] = coded.reshape(-1, kept)
        obs = obs.ravel()
    if obs.size % table.shape[1]:
        raise ValueError(f"coded length {coded.size} does not fit rate {code.rate}")
    bits = _kernels.viterbi_decode(obs, table)
    if bits.size < _TAIL:
        raise ValueError("coded stream shorter than the tail")
    return bits[:-_TAIL].copy()
