"""Forward error correction: RS(n, k) over GF(16) and the K=7 binary
convolutional code with hard-decision Viterbi decoding.

RS codes with n < 15 are shortened: encode pads the data with leading zero
symbols up to the mother RS(15, 15-(n-k)) code, decode strips them again
and treats any "correction" landing in the virtual prefix as a failure.

The convolutional code is the constraint-length-7 family: a rate-1/3
mother code (generators 133, 171, 165 octal), extended to rate 1/4 by a
fourth generator and punctured to rate 2/3.  Encoding appends six zero
tail bits so the decoder's traceback can start from the zero state.

The frame chains call the stages over checked arrays: ``_rs_decode``
returns ``(data, bad)``, ``bad`` marking each uncorrectable block.
``rs_encode`` and ``rs_decode`` check their input first and raise
:class:`RsDecodeError` at a bad block.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .. import _kernels
from .line_codes import _as_uint8, _popcount, _raise_first

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
# steps (None: all of them); rate 2/3 keeps 3 of 6 rate-1/3 bits
_TRELLIS = {
    Fraction(1, 4): (_TABLE_R14, None),
    Fraction(1, 3): (_TABLE_R13, None),
    Fraction(2, 3): (_TABLE_R13, np.array([1, 1, 0, 0, 0, 1], dtype=bool)),
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

    def __str__(self) -> str:
        return f"CC({self.rate})"


def _as_symbols(x, width: int, name: str) -> np.ndarray:
    # the kernels check the symbol range; a symbol in 16..255 raises there
    arr = _as_uint8(x, 255, f"{name} symbols must lie in 0..15")
    if arr.ndim != 2 or arr.shape[1] != width:
        raise ValueError(f"{name} must have shape (nblocks, {width})")
    return arr


def _unshorten(rows: np.ndarray, code: RsCode) -> tuple[np.ndarray, int]:
    """``rows`` behind the shortened code's virtual zero symbols, and their count."""
    pad = code.base_k - code.k
    if pad:
        rows = np.concatenate([np.zeros((rows.shape[0], pad), np.uint8), rows], axis=1)
    return rows, pad


def _rs_encode(data: np.ndarray, code: RsCode) -> np.ndarray:
    data, pad = _unshorten(data, code)
    return _kernels.rs_encode_blocks(data, code.base_k)[:, pad:]


def rs_encode(data, code: RsCode) -> np.ndarray:
    """Encode blocks of ``code.k`` symbols; rows of shape (N, k) -> (N, n)."""
    return _rs_encode(_as_symbols(data, code.k, "data"), code)


def _rs_decode(blocks: np.ndarray, code: RsCode) -> tuple[np.ndarray, np.ndarray]:
    # (data, bad) for checked (N, n) blocks: bad marks each block the kernel
    # flags, or corrects inside the virtual prefix (an error pattern outside
    # the shortened code)
    blocks, pad = _unshorten(blocks, code)
    data, failed = _kernels.rs_decode_blocks(blocks, code.base_k)
    bad = failed | data[:, :pad].any(axis=1) if pad else failed
    return data[:, pad:], bad


def _raise_uncorrectable(bad: np.ndarray, code: RsCode) -> None:
    def error(_: int) -> RsDecodeError:
        exc = RsDecodeError(f"{code}: {np.count_nonzero(bad)} of {bad.size} blocks uncorrectable")
        exc.rows = np.flatnonzero(bad)  # type: ignore[attr-defined]
        return exc

    _raise_first(bad, error)


def rs_decode(blocks, code: RsCode) -> np.ndarray:
    """Decode rows of shape (N, n) back to (N, k) data symbols.

    Raises :class:`RsDecodeError` if any row is flagged uncorrectable;
    the exception carries the failing row indices in ``.rows``.
    """
    data, bad = _rs_decode(_as_symbols(blocks, code.n, "blocks"), code)
    _raise_uncorrectable(bad, code)
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
    table, keep = _TRELLIS[code.rate]
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
    table, keep = _TRELLIS[code.rate]
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
