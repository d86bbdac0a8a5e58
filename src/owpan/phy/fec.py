"""Forward error correction: RS(n, k) over GF(16) and the K=7 binary
convolutional code with hard-decision Viterbi decoding.

RS codes with n < 15 are shortened: encode pads the data with leading zero
symbols up to the mother RS(15, 15-(n-k)) code, decode strips them again
and treats any "correction" landing in the virtual prefix as a failure.

The convolutional code is the constraint-length-7 family: a rate-1/3
mother code (generators 133, 171, 165 octal), extended to rate 1/4 by a
fourth generator and punctured to rate 2/3.  Encoding appends six zero
tail bits so the decoder's traceback can start from the zero state.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .. import _kernels
from .line_codes import _as_bits, _as_uint8, _popcount

__all__ = [
    "RsCode",
    "ConvCode",
    "RsDecodeError",
    "rs_encode",
    "rs_decode",
    "cc_encode",
    "viterbi_decode",
    "CC_RATES",
    "CC_CONSTRAINT_LENGTH",
]

CC_CONSTRAINT_LENGTH = 7
_TAIL = CC_CONSTRAINT_LENGTH - 1

_GENS_R13 = (0o133, 0o171, 0o165)
_GENS_R14 = (0o117, 0o133, 0o171, 0o165)
# puncture pattern over two rate-1/3 steps: keep 3 of 6 coded bits
_PUNCTURE_R23 = np.array([1, 1, 0, 0, 0, 1], dtype=bool)

CC_RATES = (Fraction(1, 4), Fraction(1, 3), Fraction(2, 3))


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


def rs_encode(data, code: RsCode) -> np.ndarray:
    """Encode blocks of ``code.k`` symbols; rows of shape (N, k) -> (N, n)."""
    data = _as_symbols(data, code.k, "data")
    pad = code.base_k - code.k
    if pad:
        data = np.concatenate(
            [np.zeros((data.shape[0], pad), np.uint8), data], axis=1
        )
    full = _kernels.rs_encode_blocks(data, code.base_k)
    return full[:, pad:]


def rs_decode(blocks, code: RsCode) -> np.ndarray:
    """Decode rows of shape (N, n) back to (N, k) data symbols.

    Raises :class:`RsDecodeError` if any row is flagged uncorrectable;
    the exception carries the failing row indices in ``.rows``.
    """
    blocks = _as_symbols(blocks, code.n, "blocks")
    pad = code.base_k - code.k
    if pad:
        blocks = np.concatenate(
            [np.zeros((blocks.shape[0], pad), np.uint8), blocks], axis=1
        )
    data, failed = _kernels.rs_decode_blocks(blocks, code.base_k)
    if pad:
        # a correction inside the virtual prefix means the error pattern
        # was outside the shortened code
        failed = failed | data[:, :pad].any(axis=1)
        data = data[:, pad:]
    if failed.any():
        rows = np.nonzero(failed)[0]
        exc = RsDecodeError(
            f"{code}: {len(rows)} of {blocks.shape[0]} blocks uncorrectable"
        )
        exc.rows = rows  # type: ignore[attr-defined]
        raise exc
    return data


def _out_table(gens: tuple[int, ...]) -> np.ndarray:
    # row index: (input bit << 6) | state, state = previous six bits
    w = np.arange(128, dtype=np.uint16)
    cols = [_popcount(w & g, 7) & 1 for g in gens]
    return np.stack(cols, axis=1).astype(np.uint8)


_TABLE_R13 = _out_table(_GENS_R13)
_TABLE_R14 = _out_table(_GENS_R14)


def _windows(bits: np.ndarray) -> np.ndarray:
    # w_t = current bit in bit 6, previous bits below; zero initial state
    padded = np.concatenate([np.zeros(_TAIL, np.uint8), bits]).astype(np.int64)
    n = bits.size
    w = np.zeros(n, dtype=np.int64)
    for i in range(CC_CONSTRAINT_LENGTH):
        w += padded[i : i + n] << i
    return w


def cc_encode(bits, code: ConvCode) -> np.ndarray:
    """Encode bits (with implicit zero tail) at the given rate.

    Output length is (len(bits)+6)/rate; the rate-2/3 puncturing requires
    an even number of input bits including the tail.
    """
    bits = _as_bits(bits, "bits")
    tailed = np.concatenate([bits, np.zeros(_TAIL, np.uint8)])
    if code.rate == Fraction(1, 4):
        table = _TABLE_R14
    else:
        table = _TABLE_R13
    coded = table[_windows(tailed)].ravel()
    if code.rate == Fraction(2, 3):
        if tailed.size % 2:
            raise ValueError("rate-2/3 puncturing needs an even bit count")
        keep = np.tile(_PUNCTURE_R23, tailed.size // 2)
        coded = coded[keep]
    return coded


def viterbi_decode(coded, code: ConvCode) -> np.ndarray:
    """Maximum-likelihood decode of a ``cc_encode`` stream (tail removed).

    Punctured positions are restored as erasures, which the trellis metric
    skips, so the rate-2/3 stream decodes on the rate-1/3 trellis.
    """
    coded = _as_bits(coded, "coded bits")
    if code.rate == Fraction(1, 4):
        table, obs = _TABLE_R14, coded
    elif code.rate == Fraction(1, 3):
        table, obs = _TABLE_R13, coded
    else:
        table = _TABLE_R13
        if coded.size % 3:
            raise ValueError(
                f"rate-2/3 stream length must be a multiple of 3, got {coded.size}"
            )
        obs = np.full(coded.size * 2, 2, dtype=np.uint8)
        obs[np.tile(_PUNCTURE_R23, coded.size // 3)] = coded
    if obs.size % table.shape[1]:
        raise ValueError(f"coded length {coded.size} does not fit rate {code.rate}")
    bits = _kernels.viterbi_decode(obs, table)
    if bits.size < _TAIL:
        raise ValueError("coded stream shorter than the tail")
    return bits[:-_TAIL].copy()
