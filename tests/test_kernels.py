"""Pure-numpy and compiled kernels must be bit-identical on every input."""

import hashlib
import importlib.util
import itertools
import math
import os
import re
import shutil
import sys
import sysconfig
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from owpan import _kernels
from owpan._kernels import _BLOCK, _pure, _tables
from owpan.phy import frames, line_codes, modulation
from owpan.phy.fec import _TABLE_R13, _TABLE_R14, ConvCode, _cc_encode
from owpan.phy.modes import phy_mode_catalog
from owpan.phy.modulation import _per_chip, _vppm_modulate

try:
    from owpan._kernels import _native
except ImportError:
    _native = None

needs_native = pytest.mark.skipif(_native is None, reason="compiled extension not built")

# every importable backend, the pure reference first
BACKENDS = [_pure] if _native is None else [_pure, _native]


def _on_backends(cases, ids):
    """Parameters (backend, case) for every case on every importable backend.

    A case keeps its bare id on the pure backend and is prefixed with the
    backend's name on any other.
    """
    return [
        pytest.param(
            backend, case, id=case_id if backend is _pure else f"{backend.BACKEND}-{case_id}"
        )
        for backend in BACKENDS
        for case, case_id in zip(cases, ids)
    ]


def test_backend_reports_itself():
    assert _kernels.BACKEND in ("pure", "native")
    assert _pure.BACKEND == "pure"
    forced = os.environ.get("OWPAN_KERNELS", "auto")
    if forced in ("pure", "native"):
        assert _kernels.BACKEND == forced
    elif _native is not None:
        assert _native.BACKEND == "native"
        assert _kernels.BACKEND == "native"  # auto prefers the extension


@needs_native
def test_rs_encode_backends_agree():
    rng = np.random.default_rng(5)
    for k in (4, 7, 11, 12):
        data = rng.integers(0, 16, size=(40, k), dtype=np.uint8)
        a = _pure.rs_encode_blocks(data, k)
        b = _native.rs_encode_blocks(data, k)
        assert a.tolist() == b.tolist()


@needs_native
def test_rs_decode_backends_agree():
    rng = np.random.default_rng(6)
    for k in (4, 7, 11, 12):
        data = rng.integers(0, 16, size=(60, k), dtype=np.uint8)
        code = _pure.rs_encode_blocks(data, k)
        # sprinkle 0..3 symbol errors per row; some exceed the budget
        for row in code:
            nerr = rng.integers(0, 4)
            pos = rng.choice(15, size=nerr, replace=False)
            row[pos] ^= rng.integers(1, 16, size=nerr).astype(np.uint8)
        out_p, fail_p = _pure.rs_decode_blocks(code.copy(), k)
        out_n, fail_n = _native.rs_decode_blocks(code.copy(), k)
        assert fail_p.tolist() == fail_n.tolist()
        # a failed row returns the received data
        assert out_p.tolist() == out_n.tolist()
        assert out_n[fail_n].tolist() == code[fail_n, :k].tolist()


def _zero_prefix_encode(data, k):
    """Shortened RS as the frame codec once made it, kept as the oracle of
    the kernels' own shortening: the rows behind k - w zero symbols,
    encoded at full width on the pure kernel, the zeros cut off again."""
    pad = k - data.shape[1]
    full = np.concatenate([np.zeros((len(data), pad), np.uint8), data], axis=1)
    return _pure.rs_encode_blocks(full, k)[:, pad:]


def _zero_prefix_decode(code, k):
    """The decoding twin of :func:`_zero_prefix_encode`: a row whose
    correction lands in the zeros fails, and a failed row returns the
    received data, as every failed row does under the kernel contract."""
    pad = 15 - code.shape[1]
    full = np.concatenate([np.zeros((len(code), pad), np.uint8), code], axis=1)
    data, failed = _pure.rs_decode_blocks(full, k)
    failed |= data[:, :pad].any(axis=1)
    data = data[:, pad:]
    data[failed] = code[failed, : k - pad]
    return data, failed


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 14).flatmap(lambda k: st.tuples(st.just(k), st.integers(1, k))),
    st.integers(0, 2**32 - 1),
)
def test_shortened_rs_kernels_equal_the_zero_prefix_path(kw, seed):
    """Every k and shortened width w: both backends encode and decode as the
    zero-prefix oracle does.  The received rows are mother codewords whose
    virtual prefix is sometimes nonzero, so that the decoder corrects into
    it, with up to t + 1 symbol errors on the sent part."""
    k, w = kw
    pad, t = k - w, (15 - k) // 2
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 16, (12, w), dtype=np.uint8)
    sent = _zero_prefix_encode(data, k)
    for backend in BACKENDS:
        assert np.array_equal(backend.rs_encode_blocks(data, k), sent)
    mother = rng.integers(0, 16, (12, k), dtype=np.uint8)
    mother[:, :pad] *= rng.random((12, pad)) < 0.2
    code = _pure.rs_encode_blocks(mother, k)[:, pad:]
    for row in code:
        nerr = rng.integers(0, t + 2)
        row[rng.choice(row.size, nerr, replace=False)] ^= rng.integers(1, 16, nerr, np.uint8)
    expected = _zero_prefix_decode(code, k)
    for backend in BACKENDS:
        data, failed = backend.rs_decode_blocks(code, k)
        assert np.array_equal(failed, expected[1])
        assert np.array_equal(data, expected[0])


@pytest.mark.parametrize("backend", BACKENDS, ids=lambda m: m.BACKEND)
def test_shortened_rs14_7_corrects_every_one_and_two_symbol_error(backend):
    """Every error of one or two symbols, at any positions of an RS(14,7)
    block and of any values, decodes to the sent data: 210 + 20,475 rows,
    14 symbols wide, on the mother RS(15,8) kernel."""
    data = np.array([[3, 1, 4, 1, 5, 9, 2]], np.uint8)
    sent = backend.rs_encode_blocks(data, 8)
    assert sent.shape == (1, 14)
    errors = []
    for npos in (1, 2):
        values = np.array(list(itertools.product(range(1, 16), repeat=npos)), np.uint8)
        for pos in itertools.combinations(range(14), npos):
            e = np.zeros((len(values), 14), np.uint8)
            e[:, list(pos)] = values
            errors.append(e)
    received = sent ^ np.concatenate(errors)
    assert received.shape == (210 + 20_475, 14)
    out, failed = backend.rs_decode_blocks(received, 8)
    assert not failed.any()
    assert (out == data).all()


@needs_native
def test_viterbi_backends_agree():
    rng = np.random.default_rng(7)
    for table in (_TABLE_R13, _TABLE_R14):
        nout = table.shape[1]
        obs = rng.integers(0, 2, size=50 * nout).astype(np.uint8)
        # punch in some erasures like the depunctured rate-2/3 path does
        obs[rng.choice(obs.size, size=20, replace=False)] = 2
        a = _pure.viterbi_decode(obs.copy(), table)
        b = _native.viterbi_decode(obs.copy(), table)
        assert a.tolist() == b.tolist()


def _damaged_chips(rng, chips):
    """``chips`` as sent, with 1-3 chips flipped, cut short and extended."""
    flipped = chips.copy()
    flipped[rng.choice(chips.size, size=rng.integers(1, 4), replace=False)] ^= 1
    cut = rng.integers(1, 25)
    extra = rng.integers(0, 2, rng.integers(1, 25)).astype(np.uint8)
    return [chips, flipped, chips[:-cut], np.concatenate([chips, extra])]


def _chain_outcome(chips, mode):
    try:
        return frames.decode_from_chips(chips, mode)
    except frames.FrameDecodeError as exc:
        return f"FrameDecodeError: {exc}"


@needs_native
@pytest.mark.parametrize("mode", [m for m in phy_mode_catalog() if m.bound], ids=lambda m: m.name)
def test_full_frame_chain_backend_independent(mode, monkeypatch):
    """Clean and damaged chip streams decode to the same payload, or fail
    with the same message, with the line decoders on either backend."""
    rng = np.random.default_rng(sum(mode.name.encode()))
    payload = bytes(range(64))
    chips = frames.encode_to_chips(payload, mode)
    assert frames.decode_from_chips(chips, mode) == payload
    for trial in range(8):
        for damaged in _damaged_chips(rng, chips):
            outcomes = []
            for backend in (_pure, _native):
                monkeypatch.setattr(_kernels, "decode_words", backend.decode_words)
                outcomes.append(_chain_outcome(damaged, mode))
            assert outcomes[0] == outcomes[1]


# --- every backend pinned to the recorded pure outputs -----------------------
#
# The agreement tests above skip when the extension is not built, so these
# digests are what keeps a rewrite of either backend bit-identical.  They
# were recorded from the straightforward pure implementation (per-row BM,
# Chien and Forney on every row, the k-step LFSR encoder, the per-step
# compare-and-sum Viterbi, the block-wise numpy demodulators and the
# matmul-and-take line decoders, which the frame chain called directly
# before they became kernels, and the blocked take of the line encoders and
# modulators, likewise, and Python's repr for float_reprs) on the seeded
# inputs built below, with numpy 2.4 (decode_words' digest also equals
# _word_oracle's, encode_words' that of _encode_oracle):
# a numpy release that changes the streams of its seeded Generator changes
# the inputs, and the digests must then be recorded again from that code.
# The tests are named for the pure reference and run on every importable
# backend; test_native_source_matches_pinned_digests also builds the C
# source of a plain checkout, where no extension is built.

_PINNED = {
    "viterbi_r13": "bcafe0649c51dff799d0a32d9decfe9d7c60fec1e0c628a06a68aea53311feae",
    "viterbi_r14": "0aa996d2a61c1c5c4e3a402536005cc2cdcc94064b567bfb7efe339303ade3ab",
    "rs_encode": "5239ce8608a3fd678a14637d4ecfd63e9cef5f81597586759621180df6040d6f",
    "rs_decode": "bab181435fab10903efc91f5c753b1919b1fd3ec59479ec4a1976f0a29883b0c",
    "ook_demodulate": "7aedfa79855c85a449a4ce488b5eb562991cc3e9d90d718fb252c8fa2511caa3",
    "vppm_demodulate": "b0bc34dfaa556aa27186c6e14a45be4b51a17d3fd5cb635cc6ab98934a49d472",
    "decode_words": "72e0660f449a4933148ac7aa748929be5a6c4e7598d219ffb9a8dc7e198ff2e6",
    "encode_words": "f6c50205d38f4c72b4666941b7bd69cd4815d7738b2e43a1babdebe26f188977",
    "float_reprs": "00fb2802ed1813db62691a1e6c4cfd105fe73cda99730636ae057c32114b1956",
}


def _digest_update(h, *arrays):
    for a in arrays:
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())


def _random_symbol_errors(rng, row, nerr):
    pos = rng.choice(15, size=nerr, replace=False)
    row[pos] ^= rng.integers(1, 16, size=nerr).astype(np.uint8)


def _pinned_viterbi(backend, table):
    h = hashlib.sha256()
    rng = np.random.default_rng(101 + table.shape[1])
    code = ConvCode(Fraction(1, table.shape[1]))
    for steps in range(1, 401, 3):
        # uniform 0/1/2 observations: ties on nearly every step
        obs = rng.integers(0, 3, size=steps * table.shape[1], dtype=np.uint8)
        _digest_update(h, backend.viterbi_decode(obs, table))
        # a codeword with flips and erasures: the decoding the codec does
        if steps > 6:
            obs = _cc_encode(rng.integers(0, 2, size=steps - 6).astype(np.uint8), code)
            obs[rng.random(obs.size) < 0.05] ^= 1
            obs[rng.random(obs.size) < 0.05] = 2
            _digest_update(h, backend.viterbi_decode(obs, table))
    return h.hexdigest()


def _pinned_rs_encode(backend):
    h = hashlib.sha256()
    rng = np.random.default_rng(202)
    for k in range(1, 15):
        for nblk in (0, 1, 3, 64):
            data = rng.integers(0, 16, size=(nblk, k), dtype=np.uint8)
            _digest_update(h, backend.rs_encode_blocks(data, k))
    return h.hexdigest()


def _rs_decode_batches(rng, k):
    """Batches mixing clean rows, rows with <= t and > t errors, random rows."""
    t = (15 - k) // 2
    yield np.zeros((0, 15), np.uint8)
    for nblk in (1, 5, 90):
        code = _pure.rs_encode_blocks(
            rng.integers(0, 16, size=(nblk, k), dtype=np.uint8), k
        )
        for row in code:
            kind = rng.integers(0, 4)
            if kind == 1 and t:
                _random_symbol_errors(rng, row, rng.integers(1, t + 1))
            elif kind == 2:
                _random_symbol_errors(rng, row, rng.integers(t + 1, min(t + 5, 15) + 1))
            elif kind == 3:
                row[:] = rng.integers(0, 16, size=15, dtype=np.uint8)
        yield code


_F32_MAX = float(np.finfo(np.float32).max)


def _special_samples(dtype):
    """Values at the edges of ``dtype``: NaN, +-inf, +-float32's maximum and
    +-``dtype``'s, its smallest subnormals, and the OOK threshold's mean."""
    fi = np.finfo(dtype)
    tiny = float(fi.smallest_subnormal)
    return np.array(
        [0.0, 0.5, 1.0, np.nan, np.inf, -np.inf, _F32_MAX, -_F32_MAX, fi.max, -fi.max, tiny, -tiny],
        dtype=dtype,
    )


def _chip_samples(rng, nchips, dtype):
    """(nchips, 4) noisy samples: about one in 20 a special value, about one
    chip in 10 with half energies forced equal, and OOK chips whose sum is
    exactly 2 or depends on the order of summation."""
    per = rng.normal(0.5, 0.6, size=(nchips, 4)).astype(dtype)
    hits = rng.random(per.shape) < 0.05
    per[hits] = rng.choice(_special_samples(dtype), size=int(hits.sum()))
    ties = rng.random(nchips) < 0.1
    per[ties, 2:] = per[ties, 1::-1]  # equal halves unless a NaN or inf - inf
    edges = np.array([[0.5, 0.5, 0.5, 0.5], [-2.5, 1e17, -1e17, 2.5]], dtype=dtype)
    at = rng.random(nchips) < 0.02
    per[at] = edges[rng.integers(0, 2, int(at.sum()))]
    return per


def _demodulator_batches(seed):
    rng = np.random.default_rng(seed)
    for dtype in (np.float32, np.float64):
        for nchips in (0, 1, 2, 5, 64, 999, _BLOCK + 3):
            yield _chip_samples(rng, nchips, dtype)


def _pinned_ook_demodulate(backend):
    h = hashlib.sha256()
    for per in _demodulator_batches(505):
        _digest_update(h, backend.ook_demodulate(per))
    return h.hexdigest()


def _pinned_vppm_demodulate(backend):
    h = hashlib.sha256()
    for per in _demodulator_batches(606):
        bits, bad = backend.vppm_demodulate(per)
        _digest_update(h, bits, np.zeros(0) if bad is None else bad)
    return h.hexdigest()


def _pinned_rs_decode(backend):
    h = hashlib.sha256()
    rng = np.random.default_rng(303)
    for k in range(1, 15):
        for code in _rs_decode_batches(rng, k):
            data, failed = backend.rs_decode_blocks(code, k)
            _digest_update(h, data, failed)
    return h.hexdigest()


# (width, values, status, flips) of each line decoder and of the frame's
# nibble packing, by name
_WORD_TABLES = {
    "manchester": (2, line_codes._MANCHESTER_BIT, line_codes._MANCHESTER_BAD, None),
    "nibbles": (4, frames._NIBBLES, None, None),
    "4b6b": (6, line_codes._REV_4B6B, line_codes._BAD_4B6B, None),
    "8b10b": (10, line_codes._DEC_BYTE, line_codes._DEC_STATUS, line_codes._DEC_FLIP),
}


def _random_word_tables(rng, width):
    """Random values, status and flips tables for ``width``."""
    size = 1 << width
    values = rng.integers(0, 256, size, dtype=np.uint8)
    status = rng.integers(0, 3, 2 * size, dtype=np.uint8)
    flips = rng.integers(0, 2, size, dtype=np.uint8) * rng.integers(1, 256, size, dtype=np.uint8)
    return values, status, flips


def _word_streams(rng, name, nwords):
    """Chips of ``nwords`` encoded words for table set ``name``, then damaged:
    chips flipped at one of three rates and some words replaced by random
    chips, which are off the table or break the 8b/10b disparity."""
    if name == "manchester":
        chips = line_codes._manchester_encode(rng.integers(0, 2, nwords, dtype=np.uint8))
    elif name == "4b6b":
        chips = line_codes._encode_4b6b(rng.integers(0, 16, nwords, dtype=np.uint8))
    elif name == "8b10b":
        chips = line_codes._encode_8b10b(rng.integers(0, 256, nwords, dtype=np.uint8))
    else:
        chips = rng.integers(0, 2, _WORD_TABLES[name][0] * nwords, dtype=np.uint8)
    chips[rng.random(chips.size) < rng.choice([0.0, 1e-3, 0.05])] ^= 1
    width = _WORD_TABLES[name][0]
    words = chips.reshape(-1, width)
    hit = rng.random(nwords) < rng.choice([0.0, 1e-3, 0.05])
    words[hit] = rng.integers(0, 2, (int(hit.sum()), width), dtype=np.uint8)
    return chips


def _digest_words(h, result):
    values, mask = result
    _digest_update(h, values, np.zeros(0) if mask is None else mask)


def _pinned_decode_words(backend):
    h = hashlib.sha256()
    rng = np.random.default_rng(707)
    for name, (width, *tables) in _WORD_TABLES.items():
        for nwords in (0, 1, 5, 999, _BLOCK + 3):
            _digest_words(h, backend.decode_words(_word_streams(rng, name, nwords), width, *tables))
    # every width on random tables: with flips, without and without status
    for width in range(1, 16):
        values, status, flips = _random_word_tables(rng, width)
        chips = rng.integers(0, 2, width * 300, dtype=np.uint8)
        _digest_words(h, backend.decode_words(chips, width, values, status, flips))
        _digest_words(h, backend.decode_words(chips, width, values, status[: 1 << width]))
        _digest_words(h, backend.decode_words(chips, width, values, None, flips))
    return h.hexdigest()


# (table, flips) of each encode_words table set of the codec, by name
_ENCODE_TABLES = {
    "byte_nibbles": (frames._BYTE_NIBBLES, None),
    "nibble_bits": (frames._NIBBLE_BITS, None),
    "manchester": (line_codes._MANCHESTER_CHIPS, None),
    "4b6b": (line_codes._CHIPS_4B6B, None),
    "8b10b": (line_codes._ENC_CHIPS, line_codes._ENC_FLIP),
    "ook": (modulation._OOK_TABLE, None),
    "vppm_f32": (modulation._vppm_table(0.375), None),
    "vppm_f64": (modulation._vppm_table(0.4), None),
}


def _random_encode_tables(rng, dtype, cols, with_flips):
    """A random ``dtype`` table of ``cols`` columns, its flips (None unless
    ``with_flips``) and the number of values it encodes."""
    nvalues = int(rng.integers(1, 257))
    rows = 2 * nvalues if with_flips else nvalues
    if dtype == np.uint8:
        table = rng.integers(0, 256, (rows, cols), dtype=np.uint8)
    else:
        table = rng.normal(size=(rows, cols)).astype(dtype)
    flips = None
    if with_flips:
        flips = rng.integers(0, 2, nvalues, dtype=np.uint8)
        flips *= rng.integers(1, 256, nvalues, dtype=np.uint8)
    return table, flips, nvalues


def _encode_oracle(values, table, flips):
    """``table[values]`` flattened, each row picked with the running ``neg``
    of a plain Python loop over the flips."""
    if flips is None:
        return table[values].ravel()
    neg, rows = 1, []
    for v in values.tolist():
        rows.append(len(flips) * neg + v)
        neg ^= bool(flips[v])
    return table[np.array(rows, dtype=np.intp)].ravel()


def _pinned_encode_words(backend):
    h = hashlib.sha256()
    rng = np.random.default_rng(808)
    for table, flips in _ENCODE_TABLES.values():
        nvalues = len(table) if flips is None else len(flips)
        for n in (0, 1, 5, 999, _BLOCK + 3):
            values = rng.integers(0, nvalues, n, dtype=np.uint8)
            _digest_update(h, backend.encode_words(values, table, flips))
    # every dtype on random tables of row sizes inside and outside the
    # native kernel's specialised ones, with and without flips
    for dtype in (np.uint8, np.float32, np.float64):
        for cols in (0, 1, 2, 3, 4, 5, 6, 8, 10, 13, 16, 32):
            for with_flips in (False, True):
                table, flips, nvalues = _random_encode_tables(rng, dtype, cols, with_flips)
                values = rng.integers(0, nvalues, 300, dtype=np.uint8)
                _digest_update(h, backend.encode_words(values, table, flips))
    return h.hexdigest()


def _pinned_float_reprs(backend):
    h = hashlib.sha256()
    rng = np.random.default_rng(909)
    for n in (0, 1, 5, 999, 20_000):
        values = rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64)
        h.update("\n".join(backend.float_reprs(values.tolist())).encode() + b"\0")
    # short decimals: integers below 10^10 times each power of ten in
    # range, read from their decimal text, so that no CPU's pow rounds them
    digits = rng.integers(1, 10**10, 628).tolist()
    values = [float(f"{m}e{e}") for m, e in zip(digits, range(-330, 298))]
    h.update("\n".join(backend.float_reprs(values)).encode())
    return h.hexdigest()


_PINNED_FNS = {
    "viterbi_r13": lambda backend: _pinned_viterbi(backend, _TABLE_R13),
    "viterbi_r14": lambda backend: _pinned_viterbi(backend, _TABLE_R14),
    "rs_encode": _pinned_rs_encode,
    "rs_decode": _pinned_rs_decode,
    "ook_demodulate": _pinned_ook_demodulate,
    "vppm_demodulate": _pinned_vppm_demodulate,
    "decode_words": _pinned_decode_words,
    "encode_words": _pinned_encode_words,
    "float_reprs": _pinned_float_reprs,
}


@pytest.mark.parametrize("backend,name", _on_backends(sorted(_PINNED), sorted(_PINNED)))
def test_pure_outputs_match_pinned_digest(backend, name):
    assert _PINNED_FNS[name](backend) == _PINNED[name]


def _c_toolchain_present() -> bool:
    cc = (sysconfig.get_config_var("CC") or "").split()
    headers = Path(sysconfig.get_paths()["include"], "Python.h")
    return bool(cc) and shutil.which(cc[0]) is not None and headers.is_file()


@pytest.mark.skipif(not _c_toolchain_present(), reason="no C compiler or Python.h")
def test_native_source_matches_pinned_digests(tmp_path):
    """Build _native.c with setuptools into tmp_path and pin its outputs."""
    from setuptools import Distribution, Extension

    source = Path(__file__).parents[1] / "src" / "owpan" / "_kernels" / "_native.c"
    ext = Extension("owpan._kernels._native", [str(source)])
    dist = Distribution({"name": "owpan-native-check", "ext_modules": [ext]})
    build = dist.get_command_obj("build_ext")
    build.build_lib = str(tmp_path)
    build.build_temp = str(tmp_path / "temp")
    dist.run_command("build_ext")
    spec = importlib.util.spec_from_file_location(ext.name, build.get_ext_fullpath(ext.name))
    built = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(built)
    assert built.BACKEND == "native"
    for name, digest in _PINNED.items():
        assert _PINNED_FNS[name](built) == digest, name


@pytest.mark.parametrize(
    "backend,table", _on_backends([_TABLE_R13, _TABLE_R14], ["r13", "r14"])
)
def test_pure_viterbi_is_maximum_likelihood(backend, table):
    """Over all 2^n messages plus the zero tail, none is nearer the input."""
    rng = np.random.default_rng(404 + table.shape[1])
    code = ConvCode(Fraction(1, table.shape[1]))
    for nbits in range(1, 9):
        msgs = (np.arange(2**nbits)[:, None] >> np.arange(nbits)) & 1
        book = np.stack([_cc_encode(m.astype(np.uint8), code) for m in msgs])
        for _ in range(25):
            obs = book[rng.integers(len(book))].copy()
            obs[rng.random(obs.size) < 0.15] ^= 1
            obs[rng.random(obs.size) < 0.15] = 2
            bits = backend.viterbi_decode(obs, table)
            assert bits.size == nbits + 6 and not bits[nbits:].any()
            # erased chips carry no distance
            dist = ((book != obs) & (obs != 2)).sum(axis=1)
            assert dist[int((bits[:nbits] << np.arange(nbits)).sum())] == dist.min()


# --- large calls, which the native kernels split across two threads ----------
#
# From SPLIT_ROWS chips on, when the process may run on two CPUs, the native
# demodulators and the modulators' encode_words (flip-free rows of 16 bytes
# or more) run their first half of the chips on the calling thread and the
# second on a helper thread.  The tests below put calls on both sides of
# that count, with the halves uneven at 2 * count + 1; a one-CPU affinity
# mask (taskset -c 0) runs the same calls through the serial loop.


def _split_rows():
    """The chip count SPLIT_ROWS that ``_native.c`` defines as 1 << bits."""
    source = Path(_pure.__file__).with_name("_native.c").read_text()
    return 1 << int(re.search(r"#define SPLIT_ROWS \(\(Py_ssize_t\)1 << (\d+)\)", source)[1])


_SPLIT = _split_rows()
_AROUND_SPLIT = [_SPLIT - 1, _SPLIT, _SPLIT + 1, 2 * _SPLIT + 1]
_AROUND_SPLIT_IDS = ["T-1", "T", "T+1", "2T+1"]


# the VPPM chips that tie, in a waveform of n chips split at n // 2
_TIE_PLACES = {
    "nowhere": lambda n: [],
    "first-half": lambda n: [0, 7, n // 2 - 2],
    "second-half": lambda n: [n // 2 + 1, n - 1],
    "split-point": lambda n: [n // 2 - 1, n // 2],
}


@pytest.mark.parametrize("backend,place", _on_backends(list(_TIE_PLACES), list(_TIE_PLACES)))
@pytest.mark.parametrize("dimming", [0.25, 0.4], ids=["float32", "float64"])
def test_vppm_ties_on_either_side_of_the_split(backend, place, dimming):
    """Both halves count ties, and both mark them; a waveform with none
    keeps no mask."""
    n = 2 * _SPLIT + 1
    bits = np.random.default_rng(18).integers(0, 2, n, dtype=np.uint8)
    per = _per_chip(_vppm_modulate(bits, dimming))
    ties = _TIE_PLACES[place](n)
    per[ties] = 0.5
    bits[ties] = 0
    got, bad = backend.vppm_demodulate(per)
    assert got.dtype == np.uint8 and np.array_equal(got, bits)
    if ties:
        assert np.flatnonzero(bad).tolist() == ties
    else:
        assert bad is None


@pytest.mark.parametrize(
    "dtype,cols",
    [(np.uint8, c) for c in (16, 24, 32)]
    + [(np.float32, c) for c in (4, 6, 8)]
    + [(np.float64, c) for c in (2, 3, 4)],
    ids=lambda x: np.dtype(x).name if isinstance(x, type) else f"{x}cols",
)
def test_flip_free_encode_words_around_the_split(dtype, cols):
    """table[values] on both sides of the split, in rows of 16, 24 and 32
    bytes; a value past the table in the last place raises before any row
    is written."""
    rng = np.random.default_rng(cols)
    table, _, nvalues = _random_encode_tables(rng, dtype, cols, False)
    short = table[: max(1, nvalues - 1)]
    for n in _AROUND_SPLIT:
        values = rng.integers(0, len(short), n, dtype=np.uint8)
        expected = table[values].ravel()
        past = values.copy()
        past[-1] = len(short)
        for backend in BACKENDS:
            got = backend.encode_words(values, table)
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
            with pytest.raises(ValueError, match=f"values must lie in 0..{len(short) - 1}$"):
                backend.encode_words(past, short)


@needs_native
def test_split_kernels_agree_when_python_threads_call_them_at_once():
    """The native kernels release the GIL around their large loops, so
    Python threads can run them at once: six threads on two CPUs, each
    repeating one large call, all get the single-caller results."""
    bits = np.random.default_rng(19).integers(0, 2, 2 * _SPLIT + 1, dtype=np.uint8)
    per = _per_chip(_vppm_modulate(bits, 0.25))
    per[[5, len(per) - 5]] = 0.5
    calls = [
        lambda: _native.encode_words(bits, modulation._vppm_table(0.25)),
        lambda: _native.encode_words(bits, modulation._vppm_table(0.4)),
        lambda: _native.encode_words(bits, modulation._OOK_TABLE),
        lambda: _native.ook_demodulate(per),
        lambda: np.concatenate(_native.vppm_demodulate(per)),
        lambda: _native.vppm_demodulate(per[:-3])[0],
    ]
    expected = [call().tobytes() for call in calls]

    def repeat(i):
        return all(calls[i]().tobytes() == expected[i] for _ in range(5))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(len(calls)) as pool:
            futures = [pool.submit(repeat, i) for i in range(len(calls))]
            assert all(f.result(timeout=120) for f in futures)
    finally:
        sys.setswitchinterval(interval)


# --- the demodulators ---------------------------------------------------------
#
# Both read (N, 4) samples: float32 and float64 in place, anything else as
# its float64 conversion.  OOK sums ((s0 + s1) + s2) + s3 in float64 and
# compares with 2; VPPM compares s0 + s1 with s2 + s3 and marks equality as
# a tie, returning None for the mask when no chip ties.


def _ook_oracle(per):
    per = np.asarray(per, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        return (per.mean(axis=1) > 0.5).astype(np.uint8)


def _vppm_oracle(per):
    per = np.asarray(per, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        first, second = per[:, :2].sum(axis=1), per[:, 2:].sum(axis=1)
    ties = first == second
    return (first > second).astype(np.uint8), ties if ties.any() else None


def _assert_same_demodulation(got, expected):
    (chips, bad), (chips_x, bad_x) = got, expected
    assert chips.dtype == np.uint8 and chips.tolist() == chips_x.tolist()
    if bad_x is None:
        assert bad is None
    else:
        assert bad.dtype == bool and bad.tolist() == bad_x.tolist()


def _demodulate(backend, per):
    """(OOK chips, None) and (VPPM bits, tie mask) of ``per`` on ``backend``."""
    return (backend.ook_demodulate(per), None), backend.vppm_demodulate(per)


@st.composite
def _sample_arrays(draw):
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    value = st.floats(width=32 if dtype is np.float32 else 64) | st.sampled_from(
        _special_samples(dtype).tolist()
    )
    per = np.array(
        draw(st.lists(st.lists(value, min_size=4, max_size=4), max_size=48)), dtype=dtype
    ).reshape(-1, 4)
    for t in draw(st.lists(st.integers(0, 47), max_size=6)):
        if t < len(per):
            per[t, 2:] = per[t, 1::-1]  # equal half energies unless NaN
    return per


@needs_native
@settings(max_examples=400, deadline=None)
@given(_sample_arrays())
def test_demodulators_backends_agree(per):
    for pure, native in zip(_demodulate(_pure, per), _demodulate(_native, per)):
        _assert_same_demodulation(native, pure)


@pytest.mark.parametrize(
    "backend,nchips",
    _on_backends(
        [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, *_AROUND_SPLIT],
        ["0", "1", "B-1", "B", "B+1", *_AROUND_SPLIT_IDS],
    ),
)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_demodulators_match_whole_array_oracles(backend, nchips, dtype):
    per = _chip_samples(np.random.default_rng(nchips), nchips, dtype)
    ook, vppm = _demodulate(backend, per)
    _assert_same_demodulation(ook, (_ook_oracle(per), None))
    _assert_same_demodulation(vppm, _vppm_oracle(per))


def _layouts():
    per = _chip_samples(np.random.default_rng(11), 300, np.float64)
    single = _chip_samples(np.random.default_rng(12), 300, np.float32)
    readonly = single.copy()
    readonly.flags.writeable = False
    return {
        "strided": np.repeat(per, 2, axis=1)[:, ::2],
        "every-other-chip": np.repeat(per, 2, axis=0)[::2],
        "fortran": np.asfortranarray(per),
        "read-only": readonly,
        "big-endian-f4": single.astype(">f4"),
        "big-endian-f8": per.astype(">f8"),
        "int64": np.random.default_rng(13).integers(-3, 4, size=(300, 4)),
        "uint8": np.random.default_rng(14).integers(0, 3, size=(300, 4), dtype=np.uint8),
        "list": per[:20].tolist(),
    }


@pytest.mark.parametrize("backend,layout", _on_backends(list(_layouts()), list(_layouts())))
def test_demodulators_read_any_layout_as_its_float64_conversion(backend, layout):
    per = _layouts()[layout]
    before = np.array(per, copy=True)
    expected = _demodulate(_pure, np.ascontiguousarray(per, dtype=np.float64))
    for got, want in zip(_demodulate(backend, per), expected):
        _assert_same_demodulation(got, want)
        assert got[0].flags.writeable and not np.shares_memory(got[0], per)
    assert np.array_equal(np.asarray(per), before, equal_nan=True)


@pytest.mark.parametrize("backend", BACKENDS, ids=[b.BACKEND for b in BACKENDS])
def test_tie_free_vppm_input_keeps_no_tie_mask(backend):
    bits = np.random.default_rng(15).integers(0, 2, 3 * _BLOCK).astype(np.uint8)
    for dimming in (0.25, 0.4):
        per = _per_chip(_vppm_modulate(bits, dimming))
        got, bad = backend.vppm_demodulate(per)
        assert bad is None and got.tolist() == bits.tolist()
        tied = per.copy()
        tied[-1] = 0.5
        got, bad = backend.vppm_demodulate(tied)
        assert np.flatnonzero(bad).tolist() == [len(bits) - 1]


@needs_native
@pytest.mark.filterwarnings("error")
def test_native_demodulators_leave_no_flag_for_numpy_to_report():
    """Overflowing sums and inf - inf raise the C floating-point flags in
    the native loops; no later numpy float operation may report them."""
    f32 = np.full((8, 4), _F32_MAX, dtype=np.float32)
    overflowing = [
        np.ones((8, 4)) * 1e308,
        f32,
        -f32,
        np.array([[np.inf, -np.inf, 0.0, 0.0], [0.0, 0.0, np.inf, -np.inf]]),
    ]
    for per in overflowing:
        _native.ook_demodulate(per)
        _native.vppm_demodulate(per)
        x = np.linspace(0.0, 1.0, 5)
        np.add(x, 1.0)
        x.astype(np.float32)
        np.float64(2.0) * np.float64(3.0)
        np.float32(2.0) + np.float32(3.0)
        x.sum()


# --- the line decoders' word kernel -------------------------------------------
#
# decode_words packs each word of ``width`` chips MSB first and returns its
# value and its status, which with flips also depends on the running
# disparity: neg is 1 before the first word and toggled by each word whose
# flips entry is set.


def _word_oracle(chips, width, values, status, flips):
    """``(values[w], mask)`` from a plain Python loop over the words."""
    words = [int("".join(map(str, w)), 2) for w in chips.reshape(-1, width).tolist()]
    mask = None
    if status is not None:
        neg, index = 1, []
        for w in words:
            index.append((neg << width | w) if flips is not None else w)
            neg ^= flips is not None and bool(flips[w])
        mask = status[index]
    return values[words], mask


def _assert_same_words(got, expected):
    for a, b in zip(got, expected):
        if b is None:
            assert a is None
        else:
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("backend,name", _on_backends(list(_WORD_TABLES), list(_WORD_TABLES)))
def test_decode_words_reads_every_word_of_each_table_set(backend, name):
    """Every word alone, and 8b/10b's also behind a word that flips the
    disparity to +1, decodes to its table entries."""
    width, values, status, flips = _WORD_TABLES[name]
    every = ((np.arange(1 << width)[:, None] >> np.arange(width - 1, -1, -1)) & 1).astype(np.uint8)
    leads = [np.zeros(0, np.uint8)]
    if flips is not None:
        leads.append(line_codes._encode_8b10b(np.array([3], np.uint8)))  # D.3.0 flips it
    for lead in leads:
        for word in every:
            chips = np.concatenate([lead, word])
            got = backend.decode_words(chips, width, values, status, flips)
            _assert_same_words(got, _word_oracle(chips, width, values, status, flips))


@needs_native
@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(sorted(_WORD_TABLES)),
    st.sampled_from([0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1]) | st.integers(0, 64),
    st.integers(0, 2**32 - 1),
)
def test_decode_words_backends_agree_on_damaged_streams(name, nwords, seed):
    width, *tables = _WORD_TABLES[name]
    chips = _word_streams(np.random.default_rng(seed), name, nwords)
    _assert_same_words(
        _native.decode_words(chips, width, *tables), _pure.decode_words(chips, width, *tables)
    )


@pytest.mark.parametrize("backend", BACKENDS, ids=[b.BACKEND for b in BACKENDS])
def test_decode_words_reads_any_table_as_uint8(backend):
    """Bool, list, int64 and strided tables are read as their uint8
    conversion, and both outputs are uint8."""
    chips = np.random.default_rng(16).integers(0, 2, 40, dtype=np.uint8)
    bad = line_codes._REV_4B6B[:16] > 15
    for status in (bad, bad.tolist(), bad.astype(np.int64), np.repeat(bad, 2)[::2]):
        values, mask = backend.decode_words(chips, 4, list(range(16)), status)
        assert values.dtype == mask.dtype == np.uint8
        assert values.tolist() == _pure._pack(chips, 4).tolist()
        assert mask.tolist() == bad[values].tolist()


# --- the line encoders' and modulators' row kernel ----------------------------
#
# encode_words is table[values] flattened; with flips, the row is picked by
# the running disparity that decode_words tracks.


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([np.uint8, np.float32, np.float64]),
    st.integers(0, 33),
    st.booleans(),
    st.sampled_from([0, 1, _BLOCK - 1, _BLOCK + 1]),
    st.integers(0, 2**32 - 1),
)
def test_encode_words_equals_fancy_indexing(dtype, cols, with_flips, n, seed):
    rng = np.random.default_rng(seed)
    table, flips, nvalues = _random_encode_tables(rng, dtype, cols, with_flips)
    values = rng.integers(0, nvalues, n, dtype=np.uint8)
    expected = _encode_oracle(values, table, flips)
    for backend in BACKENDS:
        got = backend.encode_words(values, table, flips)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("backend", BACKENDS, ids=[b.BACKEND for b in BACKENDS])
def test_encode_words_reads_values_and_flips_as_uint8_and_keeps_the_table(backend):
    """Lists, int64 and strided values and flips are read as their uint8
    conversion; a strided table is read as its copy, in its own dtype."""
    rng = np.random.default_rng(17)
    table, flips, nvalues = _random_encode_tables(rng, np.float32, 7, True)
    values = rng.integers(0, nvalues, 50, dtype=np.uint8)
    expected = _encode_oracle(values, table, flips)
    for v, f in ((values.tolist(), flips.tolist()), (values.astype(np.int64), flips != 0)):
        assert backend.encode_words(v, table, f).tobytes() == expected.tobytes()
    strided = np.repeat(table, 2, axis=1)[:, ::2]
    got = backend.encode_words(np.repeat(values, 2)[::2], strided, np.repeat(flips, 2)[::2])
    assert got.dtype == np.float32 and got.tobytes() == expected.tobytes()


# --- the sweep CSV's number text ---------------------------------------------
#
# float_reprs(values) is [repr(v) for v in values]: the shortest digits that
# read back as the same double, the nearest of them when several do, in
# scientific notation below 1e-4 and from 1e16 on, else in fixed notation.
# values is a list or tuple of Python floats, as a capacity curve holds.


def _assert_reprs(backend, values):
    """``backend.float_reprs`` of the list of float64 ``values`` is
    ``repr`` of each; a failure names the first few texts that differ, not
    a 10^6-line diff."""
    values = np.asarray(values, dtype=np.float64).tolist()
    expected = list(map(repr, values))
    got = backend.float_reprs(values)
    assert type(got) is list and len(got) == len(expected)
    differ = [(e, g) for e, g in zip(expected, got) if e != g]
    assert not differ, differ[:5]


@pytest.mark.parametrize("backend", BACKENDS[1:], ids=[b.BACKEND for b in BACKENDS[1:]])
def test_float_reprs_equal_repr_on_random_bit_patterns(backend):
    """10^6 seeded random 64-bit patterns as doubles, NaNs and infinities
    among them.  The pure kernel is ``repr`` itself, so only the compiled
    one is checked."""
    rng = np.random.default_rng(909)
    values = rng.integers(0, 2**64, 10**6, dtype=np.uint64).view(np.float64)
    _assert_reprs(backend, values)


def _with_neighbours(values):
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values, np.nextafter(values, np.inf), np.nextafter(values, -np.inf)])


_EDGE_VALUES = {
    # 2^-1074 (the smallest subnormal) to 2^1023, one per binade
    "powers-of-two": _with_neighbours(np.ldexp(1.0, np.arange(-1074, 1024))),
    "powers-of-ten": _with_neighbours([float(f"1e{e}") for e in range(-323, 309)]),
    "near-2**53": 2.0**53 + np.arange(-4096.0, 4097.0),
    # steps of 2^-k above 2^(52-k): among them 2^50 + 0.25, whose exact
    # 18 digits end in 5, so two 17-digit texts tie and the even one wins
    "halfway": np.ldexp(2.0**52 + np.arange(4096.0), -np.arange(1, 12)[:, None]).ravel(),
    "negative": -_with_neighbours(np.ldexp(1.0, np.arange(-1074, 1024, 7))),
}


@pytest.mark.parametrize("backend,name", _on_backends(list(_EDGE_VALUES), list(_EDGE_VALUES)))
def test_float_reprs_equal_repr_at_powers_and_their_neighbours(backend, name):
    _assert_reprs(backend, _EDGE_VALUES[name])


# (value, text): the notation switches, the extremes and the non-numbers
_EXACT_TEXTS = [
    (9999999999999998.0, "9999999999999998.0"),
    (1e16, "1e+16"),
    (0.0001, "0.0001"),
    (1e-05, "1e-05"),
    (123.0, "123.0"),
    (0.1, "0.1"),
    (5e-324, "5e-324"),
    (sys.float_info.max, "1.7976931348623157e+308"),
    (0.0, "0.0"),
    (-0.0, "-0.0"),
    (math.inf, "inf"),
    (-math.inf, "-inf"),
    (math.nan, "nan"),
    (-math.nan, "nan"),
]


@pytest.mark.parametrize("backend", BACKENDS, ids=[b.BACKEND for b in BACKENDS])
def test_float_reprs_at_notation_switches_and_extremes(backend):
    values, texts = zip(*_EXACT_TEXTS)
    assert backend.float_reprs(values) == list(texts)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), max_size=40))
def test_float_reprs_equal_repr_on_any_floats(values):
    for backend in BACKENDS:
        _assert_reprs(backend, values)


# anything but a list or tuple of exact floats, each made afresh per call:
# the native kernel reads each item with PyFloat_AS_DOUBLE, so a numpy
# float, an int or a bool is refused there, and by _pure too, rather than
# read through a conversion
_NOT_FLOAT_SEQUENCES = {
    "ndarray": lambda: np.array([1.0, 2.0]),
    "numpy-float": lambda: [1.0, np.float64(1.0)],
    "int": lambda: (1.0, 2),
    "bool": lambda: [True],
    "str": lambda: ["1.5"],
    "none": lambda: (None,),
    "generator": lambda: (v for v in [1.0, 2.0]),
    "bare-numpy-float": lambda: np.float64(1.0),
}


@pytest.mark.parametrize(
    "backend,make", _on_backends(list(_NOT_FLOAT_SEQUENCES.values()), list(_NOT_FLOAT_SEQUENCES))
)
def test_float_reprs_reject_anything_but_a_list_or_tuple_of_floats(backend, make):
    with pytest.raises(ValueError, match="^values must be a list or tuple of floats$"):
        backend.float_reprs(make())


def test_pow10_table_rows_are_powers_of_ten_to_128_bits():
    """Row k + 292 is floor(10^k / 2^r) + 1, r = floor(log2 10^k) - 127,
    for k = -292..324: checked here on exact fractions."""
    table = _tables._pow10_table()
    assert table.dtype == np.uint64 and table.shape == (617, 2)
    for (high, low), k in zip(table.tolist(), range(-292, 325)):
        power = Fraction(10) ** k
        e = power.numerator.bit_length() - power.denominator.bit_length()
        if Fraction(2) ** e > power:
            e -= 1
        g = math.floor(power / Fraction(2) ** (e - 127)) + 1
        assert high << 64 | low == g, k
        assert 2**127 <= g < 2**128, k


@needs_native
@pytest.mark.parametrize(
    "patch,message",
    [
        ("_tables._EXP = np.zeros(31, np.uint8)", "_EXP has 31 bytes, not 30"),
        (
            "_tables._parity_map = lambda k: np.zeros(16 * k + 1, np.uint64)",
            "_parity_map(1) has 136 bytes, not 128",
        ),
    ],
    ids=["array", "map"],
)
def test_native_import_rejects_a_table_of_another_size(run_fresh, patch, message):
    """The extension copies its tables from ``_tables`` when it loads, and
    fails to import, naming the table, when one has another size."""
    script = (
        "import os\n"
        "os.environ['OWPAN_KERNELS'] = 'pure'\n"
        "import numpy as np\n"
        "from owpan._kernels import _tables\n"
        f"{patch}\n"
        "try:\n"
        "    from owpan._kernels import _native\n"
        "except ImportError as exc:\n"
        "    print(exc)\n"
    )
    assert run_fresh(script).strip() == f"owpan._kernels._tables.{message}"


def test_forcing_native_without_the_extension_names_it_and_its_build(run_fresh):
    """A None in ``sys.modules`` blocks the extension's import as its absence
    would, on a checkout with or without it built."""
    script = (
        "import os, sys\n"
        "os.environ['OWPAN_KERNELS'] = 'native'\n"
        "sys.modules['owpan._kernels._native'] = None\n"
        "try:\n"
        "    import owpan._kernels\n"
        "except ImportError as exc:\n"
        "    print(type(exc).__name__, exc)\n"
    )
    assert run_fresh(script).strip() == (
        "ImportError OWPAN_KERNELS=native, but the compiled extension "
        "owpan._kernels._native is not built; "
        "build it with: python3 setup.py build_ext --inplace"
    )


def test_importing_owpan_loads_no_kernel_backend(run_fresh):
    """The CSV writer imports the kernels when it first runs, so ``import
    owpan`` loads neither backend and builds none of their tables."""
    script = "import sys, owpan\nprint([m for m in sys.modules if m.startswith('owpan._k')])\n"
    assert run_fresh(script).strip() == "[]"


@pytest.mark.skipif(_kernels.BACKEND != "native", reason="the native backend is not in use")
def test_native_frame_chain_does_not_import_pure(run_fresh):
    script = (
        "import sys\n"
        "from owpan.phy import frames, modes\n"
        "mode = modes.mode_by_name('phy2-ook-96m')\n"
        "frames.decode_frame(frames.encode_frame(b'x', mode).waveform, mode)\n"
        "print('owpan._kernels._pure' in sys.modules)\n"
    )
    assert run_fresh(script).strip() == "False"


# --- fast paths of the pure backend -----------------------------------------


def _pure_caches():
    for k in range(1, 15):
        yield _pure._parity_map(k)
        yield _pure._syndrome_map(15 - k)
        yield from _pure._locator_tables(15 - k)
    for table in (_TABLE_R13, _TABLE_R14):
        yield _pure._branch_metrics(table.tobytes(), table.shape[1])


def test_pure_cached_tables_reject_writes():
    fixed = (_tables._EXP, _tables._LOG, _tables._MUL, _tables._INV, _tables._NIBBLES)
    for table in (*_pure_caches(), *fixed, _tables._pow10_table()):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 1


def test_pure_outputs_do_not_alias_cached_tables():
    rng = np.random.default_rng(8)
    outputs = []
    for backend in BACKENDS:
        for k in (1, 7, 11, 14):
            data = rng.integers(0, 16, size=(4, k), dtype=np.uint8)
            code = backend.rs_encode_blocks(data, k)
            outputs += [code, *backend.rs_decode_blocks(code, k)]
            code[:, 0] ^= 1
            outputs += list(backend.rs_decode_blocks(code, k))
        for table in (_TABLE_R13, _TABLE_R14):
            outputs.append(backend.viterbi_decode(np.zeros(30 * table.shape[1]), table))
    for out in outputs:
        assert out.flags.writeable
        assert not any(np.shares_memory(out, t) for t in _pure_caches())


def test_pure_clean_batch_returns_fresh_arrays():
    rng = np.random.default_rng(9)
    code = _pure.rs_encode_blocks(rng.integers(0, 16, size=(3, 11), dtype=np.uint8), 11)
    data, failed = _pure.rs_decode_blocks(code, 11)
    assert not np.shares_memory(data, code)
    assert data.tolist() == code[:, :11].tolist()
    data[:] = 0
    failed[:] = True
    again, failed_again = _pure.rs_decode_blocks(code, 11)
    assert again.tolist() == code[:, :11].tolist()
    assert not failed_again.any()


@pytest.mark.parametrize("k", range(1, 15))
def test_pure_batch_decode_equals_row_by_row(k):
    rng = np.random.default_rng(10 + k)
    for code in _rs_decode_batches(rng, k):
        data, failed = _pure.rs_decode_blocks(code, k)
        assert failed.dtype == bool and failed.shape == (code.shape[0],)
        assert data.dtype == np.uint8 and data.shape == (code.shape[0], k)
        for i in range(code.shape[0]):
            row_data, row_failed = _pure.rs_decode_blocks(code[i : i + 1], k)
            assert row_failed.tolist() == [failed[i]]
            assert row_data[0].tolist() == data[i].tolist()


# one input outside each kernel's contract, and the message that both
# backends raise for it
_CONTRACT_ERRORS = {
    "encode-k15": (
        lambda m: m.rs_encode_blocks(np.zeros((1, 15), np.uint8), 15),
        "k must lie in 1..14, got 15",
    ),
    # rows of 1..k data symbols are the shortened codes; 8 is one too many
    "encode-shape": (
        lambda m: m.rs_encode_blocks(np.zeros((1, 8), np.uint8), 7),
        "data must have shape (N, 1..7)",
    ),
    "encode-width-0": (
        lambda m: m.rs_encode_blocks(np.zeros((1, 0), np.uint8), 7),
        "data must have shape (N, 1..7)",
    ),
    "encode-symbol-16": (
        lambda m: m.rs_encode_blocks(np.full((1, 7), 16, np.uint8), 7),
        "RS symbols must lie in 0..15",
    ),
    "decode-k0": (
        lambda m: m.rs_decode_blocks(np.zeros((1, 15), np.uint8), 0),
        "k must lie in 1..14, got 0",
    ),
    # rows of 16-k..15 symbols are the shortened codes; 8 is parity alone
    "decode-shape": (
        lambda m: m.rs_decode_blocks(np.zeros((1, 8), np.uint8), 7),
        "code must have shape (N, 9..15)",
    ),
    "decode-width-16": (
        lambda m: m.rs_decode_blocks(np.zeros((1, 16), np.uint8), 7),
        "code must have shape (N, 9..15)",
    ),
    "decode-1d": (
        lambda m: m.rs_decode_blocks(np.zeros(15, np.uint8), 7),
        "code must have shape (N, 9..15)",
    ),
    "decode-symbol-16": (
        lambda m: m.rs_decode_blocks(np.full((1, 15), 16, np.uint8), 7),
        "RS symbols must lie in 0..15",
    ),
    "obs-3": (
        lambda m: m.viterbi_decode(np.full(9, 3, np.uint8), _TABLE_R13),
        "observations must be 0, 1 or 2 (erased)",
    ),
    "obs-length": (
        lambda m: m.viterbi_decode(np.zeros(7, np.uint8), _TABLE_R13),
        "observation length 7 not a multiple of 3",
    ),
    "table-width-7": (
        lambda m: m.viterbi_decode(np.zeros(7, np.uint8), np.zeros((128, 7))),
        "out_table width 7 outside 1..6",
    ),
    "table-64-rows": (
        lambda m: m.viterbi_decode(np.zeros(6, np.uint8), _TABLE_R13[:64]),
        "out_table must have shape (128, R)",
    ),
    "ook-3-samples": (
        lambda m: m.ook_demodulate(np.zeros((2, 3))),
        "per must have shape (N, 4)",
    ),
    "vppm-1d": (lambda m: m.vppm_demodulate(np.zeros(8)), "per must have shape (N, 4)"),
    "vppm-3d": (lambda m: m.vppm_demodulate(np.zeros((2, 4, 1))), "per must have shape (N, 4)"),
    "chip-2": (
        lambda m: m.decode_words(np.array([0, 2], np.uint8), *_WORD_TABLES["manchester"][:3]),
        "chips must be 0 or 1",
    ),
    "ragged-chips": (
        lambda m: m.decode_words(np.zeros(7, np.uint8), *_WORD_TABLES["4b6b"][:3]),
        "chip count 7 is not a multiple of 6",
    ),
    "width-0": (
        lambda m: m.decode_words(np.zeros(6, np.uint8), 0, np.zeros(1), None),
        "width must lie in 1..15, got 0",
    ),
    "width-16": (
        lambda m: m.decode_words(np.zeros(16, np.uint8), 16, np.zeros(1 << 16), None),
        "width must lie in 1..15, got 16",
    ),
    "short-values": (
        lambda m: m.decode_words(np.zeros(6, np.uint8), 6, line_codes._REV_4B6B[:63], None),
        "values must have shape (64,)",
    ),
    "short-status": (
        lambda m: m.decode_words(
            np.zeros(10, np.uint8), 10, line_codes._DEC_BYTE, line_codes._DEC_STATUS[:1024],
            line_codes._DEC_FLIP,
        ),
        "status must have shape (2048,)",
    ),
    "short-flips": (
        lambda m: m.decode_words(
            np.zeros(10, np.uint8), 10, line_codes._DEC_BYTE, line_codes._DEC_STATUS,
            line_codes._DEC_FLIP[:512],
        ),
        "flips must have shape (1024,)",
    ),
    "encode-value-past-rows": (
        lambda m: m.encode_words(np.array([3, 16], np.uint8), line_codes._CHIPS_4B6B),
        "values must lie in 0..15",
    ),
    "encode-value-past-flips": (
        lambda m: m.encode_words(
            np.array([4], np.uint8), np.zeros((8, 2), np.uint8), np.zeros(4, np.uint8)
        ),
        "values must lie in 0..3",
    ),
    "encode-table-1d": (
        lambda m: m.encode_words(np.zeros(3, np.uint8), np.zeros(4, np.uint8)),
        "table must be a 2-D uint8, float32 or float64 array",
    ),
    "encode-table-3d": (
        lambda m: m.encode_words(np.zeros(3, np.uint8), np.zeros((2, 2, 2), np.float32)),
        "table must be a 2-D uint8, float32 or float64 array",
    ),
    "encode-table-int64": (
        lambda m: m.encode_words(np.zeros(3, np.uint8), np.zeros((2, 2), np.int64)),
        "table must be a 2-D uint8, float32 or float64 array",
    ),
    "encode-short-flips": (
        lambda m: m.encode_words(
            np.zeros(3, np.uint8), line_codes._ENC_CHIPS, line_codes._ENC_FLIP[:255]
        ),
        "flips must have half as many entries as table has rows",
    ),
    "encode-odd-rows-flips": (
        lambda m: m.encode_words(np.zeros(3, np.uint8), np.zeros((5, 2)), np.zeros(2)),
        "flips must have half as many entries as table has rows",
    ),
    "encode-flips-2d": (
        lambda m: m.encode_words(
            np.zeros(3, np.uint8), line_codes._ENC_CHIPS, line_codes._ENC_FLIP[None]
        ),
        "flips must have half as many entries as table has rows",
    ),
    "reprs-2d": (
        lambda m: m.float_reprs(np.zeros((2, 3))),
        "values must be a list or tuple of floats",
    ),
    "reprs-scalar": (lambda m: m.float_reprs(1.5), "values must be a list or tuple of floats"),
    "reprs-text": (
        lambda m: m.float_reprs(["1.5", "2"]),
        "values must be a list or tuple of floats",
    ),
    "reprs-complex": (
        lambda m: m.float_reprs(np.zeros(2, complex)),
        "values must be a list or tuple of floats",
    ),
    "reprs-object": (
        lambda m: m.float_reprs([1.0, None]),
        "values must be a list or tuple of floats",
    ),
}


@pytest.mark.parametrize(
    "backend,case", _on_backends(list(_CONTRACT_ERRORS.values()), list(_CONTRACT_ERRORS))
)
def test_pure_rejects_inputs_outside_the_contract(backend, case):
    call, message = case
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(backend)


@pytest.mark.skipif(sys.platform == "win32", reason="needs the resource module")
def test_pure_viterbi_memory_does_not_grow_with_the_trellis(run_fresh):
    """200,000 steps at R = 4 add a few MB of peak memory, not 100 MB.

    The branch metrics are gathered one block of steps at a time and the
    survivor decisions kept as 8 bytes per step; a (steps, 128) int32
    metric array would add 102 MB.  Measured in a fresh process, whose
    peak RSS this one call sets.
    """
    script = (
        "import resource, numpy as np\n"
        "from owpan._kernels import _pure\n"
        "from owpan.phy.fec import _TABLE_R14\n"
        "obs = np.random.default_rng(1).integers(0, 3, 4 * 200_000).astype(np.uint8)\n"
        "_pure.viterbi_decode(obs[:400], _TABLE_R14)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "_pure.viterbi_decode(obs, _TABLE_R14)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n"
    )
    grown_kb = int(run_fresh(script))
    if sys.platform == "darwin":
        grown_kb //= 1024  # ru_maxrss is in bytes there
    assert grown_kb < 16 * 1024


def test_pure_rs_encode_memory_stays_flat_on_a_64k_frame():
    """65,537 RS(15,2) blocks, a 64 KiB frame's, encode in under 4 MB.

    The parity is unpacked _BLOCK rows at a time into the output; a
    (blocks, 13) uint64 shift at once would peak at 8.2 MB."""
    data = np.zeros((65_537, 2), np.uint8)
    _pure.rs_encode_blocks(data[:1], 2)  # builds the cached parity map
    tracemalloc.start()
    try:
        code = _pure.rs_encode_blocks(data, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code.shape == (65_537, 15) and code.flags.c_contiguous and not code.any()
    assert peak <= 4e6


@pytest.mark.parametrize(
    "k,width,blocks,bound",
    [(2, 15, 65_537, 6e6), (8, 14, 18_725, 4e6)],
    ids=["rs15_2", "rs14_7"],
)
def test_pure_rs_decode_memory_stays_flat_on_a_64k_frame(k, width, blocks, bound):
    """A 64 KiB frame's clean blocks decode in O(block) memory: 65,537
    RS(15,2) blocks in under 6 MB, and 18,725 RS(14,7) blocks, the mother
    RS(15,8) shortened by one symbol, in under 4 MB.

    The syndrome map gathers _BLOCK rows at a time, reading a shortened
    row as it is; a (blocks, width) int64 index and uint64 gather at once
    would peak at 15.7 MB for RS(15,2) and 4.2 MB for RS(14,7).
    """
    code = _pure.rs_encode_blocks(np.zeros((blocks, width - 15 + k), np.uint8), k)
    tracemalloc.start()
    try:
        data, failed = _pure.rs_decode_blocks(code, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code.shape == (blocks, width) and data.shape == (blocks, width - 15 + k)
    assert not data.any() and not failed.any()
    assert peak <= bound
