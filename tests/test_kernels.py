"""Pure-numpy and compiled kernels must be bit-identical on every input."""

import hashlib
import importlib.util
import os
import shutil
import sys
import sysconfig
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from owpan import _kernels
from owpan._kernels import _BLOCK, _pure
from owpan.phy.fec import _TABLE_R13, _TABLE_R14, ConvCode, _cc_encode
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


@needs_native
def test_full_frame_chain_backend_independent():
    """The frame codec must produce identical chips through either backend."""
    from owpan.phy.frames import decode_from_chips, encode_to_chips
    from owpan.phy.modes import mode_by_name

    payload = bytes(range(64))
    for name in ("phy1-ook-11k", "phy1-vppm-124k", "phy2-ook-6m"):
        mode = mode_by_name(name)
        chips = encode_to_chips(payload, mode)
        assert decode_from_chips(chips, mode) == payload


# --- every backend pinned to the recorded pure outputs -----------------------
#
# The agreement tests above skip when the extension is not built, so these
# digests are what keeps a rewrite of either backend bit-identical.  They
# were recorded from the straightforward pure implementation (per-row BM,
# Chien and Forney on every row, the k-step LFSR encoder, the per-step
# compare-and-sum Viterbi, the block-wise numpy demodulators, which the
# frame chain called directly before they became kernels) on the seeded
# inputs built below, with numpy 2.4:
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


_PINNED_FNS = {
    "viterbi_r13": lambda backend: _pinned_viterbi(backend, _TABLE_R13),
    "viterbi_r14": lambda backend: _pinned_viterbi(backend, _TABLE_R14),
    "rs_encode": _pinned_rs_encode,
    "rs_decode": _pinned_rs_decode,
    "ook_demodulate": _pinned_ook_demodulate,
    "vppm_demodulate": _pinned_vppm_demodulate,
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
    _on_backends([0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1], ["0", "1", "B-1", "B", "B+1"]),
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


# --- fast paths of the pure backend -----------------------------------------


def _pure_caches():
    for k in range(1, 15):
        yield _pure._parity_map(k)
        yield _pure._syndrome_map(15 - k)
        yield from _pure._locator_tables(15 - k)
    for table in (_TABLE_R13, _TABLE_R14):
        yield _pure._branch_metrics(table.tobytes(), table.shape[1])


def test_pure_cached_tables_reject_writes():
    for table in _pure_caches():
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


@pytest.mark.parametrize(
    "backend,call",
    _on_backends(
        [
            lambda m: m.rs_encode_blocks(np.zeros((1, 15), np.uint8), 15),
            lambda m: m.rs_decode_blocks(np.zeros((1, 15), np.uint8), 0),
            lambda m: m.viterbi_decode(np.full(9, 3, np.uint8), _TABLE_R13),
            lambda m: m.viterbi_decode(np.zeros(7, np.uint8), np.zeros((128, 7))),
            lambda m: m.viterbi_decode(np.zeros(6, np.uint8), _TABLE_R13[:64]),
            lambda m: m.ook_demodulate(np.zeros((2, 3))),
            lambda m: m.vppm_demodulate(np.zeros(8)),
            lambda m: m.vppm_demodulate(np.zeros((2, 4, 1))),
        ],
        [
            "encode-k15",
            "decode-k0",
            "obs-3",
            "table-width-7",
            "table-64-rows",
            "ook-3-samples",
            "vppm-1d",
            "vppm-3d",
        ],
    ),
)
def test_pure_rejects_inputs_outside_the_contract(backend, call):
    with pytest.raises(ValueError):
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
