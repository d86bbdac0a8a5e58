"""Reed-Solomon and convolutional codec tests.

The GF(16) reference arithmetic and the reference convolutional encoder
here are written from scratch (peasant multiplication, explicit shift
register) so the vectorized implementations are checked against an
independent oracle rather than against themselves.
"""

import heapq
import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from owpan._kernels import _pure
from owpan.phy import fec
from owpan.phy.fec import (
    CC_CONSTRAINT_LENGTH,
    CC_RATES,
    ConvCode,
    RsCode,
    RsDecodeError,
    _cc_encode,
    _rs_decode,
    _viterbi_decode,
    rs_decode,
    rs_encode,
)

try:
    from owpan._kernels import _native
except ImportError:
    _native = None

# every importable kernel backend
_KERNEL_BACKENDS = [_pure] if _native is None else [_pure, _native]

# ------------------------------------------------------------ GF(16) oracle


def gf16_mul(a: int, b: int) -> int:
    """Carry-less peasant multiplication reduced by x^4 + x + 1."""
    p = 0
    while b:
        if b & 1:
            p ^= a
        a <<= 1
        if a & 0x10:
            a ^= 0x13
        b >>= 1
    return p


def gf16_pow(a: int, e: int) -> int:
    r = 1
    for _ in range(e):
        r = gf16_mul(r, a)
    return r


def poly_eval(coeffs_desc, x: int) -> int:
    """Evaluate a polynomial given highest-degree coefficient first."""
    acc = 0
    for c in coeffs_desc:
        acc = gf16_mul(acc, x) ^ int(c)
    return acc


def test_gf16_oracle_sanity():
    # alpha = 2 generates the multiplicative group
    seen = set()
    x = 1
    for _ in range(15):
        seen.add(x)
        x = gf16_mul(x, 2)
    assert seen == set(range(1, 16))
    assert x == 1  # order 15


# ------------------------------------------------------------- RS structure


def test_rs_code_validation():
    with pytest.raises(ValueError):
        RsCode(15, 15)
    with pytest.raises(ValueError):
        RsCode(16, 11)
    with pytest.raises(ValueError):
        RsCode(7, 0)
    code = RsCode(15, 11)
    assert code.t == 2
    assert code.nroots == 4
    assert code.ratio == Fraction(11, 15)
    assert code.base_k == 11
    assert str(code) == "RS(15,11)"
    short = RsCode(14, 7)
    assert short.base_k == 8
    assert short.t == 3


def test_rs_encode_is_systematic():
    data = np.arange(11, dtype=np.uint8)[None, :]
    cw = rs_encode(data, RsCode(15, 11))
    assert cw.shape == (1, 15)
    assert cw[0, :11].tolist() == data[0].tolist()


def test_rs_frozen_codeword():
    data = np.arange(11, dtype=np.uint8)[None, :]
    cw = rs_encode(data, RsCode(15, 11))
    assert cw[0].tolist() == [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 8, 3]


def test_rs_codewords_annihilate_the_generator_roots():
    """Column j is the x^(14-j) coefficient; alpha^1..alpha^nroots are roots."""
    rng = np.random.default_rng(7)
    for code in (RsCode(15, 11), RsCode(15, 4), RsCode(14, 7), RsCode(15, 12)):
        data = rng.integers(0, 16, size=(8, code.k), dtype=np.uint8)
        cws = rs_encode(data, code)
        for row in cws:
            # a shortened codeword is the mother codeword with zero prefix
            full = [0] * (15 - code.n) + row.tolist()
            for i in range(1, code.nroots + 1):
                assert poly_eval(full, gf16_pow(2, i)) == 0


@given(
    st.sampled_from([(15, 11), (15, 12), (14, 7), (15, 4), (7, 3)]),
    st.integers(0, 2**32 - 1),
)
def test_rs_round_trip_clean(nk, seed):
    code = RsCode(*nk)
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 16, size=(5, code.k), dtype=np.uint8)
    assert rs_decode(rs_encode(data, code), code).tolist() == data.tolist()


def test_rs_corrects_up_to_t_exhaustive_positions():
    """RS(15,11): every 1- and 2-position error pattern on a fixed codeword."""
    code = RsCode(15, 11)
    data = np.array([[3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5]], dtype=np.uint8)
    cw = rs_encode(data, code)[0]
    rng = np.random.default_rng(42)

    rows = []
    for p in range(15):
        for v in range(1, 16):
            r = cw.copy()
            r[p] ^= v
            rows.append(r)
    for p, q in itertools.combinations(range(15), 2):
        for _ in range(4):
            r = cw.copy()
            r[p] ^= rng.integers(1, 16)
            r[q] ^= rng.integers(1, 16)
            rows.append(r)
    out = rs_decode(np.array(rows), code)
    assert (out == data[0]).all()


def test_rs_corrects_within_t_many_codewords():
    rng = np.random.default_rng(13)
    for code in (RsCode(15, 11), RsCode(14, 7), RsCode(15, 12), RsCode(15, 4)):
        data = rng.integers(0, 16, size=(120, code.k), dtype=np.uint8)
        cws = rs_encode(data, code)
        for row in cws:
            nerr = rng.integers(0, code.t + 1)
            pos = rng.choice(code.n, size=nerr, replace=False)
            row[pos] ^= rng.integers(1, 16, size=nerr).astype(np.uint8)
        assert rs_decode(cws, code).tolist() == data.tolist()


def test_rs_uncorrectable_pattern_raises():
    code = RsCode(15, 11)
    data = np.arange(11, dtype=np.uint8)[None, :]
    cw = rs_encode(data, code)
    for p in (1, 8, 14):
        cw[0, p] ^= 1
    with pytest.raises(RsDecodeError):
        rs_decode(cw, code)


def test_rs_failure_reports_row_indices():
    code = RsCode(15, 11)
    data = np.tile(np.arange(11, dtype=np.uint8), (3, 1))
    cws = rs_encode(data, code)
    for p in (1, 8, 14):
        cws[1, p] ^= 1
    with pytest.raises(RsDecodeError) as exc:
        rs_decode(cws, code)
    assert exc.value.rows.tolist() == [1]
    assert "1 of 3" in str(exc.value)


def test_rs_correction_into_the_virtual_prefix_fails_its_row():
    """RS(14,7) decodes on the mother RS(15,8) behind one virtual zero.  A
    mother codeword with a nonzero first symbol, that symbol dropped, is one
    error away from a codeword: the mother decoder "corrects" the virtual
    zero, and the shortened decode must call that row uncorrectable."""
    code, mother = RsCode(14, 7), RsCode(15, 8)
    full = rs_encode(np.array([[9, 1, 2, 3, 4, 5, 6, 7]], dtype=np.uint8), mother)
    assert rs_decode(np.concatenate([[[0]], full[:, 1:]], axis=1), mother)[0, 0] == 9
    clean = rs_encode(np.tile(np.arange(7, dtype=np.uint8), (3, 1)), code)
    rows = np.concatenate([clean[:1], full[:, 1:], clean[1:]])
    with pytest.raises(RsDecodeError) as exc:
        rs_decode(rows, code)
    assert exc.value.rows.tolist() == [1]
    assert "1 of 4" in str(exc.value)
    assert rs_decode(clean, code).tolist() == np.tile(np.arange(7), (3, 1)).tolist()

    # each backend's kernel alone: RS(9,5), the mother RS(15,11) behind six
    # virtual zeros, fails every row that is a mother codeword with one or
    # two (t) nonzero prefix symbols, and returns it as received
    rng = np.random.default_rng(189)
    mothers = []
    for npos in (1, 2):
        for pos in itertools.combinations(range(6), npos):
            rows = rng.integers(0, 16, (4, 11), dtype=np.uint8)
            rows[:, :6] = 0
            rows[:, list(pos)] = rng.integers(1, 16, (4, npos), dtype=np.uint8)
            mothers.append(rows)
    mothers = np.concatenate(mothers)
    received = _pure.rs_encode_blocks(mothers, 11)[:, 6:]
    clean = _pure.rs_encode_blocks(mothers[:, 6:], 11)
    for backend in _KERNEL_BACKENDS:
        data, failed = backend.rs_decode_blocks(received, 11)
        assert failed.all()
        assert np.array_equal(data, received[:, :5])
        data, failed = backend.rs_decode_blocks(clean, 11)
        assert not failed.any()
        assert np.array_equal(data, mothers[:, 6:])


@settings(max_examples=60)
@given(st.integers(0, 2**32 - 1))
def test_rs_bounded_distance_consistency(seed):
    """Whatever a noisy row decodes to re-encodes within t of the input."""
    code = RsCode(15, 11)
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 16, size=(1, 11), dtype=np.uint8)
    noisy = rs_encode(data, code)
    pos = rng.choice(15, size=3, replace=False)
    noisy[0, pos] ^= rng.integers(1, 16, size=3).astype(np.uint8)
    try:
        out = rs_decode(noisy.copy(), code)
    except RsDecodeError:
        return
    back = rs_encode(out, code)
    assert int((back != noisy).sum()) <= code.t


def test_rs_rejects_bad_shapes_and_symbols():
    code = RsCode(15, 11)
    with pytest.raises(ValueError):
        rs_encode(np.zeros((2, 10), np.uint8), code)
    with pytest.raises(ValueError):
        rs_decode(np.zeros((2, 14), np.uint8), code)
    with pytest.raises(ValueError):
        rs_encode(np.full((1, 11), 16, np.uint8), code)
    # the kernels check the symbol range, also behind a shortened code's pad
    with pytest.raises(ValueError):
        rs_decode(np.full((1, 15), 16, np.uint8), code)
    with pytest.raises(ValueError):
        rs_encode(np.full((1, 5), 200, np.uint8), RsCode(9, 5))
    with pytest.raises(ValueError):
        rs_decode(np.full((1, 9), 16, np.uint8), RsCode(9, 5))


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([RsCode(15, 11), RsCode(15, 7), RsCode(14, 7), RsCode(15, 12), RsCode(9, 5)]),
    st.integers(0, 2**32 - 1),
    st.lists(st.integers(0, 6), min_size=1, max_size=5),
)
def test_rs_decode_raises_exactly_when_the_private_form_marks_a_block(code, seed, errors):
    """``_rs_decode``'s mask marks the blocks the kernel fails and those
    corrected inside a shortened code's virtual prefix; ``rs_decode``
    raises exactly when it marks one, naming every marked row."""
    rng = np.random.default_rng(seed)
    blocks = rs_encode(rng.integers(0, 16, (len(errors), code.k), dtype=np.uint8), code)
    for row, nerr in zip(blocks, errors):
        pos = rng.choice(code.n, size=min(nerr, code.n), replace=False)
        row[pos] ^= rng.integers(1, 16, size=pos.size).astype(np.uint8)
    data, bad = _rs_decode(blocks.copy(), code)
    assert bad.shape == (len(errors),)
    if not bad.any():
        assert np.array_equal(rs_decode(blocks, code), data)
        return
    with pytest.raises(RsDecodeError) as exc:
        rs_decode(blocks, code)
    assert type(exc.value) is RsDecodeError
    assert exc.value.rows.tolist() == np.flatnonzero(bad).tolist()
    assert str(exc.value) == f"{code}: {np.count_nonzero(bad)} of {len(errors)} blocks uncorrectable"


# ------------------------------------------------- convolutional code oracle

_GENS = {
    Fraction(1, 3): (0o133, 0o171, 0o165),
    Fraction(1, 4): (0o117, 0o133, 0o171, 0o165),
}
_PUNCTURE = [True, True, False, True, False, False]


def _cc(bits, code):
    return _cc_encode(np.array(bits, dtype=np.uint8), code)


def _viterbi(coded, code):
    return _viterbi_decode(np.array(coded, dtype=np.uint8), code)


def ref_cc_encode(bits, rate):
    """Shift-register reference; current bit occupies the window's MSB."""
    gens = _GENS[Fraction(1, 3) if rate == Fraction(2, 3) else rate]
    out = []
    w = 0
    for b in list(bits) + [0] * (CC_CONSTRAINT_LENGTH - 1):
        w = (w >> 1) | (int(b) << (CC_CONSTRAINT_LENGTH - 1))
        for g in gens:
            out.append(bin(w & g).count("1") & 1)
    if rate == Fraction(2, 3):
        keep = _PUNCTURE * ((len(out) // 3 + 1) // 2)
        out = [c for c, k in zip(out, keep) if k]
    return out


def test_cc_code_validation():
    with pytest.raises(ValueError):
        ConvCode(Fraction(1, 2))
    assert str(ConvCode(Fraction(2, 3))) == "CC(2/3)"
    assert set(CC_RATES) == {Fraction(1, 4), Fraction(1, 3), Fraction(2, 3)}


def test_cc_output_lengths():
    bits = [1, 0, 1, 1, 0, 1, 0, 0, 1, 1]  # 10 bits + 6 tail
    assert _cc(bits, ConvCode(Fraction(1, 3))).size == 48
    assert _cc(bits, ConvCode(Fraction(1, 4))).size == 64
    assert _cc(bits, ConvCode(Fraction(2, 3))).size == 24


def test_cc_impulse_response_matches_generators():
    """A single 1 reads the generator taps straight off the coded stream."""
    coded = _cc([1], ConvCode(Fraction(1, 3))).reshape(-1, 3)
    for col, g in enumerate(_GENS[Fraction(1, 3)]):
        taps = [(g >> (CC_CONSTRAINT_LENGTH - 1 - t)) & 1 for t in range(7)]
        assert coded[:, col].tolist() == taps


@given(st.lists(st.integers(0, 1), max_size=120), st.sampled_from(list(CC_RATES)))
def test_cc_encode_matches_reference(bits, rate):
    if rate == Fraction(2, 3) and len(bits) % 2:
        bits = bits + [0]
    assert _cc(bits, ConvCode(rate)).tolist() == ref_cc_encode(bits, rate)


@given(
    st.lists(st.integers(0, 1), max_size=120),
    st.sampled_from(list(CC_RATES)),
)
def test_viterbi_round_trip_clean(bits, rate):
    if rate == Fraction(2, 3) and len(bits) % 2:
        bits = bits + [1]
    coded = _cc(bits, ConvCode(rate))
    assert _viterbi(coded, ConvCode(rate)).tolist() == bits


def test_viterbi_corrects_scattered_bit_errors():
    rng = np.random.default_rng(3)
    bits = rng.integers(0, 2, size=60).astype(np.uint8)
    for rate in (Fraction(1, 3), Fraction(1, 4)):
        coded = _cc(bits, ConvCode(rate))
        coded[10] ^= 1
        coded[60] ^= 1
        coded[110] ^= 1
        assert _viterbi(coded, ConvCode(rate)).tolist() == bits.tolist()


def test_viterbi_punctured_corrects_an_error():
    bits = np.array([1, 0, 1, 1, 0, 0, 1, 0, 1, 1], dtype=np.uint8)
    coded = _cc(bits, ConvCode(Fraction(2, 3)))
    coded[5] ^= 1
    assert _viterbi(coded, ConvCode(Fraction(2, 3))).tolist() == bits.tolist()


def test_cc_empty_input_round_trips():
    for rate in CC_RATES:
        coded = _cc([], ConvCode(rate))
        assert _viterbi(coded, ConvCode(rate)).size == 0


def test_cc_rate23_rejects_odd_input():
    with pytest.raises(ValueError):
        _cc([1], ConvCode(Fraction(2, 3)))


def test_viterbi_rejects_bad_lengths():
    with pytest.raises(ValueError):
        _viterbi([0, 1], ConvCode(Fraction(1, 3)))
    with pytest.raises(ValueError):
        _viterbi([0, 1, 0, 1], ConvCode(Fraction(2, 3)))
    with pytest.raises(ValueError):
        _viterbi([0, 0, 0], ConvCode(Fraction(1, 3)))


# ------------------------------------------ the trellis over two input steps
#
# Rate 2/3 keeps 3 of the 6 coded bits of two rate-1/3 steps, so each rate
# is walked over two input steps from every state, puncturing included.  A
# code is catastrophic when a cycle of zero output weight leaves the zero
# state (Massey & Sain, "Inverses of linear sequential circuits", IEEE
# Trans. Comput., 1968): finitely many channel errors then turn into
# unboundedly many decoded ones.


def _two_step_edges(rate):
    """(state, input pair, next state, output weight) of every two-step
    transition; a trellis row is (input bit << 6) | state, and the next
    state is the row shifted right by one."""
    table, keep = fec._TRELLIS[rate]
    edges = []
    for state, pair in itertools.product(range(64), range(4)):
        first = (pair >> 1) << 6 | state
        second = (pair & 1) << 6 | first >> 1
        out = np.concatenate([table[first], table[second]])
        weight = int(out[keep].sum() if keep is not None else out.sum())
        edges.append((state, pair, second >> 1, weight))
    return edges


def _zero_output_cycle_states(edges):
    """The states on or leading into a zero-output cycle other than the
    zero state's loop on zero input: empty for a non-catastrophic code."""
    succ = {state: set() for state in range(64)}
    for state, pair, nxt, weight in edges:
        if weight == 0 and (state, pair) != (0, 0):
            succ[state].add(nxt)
    alive = set(succ)
    while True:  # drop states with no zero-output edge into the rest
        dead = {state for state in alive if not succ[state] & alive}
        if not dead:
            return alive
        alive -= dead


def _free_distance(edges):
    """The least output weight of a path that leaves the zero state and
    comes back to it (Dijkstra over the two-step trellis)."""
    out = {state: [] for state in range(64)}
    for state, pair, nxt, weight in edges:
        out[state].append((pair, nxt, weight))
    heap = [(weight, nxt) for pair, nxt, weight in out[0] if pair]
    heapq.heapify(heap)
    done = set()
    while heap:
        dist, state = heapq.heappop(heap)
        if state == 0:
            return dist
        if state in done:
            continue
        done.add(state)
        for _, nxt, weight in out[state]:
            heapq.heappush(heap, (dist + weight, nxt))
    raise AssertionError("no path returns to the zero state")


@pytest.mark.parametrize(
    ("rate", "dfree"), [(Fraction(1, 4), 20), (Fraction(1, 3), 15), (Fraction(2, 3), 6)]
)
def test_each_rate_is_non_catastrophic_with_its_free_distance(rate, dfree):
    edges = _two_step_edges(rate)
    assert _zero_output_cycle_states(edges) == set()
    assert _free_distance(edges) == dfree


def test_rate23_corrects_five_flips_between_a_long_input_and_zeros():
    """0101... (400 bits) against all-zeros, five flips among the coded
    bits where the two differ.  A catastrophic pattern makes the two
    differ in a handful of bits however long the input, so the flips pull
    the decision to the zero path and about 200 bits come out wrong."""
    code = ConvCode(Fraction(2, 3))
    bits = np.tile(np.array([0, 1], np.uint8), 200)
    coded = _cc_encode(bits, code)
    differ = np.flatnonzero(coded != _cc_encode(np.zeros_like(bits), code))
    coded[differ[np.linspace(0, differ.size - 1, 5).astype(int)]] ^= 1
    assert np.array_equal(_viterbi_decode(coded, code), bits)
