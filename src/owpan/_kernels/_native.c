/* Compiled codec hot loops and CSV number text: the native twin of
 * owpan._kernels._pure.
 *
 * The same eight callables with the same contract, bit for bit:
 *
 *   rs_encode_blocks(data, k)       systematic RS(15, k) over GF(16),
 *                                   shortened to rows of 1..k symbols
 *   rs_decode_blocks(code, k)       batched bounded-distance decoding of
 *                                   rows of 16-k..15 symbols
 *   viterbi_decode(obs, out_table)  hard-decision Viterbi with erasures
 *   ook_demodulate(per)             OOK chips of (N, 4) samples
 *   vppm_demodulate(per)            VPPM bits and tie mask of (N, 4) samples
 *   decode_words(chips, width, values, status, flips=None)
 *                                   table-driven line decoding
 *   encode_words(values, table, flips=None)
 *                                   table rows of values: line encoding,
 *                                   nibble packing and modulation
 *   float_reprs(values)             repr of each float, for the sweep CSV
 *
 * Inputs are read through the buffer protocol (PEP 3118); anything that
 * is not already a C-contiguous uint8 ndarray (float32 or float64, for
 * the demodulators) goes through numpy.ascontiguousarray(x, dtype) first,
 * dtype uint8 (float64), as in _pure; encode_words' table keeps its own
 * dtype.  float_reprs alone reads no buffer: it takes the list or tuple
 * of exact Python floats that a capacity curve holds, and raises for
 * anything else.  Outputs are made with numpy.empty, so neither the numpy
 * C API nor Cython is needed.  The design follows Karn's libfec:
 *
 * - This file builds no table: when the module loads, it copies the
 *   GF(16) tables, the RS maps and POW10 from owpan._kernels._tables,
 *   whose arrays _pure computes with.  RS parity and syndromes are packed
 *   GF(16)-linear maps: entry 16*j + v holds v times row j, one symbol per
 *   nibble of a uint64, so a map costs one lookup and one XOR per symbol.
 *   Rows with a non-zero syndrome run Berlekamp-Massey, Chien and Forney
 *   exactly as _pure._correct does.
 * - A shortened RS row's missing leading symbols are implicit zeros, as
 *   libfec's pad: they select no entry of a map, so the map is read from
 *   the row of the first sent symbol on, and a correction that lands in
 *   them fails the row.
 * - Viterbi reads the 128 branch metrics of a step from one row of a
 *   cached 3^R x 128 table, runs add-compare-select over the 64 states
 *   and keeps each step's survivor decisions in one uint64.
 * - The demodulators make one pass over the samples, where _pure makes
 *   four numpy calls per block of chips; VPPM makes a second pass only
 *   to mark ties, when the first counted any.
 * - decode_words makes one pass over the chips: it packs each word, looks
 *   it up and tracks the 8b/10b running disparity, where _pure packs all
 *   words with a matmul and then takes from each table in turn.
 * - encode_words copies each value's table row straight into the output,
 *   tracking the disparity in the same pass, where _pure takes the rows a
 *   block of values at a time after a prefix xor of the flips.
 * - Large calls run on two threads when two CPUs are available: from a
 *   fixed chip count on (split_rows), the demodulators and the modulators'
 *   encode_words (flip-free rows of 16 bytes or more) run the second half
 *   of their rows on a helper thread, joined before the call returns,
 *   with the GIL released.  On one CPU, or if no thread can be started,
 *   the same loop runs whole.  Each row is computed alone, so the result
 *   is bit-identical to the serial loop and to _pure; nothing needs to be
 *   set.
 * - float_reprs finds each value's shortest round-trip digits with
 *   Giulietti's Schubfach ("The Schubfach way to render doubles", 2020),
 *   a few 128-bit multiplies against _tables' powers of ten, where _pure
 *   calls repr, whose dtoa (Gay's) needs big-number arithmetic for most
 *   17-digit values.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <pthread.h>
#include <sched.h>
#include <stdint.h>
#include <string.h>

#define N 15
#define MAX_NOUT 6
#define NCACHE 4

static uint8_t EXP[30], MUL[16][16], INV[16];
static uint64_t PARITY[N][16 * N];   /* PARITY[k]: k data symbols -> 15-k parity */
static uint64_t SYNDROME[N][16 * N]; /* SYNDROME[nroots]: codeword -> S_1..S_nroots */

static PyObject *np_empty, *np_ascontiguousarray, *np_ndarray, *dtype_u8,
    *dtype_bool, *dtype_f4, *dtype_f8;

static uint64_t apply(const uint64_t *table, const uint8_t *row, int m)
{
    uint64_t w = 0;
    for (int j = 0; j < m; j++)
        w ^= table[16 * j + row[j]];
    return w;
}

/* Read obj into view as a C-contiguous buffer in one of the one-letter
   struct formats in formats; anything else goes through
   numpy.ascontiguousarray(obj, dtype) first, which keeps obj's dtype when
   dtype is None, so the caller checks the format then.  Released by the
   caller. */
static int get_array(PyObject *obj, Py_buffer *view, const char *formats, PyObject *dtype)
{
    if (Py_TYPE(obj) == (PyTypeObject *)np_ndarray &&
        PyObject_GetBuffer(obj, view, PyBUF_C_CONTIGUOUS | PyBUF_FORMAT) == 0) {
        if (view->format[0] && !view->format[1] && strchr(formats, view->format[0]))
            return 0;
        PyBuffer_Release(view);
    }
    PyErr_Clear();
    PyObject *arr = PyObject_CallFunctionObjArgs(np_ascontiguousarray, obj, dtype, NULL);
    if (arr == NULL)
        return -1;
    int rc = PyObject_GetBuffer(arr, view, PyBUF_C_CONTIGUOUS | PyBUF_FORMAT);
    Py_DECREF(arr);
    return rc;
}

static int get_u8(PyObject *obj, Py_buffer *view)
{
    return get_array(obj, view, "B", dtype_u8);
}

/* numpy.empty(shape, dtype) with its data pointer; n1 < 0 makes it 1-D. */
static PyObject *new_array(Py_ssize_t n0, Py_ssize_t n1, PyObject *dtype, uint8_t **data)
{
    PyObject *shape = n1 < 0 ? Py_BuildValue("(n)", n0) : Py_BuildValue("(nn)", n0, n1);
    if (shape == NULL)
        return NULL;
    PyObject *arr = PyObject_CallFunctionObjArgs(np_empty, shape, dtype, NULL);
    Py_DECREF(shape);
    Py_buffer view;
    if (arr == NULL || PyObject_GetBuffer(arr, &view, PyBUF_WRITABLE | PyBUF_C_CONTIGUOUS)) {
        Py_XDECREF(arr);
        return NULL;
    }
    *data = view.buf; /* arr owns the memory and nothing else can resize it */
    PyBuffer_Release(&view);
    return arr;
}

/* A loop over rows [lo, hi) of the call described at args.  It writes
   only those rows of its outputs, so two ranges can run at once, and
   returns a count that split_rows sums over the ranges (0 if it counts
   nothing). */
typedef Py_ssize_t (*row_loop)(const void *args, Py_ssize_t lo, Py_ssize_t hi);

struct row_range {
    row_loop loop;
    const void *args;
    Py_ssize_t lo, hi, count;
};

static void *run_range(void *range)
{
    struct row_range *r = range;
    r->count = r->loop(r->args, r->lo, r->hi);
    return NULL;
}

/* The rows from which split_rows runs a loop as two halves, measured on a
   2-vCPU x86_64: below about 2^17 chips or table rows, the 20-30 us to
   start and join a thread outweigh the half of a pass that the split
   saves, and 2^18 keeps a margin on a machine whose other CPU is busy. */
#define SPLIT_ROWS ((Py_ssize_t)1 << 18)

static int two_cpus(void)
{
#ifdef CPU_COUNT
    cpu_set_t cpus;
    return sched_getaffinity(0, sizeof cpus, &cpus) == 0 && CPU_COUNT(&cpus) >= 2;
#else
    return 0;
#endif
}

/* loop over rows [0, n), returning its count.  From SPLIT_ROWS rows on,
   when this process may run on two CPUs (asked on every such call, as
   taskset can change it), a helper thread runs the second half while this
   one runs the first, and is joined before the return; if the thread
   cannot be started, or on one CPU, the loop runs whole.  Each row is
   computed as in the whole loop, so the result is the same bits.  The GIL
   is released around large loops: they call no Python API. */
static Py_ssize_t split_rows(row_loop loop, const void *args, Py_ssize_t n)
{
    if (n < SPLIT_ROWS)
        return loop(args, 0, n);
    Py_ssize_t count;
    Py_BEGIN_ALLOW_THREADS
    struct row_range second = {loop, args, n / 2, n, 0};
    pthread_t helper;
    if (two_cpus() && pthread_create(&helper, NULL, run_range, &second) == 0) {
        count = loop(args, 0, n / 2);
        pthread_join(helper, NULL);
        count += second.count;
    } else {
        count = loop(args, 0, n);
    }
    Py_END_ALLOW_THREADS
    return count;
}

/* *out = obj as an int in lo..hi, else ValueError "<name> must lie in ...". */
static int get_int(PyObject *obj, const char *name, int lo, int hi, int *out)
{
    int overflow;
    long v = PyLong_AsLongAndOverflow(obj, &overflow);
    if (v == -1 && PyErr_Occurred())
        return -1;
    if (overflow || v < lo || v > hi) {
        PyErr_Format(PyExc_ValueError, "%s must lie in %d..%d, got %S", name, lo, hi, obj);
        return -1;
    }
    *out = (int)v;
    return 0;
}

static int get_k(PyObject *obj, int *k)
{
    return get_int(obj, "k", 1, N - 1, k);
}

/* view must hold 2-D rows of lo..hi symbols, each 0..15. */
static int check_rows(const Py_buffer *view, int lo, int hi, const char *name)
{
    if (view->ndim != 2 || view->shape[1] < lo || view->shape[1] > hi) {
        PyErr_Format(PyExc_ValueError, "%s must have shape (N, %d..%d)", name, lo, hi);
        return -1;
    }
    const uint8_t *p = view->buf;
    uint8_t any = 0;
    for (Py_ssize_t i = 0; i < view->len; i++)
        any |= p[i];
    if (any > 15) {
        PyErr_SetString(PyExc_ValueError, "RS symbols must lie in 0..15");
        return -1;
    }
    return 0;
}

static PyObject *rs_encode_blocks(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"data", "k", NULL};
    PyObject *obj, *k_obj, *out = NULL;
    int k;
    Py_buffer in;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OO", kwlist, &obj, &k_obj) ||
        get_k(k_obj, &k) || get_u8(obj, &in))
        return NULL;
    uint8_t *o;
    if (check_rows(&in, 1, k, "data") == 0 &&
        (out = new_array(in.shape[0], in.shape[1] + N - k, dtype_u8, &o))) {
        const uint8_t *d = in.buf;
        int w = (int)in.shape[1], nroots = N - k;
        /* the k - w implicit leading zeros select no parity, so the map
           starts at the row of the first sent symbol */
        const uint64_t *map = PARITY[k] + 16 * (k - w);
        for (Py_ssize_t row = 0; row < in.shape[0]; row++, d += w, o += w + nroots) {
            uint64_t par = apply(map, d, w);
            memcpy(o, d, w);
            for (int i = 0; i < nroots; i++)
                o[w + i] = (par >> (4 * i)) & 15;
        }
    }
    PyBuffer_Release(&in);
    return out;
}

/* Coefficient l of a(x) * b(x), coefficients ascending. */
static uint8_t product_coeff(const uint8_t *a, const uint8_t *b, int l)
{
    uint8_t acc = 0;
    for (int j = 0; j <= l; j++)
        acc ^= MUL[a[j]][b[l - j]];
    return acc;
}

/* Sum of coef[d] * alpha^((d + shift) * j) over d = first, first+step, ... < n. */
static uint8_t eval_at(const uint8_t *coef, int first, int step, int n, int shift, int j)
{
    uint8_t acc = 0;
    for (int d = first; d < n; d += step)
        acc ^= MUL[coef[d]][EXP[((d + shift) * j) % 15]];
    return acc;
}

/* Bounded-distance correction of a 15-symbol row with packed syndromes
   != 0, step for step as _pure._correct; returns 1, leaving the row as it
   was, if the row fails or its correction lands in its first pad symbols,
   the virtual prefix of a shortened code. */
static int correct(uint8_t *row, uint64_t packed, int nroots, int pad)
{
    int t = nroots / 2, width = nroots + 2, elen = 1, olen = 1;
    uint8_t synd[N], err[N + 2] = {1}, old[N + 2] = {1}, prev[N + 2], omega[N];
    /* i < N always holds (k is checked to 1..14), but gcc must see it */
    for (int i = 0; i < nroots && i < N; i++)
        synd[i] = (packed >> (4 * i)) & 15;

    /* Berlekamp-Massey; err/old are the locator and its shifted companion */
    for (int i = 0; i < nroots; i++) {
        uint8_t delta = product_coeff(err, synd, i);
        memmove(old + 1, old, width - 1);
        old[0] = 0;
        olen++;
        memcpy(prev, err, width);
        for (int j = 0; j < width; j++)
            err[j] ^= MUL[delta][old[j]];
        if (delta && olen > elen) {
            for (int j = 0; j < width; j++)
                old[j] = MUL[INV[delta]][prev[j]];
            int swap = elen;
            elen = olen;
            olen = swap;
        }
    }
    int nerr = elen - 1, nroot = 0, roots[N];
    if (nerr > t)
        return 1;

    /* Chien: a root at alpha^j marks an error in column (j + 14) % 15 */
    for (int j = 0; j < N; j++)
        if (eval_at(err, 0, 1, width, 0, j) == 0)
            roots[nroot++] = j;
    if (nroot != nerr)
        return 1;

    /* Forney: omega = S(x) * locator mod x^nroots, magnitude
       omega / (x * locator'), whose terms are the odd-degree ones */
    for (int l = 0; l < nroots; l++)
        omega[l] = product_coeff(err, synd, l);
    uint8_t fixed[N];
    memcpy(fixed, row, N);
    for (int i = 0; i < nroot; i++) {
        int j = roots[i];
        uint8_t der = eval_at(err, 1, 2, width, -1, j);
        if (der == 0)
            return 1;
        fixed[(j + 14) % 15] ^= MUL[eval_at(omega, 0, 1, nroots, 0, j)][INV[der]];
    }
    /* a bounded-distance result must be a codeword */
    if (apply(SYNDROME[nroots], fixed, N))
        return 1;
    for (int j = 0; j < pad; j++)
        if (fixed[j])
            return 1;
    memcpy(row, fixed, N);
    return 0;
}

static PyObject *rs_decode_blocks(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"code", "k", NULL};
    PyObject *obj, *k_obj, *out = NULL, *failed = NULL;
    int k;
    Py_buffer in;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OO", kwlist, &obj, &k_obj) ||
        get_k(k_obj, &k) || get_u8(obj, &in))
        return NULL;
    uint8_t *o, *f;
    int nroots = N - k;
    if (check_rows(&in, nroots + 1, N, "code") == 0 &&
        (out = new_array(in.shape[0], in.shape[1] - nroots, dtype_u8, &o)) &&
        (failed = new_array(in.shape[0], -1, dtype_bool, &f))) {
        const uint8_t *c = in.buf;
        int n = (int)in.shape[1], pad = N - n, kw = n - nroots;
        /* the pad implicit leading zeros add nothing to a syndrome */
        const uint64_t *map = SYNDROME[nroots] + 16 * pad;
        for (Py_ssize_t row = 0; row < in.shape[0]; row++, c += n, o += kw) {
            /* a row with all-zero syndromes is a codeword; correct()
               leaves a failed row as it was received */
            uint64_t synd = apply(map, c, n);
            uint8_t cw[N] = {0};
            memcpy(cw + pad, c, n);
            f[row] = synd && correct(cw, synd, nroots, pad);
            memcpy(o, cw + pad, kw);
        }
    }
    PyBuffer_Release(&in);
    if (failed == NULL) {
        Py_XDECREF(out);
        return NULL;
    }
    return Py_BuildValue("(NN)", out, failed);
}

/* (3^R, 128) Hamming distances from each observation symbol to each
   word, cached by output table: see _pure._branch_metrics.  A row holds
   the even words 0, 2, ..., 126 first and then the odd ones, so the two
   candidates for state ns sit at ns and 64 + ns. */
static struct {
    int nout;
    uint8_t table[128 * MAX_NOUT];
    uint8_t *bm;
} cache[NCACHE];
static int cache_next;

static const uint8_t *branch_metrics(const uint8_t *table, int nout)
{
    for (int i = 0; i < NCACHE; i++)
        if (cache[i].bm && cache[i].nout == nout && !memcmp(cache[i].table, table, 128 * nout))
            return cache[i].bm;
    int nsym = 1;
    for (int j = 0; j < nout; j++)
        nsym *= 3;
    uint8_t *bm = PyMem_Malloc(128 * nsym);
    if (bm == NULL) {
        PyErr_NoMemory();
        return NULL;
    }
    for (int s = 0; s < nsym; s++)
        for (int w = 0; w < 128; w++) {
            int dist = 0;
            for (int j = 0, rest = s; j < nout; j++, rest /= 3)
                dist += rest % 3 != 2 && table[w * nout + j] != rest % 3;
            bm[128 * s + 64 * (w & 1) + (w >> 1)] = (uint8_t)dist;
        }
    PyMem_Free(cache[cache_next].bm);
    cache[cache_next].bm = bm;
    cache[cache_next].nout = nout;
    memcpy(cache[cache_next].table, table, 128 * nout);
    cache_next = (cache_next + 1) % NCACHE;
    return bm;
}

static PyObject *viterbi(const uint8_t *obs, Py_ssize_t steps, const uint8_t *table, int nout)
{
    const uint8_t *bm = branch_metrics(table, nout);
    uint8_t *bits;
    PyObject *out = bm ? new_array(steps, -1, dtype_u8, &bits) : NULL;
    if (out == NULL)
        return NULL;
    uint64_t *dec = PyMem_Malloc(steps ? steps * sizeof(uint64_t) : 1);
    if (dec == NULL) {
        Py_DECREF(out);
        return PyErr_NoMemory();
    }
    /* word w = (bit << 6) | state leads to state w >> 1, so the two
       predecessors of state ns are words 2*ns and 2*ns + 1, from states
       2*ns & 63 and (2*ns + 1) & 63: states i and i + 32 share the pair
       of states 2i, 2i + 1.  The odd word survives only if strictly
       better. */
    int32_t pm[64], npm[64];
    uint8_t odd[64];
    for (int s = 0; s < 64; s++)
        pm[s] = 1 << 20; /* the encoder starts in state 0 */
    pm[0] = 0;
    for (Py_ssize_t t = 0; t < steps; t++, obs += nout) {
        int sym = 0;
        for (int j = nout - 1; j >= 0; j--)
            sym = 3 * sym + obs[j];
        const uint8_t *even_bm = bm + 128 * sym, *odd_bm = even_bm + 64;
        for (int i = 0; i < 32; i++) {
            int32_t e0 = pm[2 * i] + even_bm[i], o0 = pm[2 * i + 1] + odd_bm[i];
            int32_t e1 = pm[2 * i] + even_bm[i + 32], o1 = pm[2 * i + 1] + odd_bm[i + 32];
            npm[i] = o0 < e0 ? o0 : e0;
            npm[i + 32] = o1 < e1 ? o1 : e1;
            odd[i] = o0 < e0;
            odd[i + 32] = o1 < e1;
        }
        /* eight 0/1 bytes at a time to eight bits: byte b of v, at bit
           8b, lands in bit 56 + b of the product */
        uint64_t packed = 0;
        for (int q = 0; q < 8; q++) {
            uint64_t v = 0;
            for (int b = 0; b < 8; b++)
                v |= (uint64_t)odd[8 * q + b] << (8 * b);
            packed |= (v * 0x0102040810204080ULL) >> 56 << (8 * q);
        }
        dec[t] = packed;
        memcpy(pm, npm, sizeof pm);
    }
    /* the zero tail always drives the encoder back to state 0 */
    for (Py_ssize_t t = steps - 1, state = 0; t >= 0; t--) {
        int w = 2 * state + ((dec[t] >> state) & 1);
        bits[t] = w >> 6;
        state = w & 63;
    }
    PyMem_Free(dec);
    return out;
}

static PyObject *viterbi_decode(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"obs", "out_table", NULL};
    PyObject *obs_obj, *table_obj, *out = NULL;
    Py_buffer obs, table;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OO", kwlist, &obs_obj, &table_obj) ||
        get_u8(obs_obj, &obs))
        return NULL;
    if (get_u8(table_obj, &table)) {
        PyBuffer_Release(&obs);
        return NULL;
    }
    int nout = table.ndim == 2 ? (int)table.shape[1] : 0;
    const uint8_t *o = obs.buf;
    uint8_t top = 0;
    for (Py_ssize_t i = 0; i < obs.len; i++)
        top = o[i] > top ? o[i] : top;
    if (table.ndim != 2 || table.shape[0] != 128)
        PyErr_SetString(PyExc_ValueError, "out_table must have shape (128, R)");
    else if (nout < 1 || nout > MAX_NOUT)
        PyErr_Format(PyExc_ValueError, "out_table width %d outside 1..%d", nout, MAX_NOUT);
    else if (obs.len % nout)
        PyErr_Format(PyExc_ValueError, "observation length %zd not a multiple of %d", obs.len,
                     nout);
    else if (top > 2)
        PyErr_SetString(PyExc_ValueError, "observations must be 0, 1 or 2 (erased)");
    else
        out = viterbi(obs.buf, obs.len / nout, table.buf, nout);
    PyBuffer_Release(&obs);
    PyBuffer_Release(&table);
    return out;
}

/* The demodulator loops over the (N, 4) samples of N chips, one per
   sample type.  Each sum is formed in double, left to right: (double)s[0]
   + s[1] + s[2] + s[3] is ((s0 + s1) + s2) + s3, the order of _pure, and
   widening a float to double is exact.  A sum past double's range is inf;
   inf + -inf is NaN, which compares false, so such a chip reads 0 and is
   no VPPM tie.  vppm_T returns the number of ties, and mark_ties_T, run
   only when there are some, marks them.  Each is a row_loop over chips
   [lo, hi) of a struct demod. */
struct demod {
    const void *per;
    uint8_t *out;
};

#define DEMODULATORS(T)                                                           \
    static Py_ssize_t ook_##T(const void *args, Py_ssize_t lo, Py_ssize_t hi)     \
    {                                                                             \
        const struct demod *d = args;                                             \
        const T *s = (const T *)d->per + 4 * lo;                                  \
        uint8_t *chips = d->out;                                                  \
        for (Py_ssize_t i = lo; i < hi; i++, s += 4)                              \
            chips[i] = (double)s[0] + s[1] + s[2] + s[3] > 2.0;                   \
        return 0;                                                                 \
    }                                                                             \
    static Py_ssize_t vppm_##T(const void *args, Py_ssize_t lo, Py_ssize_t hi)    \
    {                                                                             \
        const struct demod *d = args;                                             \
        const T *s = (const T *)d->per + 4 * lo;                                  \
        uint8_t *bits = d->out;                                                   \
        Py_ssize_t ties = 0;                                                      \
        for (Py_ssize_t i = lo; i < hi; i++, s += 4) {                            \
            double first = (double)s[0] + s[1], second = (double)s[2] + s[3];     \
            bits[i] = first > second;                                             \
            ties += first == second;                                              \
        }                                                                         \
        return ties;                                                              \
    }                                                                             \
    static Py_ssize_t mark_ties_##T(const void *args, Py_ssize_t lo, Py_ssize_t hi) \
    {                                                                             \
        const struct demod *d = args;                                             \
        const T *s = (const T *)d->per + 4 * lo;                                  \
        uint8_t *bad = d->out;                                                    \
        for (Py_ssize_t i = lo; i < hi; i++, s += 4)                              \
            bad[i] = (double)s[0] + s[1] == (double)s[2] + s[3];                  \
        return 0;                                                                 \
    }
DEMODULATORS(float)
DEMODULATORS(double)

/* Read per as (N, 4) float32 or float64 samples, C-contiguous; set *single
   for float32.  Any other dtype or layout is converted to float64. */
static int get_samples(PyObject *per, Py_buffer *view, int *single)
{
    if (get_array(per, view, "fd", dtype_f8))
        return -1;
    if (view->ndim != 2 || view->shape[1] != 4) {
        PyBuffer_Release(view);
        PyErr_SetString(PyExc_ValueError, "per must have shape (N, 4)");
        return -1;
    }
    *single = view->itemsize == sizeof(float);
    return 0;
}

static PyObject *ook_demodulate(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"per", NULL};
    PyObject *per;
    Py_buffer in;
    int single;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "O", kwlist, &per) ||
        get_samples(per, &in, &single))
        return NULL;
    struct demod d = {in.buf, NULL};
    PyObject *out = new_array(in.shape[0], -1, dtype_u8, &d.out);
    if (out)
        split_rows(single ? ook_float : ook_double, &d, in.shape[0]);
    PyBuffer_Release(&in);
    return out;
}

static PyObject *vppm_demodulate(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"per", NULL};
    PyObject *per;
    Py_buffer in;
    int single;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "O", kwlist, &per) ||
        get_samples(per, &in, &single))
        return NULL;
    Py_ssize_t n = in.shape[0];
    struct demod bits = {in.buf, NULL}, bad = {in.buf, NULL};
    PyObject *out = new_array(n, -1, dtype_u8, &bits.out), *mask = Py_None;
    if (out) {
        /* a clean frame keeps no frame-sized mask */
        if (split_rows(single ? vppm_float : vppm_double, &bits, n) == 0)
            Py_INCREF(mask);
        else if ((mask = new_array(n, -1, dtype_bool, &bad.out)) == NULL)
            Py_CLEAR(out);
        else
            split_rows(single ? mark_ties_float : mark_ties_double, &bad, n);
    }
    PyBuffer_Release(&in);
    return out ? Py_BuildValue("(NN)", out, mask) : NULL;
}

/* The n <= 8 chips at c as the MSB-first word of their low bits.  The
   chips are loaded as the bytes of one little-endian integer (gcc makes
   it one load), chip i in byte i; times the multiplier, byte i of the
   masked load lands in the top byte weighted 2^(n-1-i), and no partial sum
   below the top byte exceeds 255, so none carries into it.  The raw bytes
   are OR-ed into *chips_or, so the caller can reject a chip above 1 after
   the pass: a branch per chip would keep gcc from unrolling the loop. */
#define CHIP_BITS 0x0101010101010101ULL

static inline unsigned pack_chips(const uint8_t *c, int n, uint64_t *chips_or)
{
    uint64_t x = 0;
    for (int i = n - 1; i >= 0; i--)
        x = x << 8 | c[i];
    *chips_or |= x;
    return (unsigned)(((x & CHIP_BITS) * (0x8040201008040201ULL << (8 * (8 - n)))) >> 56);
}

/* The word loop of decode_words, one function per width W: widths 4, 6 and
   10 are compile-time constants, which makes the packing a few loads and
   multiplies, and any other width is the run-time argument.  neg is 1
   before the first word, as in _pure._running.  Returns nonzero if a chip
   is above 1. */
#define WORD_DECODER(NAME, W)                                                     \
    static int NAME(const uint8_t *c, Py_ssize_t nwords, int width,               \
                    const uint8_t *values, const uint8_t *status,                 \
                    const uint8_t *flips, uint8_t *out, uint8_t *mask)            \
    {                                                                             \
        uint64_t chips_or = 0;                                                    \
        unsigned neg = 1;                                                         \
        (void)width;                                                              \
        for (Py_ssize_t w = 0; w < nwords; w++, c += W) {                         \
            unsigned word = 0;                                                    \
            for (int j = 0; j < W; j += 8) {                                      \
                int n = W - j < 8 ? W - j : 8;                                    \
                word = word << n | pack_chips(c + j, n, &chips_or);               \
            }                                                                     \
            out[w] = values[word];                                                \
            if (flips) {                                                          \
                mask[w] = status[neg << W | word];                                \
                neg ^= flips[word] != 0;                                          \
            } else if (status)                                                    \
                mask[w] = status[word];                                           \
        }                                                                         \
        return (chips_or & ~CHIP_BITS) != 0;                                      \
    }
WORD_DECODER(decode_words_4, 4)
WORD_DECODER(decode_words_6, 6)
WORD_DECODER(decode_words_10, 10)
WORD_DECODER(decode_words_any, width)

/* a if bit 0 of chip is 0, else b; chip's other bits are rejected by the
   caller */
static inline uint8_t pick(uint8_t chip, uint8_t a, uint8_t b)
{
    return a ^ ((a ^ b) & (uint8_t)-(chip & 1));
}

/* The word loop of decode_words at width 2 without flips (Manchester's).
   The four entries of each table are held in scalars and picked by the
   word's two chips with masks, so gcc vectorizes the loop instead of
   loading each entry from an index packed from the chips. */
static int decode_pairs(const uint8_t *c, Py_ssize_t nwords, const uint8_t *values,
                        const uint8_t *status, uint8_t *out, uint8_t *mask)
{
    const uint8_t v0 = values[0], v1 = values[1], v2 = values[2], v3 = values[3];
    const uint8_t s0 = status ? status[0] : 0, s1 = status ? status[1] : 0,
                  s2 = status ? status[2] : 0, s3 = status ? status[3] : 0;
    uint8_t chips_or = 0;
    for (Py_ssize_t w = 0; w < nwords; w++) {
        uint8_t first = c[2 * w], second = c[2 * w + 1];
        chips_or |= first | second;
        out[w] = pick(first, pick(second, v0, v1), pick(second, v2, v3));
        if (status)
            mask[w] = pick(first, pick(second, s0, s1), pick(second, s2, s3));
    }
    return chips_or > 1;
}

/* the largest width of the contract, _pure._MAX_WIDTH */
#define MAX_WIDTH 15

/* Read a decode_words table as uint8; it must have size entries. */
static int get_table(PyObject *obj, Py_buffer *view, Py_ssize_t size, const char *name)
{
    if (get_u8(obj, view))
        return -1;
    if (view->ndim != 1 || view->shape[0] != size) {
        PyBuffer_Release(view);
        PyErr_Format(PyExc_ValueError, "%s must have shape (%zd,)", name, size);
        return -1;
    }
    return 0;
}

static PyObject *decode_words(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"chips", "width", "values", "status", "flips", NULL};
    PyObject *chips_obj, *width_obj, *values_obj, *status_obj, *flips_obj = Py_None;
    PyObject *out = NULL, *mask = NULL;
    Py_buffer chips, tables[3];
    int width, ntables = 0, ok = 0;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOOO|O", kwlist, &chips_obj, &width_obj,
                                     &values_obj, &status_obj, &flips_obj) ||
        get_int(width_obj, "width", 1, MAX_WIDTH, &width) || get_u8(chips_obj, &chips))
        return NULL;
    Py_ssize_t size = (Py_ssize_t)1 << width, nwords = chips.len / width;
    int has_status = status_obj != Py_None, has_flips = flips_obj != Py_None;
    const uint8_t *status = NULL, *flips = NULL;
    uint8_t *o, *m = NULL;
    /* tables[0] values, then status and flips when given */
    if (get_table(values_obj, &tables[ntables], size, "values") ||
        !(out = new_array(nwords, -1, dtype_u8, &o)))
        goto done;
    ntables++;
    if (has_status) {
        if (get_table(status_obj, &tables[ntables], has_flips ? 2 * size : size, "status") ||
            !(mask = new_array(nwords, -1, dtype_u8, &m)))
            goto done;
        status = tables[ntables++].buf;
    } else {
        Py_INCREF(mask = Py_None);
    }
    if (has_flips) {
        if (get_table(flips_obj, &tables[ntables], size, "flips"))
            goto done;
        flips = tables[ntables++].buf;
    }
    if (chips.len % width) {
        PyErr_Format(PyExc_ValueError, "chip count %zd is not a multiple of %d", chips.len,
                     width);
        goto done;
    }
    /* the mask is filled only with a status table, and from flips only then */
    if (!has_status)
        flips = NULL;
    const uint8_t *c = chips.buf, *values = tables[0].buf;
    int bad_chip;
    switch (width) {
    case 2:
        bad_chip = flips ? decode_words_any(c, nwords, width, values, status, flips, o, m)
                         : decode_pairs(c, nwords, values, status, o, m);
        break;
    case 4:
        bad_chip = decode_words_4(c, nwords, width, values, status, flips, o, m);
        break;
    case 6:
        bad_chip = decode_words_6(c, nwords, width, values, status, flips, o, m);
        break;
    case 10:
        bad_chip = decode_words_10(c, nwords, width, values, status, flips, o, m);
        break;
    default:
        bad_chip = decode_words_any(c, nwords, width, values, status, flips, o, m);
    }
    if (bad_chip)
        PyErr_SetString(PyExc_ValueError, "chips must be 0 or 1");
    ok = !bad_chip;
done:
    PyBuffer_Release(&chips);
    while (ntables > 0)
        PyBuffer_Release(&tables[--ntables]);
    if (!ok) {
        Py_XDECREF(out);
        Py_XDECREF(mask);
        return NULL;
    }
    return Py_BuildValue("(NN)", out, mask);
}

/* The row loop of encode_words, one row_loop over values [lo, hi) of a
   struct gather per row size RB in bytes: 2, 4, 6, 10, 16 and 32, the sizes
   of the codec's tables, are compile-time constants, which makes each copy
   a few loads and stores, and any other size is the run-time argument.
   With flips, the row read is half * neg + value, where neg is 1 before
   the first value, as in _pure._running, so that loop runs from lo = 0. */
struct gather {
    const uint8_t *values, *table, *flips;
    size_t rowsize, half;
    uint8_t *out;
};

#define ROW_GATHER(NAME, RB)                                                      \
    static Py_ssize_t NAME(const void *args, Py_ssize_t lo, Py_ssize_t hi)        \
    {                                                                             \
        const struct gather *g = args;                                            \
        const uint8_t *values = g->values, *table = g->table, *flips = g->flips;  \
        size_t rowsize = g->rowsize, half = g->half;                              \
        uint8_t *out = g->out + (size_t)lo * RB;                                  \
        (void)rowsize;                                                            \
        if (flips) {                                                              \
            size_t neg = 1;                                                       \
            for (Py_ssize_t i = lo; i < hi; i++, out += RB) {                     \
                memcpy(out, table + (half * neg + values[i]) * RB, RB);           \
                neg ^= flips[values[i]] != 0;                                     \
            }                                                                     \
        } else {                                                                  \
            for (Py_ssize_t i = lo; i < hi; i++, out += RB)                       \
                memcpy(out, table + (size_t)values[i] * RB, RB);                  \
        }                                                                         \
        return 0;                                                                 \
    }
ROW_GATHER(encode_rows_2, 2)
ROW_GATHER(encode_rows_4, 4)
ROW_GATHER(encode_rows_6, 6)
ROW_GATHER(encode_rows_10, 10)
ROW_GATHER(encode_rows_16, 16)
ROW_GATHER(encode_rows_32, 32)
ROW_GATHER(encode_rows_any, rowsize)

static PyObject *encode_words(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"values", "table", "flips", NULL};
    PyObject *values_obj, *table_obj, *flips_obj = Py_None, *out = NULL;
    Py_buffer values, table, flips;
    int has_flips = 0;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OO|O", kwlist, &values_obj, &table_obj,
                                     &flips_obj) ||
        get_u8(values_obj, &values))
        return NULL;
    if (get_array(table_obj, &table, "Bfd", Py_None)) {
        PyBuffer_Release(&values);
        return NULL;
    }
    char format = table.format[0] && !table.format[1] ? table.format[0] : 0;
    PyObject *dtype = format == 'B'   ? dtype_u8
                      : format == 'f' ? dtype_f4
                      : format == 'd' ? dtype_f8
                                      : NULL;
    if (table.ndim != 2 || dtype == NULL) {
        PyErr_SetString(PyExc_ValueError, "table must be a 2-D uint8, float32 or float64 array");
        goto done;
    }
    Py_ssize_t rows = table.shape[0], n = values.len;
    if (flips_obj != Py_None) {
        if (get_u8(flips_obj, &flips))
            goto done;
        has_flips = 1;
        if (flips.ndim != 1 || 2 * flips.shape[0] != rows) {
            PyErr_SetString(PyExc_ValueError,
                            "flips must have half as many entries as table has rows");
            goto done;
        }
    }
    /* every value must index a row (of the first half, with flips) */
    Py_ssize_t nvalues = has_flips ? flips.shape[0] : rows;
    const uint8_t *v = values.buf;
    uint8_t top = 0;
    for (Py_ssize_t i = 0; i < n; i++)
        top = v[i] > top ? v[i] : top;
    if (n && top >= nvalues) {
        PyErr_Format(PyExc_ValueError, "values must lie in 0..%zd", nvalues - 1);
        goto done;
    }
    struct gather g = {v, table.buf, has_flips ? flips.buf : NULL,
                       (size_t)table.shape[1] * table.itemsize, (size_t)nvalues, NULL};
    if ((out = new_array(n * table.shape[1], -1, dtype, &g.out)) == NULL)
        goto done;
    row_loop loop = g.rowsize == 2    ? encode_rows_2
                    : g.rowsize == 4  ? encode_rows_4
                    : g.rowsize == 6  ? encode_rows_6
                    : g.rowsize == 10 ? encode_rows_10
                    : g.rowsize == 16 ? encode_rows_16
                    : g.rowsize == 32 ? encode_rows_32
                                      : encode_rows_any;
    /* shorter rows (the line codes') copy so fast that a second thread
       pays only while the other CPU is idle; with flips, each row depends
       on the disparity before it */
    if (g.flips == NULL && g.rowsize >= 16)
        split_rows(loop, &g, n);
    else
        loop(&g, 0, n);
done:
    PyBuffer_Release(&values);
    PyBuffer_Release(&table);
    if (has_flips)
        PyBuffer_Release(&flips);
    return out;
}

/* Shortest round-trip decimal of a double by Schubfach (Giulietti, "The
   Schubfach way to render doubles", 2020), after Bolz's 128-bit version.
   v = m2 * 2^e2 reads back from every decimal inside the rounding interval
   between the midpoints to its neighbours, ends included when m2 is even,
   as round-half-even reads them.  Scaled by 10^-k, with k = floor(log10
   2^e2) (of 3/4 * 2^e2 at a power of two, whose lower gap is half), the
   interval is 1 to 10 units wide: it holds at most one multiple of 10 and
   at least one integer.  The answer is that multiple of 10, one digit
   shorter, if there is one, else the integer inside nearest v, ties to
   even.  The ends and v are computed in quarter units and rounded to odd,
   which keeps every comparison with a multiple of 4 exact.  POW10[k] is
   10^k to 128 significant bits, floor(10^k / 2^r) + 1 with r = floor(log2
   10^k) - 127: an overestimate small enough, by Giulietti's proof, to leave
   those comparisons unchanged.  It is copied from _tables._pow10_table(). */
#define POW10_MIN (-292)
#define POW10_MAX 324
static uint64_t POW10[POW10_MAX - POW10_MIN + 1][2]; /* {high, low} halves */

/* floor(e * log10 2), floor(log10(3/4 * 2^e)) and floor(e * log2 10), exact
   over the exponents used; >> on a negative int is gcc's arithmetic shift */
static int floor_log10_pow2(int e)
{
    return (e * 1262611) >> 22;
}

static int floor_log10_three_quarters_pow2(int e)
{
    return (e * 1262611 - 524031) >> 22;
}

static int floor_log2_pow10(int e)
{
    return (e * 1741647) >> 19;
}

/* floor(g * cp / 2^128) of the 192-bit product, with bit 0 set when its
   bits 65..127 are not all zero: the bits below those, which g's excess
   over the exact power alone can set, are not looked at */
static uint64_t round_to_odd(const uint64_t *g, uint64_t cp)
{
    unsigned __int128 x = (unsigned __int128)g[1] * cp;
    unsigned __int128 y = (unsigned __int128)g[0] * cp + (uint64_t)(x >> 64);
    return (uint64_t)(y >> 64) | ((uint64_t)y > 1);
}

/* The shortest decimal digits * 10^exponent that reads back as the finite,
   nonzero double of bits, the nearest such when several are that short;
   digits may end in zeros.  Returns the exponent. */
static int shortest_decimal(uint64_t bits, uint64_t *digits)
{
    uint64_t fraction = bits & ((1ULL << 52) - 1);
    int biased = (int)(bits >> 52 & 0x7ff);
    uint64_t m2 = biased ? fraction | 1ULL << 52 : fraction;
    int e2 = biased ? biased - 1075 : -1074;
    /* at a power of two the lower neighbour is half as far as the upper */
    int closer = fraction == 0 && biased > 1, odd = (int)(m2 & 1);
    int k = closer ? floor_log10_three_quarters_pow2(e2) : floor_log10_pow2(e2);
    int h = e2 + floor_log2_pow10(-k) + 1; /* 1..4 */
    const uint64_t *g = POW10[-k - POW10_MIN];
    uint64_t vbl = round_to_odd(g, (4 * m2 - 2 + closer) << h);
    uint64_t vb = round_to_odd(g, 4 * m2 << h);
    uint64_t vbr = round_to_odd(g, (4 * m2 + 2) << h);
    uint64_t lower = vbl + odd, upper = vbr - odd, s = vb / 4;
    if (s >= 10) {
        uint64_t sp = s / 10;
        int up_inside = lower <= 40 * sp, wp_inside = 40 * sp + 40 <= upper;
        if (up_inside != wp_inside) {
            *digits = sp + wp_inside;
            return k + 1;
        }
    }
    int u_inside = lower <= 4 * s, w_inside = 4 * s + 4 <= upper;
    if (u_inside != w_inside) {
        *digits = s + w_inside;
        return k;
    }
    uint64_t mid = 4 * s + 2;
    *digits = s + (vb > mid || (vb == mid && (s & 1)));
    return k;
}

/* repr(v) into buf (at most 24 bytes); returns its length.  Python's
   rules: the shortest round-trip digits, in scientific notation when the
   decimal exponent is below -4 or at least 16, with an exponent of at
   least two digits, else in fixed notation with ".0" after an integer. */
static int float_repr(double v, char *buf)
{
    uint64_t bits;
    memcpy(&bits, &v, sizeof bits);
    char *p = buf;
    if ((bits >> 52 & 0x7ff) == 0x7ff) {
        if (bits << 12) {
            memcpy(p, "nan", 3); /* whatever its sign */
            return 3;
        }
        if (bits >> 63)
            *p++ = '-';
        memcpy(p, "inf", 3);
        return (int)(p - buf) + 3;
    }
    if (bits >> 63)
        *p++ = '-';
    if ((bits << 1) == 0) {
        memcpy(p, "0.0", 3);
        return (int)(p - buf) + 3;
    }
    uint64_t f;
    int e = shortest_decimal(bits, &f);
    for (; f % 10 == 0; e++)
        f /= 10;
    char tmp[20], *d = tmp + sizeof tmp;
    do
        *--d = (char)('0' + f % 10);
    while (f /= 10);
    int n = (int)(tmp + sizeof tmp - d), point = n + e; /* v = 0.d * 10^point */
    if (point <= -4 || point > 16) {
        *p++ = d[0];
        if (n > 1) {
            *p++ = '.';
            memcpy(p, d + 1, n - 1);
            p += n - 1;
        }
        int x = point - 1;
        *p++ = 'e';
        *p++ = x < 0 ? '-' : '+';
        x = x < 0 ? -x : x;
        if (x >= 100)
            *p++ = (char)('0' + x / 100);
        *p++ = (char)('0' + x / 10 % 10);
        *p++ = (char)('0' + x % 10);
    } else if (point <= 0) {
        memcpy(p, "0.000", 2 - point);
        p += 2 - point;
        memcpy(p, d, n);
        p += n;
    } else if (point >= n) {
        memcpy(p, d, n);
        memset(p + n, '0', point - n);
        p += point;
        memcpy(p, ".0", 2);
        p += 2;
    } else {
        memcpy(p, d, point);
        p[point] = '.';
        memcpy(p + point + 1, d + point, n - point);
        p += n + 1;
    }
    return (int)(p - buf);
}

/* values must be a list or tuple of exact Python floats, as the curves of
   owpan.capacity hold: each item is read in place with PyFloat_AS_DOUBLE,
   with no buffer and no numpy call.  Making a str runs no Python code, so
   a list cannot change while its texts are made. */
static PyObject *float_reprs(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"values", NULL};
    PyObject *obj, *out = NULL;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "O", kwlist, &obj))
        return NULL;
    if (!PyList_Check(obj) && !PyTuple_Check(obj))
        goto bad;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(obj);
    if ((out = PyList_New(n)) == NULL)
        return NULL;
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *item = PySequence_Fast_GET_ITEM(obj, i);
        if (!PyFloat_CheckExact(item))
            goto bad;
        char buf[32];
        int len = float_repr(PyFloat_AS_DOUBLE(item), buf);
        PyObject *text = PyUnicode_New(len, 127);
        if (text == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        memcpy(PyUnicode_1BYTE_DATA(text), buf, len);
        PyList_SET_ITEM(out, i, text);
    }
    return out;
bad:
    Py_XDECREF(out);
    PyErr_SetString(PyExc_ValueError, "values must be a list or tuple of floats");
    return NULL;
}

static PyMethodDef methods[] = {
    {"rs_encode_blocks", (PyCFunction)(void (*)(void))rs_encode_blocks,
     METH_VARARGS | METH_KEYWORDS,
     "Encode rows of data (shape (N, w), 1 <= w <= k, symbols 0..15) into systematic\n"
     "RS(15, k) shortened by k - w symbols; returns rows of w + 15 - k symbols."},
    {"rs_decode_blocks", (PyCFunction)(void (*)(void))rs_decode_blocks,
     METH_VARARGS | METH_KEYWORDS,
     "Decode rows of code (shape (N, n), 15 - k < n <= 15) of RS(15, k) shortened by\n"
     "15 - n symbols; returns (data, failed), data rows of n - 15 + k symbols."},
    {"viterbi_decode", (PyCFunction)(void (*)(void))viterbi_decode,
     METH_VARARGS | METH_KEYWORDS,
     "Hard-decision Viterbi over the 64-state rate-1/R trellis, with erasures."},
    {"ook_demodulate", (PyCFunction)(void (*)(void))ook_demodulate,
     METH_VARARGS | METH_KEYWORDS,
     "OOK chips (uint8) of per, the (N, 4) samples of N chips."},
    {"vppm_demodulate", (PyCFunction)(void (*)(void))vppm_demodulate,
     METH_VARARGS | METH_KEYWORDS,
     "VPPM bits (uint8) of per, the (N, 4) samples of N chips, and the tie mask or None."},
    {"decode_words", (PyCFunction)(void (*)(void))decode_words, METH_VARARGS | METH_KEYWORDS,
     "(values[w], mask) of each width-chip word w of chips, MSB first: mask is status[w],\n"
     "status[2**width * neg + w] with the running neg that flips toggles, or None."},
    {"encode_words", (PyCFunction)(void (*)(void))encode_words, METH_VARARGS | METH_KEYWORDS,
     "table[values] flattened to 1-D in table's dtype; with flips, row len(flips) * neg +\n"
     "value, with the running neg that flips toggles."},
    {"float_reprs", (PyCFunction)(void (*)(void))float_reprs, METH_VARARGS | METH_KEYWORDS,
     "[repr(v) for v in values], values a list or tuple of floats."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_native",
    "Compiled codec kernels; the contract is owpan._kernels._pure's.", -1, methods,
};

/* Copy table, a new reference to an array from owpan._kernels._tables (or
   NULL, an error set), into dst.  The import fails, naming the table and
   k > 0, the argument that made it, unless the table has size bytes. */
static int copy_table(PyObject *table, const char *name, int k, void *dst, Py_ssize_t size)
{
    Py_buffer view;
    int rc = table ? PyObject_GetBuffer(table, &view, PyBUF_C_CONTIGUOUS) : -1;
    Py_XDECREF(table); /* view holds a reference of its own */
    if (rc)
        return -1;
    rc = view.len == size ? 0 : -1;
    if (rc == 0)
        memcpy(dst, view.buf, size);
    else if (k > 0)
        PyErr_Format(PyExc_ImportError, "owpan._kernels._tables.%s(%d) has %zd bytes, not %zd",
                     name, k, view.len, size);
    else
        PyErr_Format(PyExc_ImportError, "owpan._kernels._tables.%s has %zd bytes, not %zd",
                     name, view.len, size);
    PyBuffer_Release(&view);
    return rc;
}

/* The GF(16) tables, the RS maps and POW10 from their one definition, the
   arrays _pure computes with. */
static int load_tables(void)
{
    PyObject *t = PyImport_ImportModule("owpan._kernels._tables");
    if (t == NULL)
        return -1;
    int rc = copy_table(PyObject_GetAttrString(t, "_EXP"), "_EXP", 0, EXP, sizeof EXP) ||
             copy_table(PyObject_GetAttrString(t, "_MUL"), "_MUL", 0, MUL, sizeof MUL) ||
             copy_table(PyObject_GetAttrString(t, "_INV"), "_INV", 0, INV, sizeof INV) ||
             copy_table(PyObject_CallMethod(t, "_pow10_table", NULL), "_pow10_table()", 0,
                        POW10, sizeof POW10);
    /* PARITY[k] uses its first 16 * k entries */
    for (int k = 1; k < N && !rc; k++)
        rc = copy_table(PyObject_CallMethod(t, "_parity_map", "i", k), "_parity_map", k,
                        PARITY[k], 16 * k * sizeof(uint64_t)) ||
             copy_table(PyObject_CallMethod(t, "_syndrome_map", "i", k), "_syndrome_map", k,
                        SYNDROME[k], sizeof SYNDROME[k]);
    Py_DECREF(t);
    return rc ? -1 : 0;
}

PyMODINIT_FUNC PyInit__native(void)
{
    if (load_tables())
        return NULL;
    PyObject *np = PyImport_ImportModule("numpy");
    if (np == NULL)
        return NULL;
    PyObject *dtype = PyObject_GetAttrString(np, "dtype");
    np_empty = PyObject_GetAttrString(np, "empty");
    np_ascontiguousarray = PyObject_GetAttrString(np, "ascontiguousarray");
    np_ndarray = PyObject_GetAttrString(np, "ndarray");
    Py_DECREF(np);
    if (dtype == NULL || !np_empty || !np_ascontiguousarray || !np_ndarray)
        return NULL;
    dtype_u8 = PyObject_CallFunction(dtype, "s", "u1");
    dtype_bool = PyObject_CallFunction(dtype, "s", "?");
    dtype_f4 = PyObject_CallFunction(dtype, "s", "f4");
    dtype_f8 = PyObject_CallFunction(dtype, "s", "f8");
    Py_DECREF(dtype);
    if (dtype_u8 == NULL || dtype_bool == NULL || dtype_f4 == NULL || dtype_f8 == NULL)
        return NULL;
    PyObject *m = PyModule_Create(&module);
    if (m && PyModule_AddStringConstant(m, "BACKEND", "native")) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
