/* Native DBM kernel for the `native` zone backend.
 *
 * Scalar and batched difference-bound-matrix operations, bit-identical
 * to the reference implementation in repro/zones/dbm.py (the
 * differential lockstep tests in tests/test_zones_backends.py drive
 * both in parallel).  The Python-side wrapper
 * (repro/zones/dbm_native.py) owns the `_empty` / `_frozen`
 * bookkeeping; this module only mutates the raw int64
 * matrix, which it reaches through the buffer protocol so the wrapper
 * can keep using a plain numpy array (and everything downstream —
 * the intern table, the monitor's `np.stack` batches — keeps working
 * unchanged).  It also holds the passed-list subsumption scans
 * (`store_covers` / `store_insert`) that `NumpyPassedBucket` in
 * repro/zones/store.py runs over its `(capacity, n*n)` row stack.
 *
 * Encoding contract (repro/zones/bounds.py): a bound is
 * `(value << 1) | weak`, INF is `1 << 62`, `bound_add` adds values,
 * ANDs weakness, and is absorbed by INF.  int64 holds every finite
 * bound the framework produces; INF is tested for before any shift or
 * add, exactly like the scalar helpers.
 *
 * Loop orders replicate the reference backend statement for statement
 * (including the in-place read/write interleavings of `close`,
 * `constrain` and `reset`) so the outputs agree bit for bit, not just
 * semantically.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <stdint.h>
#include <string.h>

static const int64_t K_INF = ((int64_t)1) << 62;
#define K_LE_ZERO 1

/* Matrices in this framework stay far below this (well under 16
 * clocks); a hard cap lets every kernel use stack scratch instead of
 * malloc.  The Python wrapper re-raises this as a clean ValueError. */
#define MAX_CLOCKS 64
#define MAX_OPS 256

/* Bumped whenever the Python-facing API grows; repro/zones/dbm_native.py
 * refuses (ImportError) an in-place build older than it expects.
 * 2: store_covers / store_insert. */
#define KERNEL_VERSION 2

static inline int64_t
badd(int64_t a, int64_t b)
{
    if (a == K_INF || b == K_INF)
        return K_INF;
    return (((a >> 1) + (b >> 1)) << 1) | (a & b & 1);
}

/* ------------------------------------------------------------------ */
/* Core kernels on a raw row-major n x n int64 matrix                  */
/* ------------------------------------------------------------------ */

static void
k_close(int64_t *m, int n)
{
    for (int k = 0; k < n; k++) {
        const int64_t *row_k = m + (size_t)k * n;
        for (int i = 0; i < n; i++) {
            int64_t d_ik = m[(size_t)i * n + k];
            if (d_ik == K_INF)
                continue;
            int64_t *row_i = m + (size_t)i * n;
            for (int j = 0; j < n; j++) {
                int64_t d_kj = row_k[j];
                if (d_kj == K_INF)
                    continue;
                int64_t via = (((d_ik >> 1) + (d_kj >> 1)) << 1)
                              | (d_ik & d_kj & 1);
                if (via < row_i[j])
                    row_i[j] = via;
            }
        }
    }
}

static void
k_close_clock(int64_t *m, int n, int x)
{
    const int64_t *row_x = m + (size_t)x * n;
    for (int i = 0; i < n; i++) {
        int64_t d_ix = m[(size_t)i * n + x];
        if (d_ix == K_INF)
            continue;
        int64_t *row_i = m + (size_t)i * n;
        for (int j = 0; j < n; j++) {
            int64_t d_xj = row_x[j];
            if (d_xj == K_INF)
                continue;
            int64_t via = (((d_ix >> 1) + (d_xj >> 1)) << 1)
                          | (d_ix & d_xj & 1);
            if (via < row_i[j])
                row_i[j] = via;
        }
    }
}

static int
k_is_empty(const int64_t *m, int n)
{
    for (int i = 0; i < n; i++)
        if (m[(size_t)i * n + i] < K_LE_ZERO)
            return 1;
    return 0;
}

/* Returns 1 when the constraint contradicts the zone (the diagonal
 * witness is written and the caller must set the sticky empty flag),
 * 0 otherwise. */
static int
k_constrain(int64_t *m, int n, int i, int j, int64_t bound)
{
    int64_t cross = badd(m[(size_t)j * n + i], bound);
    if (cross < K_LE_ZERO) {
        m[(size_t)i * n + i] = cross;
        return 1;
    }
    if (bound < m[(size_t)i * n + j]) {
        m[(size_t)i * n + j] = bound;
        /* Re-close only via the two touched clocks. */
        const int64_t *row_j = m + (size_t)j * n;
        for (int a = 0; a < n; a++) {
            int64_t d_ai = m[(size_t)a * n + i];
            if (d_ai == K_INF)
                continue;
            int64_t base = badd(d_ai, bound);
            int64_t *row_a = m + (size_t)a * n;
            for (int b = 0; b < n; b++) {
                int64_t d_jb = row_j[b];
                if (d_jb == K_INF)
                    continue;
                int64_t via = badd(base, d_jb);
                if (via < row_a[b])
                    row_a[b] = via;
            }
        }
    }
    return 0;
}

static void
k_up(int64_t *m, int n)
{
    for (int i = 1; i < n; i++)
        m[(size_t)i * n] = K_INF;
}

static void
k_reset(int64_t *m, int n, int x, int64_t value)
{
    int64_t pos = (value << 1) | 1;
    int64_t neg = ((-value) << 1) | 1;
    for (int j = 0; j < n; j++) {
        m[(size_t)x * n + j] = badd(pos, m[j]);
        m[(size_t)j * n + x] = badd(m[(size_t)j * n], neg);
    }
    m[(size_t)x * n + x] = K_LE_ZERO;
}

static void
k_assign(int64_t *m, int n, int x, int y)
{
    if (x == y)
        return;
    for (int j = 0; j < n; j++) {
        if (j != x) {
            m[(size_t)x * n + j] = m[(size_t)y * n + j];
            m[(size_t)j * n + x] = m[(size_t)j * n + y];
        }
    }
    m[(size_t)x * n + x] = K_LE_ZERO;
}

static void
k_free(int64_t *m, int n, int x)
{
    for (int j = 0; j < n; j++) {
        if (j != x) {
            m[(size_t)x * n + j] = K_INF;
            m[(size_t)j * n + x] = m[(size_t)j * n];
        }
    }
}

static void
k_free_many(int64_t *m, int n, const int *clocks, int nc)
{
    for (int c = 0; c < nc; c++)
        k_free(m, n, clocks[c]);
}

static int
k_includes(const int64_t *a, const int64_t *b, int n)
{
    size_t total = (size_t)n * n;
    for (size_t k = 0; k < total; k++)
        if (a[k] < b[k])
            return 0;
    return 1;
}

/* Extra_M widening pass.  Returns 1 when any entry changed (the
 * caller re-closes), 0 otherwise. */
static int
k_extra_max(int64_t *m, int n, const int64_t *mx)
{
    int changed = 0;
    for (int i = 0; i < n; i++) {
        int64_t m_i = mx[i];
        int64_t *row = m + (size_t)i * n;
        for (int j = 0; j < n; j++) {
            if (i == j)
                continue;
            int64_t b = row[j];
            if (b == K_INF)
                continue;
            int64_t value = b >> 1;
            if (value > m_i) {
                row[j] = K_INF;
                changed = 1;
            }
            else if (value < -mx[j]) {
                row[j] = (-mx[j]) << 1; /* encode(-mx[j], strict) */
                changed = 1;
            }
        }
    }
    return changed;
}

/* Extra+_LU widening pass on the pre-pass row-0 snapshot.  Returns 1
 * when any entry changed. */
static int
k_extra_lu(int64_t *m, int n, const int64_t *low, const int64_t *up)
{
    int64_t row0[MAX_CLOCKS];
    memcpy(row0, m, (size_t)n * sizeof(int64_t));
    int changed = 0;
    for (int i = 1; i < n; i++) {
        int64_t l_i = low[i];
        int64_t *row = m + (size_t)i * n;
        int row_dead = row0[i] != K_INF && -(row0[i] >> 1) > l_i;
        for (int j = 0; j < n; j++) {
            if (i == j)
                continue;
            int64_t b = row[j];
            if (b == K_INF)
                continue;
            if (row_dead || (b >> 1) > l_i
                || (row0[j] != K_INF && -(row0[j] >> 1) > up[j])) {
                row[j] = K_INF;
                changed = 1;
            }
        }
    }
    for (int j = 1; j < n; j++) {
        int64_t b = row0[j];
        if (b != K_INF && -(b >> 1) > up[j]) {
            m[j] = (-up[j]) << 1; /* encode(-up[j], strict) */
            changed = 1;
        }
    }
    return changed;
}

/* ------------------------------------------------------------------ */
/* Buffer/argument helpers                                             */
/* ------------------------------------------------------------------ */

#define RW_FLAGS (PyBUF_C_CONTIGUOUS | PyBUF_WRITABLE)
#define RO_FLAGS PyBUF_C_CONTIGUOUS

/* True for a struct-module format naming a native 8-byte signed
 * integer ("l"/"q", optionally with a native byte-order prefix). */
static int
is_int64_format(const char *fmt)
{
    if (fmt == NULL)
        return 0;
#if PY_LITTLE_ENDIAN
    if (*fmt == '@' || *fmt == '=' || *fmt == '<')
#else
    if (*fmt == '@' || *fmt == '=' || *fmt == '>' || *fmt == '!')
#endif
        fmt++;
    return (fmt[0] == 'l' || fmt[0] == 'q') && fmt[1] == '\0';
}

/* Acquire a C-contiguous int64 buffer; a non-contiguous or wrongly
 * typed object raises ValueError. */
static int
int64_acquire(PyObject *obj, Py_buffer *view, int flags)
{
    if (PyObject_GetBuffer(obj, view, flags | PyBUF_FORMAT) < 0) {
        if (PyErr_ExceptionMatches(PyExc_BufferError))
            PyErr_SetString(PyExc_ValueError,
                            "expected a C-contiguous int64 buffer");
        return -1;
    }
    if (view->itemsize != (Py_ssize_t)sizeof(int64_t)
        || !is_int64_format(view->format)) {
        PyBuffer_Release(view);
        PyErr_SetString(PyExc_ValueError,
                        "buffer must hold int64 items");
        return -1;
    }
    return 0;
}

static int
mat_acquire(PyObject *obj, Py_buffer *view, int flags,
            Py_ssize_t expect_items, int64_t **out)
{
    if (int64_acquire(obj, view, flags) < 0)
        return -1;
    if (view->len != expect_items * (Py_ssize_t)sizeof(int64_t)) {
        PyBuffer_Release(view);
        PyErr_SetString(PyExc_ValueError,
                        "matrix buffer has unexpected length");
        return -1;
    }
    *out = (int64_t *)view->buf;
    return 0;
}

/* Acquire a (rows, width) row stack holding at least `count` live rows
 * (`count < rows` when `need_room`: one free row to append into). */
static int
stack_acquire(PyObject *obj, Py_buffer *view, Py_ssize_t width,
              Py_ssize_t count, int need_room, int64_t **out)
{
    if (int64_acquire(obj, view, RW_FLAGS) < 0)
        return -1;
    if (view->ndim != 2 || view->shape[1] != width) {
        PyBuffer_Release(view);
        PyErr_SetString(PyExc_ValueError,
                        "row stack must be 2-D with n*n columns");
        return -1;
    }
    Py_ssize_t rows = view->shape[0];
    if (count < 0 || count > rows || (need_room && count == rows)) {
        PyBuffer_Release(view);
        PyErr_Format(PyExc_ValueError,
                     "count %zd out of range for a %zd-row stack%s",
                     count, rows, need_room ? " (no free row)" : "");
        return -1;
    }
    *out = (int64_t *)view->buf;
    return 0;
}

static int
check_n(int n)
{
    if (n < 1 || n > MAX_CLOCKS) {
        PyErr_Format(PyExc_ValueError,
                     "native kernel supports 1..%d clocks, got %d",
                     MAX_CLOCKS, n);
        return -1;
    }
    return 0;
}

/* Parse a sequence of per-clock ints into a stack array. */
static int
parse_vec(PyObject *seq, int n, int64_t *out, const char *what)
{
    PyObject *fast = PySequence_Fast(seq, "expected a sequence");
    if (fast == NULL)
        return -1;
    if (PySequence_Fast_GET_SIZE(fast) != n) {
        Py_DECREF(fast);
        PyErr_Format(PyExc_ValueError, "need one %s per clock", what);
        return -1;
    }
    for (int k = 0; k < n; k++) {
        int64_t v = PyLong_AsLongLong(PySequence_Fast_GET_ITEM(fast, k));
        if (v == -1 && PyErr_Occurred()) {
            Py_DECREF(fast);
            return -1;
        }
        out[k] = v;
    }
    Py_DECREF(fast);
    return 0;
}

typedef struct {
    int i;
    int j;
    int64_t bound;
} cop_t;

/* Parse a sequence of (i, j, bound) constraint triples. */
static int
parse_cops(PyObject *seq, int n, cop_t *out, int *count, const char *what)
{
    PyObject *fast = PySequence_Fast(seq, "expected a sequence of ops");
    if (fast == NULL)
        return -1;
    Py_ssize_t sz = PySequence_Fast_GET_SIZE(fast);
    if (sz > MAX_OPS) {
        Py_DECREF(fast);
        PyErr_Format(PyExc_ValueError, "too many %s ops (max %d)",
                     what, MAX_OPS);
        return -1;
    }
    for (Py_ssize_t k = 0; k < sz; k++) {
        PyObject *item = PySequence_Fast_GET_ITEM(fast, k);
        PyObject *ifast = PySequence_Fast(item, "op must be (i, j, bound)");
        if (ifast == NULL) {
            Py_DECREF(fast);
            return -1;
        }
        if (PySequence_Fast_GET_SIZE(ifast) != 3) {
            Py_DECREF(ifast);
            Py_DECREF(fast);
            PyErr_SetString(PyExc_ValueError, "op must be (i, j, bound)");
            return -1;
        }
        long i = PyLong_AsLong(PySequence_Fast_GET_ITEM(ifast, 0));
        long j = PyLong_AsLong(PySequence_Fast_GET_ITEM(ifast, 1));
        int64_t bound =
            PyLong_AsLongLong(PySequence_Fast_GET_ITEM(ifast, 2));
        Py_DECREF(ifast);
        if (PyErr_Occurred()) {
            Py_DECREF(fast);
            return -1;
        }
        if (i < 0 || i >= n || j < 0 || j >= n) {
            Py_DECREF(fast);
            PyErr_SetString(PyExc_ValueError, "op clock index out of range");
            return -1;
        }
        out[k].i = (int)i;
        out[k].j = (int)j;
        out[k].bound = bound;
    }
    *count = (int)sz;
    Py_DECREF(fast);
    return 0;
}

typedef struct {
    int kind; /* 0 = reset (x := value), 1 = copy (x := y) */
    int x;
    int64_t yv;
} zop_t;

/* Parse a sequence of (kind, x, value_or_y) zone-op triples. */
static int
parse_zops(PyObject *seq, int n, zop_t *out, int *count)
{
    PyObject *fast = PySequence_Fast(seq, "expected a sequence of zone ops");
    if (fast == NULL)
        return -1;
    Py_ssize_t sz = PySequence_Fast_GET_SIZE(fast);
    if (sz > MAX_OPS) {
        Py_DECREF(fast);
        PyErr_Format(PyExc_ValueError, "too many zone ops (max %d)",
                     MAX_OPS);
        return -1;
    }
    for (Py_ssize_t k = 0; k < sz; k++) {
        PyObject *item = PySequence_Fast_GET_ITEM(fast, k);
        PyObject *ifast =
            PySequence_Fast(item, "zone op must be (kind, x, value)");
        if (ifast == NULL) {
            Py_DECREF(fast);
            return -1;
        }
        if (PySequence_Fast_GET_SIZE(ifast) != 3) {
            Py_DECREF(ifast);
            Py_DECREF(fast);
            PyErr_SetString(PyExc_ValueError,
                            "zone op must be (kind, x, value)");
            return -1;
        }
        long kind = PyLong_AsLong(PySequence_Fast_GET_ITEM(ifast, 0));
        long x = PyLong_AsLong(PySequence_Fast_GET_ITEM(ifast, 1));
        int64_t yv = PyLong_AsLongLong(PySequence_Fast_GET_ITEM(ifast, 2));
        Py_DECREF(ifast);
        if (PyErr_Occurred()) {
            Py_DECREF(fast);
            return -1;
        }
        if ((kind != 0 && kind != 1) || x < 0 || x >= n
            || (kind == 1 && (yv < 0 || yv >= n))) {
            Py_DECREF(fast);
            PyErr_SetString(PyExc_ValueError, "zone op out of range");
            return -1;
        }
        out[k].kind = (int)kind;
        out[k].x = (int)x;
        out[k].yv = yv;
    }
    *count = (int)sz;
    Py_DECREF(fast);
    return 0;
}

/* Parse a sequence of clock indices. */
static int
parse_clocks(PyObject *seq, int n, int *out, int *count)
{
    PyObject *fast = PySequence_Fast(seq, "expected a sequence of clocks");
    if (fast == NULL)
        return -1;
    Py_ssize_t sz = PySequence_Fast_GET_SIZE(fast);
    if (sz > MAX_CLOCKS) {
        Py_DECREF(fast);
        PyErr_SetString(PyExc_ValueError, "too many clocks to free");
        return -1;
    }
    for (Py_ssize_t k = 0; k < sz; k++) {
        long x = PyLong_AsLong(PySequence_Fast_GET_ITEM(fast, k));
        if (x == -1 && PyErr_Occurred()) {
            Py_DECREF(fast);
            return -1;
        }
        if (x < 0 || x >= n) {
            Py_DECREF(fast);
            PyErr_SetString(PyExc_ValueError, "clock index out of range");
            return -1;
        }
        out[k] = (int)x;
    }
    *count = (int)sz;
    Py_DECREF(fast);
    return 0;
}

/* ------------------------------------------------------------------ */
/* Python-facing scalar operations                                     */
/* ------------------------------------------------------------------ */

static PyObject *
py_close(PyObject *self, PyObject *args)
{
    PyObject *mobj;
    int n;
    if (!PyArg_ParseTuple(args, "Oi", &mobj, &n) || check_n(n) < 0)
        return NULL;
    Py_buffer view;
    int64_t *m;
    if (mat_acquire(mobj, &view, RW_FLAGS, (Py_ssize_t)n * n, &m) < 0)
        return NULL;
    k_close(m, n);
    PyBuffer_Release(&view);
    Py_RETURN_NONE;
}

static PyObject *
py_close_clock(PyObject *self, PyObject *args)
{
    PyObject *mobj;
    int n, x;
    if (!PyArg_ParseTuple(args, "Oii", &mobj, &n, &x) || check_n(n) < 0)
        return NULL;
    if (x < 0 || x >= n) {
        PyErr_SetString(PyExc_ValueError, "clock index out of range");
        return NULL;
    }
    Py_buffer view;
    int64_t *m;
    if (mat_acquire(mobj, &view, RW_FLAGS, (Py_ssize_t)n * n, &m) < 0)
        return NULL;
    k_close_clock(m, n, x);
    PyBuffer_Release(&view);
    Py_RETURN_NONE;
}

static PyObject *
py_is_empty(PyObject *self, PyObject *args)
{
    PyObject *mobj;
    int n;
    if (!PyArg_ParseTuple(args, "Oi", &mobj, &n) || check_n(n) < 0)
        return NULL;
    Py_buffer view;
    int64_t *m;
    if (mat_acquire(mobj, &view, RO_FLAGS, (Py_ssize_t)n * n, &m) < 0)
        return NULL;
    int empty = k_is_empty(m, n);
    PyBuffer_Release(&view);
    return PyBool_FromLong(empty);
}

static PyObject *
py_constrain(PyObject *self, PyObject *args)
{
    PyObject *mobj;
    int n, i, j;
    long long bound;
    if (!PyArg_ParseTuple(args, "OiiiL", &mobj, &n, &i, &j, &bound)
        || check_n(n) < 0)
        return NULL;
    if (i < 0 || i >= n || j < 0 || j >= n) {
        PyErr_SetString(PyExc_ValueError, "clock index out of range");
        return NULL;
    }
    Py_buffer view;
    int64_t *m;
    if (mat_acquire(mobj, &view, RW_FLAGS, (Py_ssize_t)n * n, &m) < 0)
        return NULL;
    int contradiction = k_constrain(m, n, i, j, (int64_t)bound);
    PyBuffer_Release(&view);
    return PyLong_FromLong(contradiction);
}

static PyObject *
py_constrain_all(PyObject *self, PyObject *args)
{
    PyObject *mobj, *ops;
    int n;
    if (!PyArg_ParseTuple(args, "OiO", &mobj, &n, &ops) || check_n(n) < 0)
        return NULL;
    cop_t cops[MAX_OPS];
    int nops;
    if (parse_cops(ops, n, cops, &nops, "constraint") < 0)
        return NULL;
    Py_buffer view;
    int64_t *m;
    if (mat_acquire(mobj, &view, RW_FLAGS, (Py_ssize_t)n * n, &m) < 0)
        return NULL;
    int alive = 1;
    for (int k = 0; k < nops; k++) {
        if (k_constrain(m, n, cops[k].i, cops[k].j, cops[k].bound)) {
            alive = 0;
            break;
        }
    }
    PyBuffer_Release(&view);
    return PyLong_FromLong(alive);
}

static PyObject *
py_up(PyObject *self, PyObject *args)
{
    PyObject *mobj;
    int n;
    if (!PyArg_ParseTuple(args, "Oi", &mobj, &n) || check_n(n) < 0)
        return NULL;
    Py_buffer view;
    int64_t *m;
    if (mat_acquire(mobj, &view, RW_FLAGS, (Py_ssize_t)n * n, &m) < 0)
        return NULL;
    k_up(m, n);
    PyBuffer_Release(&view);
    Py_RETURN_NONE;
}

static PyObject *
py_reset(PyObject *self, PyObject *args)
{
    PyObject *mobj;
    int n, x;
    long long value;
    if (!PyArg_ParseTuple(args, "OiiL", &mobj, &n, &x, &value)
        || check_n(n) < 0)
        return NULL;
    if (x < 0 || x >= n) {
        PyErr_SetString(PyExc_ValueError, "clock index out of range");
        return NULL;
    }
    Py_buffer view;
    int64_t *m;
    if (mat_acquire(mobj, &view, RW_FLAGS, (Py_ssize_t)n * n, &m) < 0)
        return NULL;
    k_reset(m, n, x, (int64_t)value);
    PyBuffer_Release(&view);
    Py_RETURN_NONE;
}

static PyObject *
py_assign(PyObject *self, PyObject *args)
{
    PyObject *mobj;
    int n, x, y;
    if (!PyArg_ParseTuple(args, "Oiii", &mobj, &n, &x, &y) || check_n(n) < 0)
        return NULL;
    if (x < 0 || x >= n || y < 0 || y >= n) {
        PyErr_SetString(PyExc_ValueError, "clock index out of range");
        return NULL;
    }
    Py_buffer view;
    int64_t *m;
    if (mat_acquire(mobj, &view, RW_FLAGS, (Py_ssize_t)n * n, &m) < 0)
        return NULL;
    k_assign(m, n, x, y);
    PyBuffer_Release(&view);
    Py_RETURN_NONE;
}

static PyObject *
py_free_clock(PyObject *self, PyObject *args)
{
    PyObject *mobj;
    int n, x;
    if (!PyArg_ParseTuple(args, "Oii", &mobj, &n, &x) || check_n(n) < 0)
        return NULL;
    if (x < 0 || x >= n) {
        PyErr_SetString(PyExc_ValueError, "clock index out of range");
        return NULL;
    }
    Py_buffer view;
    int64_t *m;
    if (mat_acquire(mobj, &view, RW_FLAGS, (Py_ssize_t)n * n, &m) < 0)
        return NULL;
    k_free(m, n, x);
    PyBuffer_Release(&view);
    Py_RETURN_NONE;
}

static PyObject *
py_free_many(PyObject *self, PyObject *args)
{
    PyObject *mobj, *clocks;
    int n;
    if (!PyArg_ParseTuple(args, "OiO", &mobj, &n, &clocks) || check_n(n) < 0)
        return NULL;
    int idx[MAX_CLOCKS];
    int nc;
    if (parse_clocks(clocks, n, idx, &nc) < 0)
        return NULL;
    Py_buffer view;
    int64_t *m;
    if (mat_acquire(mobj, &view, RW_FLAGS, (Py_ssize_t)n * n, &m) < 0)
        return NULL;
    k_free_many(m, n, idx, nc);
    PyBuffer_Release(&view);
    Py_RETURN_NONE;
}

static PyObject *
py_includes(PyObject *self, PyObject *args)
{
    PyObject *aobj, *bobj;
    int n;
    if (!PyArg_ParseTuple(args, "OOi", &aobj, &bobj, &n) || check_n(n) < 0)
        return NULL;
    Py_buffer va, vb;
    int64_t *a, *b;
    if (mat_acquire(aobj, &va, RO_FLAGS, (Py_ssize_t)n * n, &a) < 0)
        return NULL;
    if (mat_acquire(bobj, &vb, RO_FLAGS, (Py_ssize_t)n * n, &b) < 0) {
        PyBuffer_Release(&va);
        return NULL;
    }
    int inc = k_includes(a, b, n);
    PyBuffer_Release(&vb);
    PyBuffer_Release(&va);
    return PyBool_FromLong(inc);
}

static PyObject *
py_extrapolate_max(PyObject *self, PyObject *args)
{
    PyObject *mobj, *ceil_obj;
    int n;
    if (!PyArg_ParseTuple(args, "OiO", &mobj, &n, &ceil_obj)
        || check_n(n) < 0)
        return NULL;
    int64_t mx[MAX_CLOCKS];
    if (parse_vec(ceil_obj, n, mx, "max constant") < 0)
        return NULL;
    Py_buffer view;
    int64_t *m;
    if (mat_acquire(mobj, &view, RW_FLAGS, (Py_ssize_t)n * n, &m) < 0)
        return NULL;
    int changed = k_extra_max(m, n, mx);
    if (changed)
        k_close(m, n);
    PyBuffer_Release(&view);
    return PyLong_FromLong(changed);
}

static PyObject *
py_extrapolate_lu(PyObject *self, PyObject *args)
{
    PyObject *mobj, *low_obj, *up_obj;
    int n;
    if (!PyArg_ParseTuple(args, "OiOO", &mobj, &n, &low_obj, &up_obj)
        || check_n(n) < 0)
        return NULL;
    int64_t low[MAX_CLOCKS], up[MAX_CLOCKS];
    if (parse_vec(low_obj, n, low, "lower bound") < 0
        || parse_vec(up_obj, n, up, "upper bound") < 0)
        return NULL;
    Py_buffer view;
    int64_t *m;
    if (mat_acquire(mobj, &view, RW_FLAGS, (Py_ssize_t)n * n, &m) < 0)
        return NULL;
    int changed = k_extra_lu(m, n, low, up);
    if (changed)
        k_close(m, n);
    PyBuffer_Release(&view);
    return PyLong_FromLong(changed);
}

/* ------------------------------------------------------------------ */
/* Batched wave kernel: one successor plan over a (B, n, n) stack      */
/* ------------------------------------------------------------------ */

static PyObject *
py_run_plan(PyObject *self, PyObject *args)
{
    PyObject *work_obj, *alive_obj;
    PyObject *guard_obj, *zops_obj, *free_obj, *inv_obj;
    PyObject *ceil_obj, *lu_obj;
    int n, has_error, delay;
    Py_ssize_t batch;
    if (!PyArg_ParseTuple(args, "OOniOpOOOpOO", &work_obj, &alive_obj,
                          &batch, &n, &guard_obj, &has_error, &zops_obj,
                          &free_obj, &inv_obj, &delay, &ceil_obj, &lu_obj)
        || check_n(n) < 0)
        return NULL;

    cop_t guards[MAX_OPS], invs[MAX_OPS];
    zop_t zops[MAX_OPS];
    int free_idx[MAX_CLOCKS];
    int n_guards, n_invs, n_zops, n_free;
    if (parse_cops(guard_obj, n, guards, &n_guards, "guard") < 0
        || parse_zops(zops_obj, n, zops, &n_zops) < 0
        || parse_clocks(free_obj, n, free_idx, &n_free) < 0
        || parse_cops(inv_obj, n, invs, &n_invs, "invariant") < 0)
        return NULL;

    int use_lu = lu_obj != Py_None;
    int64_t mx[MAX_CLOCKS], low[MAX_CLOCKS], up[MAX_CLOCKS];
    if (use_lu) {
        PyObject *low_obj = PySequence_GetItem(lu_obj, 0);
        PyObject *up_obj = low_obj ? PySequence_GetItem(lu_obj, 1) : NULL;
        int bad = low_obj == NULL || up_obj == NULL
                  || parse_vec(low_obj, n, low, "lower bound") < 0
                  || parse_vec(up_obj, n, up, "upper bound") < 0;
        Py_XDECREF(low_obj);
        Py_XDECREF(up_obj);
        if (bad)
            return NULL;
    }
    else {
        if (parse_vec(ceil_obj, n, mx, "max constant") < 0)
            return NULL;
    }

    Py_buffer work_view, alive_view;
    int64_t *work;
    if (mat_acquire(work_obj, &work_view, RW_FLAGS, batch * n * n,
                    &work) < 0)
        return NULL;
    if (PyObject_GetBuffer(alive_obj, &alive_view, RW_FLAGS) < 0) {
        PyBuffer_Release(&work_view);
        return NULL;
    }
    if (alive_view.itemsize != 1 || alive_view.len != batch) {
        PyBuffer_Release(&alive_view);
        PyBuffer_Release(&work_view);
        PyErr_SetString(PyExc_ValueError,
                        "alive mask must be one byte per batch element");
        return NULL;
    }
    unsigned char *alive = (unsigned char *)alive_view.buf;

    Py_BEGIN_ALLOW_THREADS
    for (Py_ssize_t bdx = 0; bdx < batch; bdx++) {
        if (!alive[bdx])
            continue;
        int64_t *m = work + (size_t)bdx * n * n;
        int dead = 0;
        for (int g = 0; g < n_guards; g++) {
            if (k_constrain(m, n, guards[g].i, guards[g].j,
                            guards[g].bound)) {
                dead = 1;
                break;
            }
        }
        if (dead) {
            alive[bdx] = 0;
            continue;
        }
        if (has_error)
            continue; /* error plans stop at the guard */
        for (int z = 0; z < n_zops; z++) {
            if (zops[z].kind == 0)
                k_reset(m, n, zops[z].x, zops[z].yv);
            else
                k_assign(m, n, zops[z].x, (int)zops[z].yv);
        }
        if (n_free)
            k_free_many(m, n, free_idx, n_free);
        for (int v = 0; v < n_invs; v++) {
            if (k_constrain(m, n, invs[v].i, invs[v].j, invs[v].bound)) {
                dead = 1;
                break;
            }
        }
        if (dead) {
            alive[bdx] = 0;
            continue;
        }
        if (delay) {
            k_up(m, n);
            for (int v = 0; v < n_invs; v++) {
                if (k_constrain(m, n, invs[v].i, invs[v].j,
                                invs[v].bound)) {
                    dead = 1;
                    break;
                }
            }
            if (dead) {
                alive[bdx] = 0;
                continue;
            }
        }
        int changed = use_lu ? k_extra_lu(m, n, low, up)
                             : k_extra_max(m, n, mx);
        if (changed)
            k_close(m, n);
    }
    Py_END_ALLOW_THREADS

    PyBuffer_Release(&alive_view);
    PyBuffer_Release(&work_view);
    Py_RETURN_NONE;
}

/* ------------------------------------------------------------------ */
/* Passed-list subsumption scans over a (capacity, n*n) row stack      */
/* ------------------------------------------------------------------ */

/* True when row `a` dominates row `b` elementwise (zone b within a). */
static inline int
row_dominates(const int64_t *a, const int64_t *b, Py_ssize_t width)
{
    for (Py_ssize_t k = 0; k < width; k++)
        if (a[k] < b[k])
            return 0;
    return 1;
}

static PyObject *
py_store_covers(PyObject *self, PyObject *args)
{
    PyObject *stack_obj, *row_obj;
    Py_ssize_t count;
    int n;
    if (!PyArg_ParseTuple(args, "OnOi", &stack_obj, &count, &row_obj, &n)
        || check_n(n) < 0)
        return NULL;
    Py_ssize_t width = (Py_ssize_t)n * n;
    Py_buffer row_view, stack_view;
    int64_t *row, *stack;
    if (mat_acquire(row_obj, &row_view, RO_FLAGS, width, &row) < 0)
        return NULL;
    if (stack_acquire(stack_obj, &stack_view, width, count, 0,
                      &stack) < 0) {
        PyBuffer_Release(&row_view);
        return NULL;
    }
    int covered = 0;
    for (Py_ssize_t r = 0; r < count && !covered; r++)
        covered = row_dominates(stack + r * width, row, width);
    PyBuffer_Release(&stack_view);
    PyBuffer_Release(&row_view);
    return PyBool_FromLong(covered);
}

static PyObject *
py_store_insert(PyObject *self, PyObject *args)
{
    PyObject *stack_obj, *row_obj;
    Py_ssize_t count;
    int n;
    if (!PyArg_ParseTuple(args, "OnOi", &stack_obj, &count, &row_obj, &n)
        || check_n(n) < 0)
        return NULL;
    Py_ssize_t width = (Py_ssize_t)n * n;
    Py_buffer row_view, stack_view;
    int64_t *row, *stack;
    if (mat_acquire(row_obj, &row_view, RO_FLAGS, width, &row) < 0)
        return NULL;
    if (stack_acquire(stack_obj, &stack_view, width, count, 1,
                      &stack) < 0) {
        PyBuffer_Release(&row_view);
        return NULL;
    }
    /* The candidate may alias a stack row; compaction must not
     * clobber it before it is appended. */
    int64_t cand[MAX_CLOCKS * MAX_CLOCKS];
    memcpy(cand, row, (size_t)width * sizeof(int64_t));
    PyBuffer_Release(&row_view);

    /* Collect the evicted positions before moving anything, so an
     * allocation failure leaves the stack untouched. */
    PyObject *evicted = PyList_New(0);
    if (evicted == NULL) {
        PyBuffer_Release(&stack_view);
        return NULL;
    }
    for (Py_ssize_t r = 0; r < count; r++) {
        if (!row_dominates(cand, stack + r * width, width))
            continue;
        PyObject *pos = PyLong_FromSsize_t(r);
        if (pos == NULL || PyList_Append(evicted, pos) < 0) {
            Py_XDECREF(pos);
            Py_DECREF(evicted);
            PyBuffer_Release(&stack_view);
            return NULL;
        }
        Py_DECREF(pos);
    }
    Py_ssize_t kept = count;
    if (PyList_GET_SIZE(evicted)) {
        kept = 0;
        for (Py_ssize_t r = 0; r < count; r++) {
            int64_t *stored = stack + r * width;
            if (row_dominates(cand, stored, width))
                continue;
            if (kept != r)
                memcpy(stack + kept * width, stored,
                       (size_t)width * sizeof(int64_t));
            kept++;
        }
    }
    memcpy(stack + kept * width, cand, (size_t)width * sizeof(int64_t));
    PyBuffer_Release(&stack_view);
    return evicted;
}

/* ------------------------------------------------------------------ */

static PyMethodDef kernel_methods[] = {
    {"close", py_close, METH_VARARGS,
     "close(m, n): Floyd-Warshall all-pairs tightening in place."},
    {"close_clock", py_close_clock, METH_VARARGS,
     "close_clock(m, n, x): O(n^2) re-closure via clock x."},
    {"is_empty", py_is_empty, METH_VARARGS,
     "is_empty(m, n) -> bool: negative-diagonal scan."},
    {"constrain", py_constrain, METH_VARARGS,
     "constrain(m, n, i, j, bound) -> int: 1 when the constraint "
     "contradicts the zone (diagonal witness written)."},
    {"constrain_all", py_constrain_all, METH_VARARGS,
     "constrain_all(m, n, ops) -> int: apply (i, j, bound) triples "
     "with early exit; 1 when still non-empty."},
    {"up", py_up, METH_VARARGS,
     "up(m, n): delay operator (drop upper bounds)."},
    {"reset", py_reset, METH_VARARGS,
     "reset(m, n, x, value): clock assignment x := value."},
    {"assign", py_assign, METH_VARARGS,
     "assign(m, n, x, y): clock copy x := y."},
    {"free_clock", py_free_clock, METH_VARARGS,
     "free_clock(m, n, x): drop all constraints on clock x."},
    {"free_many", py_free_many, METH_VARARGS,
     "free_many(m, n, clocks): sequential frees of several clocks."},
    {"includes", py_includes, METH_VARARGS,
     "includes(a, b, n) -> bool: zone inclusion b within a."},
    {"extrapolate_max", py_extrapolate_max, METH_VARARGS,
     "extrapolate_max(m, n, ceilings) -> int: Extra_M widening + "
     "closure when changed; returns changed."},
    {"extrapolate_lu", py_extrapolate_lu, METH_VARARGS,
     "extrapolate_lu(m, n, lower, upper) -> int: Extra+_LU widening "
     "+ closure when changed; returns changed."},
    {"store_covers", py_store_covers, METH_VARARGS,
     "store_covers(stack, count, row, n) -> bool: some of the first "
     "count stack rows dominates row elementwise (early exit)."},
    {"store_insert", py_store_insert, METH_VARARGS,
     "store_insert(stack, count, row, n) -> list: compact away the "
     "rows that row dominates, append row, return the evicted "
     "positions in ascending order (requires count < stack rows)."},
    {"run_plan", py_run_plan, METH_VARARGS,
     "run_plan(work, alive, B, n, guard_ops, has_error, zone_ops, "
     "free_clocks, invariant_ops, delay, ceilings, lu): full batched "
     "successor pipeline with per-element early exit."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT,
    "repro.zones._dbmkernel",
    "Native DBM kernels (see repro/zones/dbm_native.py).",
    -1,
    kernel_methods,
};

PyMODINIT_FUNC
PyInit__dbmkernel(void)
{
    PyObject *mod = PyModule_Create(&kernel_module);
    if (mod == NULL)
        return NULL;
    if (PyModule_AddIntConstant(mod, "MAX_CLOCKS", MAX_CLOCKS) < 0
        || PyModule_AddIntConstant(mod, "KERNEL_VERSION", KERNEL_VERSION) < 0) {
        Py_DECREF(mod);
        return NULL;
    }
    return mod;
}
