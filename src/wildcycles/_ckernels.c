/* The compiled kernel lane, in C against the CPython API: the transition
 * table, the functional-graph walk and the two curve enumerations.
 *
 * grid_image keeps the contract of the pure kernel in _kernels_py and
 * writes the same table into the caller's array('I') of 32-bit words, but
 * by a plain evaluation per state: for each row of the higher variables it
 * takes one product per term, then a dot product with per-term power
 * tables of x_0, reduced mod p once per state by one Barrett step, a
 * product in unsigned __int128 (a GCC and Clang type, which the build
 * needs) and no division. Every index p^m - 1 fits a word, so with one
 * component or more p <= 2^32, and every product of two residues fits 64
 * bits. No Python object is made per state. poly.grid_table checks the
 * budget, the ring and the index bound and reduces the exponents and
 * coefficients; this side only refuses what would make it read or write
 * outside its buffers or overflow a word, with TypeError or ValueError,
 * before it writes.
 *
 * functional_graph_decompose keeps the contract of the pure kernel too and
 * returns the same cycles and longest tail. It reads the table in place
 * through the buffer protocol, after one pass that raises IndexError for a
 * successor outside 0..n-1, and builds no Python object per state: only
 * the periodic states become ints, once the buffer is released.
 *
 * curve_affine_count still compares every pair (x, y) of F_p^2: one table
 * of the squares y^2 mod p, then per x one target -(a x^3 + b x) mod p,
 * counted over the table by a loop with no branch and no division, which
 * the compiler vectorises. curve_slice_counts is the pure kernel's
 * histogram over half of F_p. Both take p only up to 0x10FFFF, the bound
 * that curves.check_enumeration_budget puts on both lanes, so no product
 * leaves 64 bits. curve_is_singular is the pure function, which module
 * init takes from wildcycles._kernels_py: it looks at two points at most.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <string.h>

typedef unsigned long long u64;

/* Entries of the power tables of x_0 that one block of states uses. */
#define BLOCK_ENTRIES 16384

/* The buffer of a contiguous array of format 'I'; TypeError for anything
 * else. */
static int
get_words(PyObject *obj, Py_buffer *view, const char *name)
{
    if (PyObject_GetBuffer(obj, view, PyBUF_FORMAT | PyBUF_ND) < 0) {
        if (PyErr_ExceptionMatches(PyExc_BufferError)) {
            PyErr_Clear();
            PyErr_Format(PyExc_TypeError, "%s must be a contiguous array", name);
        }
        return -1;
    }
    const char *format = view->format == NULL ? "B" : view->format;
    if (view->ndim != 1 || strcmp(format, "I") != 0 || view->itemsize != (Py_ssize_t)sizeof(unsigned int)) {
        PyErr_Format(PyExc_TypeError, "%s must be a one-dimensional array of format 'I', not format '%s'", name, format);
        PyBuffer_Release(view);
        return -1;
    }
    return 0;
}

PyDoc_STRVAR(decompose_doc,
"functional_graph_decompose(nxt) -> (cycles, max_tail)\n\n"
"The cycles of the self-map s -> nxt[s] of range(len(nxt)), each a list of\n"
"states from its least one, sorted by that state, and the largest number of\n"
"steps from any state to its cycle. nxt is an array of format 'I'.");

static PyObject *
functional_graph_decompose(PyObject *Py_UNUSED(module), PyObject *arg)
{
    Py_buffer view;
    if (get_words(arg, &view, "nxt") < 0)
        return NULL;
    const unsigned int *nxt = view.buf;
    Py_ssize_t n = view.shape[0];
    for (Py_ssize_t i = 0; i < n; i++) {
        if (nxt[i] >= (u64)n) {
            PyErr_Format(PyExc_IndexError, "successor %u of state %zd is outside 0..%zd", nxt[i], i, n - 1);
            PyBuffer_Release(&view);
            return NULL;
        }
    }
    /* dist (-1 unvisited, -2 on the current path), then the path */
    Py_ssize_t *dist = PyMem_New(Py_ssize_t, (size_t)(2 * n));
    if (dist == NULL) {
        PyBuffer_Release(&view);
        return PyErr_NoMemory();
    }
    Py_ssize_t *path = dist + n;
    for (Py_ssize_t i = 0; i < n; i++)
        dist[i] = -1;
    /* Each unvisited start walks forward, marking and pushing every state,
     * until it meets -2 (it closed a new cycle) or some d >= 0 (it joined
     * a known tree), then numbers its path backward from there; the start
     * ends with the largest number of its walk. Only unvisited states are
     * pushed, so the path holds at most n of them. */
    Py_ssize_t max_tail = 0;
    for (Py_ssize_t start = 0; start < n; start++) {
        if (dist[start] != -1)
            continue;
        Py_ssize_t s = start, d = -1, len = 0;
        while (d == -1) {
            dist[s] = -2;
            path[len++] = s;
            s = nxt[s];
            d = dist[s];
        }
        if (d == -2) {
            /* s is on the path, and the cycle through it is the path's end */
            Py_ssize_t c = s;
            do {
                dist[c] = 0;
                c = nxt[c];
            } while (c != s);
            while (len > 0 && dist[path[len - 1]] == 0)
                len--;
            d = 0;
        }
        while (len > 0)
            dist[path[--len]] = ++d;
        if (d > max_tail)
            max_tail = d;
    }
    /* The first periodic state met in increasing order is the least of its
     * cycle. Each cycle is copied from it into the path, one after the
     * other, and its length is kept at its least state as -1 - length, so
     * the table is read only before any Python object is made. */
    Py_ssize_t count = 0, end = 0;
    for (Py_ssize_t i = 0; i < n; i++) {
        if (dist[i] != 0)
            continue;
        Py_ssize_t c = i, len = 0;
        do {
            path[end + len++] = c;
            dist[c] = -1;
            c = nxt[c];
        } while (c != i);
        dist[i] = -1 - len;
        end += len;
        count++;
    }
    PyBuffer_Release(&view);
    PyObject *cycles = PyList_New(count), *result = NULL;
    if (cycles == NULL)
        goto done;
    for (Py_ssize_t k = 0, at = 0; k < count; k++) {
        Py_ssize_t len = -1 - dist[path[at]];
        PyObject *cycle = PyList_New(len);
        if (cycle == NULL)
            goto done;
        PyList_SET_ITEM(cycles, k, cycle);
        for (Py_ssize_t j = 0; j < len; j++) {
            PyObject *state = PyLong_FromSsize_t(path[at++]);
            if (state == NULL)
                goto done;
            PyList_SET_ITEM(cycle, j, state);
        }
    }
    result = Py_BuildValue("(On)", cycles, max_tail);
done:
    Py_XDECREF(cycles);
    PyMem_Free(dist);
    return result;
}

/* a mod p for p <= 2^32 by Barrett's method, with m = (2^64 - 1) / p
 * computed once: 2^64 - m p <= p, so (a m) >> 64 falls short of a / p by
 * less than a / 2^64 < 1, and one conditional subtraction finishes. */
static inline u64
barrett(u64 a, u64 p, u64 m)
{
    u64 r = a - (u64)(((unsigned __int128)a * m) >> 64) * p;
    return r >= p ? r - p : r;
}

/* x^e mod p for x < p <= 2^32, where each product fits 64 bits. */
static u64
powmod(u64 x, u64 e, u64 p)
{
    u64 r = 1;
    for (; e; e >>= 1) {
        if (e & 1)
            r = r * x % p;
        x = x * x % p;
    }
    return r;
}

/* An int in 0..2^64-1 into *out; TypeError for a non-int, ValueError
 * for an int out of that range. */
static int
as_u64(PyObject *obj, u64 *out)
{
    if (!PyLong_Check(obj)) {
        PyErr_Format(PyExc_TypeError, "expected an int, not %.200s", Py_TYPE(obj)->tp_name);
        return -1;
    }
    *out = PyLong_AsUnsignedLongLong(obj);
    if (*out == (u64)-1 && PyErr_Occurred()) {
        PyErr_Format(PyExc_ValueError, "%R is not an int in 0..2^64-1", obj);
        return -1;
    }
    return 0;
}

/* The terms of each component, flat: per component its term count T, then
 * T records of the coefficient and the n exponents. */
static u64 *
read_terms(PyObject *components, Py_ssize_t m, u64 p, Py_ssize_t n, Py_ssize_t *most)
{
    PyObject **items = PySequence_Fast_ITEMS(components);
    Py_ssize_t size = m;
    *most = 1;
    for (Py_ssize_t k = 0; k < m; k++) {
        if (!PyDict_Check(items[k])) {
            PyErr_Format(PyExc_TypeError, "component %zd is a %.200s, not a dict of terms", k, Py_TYPE(items[k])->tp_name);
            return NULL;
        }
        Py_ssize_t terms = PyDict_GET_SIZE(items[k]);
        if (terms > *most)
            *most = terms;
        size += terms * (n + 1);
    }
    u64 *flat = PyMem_New(u64, (size_t)size), *at = flat;
    if (flat == NULL) {
        PyErr_NoMemory();
        return NULL;
    }
    for (Py_ssize_t k = 0; k < m; k++) {
        PyObject *exps, *coeff;
        Py_ssize_t pos = 0;
        *at++ = (u64)PyDict_GET_SIZE(items[k]);
        while (PyDict_Next(items[k], &pos, &exps, &coeff)) {
            if (!PyTuple_Check(exps)) {
                PyErr_Format(PyExc_TypeError, "term %R of component %zd is not a tuple of exponents", exps, k);
                goto fail;
            }
            if (PyTuple_GET_SIZE(exps) != n) {
                PyErr_Format(PyExc_ValueError, "term %R of component %zd does not have %zd exponents", exps, k, n);
                goto fail;
            }
            if (as_u64(coeff, at) < 0)
                goto fail;
            if (*at++ >= p) {
                PyErr_Format(PyExc_ValueError, "coefficient %R is not reduced mod %llu", coeff, p);
                goto fail;
            }
            for (Py_ssize_t i = 0; i < n; i++)
                if (as_u64(PyTuple_GET_ITEM(exps, i), at++) < 0)
                    goto fail;
        }
    }
    return flat;
fail:
    PyMem_Free(flat);
    return NULL;
}

/* out[s] += (f(x) mod p) * pk at every state s = row * L + x_0, f the
 * component whose T terms start at term, each a coefficient and n
 * exponents, for p <= 2^32. The states go by blocks of x_0 of at most
 * `block`: a block takes T power tables of x_0 (pw), then per row the T
 * products of the coefficients with the powers of the higher variables
 * (r), read from tables of every x (hp), and b dot products (acc), each
 * reduced once by barrett().
 * scratch holds T * block + block + T + T * (n - 1) * p words. */
static void
add_component(unsigned int *out, u64 pk, const u64 *term, Py_ssize_t T, u64 p, Py_ssize_t n,
              Py_ssize_t L, Py_ssize_t rows, Py_ssize_t block, u64 *scratch)
{
    u64 *pw = scratch, *acc = pw + T * block, *r = acc + block, *hp = r + T;
    const Py_ssize_t rec = n + 1, high = n - 1;
    /* products added to a sum before it must be reduced again */
    const u64 chunk = (~0ULL - (p - 1)) / ((p - 1) * (p - 1));
    const u64 m = ~0ULL / p;
    for (Py_ssize_t t = 0; t < T; t++)
        for (Py_ssize_t i = 0; i < high; i++)
            for (u64 x = 0; x < p; x++)
                hp[(t * high + i) * (Py_ssize_t)p + (Py_ssize_t)x] = powmod(x, term[t * rec + 2 + i], p);
    for (Py_ssize_t x0 = 0; x0 < L; x0 += block) {
        const Py_ssize_t b = L - x0 < block ? L - x0 : block;
        for (Py_ssize_t t = 0; t < T; t++)
            for (Py_ssize_t j = 0; j < b; j++)
                pw[t * b + j] = n ? powmod((u64)(x0 + j), term[t * rec + 1], p) : 1;
        for (Py_ssize_t row = 0; row < rows; row++) {
            for (Py_ssize_t t = 0; t < T; t++) {
                u64 v = term[t * rec], rest = (u64)row;
                for (Py_ssize_t i = 0; i < high && v; i++, rest /= p)
                    v = v * hp[(t * high + i) * (Py_ssize_t)p + (Py_ssize_t)(rest % p)] % p;
                r[t] = v;
            }
            memset(acc, 0, (size_t)b * sizeof(u64));
            u64 since = 0;
            for (Py_ssize_t t = 0; t < T; t++) {
                const u64 c = r[t], *powers = pw + t * b;
                if (c == 0)
                    continue;
                if (since++ == chunk) {
                    for (Py_ssize_t j = 0; j < b; j++)
                        acc[j] = barrett(acc[j], p, m);
                    since = 1;
                }
                /* both factors are below 2^32 */
                for (Py_ssize_t j = 0; j < b; j++)
                    acc[j] += (u64)(unsigned int)c * (unsigned int)powers[j];
            }
            unsigned int *words = out + row * L + x0;
            for (Py_ssize_t j = 0; j < b; j++)
                words[j] += (unsigned int)(barrett(acc[j], p, m) * pk);
        }
    }
}

PyDoc_STRVAR(grid_image_doc,
"grid_image(terms, p, n, out)\n\n"
"Writes sum_k (f_k(x) mod p) p^k into out for every point x of F_p^n, at\n"
"the state index sum_i x_i p^i. terms holds one dict per f_k, from tuples of\n"
"n exponents to coefficients in 0..p-1; out is an array of format 'I' of\n"
"p^n words, and p^len(terms) - 1 must fit 32 bits.");

static PyObject *
grid_image(PyObject *Py_UNUSED(module), PyObject *args)
{
    PyObject *terms, *p_obj, *n_obj, *out;
    if (!PyArg_ParseTuple(args, "OOOO:grid_image", &terms, &p_obj, &n_obj, &out))
        return NULL;
    u64 p, n64;
    if (as_u64(p_obj, &p) < 0 || as_u64(n_obj, &n64) < 0)
        return NULL;
    if (p < 2) {
        PyErr_SetString(PyExc_ValueError, "p must be at least 2");
        return NULL;
    }
    Py_ssize_t total = 1, n = 0;
    for (; (u64)n < n64; n++) {
        if ((u64)total > (u64)PY_SSIZE_T_MAX / p) {
            PyErr_Format(PyExc_ValueError, "%llu^%llu states do not fit an array", p, n64);
            return NULL;
        }
        total *= (Py_ssize_t)p;
    }
    PyObject *components = PySequence_Fast(terms, "terms must be a sequence of dicts");
    if (components == NULL)
        return NULL;
    Py_ssize_t m = PySequence_Fast_GET_SIZE(components), most;
    u64 *flat = NULL, *scratch = NULL;
    PyObject *result = NULL;
    Py_buffer view;
    if (get_words(out, &view, "out") < 0)
        goto release;
    if (view.readonly || view.shape[0] != total) {
        PyErr_Format(PyExc_ValueError, "out must be a writable array of %zd words", total);
        goto done;
    }
    /* the largest index, p^m - 1, must fit a word */
    u64 top = 0;
    for (Py_ssize_t k = 0; k < m; k++) {
        if (p - 1 > 0xFFFFFFFFULL || top > (0xFFFFFFFFULL - (p - 1)) / p) {
            PyErr_Format(PyExc_ValueError, "indices below %llu^%zd do not fit 32-bit words", p, m);
            goto done;
        }
        top = top * p + (p - 1);
    }
    flat = read_terms(components, m, p, n, &most);
    if (flat == NULL)
        goto done;
    const Py_ssize_t L = n ? (Py_ssize_t)p : 1, rows = total / L;
    const Py_ssize_t block = L < BLOCK_ENTRIES / most ? L : (BLOCK_ENTRIES / most > 1 ? BLOCK_ENTRIES / most : 1);
    scratch = PyMem_New(u64, (size_t)((most + 1) * block + most + most * (n ? n - 1 : 0) * L));
    if (scratch == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    memset(view.buf, 0, (size_t)view.len);
    const u64 *term = flat;
    u64 pk = 1;
    for (Py_ssize_t k = 0; k < m; k++, pk *= p) {
        Py_ssize_t T = (Py_ssize_t)*term++;
        if (T > 0)
            add_component(view.buf, pk, term, T, p, n, L, rows, block, scratch);
        term += T * (n + 1);
    }
    result = Py_NewRef(Py_None);
done:
    PyBuffer_Release(&view);
release:
    Py_DECREF(components);
    PyMem_Free(flat);
    PyMem_Free(scratch);
    return result;
}

/* Above this p the curve kernels refuse: sys.maxunicode, the bound that
 * curves.check_enumeration_budget sets on both lanes. Below it, (p - 1)^3
 * + p and every table index fit their types. */
#define CURVE_P_MAX 0x10FFFFULL

/* p, a, b of the curve y^2 + a x^3 + b x = 0, parsed by format; TypeError
 * for a non-int, ValueError unless 2 <= p <= CURVE_P_MAX and 0 <= a, b < p. */
static int
curve_args(PyObject *args, const char *format, u64 *p, u64 *a, u64 *b)
{
    PyObject *p_obj, *a_obj, *b_obj;
    if (!PyArg_ParseTuple(args, format, &p_obj, &a_obj, &b_obj)
        || as_u64(p_obj, p) < 0 || as_u64(a_obj, a) < 0 || as_u64(b_obj, b) < 0)
        return -1;
    if (*p < 2 || *p > CURVE_P_MAX) {
        PyErr_Format(PyExc_ValueError, "p = %llu is not in 2..%llu", *p, CURVE_P_MAX);
        return -1;
    }
    if (*a >= *p || *b >= *p) {
        PyErr_Format(PyExc_ValueError, "a = %llu and b = %llu must be reduced mod %llu", *a, *b, *p);
        return -1;
    }
    return 0;
}

PyDoc_STRVAR(curve_affine_count_doc,
"curve_affine_count(p, a, b) -> int\n\n"
"#{(x, y) in F_p^2 : y^2 + a x^3 + b x = 0}, every pair compared; needs\n"
"2 <= p <= 0x10FFFF and 0 <= a, b < p.");

static PyObject *
curve_affine_count(PyObject *Py_UNUSED(module), PyObject *args)
{
    u64 p, a, b;
    if (curve_args(args, "OOO:curve_affine_count", &p, &a, &b) < 0)
        return NULL;
    unsigned int *sq = PyMem_New(unsigned int, p);
    if (sq == NULL)
        return PyErr_NoMemory();
    const unsigned int q = (unsigned int)p;
    for (unsigned int y = 0; y < q; y++)
        sq[y] = (unsigned int)((u64)y * y % p);
    u64 count = 0;
    for (u64 x = 0; x < p; x++) {
        const unsigned int t = (unsigned int)((p - (a * x * x + b) % p * x % p) % p);
        unsigned int hits = 0;
        for (unsigned int y = 0; y < q; y++)
            hits += sq[y] == t;
        count += hits;
    }
    PyMem_Free(sq);
    return PyLong_FromUnsignedLongLong(count);
}

PyDoc_STRVAR(curve_slice_counts_doc,
"curve_slice_counts(p, a, b) -> list\n\n"
"l_i = #{x : a x^3 + b x + i^2 = 0 in F_p} for i = 0..p-1, from one\n"
"histogram of a x^3 + b x over x = 1..p//2; needs 2 <= p <= 0x10FFFF and\n"
"0 <= a, b < p.");

static PyObject *
curve_slice_counts(PyObject *Py_UNUSED(module), PyObject *args)
{
    u64 p, a, b;
    if (curve_args(args, "OOO:curve_slice_counts", &p, &a, &b) < 0)
        return NULL;
    if (p == 2) {
        const long v = (long)((a + b) % 2);
        return Py_BuildValue("[ll]", 2 - v, v);
    }
    /* a x^3 + b x is odd, so x and -x share the histogram H of x = 1..h:
     * l_i = H[-i^2] + H[i^2], one more at i = 0 for x = 0, l_(p-i) = l_i */
    const Py_ssize_t h = (Py_ssize_t)(p / 2);
    Py_ssize_t *hist = PyMem_New(Py_ssize_t, p);
    if (hist == NULL)
        return PyErr_NoMemory();
    memset(hist, 0, (size_t)p * sizeof(Py_ssize_t));
    for (u64 x = 1; x <= (u64)h; x++)
        hist[(a * x * x + b) % p * x % p]++;
    PyObject *l = PyList_New(2 * h + 1);
    if (l == NULL)
        goto done;
    for (Py_ssize_t i = 0; i <= h; i++) {
        const u64 s = (u64)i * (u64)i % p;
        PyObject *count = PyLong_FromSsize_t(hist[s] + hist[(p - s) % p] + (i == 0));
        if (count == NULL) {
            Py_CLEAR(l);
            goto done;
        }
        PyList_SET_ITEM(l, i, count);
        if (i > 0)
            PyList_SET_ITEM(l, 2 * h + 1 - i, Py_NewRef(count));
    }
done:
    PyMem_Free(hist);
    return l;
}

static PyMethodDef methods[] = {
    {"curve_affine_count", curve_affine_count, METH_VARARGS, curve_affine_count_doc},
    {"curve_slice_counts", curve_slice_counts, METH_VARARGS, curve_slice_counts_doc},
    {"functional_graph_decompose", functional_graph_decompose, METH_O, decompose_doc},
    {"grid_image", grid_image, METH_VARARGS, grid_image_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module_def = {
    .m_base = PyModuleDef_HEAD_INIT,
    .m_name = "wildcycles._ckernels",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__ckernels(void)
{
    PyObject *module = PyModule_Create(&module_def);
    if (module == NULL)
        return NULL;
    PyObject *pure = PyImport_ImportModule("wildcycles._kernels_py");
    PyObject *fn = pure == NULL ? NULL : PyObject_GetAttrString(pure, "curve_is_singular");
    Py_XDECREF(pure);
    int rc = fn == NULL ? -1 : PyModule_AddObjectRef(module, "curve_is_singular", fn);
    Py_XDECREF(fn);
    if (rc < 0 || PyModule_AddStringConstant(module, "BACKEND_NAME", "c") < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
