/* The compiled kernel lane: the functional-graph walk, in C against the
 * CPython API.
 *
 * functional_graph_decompose keeps the contract of the pure kernel in
 * _kernels_py and returns the same cycles and longest tail. It reads the
 * table through the buffer protocol, as the array('I') or array('Q') that
 * poly.grid_image returns, and builds no Python object per state: only the
 * periodic states become ints. Anything else raises TypeError, and a
 * successor outside 0..n-1 raises IndexError before the walk starts, so no
 * table can make it read outside its arrays.
 *
 * The curve kernels of this lane are the pure ones: module init takes
 * the function objects from wildcycles._kernels_py, which beat a compiled
 * double loop (see that module).
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <string.h>

PyDoc_STRVAR(decompose_doc,
"functional_graph_decompose(nxt) -> (cycles, max_tail)\n\n"
"The cycles of the self-map s -> nxt[s] of range(len(nxt)), each a list of\n"
"states from its least one, sorted by that state, and the largest number of\n"
"steps from any state to its cycle. nxt is an array of format 'I' or 'Q'.");

/* A new list of the cycle through c, from c on. Every state of it is
 * marked -1 in dist, so the caller's scan for periodic states passes over
 * the rest of it. */
static PyObject *
cycle_from(const Py_ssize_t *nxt, Py_ssize_t *dist, Py_ssize_t c)
{
    Py_ssize_t len = 0, s = c;
    do {
        len++;
        s = nxt[s];
    } while (s != c);
    PyObject *cycle = PyList_New(len);
    if (cycle == NULL)
        return NULL;
    for (Py_ssize_t i = 0; i < len; i++, s = nxt[s]) {
        PyObject *state = PyLong_FromSsize_t(s);
        if (state == NULL) {
            Py_DECREF(cycle);
            return NULL;
        }
        PyList_SET_ITEM(cycle, i, state);
        dist[s] = -1;
    }
    return cycle;
}

static PyObject *
functional_graph_decompose(PyObject *Py_UNUSED(module), PyObject *arg)
{
    Py_buffer view;
    if (PyObject_GetBuffer(arg, &view, PyBUF_FORMAT | PyBUF_ND) < 0)
        return NULL;
    int wide = view.format != NULL && strcmp(view.format, "Q") == 0;
    if (view.ndim != 1 || view.format == NULL || !(wide || strcmp(view.format, "I") == 0)
        || view.itemsize != (Py_ssize_t)(wide ? sizeof(unsigned long long) : sizeof(unsigned int))) {
        PyErr_Format(PyExc_TypeError, "nxt must be a one-dimensional array of format 'I' or 'Q', not format '%s'",
                     view.format == NULL ? "B" : view.format);
        PyBuffer_Release(&view);
        return NULL;
    }
    Py_ssize_t n = view.shape[0];
    /* nxt, then dist (-1 unvisited, -2 on the current path), then the path */
    Py_ssize_t *nxt = PyMem_New(Py_ssize_t, 3 * n);
    if (nxt == NULL) {
        PyBuffer_Release(&view);
        return PyErr_NoMemory();
    }
    Py_ssize_t *dist = nxt + n, *path = dist + n;
    for (Py_ssize_t i = 0; i < n; i++) {
        unsigned long long s = wide ? ((const unsigned long long *)view.buf)[i] : ((const unsigned int *)view.buf)[i];
        if (s >= (unsigned long long)n) {
            PyErr_Format(PyExc_IndexError, "successor %llu of state %zd is outside 0..%zd", s, i, n - 1);
            PyBuffer_Release(&view);
            PyMem_Free(nxt);
            return NULL;
        }
        nxt[i] = (Py_ssize_t)s;
        dist[i] = -1;
    }
    PyBuffer_Release(&view);
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
     * cycle, and reading the cycle marks the rest of it off. */
    PyObject *cycles = PyList_New(0), *result = NULL;
    if (cycles == NULL)
        goto done;
    for (Py_ssize_t i = 0; i < n; i++) {
        if (dist[i] != 0)
            continue;
        PyObject *cycle = cycle_from(nxt, dist, i);
        int rc = cycle == NULL ? -1 : PyList_Append(cycles, cycle);
        Py_XDECREF(cycle);
        if (rc < 0)
            goto done;
    }
    result = Py_BuildValue("(On)", cycles, max_tail);
done:
    Py_XDECREF(cycles);
    PyMem_Free(nxt);
    return result;
}

static PyMethodDef methods[] = {
    {"functional_graph_decompose", functional_graph_decompose, METH_O, decompose_doc},
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
    static const char *shared[] = {"curve_affine_count", "curve_slice_counts", "curve_is_singular"};
    PyObject *module = PyModule_Create(&module_def);
    if (module == NULL)
        return NULL;
    PyObject *pure = PyImport_ImportModule("wildcycles._kernels_py");
    if (pure == NULL || PyModule_AddStringConstant(module, "BACKEND_NAME", "c") < 0)
        goto fail;
    for (size_t i = 0; i < sizeof shared / sizeof shared[0]; i++) {
        PyObject *fn = PyObject_GetAttrString(pure, shared[i]);
        int rc = fn == NULL ? -1 : PyModule_AddObjectRef(module, shared[i], fn);
        Py_XDECREF(fn);
        if (rc < 0)
            goto fail;
    }
    Py_DECREF(pure);
    return module;
fail:
    Py_XDECREF(pure);
    Py_DECREF(module);
    return NULL;
}
