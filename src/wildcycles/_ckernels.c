/* The compiled kernel lane: the functional-graph walk, in C against the
 * CPython API.
 *
 * functional_graph_decompose keeps the contract of the pure kernel in
 * _kernels_py and returns the same lists. It also checks every successor
 * first and raises IndexError for one outside 0..n-1, negative ones
 * included, so no table can make it read outside its arrays.
 *
 * The curve kernels of this lane are the pure ones: module init takes
 * the function objects from wildcycles._kernels_py, which beat a compiled
 * double loop (see that module).
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>

PyDoc_STRVAR(decompose_doc,
"functional_graph_decompose(nxt) -> (on_cycle, dist)\n\n"
"on_cycle[s] marks the periodic states of the self-map s -> nxt[s], and\n"
"dist[s] counts the steps from s to its cycle (0 on the cycle).");

static PyObject *
functional_graph_decompose(PyObject *Py_UNUSED(module), PyObject *arg)
{
    PyObject *seq = PySequence_Fast(arg, "nxt must be a sequence");
    if (seq == NULL)
        return NULL;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(seq);
    /* nxt, then dist (-1 unvisited, -2 on the current path), then the path */
    Py_ssize_t *nxt = PyMem_New(Py_ssize_t, 3 * n);
    if (nxt == NULL) {
        Py_DECREF(seq);
        return PyErr_NoMemory();
    }
    Py_ssize_t *dist = nxt + n, *path = dist + n;
    PyObject *on_cycle = NULL, *dists = NULL, *result = NULL;
    for (Py_ssize_t i = 0; i < n; i++) {
        Py_ssize_t s = PyNumber_AsSsize_t(PySequence_Fast_GET_ITEM(seq, i), PyExc_IndexError);
        if (s == -1 && PyErr_Occurred())
            goto done;
        if (s < 0 || s >= n) {
            PyErr_Format(PyExc_IndexError, "successor %zd of state %zd is outside 0..%zd", s, i, n - 1);
            goto done;
        }
        nxt[i] = s;
        dist[i] = -1;
    }
    /* Each unvisited start walks forward, marking and pushing every state,
     * until it meets -2 (it closed a new cycle) or some d >= 0 (it joined
     * a known tree), then numbers its path backward from there. Only
     * unvisited states are pushed, so the path holds at most n of them. */
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
    }
    if ((on_cycle = PyList_New(n)) == NULL || (dists = PyList_New(n)) == NULL)
        goto done;
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *d = PyLong_FromSsize_t(dist[i]);
        if (d == NULL)
            goto done;
        PyList_SET_ITEM(dists, i, d);
        PyList_SET_ITEM(on_cycle, i, PyBool_FromLong(dist[i] == 0));
    }
    result = PyTuple_Pack(2, on_cycle, dists);
done:
    Py_XDECREF(on_cycle);
    Py_XDECREF(dists);
    PyMem_Free(nxt);
    Py_DECREF(seq);
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
