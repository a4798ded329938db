/* The Python folds of voltrack.filters, compiled: the same + - * / on
 * doubles, in the same order, so the same bits.
 *
 * voltrack.filters builds this file on first use with -O2
 * -ffp-contract=off (no fused multiply-add) and never with -ffast-math,
 * so every operation rounds once, as in Python.  Each function takes its
 * C-contiguous float64 buffers first and its scalars after them.  The
 * caller allocates every buffer, so the orders have no cap here.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <float.h>
#include <string.h>

#if FLT_EVAL_METHOD != 0
#error "the folds need double arithmetic without excess precision"
#endif

#define MAX_BUFFERS 5

/* The call's arguments: bufs[i] and lens[i] for its buffers (writable
 * where bit i of writable is set), then vals for its scalars. */
typedef struct {
    Py_buffer views[MAX_BUFFERS];
    double *bufs[MAX_BUFFERS];
    Py_ssize_t lens[MAX_BUFFERS];
    int held;
    double vals[4];
} Args;

static void
release(Args *a)
{
    while (a->held > 0)
        PyBuffer_Release(&a->views[--a->held]);
}

/* 0, or -1 with an exception set and no buffer held. */
static int
unpack(Args *a, PyObject *const *args, Py_ssize_t nargs, const char *name,
       int n_bufs, int n_vals, unsigned writable)
{
    int i;
    a->held = 0;
    if (nargs != n_bufs + n_vals) {
        PyErr_Format(PyExc_TypeError, "%s takes %d arguments, got %zd", name,
                     n_bufs + n_vals, nargs);
        return -1;
    }
    for (i = 0; i < n_vals; i++) {
        a->vals[i] = PyFloat_AsDouble(args[n_bufs + i]);
        if (a->vals[i] == -1.0 && PyErr_Occurred())
            return -1;
    }
    for (i = 0; i < n_bufs; i++) {
        Py_buffer *view = &a->views[i];
        int flags = PyBUF_C_CONTIGUOUS | PyBUF_FORMAT;
        if (writable & (1u << i))
            flags |= PyBUF_WRITABLE;
        if (PyObject_GetBuffer(args[i], view, flags) < 0) {
            release(a);
            return -1;
        }
        a->held++;
        if (view->itemsize != sizeof(double) || strcmp(view->format, "d") != 0) {
            release(a);
            PyErr_Format(PyExc_TypeError, "%s: argument %d is not a float64 buffer", name, i);
            return -1;
        }
        a->bufs[i] = (double *)view->buf;
        a->lens[i] = view->len / (Py_ssize_t)sizeof(double);
    }
    return 0;
}

static PyObject *
finish(Args *a, const char *bad_shape, double result)
{
    release(a);
    if (bad_shape != NULL) {
        PyErr_SetString(PyExc_ValueError, bad_shape);
        return NULL;
    }
    return PyFloat_FromDouble(result);
}

/* first_order(x, out, v0, c_v, c, g) -> the final v
 *
 * _fold_first_order: v' = c_v v + c + g x from v0, and out[i] = the
 * prediction of x[i]. */
static PyObject *
first_order(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Args a;
    Py_ssize_t i, n;
    double *x, *out, v, c_v, c, g;
    (void)self;
    if (unpack(&a, args, nargs, "first_order", 2, 4, 0x2) < 0)
        return NULL;
    x = a.bufs[0], out = a.bufs[1], n = a.lens[0];
    v = a.vals[0], c_v = a.vals[1], c = a.vals[2], g = a.vals[3];
    if (a.lens[1] != n)
        return finish(&a, "out must have the length of x", 0.0);
    for (i = 0; i < n; i++) {
        out[i] = v;
        v = c_v * v + c + g * x[i];
    }
    return finish(&a, NULL, v);
}

/* adaptive(z, x, out, g, a_over_n, damp, level_term, n) -> the final level
 *
 * _fold_adaptive's general order-k update from z = [v, d_1, ..., d_k],
 * k >= 1, with the k + 1 gains g and a_over_n = a / n: out[i] = the
 * prediction of x[i], and z ends as the final state. */
static PyObject *
adaptive(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Args a;
    Py_ssize_t i, j, ell, k;
    double *z, *x, *out, *g, *an, damp, level_term, n;
    (void)self;
    if (unpack(&a, args, nargs, "adaptive", 5, 3, 0x5) < 0)
        return NULL;
    z = a.bufs[0], x = a.bufs[1], out = a.bufs[2], g = a.bufs[3], an = a.bufs[4];
    damp = a.vals[0], level_term = a.vals[1], n = a.vals[2];
    k = a.lens[0] - 1;
    if (k < 1 || a.lens[3] != k + 1 || a.lens[4] != k + 1 || a.lens[2] != a.lens[1])
        return finish(&a, "need k >= 1, k + 1 gains and coefficients, and out "
                          "of the length of x", 0.0);
    for (i = 0; i < a.lens[1]; i++) {
        double res = x[i] - z[0], t = z[k] * damp;
        out[i] = z[0];
        /* the last entry first, while z[0..k-1] are the old values */
        for (ell = 2; ell <= k + 1; ell++)
            t = t - an[ell - 1] * z[k + 1 - ell];
        t = t + level_term;
        t = t + g[k] * res;
        for (j = 0; j < k; j++)
            z[j] = z[j] + z[j + 1] / n + g[j] * res;
        z[k] = t;
    }
    return finish(&a, NULL, z[0]);
}

/* garch(e, obs, x, g, a, k_const) -> the final estimate
 *
 * _fold_garch's general GARCH(p, q) loop over the n observations x, p =
 * len(g) and q = len(a).  e (p + n) holds the p prior estimates, most
 * recent last, and receives estimate i at e[p + i], so e[p - 1 + i] is
 * the prediction of x[i]; obs holds the q - 1 prior observations. */
static PyObject *
garch(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Args a;
    Py_ssize_t i, j, m, p, q, n;
    double *e, *obs, *x, *g, *c, acc;
    (void)self;
    if (unpack(&a, args, nargs, "garch", 5, 1, 0x1) < 0)
        return NULL;
    e = a.bufs[0], obs = a.bufs[1], x = a.bufs[2], g = a.bufs[3], c = a.bufs[4];
    n = a.lens[2], p = a.lens[3], q = a.lens[4];
    if (n < 1 || p < 1 || q < 1 || a.lens[0] != p + n || a.lens[1] != q - 1)
        return finish(&a, "need p, q >= 1, p + n estimates and q - 1 prior "
                          "observations", 0.0);
    for (i = 0; i < n; i++) {
        acc = a.vals[0];
        for (j = 1; j <= p; j++)
            acc = acc + g[j - 1] * e[p + i - j];
        acc = acc + c[0] * x[i];
        /* X[i + 1 - m], from the prior observations before x[0] */
        for (m = 2; m <= q; m++)
            acc = acc + c[m - 1] * (i + 1 >= m ? x[i + 1 - m] : obs[q + i - m]);
        e[p + i] = acc;
    }
    return finish(&a, NULL, e[p + n - 1]);
}

static PyMethodDef methods[] = {
    {"first_order", (PyCFunction)(void (*)(void))first_order, METH_FASTCALL, NULL},
    {"adaptive", (PyCFunction)(void (*)(void))adaptive, METH_FASTCALL, NULL},
    {"garch", (PyCFunction)(void (*)(void))garch, METH_FASTCALL, NULL},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_folds", "The compiled folds of voltrack.filters.", -1, methods,
    NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC
PyInit__folds(void)
{
    return PyModule_Create(&module);
}
