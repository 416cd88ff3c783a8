/* Compiled hot-loop kernels for the repro dynamic-MSF substrate.
 *
 * The sequential engine's measured inner loops -- the (weight, eid)
 * tuple-min LSDS pulls and column sweeps, the MWR gamma/argmin and the
 * link-cut splay/access loops -- are reimplemented here against flat
 * buffers and the engine's own python objects.  No numpy (or any
 * third-party) dependency: buffers are plain bytearrays of interleaved
 * (weight, eid) doubles, and structure walks use the generic C API over
 * the 2-3-tree objects.
 *
 * Contract: every kernel computes the *bit-identical* result of its
 * scalar twin -- lexicographic strict-< with leftmost-wins ties, value
 * (not bitwise) equality in change detection, first-index argmin -- and
 * never charges counters itself;
 * the python wrappers charge exactly what the scalar path charges.
 *
 * Layout conventions:
 *   - a "key buffer" is a bytearray of 16-byte entries [w0,e0,w1,e1,...];
 *     the flat matrix is row-major with rows of Jcap entries, so entry
 *     (i, j) lives at double offset 2*(i*Jcap + j);
 *   - a "memb buffer" is a bytearray of 0/1 bytes;
 *   - LSDS leaf rows are *not* duplicated: leaves read the matrix row of
 *     their chunk id, and their Memb row is the synthesized one-hot.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <math.h>
#include <string.h>

/* interned attribute names (module init) */
static PyObject *s_kids, *s_height, *s_agg, *s_item, *s_id, *s_root;

#define KEY_LT(w1, e1, w2, e2) ((w1) < (w2) || ((w1) == (w2) && (e1) < (e2)))

/* ------------------------------------------------------------------ utils */

static double *
keybuf(PyObject *obj, const char *who)
{
    if (!PyByteArray_Check(obj)) {
        PyErr_Format(PyExc_TypeError, "%s: expected bytearray key buffer, "
                     "got %.80s", who, Py_TYPE(obj)->tp_name);
        return NULL;
    }
    return (double *)PyByteArray_AS_STRING(obj);
}

static unsigned char *
membbuf(PyObject *obj, const char *who)
{
    if (!PyByteArray_Check(obj)) {
        PyErr_Format(PyExc_TypeError, "%s: expected bytearray memb buffer, "
                     "got %.80s", who, Py_TYPE(obj)->tp_name);
        return NULL;
    }
    return (unsigned char *)PyByteArray_AS_STRING(obj);
}

/* Fetch `node.agg` as (keys*, memb*); the tuple stays owned by the node,
 * so the borrowed buffer pointers remain valid for the duration of the
 * call (no python code runs while we hold them). */
static int
agg_bufs(PyObject *node, double **kk, unsigned char **km)
{
    PyObject *agg = PyObject_GetAttr(node, s_agg);
    if (agg == NULL)
        return -1;
    if (!PyTuple_Check(agg) || PyTuple_GET_SIZE(agg) != 2) {
        Py_DECREF(agg);
        PyErr_SetString(PyExc_TypeError, "node.agg is not a 2-tuple");
        return -1;
    }
    double *k = keybuf(PyTuple_GET_ITEM(agg, 0), "agg[0]");
    unsigned char *m = (k == NULL) ? NULL
        : membbuf(PyTuple_GET_ITEM(agg, 1), "agg[1]");
    Py_DECREF(agg);
    if (m == NULL)
        return -1;
    *kk = k;
    *km = m;
    return 0;
}

static long
attr_long(PyObject *obj, PyObject *name)
{
    PyObject *v = PyObject_GetAttr(obj, name);
    if (v == NULL)
        return -1;
    long out = PyLong_AsLong(v);
    Py_DECREF(v);
    return out;  /* caller must check PyErr_Occurred on -1 */
}

/* kid.item.id for a leaf node */
static long
leaf_cid(PyObject *leaf)
{
    PyObject *item = PyObject_GetAttr(leaf, s_item);
    if (item == NULL)
        return -1;
    long cid = attr_long(item, s_id);
    Py_DECREF(item);
    return cid;
}

/* Resolve one LSDS kid's (keys, memb) sources.  Internal kid: its agg
 * buffers (*cid_out = -1).  Leaf kid: the matrix row of its chunk id
 * (*km = NULL, *cid_out = the id; memb is the one-hot at cid). */
static int
kid_source(PyObject *kid, double *mat, Py_ssize_t Jcap,
           double **kk, unsigned char **km, long *cid_out)
{
    long height = attr_long(kid, s_height);
    if (height == -1 && PyErr_Occurred())
        return -1;
    if (height) {
        *cid_out = -1;
        return agg_bufs(kid, kk, km);
    }
    long cid = leaf_cid(kid);
    if (cid == -1 && PyErr_Occurred())
        return -1;
    *kk = mat + 2 * (Py_ssize_t)cid * Jcap;
    *km = NULL;
    *cid_out = cid;
    return 0;
}

/* ---------------------------------------------------------- matrix writes */

/* fill_keys(buf, off_entries, count, w, e) */
static PyObject *
k_fill_keys(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 5)
        return PyErr_Format(PyExc_TypeError, "fill_keys takes 5 args");
    double *b = keybuf(args[0], "fill_keys");
    if (b == NULL)
        return NULL;
    Py_ssize_t off = PyLong_AsSsize_t(args[1]);
    Py_ssize_t count = PyLong_AsSsize_t(args[2]);
    double w = PyFloat_AsDouble(args[3]);
    double e = PyFloat_AsDouble(args[4]);
    if (PyErr_Occurred())
        return NULL;
    b += 2 * off;
    for (Py_ssize_t i = 0; i < count; i++) {
        b[2 * i] = w;
        b[2 * i + 1] = e;
    }
    Py_RETURN_NONE;
}

/* set_entry(buf, Jcap, i, j, w, e): both directions */
static PyObject *
k_set_entry(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 6)
        return PyErr_Format(PyExc_TypeError, "set_entry takes 6 args");
    double *b = keybuf(args[0], "set_entry");
    if (b == NULL)
        return NULL;
    Py_ssize_t Jcap = PyLong_AsSsize_t(args[1]);
    Py_ssize_t i = PyLong_AsSsize_t(args[2]);
    Py_ssize_t j = PyLong_AsSsize_t(args[3]);
    double w = PyFloat_AsDouble(args[4]);
    double e = PyFloat_AsDouble(args[5]);
    if (PyErr_Occurred())
        return NULL;
    double *a1 = b + 2 * (i * Jcap + j);
    double *a2 = b + 2 * (j * Jcap + i);
    a1[0] = w; a1[1] = e;
    a2[0] = w; a2[1] = e;
    Py_RETURN_NONE;
}

/* ------------------------------------------------------------- LSDS pulls */

/* Shared core of pull_node / pull_node_changed: recompute (CAdj, Memb) of
 * `node` from its kids into (dk, dm). Returns kid count, -1 on error. */
static Py_ssize_t
pull_into(PyObject *node, double *mat, Py_ssize_t Jcap,
          double *dk, unsigned char *dm)
{
    PyObject *kids = PyObject_GetAttr(node, s_kids);
    if (kids == NULL)
        return -1;
    if (!PyList_Check(kids)) {
        Py_DECREF(kids);
        PyErr_SetString(PyExc_TypeError, "node.kids is not a list");
        return -1;
    }
    Py_ssize_t n = PyList_GET_SIZE(kids);
    for (Py_ssize_t i = 0; i < n; i++) {
        double *kk;
        unsigned char *km;
        long cid;
        if (kid_source(PyList_GET_ITEM(kids, i), mat, Jcap,
                       &kk, &km, &cid) < 0) {
            Py_DECREF(kids);
            return -1;
        }
        if (i == 0) {
            memcpy(dk, kk, 16 * (size_t)Jcap);
            if (km != NULL)
                memcpy(dm, km, (size_t)Jcap);
            else {
                memset(dm, 0, (size_t)Jcap);
                dm[cid] = 1;
            }
        }
        else {
            for (Py_ssize_t j = 0; j < Jcap; j++) {
                double w = kk[2 * j], e = kk[2 * j + 1];
                if (KEY_LT(w, e, dk[2 * j], dk[2 * j + 1])) {
                    dk[2 * j] = w;
                    dk[2 * j + 1] = e;
                }
            }
            if (km != NULL) {
                for (Py_ssize_t j = 0; j < Jcap; j++)
                    dm[j] |= km[j];
            }
            else
                dm[cid] = 1;
        }
    }
    Py_DECREF(kids);
    return n;
}

/* pull_node(node, buf, Jcap) -> len(kids): recompute node.agg in place */
static PyObject *
k_pull_node(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 3)
        return PyErr_Format(PyExc_TypeError, "pull_node takes 3 args");
    double *mat = keybuf(args[1], "pull_node");
    if (mat == NULL)
        return NULL;
    Py_ssize_t Jcap = PyLong_AsSsize_t(args[2]);
    if (PyErr_Occurred())
        return NULL;
    double *dk;
    unsigned char *dm;
    if (agg_bufs(args[0], &dk, &dm) < 0)
        return NULL;
    Py_ssize_t n = pull_into(args[0], mat, Jcap, dk, dm);
    if (n < 0)
        return NULL;
    return PyLong_FromSsize_t(n);
}

/* pull_node_changed(node, buf, Jcap, scratch_k, scratch_m) -> bool
 *
 * Recomputes into the hoisted scratch buffers, compares by *value*
 * (matching the scalar tuple-equality early exit, including -0.0 == 0.0)
 * and writes back only on change. */
static PyObject *
k_pull_node_changed(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 5)
        return PyErr_Format(PyExc_TypeError, "pull_node_changed takes 5 args");
    double *mat = keybuf(args[1], "pull_node_changed");
    if (mat == NULL)
        return NULL;
    Py_ssize_t Jcap = PyLong_AsSsize_t(args[2]);
    if (PyErr_Occurred())
        return NULL;
    double *sk = keybuf(args[3], "scratch keys");
    if (sk == NULL)
        return NULL;
    unsigned char *sm = membbuf(args[4], "scratch memb");
    if (sm == NULL)
        return NULL;
    double *dk;
    unsigned char *dm;
    if (agg_bufs(args[0], &dk, &dm) < 0)
        return NULL;
    if (pull_into(args[0], mat, Jcap, sk, sm) < 0)
        return NULL;
    int changed = memcmp(sm, dm, (size_t)Jcap) != 0;
    if (!changed) {
        for (Py_ssize_t j = 0; j < 2 * Jcap; j++) {
            if (sk[j] != dk[j]) {   /* value compare: inf==inf, -0.0==0.0 */
                changed = 1;
                break;
            }
        }
    }
    if (changed) {
        memcpy(dk, sk, 16 * (size_t)Jcap);
        memcpy(dm, sm, (size_t)Jcap);
        Py_RETURN_TRUE;
    }
    Py_RETURN_FALSE;
}

/* ----------------------------------------------------------- column sweep */

/* post-order recompute of entry j; leftmost-wins strict <, like the
 * scalar column sweep.  Returns 0/1 memb, -1 on error. */
static int
sweep_rec(PyObject *node, Py_ssize_t j, double *mat, Py_ssize_t Jcap,
          double *w_out, double *e_out, long *count)
{
    long height = attr_long(node, s_height);
    if (height == -1 && PyErr_Occurred())
        return -1;
    (*count)++;
    if (!height) {
        long cid = leaf_cid(node);
        if (cid == -1 && PyErr_Occurred())
            return -1;
        const double *cell = mat + 2 * ((Py_ssize_t)cid * Jcap + j);
        *w_out = cell[0];
        *e_out = cell[1];
        return cid == (long)j;
    }
    PyObject *kids = PyObject_GetAttr(node, s_kids);
    if (kids == NULL || !PyList_Check(kids)) {
        Py_XDECREF(kids);
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_TypeError, "node.kids is not a list");
        return -1;
    }
    Py_ssize_t n = PyList_GET_SIZE(kids);
    double bw = INFINITY, be = INFINITY;
    int memb = 0;
    int first = 1;
    for (Py_ssize_t i = 0; i < n; i++) {
        double kw, ke;
        int km = sweep_rec(PyList_GET_ITEM(kids, i), j, mat, Jcap,
                           &kw, &ke, count);
        if (km < 0) {
            Py_DECREF(kids);
            return -1;
        }
        if (first || KEY_LT(kw, ke, bw, be)) {
            bw = kw;
            be = ke;
            first = 0;
        }
        memb |= km;
    }
    Py_DECREF(kids);
    double *ak;
    unsigned char *am;
    if (agg_bufs(node, &ak, &am) < 0)
        return -1;
    ak[2 * j] = bw;
    ak[2 * j + 1] = be;
    am[j] = (unsigned char)memb;
    *w_out = bw;
    *e_out = be;
    return memb;
}

/* col_sweep_many(lists, j, buf, Jcap) -> total visited node count
 *
 * The whole UpdateAdj column refresh in one call: for every EulerList in
 * `lists` (any iterable), sweep entry j of its root tree.  Single-leaf
 * roots contribute one visited node and no writes, exactly like the
 * scalar per-list recursion -- they are the common case at wide Jcap and
 * pure dispatch overhead in python. */
static PyObject *
k_col_sweep_many(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 4)
        return PyErr_Format(PyExc_TypeError, "col_sweep_many takes 4 args");
    Py_ssize_t j = PyLong_AsSsize_t(args[1]);
    double *mat = keybuf(args[2], "col_sweep_many");
    if (mat == NULL)
        return NULL;
    Py_ssize_t Jcap = PyLong_AsSsize_t(args[3]);
    if (PyErr_Occurred())
        return NULL;
    PyObject *fast = PySequence_Fast(args[0], "lists not iterable");
    if (fast == NULL)
        return NULL;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(fast);
    PyObject **items = PySequence_Fast_ITEMS(fast);
    long count = 0;
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *root = PyObject_GetAttr(items[i], s_root);
        if (root == NULL) {
            Py_DECREF(fast);
            return NULL;
        }
        double w, e;
        int rc = sweep_rec(root, j, mat, Jcap, &w, &e, &count);
        Py_DECREF(root);
        if (rc < 0) {
            Py_DECREF(fast);
            return NULL;
        }
    }
    Py_DECREF(fast);
    return PyLong_FromLong(count);
}

/* --------------------------------------------------------------- MWR scan */

/* truthiness view of an arbitrary memb vector: 1-byte buffer when the
 * object exports one (bytearray, numpy bool), sequence fallback otherwise
 * (the _nplite shim). */
static PyObject *
k_gamma_argmin(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    /* gamma_argmin(keys, key_off, memb, Jcap) -> (j, w, e)
     *
     * gamma[k] = keys[key_off + k] if memb[k] else (inf, inf); returns
     * the first-index lexicographic argmin, like np.argmin over the
     * masked object vector. */
    if (nargs != 4)
        return PyErr_Format(PyExc_TypeError, "gamma_argmin takes 4 args");
    double *keys = keybuf(args[0], "gamma_argmin");
    if (keys == NULL)
        return NULL;
    Py_ssize_t off = PyLong_AsSsize_t(args[1]);
    Py_ssize_t Jcap = PyLong_AsSsize_t(args[3]);
    if (PyErr_Occurred())
        return NULL;
    keys += 2 * off;
    double bw = INFINITY, be = INFINITY;
    Py_ssize_t bj = 0;
    PyObject *memb = args[2];
    Py_buffer view;
    if (PyObject_GetBuffer(memb, &view, PyBUF_SIMPLE) == 0) {
        if (view.len < Jcap) {
            PyBuffer_Release(&view);
            return PyErr_Format(PyExc_ValueError, "memb buffer too short");
        }
        const unsigned char *m = (const unsigned char *)view.buf;
        for (Py_ssize_t k = 0; k < Jcap; k++) {
            if (m[k]) {
                double w = keys[2 * k], e = keys[2 * k + 1];
                if (KEY_LT(w, e, bw, be)) {
                    bw = w;
                    be = e;
                    bj = k;
                }
            }
        }
        PyBuffer_Release(&view);
    }
    else {
        PyErr_Clear();
        PyObject *fast = PySequence_Fast(memb, "memb not iterable");
        if (fast == NULL)
            return NULL;
        if (PySequence_Fast_GET_SIZE(fast) < Jcap) {
            Py_DECREF(fast);
            return PyErr_Format(PyExc_ValueError, "memb too short");
        }
        PyObject **items = PySequence_Fast_ITEMS(fast);
        for (Py_ssize_t k = 0; k < Jcap; k++) {
            int truth = PyObject_IsTrue(items[k]);
            if (truth < 0) {
                Py_DECREF(fast);
                return NULL;
            }
            if (truth) {
                double w = keys[2 * k], e = keys[2 * k + 1];
                if (KEY_LT(w, e, bw, be)) {
                    bw = w;
                    be = e;
                    bj = k;
                }
            }
        }
        Py_DECREF(fast);
    }
    return Py_BuildValue("(ndd)", bj, bw, be);
}

/* ------------------------------------------------------------ ChargeStream */

/* Batched (label, count) accumulator for OpCounter charges inside compiled
 * regions.  Hot-path adds are a pointer-identity slot scan (labels are
 * interned strings in practice); drain() emits the per-label totals once
 * per public update for OpCounter.charge_many.  Measurement-neutral by
 * construction: each add converts its amount with the same int() semantics
 * as the scalar charge path, and drain() emits *every* slot touched since
 * the last clear (including zero totals, which the scalar path also
 * records as dict entries), so flushed totals are exactly the per-op sums.
 */

#define CS_SLOTS 48

typedef struct {
    PyObject_HEAD
    PyObject *labels[CS_SLOTS];
    long long counts[CS_SLOTS];
    Py_ssize_t n_slots;
    PyObject *overflow;      /* dict label -> count; NULL until needed */
    long paused;             /* depth counter, mirrors OpCounter._paused */
    long long dirty;         /* adds since last drain/clear (== len()) */
    long long n_adds;        /* lifetime adds (telemetry) */
    long long n_drains;      /* lifetime drains (telemetry) */
} ChargeStream;

static PyTypeObject ChargeStream_Type;

static int
cs_add_internal(ChargeStream *cs, PyObject *label, long long amount)
{
    if (cs->paused)
        return 0;
    cs->n_adds++;
    cs->dirty++;
    for (Py_ssize_t i = 0; i < cs->n_slots; i++) {
        if (cs->labels[i] == label) {
            cs->counts[i] += amount;
            return 0;
        }
    }
    /* equal-but-not-identical label, or a genuinely new one */
    for (Py_ssize_t i = 0; i < cs->n_slots; i++) {
        int eq = PyObject_RichCompareBool(cs->labels[i], label, Py_EQ);
        if (eq < 0)
            return -1;
        if (eq) {
            cs->counts[i] += amount;
            return 0;
        }
    }
    if (cs->n_slots < CS_SLOTS) {
        Py_INCREF(label);
        cs->labels[cs->n_slots] = label;
        cs->counts[cs->n_slots] = amount;
        cs->n_slots++;
        return 0;
    }
    if (cs->overflow == NULL) {
        cs->overflow = PyDict_New();
        if (cs->overflow == NULL)
            return -1;
    }
    PyObject *cur = PyDict_GetItemWithError(cs->overflow, label);
    if (cur == NULL && PyErr_Occurred())
        return -1;
    long long tot = amount;
    if (cur != NULL) {
        tot += PyLong_AsLongLong(cur);
        if (PyErr_Occurred())
            return -1;
    }
    PyObject *v = PyLong_FromLongLong(tot);
    if (v == NULL)
        return -1;
    int rc = PyDict_SetItem(cs->overflow, label, v);
    Py_DECREF(v);
    return rc;
}

static PyObject *
cs_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    return type->tp_alloc(type, 0);  /* tp_alloc zero-fills */
}

static void
cs_dealloc(ChargeStream *cs)
{
    for (Py_ssize_t i = 0; i < cs->n_slots; i++)
        Py_XDECREF(cs->labels[i]);
    Py_XDECREF(cs->overflow);
    Py_TYPE(cs)->tp_free((PyObject *)cs);
}

static PyObject *
cs_add(ChargeStream *cs, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs < 1 || nargs > 2)
        return PyErr_Format(PyExc_TypeError,
                            "add(label, amount=1) takes 1 or 2 args");
    long long amount = 1;
    if (nargs == 2) {
        PyObject *a = args[1];
        if (PyLong_Check(a)) {
            amount = PyLong_AsLongLong(a);
            if (amount == -1 && PyErr_Occurred())
                return NULL;
        }
        else {
            /* scalar charge does int(amount): same conversion here */
            PyObject *la = PyNumber_Long(a);
            if (la == NULL)
                return NULL;
            amount = PyLong_AsLongLong(la);
            Py_DECREF(la);
            if (amount == -1 && PyErr_Occurred())
                return NULL;
        }
    }
    if (cs_add_internal(cs, args[0], amount) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
cs_pause(ChargeStream *cs, PyObject *unused)
{
    cs->paused++;
    Py_RETURN_NONE;
}

static PyObject *
cs_resume(ChargeStream *cs, PyObject *unused)
{
    cs->paused--;
    Py_RETURN_NONE;
}

static PyObject *
cs_drain(ChargeStream *cs, PyObject *unused)
{
    PyObject *out = PyList_New(0);
    if (out == NULL)
        return NULL;
    for (Py_ssize_t i = 0; i < cs->n_slots; i++) {
        PyObject *pair = Py_BuildValue("(OL)", cs->labels[i], cs->counts[i]);
        if (pair == NULL || PyList_Append(out, pair) < 0) {
            Py_XDECREF(pair);
            Py_DECREF(out);
            return NULL;
        }
        Py_DECREF(pair);
        cs->counts[i] = 0;  /* labels stay resident for slot reuse */
    }
    if (cs->overflow != NULL) {
        Py_ssize_t pos = 0;
        PyObject *k, *v;
        while (PyDict_Next(cs->overflow, &pos, &k, &v)) {
            PyObject *pair = Py_BuildValue("(OO)", k, v);
            if (pair == NULL || PyList_Append(out, pair) < 0) {
                Py_XDECREF(pair);
                Py_DECREF(out);
                return NULL;
            }
            Py_DECREF(pair);
        }
        PyDict_Clear(cs->overflow);
    }
    cs->dirty = 0;
    cs->n_drains++;
    return out;
}

static PyObject *
cs_clear(ChargeStream *cs, PyObject *unused)
{
    for (Py_ssize_t i = 0; i < cs->n_slots; i++)
        Py_CLEAR(cs->labels[i]);
    cs->n_slots = 0;
    if (cs->overflow != NULL)
        PyDict_Clear(cs->overflow);
    cs->dirty = 0;
    Py_RETURN_NONE;
}

static PyObject *
cs_stats(ChargeStream *cs, PyObject *unused)
{
    return Py_BuildValue("{s:L,s:L,s:n,s:L,s:l}",
                         "adds", cs->n_adds, "drains", cs->n_drains,
                         "slots", cs->n_slots, "pending", cs->dirty,
                         "paused", cs->paused);
}

static Py_ssize_t
cs_len(ChargeStream *cs)
{
    return (Py_ssize_t)cs->dirty;
}

static PyMethodDef cs_methods[] = {
    {"add", (PyCFunction)(void (*)(void))cs_add, METH_FASTCALL,
     "add(label, amount=1): accumulate a charge (no-op while paused)"},
    {"pause", (PyCFunction)cs_pause, METH_NOARGS, "suspend accounting"},
    {"resume", (PyCFunction)cs_resume, METH_NOARGS, "resume accounting"},
    {"drain", (PyCFunction)cs_drain, METH_NOARGS,
     "drain() -> [(label, total), ...]; zeroes the accumulator"},
    {"clear", (PyCFunction)cs_clear, METH_NOARGS,
     "drop all pending charges and labels"},
    {"stats", (PyCFunction)cs_stats, METH_NOARGS,
     "telemetry dict: adds / drains / slots / pending / paused"},
    {NULL, NULL, 0, NULL}
};

static PyMappingMethods cs_as_mapping = {
    (lenfunc)cs_len, NULL, NULL,
};

static PyTypeObject ChargeStream_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.core.compiled._kernels.ChargeStream",
    .tp_basicsize = sizeof(ChargeStream),
    .tp_dealloc = (destructor)cs_dealloc,
    .tp_as_mapping = &cs_as_mapping,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "Batched (label, count) charge accumulator for OpCounter.",
    .tp_methods = cs_methods,
    .tp_new = cs_new,
};

/* -------------------------------------------------- link-cut flat kernels */

/* The link-cut forest's splay/access inner loops over a flat index mirror:
 * bufs is the 7-tuple (par, lft, rgt, flp, kw, ke, mx) of bytearrays --
 * par/lft/rgt/mx are int64 lanes (-1 encodes None), flp is one byte per
 * node, kw/ke are the float64 (weight, eid) key lanes.  The python-side
 * LCTNode objects stay authoritative for identity (wrappers map idx <->
 * node); vertex sentinel keys (-inf,) encode as (-inf, -inf), edge keys
 * (w, eid) as their float values.  Since eids are >= 0 > -inf, the
 * double-pair lexicographic compare is exactly the scalar tuple compare.
 *
 * Each kernel re-fetches buffer pointers per call (growth between calls is
 * safe) and returns the scalar path's self.ops delta so wrappers keep the
 * same preferred-path accounting.
 */

typedef struct {
    long long *par, *lft, *rgt, *mx;
    unsigned char *flp;
    double *kw, *ke;
} LCT;

static int
lct_view(PyObject *bufs, LCT *f)
{
    if (!PyTuple_Check(bufs) || PyTuple_GET_SIZE(bufs) != 7) {
        PyErr_SetString(PyExc_TypeError, "lct bufs must be the 7-tuple "
                        "(par, lft, rgt, flp, kw, ke, mx)");
        return -1;
    }
    for (int i = 0; i < 7; i++) {
        if (!PyByteArray_Check(PyTuple_GET_ITEM(bufs, i))) {
            PyErr_SetString(PyExc_TypeError,
                            "lct bufs must all be bytearrays");
            return -1;
        }
    }
    f->par = (long long *)PyByteArray_AS_STRING(PyTuple_GET_ITEM(bufs, 0));
    f->lft = (long long *)PyByteArray_AS_STRING(PyTuple_GET_ITEM(bufs, 1));
    f->rgt = (long long *)PyByteArray_AS_STRING(PyTuple_GET_ITEM(bufs, 2));
    f->flp = (unsigned char *)PyByteArray_AS_STRING(PyTuple_GET_ITEM(bufs, 3));
    f->kw = (double *)PyByteArray_AS_STRING(PyTuple_GET_ITEM(bufs, 4));
    f->ke = (double *)PyByteArray_AS_STRING(PyTuple_GET_ITEM(bufs, 5));
    f->mx = (long long *)PyByteArray_AS_STRING(PyTuple_GET_ITEM(bufs, 6));
    return 0;
}

/* key(a) > key(b), lexicographic on (kw, ke) -- scalar tuple > */
#define LCT_KGT(f, a, b)                                  \
    ((f)->kw[a] > (f)->kw[b] ||                           \
     ((f)->kw[a] == (f)->kw[b] && (f)->ke[a] > (f)->ke[b]))

static inline int
lct_is_root(LCT *f, long long x)
{
    long long p = f->par[x];
    return p < 0 || (f->lft[p] != x && f->rgt[p] != x);
}

static inline void
lct_push(LCT *f, long long x)
{
    if (f->flp[x]) {
        long long l = f->lft[x], r = f->rgt[x];
        f->lft[x] = r;
        f->rgt[x] = l;
        if (r >= 0)
            f->flp[r] ^= 1;
        if (l >= 0)
            f->flp[l] ^= 1;
        f->flp[x] = 0;
    }
}

static inline void
lct_pull(LCT *f, long long x)
{
    long long best = x;
    long long l = f->lft[x];
    if (l >= 0) {
        long long m = f->mx[l];
        if (LCT_KGT(f, m, best))
            best = m;
    }
    long long r = f->rgt[x];
    if (r >= 0) {
        long long m = f->mx[r];
        if (LCT_KGT(f, m, best))
            best = m;
    }
    f->mx[x] = best;
}

static void
lct_rotate(LCT *f, long long x)
{
    long long p = f->par[x];
    long long g = f->par[p];
    long long b;
    if (f->lft[p] == x) {
        b = f->rgt[x];
        f->lft[p] = b;
        f->rgt[x] = p;
    }
    else {
        b = f->lft[x];
        f->rgt[p] = b;
        f->lft[x] = p;
    }
    if (b >= 0)
        f->par[b] = p;
    f->par[p] = x;
    f->par[x] = g;
    if (g >= 0) {
        if (f->lft[g] == p)
            f->lft[g] = x;
        else if (f->rgt[g] == p)
            f->rgt[g] = x;
        /* else: g was a path parent -- leave its children alone */
    }
    lct_pull(f, p);
    lct_pull(f, x);
}

static int
lct_splay(LCT *f, long long x)
{
    long long stackbuf[128];
    long long *stk = stackbuf;
    Py_ssize_t cap = 128, n = 0;
    long long cur = x;
    for (;;) {
        if (n == cap) {
            Py_ssize_t ncap = cap * 2;
            long long *ns = PyMem_New(long long, (size_t)ncap);
            if (ns == NULL) {
                if (stk != stackbuf)
                    PyMem_Free(stk);
                PyErr_NoMemory();
                return -1;
            }
            memcpy(ns, stk, sizeof(long long) * (size_t)n);
            if (stk != stackbuf)
                PyMem_Free(stk);
            stk = ns;
            cap = ncap;
        }
        stk[n++] = cur;
        if (lct_is_root(f, cur))
            break;
        cur = f->par[cur];
    }
    for (Py_ssize_t i = n - 1; i >= 0; i--)
        lct_push(f, stk[i]);
    if (stk != stackbuf)
        PyMem_Free(stk);
    while (!lct_is_root(f, x)) {
        long long p = f->par[x];
        if (!lct_is_root(f, p)) {
            long long g = f->par[p];
            if ((f->lft[g] == p) == (f->lft[p] == x))
                lct_rotate(f, p);   /* zig-zig */
            else
                lct_rotate(f, x);   /* zig-zag */
        }
        lct_rotate(f, x);
    }
    return 0;
}

/* access(x): returns the scalar self.ops delta, or -1 on error */
static long long
lct_access_i(LCT *f, long long x)
{
    long long ops = 0;
    if (lct_splay(f, x) < 0)
        return -1;
    if (f->rgt[x] >= 0) {
        f->par[f->rgt[x]] = x;
        f->rgt[x] = -1;
        lct_pull(f, x);
    }
    while (f->par[x] >= 0) {
        long long y = f->par[x];
        if (lct_splay(f, y) < 0)
            return -1;
        if (f->rgt[y] >= 0)
            f->par[f->rgt[y]] = y;
        f->rgt[y] = x;
        lct_pull(f, y);
        if (lct_splay(f, x) < 0)
            return -1;
        ops++;
    }
    return ops + 1;
}

static long long
lct_make_root_i(LCT *f, long long x)
{
    long long ops = lct_access_i(f, x);
    if (ops < 0)
        return -1;
    f->flp[x] ^= 1;
    lct_push(f, x);
    return ops;
}

static long long
lct_find_root_i(LCT *f, long long x, long long *root_out)
{
    long long ops = lct_access_i(f, x);
    if (ops < 0)
        return -1;
    for (;;) {
        lct_push(f, x);
        if (f->lft[x] < 0)
            break;
        x = f->lft[x];
    }
    if (lct_splay(f, x) < 0)
        return -1;
    *root_out = x;
    return ops;
}

static int
lct_args(PyObject *const *args, Py_ssize_t nargs, Py_ssize_t want,
         const char *who, LCT *f, long long *x, long long *y)
{
    if (nargs != want) {
        PyErr_Format(PyExc_TypeError, "%s takes %zd args", who, want);
        return -1;
    }
    if (lct_view(args[0], f) < 0)
        return -1;
    *x = PyLong_AsLongLong(args[1]);
    if (*x == -1 && PyErr_Occurred())
        return -1;
    if (y != NULL) {
        *y = PyLong_AsLongLong(args[2]);
        if (*y == -1 && PyErr_Occurred())
            return -1;
    }
    return 0;
}

/* lct_init_node(bufs, idx, w, e): fresh isolated node at slot idx */
static PyObject *
k_lct_init_node(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    LCT f;
    long long x;
    if (nargs != 4)
        return PyErr_Format(PyExc_TypeError, "lct_init_node takes 4 args");
    if (lct_view(args[0], &f) < 0)
        return NULL;
    x = PyLong_AsLongLong(args[1]);
    double w = PyFloat_AsDouble(args[2]);
    double e = PyFloat_AsDouble(args[3]);
    if (PyErr_Occurred())
        return NULL;
    f.par[x] = f.lft[x] = f.rgt[x] = -1;
    f.flp[x] = 0;
    f.mx[x] = x;
    f.kw[x] = w;
    f.ke[x] = e;
    Py_RETURN_NONE;
}

/* lct_make_root(bufs, x) -> ops */
static PyObject *
k_lct_make_root(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    LCT f;
    long long x;
    if (lct_args(args, nargs, 2, "lct_make_root", &f, &x, NULL) < 0)
        return NULL;
    long long ops = lct_make_root_i(&f, x);
    if (ops < 0)
        return NULL;
    return PyLong_FromLongLong(ops);
}

/* lct_find_root(bufs, x) -> (root_idx, ops) */
static PyObject *
k_lct_find_root(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    LCT f;
    long long x, root;
    if (lct_args(args, nargs, 2, "lct_find_root", &f, &x, NULL) < 0)
        return NULL;
    long long ops = lct_find_root_i(&f, x, &root);
    if (ops < 0)
        return NULL;
    return Py_BuildValue("(LL)", root, ops);
}

/* lct_conn(bufs, x, y) -> (same, ops); caller handles x is y */
static PyObject *
k_lct_conn(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    LCT f;
    long long x, y, rx, ry;
    if (lct_args(args, nargs, 3, "lct_conn", &f, &x, &y) < 0)
        return NULL;
    long long ops = lct_find_root_i(&f, x, &rx);
    if (ops < 0)
        return NULL;
    long long ops2 = lct_find_root_i(&f, y, &ry);
    if (ops2 < 0)
        return NULL;
    return Py_BuildValue("(iL)", rx == ry, ops + ops2);
}

/* lct_link(bufs, x, y) -> ops: make x a child of y (x must be isolated
 * from y's tree; caller guarantees, as the scalar path does) */
static PyObject *
k_lct_link(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    LCT f;
    long long x, y;
    if (lct_args(args, nargs, 3, "lct_link", &f, &x, &y) < 0)
        return NULL;
    long long ops = lct_make_root_i(&f, x);
    if (ops < 0)
        return NULL;
    f.par[x] = y;
    return PyLong_FromLongLong(ops);
}

/* lct_cut(bufs, x, y) -> ops: sever the x--y tree edge */
static PyObject *
k_lct_cut(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    LCT f;
    long long x, y;
    if (lct_args(args, nargs, 3, "lct_cut", &f, &x, &y) < 0)
        return NULL;
    long long ops = lct_make_root_i(&f, x);
    if (ops < 0)
        return NULL;
    long long ops2 = lct_access_i(&f, y);
    if (ops2 < 0)
        return NULL;
    if (f.lft[y] != x || f.rgt[x] >= 0) {
        PyErr_SetString(PyExc_AssertionError, "cut() on non-adjacent nodes");
        return NULL;
    }
    f.par[x] = -1;
    f.lft[y] = -1;
    lct_pull(&f, y);
    return PyLong_FromLongLong(ops + ops2);
}

/* lct_path_max(bufs, x, y) -> (mx_idx, ops): heaviest node on the x--y
 * path (ties to the deeper/leftmost aggregate winner, like scalar _pull) */
static PyObject *
k_lct_path_max(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    LCT f;
    long long x, y;
    if (lct_args(args, nargs, 3, "lct_path_max", &f, &x, &y) < 0)
        return NULL;
    long long ops = lct_make_root_i(&f, x);
    if (ops < 0)
        return NULL;
    long long ops2 = lct_access_i(&f, y);
    if (ops2 < 0)
        return NULL;
    return Py_BuildValue("(LL)", f.mx[y], ops + ops2);
}

/* ------------------------------------------------------- lane writes */

/* write_lanes(buf, Jcap, cid, lanes, row): for each lane j, write the
 * (w, e) key row[j] at (cid, j) and (j, cid).  The one flat-mirror writer
 * of row writes, column mirrors and id releases: exact whenever the other
 * lanes already agree, which the live-lane invariant guarantees. */
static PyObject *
k_write_lanes(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 5)
        return PyErr_Format(PyExc_TypeError, "write_lanes takes 5 args");
    double *mat = keybuf(args[0], "write_lanes");
    if (mat == NULL)
        return NULL;
    Py_ssize_t Jcap = PyLong_AsSsize_t(args[1]);
    Py_ssize_t cid = PyLong_AsSsize_t(args[2]);
    if (PyErr_Occurred())
        return NULL;
    PyObject *it = PyObject_GetIter(args[3]);
    if (it == NULL)
        return NULL;
    PyObject *lane;
    while ((lane = PyIter_Next(it)) != NULL) {
        Py_ssize_t j = PyLong_AsSsize_t(lane);
        if (j == -1 && PyErr_Occurred()) {
            Py_DECREF(lane);
            goto fail;
        }
        if (j < 0 || j >= Jcap) {
            Py_DECREF(lane);
            PyErr_Format(PyExc_IndexError, "write_lanes: lane %zd", j);
            goto fail;
        }
        PyObject *key = PyObject_GetItem(args[4], lane);
        Py_DECREF(lane);
        if (key == NULL)
            goto fail;
        PyObject *wo = PySequence_GetItem(key, 0);
        PyObject *eo = (wo == NULL) ? NULL : PySequence_GetItem(key, 1);
        Py_DECREF(key);
        double w = (eo == NULL) ? 0.0 : PyFloat_AsDouble(wo);
        double e = (eo == NULL) ? 0.0 : PyFloat_AsDouble(eo);
        Py_XDECREF(wo);
        Py_XDECREF(eo);
        if (eo == NULL || PyErr_Occurred())
            goto fail;
        double *rc = mat + 2 * (cid * Jcap + j);
        double *cc = mat + 2 * (j * Jcap + cid);
        rc[0] = cc[0] = w;
        rc[1] = cc[1] = e;
    }
    Py_DECREF(it);
    if (PyErr_Occurred())
        return NULL;
    Py_RETURN_NONE;
fail:
    Py_DECREF(it);
    return NULL;
}

/* -------------------------------------------------------------- module def */

static PyMethodDef kernel_methods[] = {
    {"fill_keys", (PyCFunction)(void (*)(void))k_fill_keys,
     METH_FASTCALL, "fill_keys(buf, off, count, w, e)"},
    {"set_entry", (PyCFunction)(void (*)(void))k_set_entry,
     METH_FASTCALL, "set_entry(buf, Jcap, i, j, w, e)"},
    {"pull_node", (PyCFunction)(void (*)(void))k_pull_node,
     METH_FASTCALL, "pull_node(node, buf, Jcap) -> len(kids)"},
    {"pull_node_changed", (PyCFunction)(void (*)(void))k_pull_node_changed,
     METH_FASTCALL,
     "pull_node_changed(node, buf, Jcap, scratch_k, scratch_m) -> bool"},
    {"col_sweep_many", (PyCFunction)(void (*)(void))k_col_sweep_many,
     METH_FASTCALL, "col_sweep_many(lists, j, buf, Jcap) -> node count"},
    {"write_lanes", (PyCFunction)(void (*)(void))k_write_lanes,
     METH_FASTCALL, "write_lanes(buf, Jcap, cid, lanes, row)"},
    {"lct_init_node", (PyCFunction)(void (*)(void))k_lct_init_node,
     METH_FASTCALL, "lct_init_node(bufs, idx, w, e)"},
    {"lct_make_root", (PyCFunction)(void (*)(void))k_lct_make_root,
     METH_FASTCALL, "lct_make_root(bufs, x) -> ops"},
    {"lct_find_root", (PyCFunction)(void (*)(void))k_lct_find_root,
     METH_FASTCALL, "lct_find_root(bufs, x) -> (root, ops)"},
    {"lct_conn", (PyCFunction)(void (*)(void))k_lct_conn,
     METH_FASTCALL, "lct_conn(bufs, x, y) -> (same, ops)"},
    {"lct_link", (PyCFunction)(void (*)(void))k_lct_link,
     METH_FASTCALL, "lct_link(bufs, x, y) -> ops"},
    {"lct_cut", (PyCFunction)(void (*)(void))k_lct_cut,
     METH_FASTCALL, "lct_cut(bufs, x, y) -> ops"},
    {"lct_path_max", (PyCFunction)(void (*)(void))k_lct_path_max,
     METH_FASTCALL, "lct_path_max(bufs, x, y) -> (mx_idx, ops)"},
    {"gamma_argmin", (PyCFunction)(void (*)(void))k_gamma_argmin,
     METH_FASTCALL, "gamma_argmin(keys, key_off, memb, Jcap) -> (j, w, e)"},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef kernels_module = {
    PyModuleDef_HEAD_INIT,
    "repro.core.compiled._kernels",
    "Native tuple-min inner loops for the repro dynamic-MSF substrate.",
    -1,
    kernel_methods,
};

PyMODINIT_FUNC
PyInit__kernels(void)
{
#define INTERN(var, name)                                \
    do {                                                 \
        (var) = PyUnicode_InternFromString(name);        \
        if ((var) == NULL)                               \
            return NULL;                                 \
    } while (0)
    INTERN(s_kids, "kids");
    INTERN(s_height, "height");
    INTERN(s_agg, "agg");
    INTERN(s_item, "item");
    INTERN(s_id, "id");
    INTERN(s_root, "root");
#undef INTERN
    if (PyType_Ready(&ChargeStream_Type) < 0)
        return NULL;
    PyObject *m = PyModule_Create(&kernels_module);
    if (m == NULL)
        return NULL;
    Py_INCREF(&ChargeStream_Type);
    if (PyModule_AddObject(m, "ChargeStream",
                           (PyObject *)&ChargeStream_Type) < 0) {
        Py_DECREF(&ChargeStream_Type);
        Py_DECREF(m);
        return NULL;
    }
    if (PyModule_AddStringConstant(m, "__version__", "6") < 0) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
