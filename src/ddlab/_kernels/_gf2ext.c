/* Compiled GF(2) kernels: the semantic twin of ddlab._kernels._pure.
 *
 * A plain CPython extension, written by hand.  Vectors are ints in
 * [0, 2^24) with coordinate i in bit i; every argument is any iterable of
 * them (read once through PySequence_Fast).  A vector of 2^24 or more
 * raises ValueError("vector exceeds the 24-bit width cap"), a negative one
 * OverflowError, a failed allocation MemoryError.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>  /* with <limits.h> and <stdlib.h> */

#define MAX_WIDTH 24
#define IN_SET 1  /* flag bits of the value-indexed search table */
#define IN_SPAN 2

static const char NEEDS_ZERO[] = "union_of_max_subspaces needs 0 in the set";
static const char NEGATIVE[] = "can't convert negative value to unsigned int";
static const char TOO_WIDE[] = "vector exceeds the 24-bit width cap";

/* The int `obj` clamped to [-1, LLONG_MAX]; -1 with an exception set when
 * it is no int. */
static long long
read_int(PyObject *obj)
{
    int overflow;
    long long v = PyLong_AsLongLongAndOverflow(obj, &overflow);
    return overflow ? (overflow < 0 ? -1 : LLONG_MAX) : v;
}

/* Reduced row-echelon basis of the span into `basis` (MAX_WIDTH slots),
 * ascending, so each vector owns its leading bit.  Returns the rank, or -1
 * with an exception set. */
static int
rref(PyObject *vectors, unsigned int *basis)
{
    PyObject *seq = PySequence_Fast(vectors, "vectors must be iterable");
    Py_ssize_t j;
    int rank = 0, i, k;

    if (seq == NULL)
        return -1;
    /* the size is read on every step: an item's __index__ may shrink a list */
    for (j = 0; j < PySequence_Fast_GET_SIZE(seq); j++) {
        long long x = read_int(PySequence_Fast_GET_ITEM(seq, j));
        unsigned int v = (unsigned int)x;
        if (x < 0 || x >> MAX_WIDTH) {
            if (!PyErr_Occurred())
                PyErr_SetString(x < 0 ? PyExc_OverflowError : PyExc_ValueError,
                                x < 0 ? NEGATIVE : TOO_WIDE);
            Py_DECREF(seq);
            return -1;
        }
        for (i = 0; i < rank; i++)
            if ((v ^ basis[i]) < v)
                v ^= basis[i];
        if (v) {
            for (i = 0; i < rank; i++)
                if ((basis[i] ^ v) < basis[i])
                    basis[i] ^= v;
            basis[rank++] = v;
        }
    }
    Py_DECREF(seq);
    for (i = 1; i < rank; i++) {  /* insertion sort; rank <= 24 */
        unsigned int v = basis[i];
        for (k = i; k > 0 && basis[k - 1] > v; k--)
            basis[k] = basis[k - 1];
        basis[k] = v;
    }
    return rank;
}

/* A tuple of the first n values of `values`. */
static PyObject *
to_tuple(const unsigned int *values, Py_ssize_t n)
{
    PyObject *out = PyTuple_New(n);
    Py_ssize_t i;

    for (i = 0; out != NULL && i < n; i++) {
        PyObject *item = PyLong_FromUnsignedLong(values[i]);
        if (item == NULL)
            Py_CLEAR(out);
        else
            PyTuple_SET_ITEM(out, i, item);
    }
    return out;
}

static PyObject *
rref_basis(PyObject *self, PyObject *vectors)
{
    unsigned int basis[MAX_WIDTH];
    int rank = rref(vectors, basis);
    return rank < 0 ? NULL : to_tuple(basis, rank);
}

static PyObject *
gf2_rank(PyObject *self, PyObject *vectors)
{
    unsigned int basis[MAX_WIDTH];
    int rank = rref(vectors, basis);
    return rank < 0 ? NULL : PyLong_FromLong(rank);
}

static PyObject *
span_members(PyObject *self, PyObject *vectors)
{
    unsigned int basis[MAX_WIDTH], small[256], *buf = small;
    int rank = rref(vectors, basis), k;
    size_t n = 1, i;
    PyObject *out;

    if (rank < 0)
        return NULL;
    if (rank > 8 && (buf = malloc(sizeof(*buf) << rank)) == NULL)
        return PyErr_NoMemory();
    /* ascending RREF basis keeps the doubling order sorted: two members
     * first differ at a leading bit, which one basis vector alone has */
    buf[0] = 0;
    for (k = 0; k < rank; k++, n <<= 1)
        for (i = 0; i < n; i++)
            buf[n + i] = buf[i] ^ basis[k];
    out = to_tuple(buf, (Py_ssize_t)n);
    if (buf != small)
        free(buf);
    return out;
}

/* Depth-first search over the subspaces inside the set.  Each is reached
 * once, from its ascending sequence of canonical generators: a generator v
 * is the least member of its coset v + span. */
typedef struct {
    unsigned char *flag;   /* per value: IN_SET | IN_SPAN */
    unsigned char *best;   /* per value: 1 + rank of the latest maximum
                              subspace holding it (stale below best_rank) */
    unsigned int *nonzero; /* the set's nonzero members, ascending */
    Py_ssize_t n_nonzero;
    unsigned int *span;    /* the current subspace, capacity |set| */
    int best_rank;
} Search;

static void
grow(Search *s, Py_ssize_t len, int rank, Py_ssize_t from)
{
    Py_ssize_t i, k;

    if (rank > s->best_rank)
        s->best_rank = rank;
    if (rank == s->best_rank)
        for (i = 0; i < len; i++)
            s->best[s->span[i]] = (unsigned char)(rank + 1);
    for (k = from; k < s->n_nonzero; k++) {
        unsigned int v = s->nonzero[k], c;
        if (s->flag[v] & IN_SPAN)
            continue;
        for (i = 0; i < len; i++) {
            c = v ^ s->span[i];
            if (!(s->flag[c] & IN_SET) || c < v)
                break;
        }
        if (i < len)
            continue;  /* the coset leaves the set, or v is no generator */
        for (i = 0; i < len; i++) {
            c = s->span[len + i] = v ^ s->span[i];
            s->flag[c] |= IN_SPAN;
        }
        grow(s, 2 * len, rank + 1, k + 1);
        for (i = 0; i < len; i++)
            s->flag[s->span[len + i]] &= ~IN_SPAN;
    }
}

static PyObject *
union_of_max_subspaces(PyObject *self, PyObject *members)
{
    PyObject *seq = PySequence_Fast(members, "members must be iterable");
    PyObject *union_ = NULL, *out = NULL;
    Py_ssize_t n, j, count = 0;
    long long x, top = 0;
    int has_zero = 0, negative = 0, too_wide = 0;
    size_t size = 1, v;
    Search s = {NULL, NULL, NULL, 0, NULL, 0};

    if (seq == NULL)
        return NULL;
    n = PySequence_Fast_GET_SIZE(seq);
    /* nonzero holds the values read until the table is filled */
    if ((s.nonzero = malloc((2 * n + 1) * sizeof(unsigned int))) == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (j = 0; j < n && j < PySequence_Fast_GET_SIZE(seq); j++) {
        x = read_int(PySequence_Fast_GET_ITEM(seq, j));  /* as in rref */
        if (x == -1 && PyErr_Occurred())
            goto done;
        has_zero |= x == 0;
        negative |= x < 0;
        too_wide |= x >> MAX_WIDTH > 0;
        if (x > top)
            top = x;
        s.nonzero[j] = (unsigned int)x;
    }
    n = j;
    /* as sorted(set(members)) would: 0 must be the least member, and only
     * then does the width cap apply */
    if (!has_zero || negative || too_wide) {
        PyErr_SetString(PyExc_ValueError, too_wide && has_zero && !negative
                        ? TOO_WIDE : NEEDS_ZERO);
        goto done;
    }
    while (size <= (size_t)top)
        size <<= 1;
    if ((s.flag = calloc(2 * size, 1)) == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    s.best = s.flag + size;
    for (j = 0; j < n; j++)
        s.flag[s.nonzero[j]] = IN_SET;
    for (v = 1; v < size; v++)
        if (s.flag[v])
            s.nonzero[s.n_nonzero++] = (unsigned int)v;
    s.span = s.nonzero + n;
    s.span[0] = 0;
    s.flag[0] |= IN_SPAN;
    grow(&s, 1, 0, 0);
    for (v = 0; v < size; v++)  /* the sorted union, reusing nonzero */
        if (s.best[v] == s.best_rank + 1)
            s.nonzero[count++] = (unsigned int)v;
    union_ = to_tuple(s.nonzero, count);
    if (union_ != NULL)
        out = Py_BuildValue("(lN)", 1L << s.best_rank, union_);
done:
    free(s.flag);
    free(s.nonzero);
    Py_DECREF(seq);
    return out;
}

static PyMethodDef methods[] = {
    {"rref_basis", rref_basis, METH_O,
     "Reduced row-echelon basis of the span, as an ascending tuple."},
    {"gf2_rank", gf2_rank, METH_O,
     "Rank of a collection of d-bit vectors over GF(2)."},
    {"span_members", span_members, METH_O,
     "All 2^rank elements of the span, as a sorted tuple."},
    {"union_of_max_subspaces", union_of_max_subspaces, METH_O,
     "Union of all maximum-cardinality subspaces inside the set.\n\n"
     "Requires 0 in members. Returns (max_cardinality, sorted union tuple)."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    .m_base = PyModuleDef_HEAD_INIT,
    .m_name = "_gf2ext",
    .m_doc = "Compiled GF(2) kernels; semantic twin of ddlab._kernels._pure.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__gf2ext(void)
{
    return PyModule_Create(&module);
}
