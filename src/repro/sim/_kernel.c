/* The compiled core of the discrete-event loop.
 *
 * One extension type, ``Core``, holds the clock, the sequence counter,
 * the event counters and a binary min-heap of pending callbacks keyed by
 * ``(when, seq)``.  Each heap slot caches its key next to the Python
 * handle ``[when, seq, fn, args]`` that ``call_at`` and friends return,
 * so ordering never touches a Python object.  ``cancel_call`` sets the
 * handle's ``fn`` to ``None``; such tombstones are reaped when they reach
 * the top of the heap, or all at once by a compaction.
 *
 * ``repro.sim.engine.Simulator`` subclasses ``Core``; see that module for
 * the semantics.  ``repro.sim.kernel`` builds and loads this file.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <math.h>

/* Compact once at least this many pending entries are cancelled and they
 * make up at least half of the heap. */
#define COMPACT_MIN_CANCELLED 64

typedef struct {
    double when;
    long long seq;
    PyObject *entry; /* owned: the [when, seq, fn, args] handle */
} Slot;

typedef struct {
    PyObject_HEAD
    PyObject *now_obj; /* the clock as a Python number: `now` and `_now` */
    double now;
    long long seq;
    long long fired;
    long long cancelled_total;
    long long compactions;
    Py_ssize_t cancelled; /* tombstones still in the heap */
    Slot *heap;
    Py_ssize_t size;
    Py_ssize_t cap;
    int running;
    PyObject *weakreflist;
} Core;

static PyObject *SimulationError;
static PyObject *Zero;

/* -- heap ------------------------------------------------------------- */

static inline int
before(const Slot *a, const Slot *b)
{
    return a->when < b->when || (a->when == b->when && a->seq < b->seq);
}

static void
sift_up(Slot *heap, Py_ssize_t i)
{
    Slot item = heap[i];
    while (i > 0) {
        Py_ssize_t parent = (i - 1) >> 1;
        if (!before(&item, &heap[parent]))
            break;
        heap[i] = heap[parent];
        i = parent;
    }
    heap[i] = item;
}

static void
sift_down(Slot *heap, Py_ssize_t size, Py_ssize_t i)
{
    Slot item = heap[i];
    for (;;) {
        Py_ssize_t child = 2 * i + 1;
        if (child >= size)
            break;
        if (child + 1 < size && before(&heap[child + 1], &heap[child]))
            child++;
        if (!before(&heap[child], &item))
            break;
        heap[i] = heap[child];
        i = child;
    }
    heap[i] = item;
}

/* Remove the top slot; the caller owns its entry reference. */
static Slot
heap_pop(Core *self)
{
    Slot top = self->heap[0];
    self->size--;
    if (self->size > 0) {
        self->heap[0] = self->heap[self->size];
        sift_down(self->heap, self->size, 0);
    }
    return top;
}

static inline int
is_cancelled(PyObject *entry)
{
    return PyList_GET_ITEM(entry, 2) == Py_None;
}

/* Drop every tombstone and re-heapify.  Dropped entries are released
 * only once the heap is consistent again: a finalizer they trigger may
 * schedule.  Compaction only bounds memory, so without the scratch
 * array it is simply skipped. */
static void
compact(Core *self)
{
    PyObject **dead = PyMem_Malloc(self->size * sizeof(PyObject *));
    if (dead == NULL)
        return;
    Py_ssize_t kept = 0, ndead = 0;
    for (Py_ssize_t i = 0; i < self->size; i++) {
        if (is_cancelled(self->heap[i].entry))
            dead[ndead++] = self->heap[i].entry;
        else
            self->heap[kept++] = self->heap[i];
    }
    self->size = kept;
    for (Py_ssize_t j = kept / 2 - 1; j >= 0; j--)
        sift_down(self->heap, kept, j);
    self->cancelled = 0;
    self->compactions++;
    for (Py_ssize_t i = 0; i < ndead; i++)
        Py_DECREF(dead[i]);
    PyMem_Free(dead);
}

/* -- scheduling ------------------------------------------------------- */

/* Push fn(*args) at `when` (key value) with the Python time `when_obj`
 * (borrowed); returns a new reference to the handle. */
static PyObject *
push(Core *self, double when, PyObject *when_obj, PyObject *fn, PyObject *args)
{
    if (self->size == self->cap) {
        Py_ssize_t cap = self->cap ? self->cap * 2 : 64;
        Slot *heap = PyMem_Realloc(self->heap, cap * sizeof(Slot));
        if (heap == NULL)
            return PyErr_NoMemory();
        self->heap = heap;
        self->cap = cap;
    }
    long long seq = self->seq + 1;
    PyObject *entry = PyList_New(4);
    PyObject *seq_obj = PyLong_FromLongLong(seq);
    if (entry == NULL || seq_obj == NULL) {
        Py_XDECREF(entry);
        Py_XDECREF(seq_obj);
        return NULL;
    }
    Py_INCREF(when_obj);
    Py_INCREF(fn);
    Py_INCREF(args);
    PyList_SET_ITEM(entry, 0, when_obj);
    PyList_SET_ITEM(entry, 1, seq_obj);
    PyList_SET_ITEM(entry, 2, fn);
    PyList_SET_ITEM(entry, 3, args);
    self->seq = seq;
    Slot *slot = &self->heap[self->size];
    slot->when = when;
    slot->seq = seq;
    slot->entry = entry;
    Py_INCREF(entry);
    sift_up(self->heap, self->size++);
    return entry;
}

/* The absolute time `when` normalized as now + (when - now), which makes
 * every entry point produce bit-identical times.  Returns a new reference
 * and stores the key in *out; raises SimulationError for a past or NaN
 * time. */
static PyObject *
normalize_at(Core *self, PyObject *when_obj, double *out)
{
    PyObject *now_obj = self->now_obj;
    if (PyFloat_CheckExact(when_obj) && PyFloat_CheckExact(now_obj)) {
        double now = self->now, when = PyFloat_AS_DOUBLE(when_obj);
        if (when < now) {
            PyErr_Format(SimulationError, "cannot schedule in the past: %S", when_obj);
            return NULL;
        }
        if (when == now) {
            /* now + 0.0: also keeps inf at inf instead of inf - inf */
            *out = now;
            Py_INCREF(now_obj);
            return now_obj;
        }
        when = now + (when - now);
        if (isnan(when)) {
            PyErr_Format(SimulationError, "cannot schedule at a NaN time: %S", when_obj);
            return NULL;
        }
        *out = when;
        return PyFloat_FromDouble(when);
    }
    /* Other number types: the same arithmetic on Python objects. */
    int past = PyObject_RichCompareBool(when_obj, now_obj, Py_LT);
    if (past < 0)
        return NULL;
    if (past) {
        PyErr_Format(SimulationError, "cannot schedule in the past: %S", when_obj);
        return NULL;
    }
    PyObject *diff = PyNumber_Subtract(when_obj, now_obj);
    if (diff == NULL)
        return NULL;
    PyObject *norm = PyNumber_Add(now_obj, diff);
    Py_DECREF(diff);
    if (norm == NULL)
        return NULL;
    *out = PyFloat_AsDouble(norm);
    if (*out == -1.0 && PyErr_Occurred()) {
        Py_DECREF(norm);
        return NULL;
    }
    if (isnan(*out)) {
        Py_DECREF(norm);
        PyErr_Format(SimulationError, "cannot schedule at a NaN time: %S", when_obj);
        return NULL;
    }
    return norm;
}

static PyObject *
schedule(Core *self, PyObject *when_obj, double when,
         PyObject *const *argv, Py_ssize_t argc)
{
    PyObject *args = PyTuple_New(argc - 1);
    if (args == NULL)
        return NULL;
    for (Py_ssize_t i = 1; i < argc; i++) {
        Py_INCREF(argv[i]);
        PyTuple_SET_ITEM(args, i - 1, argv[i]);
    }
    PyObject *entry = push(self, when, when_obj, argv[0], args);
    Py_DECREF(args);
    return entry;
}

static PyObject *
Core_call_at(Core *self, PyObject *const *argv, Py_ssize_t argc)
{
    if (argc < 2) {
        PyErr_SetString(PyExc_TypeError, "call_at(when, fn, *args)");
        return NULL;
    }
    double when;
    PyObject *when_obj = normalize_at(self, argv[0], &when);
    if (when_obj == NULL)
        return NULL;
    PyObject *entry = schedule(self, when_obj, when, argv + 1, argc - 1);
    Py_DECREF(when_obj);
    return entry;
}

static PyObject *
Core_call_later(Core *self, PyObject *const *argv, Py_ssize_t argc)
{
    if (argc < 2) {
        PyErr_SetString(PyExc_TypeError, "call_later(delay, fn, *args)");
        return NULL;
    }
    PyObject *delay = argv[0], *when_obj;
    double when;
    if (PyFloat_CheckExact(delay) && PyFloat_CheckExact(self->now_obj)) {
        double d = PyFloat_AS_DOUBLE(delay);
        if (d < 0) {
            PyErr_Format(SimulationError, "cannot schedule in the past: %S", delay);
            return NULL;
        }
        when = self->now + d;
        when_obj = PyFloat_FromDouble(when);
    }
    else {
        int past = PyObject_RichCompareBool(delay, Zero, Py_LT);
        if (past < 0)
            return NULL;
        if (past) {
            PyErr_Format(SimulationError, "cannot schedule in the past: %S", delay);
            return NULL;
        }
        when_obj = PyNumber_Add(self->now_obj, delay);
        if (when_obj != NULL) {
            when = PyFloat_AsDouble(when_obj);
            if (when == -1.0 && PyErr_Occurred())
                Py_CLEAR(when_obj);
        }
    }
    if (when_obj == NULL)
        return NULL;
    if (isnan(when)) {
        Py_DECREF(when_obj);
        PyErr_Format(SimulationError, "cannot schedule at a NaN time: %S", delay);
        return NULL;
    }
    PyObject *entry = schedule(self, when_obj, when, argv + 1, argc - 1);
    Py_DECREF(when_obj);
    return entry;
}

static PyObject *
Core_call_soon(Core *self, PyObject *const *argv, Py_ssize_t argc)
{
    if (argc < 1) {
        PyErr_SetString(PyExc_TypeError, "call_soon(fn, *args)");
        return NULL;
    }
    return schedule(self, self->now_obj, self->now, argv, argc);
}

static PyObject *
Core_schedule_batch(Core *self, PyObject *entries)
{
    PyObject *seq = PySequence_Fast(entries, "schedule_batch needs a sequence");
    if (seq == NULL)
        return NULL;
    PyObject *handles = PyList_New(0);
    if (handles == NULL)
        goto fail;
    /* The size is re-read: comparing exotic time types runs Python code. */
    for (Py_ssize_t i = 0; i < PySequence_Fast_GET_SIZE(seq); i++) {
        PyObject *item = PySequence_Fast(
            PySequence_Fast_GET_ITEM(seq, i), "batch entries are (when, fn, args)");
        if (item == NULL)
            goto fail;
        if (PySequence_Fast_GET_SIZE(item) != 3) {
            Py_DECREF(item);
            PyErr_SetString(PyExc_ValueError, "batch entries are (when, fn, args)");
            goto fail;
        }
        PyObject **parts = PySequence_Fast_ITEMS(item);
        double when;
        PyObject *when_obj = normalize_at(self, parts[0], &when);
        PyObject *entry = NULL;
        if (when_obj != NULL) {
            entry = push(self, when, when_obj, parts[1], parts[2]);
            Py_DECREF(when_obj);
        }
        Py_DECREF(item);
        if (entry == NULL)
            goto fail;
        int err = PyList_Append(handles, entry);
        Py_DECREF(entry);
        if (err < 0)
            goto fail;
    }
    Py_DECREF(seq);
    return handles;
fail:
    Py_DECREF(seq);
    Py_XDECREF(handles);
    return NULL;
}

static PyObject *
Core_cancel_call(Core *self, PyObject *handle)
{
    if (!PyList_Check(handle) || PyList_GET_SIZE(handle) != 4) {
        PyErr_SetString(PyExc_TypeError, "cancel_call needs a scheduled-call handle");
        return NULL;
    }
    if (is_cancelled(handle))
        Py_RETURN_NONE;
    PyObject *fn = PyList_GET_ITEM(handle, 2);
    Py_INCREF(Py_None);
    PyList_SET_ITEM(handle, 2, Py_None);
    self->cancelled++;
    self->cancelled_total++;
    if (self->cancelled >= COMPACT_MIN_CANCELLED && self->cancelled * 2 >= self->size)
        compact(self);
    Py_DECREF(fn);
    Py_RETURN_NONE;
}

/* Reap cancelled entries off the top; returns the live top or NULL. */
static Slot *
live_top(Core *self)
{
    while (self->size > 0) {
        if (!is_cancelled(self->heap[0].entry))
            return &self->heap[0];
        Slot dead = heap_pop(self);
        self->cancelled--;
        Py_DECREF(dead.entry);
    }
    return NULL;
}

static void
set_now(Core *self, PyObject *now_obj, double now)
{
    Py_INCREF(now_obj);
    Py_SETREF(self->now_obj, now_obj);
    self->now = now;
}

/* -- execution -------------------------------------------------------- */

static PyObject *
Core_run_core(Core *self, PyObject *until_obj)
{
    double until = PyFloat_AsDouble(until_obj);
    if (until == -1.0 && PyErr_Occurred())
        return NULL;
    if (self->running) {
        PyErr_SetString(SimulationError, "simulator is already running");
        return NULL;
    }
    if (until < self->now) {
        /* Running "until" a past time is a no-op. */
        Py_INCREF(self->now_obj);
        return self->now_obj;
    }
    self->running = 1;
    long long fired = 0;
    int ok = 1;
    for (;;) {
        Slot *top = live_top(self);
        if (top == NULL) {
            if (until != INFINITY)
                set_now(self, until_obj, until);
            break;
        }
        if (top->when > until) {
            set_now(self, until_obj, until);
            break;
        }
        Slot s = heap_pop(self);
        PyObject *entry = s.entry;
        /* Take fn out of the handle: a late cancel_call on it is then a
         * clean no-op. */
        PyObject *fn = PyList_GET_ITEM(entry, 2);
        Py_INCREF(Py_None);
        PyList_SET_ITEM(entry, 2, Py_None);
        PyObject *args = PyList_GET_ITEM(entry, 3);
        Py_INCREF(args);
        set_now(self, PyList_GET_ITEM(entry, 0), s.when);
        Py_DECREF(entry);
        fired++;
        PyObject *result;
        if (PyTuple_CheckExact(args)) {
            result = PyObject_Vectorcall(
                fn, &PyTuple_GET_ITEM(args, 0), PyTuple_GET_SIZE(args), NULL);
        }
        else {
            /* `if args: fn(*args) else: fn()` for any other sequence */
            int truthy = PyObject_IsTrue(args);
            PyObject *tuple = truthy > 0 ? PySequence_Tuple(args) : NULL;
            if (tuple != NULL)
                result = PyObject_Call(fn, tuple, NULL);
            else
                result = truthy == 0 ? PyObject_CallNoArgs(fn) : NULL;
            Py_XDECREF(tuple);
        }
        Py_DECREF(fn);
        Py_DECREF(args);
        if (result == NULL) {
            ok = 0;
            break;
        }
        Py_DECREF(result);
    }
    self->running = 0;
    self->fired += fired;
    if (!ok)
        return NULL;
    Py_INCREF(self->now_obj);
    return self->now_obj;
}

static PyObject *
Core_peek(Core *self, PyObject *Py_UNUSED(ignored))
{
    Slot *top = live_top(self);
    if (top == NULL)
        return PyFloat_FromDouble(INFINITY);
    PyObject *when = PyList_GET_ITEM(top->entry, 0);
    Py_INCREF(when);
    return when;
}

/* -- type plumbing ---------------------------------------------------- */

static PyObject *
Core_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    Core *self = (Core *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    self->now_obj = PyFloat_FromDouble(0.0);
    if (self->now_obj == NULL) {
        Py_DECREF(self);
        return NULL;
    }
    return (PyObject *)self;
}

static int
Core_traverse(Core *self, visitproc visit, void *arg)
{
    for (Py_ssize_t i = 0; i < self->size; i++)
        Py_VISIT(self->heap[i].entry);
    return 0;
}

static int
Core_clear(Core *self)
{
    Slot *heap = self->heap;
    Py_ssize_t size = self->size;
    self->heap = NULL;
    self->size = self->cap = 0;
    self->cancelled = 0;
    for (Py_ssize_t i = 0; i < size; i++)
        Py_DECREF(heap[i].entry);
    PyMem_Free(heap);
    return 0;
}

static void
Core_dealloc(Core *self)
{
    PyObject_GC_UnTrack(self);
    if (self->weakreflist != NULL)
        PyObject_ClearWeakRefs((PyObject *)self);
    Core_clear(self);
    Py_CLEAR(self->now_obj);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *
Core_get_scheduled(Core *self, void *closure)
{
    return PyLong_FromLongLong(self->seq);
}

static PyObject *
Core_get_heap_size(Core *self, void *closure)
{
    return PyLong_FromSsize_t(self->size);
}

static PyObject *
Core_get_live_calls(Core *self, void *closure)
{
    return PyLong_FromSsize_t(self->size - self->cancelled);
}

static PyMethodDef Core_methods[] = {
    {"call_at", (PyCFunction)(void (*)(void))Core_call_at, METH_FASTCALL, NULL},
    {"call_later", (PyCFunction)(void (*)(void))Core_call_later, METH_FASTCALL, NULL},
    {"call_soon", (PyCFunction)(void (*)(void))Core_call_soon, METH_FASTCALL, NULL},
    {"schedule_batch", (PyCFunction)Core_schedule_batch, METH_O, NULL},
    {"cancel_call", (PyCFunction)Core_cancel_call, METH_O, NULL},
    {"_run", (PyCFunction)Core_run_core, METH_O, NULL},
    {"peek", (PyCFunction)Core_peek, METH_NOARGS, NULL},
    {NULL},
};

static PyMemberDef Core_members[] = {
    {"now", T_OBJECT_EX, offsetof(Core, now_obj), READONLY, NULL},
    {"_now", T_OBJECT_EX, offsetof(Core, now_obj), READONLY, NULL},
    {"events_fired", T_LONGLONG, offsetof(Core, fired), READONLY, NULL},
    {"events_cancelled", T_LONGLONG, offsetof(Core, cancelled_total), READONLY, NULL},
    {"compactions", T_LONGLONG, offsetof(Core, compactions), READONLY, NULL},
    {NULL},
};

static PyGetSetDef Core_getset[] = {
    {"events_scheduled", (getter)Core_get_scheduled, NULL, NULL, NULL},
    {"heap_size", (getter)Core_get_heap_size, NULL, NULL, NULL},
    {"live_calls", (getter)Core_get_live_calls, NULL, NULL, NULL},
    {NULL},
};

static PyTypeObject CoreType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._kernel.Core",
    .tp_basicsize = sizeof(Core),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE | Py_TPFLAGS_HAVE_GC,
    .tp_new = Core_new,
    .tp_dealloc = (destructor)Core_dealloc,
    .tp_traverse = (traverseproc)Core_traverse,
    .tp_clear = (inquiry)Core_clear,
    .tp_weaklistoffset = offsetof(Core, weakreflist),
    .tp_methods = Core_methods,
    .tp_members = Core_members,
    .tp_getset = Core_getset,
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT, "_kernel", NULL, -1, NULL,
};

PyMODINIT_FUNC
PyInit__kernel(void)
{
    PyObject *errors = PyImport_ImportModule("repro.common.errors");
    if (errors == NULL)
        return NULL;
    SimulationError = PyObject_GetAttrString(errors, "SimulationError");
    Py_DECREF(errors);
    Zero = PyLong_FromLong(0);
    if (SimulationError == NULL || Zero == NULL || PyType_Ready(&CoreType) < 0)
        return NULL;
    PyObject *m = PyModule_Create(&kernel_module);
    if (m == NULL)
        return NULL;
    Py_INCREF(&CoreType);
    if (PyModule_AddObject(m, "Core", (PyObject *)&CoreType) < 0) {
        Py_DECREF(&CoreType);
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
