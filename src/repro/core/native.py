"""A forward step's tail in one native pass (paper §4.5 on the host).

The QGTC kernel applies the rank-1 dequantization epilogue and the next
layer's quantize before anything goes back to memory.  On the host, a
bound forward step (:func:`repro.gnn.quantized.execute_forward_plan`)
does the same through :func:`bind_tail`: one call reads the GEMM product
once, applies the epilogue terms in the NumPy path's order, the ReLU, and
Eq. 2 with the next step's frozen parameters, and writes that step's
codes straight into its exact dtype together with their (exact, integer)
row sums — or, for the last step, the float64 logits.  No float64
activation is materialised between steps.  :func:`bind_quantize` is the
quantize-only entry (step 0, from the features).

Every operation is the NumPy path's, element by element and in its order,
so the results are equal bit for bit: the product widened to float64,
``x * s``, each term added in its own rounding (``-ffp-contract=off``
keeps GCC from fusing a multiply-add), ``np.maximum(x, 0.0)``, then
``(x - alpha_min) / scale``, ``floor`` and the clip — at one bit too,
where it is code for code :func:`~repro.core.quantization.quantize_into`'s
``x >= threshold`` (that is how ``QuantParams.threshold`` is defined).
``-ffast-math`` would reorder them and is never used;
``-fno-trapping-math`` lets GCC vectorise the selects.

The source is compiled once per process by :func:`load` with the system C
compiler and opened with :mod:`ctypes`; without a compiler :func:`load`
returns ``None`` (one ``native_tail_unavailable`` event) and the callers
keep the NumPy path, which stays the reference.
"""

from __future__ import annotations

import ctypes
import os
import subprocess
import tempfile
import threading

import numpy as np

from ..errors import BitwidthError, ShapeError
from ..telemetry import emit_event
from .quantization import QuantParams

__all__ = ["SOURCE", "bind_quantize", "bind_tail", "load"]

#: The compiler :func:`load` runs, and its flags (see the module doc).
COMPILER = "cc"
FLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-fno-math-errno",
         "-fno-trapping-math", "-shared", "-fPIC")

SOURCE = r"""
#include <math.h>
#include <stddef.h>
#include <stdint.h>

/* What a step's tail reads besides its product, bound once per step.  One
   epilogue form serves every step: an aggregate step's row term is
   1.0 * (c_x degree) and its column terms are -0.0, the quantize-only entry
   has scale 1.0 and -0.0 terms (no row term is -0.0) — x * 1.0 and
   x + -0.0 are exact identities, signed zeros included. */
typedef struct {
    ptrdiff_t n, m;            /* the product's rows and columns */
    int relu;
    int one_bit;               /* a 1-bit code of -0.0 is +0.0 (a compare) */
    double scale, row_scale, constant;
    const double *rows;        /* the row term when a call passes no row sums */
    const double *cols, *bias; /* one per column */
    double alpha_min, step, top;   /* the next step's Eq. 2 */
} tail_args;

/* Epilogue, ReLU and Eq. 2 into the next step's codes and their row sums,
   or with QUANTIZE 0 the epilogue's float64 values (the logits); returns 1
   when an activation is NaN.  The fields are read into locals first: as far
   as the compiler can tell, the stores into the outputs could alias them,
   which would keep it from vectorising. */
#define TAIL(NAME, P, C, ACC, QUANTIZE)                                        \
int NAME(const tail_args *a, const P *restrict in, const double *sums,         \
         C *restrict out, double *restrict out_sums)                           \
{                                                                              \
    const ptrdiff_t n = a->n, m = a->m;                                        \
    const int relu = a->relu, quantize = QUANTIZE, one_bit = a->one_bit;       \
    const double scale = a->scale, row_scale = a->row_scale;                   \
    const double constant = a->constant, lo = a->alpha_min;                    \
    const double step = a->step, top = a->top;                                 \
    const double *restrict rows = sums ? sums : a->rows;                       \
    const double *restrict cols = a->cols, *restrict bias = a->bias;           \
    int nan = 0;                                                               \
    for (ptrdiff_t r = 0; r < n; ++r) {                                        \
        const double row = rows ? row_scale * rows[r] : -0.0;                  \
        ACC acc = 0;                                                           \
        for (ptrdiff_t c = 0; c < m; ++c) {                                    \
            /* One rounding per NumPy in-place operation, then                 \
               np.maximum(x, 0.0): NaN stays, a zero of either sign is +0.0. */ \
            double x = (double)in[r * m + c] * scale;                          \
            x = x + row;                                                       \
            x = x + cols[c];                                                   \
            x = x + constant;                                                  \
            x = x + bias[c];                                                   \
            x = relu && !(x > 0.0 || x != x) ? 0.0 : x;                        \
            nan |= x != x;                                                     \
            /* The clip keeps a -0.0 (but a 1-bit code is a compare's +0.0)    \
               and writes a defined 0 for NaN, which the caller raises on. */  \
            double q = floor((x - lo) / step);                                 \
            q = q >= 0.0 && !(one_bit && q == 0.0) ? q : 0.0;                  \
            q = q > top ? top : q;                                             \
            out[r * m + c] = (C)(quantize ? q : x);                            \
            acc += (ACC)q;                                                     \
        }                                                                      \
        if (quantize && out_sums)                                              \
            out_sums[r] = (double)acc;                                         \
    }                                                                          \
    return quantize && nan;                                                    \
}

/* Row sums of float32 codes are below 2**24 (the exact-dtype bound), so an
   int32 accumulator is exact; wider codes accumulate in int64. */
TAIL(tail_float32_float32, float, float, int32_t, 1)
TAIL(tail_float32_float64, float, double, int64_t, 1)
TAIL(tail_float32_int64, float, int64_t, int64_t, 1)
TAIL(tail_float64_float32, double, float, int32_t, 1)
TAIL(tail_float64_float64, double, double, int64_t, 1)
TAIL(tail_float64_int64, double, int64_t, int64_t, 1)
TAIL(tail_float32_logits, float, double, int64_t, 0)
TAIL(tail_float64_logits, double, double, int64_t, 0)
"""


class _TailArgs(ctypes.Structure):
    _fields_ = [
        ("n", ctypes.c_ssize_t), ("m", ctypes.c_ssize_t),
        ("relu", ctypes.c_int), ("one_bit", ctypes.c_int),
        ("scale", ctypes.c_double), ("row_scale", ctypes.c_double), ("constant", ctypes.c_double),
        ("rows", ctypes.c_void_p), ("cols", ctypes.c_void_p), ("bias", ctypes.c_void_p),
        ("alpha_min", ctypes.c_double), ("step", ctypes.c_double), ("top", ctypes.c_double),
    ]


#: The product dtypes the kernel reads and the code dtypes it writes.
PRODUCT_DTYPES = ("float32", "float64")
CODE_DTYPES = ("float32", "float64", "int64")
_NAMES = {np.dtype(name): name for name in CODE_DTYPES}
_BUFFER = ctypes.POINTER(ctypes.c_char)
_NAN = "cannot quantize NaN: codes must be non-negative integers"
_loaded: list = []  # the library (or None) once :func:`load` has run
_load_lock = threading.Lock()


def load() -> ctypes.CDLL | None:
    """The compiled kernel library: built on the first call in a process
    into a private temporary directory, then reused; ``None`` (and one
    ``native_tail_unavailable`` event) when it cannot be compiled."""
    if not _loaded:
        with _load_lock:
            if not _loaded:
                _loaded.append(_compile())
    return _loaded[0]


def _compile() -> ctypes.CDLL | None:
    try:  # the library's mapping outlives its file and directory
        with tempfile.TemporaryDirectory(prefix="repro-native-", ignore_cleanup_errors=True) as directory:
            source, library = (os.path.join(directory, name) for name in ("tail.c", "tail.so"))
            with open(source, "w") as f:
                f.write(SOURCE)
            subprocess.run([COMPILER, *FLAGS, "-o", library, source],
                           check=True, capture_output=True, text=True, timeout=120)
            lib = ctypes.CDLL(library)
    except (OSError, subprocess.SubprocessError) as exc:
        detail = getattr(exc, "stderr", None) or exc
        emit_event(__name__, "native_tail_unavailable", compiler=COMPILER,
                   reason=str(detail).strip()[-500:])
        return None
    for product in PRODUCT_DTYPES:
        for out in (*CODE_DTYPES, "logits"):
            fn = getattr(lib, f"tail_{product}_{out}")
            fn.argtypes = (ctypes.POINTER(_TailArgs), _BUFFER, _BUFFER, _BUFFER, _BUFFER)
            fn.restype = ctypes.c_int
    return lib


def _buffer(array: np.ndarray | None):
    """``array``'s memory as a ctypes argument (``None`` for NULL); a
    read-only or strided array is read from a C-ordered copy."""
    if array is None:
        return None
    if not array.flags.carray:
        array = np.array(array, order="C")
    return ctypes.byref(ctypes.c_char.from_buffer(array))


class _Bound:
    """One native entry with its arguments bound: the constants' addresses
    are taken once, here; a call checks its operands, allocates its outputs
    and makes one foreign call.  It pickles as its recipe and rebinds where
    it lands, so no address crosses a process."""

    __slots__ = ("_recipe", "_fn", "_args", "_keep", "_in", "_rows", "_out", "_sums")

    def __init__(self, recipe, fn, args, keep, values, rows, out, sums):
        self._recipe, self._fn, self._args, self._keep = recipe, fn, ctypes.pointer(args), keep
        self._in, self._rows, self._out, self._sums = values, rows, out, sums

    def __reduce__(self):
        return self._recipe

    def __call__(self, values: np.ndarray, sums: np.ndarray | None = None):
        """``(outputs, their row sums or None)`` of ``values`` — the
        product (with the step's own codes' row sums on an update step) or,
        for the quantize-only entry, the activation."""
        dtype, shape = self._in
        if values.shape != shape or values.dtype != dtype:
            raise ShapeError(f"bound for a {dtype} {shape} operand, got a {values.dtype} {values.shape} one")
        if self._rows is not None and (sums is None or sums.shape != self._rows or sums.dtype != np.float64):
            raise ShapeError(f"an update step's tail reads its codes' {self._rows} float64 row sums")
        out = np.empty(*self._out)
        out_sums = np.empty(shape[0]) if self._sums else None
        if self._fn(self._args, _buffer(values), _buffer(sums if self._rows else None),
                    _buffer(out), _buffer(out_sums)):
            raise BitwidthError(_NAN)
        return out, out_sums


def _float64(term, shape: tuple[int, int]) -> np.ndarray:
    """``term`` as a C-ordered float64 array of ``shape``: itself when it
    already is one (read by reference, as the NumPy tail reads it)."""
    if (isinstance(term, np.ndarray) and term.shape == shape and term.dtype == np.float64
            and term.flags.c_contiguous):
        return term
    array = np.empty(shape)
    array[...] = term
    return array


def bind_quantize(params: QuantParams, dtype, shape: tuple[int, int], sums: bool) -> _Bound | None:
    """The quantize-only entry, ``float64 (n, k) -> (codes in dtype, their
    row sums if sums)``: :func:`~repro.core.quantization.quantize_into` and
    the ``(n,)`` row sums, code for code.  ``None`` without the library or
    for a dtype it does not write."""
    recipe = (bind_quantize, (params, dtype, shape, sums))
    identity = (1.0, 1.0, None, -0.0, -0.0, -0.0)  # x * 1.0 and x + -0.0 are x
    return _bind(recipe, np.float64, shape, identity, False, params, dtype, sums, False)


def bind_tail(
    product, shape: tuple[int, int], epilogue: tuple, relu: bool,
    params: QuantParams | None = None, dtype=None, sums: bool = False,
) -> _Bound | None:
    """A step's tail: ``product (n, m)`` through ``epilogue`` — ``(s, c
    degree)`` of an aggregate step, or ``(s, row scale, ones, column terms,
    constant, bias)`` of an update step, which also reads its codes' row
    sums — and the ReLU, into the next step's codes under ``params`` in
    ``dtype`` (with their row sums if ``sums``) or, without ``params``, into
    the float64 logits.  ``None`` without the library, for a dtype it does
    not take or for terms that are not one per row / per column."""
    recipe = (bind_tail, (product, shape, epilogue, relu, params, dtype, sums))
    update = len(epilogue) != 2  # an aggregate step has no codes' row sums, no column terms
    if update:
        scale, row_scale, _, cols, constant, bias = epilogue
        terms = (scale, row_scale, None, cols, constant, bias)
    else:
        scale, rows = epilogue
        terms = (scale, 1.0, rows, -0.0, -0.0, -0.0)
    return _bind(recipe, product, shape, terms, relu, params, dtype, sums, update)


def _bind(recipe, product, shape, terms, relu, params, dtype, sums, reads_sums) -> _Bound | None:
    lib, product, out = load(), np.dtype(product), np.dtype(np.float64 if params is None else dtype)
    n, m = shape
    if lib is None or _NAMES.get(product) not in PRODUCT_DTYPES or out not in _NAMES or not n * m:
        return None
    if out == np.float32 and m * (params.levels - 1) >= 1 << 24:  # a row sum float32 rounds
        return None
    scale, row_scale, rows, cols, constant, bias = terms
    try:
        keep = [None if term is None else _float64(term, to)
                for term, to in ((rows, (n, 1)), (cols, (1, m)), (bias, (1, m)))]
    except ValueError:  # a term that is not one per row / per column
        return None
    rows, cols, bias = (None if a is None else a.ctypes.data for a in keep)
    args = _TailArgs(n=n, m=m, relu=relu, scale=scale, row_scale=row_scale,
                     constant=constant, rows=rows, cols=cols, bias=bias)
    if params is not None:
        args.one_bit, args.top = params.bits == 1, params.levels - 1
        args.alpha_min, args.step = params.alpha_min, params.scale
    name = _NAMES[out] if params is not None else "logits"
    return _Bound(recipe, getattr(lib, f"tail_{_NAMES[product]}_{name}"), args, keep,
                  (product, shape), (n,) if reads_sums else None, (shape, out),
                  sums and params is not None)
