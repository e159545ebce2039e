"""A forward step's tail (an aggregate step's product with it), or a batch
adjacency, in one native pass (paper §4.5, §4.3).

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
keeps GCC from fusing a multiply-add; ``-0.0`` terms, an aggregate
step's and the quantize-only entry's, are skipped: ``x + -0.0`` is
``x``), ``np.maximum(x, 0.0)``, then ``(x - alpha_min) / scale``,
``floor`` and the clip — or, at one bit,
:func:`~repro.core.quantization.quantize_into`'s one compare
``x >= QuantParams.threshold`` (the divide form's code, by the threshold's
definition).  ``-ffast-math`` would reorder them and is never used;
``-fno-trapping-math`` lets GCC vectorise the selects.

A 1-bit tail bound with a ``bound`` (:func:`bind_tail`; the executor's
tails from 1-bit codes into 1-bit codes) runs no epilogue: its code is
``p >= T[v, c]`` — ``p`` the exact integer product, ``v`` the row's code
sum or degree, ``T`` bound once per step: for each ``v <= bound`` and
column ``c`` (one without column terms) the least ``p`` whose code is 1.
Bit for bit the float loop's code: ``x * s`` with ``s >= 0``, the rounded
adds, the ReLU and ``>=`` are monotone non-decreasing in ``p``, and with
``s * p`` and every term finite (or no table is bound) ``x`` is never NaN.

An entry that writes row sums writes an update step's left operand, and
takes its §4.3 census in the same pass: it counts the live ``8 x 128``
tiles (8-row groups by 128-column blocks; codes are non-negative, so a
tile is live iff its code sum is not zero).  :meth:`_Bound.run` returns
the count beside the codes; the shared entry keeps it nowhere.

Given an aggregate step's adjacency (the int32 CSR of the binary ``A +
I``, or the list of its diagonal blocks, :func:`bind_blocks`), a tail
entry takes the step's codes in place of its product (:meth:`_Bound.run`'s
``csr``) and gathers each tile's product on the stack, up to 16 columns in
registers at a time: no aggregate product reaches memory.  Sums of integer
codes within the exact-dtype bound are exact in any order, so the bits are
scipy's ``csr @ codes`` and the tail's.  A batch is a view of its members:
the gather walks each member's self-looped CSR at its node offset, and the
quantize-only entry reads each member's float32 or float64 feature rows
(:class:`Rows`) — no batch CSR and no feature matrix is written.  A
member's arrays are addressed once, in its :func:`csr_record` /
:func:`feature_rows`, and what holds an address holds its array: a block
its record, a :class:`Rows` or a :func:`bind_blocks` binding its table.

A bound program's warm round is one call (:func:`bind_program`): a table
of its steps' entries — each update step's GEMM the ``sgemm``/``dgemm``
NumPy's own OpenBLAS exports (:func:`blas_gemm`), by address: ``@``'s
kernel, and exact in any order — run in turn over an arena the round
allocates, writing a ``perf_counter``-clock stamp at each phase boundary.

The other kind of entry, :func:`adjacency`, censuses: it checks a batch's
member CSRs and writes each row's degree and the census of the tiles its
entries fall in (the §4.3 ballot taken as subgraphs are packed).

The source is compiled by :func:`load` with the system C compiler, kept
in a per-user cache under its digest (:func:`_cache_path`) and opened with
:mod:`ctypes`; without a compiler :func:`load` returns ``None`` (one
``native_tail_unavailable`` event) and the callers keep the NumPy path,
which stays the reference.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import hashlib
import os
import shutil
import struct
import subprocess
import tempfile
import threading
from typing import NamedTuple

import numpy as np

from ..errors import BitwidthError, ShapeError
from ..telemetry import emit_event
from .quantization import QuantParams

__all__ = ["SOURCE", "Rows", "adjacency", "bind_blocks", "bind_csr", "bind_quantize", "bind_tail",
           "csr_record", "feature_rows", "load", "member_rows"]

#: The compiler :func:`load` runs, and its flags (see the module doc).
COMPILER = "cc"
FLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-fno-math-errno",
         "-fno-trapping-math", "-shared", "-fPIC")

SOURCE = r"""
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <time.h>

/* What a step's tail reads besides its product, bound once per step.  One
   epilogue form serves every step: an aggregate step's row term is
   c_x * degree (the degrees passed per call, where an update step passes its
   codes' row sums) and its column terms are -0.0, the quantize-only entry
   has scale 1.0 and -0.0 terms (no row term is -0.0) — x * 1.0 and
   x + -0.0 are exact identities, signed zeros included (TERMS 0 skips). */
typedef struct {
    ptrdiff_t n, m;            /* the product's rows and columns */
    int relu;
    int one_bit;               /* a code is x >= threshold, not Eq. 2's divide */
    int terms;                 /* 0: the column, constant and bias terms are -0.0 */
    double scale, row_scale, constant;
    const double *rows;        /* the row term when a call passes no row sums */
    const double *cols, *bias; /* one per column */
    double alpha_min, step, top, threshold;   /* the next step's Eq. 2 */
    const void *table;         /* the threshold form's (see THRESHOLDS), or NULL */
    ptrdiff_t bound;           /* its largest row context */
} tail_args;

/* The epilogue of product P in one rounding per NumPy in-place operation,
   then np.maximum(x, 0.0) (NaN stays, a zero of either sign is +0.0). */
#define EPILOGUE(X, P, TERMS)                                                  \
    X = (double)(P) * scale;                                                   \
    X = X + row;                                                               \
    if (TERMS) /* three roundings, as NumPy's three in-place adds */           \
        X = X + cols[c], X = X + constant, X = X + bias[c];                    \
    X = relu && !(X > 0.0 || X != X) ? 0.0 : X;

/* The element loop: the epilogue, then the code q by CODE — a compare, or
   Eq. 2's divide and a clip that keeps a -0.0; both write a defined 0 for
   NaN, which the caller raises on.  One loop per CODE: a branch inside it
   kept GCC from vectorising (TERMS, loop-invariant, GCC unswitches). */
#define ELEMENT(CODE, C, ACC, TERMS)                                           \
    for (ptrdiff_t c = c0; c < c1; ++c) {                                      \
        double x, q;                                                           \
        EPILOGUE(x, src[c - c0], TERMS)                                        \
        nan |= x != x;                                                         \
        CODE                                                                   \
        out[r * m + c] = (C)(quantize ? q : x);                                \
        block += (ACC)q;                                                       \
    }
#define COMPARE q = x >= threshold ? 1.0 : 0.0;
#define DIVIDE q = floor((x - lo) / step); q = q >= 0.0 ? q : 0.0; q = q > top ? top : q;

/* The threshold form (the module doc): the product against its row's T. */
#define THRESHOLD(P, C, ACC, T)                                                \
    for (ptrdiff_t c = c0; c < c1; ++c) {                                      \
        const P q = src[c - c0] >= (T) ? 1 : 0;                                \
        out[r * m + c] = (C)q;                                                 \
        block += (ACC)q;                                                       \
    }

/* T in P, by row context v <= bound and column: the least integer p in
   [0, PMAX] whose code is 1, PMAX + 1 if none — the epilogue solved for p,
   checked on both sides, else a bisection.  Returns 0, writing nothing,
   unless s >= 0 and s * p, every term and the threshold are finite. */
#define ESTIMATE(I, V, C) {                                                    \
        const ptrdiff_t c = C;                                                 \
        const double row = row_scale * (double)(V);                            \
        double p = ceil((threshold - row - cols[c] - constant - bias[c]) / scale), x, y; \
        p = p > 0.0 ? (p <= pmax ? p : pmax + 1.0) : 0.0;                      \
        EPILOGUE(x, p, 1)                                                      \
        EPILOGUE(y, p - 1.0, 1)                                                \
        table[I] = (x >= threshold || p > pmax) && (y < threshold || p == 0.0) ? p : -1.0; \
    }
#define THRESHOLDS(NAME, P)                                                    \
int NAME(const tail_args *a, double pmax, P *restrict table)                   \
{                                                                              \
    const ptrdiff_t m = a->m, width = a->terms ? m : 1, bound = a->bound;      \
    const int relu = a->relu;                                                  \
    const double scale = a->scale, row_scale = a->row_scale, constant = a->constant; \
    const double threshold = a->threshold, *cols = a->cols, *bias = a->bias;  \
    int finite = scale >= 0.0 && isfinite(scale * (pmax + 1.0)) && isfinite(row_scale * bound); \
    for (ptrdiff_t c = 0; c < m; ++c)                                          \
        finite &= isfinite(cols[c]) && isfinite(bias[c]);                      \
    if (!finite || !isfinite(constant) || !isfinite(threshold))                \
        return 0;                                                              \
    for (ptrdiff_t v = 0; v <= bound && width == 1; ++v) /* each loop vectorises */ \
        ESTIMATE(v, v, 0)                                                      \
    for (ptrdiff_t v = 0; v <= bound && width > 1; ++v)                        \
        for (ptrdiff_t j = 0; j < width; ++j)                                  \
            ESTIMATE(v * width + j, v, j)                                      \
    for (ptrdiff_t i = 0; i < (bound + 1) * width; ++i)                        \
        if (table[i] < 0.0) {                                                  \
            const ptrdiff_t c = i % width;                                     \
            const double row = row_scale * (double)(i / width);                \
            double lo = -1.0, hi = pmax + 1.0, p, x;                           \
            while (hi - lo > 1.0) {                                            \
                p = floor((lo + hi) / 2.0);                                    \
                EPILOGUE(x, p, 1)                                              \
                *(x >= threshold ? &hi : &lo) = p;                             \
            }                                                                  \
            table[i] = hi;                                                     \
        }                                                                      \
    return 1;                                                                  \
}
THRESHOLDS(thresholds_float32, float)
THRESHOLDS(thresholds_float64, double)

/* Row blocks: t[0] of them, four words each from t + 1, one after the
   other — a member's CSR of ones (pointers, indices, rows, entries; its
   columns are its own rows) or its feature rows (address, bytes per element,
   rows, columns).  A walk holds its block and the block's first row. */
typedef struct { const ptrdiff_t *g; ptrdiff_t base; } walk;
#define SEEK(W, R) while ((R) >= (W).base + (W).g[2]) (W).base += (W).g[2], (W).g += 4

/* Whether T's blocks are N rows in all, and — for feature rows, COLUMNS >=
   0 — each block COLUMNS wide in float32 or float64. */
static int covers(const ptrdiff_t *t, ptrdiff_t n, ptrdiff_t columns)
{
    ptrdiff_t rows = 0;
    for (const ptrdiff_t *g = t + 1; g < t + 1 + 4 * t[0]; g += 4) {
        if (g[2] < 0 || (columns >= 0 && (g[3] != columns || (g[1] != 4 && g[1] != 8))))
            return 0;
        rows += g[2];
    }
    return rows == n;
}

/* Rows r0..r1, columns c0..c1 of A @ in (A block diagonal, its blocks
   binary CSRs walked from W) into TILE, 128 to a row: a row's neighbours'
   codes, in its block's rows of IN, summed W = 16, 8, 4, then 1 columns at
   a time in registers, in the product's dtype — exact in any order, and
   from +0.0 as scipy's sums (a -0.0 code adds as +0.0), so scipy's bits. */
#define BLOCK(P, W)                                                            \
    for (; c1 - b >= W; b += W) {                                              \
        typedef P block __attribute__((vector_size(W * sizeof(P))));           \
        block acc = {0}, x;                                                    \
        for (const int32_t *e = e0; e < e1; ++e) {                             \
            __builtin_memcpy(&x, src + *e * m + b, sizeof x);                  \
            acc += x;                                                          \
        }                                                                      \
        __builtin_memcpy(row + b - c0, &acc, sizeof acc);                      \
    }
#define GATHER(P)                                                              \
static void gather_##P(const P *restrict in, ptrdiff_t m, walk w, ptrdiff_t r0, \
                       ptrdiff_t r1, ptrdiff_t c0, ptrdiff_t c1, P *restrict tile) \
{                                                                              \
    for (ptrdiff_t r = r0; r < r1; ++r) {                                      \
        SEEK(w, r);                                                            \
        const int32_t *ptr = (const int32_t *)w.g[0] + (r - w.base);           \
        const int32_t *e0 = (const int32_t *)w.g[1] + ptr[0];                  \
        const int32_t *e1 = (const int32_t *)w.g[1] + ptr[1];                  \
        const P *src = in + w.base * m;                                        \
        P *row = tile + (r - r0) * 128;                                        \
        ptrdiff_t b = c0;                                                      \
        BLOCK(P, 16)                                                           \
        BLOCK(P, 8)                                                            \
        BLOCK(P, 4)                                                            \
        for (; b < c1; ++b) {                                                  \
            P acc = 0;                                                         \
            for (const int32_t *e = e0; e < e1; ++e)                           \
                acc += src[*e * m + b];                                        \
            row[b - c0] = acc;                                                 \
        }                                                                      \
    }                                                                          \
}
GATHER(float)
GATHER(double)

/* Rows r0..r1, columns c0..c1 of the feature rows walked from W, at *LD to
   a row: read in place when they are whole rows of one float64 block, else
   copied into TILE (float32 widened exactly, as NumPy widens it) — each
   block's whole rows in one span. */
static const double *feature_rows(walk w, ptrdiff_t m, ptrdiff_t r0, ptrdiff_t r1, ptrdiff_t c0,
                                  ptrdiff_t c1, double *restrict tile, ptrdiff_t *ld)
{
    const int whole = c1 - c0 == m;   /* then m <= 128, and a tile row is a feature row */
    *ld = whole ? m : 128;
    for (ptrdiff_t r = r0; r < r1;) {
        SEEK(w, r);
        const ptrdiff_t end = r1 < w.base + w.g[2] ? r1 : w.base + w.g[2];
        const ptrdiff_t rows = whole ? 1 : end - r, span = whole ? (end - r) * m : c1 - c0;
        const char *at = (const char *)w.g[0] + ((r - w.base) * m + c0) * w.g[1];
        if (whole && w.g[1] == 8 && r == r0 && end == r1)
            return (const double *)at;
        for (ptrdiff_t i = 0; i < rows; ++i, at += m * w.g[1]) {
            double *to = tile + (r - r0 + i) * *ld;
            if (w.g[1] == 4)
                for (ptrdiff_t c = 0; c < span; ++c)
                    to[c] = ((const float *)at)[c];
            else
                for (ptrdiff_t c = 0; c < span; ++c)
                    to[c] = ((const double *)at)[c];
        }
        r = end;
    }
    return tile;
}

/* Epilogue, ReLU and Eq. 2 into the next step's codes and their row sums,
   or with QUANTIZE 0 the epilogue's float64 values (the logits).  The
   elements are visited tile by tile (8-row groups by 128-column blocks) so
   that a call writing row sums also counts the live tiles of its codes; it
   returns that count (0 for a call without row sums), -1 when an
   activation is NaN or -2 for blocks that are not the n x m operand.  IN
   is a dense product unless INDPTR is given: then IN is an aggregate
   step's codes and each tile's product is gathered on the stack, never
   written out, through the binary CSR (INDPTR, INDICES) or, with INDICES
   NULL, through the CSR blocks INDPTR lists; with IN NULL it is read from
   the feature rows INDPTR lists.  The fields are read into
   locals first: as far as the compiler can tell, the stores into the
   outputs could alias them, which would keep it from vectorising. */
#define TAIL(NAME, P, C, ACC, QUANTIZE)                                        \
ptrdiff_t NAME(const tail_args *a, const P *restrict in, const double *sums,   \
               C *restrict out, double *restrict out_sums,                     \
               const int32_t *indptr, const int32_t *indices)                  \
{                                                                              \
    const ptrdiff_t n = a->n, m = a->m;                                        \
    const int relu = a->relu, quantize = QUANTIZE, one_bit = a->one_bit, terms = a->terms; \
    const P *restrict table = quantize ? a->table : 0;                         \
    const double bound = a->bound, scale = a->scale, row_scale = a->row_scale; \
    const double constant = a->constant, lo = a->alpha_min;                    \
    const double step = a->step, top = a->top, threshold = a->threshold;       \
    const double *restrict rows = sums ? sums : a->rows;                       \
    const double *restrict cols = a->cols, *restrict bias = a->bias;           \
    ptrdiff_t live = 0, one[5] = {1, (ptrdiff_t)indptr, (ptrdiff_t)indices, n, 0}; \
    walk w = {indices ? one + 1 : indptr ? (const ptrdiff_t *)indptr + 1 : 0, 0}; \
    int nan = 0;                                                               \
    P tile[8 * 128];                                                           \
    if (indptr && !covers(w.g - 1, n, in ? -1 : m))                            \
        return -2;                                                             \
    for (ptrdiff_t r0 = 0; r0 < n; r0 += 8) {                                  \
        const ptrdiff_t r1 = n - r0 < 8 ? n : r0 + 8;                          \
        ACC acc[8] = {0};                                                      \
        if (indptr)                                                            \
            SEEK(w, r0);                                                       \
        for (ptrdiff_t c0 = 0; c0 < m; c0 += 128) {                            \
            const ptrdiff_t c1 = m - c0 < 128 ? m : c0 + 128;                  \
            const P *t = tile;                                                 \
            ptrdiff_t ld = 128;                                                \
            if (!indptr)                                                       \
                t = in + r0 * m + c0, ld = m;                                  \
            else if (in)                                                       \
                gather_##P(in, m, w, r0, r1, c0, c1, tile);                    \
            else if (sizeof(P) == sizeof(double)) /* the quantize-only entry */ \
                t = (const P *)feature_rows(w, m, r0, r1, c0, c1, (double *)tile, &ld); \
            int any = 0;                                                       \
            for (ptrdiff_t r = r0; r < r1; ++r) {                              \
                const double v = rows ? rows[r] : -1.0, row = rows ? row_scale * v : -0.0; \
                const P *restrict th = table && v >= 0.0 && v <= bound         \
                    && v == (double)(ptrdiff_t)v ? table + (ptrdiff_t)v * (terms ? m : 1) : 0; \
                const P *src = t + (r - r0) * ld;                              \
                ACC block = 0;                                                 \
                if (th && terms)                                               \
                    THRESHOLD(P, C, ACC, th[c])                                \
                else if (th) {                                                 \
                    const P bar = *th;                                         \
                    THRESHOLD(P, C, ACC, bar)                                  \
                } else if (one_bit)                                            \
                    ELEMENT(COMPARE, C, ACC, terms)                            \
                else                                                           \
                    ELEMENT(DIVIDE, C, ACC, terms)                             \
                acc[r - r0] += block;                                          \
                any |= block != 0;                                             \
            }                                                                  \
            live += any;                                                       \
        }                                                                      \
        if (quantize && out_sums)                                              \
            for (ptrdiff_t r = r0; r < r1; ++r)                                \
                out_sums[r] = (double)acc[r - r0];                             \
    }                                                                          \
    return quantize && nan ? -1 : quantize && out_sums ? live : 0;             \
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

/* A bound program's warm round in one call.  T: the step count, step 0's
   quantize-only entry (arguments, function, arena offsets of its codes and
   row sums), then each STEP: an update step's product is BLAS's (sgemm, or
   dgemm if WIDE) of its codes and k x m weights, an aggregate step's tail
   gathers it; offset -1 is no row sums (OUT: the logits).  Writes a stamp at
   each boundary of the replay layout after materialize and each step's
   operand's live tiles; returns 0 or the failing entry's code. */
typedef ptrdiff_t (*tail_fn)(const tail_args *, const void *, const double *, void *, double *,
                             const int32_t *, const int32_t *);
typedef struct {
    ptrdiff_t args, tail, gemm, wide, weights, k, degrees, blocks, codes, sums, product, out, out_sums, relu;
} step;
#define GEMM(T) ((void (*)(int, int, int, int64_t, int64_t, int64_t, T, const T *, int64_t, const T *,  \
                           int64_t, T, T *, int64_t))s->gemm)(101, 111, 111, a->n, a->m, s->k, 1,        \
                                                              codes, s->k, weights, a->m, 0, p, a->m)
#define AT(OFF) ((OFF) < 0 ? 0 : arena + (OFF))

static double now(void)   /* perf_counter's: CLOCK_MONOTONIC nanoseconds / 1e9 */
{
    struct timespec t;
    return clock_gettime(CLOCK_MONOTONIC, &t), (double)(t.tv_sec * 1000000000LL + t.tv_nsec) / 1e9;
}

ptrdiff_t run_program(const ptrdiff_t *t, const int32_t *rows, char *arena, double *logits,
                      double *stamps, ptrdiff_t *lives)
{
    *stamps++ = now();
    ptrdiff_t live = ((tail_fn)t[2])((const tail_args *)t[1], 0, 0, arena + t[3], (double *)AT(t[4]), rows, 0);
    for (const step *s = (const step *)(t + 5), *end = s + t[0]; s < end && live >= 0; ++s) {
        const tail_args *a = (const tail_args *)s->args;
        const void *codes = arena + s->codes, *weights = (const void *)s->weights;
        void *p = arena + s->product, *out = s->out < 0 ? (void *)logits : arena + s->out;
        *lives++ = live;
        for (int i = 0; i < 3; ++i)   /* quantize (step 0's ran above), pack, census */
            *stamps++ = now();
        if (s->gemm) {
            s->wide ? GEMM(double) : GEMM(float);
            *stamps++ = now();
        }
        live = ((tail_fn)s->tail)(a, s->gemm ? p : codes, s->gemm ? (const double *)AT(s->sums)
                                  : (const double *)s->degrees, out, (double *)AT(s->out_sums),
                                  (const int32_t *)s->blocks, 0);
        if (!s->gemm)   /* the gathering tail is the aggregate step's gemm interval */
            *stamps++ = now();
        *stamps++ = now();
        if (s->relu)
            *stamps++ = now();
    }
    return live < 0 ? live : 0;
}

/* The degrees of the block-diagonal CSR of T's blocks (its rows' entry
   counts) and a 1 per 8 x 128 tile (kt to a row group) an entry falls in.
   Returns the entries, or -1 at a pointer out of order or a row not
   strictly increasing in its block. */
ptrdiff_t adjacency(const ptrdiff_t *t, ptrdiff_t kt, double *restrict degrees, unsigned char *restrict mask)
{
    ptrdiff_t row = 0, nnz = 0;
    for (const ptrdiff_t *g = t + 1; g < t + 1 + 4 * t[0]; g += 4, nnz += g[-1]) {
        const int32_t *ptr = (const int32_t *)g[0], *idx = (const int32_t *)g[1];
        const ptrdiff_t size = g[2], stored = g[3], base = row;
        if (ptr[0] != 0 || ptr[size] != stored)
            return -1;
        for (ptrdiff_t r = 0; r < size; ++r, ++row) {
            const ptrdiff_t lo = ptr[r], hi = ptr[r + 1];
            if (hi < lo || hi > stored)
                return -1;
            for (ptrdiff_t e = lo, last = -1; e < hi; last = idx[e++]) {
                if (idx[e] <= last || idx[e] >= size)
                    return -1;
                mask[row / 8 * kt + (base + idx[e]) / 128] = 1;
            }
            degrees[row] = (double)(hi - lo);
        }
    }
    return nnz;
}
"""


class _TailArgs(ctypes.Structure):
    _fields_ = [
        ("n", ctypes.c_ssize_t), ("m", ctypes.c_ssize_t),
        ("relu", ctypes.c_int), ("one_bit", ctypes.c_int), ("terms", ctypes.c_int),
        ("scale", ctypes.c_double), ("row_scale", ctypes.c_double), ("constant", ctypes.c_double),
        ("rows", ctypes.c_void_p), ("cols", ctypes.c_void_p), ("bias", ctypes.c_void_p),
        ("alpha_min", ctypes.c_double), ("step", ctypes.c_double), ("top", ctypes.c_double),
        ("threshold", ctypes.c_double), ("table", ctypes.c_void_p), ("bound", ctypes.c_ssize_t),
    ]


#: The product dtypes the kernel reads and the code dtypes it writes.
PRODUCT_DTYPES = ("float32", "float64")
CODE_DTYPES = ("float32", "float64", "int64")
_NAMES = {np.dtype(name): name for name in CODE_DTYPES}
_NAN = "cannot quantize NaN: codes must be non-negative integers"
_WORD = struct.calcsize("n")  # a row-block table's word: C's ptrdiff_t
_loaded: list = []  # the library (or None) once :func:`load` has run
_load_lock = threading.Lock()


def load() -> ctypes.CDLL | None:
    """The compiled kernel library: opened from the per-user cache
    (:func:`_cache_path`) or built on the first call in a process into a
    private temporary directory and cached, then reused; ``None`` (and one
    ``native_tail_unavailable`` event) when it cannot be compiled."""
    if not _loaded:
        with _load_lock:
            if not _loaded:
                _loaded.append(_compile())
    return _loaded[0]


def _cache_path() -> str | None:
    """``$XDG_CACHE_HOME`` (else ``~/.cache``) ``/repro-native/<blake2b>.so``,
    keyed by the source, the compiler, its flags and ``--version`` and the
    CPU's ``flags`` (``-march=native``); ``None`` unless the directory is
    this user's and no one else can write it."""
    directory = os.path.join(os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache"), "repro-native")
    try:
        os.makedirs(directory, mode=0o700, exist_ok=True)
        status = os.stat(directory)
        with subprocess.Popen([COMPILER, "--version"], stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL) as probe:
            version = probe.communicate()[0]
    except (OSError, subprocess.SubprocessError):
        return None
    key = hashlib.blake2b("\0".join([SOURCE, COMPILER, *FLAGS]).encode() + version, digest_size=16)
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo", "rb") as cpu:
            key.update(next((line for line in cpu if line.startswith(b"flags")), b""))
    mine = status.st_uid == os.getuid() and not status.st_mode & 0o022
    return os.path.join(directory, key.hexdigest() + ".so") if mine else None


def _compile() -> ctypes.CDLL | None:
    cached = _cache_path()
    try:  # a cached library that does not open is compiled again
        lib = ctypes.CDLL(cached) if cached is not None and os.path.exists(cached) else None
    except OSError:
        lib = None
    lib = lib or _build(cached)
    if lib is None:
        return None
    for product in PRODUCT_DTYPES:
        for out in (*CODE_DTYPES, "logits"):
            fn = getattr(lib, f"tail_{product}_{out}")
            fn.argtypes = (ctypes.POINTER(_TailArgs), *[ctypes.c_void_p] * 6)
            fn.restype = ctypes.c_ssize_t
        getattr(lib, f"thresholds_{product}").argtypes = (ctypes.POINTER(_TailArgs), ctypes.c_double,
                                                          ctypes.c_void_p)
    lib.adjacency.argtypes = (ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_void_p, ctypes.c_void_p)
    lib.run_program.argtypes = [ctypes.c_void_p] * 6
    lib.adjacency.restype = lib.run_program.restype = ctypes.c_ssize_t
    return lib


def _build(cached: str | None) -> ctypes.CDLL | None:
    """The source compiled in a private temporary directory and opened (and
    kept at ``cached``, if given); ``None`` and one
    ``native_tail_unavailable`` event when that fails."""
    try:  # the library's mapping outlives its file and directory
        with tempfile.TemporaryDirectory(prefix="repro-native-", ignore_cleanup_errors=True) as directory:
            source, library = (os.path.join(directory, name) for name in ("tail.c", "tail.so"))
            with open(source, "w") as f:
                f.write(SOURCE)
            subprocess.run([COMPILER, *FLAGS, "-o", library, source],
                           check=True, capture_output=True, text=True, timeout=120)
            if cached is not None:  # through a file beside it: a reader sees all of it or nothing
                with contextlib.suppress(OSError):
                    shutil.copyfile(library, f"{cached}.{os.getpid()}")
                    os.replace(f"{cached}.{os.getpid()}", cached)
            return ctypes.CDLL(library)
    except (OSError, subprocess.SubprocessError) as exc:
        detail = getattr(exc, "stderr", None) or exc
        emit_event(__name__, "native_tail_unavailable", compiler=COMPILER,
                   reason=str(detail).strip()[-500:])
        return None


@functools.cache
def blas_gemm() -> tuple[int, int] | None:
    """The addresses of ``scipy_cblas_sgemm64_`` and ``scipy_cblas_dgemm64_``
    (ILP64) in the OpenBLAS NumPy loaded — the kernels ``@`` runs — or
    ``None``; the library is opened only if it is loaded already
    (``RTLD_NOLOAD``): never a second BLAS."""
    libs = os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "libscipy_openblas64_*")
    for path in glob.glob(libs):
        with contextlib.suppress(OSError, AttributeError):
            lib = ctypes.CDLL(path, mode=getattr(os, "RTLD_NOLOAD", 0) | os.RTLD_LAZY)
            return tuple(ctypes.cast(getattr(lib, f"scipy_cblas_{p}gemm64_"), ctypes.c_void_p).value
                         for p in "sd")
    return None


def _buffer(array: np.ndarray | None):
    """``array``'s memory as a ctypes argument (``None`` for NULL): a
    read-only one by address, a strided one from a C-ordered copy."""
    if array is None:
        return None
    if array.flags.carray:
        return ctypes.byref(ctypes.c_char.from_buffer(array))  # cheaper than ``ctypes.data``
    if array.flags.c_contiguous:  # read-only: only an address reaches C, which only reads it
        return array.ctypes.data
    return _buffer(np.array(array, order="C"))


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
        """``(outputs, their row sums or None)`` of ``values``: :meth:`run`
        without the census."""
        return self.run(values, sums)[:2]

    def run(self, values, sums: np.ndarray | None = None, csr: tuple | None = None):
        """``(outputs, their row sums, their live 8 x 128 tiles)`` of
        ``values`` — the product (with the step's own codes' row sums on an
        update step) or, for the quantize-only entry, the activation or its
        members' :class:`Rows`; the sums and the count are ``None`` for an
        entry bound without sums.  With ``csr``, the int32 ``(indptr,
        indices)`` of a square CSR of ones (an aggregate step's adjacency,
        trusted as scipy's kernel trusts it; ``sums`` its degrees) or
        :func:`bind_csr`'s / :func:`bind_blocks`'s binding of it, ``values``
        are the step's codes and the product of a tail's entry is that CSR
        times them, taken in the same pass."""
        dtype, shape = self._in
        if values.shape != shape or values.dtype != dtype:
            raise ShapeError(f"bound for a {dtype} {shape} operand, got a {values.dtype} {values.shape} one")
        if csr is not None:  # ``(indptr, indices)``, ``sums`` their degrees, or what bind_csr bound
            rows, fixed, _ = csr if len(csr) == 3 else bind_csr(*csr, sums) or (None, None, None)
            if self._rows != (rows,):  # an entry's row count is its shape's
                raise ShapeError(f"a tail gathers from the int32 CSR of a {shape[0]}-row square adjacency")
        elif self._rows is not None and (sums is None or sums.shape != self._rows or sums.dtype != np.float64):
            raise ShapeError(f"an update step's tail reads its codes' {self._rows} float64 row sums")
        else:
            fixed = (_buffer(sums if self._rows else None), None, None)
        if type(values) is Rows:  # read through their table, which ``values`` keeps alive
            source, fixed = None, (fixed[0], values.table, None)
        else:
            source = _buffer(values)
        out = np.empty(*self._out)
        out_sums = np.empty(shape[0]) if self._sums else None
        live = self._fn(self._args, source, fixed[0], _buffer(out), _buffer(out_sums), *fixed[1:])
        if live < 0:
            raise BitwidthError(_NAN) if live == -1 else ShapeError(
                f"the members' blocks are not the bound {shape} operand (each {shape[1]} float32 or "
                f"float64 features wide, {shape[0]} rows in all)")
        return out, out_sums, live if self._sums else None


class Rows(NamedTuple):
    """A float64 ``(n, k)`` operand held as members' feature rows, which
    the quantize-only entry reads in place of the activation: ``table`` is
    their row-block table (the count, then each member's address, bytes per
    element, rows and columns; C reads the bytes where they are), ``held``
    the rows it addresses — a ``Rows`` keeps alive what it addresses."""

    shape: tuple
    table: bytes
    held: tuple
    dtype = np.dtype(np.float64)


def _words(*values: int) -> bytes:
    return struct.pack(f"{len(values)}n", *values)


def feature_rows(features: np.ndarray | None) -> Rows | None:
    """One member's features as :class:`Rows`, or ``None`` unless they are
    a C-ordered float32 or float64 matrix."""
    if (features is None or features.ndim != 2 or features.dtype not in (np.float32, np.float64)
            or not features.flags.c_contiguous):
        return None
    return Rows(features.shape, _words(1, features.ctypes.data, features.itemsize, *features.shape), (features,))


def member_rows(members, shape: tuple[int, int]) -> Rows | None:
    """Members' :class:`feature_rows` as one ``shape`` operand (the entry
    checks that they are), ``None`` if one is ``None``."""
    if None in members:
        return None
    if len(members) == 1:
        return members[0]
    table = b"".join([_words(len(members)), *(rows.table[_WORD:] for rows in members)])
    return Rows(shape, table, tuple(members))


def csr_record(indptr: np.ndarray, indices: np.ndarray) -> bytes | None:
    """One member's CSR as a row-block record (its arrays' addresses, rows
    and entries), or ``None`` unless both are C-ordered int32 — the record
    addresses them, so it travels with them (a ``(indptr, indices,
    record)`` block)."""
    if indptr.dtype == indices.dtype == np.int32 and indptr.flags.c_contiguous and indices.flags.c_contiguous:
        return _words(indptr.ctypes.data, indices.ctypes.data, indptr.size - 1, indices.size)
    return None


def _table(blocks) -> bytes | None:
    """CSR blocks — ``(indptr, indices)``, with its :func:`csr_record` as a
    third item if it has one — as the table an entry walks: their count,
    then each record; ``None`` if C cannot read one."""
    records = [block[2] if len(block) == 3 else csr_record(*block) for block in blocks]
    return None if None in records else b"".join([_words(len(records)), *records])


def bind_csr(indptr: np.ndarray, indices: np.ndarray, degrees: np.ndarray) -> tuple | None:
    """An aggregate step's int32 CSR and ``(n,)`` float64 degrees checked and
    addressed once for :meth:`_Bound.run`'s ``csr``: ``(n, addresses in the
    foreign call's order, the arrays)``, or ``None`` for another dtype or length."""
    arrays = degrees, indptr, indices = tuple(map(np.ascontiguousarray, (degrees, indptr, indices)))
    n = indptr.size - 1
    if indptr.dtype == indices.dtype == np.int32 and degrees.dtype == np.float64 and degrees.shape == (n,):
        return n, tuple(a.ctypes.data for a in arrays), arrays
    return None


def bind_blocks(blocks, degrees: np.ndarray) -> tuple | None:
    """An aggregate step's adjacency as its diagonal CSR blocks (as
    :func:`adjacency` takes them) and its ``(n,)`` float64 degrees,
    addressed once for :meth:`_Bound.run`'s ``csr`` (the entry checks that
    the blocks are ``n`` rows): ``(n, addresses, what they address)``, so
    the binding keeps its blocks alive; ``None`` without the library or
    for a block C cannot read."""
    table = None if load() is None else _table(blocks)
    if table is None:
        return None
    table, degrees = np.frombuffer(table, np.intp), np.ascontiguousarray(degrees, np.float64)
    return degrees.size, (degrees.ctypes.data, table.ctypes.data, None), (degrees, table, blocks)


def adjacency(loops) -> tuple[np.ndarray, np.ndarray] | None:
    """The ``(n, 1)`` float64 degrees and the tile census of the
    block-diagonal CSR of ``loops``, members' CSR blocks (``(indptr,
    indices)``, with its :func:`csr_record` as a third item if it has one);
    ``None`` without the library, for a member not C-ordered int32, past
    int32 or refused by the pass."""
    lib = load()
    table = None if lib is None else _table(loops)
    if table is None:
        return None
    n, nnz = np.frombuffer(table, np.intp)[1:].reshape(-1, 4)[:, 2:].sum(axis=0).tolist()
    if not n or max(n, nnz) >= 1 << 31:
        return None
    degrees, mask = np.empty((n, 1)), np.zeros((-(-n // 8), -(-n // 128)), bool)
    if lib.adjacency(table, mask.shape[1], degrees.ctypes.data, mask.ctypes.data) != nnz:
        return None
    for array in (degrees, mask):
        array.setflags(write=False)
    return degrees, mask


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
    params: QuantParams | None = None, dtype=None, sums: bool = False, bound: int | None = None,
) -> _Bound | None:
    """A step's tail: ``product (n, m)`` through ``epilogue`` — ``(s, c
    degree)`` of an aggregate step, or ``(s, row scale, ones, column terms,
    constant, bias)`` of an update step, which also reads its codes' row
    sums — and the ReLU, into the next step's codes under ``params`` in
    ``dtype`` (with their row sums if ``sums``) or, without ``params``, into
    the float64 logits.  ``None`` without the library, for a dtype it does
    not take or for terms that are not one per row / per column.  With a
    1-bit ``params``, ``bound`` (each row's sum or degree is at most it, the
    product exact) binds the threshold form (the module doc)."""
    recipe = (bind_tail, (product, shape, epilogue, relu, params, dtype, sums, bound))
    update = len(epilogue) != 2  # an aggregate step has no codes' row sums, no column terms
    if update:
        scale, row_scale, _, cols, constant, bias = epilogue
        terms = (scale, row_scale, None, cols, constant, bias)
    else:
        scale, rows = epilogue
        terms = (scale, 1.0, rows, -0.0, -0.0, -0.0)
    return _bind(recipe, product, shape, terms, relu, params, dtype, sums, update, bound)


def _bind(recipe, product, shape, terms, relu, params, dtype, sums, reads_sums, bound=None) -> _Bound | None:
    lib, product, out = load(), np.dtype(product), np.dtype(np.float64 if params is None else dtype)
    n, m = shape
    if lib is None or _NAMES.get(product) not in PRODUCT_DTYPES or out not in _NAMES or not n * m:
        return None
    if out == np.float32 and m * (params.levels - 1) >= 1 << 24:  # a row sum float32 rounds
        return None
    scale, row_scale, rows, cols, constant, bias = terms
    summed = not all(type(t) is float and str(t) == "-0.0" for t in (cols, constant, bias))  # x + -0.0 is x
    try:
        keep = [None if term is None else _float64(term, to)
                for term, to in ((rows, (n, 1)), (cols, (1, m)), (bias, (1, m)))]
    except ValueError:  # a term that is not one per row / per column
        return None
    one_bit, alpha_min, step, top = (False, 0.0, 0.0, 0) if params is None else (
        params.bits == 1, params.alpha_min, params.scale, params.levels - 1)
    rows, cols, bias = (None if a is None else a.ctypes.data for a in keep)
    args = _TailArgs(n, m, relu, one_bit, summed, scale, row_scale, constant, rows, cols, bias,
                     alpha_min, step, top, params.threshold if one_bit else 0.0)  # the fields' order
    if one_bit and bound is not None:  # the threshold form: exact products are below 2**24 (2**53)
        args.bound, table = bound, np.empty((bound + 1) * (m if summed else 1), product)
        address, fill = table.ctypes.data, getattr(lib, f"thresholds_{product.name}")
        if fill(ctypes.byref(args), 2.0 ** (24 if product == np.float32 else 53) - 1, address):
            args.table = address
            keep.append(table)
    name = _NAMES[out] if params is not None else "logits"
    return _Bound(recipe, getattr(lib, f"tail_{_NAMES[product]}_{name}"), args, keep,
                  (product, shape), (n,) if reads_sums else None, (shape, out),
                  sums and params is not None)


class Replay(NamedTuple):
    """A bound program's warm round as one foreign call (:func:`bind_program`)
    into ``lib``: its step ``table``, the ``arena`` bytes a round allocates,
    the ``stamps`` the entry writes and the logits' ``shape``; ``held`` is
    what the table addresses."""

    lib: ctypes.CDLL
    table: bytes
    arena: int
    stamps: int
    shape: tuple
    held: tuple

    def run(self, features) -> tuple | None:
        """``(logits, each step's operand's live tiles, the stamps)`` of one
        round from step 0's members' :class:`Rows`; ``None`` for another
        operand or when an entry refused it (NaN, rows that are not the
        operand), which the step loop then raises on."""
        if type(features) is not Rows:
            return None
        arena, logits = np.empty(self.arena, np.uint8), np.empty(self.shape)
        stamps, lives = np.empty(self.stamps), np.empty(len(self.held) - 1, np.intp)
        code = self.lib.run_program(self.table, features.table, *map(_buffer, (arena, logits, stamps, lives)))
        return None if code else (logits, lives.tolist(), stamps.tolist())


def _entry(bound: _Bound) -> tuple[int, int]:
    return ctypes.addressof(bound._args.contents), ctypes.cast(bound._fn, ctypes.c_void_p).value


def bind_program(quantize: _Bound, steps) -> Replay | None:
    """A warm round as one entry (``run_program``): step 0's ``quantize``
    entry, then per step ``(tail, weights, gather, relu)`` — an update step's
    ``(k, m)`` weights in its product's dtype, else an aggregate step's
    :func:`bind_blocks` binding — the last tail into the logits; codes, row
    sums and products take turns in two codes, two sums and one product
    region of a round's arena.  ``None`` without the library or NumPy's GEMM
    (:func:`blas_gemm`), or for steps that do not chain."""
    lib, gemm, writers = load(), blas_gemm(), [quantize, *(tail for tail, *_ in steps[:-1])]
    if lib is None or gemm is None or None in writers or steps[-1][0]._out[1] != np.float64:
        return None

    def region(arrays):  # bytes for the largest of ``(shape, dtype)`` arrays, in 64s
        return max(-(-int(np.prod(shape)) * np.dtype(dtype).itemsize // 64) * 64 for shape, dtype in arrays)

    codes, sums = region(w._out for w in writers), region((w._out[0][:1], np.float64) for w in writers)
    at = (0, codes, 2 * codes, 2 * codes + sums, 2 * (codes + sums))  # codes, codes, sums, sums, product
    words, held, stamps = [len(steps), *_entry(quantize), at[0], at[2] if quantize._sums else -1], [quantize], 1
    for i, ((tail, weights, gather, relu), writer) in enumerate(zip(steps, writers)):
        dtype, (n, m) = tail._in
        if weights is None:  # an aggregate step's tail gathers its product from its codes
            k, chained = m, gather is not None and gather[0] == n
            entry = (0, 0, 0, 0, *gather[1][:2]) if chained else ()
        else:
            weights = np.ascontiguousarray(weights)
            k, chained = weights.shape[0], weights.shape[1] == m and weights.dtype == dtype and writer._sums
            entry = (gemm[dtype == np.float64], dtype == np.float64, weights.ctypes.data, k, 0, 0)
        if not chained or writer._out != ((n, k), dtype):
            return None
        last, j = i + 1 == len(steps), i % 2
        words += [*_entry(tail), *entry, at[j], at[2 + j] if writer._sums else -1, at[4],
                  -1 if last else at[1 - j], -1 if last or not tail._sums else at[3 - j], relu]
        held.append((tail, weights, gather))
        stamps += 5 + relu
    return Replay(lib, _words(*words), at[4] + region(t._in[::-1] for t, *_ in steps), stamps,
                  steps[-1][0]._out[0], tuple(held))
