"""Lower plan steps into specialized LoopIR programs.

Two schedule transforms, applied while lowering:

* **unroll bit-plane loops** (:func:`unroll_bit_planes`): plane loops
  with the plan's concrete bitwidth trip counts are unrolled to literal
  plane indices, so the emitted dense kernel is a straight line of
  per-pair statements.
* **skip-loop specialization** (inside :func:`lower_gemm`): the
  ``TileSkipPlan`` census is baked in at lowering time — tile rows with
  identical non-zero-column patterns are grouped once (an ``np.unique``
  over the census, paid at lowering, not per call), each group's row and
  word index lists are precomputed into the program ``env``, and groups
  whose indices form contiguous runs are emitted as pure slices.  The
  kernel iterates exactly the precomputed non-zero work; there is no
  runtime tile test left in the emitted source.

Both GEMM paths additionally *widen* the packed uint32 words to uint64
views (``widen-words:u64``) — the AND + popcount stream processes half
the elements per bit of work, a schedule the hand-written engines do not
apply — and vectorize over all B planes through one N-contiguous
transpose per call instead of per-group gathers.
"""

from __future__ import annotations

import numpy as np

from ..core.bitpack import pad_to
from ..errors import ShapeError
from .loopir import Block, Line, Loop, Program, Stmt, unroll

__all__ = [
    "GROUP_UNROLL_LIMIT",
    "PAIR_UNROLL_LIMIT",
    "lower_gemm",
    "unroll_bit_planes",
]

#: Above this many distinct tile-row census patterns the skip-loop
#: specialization falls back to the dense schedule (the emitted source
#: would otherwise grow without bound on noise-structured censuses).
GROUP_UNROLL_LIMIT = 48

#: Above this many plane pairs the dense path keeps runtime plane loops
#: instead of unrolling (32x32 bits would emit 1024 statement groups).
PAIR_UNROLL_LIMIT = 16

#: Byte budget of one row block's AND/popcount temporaries; row-block
#: trip counts are baked into the emitted source from it.
TEMP_BUDGET_BYTES = 32 * 1024 * 1024

#: uint64 AND word + uint8 popcount byte per widened element.
_TEMP_BYTES_PER_ELEM = 9


def _row_block(rows: int, bytes_per_row: int) -> int:
    """Largest multiple-of-8 row block whose temporaries fit the budget."""
    if rows <= 0:
        return 8
    block = max(TEMP_BUDGET_BYTES // max(bytes_per_row, 1), 8)
    block -= block % 8
    return int(min(max(block, 8), pad_to(rows, 8)))


def _contiguous_run(indices: np.ndarray) -> tuple[int, int] | None:
    """``(start, stop)`` when ``indices`` is a dense ascending run."""
    if indices.size == 0:
        return None
    lo, hi = int(indices[0]), int(indices[-1])
    if hi - lo + 1 == indices.size and np.array_equal(
        indices, np.arange(lo, hi + 1)
    ):
        return (lo, hi + 1)
    return None


def unroll_bit_planes(body: tuple[Stmt, ...]) -> tuple[Stmt, ...]:
    """Unroll every ``axis="plane"`` loop in the tree to literal indices."""
    out: list[Stmt] = []
    for stmt in body:
        if isinstance(stmt, Loop):
            inner = unroll_bit_planes(stmt.body)
            stmt = Loop(stmt.var, stmt.count, inner, stmt.axis)
            if stmt.axis == "plane" and isinstance(stmt.count, int):
                out.append(unroll(stmt))
                continue
            out.append(stmt)
        elif isinstance(stmt, Block):
            out.append(Block(stmt.label, unroll_bit_planes(stmt.body)))
        else:
            out.append(stmt)
    return tuple(out)


# --------------------------------------------------------------------- #
# GEMM lowering
# --------------------------------------------------------------------- #
def lower_gemm(
    *,
    m: int,
    n: int,
    bits_a: int,
    bits_b: int,
    a_padded_vectors: int,
    a_k_words: int,
    tile_mask: np.ndarray | None = None,
    name: str = "gemm_kernel",
) -> Program:
    """Lower one plane-product GEMM into a specialized program.

    The emitted function takes the operands' raw words —
    ``fn(a_words, b_words)`` with ``a_words`` of shape
    ``(bits_a, a_padded_vectors, a_k_words)`` and
    ``b_words`` of shape ``(bits_b, padded_n, a_k_words)`` (both
    C-contiguous uint32), returning the int64 plane products
    ``(bits_a, bits_b, m, n)`` on the logical shapes.

    With ``tile_mask`` (1-bit left operands only) the census is baked in
    as a skip-loop specialization; otherwise the dense unrolled schedule
    is used.  Every shape, bitwidth and index constant is a literal in
    the emitted source.
    """
    if a_k_words % 4:
        raise ShapeError(f"k-word count {a_k_words} is not a whole tile column")
    if tile_mask is not None:
        if bits_a != 1:
            raise ShapeError("skip-loop specialization requires a 1-bit left operand")
        grid = (a_padded_vectors // 8, a_k_words // 4)
        if tile_mask.shape != grid:
            raise ShapeError(
                f"tile mask shape {tile_mask.shape} does not match the "
                f"{grid} tile grid of the operand"
            )
    if m == 0 or n == 0:
        return Program(
            name=name,
            args=("a_words", "b_words"),
            body=(
                Line(f"return np.zeros(({bits_a}, {bits_b}, {m}, {n}), dtype=np.int64)"),
            ),
            schedule=("degenerate-empty",),
        )
    if tile_mask is not None:
        program = _lower_gemm_skip(
            m=m,
            n=n,
            bits_b=bits_b,
            a_padded_vectors=a_padded_vectors,
            a_k_words=a_k_words,
            tile_mask=tile_mask,
            name=name,
        )
        if program is not None:
            return program
    return _lower_gemm_dense(
        m=m,
        n=n,
        bits_a=bits_a,
        bits_b=bits_b,
        a_k_words=a_k_words,
        name=name,
        fallback=tile_mask is not None,
    )


def _strided_loop(var: str, start: int, stop: int, step: int, body) -> Loop:
    """A runtime loop ``for var in range(start, stop, step)`` (the
    ``count`` string carries the full range argument list)."""
    return Loop(var=var, count=f"{start}, {stop}, {step}", body=tuple(body), axis="rows")


def _lower_gemm_dense(
    *,
    m: int,
    n: int,
    bits_a: int,
    bits_b: int,
    a_k_words: int,
    name: str,
    fallback: bool = False,
) -> Program:
    """The dense schedule: unrolled plane pairs of row-blocked AND+popcount."""
    w2 = a_k_words // 2
    rb = _row_block(m, bytes_per_row=n * w2 * _TEMP_BYTES_PER_ELEM)
    product = Line(
        f"out[ai, bj, r0:r0 + {rb}] = popcount64("
        f"ap[r0:r0 + {rb}, None, :] & bp[None, :, :]"
        ").sum(axis=-1, dtype=np.int64)"
    )
    row_loop = _strided_loop("r0", 0, m, rb, (product,))
    body: tuple[Stmt, ...] = (
        Line("a64 = a_words.view(np.uint64)"),
        Line("b64 = b_words.view(np.uint64)"),
        Line(f"out = np.empty(({bits_a}, {bits_b}, {m}, {n}), dtype=np.int64)"),
        Loop(
            var="ai",
            count=bits_a,
            axis="plane",
            body=(
                Loop(
                    var="bj",
                    count=bits_b,
                    axis="plane",
                    body=(
                        Line(f"ap = a64[ai][:{m}]"),
                        Line(f"bp = b64[bj][:{n}]"),
                        row_loop,
                    ),
                ),
            ),
        ),
        Line("return out"),
    )
    schedule = ["widen-words:u64", f"row-block:{rb}"]
    if bits_a * bits_b <= PAIR_UNROLL_LIMIT:
        body = unroll_bit_planes(body)
        schedule.append(f"unroll-bit-planes:{bits_a}x{bits_b}")
    if fallback:
        schedule.append("skip-specialize:fallback-dense")
    return Program(
        name=name,
        args=("a_words", "b_words"),
        body=body,
        schedule=tuple(schedule),
    )


def _lower_gemm_skip(
    *,
    m: int,
    n: int,
    bits_b: int,
    a_padded_vectors: int,
    a_k_words: int,
    tile_mask: np.ndarray,
    name: str,
) -> Program | None:
    """Skip-loop specialization of a censused 1-bit left operand.

    Returns ``None`` when the census has more distinct tile-row patterns
    than :data:`GROUP_UNROLL_LIMIT` (the caller falls back to dense).
    """
    mask = np.ascontiguousarray(np.asarray(tile_mask, dtype=bool))
    patterns, inverse = np.unique(mask, axis=0, return_inverse=True)
    live = [g for g in range(len(patterns)) if patterns[g].any()]
    if len(live) > GROUP_UNROLL_LIMIT:
        return None
    env: dict[str, np.ndarray] = {}
    body: list[Stmt] = [
        Line("a64 = a_words[0].view(np.uint64)"),
        Line(
            "bT = np.ascontiguousarray("
            f"b_words.view(np.uint64).transpose(0, 2, 1)[:, :, :{n}])"
        ),
        Line(f"out = np.zeros((1, {bits_b}, {a_padded_vectors}, {n}), dtype=np.int64)"),
        Line("o = out[0]"),
    ]
    sliced_groups = 0
    for g in live:
        tile_rows = np.flatnonzero(inverse == g)
        rows = (tile_rows[:, None] * 8 + np.arange(8)).ravel()
        cols = np.flatnonzero(patterns[g])
        words = (cols[:, None] * 2 + np.arange(2)).ravel()  # uint64 words
        group, sliced = _group_stmts(g, rows, words, bits_b=bits_b, n=n, env=env)
        sliced_groups += sliced
        body.append(group)
    body.append(Line(f"return out[:, :, :{m}, :]"))
    schedule = (
        "fuse-b-planes",
        "widen-words:u64",
        f"specialize-skip-loop:groups={len(live)}",
        f"contiguous-slices:{sliced_groups}/{len(live)}",
        "unroll-bit-planes:1",
    )
    return Program(
        name=name,
        args=("a_words", "b_words"),
        body=tuple(body),
        env=env,
        schedule=schedule,
    )


def _group_stmts(
    g: int,
    rows: np.ndarray,
    words: np.ndarray,
    *,
    bits_b: int,
    n: int,
    env: dict[str, np.ndarray],
) -> tuple[Block, int]:
    """Emit one census group's statements; returns (block, fully_sliced)."""
    row_run = _contiguous_run(rows)
    word_run = _contiguous_run(words)
    wg = int(words.size)
    if word_run is not None:
        w_lo, w_hi = word_run
        b_expr = f"bT[:, None, {w_lo}:{w_hi}, :]"

        def a_words_expr(rows_expr: str) -> str:
            return f"a64[{rows_expr}, {w_lo}:{w_hi}]"

    else:
        w_name = f"g{g}_w"
        env[w_name] = np.ascontiguousarray(words.astype(np.intp))
        b_expr = f"bT[:, {w_name}][:, None]"

        def a_words_expr(rows_expr: str) -> str:
            return f"a64[{rows_expr}][:, {w_name}]"

    rb = _row_block(int(rows.size), bytes_per_row=bits_b * wg * n * _TEMP_BYTES_PER_ELEM)
    stmts: list[Stmt] = []
    label = f"census group {g}: {rows.size} rows x {wg} u64 words"
    fully_sliced = 1 if (row_run is not None and word_run is not None) else 0
    blk = (
        "blk = popcount64({a}[None, :, :, None] & {b})"
        ".sum(axis=2, dtype=np.int64)"
    )
    if row_run is not None:
        r_lo, r_hi = row_run
        if r_hi - r_lo <= rb:
            stmts.append(Line(blk.format(a=a_words_expr(f"{r_lo}:{r_hi}"), b=b_expr)))
            stmts.append(Line(f"o[:, {r_lo}:{r_hi}, :] = blk"))
        else:
            inner = (
                # Clamp the last block to the group's own rows: running
                # past r_hi would compute (and store) other groups' rows.
                Line(f"r1 = min(r0 + {rb}, {r_hi})"),
                Line(blk.format(a=a_words_expr("r0:r1"), b=b_expr)),
                Line("o[:, r0:r1, :] = blk"),
            )
            stmts.append(_strided_loop("r0", r_lo, r_hi, rb, inner))
    else:
        r_name = f"g{g}_r"
        env[r_name] = np.ascontiguousarray(rows.astype(np.intp))
        if rows.size <= rb:
            stmts.append(Line(blk.format(a=a_words_expr(r_name), b=b_expr)))
            stmts.append(Line(f"o[:, {r_name}, :] = blk"))
        else:
            inner = (
                Line(f"gr = {r_name}[r0:r0 + {rb}]"),
                Line(blk.format(a=a_words_expr("gr"), b=b_expr)),
                Line("o[:, gr, :] = blk"),
            )
            stmts.append(_strided_loop("r0", 0, int(rows.size), rb, inner))
    return Block(label, tuple(stmts)), fully_sliced
