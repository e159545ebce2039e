"""A native pass that writes 1-bit codes also takes their §4.3 census.

An entry that writes row sums writes an update step's left operand, and
counts its live ``8 x 128`` tiles in the same pass.  The reference is the
NumPy path: :func:`quantize_into` and ``_row_sums`` for the codes and their
row sums, and the Python ballot (:func:`plan_tile_skip` over the codes as a
range-proven column-compressed operand) for the count.  The products are
drawn around the 1-bit threshold — exactly at it, one ulp below, all-zero
and all-one codes — with live codes biased onto the tile seams, at row and
column counts on both sides of a group of 8 and a block of 128.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import native
from repro.core.bitpack import Operand
from repro.core.quantization import QuantParams, quantize_into
from repro.errors import BitwidthError
from repro.gnn.quantized import _row_sums
from repro.tc.kernel import plan_tile_skip

pytestmark = pytest.mark.skipif(native.load() is None, reason="no C compiler on this host")

ROWS = (1, 7, 8, 9, 257)
COLUMNS = (1, 8, 127, 128, 129, 300)
PARAMS = (
    QuantParams(bits=1, alpha_min=-1.0, scale=1.0),
    QuantParams(bits=1, alpha_min=0.1, scale=0.3),
    QuantParams(bits=1, alpha_min=-3.0e-3, scale=2.5e-4),
)


def _seams(size: int, width: int) -> list[int]:
    """Indices either side of every tile seam of an axis, and its ends."""
    seams = {0, size - 1}
    for edge in range(width, size, width):
        seams.update((edge - 1, edge))
    return sorted(seams)


@st.composite
def products(draw):
    """``(params, product, relu)``: a 1-bit product whose codes are ``fill``
    everywhere but at the drawn positions, which carry the other code or a
    NaN; a code is written as the threshold itself or one ulp below it."""
    params = draw(st.sampled_from(PARAMS))
    n, m = draw(st.sampled_from(ROWS)), draw(st.sampled_from(COLUMNS))
    at = params.threshold
    below = np.nextafter(at, -np.inf)
    fill = draw(st.sampled_from([0, 1]))
    product = np.full((n, m), at if fill else below)
    row = st.one_of(st.sampled_from(_seams(n, 8)), st.integers(0, n - 1))
    col = st.one_of(st.sampled_from(_seams(m, 128)), st.integers(0, m - 1))
    for r, c in draw(st.lists(st.tuples(row, col), max_size=6)):
        product[r, c] = below if fill else at
    if draw(st.booleans()) and fill == 0:  # a live code from above the threshold
        product[draw(row), draw(col)] = draw(st.sampled_from([at, at + 1.0, np.inf]))
    if draw(st.integers(0, 9)) == 0:
        product[draw(row), draw(col)] = np.nan
    return params, product, draw(st.booleans())


def _reference(values: np.ndarray, params: QuantParams, dtype):
    """The NumPy path: codes, their row sums and the Python ballot's count."""
    codes = quantize_into(values, params, dtype)
    live = plan_tile_skip(Operand(codes, 1, "col", proven=True)).nonzero_tiles
    return codes, _row_sums(codes).ravel(), live


def _assert_same(got, want) -> None:
    codes, sums, live = got
    want_codes, want_sums, want_live = want
    assert codes.dtype == want_codes.dtype and codes.shape == want_codes.shape
    np.testing.assert_array_equal(codes, want_codes)
    np.testing.assert_array_equal(sums, want_sums)
    assert live == want_live


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    case=products(),
    product_dtype=st.sampled_from(native.PRODUCT_DTYPES),
    code_dtype=st.sampled_from(native.CODE_DTYPES),
    aggregate=st.booleans(),
)
@example(case=(PARAMS[0], np.zeros((9, 129)) - 1.0, False), product_dtype="float64",
         code_dtype="float32", aggregate=True)
@example(case=(PARAMS[0], np.ones((257, 300)), True), product_dtype="float64",
         code_dtype="int64", aggregate=False)
def test_the_tail_writes_the_numpy_codes_and_the_python_census(
    case, product_dtype, code_dtype, aggregate
):
    """The fused tail under an identity epilogue (so the drawn values land
    on the compare as drawn), both epilogue forms, ReLU on and off."""
    params, values, relu = case
    product = values.astype(product_dtype)
    n, m = product.shape
    if aggregate:
        epilogue, sums_in = (1.0, np.full((n, 1), -0.0)), None
    else:
        epilogue = (1.0, 0.0, None, np.full((1, m), -0.0), -0.0, np.full(m, -0.0, np.float32))
        sums_in = np.full(n, -0.0)
    tail = native.bind_tail(product_dtype, (n, m), epilogue, relu, params, code_dtype, True)
    activation = product.astype(np.float64)
    if relu:
        np.maximum(activation, 0.0, out=activation)
    try:
        want = _reference(activation, params, code_dtype)
    except BitwidthError as exc:
        with pytest.raises(BitwidthError, match=str(exc)):
            tail.run(product, sums_in)
        return
    _assert_same(tail.run(product, sums_in), want)


@settings(max_examples=120, derandomize=True, deadline=None)
@given(case=products(), code_dtype=st.sampled_from(native.CODE_DTYPES))
def test_the_quantize_entry_writes_the_numpy_codes_and_the_python_census(case, code_dtype):
    params, values, _ = case
    entry = native.bind_quantize(params, code_dtype, values.shape, True)
    try:
        want = _reference(values, params, code_dtype)
    except BitwidthError as exc:
        with pytest.raises(BitwidthError, match=str(exc)):
            entry.run(values)
        return
    _assert_same(entry.run(values), want)


def test_an_entry_without_row_sums_counts_nothing():
    """The count rides with the row sums: codes that are no update step's
    left operand (an aggregate step's right one) are not censused."""
    params = PARAMS[0]
    codes, sums, live = native.bind_quantize(params, np.float32, (9, 5), False).run(np.ones((9, 5)))
    assert sums is None and live is None
    np.testing.assert_array_equal(codes, np.ones((9, 5), np.float32))
