"""The native tail equals the NumPy sequence it replaces, bit for bit.

A warm forward step hands its GEMM product to one native call
(:mod:`repro.core.native`) that applies the epilogue, the ReLU and the next
step's Eq. 2, and writes the next codes with their row sums — or the
float64 logits.  The NumPy sequence below is the executor's own (its
epilogue, ``np.maximum``, :func:`quantize_into` and ``_row_sums``), and it
is the reference: codes compare as unsigned-integer views (a ``-0.0`` code
is not a ``+0.0`` one), logits and row sums as arrays.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import native
from repro.core.quantization import QuantParams, quantize_into
from repro.errors import BitwidthError, ShapeError
from repro.gnn.quantized import _row_sums

pytestmark = [
    pytest.mark.skipif(native.load() is None, reason="no C compiler on this host"),
    pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning"),
]

_NAN = "cannot quantize NaN"


def _bits_view(a: np.ndarray) -> np.ndarray:
    """``a``'s bit patterns: two codes are equal only if every bit is."""
    return a.view({4: np.uint32, 8: np.uint64}[a.dtype.itemsize])


def _pool(params: QuantParams, rng, size: int) -> np.ndarray:
    """Values Eq. 2 must not move a code on: every bucket edge (capped),
    ``alpha_max``, the 1-bit threshold, their float64 neighbours, signed
    zeros, both infinities, and the interior."""
    edges = params.alpha_min + params.scale * np.arange(min(params.levels, 64) + 1)
    special = np.array([params.alpha_max, params.threshold, 0.0, -0.0, np.inf, -np.inf])
    points = np.concatenate([edges, special])
    points = np.concatenate([points, np.nextafter(points, np.inf), np.nextafter(points, -np.inf)])
    interior = rng.uniform(params.alpha_min - params.scale, params.alpha_max + params.scale, size)
    return rng.choice(np.concatenate([points, interior]), size)


def _numpy_tail(product, epilogue, relu, row_sums, params, dtype):
    """The executor's NumPy tail: epilogue, ReLU, then the next Eq. 2."""
    out = product.astype(np.float64)
    if len(epilogue) == 2:
        scale, offset = epilogue
        out *= scale
        out += offset
    else:
        scale, row_scale, _, col_terms, constant, bias = epilogue
        out *= scale
        out += row_scale * row_sums[:, None]
        out += col_terms
        out += constant
        out += bias
    if relu:
        np.maximum(out, 0.0, out=out)
    return out if params is None else quantize_into(out, params, dtype)


params_st = st.builds(
    QuantParams,
    bits=st.sampled_from([1, 2, 4, 8, 16]),
    alpha_min=st.sampled_from([0.0, -1.5, 0.25, -3.0e-3, 7.0]),
    scale=st.sampled_from([1.0, 0.125, 0.1, 3.0e-4, 2.5]),
)


@settings(max_examples=150)
@given(
    params=params_st,
    product_dtype=st.sampled_from(native.PRODUCT_DTYPES),
    code_dtype=st.sampled_from([*native.CODE_DTYPES, None]),
    aggregate=st.booleans(),
    relu=st.booleans(),
    n=st.integers(1, 19),
    m=st.integers(1, 70),
    exact=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_tail_equals_the_numpy_sequence(
    params, product_dtype, code_dtype, aggregate, relu, n, m, exact, seed
):
    """Every instantiated product and code dtype (``None``: the logits),
    both epilogue forms, ReLU on and off, rows and columns from one to
    wider than a vector register's worth.  With ``exact`` the epilogue is
    the identity, so the edges land on Eq. 2 as drawn."""
    rng = np.random.default_rng(seed)
    product = _pool(params, rng, n * m).reshape(n, m).astype(product_dtype)
    row_sums = rng.integers(0, 1000, n).astype(np.float64)
    if aggregate:
        offset = np.full((n, 1), -0.0) if exact else rng.normal(size=(n, 1))
        epilogue = (1.0 if exact else rng.uniform(1e-3, 2.0), offset)
    elif exact:
        epilogue = (1.0, 0.0, None, np.full((1, m), -0.0), -0.0, np.full(m, -0.0, np.float32))
        row_sums[:] = -0.0
    else:
        epilogue = (rng.uniform(1e-4, 1.0), rng.normal(), None, rng.normal(size=(1, m)),
                    rng.normal(), rng.normal(size=m).astype(np.float32))
    into = () if code_dtype is None else (params, code_dtype)
    tail = native.bind_tail(product_dtype, (n, m), epilogue, relu, *into, sums=True)
    sums_in = None if aggregate else row_sums
    try:
        want = _numpy_tail(product, epilogue, relu, row_sums, *into or (None, None))
    except BitwidthError as exc:  # an activation is NaN (e.g. inf - inf)
        with pytest.raises(BitwidthError, match=str(exc)):
            tail(product, sums_in)
        return
    got, sums = tail(product, sums_in)
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(_bits_view(got), _bits_view(want))
    if code_dtype is None:
        assert sums is None
    else:
        np.testing.assert_array_equal(sums, _row_sums(want).ravel())


@settings(max_examples=100)
@given(
    params=params_st,
    code_dtype=st.sampled_from(native.CODE_DTYPES),
    n=st.integers(1, 19),
    k=st.integers(1, 70),
    seed=st.integers(0, 2**16),
)
def test_quantize_entry_equals_quantize_into(params, code_dtype, n, k, seed):
    values = _pool(params, np.random.default_rng(seed), n * k).reshape(n, k)
    codes, sums = native.bind_quantize(params, code_dtype, (n, k), True)(values)
    want = quantize_into(values, params, code_dtype)
    assert codes.dtype == want.dtype
    np.testing.assert_array_equal(_bits_view(codes), _bits_view(want))
    np.testing.assert_array_equal(sums, _row_sums(want).ravel())


@pytest.mark.parametrize("bits", [1, 8])
def test_nan_raises_quantize_intos_error(bits):
    params = QuantParams(bits=bits, alpha_min=-1.0, scale=0.5)
    values = np.zeros((3, 5))
    values[2, 4] = np.nan
    with pytest.raises(BitwidthError, match=_NAN):
        quantize_into(values, params, np.float32)
    with pytest.raises(BitwidthError, match=_NAN):
        native.bind_quantize(params, np.float32, (3, 5), False)(values)
    tail = native.bind_tail(np.float32, (3, 5), (1.0, np.zeros((3, 1))), True, params, np.float32)
    with pytest.raises(BitwidthError, match=_NAN):
        tail(values.astype(np.float32))


def test_a_bound_entry_refuses_operands_it_was_not_bound_for():
    params = QuantParams(bits=4, alpha_min=0.0, scale=1.0)
    quantize = native.bind_quantize(params, np.float32, (4, 6), True)
    for wrong in (np.zeros((4, 7)), np.zeros((4, 6), np.float32), np.zeros((6, 4))):
        with pytest.raises(ShapeError):
            quantize(wrong)
    update = (1.0, 0.5, None, np.zeros((1, 6)), 0.0, np.zeros(6, np.float32))
    tail = native.bind_tail(np.float32, (4, 6), update, False, params, np.float32)
    product = np.ones((4, 6), np.float32)
    for sums in (None, np.zeros(3), np.zeros(4, np.float32)):
        with pytest.raises(ShapeError):
            tail(product, sums)
    tail(product, np.zeros(4))


def test_what_the_kernel_does_not_take_is_not_bound():
    """Terms that are not one per column, a product dtype it does not read,
    and float32 codes whose row sums could pass 2**24 keep NumPy."""
    update = (1.0, 0.5, None, np.zeros((1, 6)), 0.0, np.zeros((4, 6)))
    assert native.bind_tail(np.float32, (4, 6), update, False) is None
    assert native.bind_tail(np.int64, (4, 6), (1.0, np.zeros((4, 1))), False) is None
    wide = QuantParams(bits=16, alpha_min=0.0, scale=1.0)
    assert native.bind_quantize(wide, np.float32, (2, 257), True) is None
    assert native.bind_quantize(wide, np.float32, (2, 256), True) is not None
    assert native.bind_quantize(wide, np.float64, (2, 257), True) is not None


def test_a_read_only_or_strided_activation_is_read_not_refused():
    params = QuantParams(bits=2, alpha_min=-1.0, scale=0.5)
    quantize = native.bind_quantize(params, np.float64, (3, 4), False)
    values = np.linspace(-2.0, 2.0, 12).reshape(3, 4)
    values.setflags(write=False)
    for operand in (values, np.asfortranarray(values), values.T.copy().T):
        codes, _ = quantize(operand)
        np.testing.assert_array_equal(codes, quantize_into(values, params, np.float64))


def test_a_bound_entry_pickles_as_its_recipe():
    """No address crosses a process: a pickled entry rebinds on load."""
    params = QuantParams(bits=8, alpha_min=-1.0, scale=0.01)
    epilogue = (0.5, 0.25, None, np.linspace(0, 1, 5)[None, :], 0.125, np.ones(5, np.float32))
    tail = native.bind_tail(np.float32, (3, 5), epilogue, True, params, np.float32, True)
    again = pickle.loads(pickle.dumps(tail))
    assert again is not tail
    product, sums = np.arange(15, dtype=np.float32).reshape(3, 5), np.arange(3.0)
    for a, b in zip(tail(product, sums), again(product, sums)):
        np.testing.assert_array_equal(a, b)
