"""An aggregate step's native pass equals scipy's product and the NumPy tail.

Given its adjacency's int32 CSR, a bound tail entry (:mod:`repro.core.native`)
takes an aggregate step's codes instead of its product: it sums each row's
neighbours' codes tile by tile in the product's dtype and runs the epilogue,
the ReLU and the next Eq. 2 (or the logits) on that tile, so the product
never reaches memory.  The reference is what the executor did before:
scipy's ``csr @ codes`` in the step's exact dtype, then the NumPy tail with
its row term ``c * degree``, ``np.maximum``, :func:`quantize_into` and
``_row_sums``; the live-tile count is the codes' ``8 x 128`` tile sums.
Codes compare as unsigned-integer views (a ``-0.0`` code is not a ``+0.0``
one).
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import native
from repro.core.quantization import QuantParams, calibrate, quantize_into
from repro.errors import BitwidthError, ShapeError
from repro.gnn.quantized import _row_sums

pytestmark = pytest.mark.skipif(native.load() is None, reason="no C compiler on this host")

ROWS = (1, 5, 8, 13, 131)
COLUMNS = (1, 8, 15, 16, 17, 121, 128, 129)


def _bits_view(a: np.ndarray) -> np.ndarray:
    return a.view({4: np.uint32, 8: np.uint64}[a.dtype.itemsize])


def _adjacency(rng, n: int, density: float, lonely: float) -> sp.csr_matrix:
    """A binary ``A + I`` in canonical int32 CSR: a ``lonely`` share of its
    rows hold only their self loop (``density`` 0: the diagonal alone)."""
    mask = rng.random((n, n)) < density
    mask[rng.random(n) < lonely] = False
    np.fill_diagonal(mask, True)
    csr = sp.csr_matrix(mask.astype(np.float32))
    assert csr.indptr.dtype == csr.indices.dtype == np.int32
    return csr


def _live_tiles(codes: np.ndarray) -> int:
    """The ``8 x 128`` tiles (row groups by column blocks) whose codes sum
    to other than zero."""
    n, m = codes.shape
    padded = np.zeros((-(-n // 8) * 8, -(-m // 128) * 128))
    padded[:n, :m] = codes
    return int((padded.reshape(-1, 8, padded.shape[1] // 128, 128).sum(axis=(1, 3)) != 0).sum())


@st.composite
def steps(draw):
    """An aggregate step: ``(csr, codes, epilogue, relu, next params or
    None for the logits, code dtype)``."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    n, m = draw(st.sampled_from(ROWS)), draw(st.sampled_from(COLUMNS))
    bits = draw(st.sampled_from([1, 4, 8]))
    product = draw(st.sampled_from(native.PRODUCT_DTYPES))
    density = draw(st.sampled_from([0.0, 0.05, 0.3, 1.0]))
    csr = _adjacency(rng, n, density, draw(st.sampled_from([0.0, 0.5])))
    codes = rng.integers(0, 2**bits, (n, m)).astype(product)
    codes[(codes == 0) & (rng.random((n, m)) < 0.5)] = -0.0  # Eq. 2's clip keeps a -0.0
    epilogue = (rng.uniform(1e-3, 1.0), rng.normal())
    relu = draw(st.booleans())
    logits = draw(st.booleans())
    code_dtype = draw(st.sampled_from(native.CODE_DTYPES))
    activation = _numpy_activation(csr, codes, epilogue, relu)
    params = None if logits else calibrate(activation, draw(st.sampled_from([1, 4, 8])))
    return csr, codes, epilogue, relu, params, code_dtype


def _numpy_activation(csr, codes, epilogue, relu) -> np.ndarray:
    """scipy's product in the codes' dtype, then the executor's NumPy epilogue."""
    out = (csr.astype(codes.dtype) @ codes).astype(np.float64)
    scale, offset = epilogue
    out *= scale
    out += offset * np.diff(csr.indptr).astype(np.float64)[:, None]
    if relu:
        np.maximum(out, 0.0, out=out)
    return out


def _bind(csr, codes, epilogue, relu, params, code_dtype):
    """The entry as the executor binds an aggregate step's tail: the update
    form, its row term ``c * degree`` read through the row-sums slot."""
    into = () if params is None else (params, code_dtype, True)
    return native.bind_tail(codes.dtype, codes.shape, (*epilogue, None, -0.0, -0.0, -0.0), relu, *into)


@settings(max_examples=200)
@given(steps())
@example((sp.csr_matrix(np.eye(9, dtype=np.float32)), np.arange(9 * 17, dtype=np.float32).reshape(9, 17),
          (0.5, -0.25), True, QuantParams(bits=4, alpha_min=-1.0, scale=5.0), "float32"))
def test_fused_aggregate_equals_scipy_then_the_numpy_tail(step):
    csr, codes, epilogue, relu, params, code_dtype = step
    degrees = np.diff(csr.indptr).astype(np.float64)
    degrees.setflags(write=False)
    got = _bind(*step).run(codes, degrees, (csr.indptr, csr.indices))
    activation = _numpy_activation(csr, codes, epilogue, relu)
    if params is None:
        assert got[0].dtype == np.float64 and got[1] is None and got[2] is None
        np.testing.assert_array_equal(_bits_view(got[0]), _bits_view(activation))
        return
    want = quantize_into(activation, params, code_dtype)
    assert got[0].dtype == want.dtype and got[0].shape == want.shape
    np.testing.assert_array_equal(_bits_view(got[0]), _bits_view(want))
    np.testing.assert_array_equal(got[1], _row_sums(want).ravel())
    assert got[2] == _live_tiles(want)


def test_nan_still_raises_quantize_intos_error():
    csr = sp.csr_matrix(np.eye(10, dtype=np.float32))
    codes = np.zeros((10, 3), np.float32)
    params = QuantParams(bits=4, alpha_min=-1.0, scale=0.5)
    tail = _bind(csr, codes, (np.inf, 0.0), True, params, np.float32)  # inf * 0 is NaN
    with pytest.raises(BitwidthError, match="cannot quantize NaN"), np.errstate(invalid="ignore"):
        quantize_into(_numpy_activation(csr, codes, (np.inf, 0.0), True), params, np.float32)
    with pytest.raises(BitwidthError, match="cannot quantize NaN"):
        tail.run(codes, np.ones(10), (csr.indptr, csr.indices))


def test_a_csr_that_is_not_the_bound_adjacencys_is_refused():
    tail = _bind(sp.csr_matrix(np.eye(4, dtype=np.float32)), np.zeros((4, 2), np.float32),
                 (1.0, 0.0), False, QuantParams(bits=1, alpha_min=0.0, scale=1.0), np.float32)
    codes, degrees = np.zeros((4, 2), np.float32), np.ones(4)
    wide = sp.csr_matrix(np.eye(4, dtype=np.float32))
    for csr in ((wide.indptr.astype(np.int64), wide.indices), (wide.indptr, wide.indices.astype(np.int64)),
                (wide.indptr[:-1], wide.indices)):
        with pytest.raises(ShapeError):
            tail.run(codes, degrees, csr)


def test_frozen_inputs_reach_the_foreign_call_without_a_copy():
    """Read-only C-ordered arrays (an adjacency's frozen CSR and degrees,
    a frozen activation) are handed over by address, not copied."""
    n, m = 6, 4
    csr = sp.csr_matrix(np.eye(n, dtype=np.float32))
    codes = np.ones((n, m), np.float32)
    degrees = np.ones(n)
    for array in (csr.indptr, csr.indices, codes, degrees):
        array.setflags(write=False)
    tail = _bind(csr, codes, (1.0, 0.0), False, None, None)
    seen = []
    tail._fn = lambda *args: seen.append(args) or 0
    tail.run(codes, degrees, (csr.indptr, csr.indices))
    ((_, values, sums, _, _, indptr, indices),) = seen
    want = (codes, degrees, csr.indptr, csr.indices)
    assert (values, sums, indptr, indices) == tuple(a.ctypes.data for a in want)
