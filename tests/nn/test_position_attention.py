"""F.position_attention against the composite PAM it replaced.

``composite_pam`` is the matmul → softmax → transpose → matmul graph
``PositionAttention.forward`` used to build from generic primitives.
The fused primitive must agree with it on the output and on all three
gradients: to rounding in float64, and within a small factor of the
composite's own rounding error in float32.
"""

import tracemalloc

import numpy as np
import pytest

from repro import nn
from repro.nn import functional as F
from repro.nn.tensor import Tensor

SHAPES = [(1, 1, 1024), (1, 6, 16), (2, 3, 50), (4, 5, 33)]  # (d, c, L)
BATCH = 2


def composite_pam(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    energy = q.transpose((0, 2, 1)) @ k
    attention = F.softmax(energy, axis=-1)
    return v @ attention.transpose((0, 2, 1))


def _inputs(d, c, tokens, seed=0):
    rng = np.random.default_rng(seed)
    q, k = rng.standard_normal((2, BATCH, d, tokens))
    v = rng.standard_normal((BATCH, c, tokens))
    grad = rng.standard_normal((BATCH, c, tokens))
    return (q, k, v), grad


def _run(fn, arrays, grad, requires=(True, True, True)):
    """Output and the gradient of each input (None where not required)."""
    tensors = [Tensor(a, requires_grad=r) for a, r in zip(arrays, requires)]
    out = fn(*tensors)
    out.backward(grad.astype(out.data.dtype))
    return [out.data] + [t.grad for t in tensors]


def _rel_err(got, want):
    return float(np.abs(got - want).max() / np.abs(want).max())


@pytest.mark.parametrize("d,c,tokens", SHAPES)
def test_float64_matches_composite(d, c, tokens):
    arrays, grad = _inputs(d, c, tokens)
    want = _run(composite_pam, arrays, grad)
    got = _run(F.position_attention, arrays, grad)
    for name, g, w in zip(("out", "dq", "dk", "dv"), got, want):
        assert g.shape == w.shape and g.dtype == np.float64
        assert _rel_err(g, w) <= 1e-12, name


@pytest.mark.parametrize("frozen", [0, 1, 2])
def test_partial_requires_grad(frozen):
    arrays, grad = _inputs(2, 3, 20, seed=frozen)
    requires = tuple(i != frozen for i in range(3))
    want = _run(composite_pam, arrays, grad, requires)
    got = _run(F.position_attention, arrays, grad, requires)
    assert got[1 + frozen] is None
    for g, w in zip(got, want):
        if w is not None:
            assert _rel_err(g, w) <= 1e-12


@pytest.mark.parametrize("d,c,tokens", SHAPES)
def test_float32_error_within_composite_error(d, c, tokens):
    """Rounding error against a float64 reference, worst over the output
    and the three gradients, compared with the composite's.

    The fused backward contracts ``Σ_j P_ij k_j (Σ_c G_ci v_cj − r_i)`` as
    two matmuls over ``P`` and subtracts them, so where a row of ``P`` is
    peaked it cancels two near-equal float32 sums that the composite
    never forms.  Measured worst-error ratios (fused / composite) at this
    seed are 1.26, 1.38, 1.06 and 2.10 for the four shapes; over seeds
    0-29 they reach 7.7 (at L = 1024: 57 float32 eps for the fused op
    against 14 for the composite), so the bound is 8x rather than 1.5x.
    """
    arrays64, grad64 = _inputs(d, c, tokens)
    arrays = [a.astype(np.float32) for a in arrays64]
    grad = grad64.astype(np.float32)
    reference = _run(composite_pam, [a.astype(np.float64) for a in arrays], grad)
    nn.set_default_dtype(np.float32)
    try:
        composite = _run(composite_pam, arrays, grad)
        fused = _run(F.position_attention, arrays, grad)
    finally:
        nn.set_default_dtype(np.float64)
    assert all(a.dtype == np.float32 for a in fused)
    composite_err = max(_rel_err(a, r) for a, r in zip(composite, reference))
    fused_err = max(_rel_err(a, r) for a, r in zip(fused, reference))
    assert fused_err <= 8.0 * composite_err, (fused_err, composite_err)


def test_pam_forward_calls_the_primitive(monkeypatch):
    from repro.models.mfa import PositionAttention

    calls = []
    original = F.position_attention

    def spy(q, k, v):
        calls.append((q.shape, k.shape, v.shape))
        return original(q, k, v)

    monkeypatch.setattr(F, "position_attention", spy)
    pam = PositionAttention(8, rng=np.random.default_rng(0))
    pam(Tensor(np.zeros((2, 8, 4, 4))))
    assert calls == [((2, 1, 16), (2, 1, 16), (2, 8, 16))]


# -- row blocks ---------------------------------------------------------------------

TILED = [  # (d, c, L, rows per block): ragged tails at L = 33 and L = 1024
    (1, 1, 33, 8),
    (1, 6, 33, 8),
    (3, 1, 33, 8),
    (3, 6, 33, 8),
    (1, 1, 1024, 100),
    (3, 6, 1024, 100),
]


def _set_block_rows(monkeypatch, rows, tokens, itemsize=8):
    """Budget the attention blocks to ``rows`` query rows at batch BATCH."""
    monkeypatch.setattr(F, "_ATTENTION_BLOCK_BYTES", rows * BATCH * tokens * itemsize)
    probe = np.zeros((BATCH, 1, tokens), dtype=np.dtype(f"f{itemsize}"))
    assert F._attention_block_rows(probe, tokens) == rows


def _tiled_and_one_block(monkeypatch, d, c, tokens, rows, seed=0):
    arrays, grad = _inputs(d, c, tokens, seed)
    _set_block_rows(monkeypatch, tokens, tokens)
    one_block = _run(F.position_attention, arrays, grad)
    _set_block_rows(monkeypatch, rows, tokens)
    return _run(F.position_attention, arrays, grad), one_block


@pytest.mark.parametrize("d,c,tokens,rows", TILED)
def test_tiled_forward_matches_one_block(monkeypatch, d, c, tokens, rows):
    """Each block holds whole rows, so nothing is rescaled; only the BLAS
    products (``v @ Xᵀ``, and the energy for ``d > 1``) may round
    differently, since BLAS picks its gemm kernel, and with it the
    summation order, by matrix size.  Measured worst over 20 seeds:
    2.5e-15 of the largest entry.
    """
    tiled, one_block = _tiled_and_one_block(monkeypatch, d, c, tokens, rows)
    assert _rel_err(tiled[0], one_block[0]) <= 1e-14


@pytest.mark.parametrize("d,c,tokens,rows", TILED)
def test_tiled_gradients_match_one_block(monkeypatch, d, c, tokens, rows):
    tiled, one_block = _tiled_and_one_block(monkeypatch, d, c, tokens, rows, seed=1)
    for name, got, want in zip(("dq", "dk", "dv"), tiled[1:], one_block[1:]):
        assert got.dtype == np.float64
        assert _rel_err(got, want) <= 1e-12, name


@pytest.mark.parametrize("d", [1, 3])
def test_backward_recomputes_the_forward_attention_bitwise(d):
    """Backward rebuilds X from q, k and the stored row max: bitwise the
    forward's X, so the vjp differentiates exactly the forward's map."""
    rng = np.random.default_rng(d)
    q, k = rng.standard_normal((2, BATCH, d, 40))
    x, row_max = F._attention_exp(q[:, :, 8:16], k)
    again, same_max = F._attention_exp(q[:, :, 8:16], k, row_max)
    assert same_max is row_max
    assert np.array_equal(again, x)


@pytest.mark.parametrize("d,c,tokens,rows", [(1, 1, 1024, 100), (4, 5, 33, 8)])
def test_tiled_float32_error_within_composite_error(monkeypatch, d, c, tokens, rows):
    """The 8x float32 bound above holds when the attention is tiled."""
    _set_block_rows(monkeypatch, rows, tokens, itemsize=4)
    test_float32_error_within_composite_error(d, c, tokens)


def test_one_pass_never_holds_an_attention_map():
    """Forward + backward at L = 2048 (float64) peaks below 1/8 of one
    ``(N, L, L)`` map: the row blocks bound memory, not L²."""
    n, tokens = 2, 2048
    rng = np.random.default_rng(0)
    q, k, v = (Tensor(rng.standard_normal((n, 1, tokens)), requires_grad=True) for _ in range(3))
    grad = rng.standard_normal((n, 1, tokens))
    one_map = n * tokens * tokens * 8
    tracemalloc.start()
    try:
        F.position_attention(q, k, v).backward(grad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < one_map / 8, (peak, one_map)
