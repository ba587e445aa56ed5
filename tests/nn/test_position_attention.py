"""F.position_attention against the composite PAM it replaced.

``composite_pam`` is the matmul → softmax → transpose → matmul graph
``PositionAttention.forward`` used to build from generic primitives.
The fused primitive must agree with it on the output and on all three
gradients: to rounding in float64, and within a small factor of the
composite's own rounding error in float32.
"""

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
