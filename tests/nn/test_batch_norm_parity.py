"""``batch_norm`` centres its input once and stays bitwise equal.

The reference is the two-pass formulation (``np.mean`` + ``np.var`` and a
second ``x - mean``) that the single centering pass replaced; output,
running statistics and every gradient must match it exactly.
"""

import numpy as np
import pytest

from repro import nn
from repro.nn import Tensor
from repro.nn import functional as F


def _ref_batch_norm(x, gamma, beta, running_mean, running_var, training,
                    momentum=0.1, eps=1e-5):
    n, c, h, w = x.shape
    axes = (0, 2, 3)
    if training:
        mean = x.data.mean(axis=axes)
        var = x.data.var(axis=axes)
        count = n * h * w
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean
        unbiased = var * count / max(count - 1, 1)
        running_var *= 1.0 - momentum
        running_var += momentum * unbiased
    else:
        mean = running_mean
        var = running_var

    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = (x.data - mean.reshape(1, c, 1, 1)) * inv_std.reshape(1, c, 1, 1)
    out_data = gamma.data.reshape(1, c, 1, 1) * x_hat + beta.data.reshape(1, c, 1, 1)

    def backward(out):
        g = out.grad
        beta._accumulate(g.sum(axis=axes))
        gamma._accumulate((g * x_hat).sum(axis=axes))
        if not x.requires_grad:
            return
        gw = g * gamma.data.reshape(1, c, 1, 1)
        if training:
            m = n * h * w
            sum_gw = gw.sum(axis=axes, keepdims=True)
            sum_gw_xhat = (gw * x_hat).sum(axis=axes, keepdims=True)
            grad = inv_std.reshape(1, c, 1, 1) / m * (m * gw - sum_gw - x_hat * sum_gw_xhat)
        else:
            grad = gw * inv_std.reshape(1, c, 1, 1)
        x._accumulate(grad)

    return Tensor._make(out_data, (x, gamma, beta), backward)


def _run(op, x, gamma, beta, running_mean, running_var, upstream, training):
    xt = Tensor(x.copy(), requires_grad=True)
    gt = nn.Parameter(gamma.copy())
    bt = nn.Parameter(beta.copy())
    rm, rv = running_mean.copy(), running_var.copy()
    out = op(xt, gt, bt, rm, rv, training)
    (out * Tensor(upstream)).sum().backward()
    return out.data, rm, rv, xt.grad, gt.grad, bt.grad


@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(8, 16, 32, 32), (8, 64, 4, 4), (1, 32, 64, 64)])
def test_batch_norm_bitwise_equal_to_two_pass(shape, dtype, training):
    rng = np.random.default_rng(sum(shape))
    c = shape[1]
    x = (rng.normal(size=shape) * 3.0 + 1.5).astype(dtype)
    gamma = rng.normal(size=c).astype(dtype)
    beta = rng.normal(size=c).astype(dtype)
    running_mean = rng.normal(size=c).astype(dtype)
    running_var = rng.uniform(0.5, 2.0, size=c).astype(dtype)
    upstream = rng.normal(size=shape).astype(dtype)
    args = (x, gamma, beta, running_mean, running_var, upstream, training)
    for got, want in zip(_run(F.batch_norm, *args), _run(_ref_batch_norm, *args)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
