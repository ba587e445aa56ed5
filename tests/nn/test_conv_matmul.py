"""Differential oracle for the matmul convolutions.

``conv2d`` runs on plain BLAS matmuls, skips the unfold for 1×1
stride-1 kernels, runs stride-1 forwards of larger kernels as an
implicit GEMM with no columns, computes the stride-1 input gradient
as a correlation with the flipped kernel, and unfolds the columns of
its backward a few samples at a time.  The reference below is the
im2col + einsum + col2im formulation these replaced, written out on
plain numpy arrays, so every value and gradient is checked against an
independent derivation.
"""

import tracemalloc

import numpy as np
import pytest

from repro import nn
from repro.ir import trace, trace_model
from repro.nn import Tensor
from repro.nn import functional as F

RTOL = 1e-12  # relative to the largest magnitude of each compared array


def _ref_im2col(data, kernel, stride):
    n, c, h, w = data.shape
    out_h = (h - kernel) // stride + 1
    out_w = (w - kernel) // stride + 1
    s0, s1, s2, s3 = data.strides
    windows = np.lib.stride_tricks.as_strided(
        data,
        shape=(n, c, kernel, kernel, out_h, out_w),
        strides=(s0, s1, s2, s3, s2 * stride, s3 * stride),
        writeable=False,
    )
    return windows.reshape(n, c * kernel * kernel, out_h * out_w), out_h, out_w


def _ref_col2im(cols, shape, kernel, stride):
    n, c, h, w = shape
    out_h = (h - kernel) // stride + 1
    out_w = (w - kernel) // stride + 1
    cols = cols.reshape(n, c, kernel, kernel, out_h, out_w)
    data = np.zeros(shape, dtype=cols.dtype)
    for ki in range(kernel):
        for kj in range(kernel):
            data[:, :, ki : ki + stride * out_h : stride,
                 kj : kj + stride * out_w : stride] += cols[:, :, ki, kj]
    return data


def _pad(a, p):
    return np.pad(a, ((0, 0), (0, 0), (p, p), (p, p))) if p else a


def _crop(a, p):
    return a[:, :, p:-p, p:-p] if p else a


def _ref_conv2d(x, w, b, stride, padding, g):
    """Forward output and (dx, dw, db) for upstream gradient ``g``."""
    n = x.shape[0]
    c_out, _, k, _ = w.shape
    padded = _pad(x, padding)
    cols, oh, ow = _ref_im2col(padded, k, stride)
    w2d = w.reshape(c_out, -1)
    out = np.einsum("ok,nkl->nol", w2d, cols, optimize=True).reshape(n, c_out, oh, ow)
    if b is not None:
        out = out + b.reshape(1, c_out, 1, 1)
    g = g.reshape(n, c_out, oh * ow)
    dw = np.einsum("nol,nkl->ok", g, cols, optimize=True).reshape(w.shape)
    dcols = np.einsum("ok,nol->nkl", w2d, g, optimize=True)
    dx = _crop(_ref_col2im(dcols, padded.shape, k, stride), padding)
    db = g.sum(axis=(0, 2)) if b is not None else None
    return out, dx, dw, db


def _assert_close(actual, expected):
    assert actual.shape == expected.shape
    scale = max(float(np.abs(expected).max()), 1e-300)
    assert float(np.abs(actual - expected).max()) <= RTOL * scale


def _run(op, x, w, b, stride, padding, g):
    xt = Tensor(x, requires_grad=True)
    wt = nn.Parameter(w)
    bt = nn.Parameter(b) if b is not None else None
    out = op(xt, wt, bt, stride=stride, padding=padding)
    (out * Tensor(g)).sum().backward()
    return out.data, xt.grad, wt.grad, (bt.grad if bt is not None else None)


def _check(actual, expected):
    for got, want in zip(actual, expected):
        if want is None:
            assert got is None
        else:
            _assert_close(got, want)


@pytest.mark.parametrize("bias", [False, True])
@pytest.mark.parametrize("batch", [1, 8])
@pytest.mark.parametrize("padding", [0, 1, 2])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("kernel", [1, 3])
def test_conv2d_matches_einsum_reference(kernel, stride, padding, batch, bias):
    rng = np.random.default_rng(kernel * 1000 + stride * 100 + padding * 10 + batch)
    c_in, c_out = 3, 5
    x = rng.normal(size=(batch, c_in, 7, 6))
    w = rng.normal(size=(c_out, c_in, kernel, kernel))
    b = rng.normal(size=c_out) if bias else None
    out_h = (7 + 2 * padding - kernel) // stride + 1
    out_w = (6 + 2 * padding - kernel) // stride + 1
    g = rng.normal(size=(batch, c_out, out_h, out_w))
    expected = _ref_conv2d(x, w, b, stride, padding, g)
    _check(_run(F.conv2d, x, w, b, stride, padding, g), expected)


@pytest.mark.parametrize("channels", [(3, 5), (4, 4)])
def test_conv2d_input_grad_channel_layouts(channels):
    # Equal channel counts let a kernel that is not swapped in/out
    # through the flipped-kernel gradient still have a valid shape.
    c_in, c_out = channels
    rng = np.random.default_rng(7)
    x = rng.normal(size=(2, c_in, 6, 6))
    w = rng.normal(size=(c_out, c_in, 3, 3))
    g = rng.normal(size=(2, c_out, 6, 6))
    _check(_run(F.conv2d, x, w, None, 1, 1, g), _ref_conv2d(x, w, None, 1, 1, g))


def test_convs_call_no_einsum(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.einsum called")

    monkeypatch.setattr(np, "einsum", refuse)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2, 3, 6, 6))
    for stride in (1, 2):
        w = rng.normal(size=(4, 3, 3, 3))
        g = np.ones(F.conv2d(Tensor(x), Tensor(w), stride=stride, padding=1).shape)
        _run(F.conv2d, x, w, None, stride, 1, g)


def test_stride_one_input_grad_needs_no_col2im(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("col2im called")

    monkeypatch.setattr(F, "col2im", refuse)
    rng = np.random.default_rng(4)
    x = rng.normal(size=(2, 3, 6, 6))
    for kernel, padding in ((1, 0), (1, 2), (3, 0), (3, 1), (3, 2)):
        w = rng.normal(size=(4, 3, kernel, kernel))
        g = np.ones(F.conv2d(Tensor(x), Tensor(w), padding=padding).shape)
        _run(F.conv2d, x, w, None, 1, padding, g)


def test_pointwise_conv_traces_without_unfold():
    conv = nn.Conv2d(4, 6, 1, rng=np.random.default_rng(0))
    graph = trace(conv, (2, 4, 8, 8))
    ops = [node.op for node in graph if node.kind == "op"]
    assert "im2col" not in ops
    assert ops.count("reshape") >= 1
    assert ops.count("matmul") == 1


# -- padding without np.pad -----------------------------------------------------------


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(1, 1, 1, 1), (2, 3, 5, 7), (3, 9, 4), (1, 2, 3, 1, 7)])
@pytest.mark.parametrize("p", [1, 2])
def test_pad_spatial_is_bitwise_np_pad(dtype, shape, p):
    rng = np.random.default_rng(p)
    x = rng.standard_normal(shape).astype(dtype)
    x.flat[::4] = -0.0
    x.flat[1::5] = np.nan
    want = np.pad(x, ((0, 0),) * (x.ndim - 2) + ((p, p), (p, p)))
    got = F._pad_spatial(x, p)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.flags.c_contiguous
    bits = np.dtype(f"u{x.itemsize}")
    assert np.array_equal(got.view(bits), want.view(bits))
    # Views and non-contiguous inputs pad the same.
    strided = x[..., ::-1]
    assert np.array_equal(
        F._pad_spatial(strided, p).view(bits),
        np.pad(strided, ((0, 0),) * (x.ndim - 2) + ((p, p), (p, p))).view(bits),
    )


def test_pad2d_and_padded_convs_call_no_np_pad(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.pad called")

    monkeypatch.setattr(np, "pad", refuse)
    rng = np.random.default_rng(6)
    x = Tensor(rng.normal(size=(2, 3, 5, 5)), requires_grad=True)
    F.pad2d(x, 2).sum().backward()
    # The stride-1 input gradient pads dy by k - 1 - padding: 1, 3 and 0.
    for kernel, padding in ((3, 1), (5, 1), (3, 2)):
        w = rng.normal(size=(4, 3, kernel, kernel))
        g = np.ones(F.conv2d(Tensor(x.data), Tensor(w), padding=padding).shape)
        _run(F.conv2d, x.data, w, None, 1, padding, g)


def test_traced_pads_still_record_pad_nodes():
    graph = trace_model("ours", preset="fast", grid=64)
    assert sum(node.op == "pad" for node in graph) == 22


# -- implicit-GEMM forward (stride 1, kernel > 1) -------------------------------------
#
# ``_ref_conv2d`` above unfolds with im2col, the forward that ``_correlate``
# replaced for stride-1 kernels larger than 1×1.


@pytest.mark.parametrize("transposed", [False, True])
@pytest.mark.parametrize("bias", [False, True])
@pytest.mark.parametrize("channels", [(5, 2), (2, 5)])
@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("padding", [0, 1, 2])
@pytest.mark.parametrize("kernel", [3, 5])
def test_implicit_gemm_matches_im2col_reference(
    kernel, padding, batch, channels, bias, transposed
):
    rng = np.random.default_rng(kernel * 1000 + padding * 100 + batch * 10 + channels[0])
    c_in, c_out = channels
    h, w = 9, 7
    if transposed:
        x = rng.normal(size=(batch, c_in, w, h)).transpose(0, 1, 3, 2)
        assert not x.flags.c_contiguous
    else:
        x = rng.normal(size=(batch, c_in, h, w))
    wt = rng.normal(size=(c_out, c_in, kernel, kernel))
    b = rng.normal(size=c_out) if bias else None
    out_h, out_w = h + 2 * padding - kernel + 1, w + 2 * padding - kernel + 1
    g = rng.normal(size=(batch, c_out, out_h, out_w))
    _check(_run(F.conv2d, x, wt, b, 1, padding, g), _ref_conv2d(x, wt, b, 1, padding, g))


@pytest.mark.parametrize("bias", [False, True])
def test_implicit_gemm_float32_stays_float32(float32_mode, adjoint_log, bias):
    rng = np.random.default_rng(11)
    x = Tensor(rng.normal(size=(2, 3, 7, 5)), requires_grad=True)
    w = nn.Parameter(rng.normal(size=(4, 3, 3, 3)))
    b = nn.Parameter(rng.normal(size=4)) if bias else None
    out = F.conv2d(x, w, b, padding=1)
    assert out.data.dtype == np.float32
    out.sum().backward()
    for leaf in [x, w] + ([b] if bias else []):
        dtypes = [dtype for target, _, dtype, _ in adjoint_log if target is leaf]
        assert dtypes == [np.float32], dtypes


def test_conv_forward_keeps_no_columns(float32_mode):
    """A grad-enabled forward holds its output and no im2col columns."""
    rng = np.random.default_rng(12)
    x = Tensor(rng.normal(size=(8, 24, 32, 32)), requires_grad=True)
    w = nn.Parameter(rng.normal(size=(6, 24, 3, 3)))
    b = nn.Parameter(rng.normal(size=6))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = F.conv2d(x, w, b, padding=1)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert out.requires_grad
    # The columns would be 9x the input: 7 MiB here.
    assert held <= out.data.nbytes + 64 * 1024, held


def test_frozen_weight_backward_unfolds_only_for_input_grad(monkeypatch):
    calls = []
    unfold = F.im2col

    def spy(data, kernel, stride):
        calls.append(data.shape)
        return unfold(data, kernel, stride)

    monkeypatch.setattr(F, "im2col", spy)
    rng = np.random.default_rng(13)
    x = Tensor(rng.normal(size=(5, 3, 30, 30)), requires_grad=True)
    w = nn.Parameter(rng.normal(size=(4, 3, 3, 3)))
    w.requires_grad = False
    out = F.conv2d(x, w, padding=1)
    assert calls == []
    out.sum().backward()
    # Unfolds of the output gradient padded by k - 1 - padding = 1, in
    # chunks of whole samples of at most 1 MiB of columns: one sample's
    # are 4·9·30·30 float64 = 259,200 bytes, so 4 samples, then 1.
    assert calls == [(4, 4, 32, 32), (1, 4, 32, 32)]
    assert x.grad is not None and w.grad is None


# -- chunked backward (columns unfolded a few samples at a time) ----------------------


def _batched_backward(x, w, g, stride, padding):
    """``(dx, dw)`` as one whole-batch unfold each: the backward before chunking."""
    n, c_in = x.shape[:2]
    c_out, _, kernel, _ = w.shape
    grad = g.reshape(n, c_out, -1)
    padded = F._pad_spatial(x, padding) if padding else x
    cols = F.im2col(padded, kernel, stride)[0]
    dw = (grad @ cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
    if stride == 1:
        edge = kernel - 1 - padding
        if edge > 0:
            g = F._pad_spatial(g, edge)
        elif edge < 0:
            g = g[:, :, -edge:edge, -edge:edge]
        w_flip = w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
        dx = (w_flip.reshape(c_in, -1) @ F.im2col(g, kernel, 1)[0]).reshape(x.shape)
    else:
        dx = _crop(F.col2im(w.reshape(c_out, -1).T @ grad, padded.shape, kernel, stride), padding)
    return dx, dw


def _same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    bits = np.dtype(f"u{a.itemsize}")
    return np.array_equal(np.ascontiguousarray(a).view(bits), np.ascontiguousarray(b).view(bits))


@pytest.mark.parametrize("trainable", [True, False])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("batch", [1, 3, 8])
@pytest.mark.parametrize("padding", [0, 1, 2])
@pytest.mark.parametrize("kernel", [1, 3, 5])
@pytest.mark.parametrize("stride", [1, 2])
def test_chunked_backward_is_bitwise_the_batched_one(
    monkeypatch, stride, kernel, padding, batch, dtype, trainable
):
    rng = np.random.default_rng([stride, kernel, padding, batch])
    c_in, c_out = 3, 4
    x = rng.normal(size=(batch, c_in, 9, 7)).astype(dtype)
    w = rng.normal(size=(c_out, c_in, kernel, kernel)).astype(dtype)
    out_h = (9 + 2 * padding - kernel) // stride + 1
    out_w = (7 + 2 * padding - kernel) // stride + 1
    g = rng.normal(size=(batch, c_out, out_h, out_w)).astype(dtype)
    want_dx, want_dw = _batched_backward(x, w, g, stride, padding)
    # Two samples of the weight-gradient columns per block: a batch of
    # 3 or 8 runs in several chunks, with a ragged tail at 3.
    block = 2 * c_in * kernel * kernel * out_h * out_w * x.itemsize
    monkeypatch.setattr(F, "_BLOCK_BYTES", block)
    nn.set_default_dtype(dtype)
    try:
        xt = Tensor(x, requires_grad=True)
        wt = nn.Parameter(w)
        wt.requires_grad = trainable
        F.conv2d(xt, wt, stride=stride, padding=padding).backward(g)
    finally:
        nn.set_default_dtype(np.float64)
    assert _same_bits(xt.grad, want_dx)
    if trainable:
        assert _same_bits(wt.grad, want_dw)
    else:
        assert wt.grad is None


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("batch", [1, 3, 8])
@pytest.mark.parametrize("padding", [0, 1, 2])
@pytest.mark.parametrize("kernel", [3, 5])
def test_chunked_correlate_is_bitwise_one_whole_batch_call(
    monkeypatch, kernel, padding, batch, dtype
):
    rng = np.random.default_rng([kernel, padding, batch])
    c_in, c_out, h, w = 3, 4, 9, 7
    x = rng.normal(size=(batch, c_in, h, w)).astype(dtype)
    wt = rng.normal(size=(c_out, c_in, kernel, kernel)).astype(dtype)
    sample = (c_in + 2 * c_out) * (h + 2 * padding) * (w + 2 * padding) * x.itemsize
    monkeypatch.setattr(F, "_BLOCK_BYTES", batch * sample)
    want = F._correlate(x, wt, padding)
    # Two samples per chunk: a batch of 3 or 8 runs in several chunks,
    # with a ragged tail at 3.
    monkeypatch.setattr(F, "_BLOCK_BYTES", 2 * sample)
    got = F._correlate(x, wt, padding)
    assert _same_bits(got, want)


@pytest.mark.parametrize("trainable", [True, False])
def test_conv_backward_holds_one_chunk_of_columns(float32_mode, trainable):
    """Backward holds the input gradient and one chunk of columns at a time."""
    rng = np.random.default_rng(12)
    x = Tensor(rng.normal(size=(8, 24, 32, 32)), requires_grad=True)
    w = nn.Parameter(rng.normal(size=(6, 24, 3, 3)))
    w.requires_grad = trainable
    out = F.conv2d(x, w, padding=1)
    g = np.ones(out.shape, dtype=np.float32)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out.backward(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # x.grad (the vjp's array, taken with no copy), the output's grad
    # and one block of columns.  The whole-batch weight-gradient
    # columns alone would be 7 MB.
    assert peak - start <= 2 * x.data.nbytes + F._BLOCK_BYTES, peak - start
