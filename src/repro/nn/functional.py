"""Structured neural-network operations with hand-written adjoints.

These are the image-shaped primitives the paper's models need —
2-D convolution (im2col + BLAS matmul; stride-1 input gradient via
flipped-kernel correlation; col2im only for strided convs), max
pooling, nearest-neighbour upsampling, zero padding,
softmax/log-softmax, position attention and normalization — built on
:class:`repro.nn.tensor.Tensor`.  Each op installs an explicit backward
closure rather than composing scalar autograd primitives, which keeps
numpy training tractable at the grid sizes used by the benchmark
harness.

All image tensors follow the NCHW convention used throughout the paper
(Fig. 5 reports shapes as ``[channels, height, width]``).
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, as_tensor

__all__ = [
    "pad2d",
    "im2col",
    "col2im",
    "conv2d",
    "max_pool2d",
    "avg_pool2d",
    "upsample_nearest",
    "softmax",
    "log_softmax",
    "position_attention",
    "batch_norm",
    "layer_norm",
    "dropout",
    "global_avg_pool2d",
]


def pad2d(x: Tensor, padding: int) -> Tensor:
    """Zero-pad the two trailing (spatial) axes of an NCHW tensor."""
    if padding == 0:
        return x
    p = int(padding)
    pads = ((0, 0),) * (x.ndim - 2) + ((p, p), (p, p))

    def backward(out: Tensor) -> None:
        index = (slice(None),) * (x.ndim - 2) + (slice(p, -p), slice(p, -p))
        x._accumulate(out.grad[index])

    return Tensor._make(np.pad(x.data, pads), (x,), backward)


def im2col(
    data: np.ndarray, kernel: int, stride: int
) -> tuple[np.ndarray, int, int]:
    """Unfold padded NCHW data into convolution columns.

    Returns ``(cols, out_h, out_w)`` where ``cols`` has shape
    ``(N, C * kernel * kernel, out_h * out_w)``.  A 1×1 stride-1 kernel
    needs no unfold: its columns are the pixels, so ``cols`` is a
    reshape of ``data`` (a view when ``data`` is contiguous).
    """
    n, c, h, w = data.shape
    if kernel == 1 and stride == 1:
        return data.reshape(n, c, h * w), h, w
    # Symbolic tracing hook: as_strided does not speak the
    # __array_function__ protocol, so abstract arrays provide their own
    # shape-only implementation (see repro.ir.symbolic).
    symbolic = getattr(data, "__symbolic_im2col__", None)
    if symbolic is not None:
        return symbolic(kernel, stride)
    out_h = (h - kernel) // stride + 1
    out_w = (w - kernel) // stride + 1
    s0, s1, s2, s3 = data.strides
    windows = np.lib.stride_tricks.as_strided(
        data,
        shape=(n, c, kernel, kernel, out_h, out_w),
        strides=(s0, s1, s2, s3, s2 * stride, s3 * stride),
        writeable=False,
    )
    cols = windows.reshape(n, c * kernel * kernel, out_h * out_w)
    return np.ascontiguousarray(cols), out_h, out_w


def col2im(
    cols: np.ndarray,
    shape: tuple[int, int, int, int],
    kernel: int,
    stride: int,
) -> np.ndarray:
    """Adjoint of :func:`im2col`: scatter-add columns back to NCHW.

    One strided read-modify-write pass per kernel tap.  Only the input
    gradient of strided convolutions in :func:`conv2d` needs it.
    """
    symbolic = getattr(cols, "__symbolic_col2im__", None)
    if symbolic is not None:
        return symbolic(shape, kernel, stride)
    n, c, h, w = shape
    out_h = (h - kernel) // stride + 1
    out_w = (w - kernel) // stride + 1
    cols = cols.reshape(n, c, kernel, kernel, out_h, out_w)
    data = np.zeros(shape, dtype=cols.dtype)
    for ki in range(kernel):
        h_stop = ki + stride * out_h
        for kj in range(kernel):
            w_stop = kj + stride * out_w
            data[:, :, ki:h_stop:stride, kj:w_stop:stride] += cols[:, :, ki, kj]
    return data


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2-D convolution over an NCHW tensor.

    im2col + BLAS matmul: the forward is ``w2d @ cols`` and the weight
    gradient ``(grad @ colsᵀ).sum(0)``.  For stride 1 the input gradient
    is a forward correlation of the output gradient with the flipped,
    in/out-swapped kernel (im2col + one matmul); col2im is used only for
    strided convolutions.

    Parameters
    ----------
    x:
        Input of shape ``(N, C_in, H, W)``.
    weight:
        Kernel of shape ``(C_out, C_in, k, k)``.
    bias:
        Optional per-output-channel bias of shape ``(C_out,)``.
    """
    x = as_tensor(x)
    n = x.shape[0]
    c_out, c_in, kernel, kernel_w = weight.shape
    if kernel != kernel_w:
        raise ValueError("only square kernels are supported")
    if x.shape[1] != c_in:
        raise ValueError(
            f"input has {x.shape[1]} channels but weight expects {c_in}"
        )

    padded = np.pad(
        x.data, ((0, 0), (0, 0), (padding, padding), (padding, padding))
    ) if padding else x.data
    cols, out_h, out_w = im2col(padded, kernel, stride)
    w2d = weight.data.reshape(c_out, -1)
    out_data = (w2d @ cols).reshape(n, c_out, out_h, out_w)
    if bias is not None:
        out_data = out_data + bias.data.reshape(1, c_out, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(out: Tensor) -> None:
        grad = out.grad.reshape(n, c_out, out_h * out_w)
        if bias is not None:
            bias._accumulate(grad.sum(axis=(0, 2)))
        if weight.requires_grad:
            grad_w = (grad @ cols.transpose(0, 2, 1)).sum(axis=0)
            weight._accumulate(grad_w.reshape(weight.shape))
        if not x.requires_grad:
            return
        if stride == 1:
            # dx = correlate(pad(dy, k-1), flip(w)ᵀ) cropped by
            # ``padding``: pad (or crop) dy by k-1-padding in one step.
            edge = kernel - 1 - padding
            g = out.grad
            if edge > 0:
                g = np.pad(g, ((0, 0), (0, 0), (edge, edge), (edge, edge)))
            elif edge < 0:
                g = g[:, :, -edge:edge, -edge:edge]
            grad_cols, _, _ = im2col(g, kernel, 1)
            w_flip = weight.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
            x._accumulate((w_flip.reshape(c_in, -1) @ grad_cols).reshape(x.shape))
            return
        grad_padded = col2im(w2d.T @ grad, padded.shape, kernel, stride)
        if padding:
            grad_padded = grad_padded[:, :, padding:-padding, padding:-padding]
        x._accumulate(grad_padded)

    return Tensor._make(out_data, parents, backward)


def max_pool2d(x: Tensor, kernel: int = 2, stride: int | None = None) -> Tensor:
    """Max pooling over non-overlapping (by default) windows."""
    stride = kernel if stride is None else stride
    if stride != kernel:
        raise ValueError("only stride == kernel pooling is supported")
    n, c, h, w = x.shape
    if h % kernel or w % kernel:
        raise ValueError(
            f"spatial dims {(h, w)} not divisible by pooling kernel {kernel}"
        )
    out_h, out_w = h // kernel, w // kernel
    windows = x.data.reshape(n, c, out_h, kernel, out_w, kernel)
    out_data = windows.max(axis=(3, 5))

    def backward(out: Tensor) -> None:
        mask = windows == out_data[:, :, :, None, :, None]
        counts = mask.sum(axis=(3, 5), keepdims=True)
        grad = mask * (out.grad[:, :, :, None, :, None] / counts)
        x._accumulate(grad.reshape(n, c, h, w))

    return Tensor._make(out_data, (x,), backward)


def avg_pool2d(x: Tensor, kernel: int = 2) -> Tensor:
    """Average pooling over non-overlapping windows."""
    n, c, h, w = x.shape
    if h % kernel or w % kernel:
        raise ValueError(
            f"spatial dims {(h, w)} not divisible by pooling kernel {kernel}"
        )
    out_h, out_w = h // kernel, w // kernel
    windows = x.data.reshape(n, c, out_h, kernel, out_w, kernel)
    out_data = windows.mean(axis=(3, 5))

    def backward(out: Tensor) -> None:
        grad = out.grad[:, :, :, None, :, None] / (kernel * kernel)
        x._accumulate(
            np.broadcast_to(grad, (n, c, out_h, kernel, out_w, kernel))
            .reshape(n, c, h, w)
            .copy()
        )

    return Tensor._make(out_data, (x,), backward)


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Average over the spatial axes, returning ``(N, C)``."""
    return x.mean(axis=(2, 3))


def upsample_nearest(x: Tensor, scale: int = 2) -> Tensor:
    """Nearest-neighbour upsampling of an NCHW tensor by ``scale``."""
    n, c, h, w = x.shape
    out_data = np.repeat(np.repeat(x.data, scale, axis=2), scale, axis=3)

    def backward(out: Tensor) -> None:
        grad = out.grad.reshape(n, c, h, scale, w, scale).sum(axis=(3, 5))
        x._accumulate(grad)

    return Tensor._make(out_data, (x,), backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    out_data = exp / exp.sum(axis=axis, keepdims=True)

    def backward(out: Tensor) -> None:
        g = out.grad
        dot = (g * out_data).sum(axis=axis, keepdims=True)
        x._accumulate(out_data * (g - dot))

    return Tensor._make(out_data, (x,), backward)


#: Bytes of one row block of the position attention: ``rows · N · L``
#: elements of the unnormalized attention, sized to stay in cache.
_ATTENTION_BLOCK_BYTES = 1 << 20


def _attention_block_rows(qd: np.ndarray, tokens: int) -> int:
    """Query rows per block of :func:`position_attention`.

    Symbolic arrays (:mod:`repro.ir.symbolic`) record the whole
    attention as one block, so the traced graph does not depend on the
    block size.
    """
    if not isinstance(qd, np.ndarray):
        return tokens
    n = qd.shape[0]
    return max(1, _ATTENTION_BLOCK_BYTES // (n * tokens * qd.dtype.itemsize))


def _attention_exp(qb: np.ndarray, kd: np.ndarray, row_max=None):
    """``(X, max E)`` for the query block ``qb``: ``X = exp(E - max E)``.

    ``E = qbᵀk`` is ``(N, rows, L)``; ``X`` is built in place over it.
    Given the stored ``row_max`` of a previous call, ``X`` is recomputed
    bitwise identically.
    """
    n, d, rows = qb.shape
    if d == 1:
        # Rank-1 energy: an outer product, which broadcasting builds
        # without a matmul of inner dimension 1.
        energy = qb.reshape(n, rows, 1) * kd
    else:
        energy = np.swapaxes(qb, 1, 2) @ kd
    if row_max is None:
        row_max = energy.max(axis=-1, keepdims=True)
    energy -= row_max
    return np.exp(energy, out=energy), row_max


def _attention_forward(qb: np.ndarray, kd: np.ndarray, vd: np.ndarray):
    """``(out, 1/ΣX, max E)`` for the query block ``qb``."""
    x, row_max = _attention_exp(qb, kd)
    inv = 1 / x.sum(axis=-1)
    out = (vd @ np.swapaxes(x, 1, 2)) * inv.reshape(qb.shape[0], 1, qb.shape[2])
    return out, inv, row_max


def position_attention(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """DANet position attention (Eqs. 4–5): ``v · softmax(qᵀk)ᵀ``.

    ``q`` and ``k`` are ``(N, d, L)`` queries and keys, ``v`` is the
    ``(N, c, L)`` value map; the result is ``(N, c, L)`` with
    ``out[:, :, i] = Σ_j P_ij v[:, :, j]`` and ``P = softmax_j(qᵢ·kⱼ)``.

    One primitive instead of matmul → softmax → transpose → matmul, run
    over blocks of whole query rows (FlashAttention-style row tiling and
    recompute).  A block of the unnormalized attention ``X = exp(E -
    max E)`` holds ``rows · N · L`` elements, about 1 MiB, so it stays
    in cache and no ``L × L`` map is ever held.  The forward stores only
    the output, per-row ``1/ΣX`` and per-row ``max E``; each block holds
    whole rows, so the max is exact and nothing is rescaled.  Only the
    BLAS products (the ``d > 1`` energy and ``v @ Xᵀ``) may round
    differently from a one-block computation, since BLAS picks its gemm
    kernel by matrix size.  Backward recomputes each block of ``X`` from
    ``q``, ``k`` and the stored max (bitwise the forward's ``X``) and
    uses it only inside matmuls, so no ``L × L`` gradient is formed
    either.  With ``G`` the output gradient and ``r_i = Σ_c G_ci out_ci``
    the softmax row dot, ``dE_ij = P_ij (Σ_c G_ci v_cj − r_i)``, which
    contracts as

    * ``dv = (G / ΣX) @ X``;
    * ``dq = ((Σ_c G_c · X @ (v_c ⊙ k)ᵀ) − r · X @ kᵀ) / ΣX``;
    * ``dk = Σ_c v_c ⊙ ((q ⊙ G_c / ΣX) @ X) − (q ⊙ r / ΣX) @ X``.
    """
    n, d, tokens = q.shape
    c = v.shape[1]
    cd = c * d
    qd, kd, vd = q.data, k.data, v.data
    rows = _attention_block_rows(qd, tokens)
    blocks = [slice(start, start + rows) for start in range(0, tokens, rows)]
    if len(blocks) == 1:
        out_data, inv, row_max = _attention_forward(qd, kd, vd)
    else:
        out_data = np.empty((n, c, tokens), dtype=np.result_type(qd, kd, vd))
        inv = np.empty((n, tokens), dtype=out_data.dtype)
        row_max = np.empty((n, tokens, 1), dtype=out_data.dtype)
        for b in blocks:
            out_data[:, :, b], inv[:, b], row_max[:, b] = _attention_forward(
                qd[:, :, b], kd, vd
            )

    def backward(out: Tensor) -> None:
        g = out.grad
        g_inv = g * inv[:, None, :]  # (N, c, L)
        r_inv = (g * out.data).sum(axis=1) * inv  # (N, L)
        # dq: one right-multiply of X by [v_c ⊙ k_a ; k_a]ᵀ.
        vk = (vd[:, :, None, :] * kd[:, None, :, :]).reshape(n, cd, tokens)
        rhs = np.swapaxes(np.concatenate([vk, kd], axis=1), 1, 2)
        # dv and dk: one left-multiply of X by
        # [G / ΣX ; q_a ⊙ G_c / ΣX ; q_a ⊙ r / ΣX].
        qg = (qd[:, None, :, :] * g_inv[:, :, None, :]).reshape(n, cd, tokens)
        lhs = np.concatenate([g_inv, qg, qd * r_inv[:, None, :]], axis=1)
        m = np.empty((n, tokens, cd + d), dtype=rhs.dtype)
        left = np.zeros_like(lhs)
        for b in blocks:
            x, _ = _attention_exp(qd[:, :, b], kd, row_max[:, b])
            m[:, b] = x @ rhs
            left += lhs[:, :, b] @ x
        dq = np.einsum("nci,nica->nai", g_inv, m[:, :, :cd].reshape(n, tokens, c, d))
        dq -= r_inv[:, None, :] * np.swapaxes(m[:, :, cd:], 1, 2)
        dk = np.einsum("ncj,ncaj->naj", vd, left[:, c : c + cd].reshape(n, c, d, tokens))
        dk -= left[:, c + cd :]
        q._accumulate(dq)
        k._accumulate(dk)
        v._accumulate(left[:, :c])

    return Tensor._make(out_data, (q, k, v), backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - log_z
    probs = np.exp(out_data)

    def backward(out: Tensor) -> None:
        g = out.grad
        x._accumulate(g - probs * g.sum(axis=axis, keepdims=True))

    return Tensor._make(out_data, (x,), backward)


def batch_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    momentum: float = 0.1,
    eps: float = 1e-5,
) -> Tensor:
    """Batch normalization over an NCHW tensor (per-channel statistics).

    ``running_mean``/``running_var`` are updated in place when
    ``training`` is true, mirroring the PyTorch semantics the paper's
    implementation relies on.
    """
    n, c, h, w = x.shape
    axes = (0, 2, 3)
    if training:
        # One centering pass serves the variance and x_hat; the sums are
        # the ones np.mean/np.var take, so the statistics are bitwise
        # equal to theirs.
        count = n * h * w
        mean = x.data.mean(axis=axes, keepdims=True)
        centered = x.data - mean
        var = (centered * centered).sum(axis=axes) / count
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean.reshape(c)
        unbiased = var * count / max(count - 1, 1)
        running_var *= 1.0 - momentum
        running_var += momentum * unbiased
    else:
        centered = x.data - running_mean.reshape(1, c, 1, 1)
        var = running_var

    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = centered * inv_std.reshape(1, c, 1, 1)
    out_data = gamma.data.reshape(1, c, 1, 1) * x_hat + beta.data.reshape(
        1, c, 1, 1
    )

    def backward(out: Tensor) -> None:
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
            grad = (
                inv_std.reshape(1, c, 1, 1)
                / m
                * (m * gw - sum_gw - x_hat * sum_gw_xhat)
            )
        else:
            grad = gw * inv_std.reshape(1, c, 1, 1)
        x._accumulate(grad)

    return Tensor._make(out_data, (x, gamma, beta), backward)


def layer_norm(
    x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5
) -> Tensor:
    """Layer normalization over the trailing axis (transformer style)."""
    mean = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = (x.data - mean) * inv_std
    out_data = gamma.data * x_hat + beta.data

    def backward(out: Tensor) -> None:
        g = out.grad
        reduce_axes = tuple(range(g.ndim - 1))
        beta._accumulate(g.sum(axis=reduce_axes))
        gamma._accumulate((g * x_hat).sum(axis=reduce_axes))
        if not x.requires_grad:
            return
        gw = g * gamma.data
        d = x.shape[-1]
        sum_gw = gw.sum(axis=-1, keepdims=True)
        sum_gw_xhat = (gw * x_hat).sum(axis=-1, keepdims=True)
        x._accumulate(inv_std / d * (d * gw - sum_gw - x_hat * sum_gw_xhat))

    return Tensor._make(out_data, (x, gamma, beta), backward)


def dropout(x: Tensor, p: float, training: bool, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; identity when not training or ``p == 0``."""
    if not training or p <= 0.0:
        return x
    keep = 1.0 - p
    mask = (rng.random(x.shape) < keep) / keep

    def backward(out: Tensor) -> None:
        x._accumulate(out.grad * mask)

    return Tensor._make(x.data * mask, (x,), backward)
