"""Structured neural-network operations with hand-written adjoints.

These are the image-shaped primitives the paper's models need —
2-D convolution (im2col + BLAS matmul; stride-1 input gradient via
flipped-kernel correlation; col2im only for strided convs), transposed
convolution, max pooling, nearest-neighbour
upsampling, zero padding, softmax/log-softmax, position attention and
normalization — built on :class:`repro.nn.tensor.Tensor`.  Each op
installs an explicit backward closure rather than composing scalar
autograd primitives, which keeps numpy training tractable at the grid
sizes used by the benchmark harness.

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
    "conv_transpose2d",
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

    One strided read-modify-write pass per kernel tap.  :func:`conv2d`
    needs it only for the input gradient of strided convolutions;
    :func:`conv_transpose2d` uses it for its forward.
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


def conv_transpose2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2-D transposed convolution (the adjoint of :func:`conv2d`).

    Parameters
    ----------
    x:
        Input of shape ``(N, C_in, H, W)``.
    weight:
        Kernel of shape ``(C_in, C_out, k, k)`` (PyTorch convention).
    bias:
        Optional per-output-channel bias of shape ``(C_out,)``.

    Output spatial size is ``(H - 1) * stride + k - 2 * padding``.
    """
    x = as_tensor(x)
    n, c_in, h, w = x.shape
    c_in_w, c_out, kernel, kernel_w = weight.shape
    if kernel != kernel_w:
        raise ValueError("only square kernels are supported")
    if c_in != c_in_w:
        raise ValueError(
            f"input has {c_in} channels but weight expects {c_in_w}"
        )
    out_h = (h - 1) * stride + kernel - 2 * padding
    out_w = (w - 1) * stride + kernel - 2 * padding
    if out_h <= 0 or out_w <= 0:
        raise ValueError(
            f"non-positive output size {(out_h, out_w)}; check padding"
        )

    # Forward of convT == input-backward of conv: expand x through the
    # kernel into columns, then scatter-add (col2im) onto the output.
    w2d = weight.data.reshape(c_in, c_out * kernel * kernel)
    x_flat = x.data.reshape(n, c_in, h * w)
    cols = w2d.T @ x_flat
    padded_shape = (n, c_out, out_h + 2 * padding, out_w + 2 * padding)
    out_data = col2im(cols, padded_shape, kernel, stride)
    if padding:
        out_data = out_data[:, :, padding:-padding, padding:-padding]
    if bias is not None:
        out_data = out_data + bias.data.reshape(1, c_out, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(out: Tensor) -> None:
        grad = out.grad
        if bias is not None:
            bias._accumulate(grad.sum(axis=(0, 2, 3)))
        grad_padded = (
            np.pad(grad, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
            if padding
            else grad
        )
        grad_cols, _, _ = im2col(grad_padded, kernel, stride)
        if weight.requires_grad:
            grad_w = (x_flat @ grad_cols.transpose(0, 2, 1)).sum(axis=0)
            weight._accumulate(grad_w.reshape(weight.shape))
        if x.requires_grad:
            grad_x = w2d @ grad_cols
            x._accumulate(grad_x.reshape(n, c_in, h, w))

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


def position_attention(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """DANet position attention (Eqs. 4–5): ``v · softmax(qᵀk)ᵀ``.

    ``q`` and ``k`` are ``(N, d, L)`` queries and keys, ``v`` is the
    ``(N, c, L)`` value map; the result is ``(N, c, L)`` with
    ``out[:, :, i] = Σ_j P_ij v[:, :, j]`` and ``P = softmax_j(qᵢ·kⱼ)``.

    One primitive instead of matmul → softmax → transpose → matmul: the
    ``L × L`` attention is built in place (unnormalized ``X = exp(E -
    max E)`` plus per-row ``1/ΣX``) and backward uses it only inside
    matmuls, so no ``L × L`` gradient is ever formed.  With ``G`` the
    output gradient and ``r_i = Σ_c G_ci out_ci`` the softmax row dot,
    ``dE_ij = P_ij (Σ_c G_ci v_cj − r_i)``, which contracts as

    * ``dv = (G / ΣX) @ X``;
    * ``dq = ((Σ_c G_c · X @ (v_c ⊙ k)ᵀ) − r · X @ kᵀ) / ΣX``;
    * ``dk = Σ_c v_c ⊙ ((q ⊙ G_c / ΣX) @ X) − (q ⊙ r / ΣX) @ X``.
    """
    n, d, tokens = q.shape
    c = v.shape[1]
    cd = c * d
    qd, kd, vd = q.data, k.data, v.data
    if d == 1:
        # Rank-1 energy: an outer product, which broadcasting builds
        # without a matmul of inner dimension 1.
        energy = qd.reshape(n, tokens, 1) * kd
    else:
        energy = np.swapaxes(qd, 1, 2) @ kd
    energy -= energy.max(axis=-1, keepdims=True)
    x = np.exp(energy, out=energy)
    inv = 1 / x.sum(axis=-1)
    out_data = (vd @ np.swapaxes(x, 1, 2)) * inv.reshape(n, 1, tokens)

    def backward(out: Tensor) -> None:
        g = out.grad
        g_inv = g * inv[:, None, :]  # (N, c, L)
        r_inv = (g * out.data).sum(axis=1) * inv  # (N, L)
        # dq: one right-multiply of X by [v_c ⊙ k_a ; k_a]ᵀ.
        vk = (vd[:, :, None, :] * kd[:, None, :, :]).reshape(n, cd, tokens)
        m = x @ np.swapaxes(np.concatenate([vk, kd], axis=1), 1, 2)
        dq = np.einsum("nci,nica->nai", g_inv, m[:, :, :cd].reshape(n, tokens, c, d))
        dq -= r_inv[:, None, :] * np.swapaxes(m[:, :, cd:], 1, 2)
        # dv and dk: one left-multiply of X by
        # [G / ΣX ; q_a ⊙ G_c / ΣX ; q_a ⊙ r / ΣX].
        qg = (qd[:, None, :, :] * g_inv[:, :, None, :]).reshape(n, cd, tokens)
        left = np.concatenate([g_inv, qg, qd * r_inv[:, None, :]], axis=1) @ x
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
