"""Structured neural-network operations with hand-written adjoints.

These are the image-shaped primitives the paper's models need —
2-D convolution (implicit GEMM per kernel tap for stride-1 forwards,
im2col + BLAS matmul otherwise; stride-1 input gradient via
flipped-kernel correlation; col2im only for strided convs), the
transformer's linear projection as one 2-D GEMM, max pooling,
nearest-neighbour upsampling, zero padding, softmax/log-softmax,
position attention and normalization — built on
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
    "linear",
    "max_pool2d",
    "avg_pool2d",
    "upsample_nearest",
    "softmax",
    "log_softmax",
    "position_attention",
    "batch_norm",
    "layer_norm",
]


def _pad_spatial(data: np.ndarray, p: int) -> np.ndarray:
    """Zero-pad the two trailing axes of ``data`` by ``p`` on each side.

    Bitwise ``np.pad``, without its 30-40 µs fixed cost per call:
    zeros with the interior assigned.  Symbolic arrays
    (:mod:`repro.ir.symbolic`) go through ``np.pad``, so the trace
    records a ``pad`` node.
    """
    if not isinstance(data, np.ndarray):
        return np.pad(data, ((0, 0),) * (data.ndim - 2) + ((p, p), (p, p)))
    *lead, h, w = data.shape
    out = np.zeros((*lead, h + 2 * p, w + 2 * p), dtype=data.dtype)
    out[..., p : p + h, p : p + w] = data
    return out


def pad2d(x: Tensor, padding: int) -> Tensor:
    """Zero-pad the two trailing (spatial) axes of an NCHW tensor."""
    if padding == 0:
        return x
    p = int(padding)

    def backward(out: Tensor) -> None:
        index = (slice(None),) * (x.ndim - 2) + (slice(p, -p), slice(p, -p))
        x._accumulate(out.grad[index])

    return Tensor._make(_pad_spatial(x.data, p), (x,), backward)


def im2col(
    data: np.ndarray, kernel: int, stride: int
) -> tuple[np.ndarray, int, int]:
    """Unfold padded NCHW data into convolution columns.

    Returns ``(cols, out_h, out_w)`` where ``cols`` has shape
    ``(N, C * kernel * kernel, out_h * out_w)``.  A 1×1 stride-1 kernel
    needs no unfold: its columns are the pixels, so ``cols`` is a
    reshape of ``data`` (a view when ``data`` is contiguous).
    :func:`conv2d` unfolds for strided and 1×1 forwards, for the weight
    gradient (rebuilt in backward, never kept from the forward) and for
    the stride-1 input gradient; the stride-1 forward of a larger kernel
    needs no columns.
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


#: Bytes of one block of a work buffer, sized to stay in cache: a block
#: of the position attention's unnormalized map, or a chunk of samples
#: of a stride-1 conv forward's buffers or of the columns a conv
#: backward unfolds.
_BLOCK_BYTES = 1 << 20


def _sample_chunks(n: int, sample_bytes: int) -> list[slice]:
    """Slices of whole samples, of about ``_BLOCK_BYTES`` each, one sample at least.

    ``sample_bytes`` is one sample's share of the buffer; a buffer that
    fits in one block stays one batched call.
    """
    step = max(1, _BLOCK_BYTES // max(sample_bytes, 1))
    return [slice(start, min(start + step, n)) for start in range(0, n, step)]


def _correlate(data: np.ndarray, weight: np.ndarray, padding: int) -> np.ndarray:
    """Stride-1 cross-correlation of NCHW ``data`` with no unfold (implicit GEMM).

    For each chunk of whole samples, the zero-padded input is laid out
    channel-major as one ``(C_in, n·Hp·Wp)`` buffer with ``(k-1)·(Wp+1)``
    trailing zeros, so kernel tap ``(i, j)`` is one ``(C_out, C_in)``
    GEMM over the contiguous slice that starts ``i·Wp + j`` into it.
    The taps accumulate into one ``(C_out, n·Hp·Wp)`` sum; the ``k-1``
    right-hand columns and bottom rows of each padded image are computed
    and then dropped.  A chunk's buffer, sum and tap term take about
    ``_BLOCK_BYTES`` together (:func:`_sample_chunks`), so they stay in
    cache, and a layer that fits in one block is one chunk.  Returns a
    fresh ``(N, C_out, H', W')`` array of dtype
    ``np.result_type(data, weight)``.
    """
    n, c_in, h, w = data.shape
    c_out, _, kernel, _ = weight.shape
    hp, wp = h + 2 * padding, w + 2 * padding
    out_h, out_w = hp - kernel + 1, wp - kernel + 1
    dtype = np.result_type(data, weight)
    taps = np.ascontiguousarray(weight.transpose(2, 3, 0, 1), dtype=dtype)
    out = np.empty((n, c_out, out_h, out_w), dtype=dtype)
    for s in _sample_chunks(n, (c_in + 2 * c_out) * hp * wp * dtype.itemsize):
        chunk = s.stop - s.start
        span = chunk * hp * wp
        flat = np.zeros((c_in, span + (kernel - 1) * (wp + 1)), dtype=dtype)
        image = flat[:, :span].reshape(c_in, chunk, hp, wp)
        image[:, :, padding : padding + h, padding : padding + w] = data[s].transpose(1, 0, 2, 3)
        total = np.empty((c_out, span), dtype=dtype)
        term = np.empty_like(total)
        for i in range(kernel):
            for j in range(kernel):
                start = i * wp + j
                window = flat[:, start : start + span]
                if start == 0:
                    np.matmul(taps[0, 0], window, out=total)
                else:
                    np.matmul(taps[i, j], window, out=term)
                    total += term
        sums = total.reshape(c_out, chunk, hp, wp)
        out[s] = sums[:, :, :out_h, :out_w].transpose(1, 0, 2, 3)
    return out


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2-D convolution over an NCHW tensor.

    A stride-1 kernel larger than 1×1 runs as an implicit GEMM
    (:func:`_correlate`): one matmul per kernel tap over a channel-major
    copy of the padded input, with no im2col columns.  Strided and 1×1
    convolutions (and symbolic arrays, so the IR trace records an
    ``im2col``) run ``w2d @ cols`` on im2col columns, dropped once the
    output exists.  No columns are kept for backward: the weight
    gradient ``(grad @ colsᵀ).sum(0)`` rebuilds them from ``x``, and
    only when ``weight`` needs a gradient.  For stride 1 the input
    gradient is a forward correlation of the output gradient with the
    flipped, in/out-swapped kernel (im2col + one matmul); col2im is used
    only for strided convolutions.  Backward builds each column buffer
    (the weight-gradient im2col, the stride-1 input-gradient im2col and
    the strided ``col2im`` input) for a chunk of whole samples of about
    ``_BLOCK_BYTES``, so a small layer stays one batched call.  Each
    sample still gets its own GEMM, and the per-sample weight terms fill
    one ``(N, C_out, C_in·k²)`` array summed once over the batch, so the
    gradients are bitwise those of one whole-batch unfold.

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
    n, _, h, w = x.shape
    c_out, c_in, kernel, kernel_w = weight.shape
    if kernel != kernel_w:
        raise ValueError("only square kernels are supported")
    if x.shape[1] != c_in:
        raise ValueError(
            f"input has {x.shape[1]} channels but weight expects {c_in}"
        )
    padded_shape = (n, c_in, h + 2 * padding, w + 2 * padding)
    out_h = (padded_shape[2] - kernel) // stride + 1
    out_w = (padded_shape[3] - kernel) // stride + 1

    def columns(data: np.ndarray) -> np.ndarray:
        return im2col(_pad_spatial(data, padding) if padding else data, kernel, stride)[0]

    if kernel > 1 and stride == 1 and isinstance(x.data, np.ndarray):
        out_data = _correlate(x.data, weight.data, padding)
    else:
        w2d = weight.data.reshape(c_out, -1)
        out_data = (w2d @ columns(x.data)).reshape(n, c_out, out_h, out_w)
    if bias is not None:
        out_data += bias.data.reshape(1, c_out, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)
    taps = c_in * kernel * kernel

    def backward(out: Tensor) -> None:
        grad = out.grad.reshape(n, c_out, out_h * out_w)
        itemsize = grad.itemsize
        if bias is not None:
            bias._accumulate(grad.sum(axis=(0, 2)), fresh=True)
        if weight.requires_grad:
            # Per-sample products in one array, summed once over the
            # batch: the sum a whole-batch product would take.
            terms = np.empty((n, c_out, taps), dtype=np.result_type(grad, x.data))
            for s in _sample_chunks(n, taps * out_h * out_w * itemsize):
                np.matmul(grad[s], columns(x.data[s]).transpose(0, 2, 1), out=terms[s])
            weight._accumulate(terms.sum(axis=0).reshape(weight.shape), fresh=True)
        if not x.requires_grad:
            return
        dtype = np.result_type(weight.data, grad)
        if stride == 1:
            # dx = correlate(pad(dy, k-1), flip(w)ᵀ) cropped by
            # ``padding``: pad (or crop) dy by k-1-padding in one step.
            edge = kernel - 1 - padding
            w_flip = weight.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c_in, -1)
            grad_x = np.empty((n, c_in, h * w), dtype=dtype)
            for s in _sample_chunks(n, c_out * kernel * kernel * h * w * itemsize):
                g = out.grad[s]
                if edge > 0:
                    g = _pad_spatial(g, edge)
                elif edge < 0:
                    g = g[:, :, -edge:edge, -edge:edge]
                np.matmul(w_flip, im2col(g, kernel, 1)[0], out=grad_x[s])
            x._accumulate(grad_x.reshape(x.shape), fresh=True)
            return
        w2d_t = weight.data.reshape(c_out, -1).T
        grad_x = np.empty(x.shape, dtype=dtype)
        for s in _sample_chunks(n, taps * out_h * out_w * itemsize):
            chunk = (s.stop - s.start,) + padded_shape[1:]
            grad_padded = col2im(w2d_t @ grad[s], chunk, kernel, stride)
            if padding:
                grad_padded = grad_padded[:, :, padding:-padding, padding:-padding]
            grad_x[s] = grad_padded
        x._accumulate(grad_x, fresh=True)

    return Tensor._make(out_data, parents, backward)


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map ``x Wᵀ + b`` over the trailing axis, as one 2-D GEMM.

    ``x`` is ``(..., in)``, ``weight`` ``(out, in)`` and ``bias``
    ``(out,)``.  The leading axes of ``x`` are flattened into the rows
    of one ``(rows, in) @ (in, out)`` product, where a batched matmul
    against a transposed weight would make one small GEMM per leading
    index.  Backward: ``dx = g W`` is one GEMM too; ``dW`` is the
    per-batch products ``g_bᵀ x_b`` over the first axis of a 3-D or
    higher ``x``, summed over the batch (at batch 8, faster than one
    GEMM over all rows); ``db`` sums ``g`` over its rows.
    """
    x = as_tensor(x)
    d_out, d_in = weight.shape
    *lead, features = x.shape
    # Rows of x's own width: a mismatch with d_in fails in the matmul.
    out_data = x.data.reshape(-1, features) @ weight.data.T
    if bias is not None:
        out_data += bias.data
    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(out: Tensor) -> None:
        g = out.grad.reshape(-1, d_out)
        if bias is not None:
            bias._accumulate(g.sum(axis=0), fresh=True)
        if weight.requires_grad:
            if x.ndim > 2:
                rows = x.shape[-2]
                g_b = out.grad.reshape(-1, rows, d_out)
                grad_w = (np.swapaxes(g_b, 1, 2) @ x.data.reshape(-1, rows, d_in)).sum(axis=0)
            else:
                grad_w = g.T @ x.data.reshape(-1, d_in)
            weight._accumulate(grad_w, fresh=True)
        if x.requires_grad:
            x._accumulate((g @ weight.data).reshape(x.shape), fresh=True)

    return Tensor._make(out_data.reshape(*lead, d_out), parents, backward)


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
        # Cast the tie count to the gradient dtype, as in Tensor.max:
        # an int64 divisor would promote a float32 adjoint to float64.
        counts = mask.sum(axis=(3, 5), keepdims=True).astype(out.grad.dtype)
        grad = mask * (out.grad[:, :, :, None, :, None] / counts)
        x._accumulate(grad.reshape(n, c, h, w), fresh=True)

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
            .copy(),
            fresh=True,
        )

    return Tensor._make(out_data, (x,), backward)


def upsample_nearest(x: Tensor, scale: int = 2) -> Tensor:
    """Nearest-neighbour upsampling of an NCHW tensor by ``scale``.

    At scale 2 the backward adds the four strided views of the output
    gradient as ``(g00 + g01) + (g10 + g11)``: bitwise numpy's
    ``sum(axis=(3, 5))`` over the windows, at a tenth of its time.  For
    ``W == 1`` numpy sums each window sequentially instead, so that case
    and other scales keep the reduction.
    """
    n, c, h, w = x.shape
    out_data = np.repeat(np.repeat(x.data, scale, axis=2), scale, axis=3)

    def backward(out: Tensor) -> None:
        g = out.grad.reshape(n, c, h, scale, w, scale)
        if scale == 2 and w > 1:
            grad = g[:, :, :, 0, :, 0] + g[:, :, :, 0, :, 1]
            grad += g[:, :, :, 1, :, 0] + g[:, :, :, 1, :, 1]
        else:
            grad = g.sum(axis=(3, 5))
        x._accumulate(grad, fresh=True)

    return Tensor._make(out_data, (x,), backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    out_data = exp / exp.sum(axis=axis, keepdims=True)

    def backward(out: Tensor) -> None:
        g = out.grad
        dot = (g * out_data).sum(axis=axis, keepdims=True)
        x._accumulate(out_data * (g - dot), fresh=True)

    return Tensor._make(out_data, (x,), backward)



def _attention_block_rows(qd: np.ndarray, tokens: int) -> int:
    """Query rows per block of the general (``d > 1``) position attention.

    A block holds ``rows · N · L`` elements.  Symbolic arrays
    (:mod:`repro.ir.symbolic`) record the whole attention as one block,
    so the traced graph does not depend on the block size.
    """
    if not isinstance(qd, np.ndarray):
        return tokens
    n = qd.shape[0]
    return max(1, _BLOCK_BYTES // (n * tokens * qd.dtype.itemsize))


def _attention_exp(qb: np.ndarray, kd: np.ndarray, row_max=None):
    """``(X, max E)`` for the query block ``qb``: ``X = exp(E - max E)``.

    ``E = qbᵀk`` is ``(N, rows, L)``; ``X`` is built in place over it.
    Given the stored ``row_max`` of a previous call, ``X`` is recomputed
    bitwise identically.
    """
    n, d, rows = qb.shape
    if d == 1:
        # Rank-1 energy (small maps and symbolic traces; see
        # _rank1_attention): an outer product, which broadcasting
        # builds without a matmul of inner dimension 1.
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


def _blocked_attention(qd: np.ndarray, kd: np.ndarray, vd: np.ndarray):
    """``(out, 1/ΣX, sweep)`` over blocks of query rows of the whole batch.

    ``sweep(rhs, lhs)`` recomputes each block of ``X`` from ``q``, ``k``
    and the stored row max and returns ``(X @ rhs, Σ_blocks lhs @ X)``.
    """
    n, d, tokens = qd.shape
    c = vd.shape[1]
    rows = _attention_block_rows(qd, tokens)
    blocks = [slice(start, start + rows) for start in range(0, tokens, rows)]
    if len(blocks) == 1:
        out, inv, row_max = _attention_forward(qd, kd, vd)
    else:
        out = np.empty((n, c, tokens), dtype=np.result_type(qd, kd, vd))
        inv = np.empty((n, tokens), dtype=out.dtype)
        row_max = np.empty((n, tokens, 1), dtype=out.dtype)
        for b in blocks:
            out[:, :, b], inv[:, b], row_max[:, b] = _attention_forward(
                qd[:, :, b], kd, vd
            )

    def sweep(rhs: np.ndarray, lhs: np.ndarray):
        m = np.empty((n, tokens, rhs.shape[2]), dtype=rhs.dtype)
        left = np.zeros_like(lhs)
        for b in blocks:
            x, _ = _attention_exp(qd[:, :, b], kd, row_max[:, b])
            m[:, b] = x @ rhs
            left += lhs[:, :, b] @ x
        return m, left

    return out, inv, sweep


#: Smallest per-sample ``L × L`` map that :func:`_rank1_attention` runs.
_RANK1_MIN_MAP = 256 * 256


def _rank1_blocks(n: int, tokens: int, itemsize: int) -> list[tuple[slice, slice]]:
    """``(samples, rows)`` blocks of about ``_BLOCK_BYTES``.

    Whole samples when one sample's ``L × L`` map fits in a block, so
    small maps still run batched; otherwise row ranges of one sample.
    """
    sample_bytes = tokens * tokens * itemsize
    if sample_bytes <= _BLOCK_BYTES:
        return [(samples, slice(0, tokens)) for samples in _sample_chunks(n, sample_bytes)]
    rows = max(1, _BLOCK_BYTES // (tokens * itemsize))
    return [
        (slice(s, s + 1), slice(r, min(r + rows, tokens)))
        for s in range(n)
        for r in range(0, tokens, rows)
    ]


def _rank1_attention(qd: np.ndarray, kd: np.ndarray, vd: np.ndarray):
    """:func:`_blocked_attention` for ``d == 1``, with rows sorted by sign.

    ``max_j q_i k_j`` is ``q_i · max k`` for ``q_i ≥ 0`` and ``q_i ·
    min k`` for ``q_i < 0`` (rounding is monotone), so ``X_ij = exp(q_i
    (k_j − k_ref))`` with the shifted keys ``k − max k`` or ``k − min k``
    computed once per call: an element costs one multiply and one
    ``exp``, and its largest exponent is exactly 0.  The query rows of
    each sample are sorted so that the ``q ≥ 0`` rows come first, which
    makes a block at most two runs per sample, one per shifted key.
    ``v`` gets a row of ones, so one GEMM per block yields the output
    and ``ΣX``.  The results are scattered back to the input order.
    """
    n, _, tokens = qd.shape
    if tokens * tokens < _RANK1_MIN_MAP or not isinstance(qd, np.ndarray):
        # Below one 256 × 256 map per sample, the sort and the per-sample
        # calls cost more than the passes they save (at 128 × 128 and
        # batch 1 the forward is ~45% slower).  Symbolic traces keep
        # the one-block graph.
        return _blocked_attention(qd, kd, vd)
    c = vd.shape[1]
    q, k = qd[:, 0], kd[:, 0]
    negative = q < 0
    order = np.argsort(negative, axis=1, kind="stable")
    # Row i of sample s sits at flat row s·L + i of an (N·L, ·) array.
    flat = (order + tokens * np.arange(n)[:, None]).ravel()
    qs = q.reshape(-1)[flat].reshape(n, tokens)
    split = tokens - negative.sum(axis=1)
    shifted = (k - k.max(axis=1, keepdims=True), k - k.min(axis=1, keepdims=True))
    dtype = np.result_type(qd, kd)
    blocks = _rank1_blocks(n, tokens, dtype.itemsize)
    block_size = max((s.stop - s.start) * (r.stop - r.start) for s, r in blocks) * tokens

    def exp_block(samples: slice, rows: slice, buffer: np.ndarray) -> np.ndarray:
        # One buffer per pass: a fresh 1 MiB array per block page-faults.
        shape = (samples.stop - samples.start, rows.stop - rows.start, tokens)
        x = buffer[: shape[0] * shape[1] * tokens].reshape(shape)
        for t, i in enumerate(range(samples.start, samples.stop)):
            p = min(max(split[i], rows.start), rows.stop) - rows.start
            # einsum writes an outer product twice as fast as a
            # broadcast multiply, with the same one rounding per element.
            qi = qs[i, rows]
            np.einsum("i,j->ij", qi[:p], shifted[0][i], out=x[t, :p])
            np.einsum("i,j->ij", qi[p:], shifted[1][i], out=x[t, p:])
        return np.exp(x, out=x)

    def unsort(a: np.ndarray) -> np.ndarray:
        """``(N, L, ·)`` rows in sorted order -> input order."""
        out = np.empty_like(a)
        out.reshape(n * tokens, -1)[flat] = a.reshape(n * tokens, -1)
        return out

    # Row-major (N, L, c + 1) sums: [out · ΣX, ΣX] per query row.
    v1 = np.concatenate([vd, np.ones((n, 1, tokens), dtype=vd.dtype)], axis=1)
    sums = np.empty((n, tokens, c + 1), dtype=np.result_type(dtype, vd))
    buffer = np.empty(block_size, dtype)
    for samples, rows in blocks:
        x = exp_block(samples, rows, buffer)
        sums[samples, rows] = x @ np.swapaxes(v1[samples], 1, 2)
    sums = unsort(sums)
    inv = 1 / sums[:, :, c]
    out = np.empty((n, c, tokens), dtype=sums.dtype)
    np.multiply(np.swapaxes(sums[:, :, :c], 1, 2), inv[:, None, :], out=out)

    def sweep(rhs: np.ndarray, lhs: np.ndarray):
        width = lhs.shape[1]
        lhs_rows = np.swapaxes(lhs, 1, 2).reshape(n * tokens, width)[flat]
        lhs_rows = lhs_rows.reshape(n, tokens, width)
        m = np.empty((n, tokens, rhs.shape[2]), dtype=rhs.dtype)
        left = np.zeros_like(lhs)
        buffer = np.empty(block_size, dtype)
        for samples, rows in blocks:
            x = exp_block(samples, rows, buffer)
            m[samples, rows] = x @ rhs[samples]
            left[samples] += np.swapaxes(lhs_rows[samples, rows], 1, 2) @ x
        return unsort(m), left

    return out, inv, sweep


def position_attention(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """DANet position attention (Eqs. 4–5): ``v · softmax(qᵀk)ᵀ``.

    ``q`` and ``k`` are ``(N, d, L)`` queries and keys, ``v`` is the
    ``(N, c, L)`` value map; the result is ``(N, c, L)`` with
    ``out[:, :, i] = Σ_j P_ij v[:, :, j]`` and ``P = softmax_j(qᵢ·kⱼ)``.

    One primitive instead of matmul → softmax → transpose → matmul, run
    over blocks of whole query rows (FlashAttention-style row tiling and
    recompute).  A block of the unnormalized attention ``X = exp(E -
    max E)`` holds about 1 MiB, so it stays in cache and no ``L × L``
    map is ever held.  Each block holds whole rows, so the max is exact
    and nothing is rescaled.  For ``d > 1`` (also for rank-1 maps below
    ``L = 256`` and for symbolic traces) a block costs the energy
    product, a max, a subtract, an ``exp`` and a sum per element, and
    the forward stores per-row ``1/ΣX`` and ``max E``.  For ``d == 1``,
    the rank-1 attention of every MFA block, :func:`_rank1_attention`
    shifts the keys instead: one multiply and one ``exp`` per element,
    ``ΣX`` from the output GEMM, and per-row state of O(N·L).  Only
    BLAS products may round differently from a one-block computation,
    since BLAS picks its gemm kernel by matrix size.  Backward
    recomputes each block of ``X`` through the same function (bitwise
    the forward's ``X``) and uses it only inside matmuls, so no
    ``L × L`` gradient is formed either.  With ``G`` the
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
    attention = _rank1_attention if d == 1 else _blocked_attention
    out_data, inv, sweep = attention(qd, kd, vd)

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
        m, left = sweep(rhs, lhs)
        dq = np.einsum("nci,nica->nai", g_inv, m[:, :, :cd].reshape(n, tokens, c, d))
        dq -= r_inv[:, None, :] * np.swapaxes(m[:, :, cd:], 1, 2)
        dk = np.einsum("ncj,ncaj->naj", vd, left[:, c : c + cd].reshape(n, c, d, tokens))
        dk -= left[:, c + cd :]
        q._accumulate(dq, fresh=True)
        k._accumulate(dk, fresh=True)
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
        x._accumulate(g - probs * g.sum(axis=axis, keepdims=True), fresh=True)

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
    implementation relies on.  Backward keeps only the per-channel
    ``shift`` (the batch mean, or a copy of the running mean) and
    ``1/σ``, and recomputes ``x̂ = (x - shift) · 1/σ`` from the input:
    the forward's expression on the same operands, so bitwise its
    ``x̂``, without holding a second activation-sized array.  Both
    directions work in place over one or two activation-sized arrays
    (the forward's centred input becomes its output; backward's
    ``g · γ`` becomes ``dx``), with the operations and operand order of
    the out-of-place formulas.  So ``gamma``, ``beta`` and the running
    statistics must have ``x``'s dtype, as they do in a model built and
    run under one default dtype.
    """
    n, c, h, w = x.shape
    axes = (0, 2, 3)
    if training:
        # One centering pass serves the variance and x_hat; the sums are
        # the ones np.mean/np.var take, so the statistics are bitwise
        # equal to theirs.
        count = n * h * w
        shift = x.data.mean(axis=axes, keepdims=True)
        centered = x.data - shift
        var = (centered * centered).sum(axis=axes) / count
        running_mean *= 1.0 - momentum
        running_mean += momentum * shift.reshape(c)
        unbiased = var * count / max(count - 1, 1)
        running_var *= 1.0 - momentum
        running_var += momentum * unbiased
    else:
        shift = running_mean.reshape(1, c, 1, 1)
        centered = x.data - shift
        # A copy: a later training forward updates running_mean in place.
        shift = shift.copy()
        var = running_var

    inv_std = (1.0 / np.sqrt(var + eps)).reshape(1, c, 1, 1)
    # out = γ · (centered · 1/σ) + β, built over ``centered``.
    out_data = centered
    out_data *= inv_std
    np.multiply(gamma.data.reshape(1, c, 1, 1), out_data, out=out_data)
    out_data += beta.data.reshape(1, c, 1, 1)

    def backward(out: Tensor) -> None:
        g = out.grad
        x_hat = x.data - shift
        x_hat *= inv_std
        beta._accumulate(g.sum(axis=axes), fresh=True)
        g_xhat = g * x_hat
        gamma._accumulate(g_xhat.sum(axis=axes), fresh=True)
        if not x.requires_grad:
            return
        gw = g * gamma.data.reshape(1, c, 1, 1)
        if training:
            # dx = 1/σ / m · (m · gw - Σgw - x̂ · Σ(gw · x̂)), over gw and x̂.
            m = n * h * w
            sum_gw = gw.sum(axis=axes, keepdims=True)
            np.multiply(gw, x_hat, out=g_xhat)
            sum_gw_xhat = g_xhat.sum(axis=axes, keepdims=True)
            gw *= m
            gw -= sum_gw
            x_hat *= sum_gw_xhat
            gw -= x_hat
            np.multiply(inv_std / m, gw, out=gw)
        else:
            gw *= inv_std
        x._accumulate(gw, fresh=True)

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
        beta._accumulate(g.sum(axis=reduce_axes), fresh=True)
        gamma._accumulate((g * x_hat).sum(axis=reduce_axes), fresh=True)
        if not x.requires_grad:
            return
        gw = g * gamma.data
        d = x.shape[-1]
        sum_gw = gw.sum(axis=-1, keepdims=True)
        sum_gw_xhat = (gw * x_hat).sum(axis=-1, keepdims=True)
        x._accumulate(inv_std / d * (d * gw - sum_gw - x_hat * sum_gw_xhat), fresh=True)

    return Tensor._make(out_data, (x, gamma, beta), backward)
