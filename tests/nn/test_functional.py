"""Gradient checks and exact-value tests for structured NN ops."""

import numpy as np
import pytest

from repro import nn
from repro.nn import functional as F
from repro.nn import Tensor

from ..conftest import numerical_gradient

U32 = np.finfo(np.float32).eps / 2  # float32 unit roundoff, 2**-24


class TestIm2Col:
    def test_roundtrip_counts(self, rng):
        data = rng.normal(size=(1, 2, 5, 5))
        cols, oh, ow = F.im2col(data, kernel=3, stride=1)
        assert cols.shape == (1, 2 * 9, 9)
        assert (oh, ow) == (3, 3)
        # col2im of ones counts how often each input pixel is used.
        counts = F.col2im(np.ones_like(cols), data.shape, 3, 1)
        # The center pixel of a 5x5 map participates in all 9 windows.
        assert counts[0, 0, 2, 2] == 9

    def test_stride_two(self, rng):
        data = rng.normal(size=(2, 3, 6, 6))
        cols, oh, ow = F.im2col(data, kernel=2, stride=2)
        assert (oh, ow) == (3, 3)
        assert cols.shape == (2, 12, 9)


class TestConv2d:
    def test_identity_kernel(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
        w = Tensor(np.zeros((1, 1, 3, 3)))
        w.data[0, 0, 1, 1] = 1.0
        out = F.conv2d(x, w, padding=1)
        np.testing.assert_allclose(out.data, x.data)

    def test_known_convolution(self):
        x = Tensor(np.ones((1, 1, 3, 3)))
        w = Tensor(np.ones((1, 1, 3, 3)))
        out = F.conv2d(x, w, padding=1)
        # Corner sees 4 ones, edge 6, center 9.
        np.testing.assert_allclose(
            out.data[0, 0], [[4, 6, 4], [6, 9, 6], [4, 6, 4]]
        )

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1)])
    def test_gradcheck(self, stride, padding, rng):
        x = Tensor(rng.normal(size=(2, 3, 6, 6)), requires_grad=True)
        w = nn.Parameter(rng.normal(size=(4, 3, 3, 3)))
        b = nn.Parameter(rng.normal(size=4))
        out = F.conv2d(x, w, b, stride=stride, padding=padding)
        (out * out).sum().backward()

        def f():
            o = F.conv2d(Tensor(x.data), Tensor(w.data), Tensor(b.data),
                         stride=stride, padding=padding)
            return float((o.data**2).sum())

        for tensor in (x, w, b):
            num = numerical_gradient(f, tensor.data)
            np.testing.assert_allclose(num, tensor.grad, atol=1e-5)

    def test_channel_mismatch_raises(self, rng):
        x = Tensor(rng.normal(size=(1, 2, 4, 4)))
        w = Tensor(rng.normal(size=(1, 3, 3, 3)))
        with pytest.raises(ValueError, match="channels"):
            F.conv2d(x, w)

    def test_rect_kernel_rejected(self, rng):
        x = Tensor(rng.normal(size=(1, 1, 4, 4)))
        w = Tensor(rng.normal(size=(1, 1, 2, 3)))
        with pytest.raises(ValueError, match="square"):
            F.conv2d(x, w)


class TestPooling:
    def test_max_pool_values(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
        out = F.max_pool2d(x, 2)
        np.testing.assert_allclose(out.data[0, 0], [[5, 7], [13, 15]])

    def test_max_pool_gradcheck(self, rng):
        x = Tensor(rng.normal(size=(2, 2, 4, 4)), requires_grad=True)
        (F.max_pool2d(x, 2) ** 2).sum().backward()

        def f():
            return float((F.max_pool2d(Tensor(x.data), 2).data ** 2).sum())

        np.testing.assert_allclose(
            numerical_gradient(f, x.data), x.grad, atol=1e-5
        )

    def test_avg_pool_values(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
        out = F.avg_pool2d(x, 2)
        np.testing.assert_allclose(out.data[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_pool_indivisible_raises(self, rng):
        x = Tensor(rng.normal(size=(1, 1, 5, 5)))
        with pytest.raises(ValueError, match="divisible"):
            F.max_pool2d(x, 2)
        with pytest.raises(ValueError, match="divisible"):
            F.avg_pool2d(x, 2)


def _registry_upsample_shapes(grid=64, batch=8):
    """Input shapes of every ``upsample_nearest`` in the fast registry models."""
    from repro.models import MODEL_NAMES, build_model

    models = [build_model(name, "fast", grid=grid, seed=0) for name in MODEL_NAMES]
    shapes = set()
    upsample = F.upsample_nearest

    def spy(x, scale=2):
        shapes.add((x.shape, scale))
        return upsample(x, scale)

    F.upsample_nearest = spy
    try:
        with nn.no_grad():
            for model in models:
                model(Tensor(np.zeros((batch, 6, grid, grid))))
    finally:
        F.upsample_nearest = upsample
    return shapes


# Every registry upsample at grid 64 and batch 8 (checked below), plus
# maps of width or height 1: numpy sums a width-1 window sequentially,
# so those keep the reduction.
_REGISTRY_UPSAMPLES = [
    (8, 6, 32, 32), (8, 10, 32, 32), (8, 12, 16, 16), (8, 16, 32, 32), (8, 20, 16, 16),
    (8, 24, 8, 8), (8, 32, 16, 16), (8, 40, 8, 8), (8, 64, 8, 8), (8, 80, 4, 4),
    (8, 96, 4, 4),
]
_UPSAMPLE_SHAPES = _REGISTRY_UPSAMPLES + [
    (1, 3, 1, 1), (2, 4, 1, 1), (2, 4, 3, 1), (2, 4, 1, 3), (1, 1, 5, 2),
]


class TestUpsamplePad:
    def test_upsample_values(self):
        x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2))
        out = F.upsample_nearest(x, 2)
        np.testing.assert_allclose(
            out.data[0, 0],
            [[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]],
        )

    def test_upsample_gradient_sums(self):
        x = Tensor(np.ones((1, 1, 2, 2)), requires_grad=True)
        F.upsample_nearest(x, 2).sum().backward()
        np.testing.assert_allclose(x.grad, 4 * np.ones((1, 1, 2, 2)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", _UPSAMPLE_SHAPES)
    def test_upsample_bitwise_the_repeat_and_window_sum(self, shape, dtype):
        # The references are the two np.repeat passes of the forward and
        # the sum(axis=(3, 5)) over the windows that the four-view sum
        # replaced.
        n, c, h, w = shape
        rng = np.random.default_rng([n, c, h, w])
        x = rng.normal(size=shape).astype(dtype)
        big = (n, c, 2 * h, 2 * w)
        g = (rng.normal(size=big) * 10.0 ** rng.integers(-4, 4, big)).astype(dtype)
        nn.set_default_dtype(dtype)
        try:
            xt = Tensor(x, requires_grad=True)
            out = F.upsample_nearest(xt, 2)
            out.backward(g)
        finally:
            nn.set_default_dtype(np.float64)
        want = np.repeat(np.repeat(x, 2, axis=2), 2, axis=3)
        assert out.data.dtype == dtype and np.array_equal(out.data, want)
        want_grad = g.reshape(n, c, h, 2, w, 2).sum(axis=(3, 5))
        assert xt.grad.dtype == dtype
        assert np.array_equal(xt.grad.view(f"u{x.itemsize}"), want_grad.view(f"u{x.itemsize}"))

    def test_upsample_shapes_cover_the_registry(self):
        assert _registry_upsample_shapes() == {(shape, 2) for shape in _REGISTRY_UPSAMPLES}


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        x = Tensor(rng.normal(size=(3, 5)))
        out = F.softmax(x, axis=-1)
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(3))

    def test_shift_invariance(self, rng):
        x = rng.normal(size=(2, 4))
        a = F.softmax(Tensor(x)).data
        b = F.softmax(Tensor(x + 1000.0)).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_float32_rows_sum_to_one_at_extreme_logits(self, float32_mode, seed):
        logits = np.random.default_rng(seed).uniform(-1e4, 1e4, size=(16, 64))
        out = F.softmax(Tensor(logits)).data
        assert out.dtype == np.float32
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, rtol=64 * U32)

    def test_unshifted_exp_overflows_where_softmax_does_not(self, float32_mode):
        # Without the max shift, float32 exp overflows at these logits.
        logits = np.full((2, 4), 500.0, dtype=np.float32)
        with np.errstate(over="ignore"):
            assert np.isinf(np.exp(logits)).any()
        out = F.softmax(Tensor(logits)).data
        assert out.dtype == np.float32
        assert np.all(np.isfinite(out))

    def test_softmax_gradcheck(self, rng):
        x = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
        (F.softmax(x) * np.arange(5.0)).sum().backward()

        def f():
            return float((F.softmax(Tensor(x.data)).data * np.arange(5.0)).sum())

        np.testing.assert_allclose(
            numerical_gradient(f, x.data), x.grad, atol=1e-6
        )

    def test_log_softmax_matches_log_of_softmax(self, rng):
        x = rng.normal(size=(2, 6))
        np.testing.assert_allclose(
            F.log_softmax(Tensor(x)).data,
            np.log(F.softmax(Tensor(x)).data),
            atol=1e-12,
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_float32_log_softmax_finite_and_nonpositive(self, float32_mode, seed):
        # log-softmax <= 0 mathematically; float32 rounding can only
        # cross zero by an ulp-scale amount.
        logits = np.random.default_rng(seed).uniform(-1e4, 1e4, size=(16, 64))
        out = F.log_softmax(Tensor(logits)).data
        assert out.dtype == np.float32
        assert np.all(np.isfinite(out))
        assert out.max() <= 64 * U32

    def test_log_softmax_gradcheck(self, rng):
        x = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
        (F.log_softmax(x) * np.arange(4.0)).sum().backward()

        def f():
            return float(
                (F.log_softmax(Tensor(x.data)).data * np.arange(4.0)).sum()
            )

        np.testing.assert_allclose(
            numerical_gradient(f, x.data), x.grad, atol=1e-6
        )


class TestNormalization:
    def test_batch_norm_normalizes(self, rng):
        x = Tensor(rng.normal(5.0, 3.0, size=(8, 4, 6, 6)), requires_grad=True)
        gamma = nn.Parameter(np.ones(4))
        beta = nn.Parameter(np.zeros(4))
        rm, rv = np.zeros(4), np.ones(4)
        out = F.batch_norm(x, gamma, beta, rm, rv, training=True)
        assert abs(out.data.mean()) < 1e-10
        assert abs(out.data.std() - 1.0) < 1e-2

    def test_batch_norm_updates_running_stats(self, rng):
        x = Tensor(rng.normal(2.0, 1.0, size=(4, 2, 4, 4)))
        gamma = nn.Parameter(np.ones(2))
        beta = nn.Parameter(np.zeros(2))
        rm, rv = np.zeros(2), np.ones(2)
        F.batch_norm(x, gamma, beta, rm, rv, training=True, momentum=0.5)
        assert np.all(rm > 0.5)  # moved toward the batch mean of ~2

    def test_batch_norm_eval_uses_running_stats(self, rng):
        x = Tensor(rng.normal(size=(2, 2, 3, 3)))
        gamma = nn.Parameter(np.ones(2))
        beta = nn.Parameter(np.zeros(2))
        rm = np.array([1.0, -1.0])
        rv = np.array([4.0, 4.0])
        out = F.batch_norm(x, gamma, beta, rm, rv, training=False)
        expected = (x.data - rm.reshape(1, 2, 1, 1)) / np.sqrt(
            rv.reshape(1, 2, 1, 1) + 1e-5
        )
        np.testing.assert_allclose(out.data, expected)

    def test_batch_norm_gradcheck(self, rng):
        x = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
        gamma = nn.Parameter(rng.normal(size=2))
        beta = nn.Parameter(rng.normal(size=2))
        out = F.batch_norm(
            x, gamma, beta, np.zeros(2), np.ones(2), training=True
        )
        (out * out).sum().backward()

        def f():
            o = F.batch_norm(
                Tensor(x.data), Tensor(gamma.data), Tensor(beta.data),
                np.zeros(2), np.ones(2), training=True,
            )
            return float((o.data**2).sum())

        np.testing.assert_allclose(
            numerical_gradient(f, x.data), x.grad, atol=1e-5
        )

    def test_layer_norm_gradcheck(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 5)), requires_grad=True)
        gamma = nn.Parameter(rng.normal(size=5))
        beta = nn.Parameter(rng.normal(size=5))
        out = F.layer_norm(x, gamma, beta)
        (out * out).sum().backward()

        def f():
            o = F.layer_norm(Tensor(x.data), Tensor(gamma.data), Tensor(beta.data))
            return float((o.data**2).sum())

        for tensor in (x, gamma, beta):
            np.testing.assert_allclose(
                numerical_gradient(f, tensor.data), tensor.grad, atol=1e-5
            )

