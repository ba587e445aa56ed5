"""Regression tests for bugs surfaced by the repro.lint/repro.ir tooling
and the gradient checks."""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.loss import CrossEntropyLoss2d
from repro.nn.tensor import Tensor


class TestTransposeNegativeAxes:
    """``Tensor.transpose`` used ``np.argsort(axes)`` to invert the
    permutation, which is wrong for negative axes: argsort of
    ``(0, -1, -2)`` is ``(1, 2, 0)``, not the inverse ``(0, 2, 1)``.
    Rectangular tensors crashed in backward; square ones silently
    routed gradients to the wrong axes."""

    def test_rectangular_backward_no_crash(self):
        x = Tensor(np.arange(24.0).reshape(2, 3, 4), requires_grad=True)
        y = x.transpose((0, -1, -2))
        assert y.shape == (2, 4, 3)
        y.sum().backward()
        assert x.grad.shape == (2, 3, 4)

    def test_gradient_matches_positive_axes(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(2, 3, 3))
        seed = rng.normal(size=(2, 3, 3))

        def grad_for(axes):
            x = Tensor(data.copy(), requires_grad=True)
            x.transpose(axes).backward(seed)
            return x.grad

        np.testing.assert_allclose(grad_for((0, -1, -2)), grad_for((0, 2, 1)))

    def test_numeric_gradcheck(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(2, 3, 4))
        weight = rng.normal(size=(2, 4, 3))

        x = Tensor(data.copy(), requires_grad=True)
        (x.transpose((0, -1, -2)) * Tensor(weight)).sum().backward()

        eps = 1e-6
        numeric = np.zeros_like(data)
        for idx in np.ndindex(data.shape):
            bumped = data.copy()
            bumped[idx] += eps
            hi = (bumped.transpose((0, 2, 1)) * weight).sum()
            bumped[idx] -= 2 * eps
            lo = (bumped.transpose((0, 2, 1)) * weight).sum()
            numeric[idx] = (hi - lo) / (2 * eps)
        np.testing.assert_allclose(x.grad, numeric, atol=1e-4)


class TestSigmoidStability:
    """The naive ``1/(1+exp(-x))`` sigmoid overflows for x << 0
    (REPRO101, found by the repro.ir interval pass); the shipped
    branch-free form uses ``exp(-|x|)`` which is bounded in (0, 1]."""

    def test_extreme_inputs_no_overflow(self):
        x = Tensor(np.array([-1e4, -745.0, 0.0, 745.0, 1e4]))
        with np.errstate(over="raise", invalid="raise"):
            y = x.sigmoid()
        np.testing.assert_allclose(y.data, [0.0, 0.0, 0.5, 1.0, 1.0], atol=1e-12)

    def test_gradient_finite_everywhere(self):
        x = Tensor(np.array([-1e4, -50.0, 0.0, 50.0, 1e4]), requires_grad=True)
        with np.errstate(over="raise", invalid="raise"):
            x.sigmoid().sum().backward()
        assert np.all(np.isfinite(x.grad))
        # d/dx sigmoid(0) = 1/4 exactly.
        assert x.grad[2] == pytest.approx(0.25)

    def test_gradient_matches_finite_difference(self):
        data = np.array([-30.0, -2.0, 0.3, 4.0, 25.0])
        x = Tensor(data.copy(), requires_grad=True)
        x.sigmoid().sum().backward()
        eps = 1e-6

        def s(v):
            return 1.0 / (1.0 + np.exp(-v))

        numeric = (s(data + eps) - s(data - eps)) / (2 * eps)
        np.testing.assert_allclose(x.grad, numeric, atol=1e-6)


class TestWeightedCrossEntropyZeroNorm:
    """A batch whose targets all fall on zero-weight classes used to
    divide by a zero normalizer and poison every gradient with NaN
    (REPRO102, found by the repro.ir interval pass); the normalizer is
    now clamped so the loss collapses to 0 instead."""

    @pytest.fixture
    def logits(self):
        rng = np.random.default_rng(0)
        return Tensor(rng.normal(size=(2, 3, 4, 4)), requires_grad=True)

    def test_all_zero_weight_batch_finite(self, logits):
        loss_fn = CrossEntropyLoss2d(3, weight=np.array([0.0, 1.0, 1.0]))
        targets = np.zeros((2, 4, 4), dtype=np.int64)  # all class 0, weight 0
        with np.errstate(invalid="raise", divide="raise"):
            loss = loss_fn(logits, targets)
            loss.backward()
        assert loss.data == pytest.approx(0.0)
        assert np.all(np.isfinite(logits.grad))

    def test_normal_batch_unaffected(self, logits):
        weight = np.array([0.5, 1.0, 2.0])
        loss_fn = CrossEntropyLoss2d(3, weight=weight)
        rng = np.random.default_rng(1)
        targets = rng.integers(0, 3, size=(2, 4, 4))
        loss = loss_fn(logits, targets)
        loss.backward()
        assert np.isfinite(loss.data) and loss.data > 0
        # Finite-difference check of the clamped-normalizer path.
        eps = 1e-6
        idx = (0, 1, 2, 3)
        bumped = logits.data.copy()
        bumped[idx] += eps
        hi = CrossEntropyLoss2d(3, weight=weight)(Tensor(bumped), targets).data
        bumped[idx] -= 2 * eps
        lo = CrossEntropyLoss2d(3, weight=weight)(Tensor(bumped), targets).data
        assert logits.grad[idx] == pytest.approx((hi - lo) / (2 * eps), abs=1e-5)


class TestPowZeroExponent:
    """``x ** 0`` evaluated its gradient with the generic formula
    ``0 * x**-1``, which is ``0 * inf = nan`` wherever ``x == 0``
    (found by the central-difference cases of test_gradcheck_ops); the
    exponent-zero case now short-circuits to an exact zero gradient."""

    def test_zero_input_gradient_is_zero_not_nan(self):
        x = Tensor(np.array([0.0, 1.0, -2.0]), requires_grad=True)
        with np.errstate(invalid="raise", divide="raise"):
            (x**0).sum().backward()
        np.testing.assert_array_equal(x.grad, np.zeros(3))

    def test_composite_loss_stays_finite(self):
        x = Tensor(np.zeros((2, 2)), requires_grad=True)
        ((x**0) * 3.0 + x).sum().backward()
        assert np.all(np.isfinite(x.grad))
        np.testing.assert_array_equal(x.grad, np.ones((2, 2)))

    def test_nonzero_exponents_unchanged(self):
        x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        (x**3).sum().backward()
        eps = 1e-6
        numeric = (((x.data + eps) ** 3) - ((x.data - eps) ** 3)) / (2 * eps)
        np.testing.assert_allclose(x.grad, numeric, atol=1e-5)


class TestMaxGradDtypePromotion:
    """``Tensor.max`` divided the incoming gradient by an int64 tie
    count, silently promoting a float32 adjoint to float64 (found by a
    vjp dtype contract check); the count is now cast to
    the gradient dtype first."""

    def test_float32_gradient_stays_float32(self, float32_mode, adjoint_log):
        # ``x.grad`` is float32 either way (``_accumulate`` casts into
        # it), so the check is on the adjoint the vjp hands over.
        x = Tensor(np.array([[1.0, 2.0], [2.0, 0.0]]), requires_grad=True)
        x.max(axis=1).backward(np.ones(2, dtype=np.float32))
        dtypes = {dtype for target, _, dtype, _ in adjoint_log if target is x}
        assert dtypes == {np.dtype(np.float32)}

    def test_tie_splitting_values_unchanged(self):
        x = Tensor(np.array([[1.0, 3.0, 3.0], [4.0, 2.0, 4.0]]),
                   requires_grad=True)
        x.max(axis=1).sum().backward()
        np.testing.assert_allclose(
            x.grad, [[0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]
        )


class TestMaxPoolGradDtype:
    """``max_pool2d`` divided the incoming gradient by an int64 tie count,
    handing a float64 adjoint to a float32 input (found by
    ``TestFloat32Pipeline::test_backward_adjoints_match_operands`` on
    the U-Net and PGNN baselines); the count is now cast to the
    gradient dtype first, as in ``Tensor.max``."""

    def test_float32_gradient_stays_float32(self, float32_mode, adjoint_log):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4), requires_grad=True)
        F.max_pool2d(x, 2).backward(np.ones((1, 1, 2, 2), dtype=np.float32))
        dtypes = {dtype for target, _, dtype, _ in adjoint_log if target is x}
        assert dtypes == {np.dtype(np.float32)}

    def test_tie_splitting_values_unchanged(self):
        x = Tensor(np.array([[[[1.0, 1.0], [0.0, 1.0]]]]), requires_grad=True)
        F.max_pool2d(x, 2).backward(np.full((1, 1, 1, 1), 3.0))
        np.testing.assert_array_equal(x.grad, [[[[1.0, 1.0], [0.0, 1.0]]]])
