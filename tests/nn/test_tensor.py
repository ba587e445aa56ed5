"""Autograd core: op correctness, broadcasting, graph mechanics."""

import tracemalloc

import numpy as np
import pytest

from repro import nn
from repro.models import build_model
from repro.nn import Tensor, as_tensor, concatenate, stack
from repro.nn import functional as F
from repro.nn.tensor import _unbroadcast

from ..conftest import numerical_gradient


class TestBasicOps:
    def test_add_backward(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 1.0])
        np.testing.assert_allclose(b.grad, [1.0, 1.0])

    def test_mul_backward(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_allclose(a.grad, [3.0, 4.0])
        np.testing.assert_allclose(b.grad, [1.0, 2.0])

    def test_sub_and_neg(self):
        a = Tensor([5.0], requires_grad=True)
        b = Tensor([2.0], requires_grad=True)
        (a - b).backward()
        assert a.grad[0] == 1.0
        assert b.grad[0] == -1.0
        c = Tensor([3.0], requires_grad=True)
        (-c).backward()
        assert c.grad[0] == -1.0

    def test_div_backward(self):
        a = Tensor([6.0], requires_grad=True)
        b = Tensor([2.0], requires_grad=True)
        (a / b).backward()
        assert a.grad[0] == pytest.approx(0.5)
        assert b.grad[0] == pytest.approx(-1.5)

    def test_pow_backward(self):
        a = Tensor([3.0], requires_grad=True)
        (a**2).backward()
        assert a.grad[0] == pytest.approx(6.0)

    def test_pow_rejects_tensor_exponent(self):
        a = Tensor([3.0], requires_grad=True)
        with pytest.raises(TypeError):
            a ** Tensor([2.0])

    def test_rsub_rdiv(self):
        a = Tensor([2.0], requires_grad=True)
        (10.0 - a).backward()
        assert a.grad[0] == -1.0
        b = Tensor([2.0], requires_grad=True)
        (10.0 / b).backward()
        assert b.grad[0] == pytest.approx(-2.5)

    def test_matmul_2d(self):
        a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        b = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
        out = a @ b
        assert out.shape == (2, 4)
        out.sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 4)) @ b.data.T)
        np.testing.assert_allclose(b.grad, a.data.T @ np.ones((2, 4)))

    def test_matmul_batched(self, rng):
        a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 4, 5)), requires_grad=True)
        out = a @ b
        assert out.shape == (2, 3, 5)
        (out * out).sum().backward()

        def f():
            return float(((a.data @ b.data) ** 2).sum())

        np.testing.assert_allclose(
            numerical_gradient(f, a.data), a.grad, atol=1e-5
        )


class TestBroadcasting:
    def test_add_broadcast_scalar(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        (a + 5.0).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 3)))

    def test_mul_broadcast_row(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_allclose(b.grad, [2.0, 2.0, 2.0])
        np.testing.assert_allclose(a.grad, np.tile([1.0, 2.0, 3.0], (2, 1)))

    def test_unbroadcast_keepdim_axis(self):
        grad = np.ones((4, 3))
        out = _unbroadcast(grad, (4, 1))
        assert out.shape == (4, 1)
        np.testing.assert_allclose(out, 3 * np.ones((4, 1)))

    def test_unbroadcast_leading_axis(self):
        grad = np.ones((5, 4, 3))
        out = _unbroadcast(grad, (3,))
        assert out.shape == (3,)
        np.testing.assert_allclose(out, 20 * np.ones(3))


class TestReductionsAndShape:
    def test_sum_axis_keepdims(self):
        a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        out = a.sum(axis=1, keepdims=True)
        assert out.shape == (2, 1)
        out.sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 3)))

    def test_mean_gradient(self):
        a = Tensor(np.arange(4.0), requires_grad=True)
        a.mean().backward()
        np.testing.assert_allclose(a.grad, 0.25 * np.ones(4))

    def test_mean_multi_axis(self):
        a = Tensor(np.ones((2, 3, 4)), requires_grad=True)
        out = a.mean(axis=(1, 2))
        assert out.shape == (2,)
        out.sum().backward()
        np.testing.assert_allclose(a.grad, np.full((2, 3, 4), 1.0 / 12))

    def test_max_gradient_ties_split(self):
        a = Tensor(np.array([1.0, 3.0, 3.0]), requires_grad=True)
        a.max().backward()
        np.testing.assert_allclose(a.grad, [0.0, 0.5, 0.5])

    def test_max_axis(self):
        a = Tensor(np.array([[1.0, 5.0], [7.0, 2.0]]), requires_grad=True)
        out = a.max(axis=1)
        np.testing.assert_allclose(out.data, [5.0, 7.0])
        out.sum().backward()
        np.testing.assert_allclose(a.grad, [[0, 1], [1, 0]])

    def test_reshape_transpose_roundtrip(self, rng):
        a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        out = a.reshape(6, 4).transpose(1, 0)
        assert out.shape == (4, 6)
        out.sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 3, 4)))

    def test_swapaxes(self, rng):
        a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        assert a.swapaxes(0, 2).shape == (4, 3, 2)

    def test_getitem_gradient_accumulates(self):
        a = Tensor(np.arange(5.0), requires_grad=True)
        out = a[np.array([0, 0, 2])]
        out.sum().backward()
        np.testing.assert_allclose(a.grad, [2.0, 0.0, 1.0, 0.0, 0.0])


class TestNonlinearities:
    @pytest.mark.parametrize("op", ["exp", "log", "tanh", "sigmoid", "relu", "gelu"])
    def test_elementwise_numerical(self, op, rng):
        raw = rng.uniform(0.5, 2.0, size=(3, 4))  # positive domain for log
        a = Tensor(raw.copy(), requires_grad=True)
        out = getattr(a, op)()
        (out * out).sum().backward()

        def f():
            t = Tensor(a.data)
            return float((getattr(t, op)().data ** 2).sum())

        np.testing.assert_allclose(
            numerical_gradient(f, a.data), a.grad, atol=1e-5
        )

    def test_relu_mask_from_output_at_special_values(self):
        # Backward reads its mask off the output; it must be x > 0.  The
        # forward is max(x, 0): relu(-inf) is 0 (x * (x > 0) made it
        # NaN).
        x = np.array([-np.inf, -1.0, -0.0, 0.0, 1e-300, 2.0, np.inf, np.nan])
        t = Tensor(x, requires_grad=True)
        with np.errstate(all="raise"):
            out = t.relu()
            out.backward(np.full(x.shape, 3.0))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 0.0, 0.0, 1e-300, 2.0, np.inf, np.nan])
        np.testing.assert_array_equal(t.grad, np.where(x > 0, 3.0, 0.0))

    def test_sqrt(self):
        a = Tensor([4.0], requires_grad=True)
        a.sqrt().backward()
        assert a.grad[0] == pytest.approx(0.25)


class TestGraphMechanics:
    def test_backward_requires_scalar(self):
        a = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            (a * 2).backward()

    def test_backward_explicit_grad_shape_check(self):
        a = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError, match="shape"):
            (a * 2).backward(np.ones(4))

    def test_diamond_graph_accumulates(self):
        a = Tensor([2.0], requires_grad=True)
        b = a * 3
        c = a * 4
        (b + c).backward()
        assert a.grad[0] == pytest.approx(7.0)

    def test_reused_tensor_many_paths(self):
        a = Tensor([1.0], requires_grad=True)
        out = a
        for _ in range(5):
            out = out + a
        out.backward()
        assert a.grad[0] == pytest.approx(6.0)

    def test_no_grad_blocks_graph(self):
        a = Tensor([1.0], requires_grad=True)
        with nn.no_grad():
            out = a * 2
        assert not out.requires_grad
        assert out._parents == ()

    def test_no_grad_restores_state(self):
        assert nn.is_grad_enabled()
        with nn.no_grad():
            assert not nn.is_grad_enabled()
        assert nn.is_grad_enabled()

    def test_detach(self):
        a = Tensor([1.0], requires_grad=True)
        d = a.detach()
        assert not d.requires_grad
        (d * 2).sum()
        assert a.grad is None

    def test_deep_chain_no_recursion_error(self):
        a = Tensor([1.0], requires_grad=True)
        out = a
        for _ in range(5000):
            out = out + 0.0
        out.backward()
        assert a.grad[0] == pytest.approx(1.0)


class TestTapeRelease:
    """``backward`` releases each node once its vjp has run."""

    def test_leaves_keep_grads_and_intermediates_drop_them(self):
        w = nn.Parameter(np.array([2.0]))
        x = Tensor([3.0], requires_grad=True)
        y = w * x
        loss = (y * y).sum()
        loss.backward()
        assert w.grad[0] == pytest.approx(36.0) and x.grad[0] == pytest.approx(24.0)
        assert y.grad is None and loss.grad is None

    def test_second_backward_raises(self):
        # A second backward used to walk a released graph silently and
        # leave w.grad at 3.
        w = Tensor([1.0], requires_grad=True)
        loss = (w * Tensor([3.0])).sum()
        loss.backward()
        with pytest.raises(RuntimeError, match="released"):
            loss.backward()
        assert w.grad[0] == 3.0

    def test_new_graph_on_a_released_node_raises(self):
        # A released y used to pass on no gradient to w, so w.grad
        # stayed 6 where the chain rule gives 6 + 4 * 3 = 18.
        w = Tensor([1.0], requires_grad=True)
        y = w * Tensor([3.0])
        (y * 2).sum().backward()
        assert w.grad[0] == 6.0
        with pytest.raises(RuntimeError, match="released"):
            (y * 4).sum().backward()
        assert w.grad[0] == 6.0

    def test_backward_frees_the_tape_as_it_runs(self):
        mb = 1_000_000
        x = Tensor(np.ones(mb // 8), requires_grad=True)
        chain = [x]
        for _ in range(8):
            chain.append(chain[-1] * 1.5)
        loss = chain[-1].sum()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            loss.backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # One step holds the gradient of the op being run and the
        # adjoint its vjp hands on, which becomes the parent's grad with
        # no copy: 1 MB each.  Keeping every intermediate grad would
        # hold 8 MB more by the end.
        assert peak - start <= 2 * 2**20, peak - start
        assert x.grad is not None
        assert all(t.grad is None for t in chain[1:])


def _copy_always_accumulate(self, grad, fresh=False):
    """``_accumulate`` before fresh adjoints: every first adjoint is copied."""
    if not self.requires_grad:
        return
    if self.grad is None:
        self.grad = np.empty_like(self.data)
        np.copyto(self.grad, grad)
    else:
        self.grad += grad


def _leaf_grads(build):
    rng = np.random.default_rng(5)
    leaves = [Tensor(rng.normal(size=(2, 3, 4, 4)), requires_grad=True) for _ in range(3)]
    build(*leaves).backward(rng.normal(size=(2, 3, 4, 4)))
    return leaves


_GRAPHS = {
    "x + x": lambda a, b, c: a + a,
    "x * x": lambda a, b, c: a * a,
    "one tensor feeds two ops": lambda a, b, c: (a * b) + (a - c) * a,
    "reshape and transpose views": lambda a, b, c: (
        (a * b).reshape(2, 3, 16).transpose(0, 2, 1).reshape(2, 4, 4, 3).transpose(0, 3, 1, 2)
        + c * 2.0
    ),
    "pad2d crop": lambda a, b, c: F.pad2d(a * b, 1)[:, :, 1:5, 1:5] + F.pad2d(c, 2)[:, :, 2:6, 2:6],
    "conv, norm and relu": lambda a, b, c: F.batch_norm(
        F.conv2d(a.relu() + b, nn.Parameter(np.full((3, 3, 3, 3), 0.1)), padding=1),
        nn.Parameter(np.ones(3)), nn.Parameter(np.zeros(3)), np.zeros(3), np.ones(3), True,
    ) * c,
}


class TestGradOwnership:
    """A fresh adjoint becomes ``.grad`` with no copy, and no two grads alias."""

    @pytest.mark.parametrize("graph", sorted(_GRAPHS))
    def test_leaf_grads_are_distinct_and_bitwise_the_copied_ones(self, graph, monkeypatch):
        got = _leaf_grads(_GRAPHS[graph])
        monkeypatch.setattr(Tensor, "_accumulate", _copy_always_accumulate)
        want = _leaf_grads(_GRAPHS[graph])
        held = [t for t in got if t.grad is not None]
        assert held
        for t, ref in zip(got, want):
            if ref.grad is None:
                assert t.grad is None
                continue
            assert t.grad.dtype == ref.grad.dtype
            assert np.array_equal(t.grad, ref.grad)
            assert not np.shares_memory(t.grad, t.data)
        for i, t in enumerate(held):
            for other in held[i + 1 :]:
                assert not np.shares_memory(t.grad, other.grad)

    @pytest.mark.parametrize("graph", sorted(_GRAPHS) + ["ours model"])
    def test_a_fresh_adjoint_shares_memory_with_no_other(self, graph, monkeypatch):
        # Every adjoint handed over, and every first grad _accumulate
        # copied, in order.  A fresh adjoint must overlap nothing handed
        # or copied before it; later views of the grad it became (a
        # reshape's adjoint, say) are handed on as copies.
        entries = []
        accumulate = Tensor._accumulate

        def recording(self, grad, fresh=False):
            first = self.requires_grad and self.grad is None
            accumulate(self, grad, fresh=fresh)
            if self.requires_grad:
                entries.append((grad, fresh))
            if first and self.grad is not grad:
                entries.append((self.grad, False))

        monkeypatch.setattr(Tensor, "_accumulate", recording)
        if graph == "ours model":
            model = build_model("ours", "tiny", grid=32, seed=3)
            x = Tensor(np.random.default_rng(0).random((2, 6, 32, 32)))
            model(x).sum().backward()
        else:
            _leaf_grads(_GRAPHS[graph])
        fresh = [i for i, (_, is_fresh) in enumerate(entries) if is_fresh]
        for i in fresh:
            for j, (earlier, _) in enumerate(entries[:i]):
                assert not np.may_share_memory(entries[i][0], earlier), (i, j)

    def test_fresh_adjoint_is_taken_and_others_are_copied(self):
        x = Tensor(np.zeros((2, 3)), requires_grad=True)
        fresh = np.ones((2, 3))
        x._accumulate(fresh, fresh=True)
        assert x.grad is fresh
        # Not fresh; fresh but float32; fresh but not C-contiguous.
        for grad, fresh in (
            (np.ones((2, 3)), False),
            (np.ones((2, 3), dtype=np.float32), True),
            (np.ones((3, 2)).T, True),
        ):
            y = Tensor(np.zeros((2, 3)), requires_grad=True)
            y._accumulate(grad, fresh=fresh)
            assert y.grad is not grad and y.grad.dtype == np.float64
            np.testing.assert_array_equal(y.grad, np.ones((2, 3)))

    def test_mul_forms_no_product_for_a_constant(self):
        class Spy(np.ndarray):
            """Counts the ufunc calls that read it."""

            calls = 0

            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                Spy.calls += 1
                plain = [np.asarray(v) if isinstance(v, Spy) else v for v in inputs]
                return getattr(ufunc, method)(*plain, **kwargs)

        x = Tensor(np.arange(4.0), requires_grad=True)
        x.data = x.data.view(Spy)
        y = x * Tensor(np.full(4, 1.5))
        assert Spy.calls == 1  # the forward product
        y.sum().backward()
        # x's adjoint is g * 1.5; the constant's, g * x, is never formed.
        assert Spy.calls == 1
        np.testing.assert_array_equal(x.grad, np.full(4, 1.5))


class TestConcatenateStack:
    def test_concatenate_gradients(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((3, 2)), requires_grad=True)
        out = concatenate([a, b], axis=0)
        assert out.shape == (5, 2)
        (out * np.arange(10.0).reshape(5, 2)).sum().backward()
        np.testing.assert_allclose(a.grad, [[0, 1], [2, 3]])
        np.testing.assert_allclose(b.grad, [[4, 5], [6, 7], [8, 9]])

    def test_stack_gradients(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        out = stack([a, b], axis=0)
        assert out.shape == (2, 2)
        out.sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 1.0])
        np.testing.assert_allclose(b.grad, [1.0, 1.0])

    def test_as_tensor_passthrough(self):
        a = Tensor([1.0])
        assert as_tensor(a) is a
        assert isinstance(as_tensor([1.0, 2.0]), Tensor)
