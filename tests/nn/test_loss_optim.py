"""Losses, optimizers and serialization."""

import numpy as np
import pytest

from repro import nn
from repro.nn import Tensor, one_hot_levels

from ..conftest import numerical_gradient


class TestOneHot:
    def test_basic(self):
        levels = np.array([[[0, 1], [2, 3]]])
        oh = one_hot_levels(levels, 4)
        assert oh.shape == (1, 4, 2, 2)
        assert oh[0, 0, 0, 0] == 1.0
        assert oh[0, 3, 1, 1] == 1.0
        np.testing.assert_allclose(oh.sum(axis=1), 1.0)

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError, match="levels outside"):
            one_hot_levels(np.array([[[4]]]), 4)
        with pytest.raises(ValueError, match="levels outside"):
            one_hot_levels(np.array([[[-1]]]), 4)


class TestCrossEntropy:
    def test_uniform_logits_give_log_k(self):
        ce = nn.CrossEntropyLoss2d(8)
        logits = Tensor(np.zeros((1, 8, 2, 2)))
        targets = np.zeros((1, 2, 2), dtype=np.int64)
        assert ce(logits, targets).item() == pytest.approx(np.log(8))

    def test_perfect_prediction_near_zero(self):
        ce = nn.CrossEntropyLoss2d(4)
        logits = np.full((1, 4, 1, 1), -100.0)
        logits[0, 2, 0, 0] = 100.0
        loss = ce(Tensor(logits), np.array([[[2]]]))
        assert loss.item() == pytest.approx(0.0, abs=1e-8)

    def test_gradcheck(self, rng):
        ce = nn.CrossEntropyLoss2d(4)
        logits = Tensor(rng.normal(size=(2, 4, 3, 3)), requires_grad=True)
        targets = rng.integers(0, 4, size=(2, 3, 3))
        ce(logits, targets).backward()

        def f():
            return float(ce(Tensor(logits.data), targets).data)

        np.testing.assert_allclose(
            numerical_gradient(f, logits.data), logits.grad, atol=1e-7
        )

    def test_class_weights_emphasize_rare(self, rng):
        logits = rng.normal(size=(1, 2, 2, 2))
        targets = np.array([[[0, 0], [0, 1]]])
        plain = nn.CrossEntropyLoss2d(2)(Tensor(logits), targets).item()
        weighted = nn.CrossEntropyLoss2d(2, weight=np.array([1.0, 10.0]))(
            Tensor(logits), targets
        ).item()
        assert weighted != pytest.approx(plain)

    def test_wrong_class_count_raises(self, rng):
        ce = nn.CrossEntropyLoss2d(8)
        with pytest.raises(ValueError, match="classes"):
            ce(Tensor(rng.normal(size=(1, 4, 2, 2))), np.zeros((1, 2, 2), int))

    def test_bad_weight_shape_raises(self):
        with pytest.raises(ValueError, match="weight"):
            nn.CrossEntropyLoss2d(4, weight=np.ones(3))


class TestOptimizers:
    def _quadratic_steps(self, optimizer_cls, steps=200, **kwargs):
        target = np.array([3.0, -2.0])
        p = nn.Parameter(np.zeros(2))
        opt = optimizer_cls([p], **kwargs)
        for _ in range(steps):
            opt.zero_grad()
            loss = ((p - Tensor(target)) ** 2).sum()
            loss.backward()
            opt.step()
        return p.data, target

    def test_sgd_converges(self):
        got, want = self._quadratic_steps(nn.SGD, lr=0.1)
        np.testing.assert_allclose(got, want, atol=1e-4)

    def test_sgd_momentum_converges(self):
        got, want = self._quadratic_steps(nn.SGD, lr=0.05, momentum=0.9)
        np.testing.assert_allclose(got, want, atol=1e-4)

    def test_adam_converges(self):
        got, want = self._quadratic_steps(nn.Adam, steps=800, lr=0.05)
        np.testing.assert_allclose(got, want, atol=1e-3)

    def test_weight_decay_shrinks(self):
        p = nn.Parameter(np.array([10.0]))
        opt = nn.SGD([p], lr=0.1, weight_decay=1.0)
        opt.zero_grad()
        (p * 0.0).sum().backward()
        opt.step()
        assert abs(p.data[0]) < 10.0

    def test_negative_lr_rejected(self):
        with pytest.raises(ValueError, match="learning rate"):
            nn.SGD([nn.Parameter(np.zeros(1))], lr=-1.0)

    def test_skips_parameters_without_grad(self):
        p = nn.Parameter(np.array([1.0]))
        opt = nn.Adam([p], lr=0.1)
        opt.step()  # no grad accumulated; must not crash or move
        assert p.data[0] == 1.0

    def test_clip_grad_norm(self):
        p = nn.Parameter(np.zeros(4))
        p.grad = np.full(4, 10.0)
        norm = nn.clip_grad_norm([p], max_norm=1.0)
        assert norm == pytest.approx(20.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0)

    def test_clip_grad_norm_no_clip_below_max(self):
        p = nn.Parameter(np.zeros(2))
        p.grad = np.array([0.3, 0.4])
        norm = nn.clip_grad_norm([p], max_norm=1.0)
        assert norm == pytest.approx(0.5)
        np.testing.assert_allclose(p.grad, [0.3, 0.4])


class TestSerialization:
    def test_module_roundtrip(self, tmp_path, rng):
        m1 = nn.Sequential(nn.Linear(3, 4), nn.ReLU(), nn.Linear(4, 2))
        m2 = nn.Sequential(nn.Linear(3, 4), nn.ReLU(), nn.Linear(4, 2))
        path = tmp_path / "ckpt.npz"
        nn.save_module(m1, path)
        nn.load_module(m2, path)
        x = rng.normal(size=(2, 3))
        np.testing.assert_allclose(
            m1(Tensor(x)).data, m2(Tensor(x)).data
        )

    def test_state_roundtrip(self, tmp_path):
        state = {"a": np.arange(5.0), "b.c": np.ones((2, 2))}
        path = tmp_path / "state.npz"
        nn.save_state(state, path)
        loaded = nn.load_state(path)
        assert set(loaded) == {"a", "b.c"}
        np.testing.assert_allclose(loaded["a"], state["a"])


class TestAdamExactSteps:
    def test_first_step_matches_hand_computation(self):
        """After one step with gradient g, Adam moves by ~lr*sign(g)."""
        p = nn.Parameter(np.array([1.0, -2.0]))
        opt = nn.Adam([p], lr=0.1)
        p.grad = np.array([0.5, -3.0])
        opt.step()
        # m_hat = g, v_hat = g^2 -> update = lr * g/(|g|+eps) = lr*sign(g)
        np.testing.assert_allclose(
            p.data, [1.0 - 0.1, -2.0 + 0.1], atol=1e-6
        )

    def test_bias_correction_applied(self):
        """Without bias correction the first step would be ~lr*beta-scaled."""
        p = nn.Parameter(np.zeros(1))
        opt = nn.Adam([p], lr=1.0, betas=(0.9, 0.999))
        p.grad = np.array([1.0])
        opt.step()
        # Corrected first step is ~lr regardless of betas.
        assert abs(p.data[0] + 1.0) < 1e-3

    def test_state_persists_across_steps(self):
        p = nn.Parameter(np.zeros(1))
        opt = nn.Adam([p], lr=0.1)
        for _ in range(3):
            p.grad = np.array([1.0])
            opt.step()
        assert opt._step == 3
        assert opt._m[0][0] != 0.0


class TestSGDExactSteps:
    def test_momentum_accumulates(self):
        p = nn.Parameter(np.zeros(1))
        opt = nn.SGD([p], lr=1.0, momentum=0.5)
        p.grad = np.array([1.0])
        opt.step()  # v=1, p=-1
        p.grad = np.array([1.0])
        opt.step()  # v=1.5, p=-2.5
        assert p.data[0] == pytest.approx(-2.5)
