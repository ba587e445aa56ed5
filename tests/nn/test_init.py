"""Weight initialization schemes."""

import numpy as np
import pytest

from repro.nn import init


class TestFanComputation:
    def test_linear_shape(self):
        fan_in, fan_out = init._fan_in_out((8, 4))
        assert (fan_in, fan_out) == (4, 8)

    def test_conv_shape(self):
        fan_in, fan_out = init._fan_in_out((16, 3, 5, 5))
        assert fan_in == 3 * 25
        assert fan_out == 16 * 25

    def test_unsupported_shape(self):
        with pytest.raises(ValueError, match="unsupported"):
            init._fan_in_out((3,))


class TestDistributions:
    def test_kaiming_uniform_bound(self, rng):
        w = init.kaiming_uniform((64, 32), rng)
        gain = np.sqrt(2.0 / (1.0 + 5.0))
        bound = gain * np.sqrt(3.0 / 32)
        assert np.abs(w).max() <= bound + 1e-12
        assert abs(w.mean()) < bound / 5

    def test_xavier_uniform_bound(self, rng):
        w = init.xavier_uniform((30, 20), rng)
        bound = np.sqrt(6.0 / 50)
        assert np.abs(w).max() <= bound + 1e-12

    def test_deterministic_given_rng(self):
        a = init.kaiming_uniform((4, 4), np.random.default_rng(5))
        b = init.kaiming_uniform((4, 4), np.random.default_rng(5))
        np.testing.assert_allclose(a, b)

    def test_zeros_ones(self):
        np.testing.assert_allclose(init.zeros((2, 2)), 0.0)
        np.testing.assert_allclose(init.ones((3,)), 1.0)

    def test_variance_preservation_forward(self, rng):
        """Kaiming init with ``a = 0`` keeps pre-activation variance
        ~constant through a ReLU layer (its defining property)."""
        w = init.kaiming_uniform((512, 512), rng, a=0.0)
        x = rng.normal(size=(64, 512))
        pre = x @ w.T
        post = np.maximum(pre, 0.0)
        # E[relu(z)^2] = Var(z)/2 for zero-mean z; kaiming gives
        # Var(pre) = 2, so the second moment the next layer sees is ~1.
        assert (post**2).mean() == pytest.approx((x**2).mean(), rel=0.25)
