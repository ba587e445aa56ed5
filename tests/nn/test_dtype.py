"""Configurable default dtype (float32 training mode)."""

import numpy as np
import pytest

from repro import nn
from repro.models import build_model


class TestDefaultDtype:
    def test_default_is_float64(self):
        assert nn.get_default_dtype() == np.float64
        assert nn.Tensor([1.0]).data.dtype == np.float64

    def test_float32_mode(self, float32_mode):
        assert nn.Tensor([1.0]).data.dtype == np.float32

    def test_invalid_dtype_rejected(self):
        with pytest.raises(ValueError, match="unsupported"):
            nn.set_default_dtype(np.int32)

    def test_ops_stay_float32(self, float32_mode, rng):
        a = nn.Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        out = (a @ a).relu().sum()
        assert out.data.dtype == np.float32
        out.backward()
        assert a.grad.dtype == np.float32

    def test_model_trains_in_float32(self, float32_mode, rng):
        model = build_model("unet", "tiny")
        for _, param in model.named_parameters():
            assert param.data.dtype == np.float32
        loss_fn = nn.CrossEntropyLoss2d(8)
        opt = nn.Adam(model.parameters(), lr=1e-3)
        x = rng.normal(size=(2, 6, 16, 16)).astype(np.float32)
        y = rng.integers(0, 8, size=(2, 16, 16))
        first = loss_fn(model(nn.Tensor(x)), y)
        first.backward()
        opt.step()
        second = loss_fn(model(nn.Tensor(x)), y)
        assert second.item() < first.item()

    def test_batchnorm_buffers_follow_dtype(self, float32_mode):
        bn = nn.BatchNorm2d(3)
        assert bn.running_mean.dtype == np.float32

    def test_float32_close_to_float64(self, rng):
        """Same forward result to float32 precision."""
        x64 = rng.normal(size=(1, 6, 16, 16))
        model64 = build_model("unet", "tiny", seed=7)
        out64 = model64(nn.Tensor(x64)).data
        nn.set_default_dtype(np.float32)
        try:
            model32 = build_model("unet", "tiny", seed=7)
            model32.load_state_dict(
                {k: v.astype(np.float32) for k, v in model64.state_dict().items()}
            )
            out32 = model32(nn.Tensor(x64.astype(np.float32))).data
        finally:
            nn.set_default_dtype(np.float64)
        np.testing.assert_allclose(out64, out32, atol=1e-3)
