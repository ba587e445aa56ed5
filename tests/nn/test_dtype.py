"""Configurable default dtype (float32 training mode)."""

import numpy as np
import pytest

from repro import nn
from repro.features import extract_features
from repro.ir import trace
from repro.models import build_model
from repro.netlist import MLCAD2023_SPECS, generate_design


@pytest.fixture(scope="module")
def design():
    return generate_design(MLCAD2023_SPECS["Design_120"], scale=1 / 256)


class TestDefaultDtype:
    def test_default_is_float64(self):
        assert nn.get_default_dtype() == np.float64
        assert nn.Tensor([1.0]).data.dtype == np.float64

    def test_float32_mode(self, float32_mode):
        assert nn.Tensor([1.0]).data.dtype == np.float32

    def test_invalid_dtype_rejected(self):
        with pytest.raises(ValueError, match="unsupported"):
            nn.set_default_dtype(np.int32)

    def test_ops_stay_float32(self, float32_mode, rng, adjoint_log):
        a = nn.Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        out = (a @ a).relu().sum()
        assert out.data.dtype == np.float32
        out.backward()
        # ``a.grad`` is float32 whatever the vjps hand over; the adjoints
        # themselves are what must stay float32.
        wide = [where for _, _, dtype, where in adjoint_log if dtype != np.float32]
        assert any(t is a for t, *_ in adjoint_log) and not wide, wide

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


class TestFloat32Pipeline:
    """The float32 deployment stays float32 end to end: features, every
    registry model's forward, every op of its traced graph, and every
    adjoint of its backward pass."""

    def test_feature_stack_is_float32(self, design):
        stack = extract_features(design, grid=32)
        assert stack.dtype == np.float32

    @pytest.mark.parametrize("name", ("unet", "pgnn", "pros2", "ours"))
    def test_forward_stays_float32(self, name, design, float32_mode):
        stack = extract_features(design, grid=32)
        model = build_model(name, preset="tiny", grid=32, seed=0)
        out = model(nn.Tensor(stack[None]))
        assert out.data.dtype == np.float32
        # One strong float64 scalar (e.g. np.sqrt(2.0 / np.pi) in gelu)
        # widens every op downstream of it; the traced graph shows each.
        graph = trace(model, (1, 6, 32, 32), input_vrange=(0.0, 1.0), name=name)
        widened = [
            f"%{n.id} {n.op} in {n.scope or '<toplevel>'}"
            for n in graph.nodes
            if n.kind == "op" and n.dtype == np.float64
        ]
        assert not widened, widened

    @pytest.mark.parametrize("name", ("unet", "pgnn", "pros2", "ours"))
    def test_backward_adjoints_match_operands(
        self, name, design, float32_mode, adjoint_log
    ):
        # A vjp that hands a float64 adjoint to a float32 operand is
        # silently cast back by ``_accumulate``, after paying for float64
        # arithmetic; a wrongly shaped one may broadcast into it.
        stack = extract_features(design, grid=32)
        model = build_model(name, preset="tiny", grid=32, seed=0)
        out = model(nn.Tensor(stack[None]))
        out.backward(np.ones(out.shape, dtype=out.data.dtype))
        mismatched = sorted({
            f"{where}: {dtype.name}{list(shape)} into "
            f"{target.data.dtype.name}{list(target.shape)}"
            for target, shape, dtype, where in adjoint_log
            if shape != target.shape or dtype != target.data.dtype
        })
        assert adjoint_log and not mismatched, mismatched

    def test_gelu_keeps_float32(self, float32_mode):
        # The NEP-50 regression: a strong np.float64 sqrt(2/pi) constant
        # used to widen every float32 gelu activation.
        x = nn.Tensor(np.linspace(-3, 3, 64, dtype=np.float32))
        assert x.gelu().data.dtype == np.float32
