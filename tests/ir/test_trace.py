"""Tracer fidelity: the symbolic graph must mirror the real forward.

The tracer executes each model's *own* ``forward`` over shape-only
payloads, so the strongest possible check is direct: traced output
shapes must equal the shapes a real forward produces, for every registry
model at more than one grid size — and the trace must never touch real
data.
"""

import numpy as np
import pytest

from repro.ir import ShapeError, SymbolicArray, TraceError, trace, trace_model
from repro.ir.trace import TraceSession
from repro.models import build_model
from repro.models.registry import MODEL_NAMES, PRESETS
from repro.nn import BatchNorm2d, Conv2d, Linear, MaxPool2d, Module, ReLU, Sequential
from repro.nn.tensor import Tensor, no_grad


@pytest.mark.parametrize("grid", [64, 128])
@pytest.mark.parametrize("name", MODEL_NAMES)
class TestShapeFidelity:
    def test_traced_shapes_match_runtime(self, name, grid):
        graph = trace_model(name, preset="tiny", grid=grid, seed=0)
        model = build_model(name, "tiny", grid=grid, seed=0)
        model.eval()
        with no_grad():
            out = model(Tensor(np.zeros((1, 6, grid, grid))))
        traced = [graph[i].shape for i in graph.outputs]
        assert traced == [out.data.shape]
        assert graph[graph.outputs[0]].dtype == out.data.dtype


class TestTraceModelReuse:
    def _sessions(self, monkeypatch):
        count = []
        init = TraceSession.__init__

        def counting(self):
            count.append(1)
            init(self)

        monkeypatch.setattr(TraceSession, "__init__", counting)
        return count

    def test_batch_one_reuses_the_validation_trace(self, monkeypatch):
        count = self._sessions(monkeypatch)
        graph = trace_model("unet", preset="tiny", grid=32)
        assert len(count) == 1
        fresh = trace(build_model("unet", "tiny", grid=32), (1, 6, 32, 32),
                      input_vrange=(0.0, 1.0))
        assert [(n.op, n.shape, n.flops) for n in graph] == [
            (n.op, n.shape, n.flops) for n in fresh
        ]
        assert graph.meta["batch"] == 1

    def test_other_batches_and_intervals_trace_again(self, monkeypatch):
        count = self._sessions(monkeypatch)
        graph = trace_model("unet", preset="tiny", grid=32, batch=2)
        assert graph.meta["input_shapes"] == [(2, 6, 32, 32)]
        trace_model("unet", preset="tiny", grid=32, input_vrange=(-1.0, 1.0))
        assert len(count) == 4


class TestGraphStructure:
    @pytest.fixture(scope="class")
    def graph(self):
        return trace_model("ours", preset="tiny", grid=64)

    def test_params_registered(self, graph):
        counts = graph.counts()
        assert counts["param"] > 0
        assert counts["input"] == 1
        assert counts["op"] > 100

    def test_param_count_matches_model(self, graph):
        model = build_model("ours", "tiny", grid=64)
        traced = sum(n.size for n in graph if n.kind == "param")
        assert traced == model.num_parameters()

    def test_scope_attribution(self, graph):
        scopes = {n.scope for n in graph if n.kind == "op"}
        # Nested module paths, not just the root.
        assert any(s.count(".") >= 2 for s in scopes)
        assert all(s.startswith("MFATransformerNet") for s in scopes if s)

    def test_src_attribution_points_at_substrate(self, graph):
        srcs = [n.src for n in graph if n.kind == "op" and n.src]
        assert srcs, "op nodes must carry call-site attribution"
        assert any("functional.py" in s for s in srcs)

    def test_ssa_order(self, graph):
        for node in graph:
            assert all(i < node.id for i in node.inputs)

    def test_views_carry_no_bytes(self, graph):
        views = [n for n in graph if n.alias_of is not None]
        assert views, "conv/attention reshapes should produce views"
        assert all(n.bytes == 0 for n in views)


class TestNoRealCompute:
    def test_symbolic_array_refuses_materialization(self):
        sess = TraceSession()
        node = sess.graph.add(
            "input", (), (2, 3), np.float64, kind="input", meta={"vrange": (0, 1)}
        )
        arr = SymbolicArray(sess, node.id, (2, 3), np.dtype(np.float64))
        with pytest.raises(TraceError):
            np.asarray(arr)
        with pytest.raises(TraceError):
            bool(arr)
        with pytest.raises(TraceError):
            float(arr)

    def test_large_grid_traces_instantly(self):
        # 512x512 through the full paper-preset model: pure shape
        # arithmetic, so this must not allocate gigabyte activations.
        graph = trace_model("ours", preset="paper", grid=512)
        assert graph[graph.outputs[0]].shape == (1, 8, 512, 512)


class TestTraceHygiene:
    def test_training_mode_restored(self):
        model = Sequential(Conv2d(3, 4, 3, padding=1), BatchNorm2d(4))
        model.train()
        trace(model, (1, 3, 8, 8))
        assert all(m.training for m in model.modules())

    def test_linear_graph_minimal(self):
        graph = trace(Linear(5, 7, rng=np.random.default_rng(0)), (4, 5))
        ops = [n.op for n in graph if n.kind == "op"]
        assert "matmul" in ops
        assert graph[graph.outputs[0]].shape == (4, 7)

    def test_const_scalars_deduplicated(self):
        graph = trace(Linear(5, 7, rng=np.random.default_rng(0)), (4, 5))
        names = [n.name for n in graph if n.kind == "const"]
        assert len(names) == len(set(names))


class TestInPlaceUfuncs:
    """``x -= m`` and ``np.exp(x, out=x)`` trace as zero-byte aliases."""

    @staticmethod
    def _input(shape=(2, 5)):
        sess = TraceSession()
        node = sess.graph.add(
            "input", (), shape, np.float64, kind="input", meta={"vrange": (-3.0, 3.0)}
        )
        return sess, SymbolicArray(sess, node.id, shape, np.dtype(np.float64))

    def test_stable_softmax_in_place(self):
        sess, x = self._input()
        energy = x * 2.0
        product = energy.node_id
        energy -= energy.max(axis=-1, keepdims=True)
        shifted = energy.node
        e = np.exp(energy, out=energy)
        total = e.sum(axis=-1)
        for node in (shifted, e.node):
            assert node.bytes == 0 and node.flops == 10
            assert sess.graph.buffer_of(node.id) == product
        assert shifted.op == "subtract" and shifted.meta["max_shifted"] == (1,)
        assert shifted.vrange == (-12.0, 0.0)
        assert e.node.op == "exp" and e.node.meta["unit_max_axes"] == (1,)
        assert total.vrange[0] >= 1.0  # the stabilization tag reached exp

    def test_out_must_be_an_input(self):
        _, x = self._input()
        other = x * 1.0
        with pytest.raises(TraceError):
            np.exp(x, out=(other,))
        with pytest.raises(TraceError):
            np.matmul(x, x.transpose(), out=(x,))


def _traced_vs_real(module, in_shape):
    graph = trace(module, in_shape)
    module.eval()
    with no_grad():
        real = module(Tensor(np.zeros(in_shape))).shape
    assert graph[graph.outputs[0]].shape == real


class TestLeafFidelity:
    def test_conv2d(self):
        _traced_vs_real(Conv2d(3, 8, kernel_size=3, stride=2, padding=1), (2, 3, 9, 9))

    def test_linear(self):
        _traced_vs_real(Linear(12, 5), (4, 7, 12))

    def test_sequential_chain(self):
        block = Sequential(Conv2d(3, 8, kernel_size=3, padding=1), BatchNorm2d(8),
                           ReLU(), MaxPool2d(2))
        _traced_vs_real(block, (1, 3, 16, 16))


class TestShapeErrors:
    """A forward that rejects its shapes fails the trace with ShapeError."""

    @staticmethod
    def _mismatched_block():
        return Sequential(
            Conv2d(3, 8, kernel_size=3, padding=1),
            Conv2d(4, 8, kernel_size=3, padding=1),
        )

    def test_conv_channel_mismatch_raises(self):
        with pytest.raises(ShapeError, match="channels"):
            trace(self._mismatched_block(), (1, 3, 16, 16))

    def test_error_names_offending_module_path(self):
        # "1" is the second Sequential entry, the innermost module that
        # was running when the conv rejected its input.
        with pytest.raises(ShapeError, match=r"^Sequential\.1: "):
            trace(self._mismatched_block(), (1, 3, 16, 16))

    def test_pool_divisibility_raises(self):
        with pytest.raises(ShapeError, match=r"^MaxPool2d: "):
            trace(MaxPool2d(2), (1, 3, 15, 15))

    def test_linear_feature_mismatch_raises(self):
        with pytest.raises(ShapeError, match="inner-dimension"):
            trace(Linear(12, 5), (4, 7, 13))

    def test_is_a_value_error(self):
        assert issubclass(ShapeError, ValueError)
        assert not issubclass(TraceError, ValueError)


class TestJoinShapes:
    """Symbolic concatenate/stack reject the shapes numpy rejects."""

    class Join(Module):
        def __init__(self, fn, other):
            super().__init__()
            self.fn, self.other = fn, other

        def forward(self, x):
            return Tensor(self.fn([x.data, self.other]))

    def _check(self, fn, in_shape, other_shape):
        other = np.zeros(other_shape)
        with pytest.raises(ValueError):
            fn([np.zeros(in_shape), other])
        module = self.Join(fn, other)
        with pytest.raises(ShapeError, match=r"^Join: "):
            trace(module, in_shape)

    def test_concatenate_non_axis_extent(self):
        self._check(lambda a: np.concatenate(a, axis=1), (1, 4, 8, 8), (1, 2, 4, 4))

    def test_concatenate_rank(self):
        self._check(lambda a: np.concatenate(a, axis=1), (1, 4, 8, 8), (1, 2, 8))

    def test_stack_shapes_must_match(self):
        self._check(lambda a: np.stack(a, axis=0), (2, 3), (2, 4))

    def test_valid_joins_still_trace(self):
        graph = trace(self.Join(lambda a: np.concatenate(a, axis=1), np.zeros((1, 2, 8, 8))),
                      (1, 4, 8, 8))
        assert graph[graph.outputs[0]].shape == (1, 6, 8, 8)
        graph = trace(self.Join(lambda a: np.stack(a, axis=-1), np.zeros((2, 3))), (2, 3))
        assert graph[graph.outputs[0]].shape == (2, 3, 2)


@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("name", MODEL_NAMES)
def test_no_registry_model_traces_a_power_node(name, preset):
    """float32 ``power`` costs ~80x the multiplies it stands for (GELU's
    ``x**3`` did): forwards spell small powers as products."""
    graph = trace_model(name, preset=preset, grid=64)
    assert [node.op for node in graph if node.op == "power"] == []
