"""Oracle: every traced ``conv2d`` and ``position_attention`` node names
the kernel that really runs, and carries that kernel's FLOPs.

One real no-grad forward of each registry model runs with spies on the
kernels (``_correlate`` and the forward ``im2col`` for convolutions,
``_rank1_attention`` and ``_blocked_attention`` for position
attention).  The trace of the same model must list the same kernels in
call order, and each node's FLOPs must equal the count derived below
from the node's operand shapes, pass by pass.
"""

import numpy as np
import pytest

from repro.ir import ShapeError, trace
from repro.models import build_model
from repro.models.registry import MODEL_NAMES
from repro.nn import Conv2d, Module, Parameter, Tensor, no_grad
from repro.nn import functional as F

PRIMITIVES = ("conv2d", "position_attention")
GRIDS = (32, 64, 256)


@pytest.fixture
def executed(monkeypatch):
    """Kernel names in the order the numeric code calls them."""
    ran = []

    def spy(name, kernel):
        def call(*args, **kwargs):
            ran.append(name)
            return kernel(*args, **kwargs)

        return call

    for attr, name in (
        ("_correlate", "implicit_gemm"),
        ("im2col", "im2col"),
        ("_rank1_attention", "rank1"),
        ("_blocked_attention", "blocked"),
    ):
        monkeypatch.setattr(F, attr, spy(name, getattr(F, attr)))
    return ran


def _run_and_trace(name, preset, grid, ran):
    model = build_model(name, preset, grid=grid, seed=0)
    graph = trace(model, (1, 6, grid, grid), input_vrange=(0.0, 1.0), name=name)
    ran.clear()
    model.eval()
    x = np.random.default_rng(grid).random((1, 6, grid, grid))
    with no_grad():
        model(Tensor(x))
    nodes = [node for node in graph if node.op in PRIMITIVES]
    return graph, nodes, list(ran)


def _analytic_flops(graph, node) -> int:
    attrs = dict(node.attrs)
    if node.op == "conv2d":
        n, c_in, h, w = graph[node.inputs[0]].shape
        c_out, _, k, _ = graph[node.inputs[1]].shape
        out_pixels = node.shape[2] * node.shape[3]
        bias = n * c_out * out_pixels if len(node.inputs) == 3 else 0
        if attrs["kernel"] == "implicit_gemm":
            # Per tap, a (C_out, C_in) GEMM over every pixel of the
            # padded images; all but the first tap product are added.
            p = attrs["padding"]
            pixels = n * (h + 2 * p) * (w + 2 * p)
            tap_gemms = k * k * 2 * c_out * c_in * pixels
            tap_sums = (k * k - 1) * c_out * pixels
            return tap_gemms + tap_sums + bias
        # One (C_out, C_in·k²) GEMM over the output pixels' columns.
        return 2 * c_out * c_in * k * k * n * out_pixels + bias
    n, d, tokens = graph[node.inputs[0]].shape
    c = graph[node.inputs[2]].shape[1]
    cells, rows = n * tokens * tokens, n * tokens
    if attrs["kernel"] == "rank1":
        outer, exp = cells, cells
        gemm = 2 * (c + 1) * cells  # X @ [v; 1]ᵀ gives out·ΣX and ΣX
        keys = 4 * rows  # max k, min k and the two shifted keys
        return outer + exp + gemm + keys + rows + c * rows  # + 1/ΣX, out·(1/ΣX)
    energy = cells if d == 1 else 2 * d * cells
    row_max, shift, exp, row_sum = cells, cells, cells, cells
    gemm = 2 * c * cells  # v @ Xᵀ
    return energy + row_max + shift + exp + row_sum + gemm + rows + c * rows


CASES = [
    (name, preset, grid)
    for name in MODEL_NAMES
    for preset in ("tiny", "fast")
    for grid in GRIDS
]


@pytest.mark.parametrize("name, preset, grid", CASES)
def test_traced_nodes_name_the_executed_kernels(executed, name, preset, grid):
    graph, nodes, ran = _run_and_trace(name, preset, grid, executed)
    assert ran, "the forward ran no spied kernel"
    assert [dict(node.attrs)["kernel"] for node in nodes] == ran
    for node in nodes:
        assert node.flops == _analytic_flops(graph, node), node


@pytest.mark.parametrize("side", ["below", "at"])
def test_rank1_threshold_moves_the_run_and_the_trace_together(monkeypatch, executed, side):
    # ours/tiny at grid 64 attends over L = 1024, 256, 64, 16 and 16.
    tokens = 64
    monkeypatch.setattr(F, "_RANK1_MIN_MAP", tokens * tokens + (side == "below"))
    _, nodes, ran = _run_and_trace("ours", "tiny", 64, executed)
    attention = [node for node in nodes if node.op == "position_attention"]
    lengths = [node.shape[2] for node in attention]
    assert lengths == [1024, 256, 64, 16, 16]
    kernels = [dict(node.attrs)["kernel"] for node in attention]
    flipped = "blocked" if side == "below" else "rank1"
    assert kernels == ["rank1", "rank1", flipped, "blocked", "blocked"]
    assert [name for name in ran if name in ("rank1", "blocked")] == kernels


class _Attend(Module):
    """Position attention of ``x`` over keys that drop its last token."""

    def forward(self, x):
        return F.position_attention(x, x[:, :, :-1], x)


class TestRuleShapes:
    """The rules reject the operands the numeric kernels reject."""

    @staticmethod
    def _check(module, in_shape, message):
        with pytest.raises(ValueError):
            module(Tensor(np.zeros(in_shape)))
        with pytest.raises(ShapeError, match=message):
            trace(module, in_shape)

    def test_conv_kernel_larger_than_the_padded_input(self):
        conv = Conv2d(3, 4, 5, rng=np.random.default_rng(0))
        self._check(conv, (1, 3, 3, 3), "does not fit")

    def test_conv_bias_of_another_width(self):
        conv = Conv2d(3, 4, 3, rng=np.random.default_rng(0))
        conv.bias = Parameter(np.zeros(5))
        self._check(conv, (1, 3, 8, 8), "bias of size 5")

    def test_attention_keys_of_another_length(self):
        self._check(_Attend(), (1, 1, 9), "position attention needs")
