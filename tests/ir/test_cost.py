"""Cost model: FLOP counts must be analytically exact on known layers."""

import numpy as np

from repro.ir import cost_model, trace
from repro.nn import Conv2d, Linear


def _rng():
    return np.random.default_rng(0)


class TestAnalyticFlops:
    @staticmethod
    def _conv_node(graph):
        (node,) = [node for node in graph if node.kind == "op"]
        assert node.op == "conv2d"
        return node

    def test_conv2d_exact(self):
        # Stride 1, k > 1: the implicit GEMM runs k² tap GEMMs over the
        # whole (H + 2p)² padded grid and sums the k² tap products, then
        # adds the bias over the H_out² outputs.
        n, c_in, c_out, k, h = 1, 3, 8, 3, 16
        conv = Conv2d(c_in, c_out, k, padding=1, rng=_rng())
        node = self._conv_node(trace(conv, (n, c_in, h, h)))
        assert dict(node.attrs)["kernel"] == "implicit_gemm"
        padded = (h + 2) * (h + 2)
        assert node.flops == (
            n * c_out * padded * (2 * c_in * k * k + k * k - 1) + n * c_out * h * h
        )

    def test_conv2d_strided_exact(self):
        # Strided: one im2col GEMM of 2 * N * C_out * (C_in * k^2) *
        # H_out * W_out flops, plus the bias.
        n, c_in, c_out, k, h, stride = 2, 4, 6, 3, 16, 2
        h_out = (h - k) // stride + 1
        conv = Conv2d(c_in, c_out, k, stride=stride, rng=_rng())
        node = self._conv_node(trace(conv, (n, c_in, h, h)))
        assert dict(node.attrs)["kernel"] == "im2col"
        assert node.flops == (
            2 * n * c_out * (c_in * k * k) * h_out * h_out + n * c_out * h_out * h_out
        )

    def test_linear_exact(self):
        # y = x @ W^T: 2 * batch * in * out flops for the matmul.
        linear = Linear(5, 7, rng=_rng())
        graph = trace(linear, (4, 5))
        matmul_flops = sum(node.flops for node in graph if node.op == "matmul")
        assert matmul_flops == 2 * 4 * 5 * 7

    def test_elementwise_is_output_sized(self):
        linear = Linear(5, 7, rng=_rng())
        graph = trace(linear, (4, 5))
        adds = [node for node in graph if node.op == "add"]
        assert adds and all(node.flops == node.size for node in adds)


class TestRollups:
    def test_tables_sum_to_total(self):
        conv = Conv2d(3, 8, 3, padding=1, rng=_rng())
        graph = trace(conv, (1, 3, 16, 16))
        cost = cost_model(graph)
        assert cost["total_flops"] > 0
        assert sum(r["flops"] for r in cost["by_op"]) == cost["total_flops"]
        assert sum(r["flops"] for r in cost["by_stage"]) == cost["total_flops"]

    def test_param_accounting(self):
        conv = Conv2d(3, 8, 3, padding=1, rng=_rng())
        graph = trace(conv, (1, 3, 16, 16))
        cost = cost_model(graph)
        assert cost["param_count"] == 8 * 3 * 3 * 3 + 8
        assert cost["param_bytes"] == cost["param_count"] * 8

    def test_flops_per_output_pixel(self):
        conv = Conv2d(3, 8, 3, padding=1, rng=_rng())
        graph = trace(conv, (1, 3, 16, 16))
        cost = cost_model(graph)
        assert cost["flops_per_output_pixel"] == cost["total_flops"] // (16 * 16)
