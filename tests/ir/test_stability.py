"""Stability passes: flag real hazards, stay silent on stabilized code.

The interesting property is the *negative* direction: the interval
domain plus the max-shift pattern recognition must prove the substrate's
stabilized softmax/log-sum-exp safe, otherwise every model would drown
in false REPRO101s.
"""

import numpy as np
import pytest

from repro.ir import check_stability, trace, trace_model
from repro.models.registry import MODEL_NAMES
from repro.nn import Module, get_default_dtype, set_default_dtype


def _codes(module, *shapes, input_vrange=(-np.inf, np.inf)):
    graph = trace(module, *shapes, input_vrange=input_vrange)
    return [f.code for f in check_stability(graph)["findings"]]


class NaiveSoftmax(Module):
    def forward(self, x):
        e = x.exp()
        return e / e.sum(axis=1, keepdims=True)


class ScaledExp(Module):
    def forward(self, x):
        return (x * 1e4).exp()


class StableSoftmax(Module):
    def forward(self, x):
        e = (x - x.max(axis=1, keepdims=True)).exp()
        return e / e.sum(axis=1, keepdims=True)


class NaiveLogSumExp(Module):
    def forward(self, x):
        return x.exp().sum(axis=1, keepdims=True).log()


class StableLogSumExp(Module):
    def forward(self, x):
        m = x.max(axis=1, keepdims=True)
        return (x - m).exp().sum(axis=1, keepdims=True).log() + m


class TestExpOverflow:
    def test_naive_softmax_flagged(self):
        codes = _codes(NaiveSoftmax(), (2, 8))
        assert "REPRO101" in codes

    def test_stable_softmax_clean(self):
        assert _codes(StableSoftmax(), (2, 8)) == []

    def test_bounded_input_exempts_naive_exp(self):
        # exp of a provably small value cannot overflow.
        codes = _codes(NaiveSoftmax(), (2, 8), input_vrange=(-1.0, 1.0))
        assert "REPRO101" not in codes
        # A bounded input scaled past the overflow limit is still flagged:
        # the interval follows the value through the arithmetic.
        codes = _codes(ScaledExp(), (2, 8), input_vrange=(0.0, 1.0))
        assert "REPRO101" in codes


class TestLogAndDivide:
    def test_naive_log_sum_exp_flagged(self):
        # exp overflows AND the log sees a sum that can underflow to 0.
        codes = _codes(NaiveLogSumExp(), (2, 8))
        assert "REPRO101" in codes
        assert "REPRO102" in codes

    def test_stable_log_sum_exp_clean(self):
        # sum(exp(x - max(x))) >= 1, so the log is provably safe.
        assert _codes(StableLogSumExp(), (2, 8)) == []

    def test_division_by_possibly_zero_sum(self):
        class Normalize(Module):
            def forward(self, x):
                return x / x.sum(axis=1, keepdims=True)

        codes = _codes(Normalize(), (2, 8), input_vrange=(0.0, 1.0))
        assert "REPRO102" in codes

    def test_log_of_shifted_input_clean(self):
        class LogShifted(Module):
            def forward(self, x):
                return (x + 1.0).log()

        assert _codes(LogShifted(), (2, 8), input_vrange=(0.0, 1.0)) == []


class TestPromotion:
    # ``Tensor.__init__`` coerces concrete operands to the default dtype,
    # so silent widening can only arise on raw-ufunc paths (functional
    # kernels, buffers); exercise the pass on hand-built graphs.
    def _mixed(self, *, weak, op="multiply"):
        from repro.ir.graph import Graph

        g = Graph()
        a = g.add("input", (), (2, 8), np.float64, bytes=128, kind="input",
                  meta={"vrange": (0.0, 1.0)})
        shape = () if weak else (8,)
        c = g.add("const", (), shape, np.float32, bytes=32, kind="const",
                  meta={"vrange": (1.0, 1.0), "weak": weak})
        out = g.add(op, (a.id, c.id), (2, 8), np.float64, flops=16, bytes=128,
                    meta={"vrange": (0.0, 1.0)})
        g.outputs.append(out.id)
        return g

    def test_silent_float32_widening_flagged(self):
        findings = check_stability(self._mixed(weak=False))["findings"]
        assert [f.code for f in findings] == ["REPRO103"]

    def test_weak_scalar_not_flagged(self):
        assert check_stability(self._mixed(weak=True))["findings"] == []

    def test_explicit_cast_not_flagged(self):
        assert check_stability(self._mixed(weak=False, op="cast"))["findings"] == []

    def test_python_scalars_promote_weakly(self):
        class Scaled(Module):
            def forward(self, x):
                return x * 0.5 + 1

        assert _codes(Scaled(), (2, 8), input_vrange=(0.0, 1.0)) == []


class TestPinnedDtypeThresholds:
    """Overflow limits follow the dtype the graph executes at: a graph
    traced under a float32 default must be screened against exp's
    ~88.7 bound, not float64's ~709.8 (the dtype-blind threshold was a
    real bug)."""

    class Exp(Module):
        def forward(self, x):
            return x.exp()

    def _exp_codes(self, hi, dtype=np.float64):
        # Trace under the default dtype itself: trace(..., dtype=float32)
        # under a float64 default casts to float64 before exp.
        previous = get_default_dtype()
        set_default_dtype(dtype)
        try:
            graph = trace(self.Exp(), (2, 8), input_vrange=(0.0, hi))
        finally:
            set_default_dtype(previous)
        return [f.code for f in check_stability(graph)["findings"]]

    def test_float64_trace_clean_between_thresholds(self):
        # 100 < log(float64 max) ~ 709.8: safe as traced.
        assert self._exp_codes(100.0) == []

    def test_float32_pin_lowers_the_limit(self):
        # The same module traced at float32 overflows past ~88.7.
        assert self._exp_codes(100.0, np.float32) == ["REPRO101"]

    def test_float32_pin_safe_below_its_limit(self):
        assert self._exp_codes(80.0, np.float32) == []


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_registry_models_are_stable(name):
    """The shipped models must produce zero stability findings."""
    graph = trace_model(name, preset="tiny", grid=64)
    assert check_stability(graph)["findings"] == []
