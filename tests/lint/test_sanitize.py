"""Runtime sanitizer tests: anomaly mode, mutation, leaks, unused grads.

The promise under test is precision: each detector must name the
*offending op* (not just "something went wrong"), and the whole
machinery must cost nothing when it is switched off.
"""

import numpy as np
import pytest

from repro import nn
from repro.lint import (
    AnomalyError,
    GraphLeakError,
    InplaceMutationError,
    NonFiniteGradientError,
    detect_anomaly,
    unused_parameter_report,
)
from repro.models import MODEL_NAMES, build_model
from repro.nn.tensor import Tensor, _get_tape_hook
from repro.train import CongestionDataset, Sample, TrainConfig, Trainer


class TestNaNOrigin:
    def test_first_offending_closure_named(self):
        # d(log x)/dx = 1/x blows up at x=0; the report must blame
        # Tensor.log — the first closure to produce the non-finite
        # gradient — not the downstream sum that merely propagated it.
        with np.errstate(divide="ignore"):
            with pytest.raises(NonFiniteGradientError, match=r"Tensor\.log"):
                with detect_anomaly():
                    x = Tensor(np.array([0.0, 1.0]), requires_grad=True)
                    x.log().sum().backward()

    def test_call_site_in_message(self):
        with np.errstate(divide="ignore"):
            with pytest.raises(NonFiniteGradientError, match="test_sanitize.py"):
                with detect_anomaly():
                    x = Tensor(np.array([0.0]), requires_grad=True)
                    x.log().sum().backward()

    def test_introducing_closure_blamed_not_propagators(self):
        # x*x has d/dx = 2x, so a NaN input surfaces as a NaN gradient
        # the moment the mul closure runs; the blame must land there and
        # never on the sum closure that merely passed finite ones along.
        with pytest.raises(NonFiniteGradientError) as excinfo:
            with detect_anomaly():
                x = Tensor(np.array([np.nan, 1.0]), requires_grad=True)
                (x * x).sum().backward()
        assert "Tensor.__mul__" in str(excinfo.value)
        assert "Tensor.sum" not in str(excinfo.value)

    def test_nan_data_with_constant_grad_passes(self):
        # d(2x)/dx = 2 regardless of x: NaN *values* with finite
        # *gradients* is not a gradient anomaly.
        with detect_anomaly():
            x = Tensor(np.array([np.nan, 1.0]), requires_grad=True)
            (x * 2.0).sum().backward()
        np.testing.assert_allclose(x.grad, [2.0, 2.0])

    def test_clean_backward_passes(self):
        with detect_anomaly():
            x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
            (x * x).sum().backward()
        np.testing.assert_allclose(x.grad, [2.0, 4.0])

    def test_forward_check_optional(self):
        with np.errstate(invalid="ignore"):
            with pytest.raises(NonFiniteGradientError, match="forward"):
                with detect_anomaly(check_forward=True):
                    x = Tensor(np.array([-1.0]), requires_grad=True)
                    x.sqrt()


class TestInplaceMutation:
    def test_mutation_between_forward_and_backward(self):
        with pytest.raises(InplaceMutationError, match=r"Tensor\.__mul__"):
            with detect_anomaly():
                x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
                y = x * 3.0
                x.data[0] = 99.0
                y.sum().backward()

    def test_untouched_operands_pass(self):
        with detect_anomaly():
            x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
            y = x * 3.0
            y.sum().backward()

    def test_large_tensor_sampled_fingerprint(self):
        # > 2**20 elements takes the strided-sample fingerprint path;
        # a mutation inside the sampled stride must still be caught.
        big = np.ones((1 << 21,), dtype=np.float32)
        with pytest.raises(InplaceMutationError):
            with detect_anomaly():
                x = Tensor(big, requires_grad=True)
                y = x * 2.0
                x.data[:] = 7.0
                y.sum().backward()


class TestGraphLeaks:
    def test_unbackwarded_graph_reported(self):
        with detect_anomaly() as det:
            x = Tensor(np.array([1.0]), requires_grad=True)
            _ = x * 2.0  # tape recorded, never freed by backward()
        assert len(det.leaked_ops()) == 1
        assert "Tensor.__mul__" in det.leaked_ops()[0]

    def test_backwarded_graph_clean(self):
        with detect_anomaly() as det:
            x = Tensor(np.array([1.0]), requires_grad=True)
            (x * 2.0).sum().backward()
        assert det.leaked_ops() == []

    def test_raise_on_leak(self):
        with pytest.raises(GraphLeakError):
            with detect_anomaly(raise_on_leak=True):
                x = Tensor(np.array([1.0]), requires_grad=True)
                _ = x * 2.0

    def test_no_grad_records_nothing(self):
        # The attention_map regression class: diagnostics run under
        # no_grad must not leak graph.
        with detect_anomaly() as det:
            with nn.no_grad():
                x = Tensor(np.array([1.0]), requires_grad=True)
                _ = x * 2.0
        assert det.leaked_ops() == []


class TestZeroCostOff:
    def test_hook_cleared_after_context(self):
        assert _get_tape_hook() is None
        with detect_anomaly():
            assert _get_tape_hook() is not None
        assert _get_tape_hook() is None

    def test_hook_cleared_on_error(self):
        with pytest.raises(InplaceMutationError):
            with detect_anomaly():
                x = Tensor(np.array([1.0]), requires_grad=True)
                y = x * 3.0
                x.data[0] = 0.0
                y.sum().backward()
        assert _get_tape_hook() is None

    def test_nesting_rejected(self):
        with detect_anomaly():
            with pytest.raises(AnomalyError):
                with detect_anomaly():
                    pass


class TestUnusedParameters:
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_reports_parameters_without_grad(self, name):
        # Every registry parameter must reach the loss.
        model = build_model(name, "tiny", grid=16)
        x = Tensor(np.zeros((1, 6, 16, 16), dtype=np.float32))
        model.train()
        model(x).sum().backward()
        assert unused_parameter_report(model) == []

    def test_names_the_orphan(self):
        model = build_model("unet", "tiny")
        model.train()
        x = Tensor(np.zeros((1, 6, 16, 16), dtype=np.float32))
        model(x).sum().backward()
        # An extra parameter that forward never touches must be named.
        model.orphan = nn.Linear(3, 3)
        report = unused_parameter_report(model)
        assert any("orphan" in name for name in report)


class TestTrainerIntegration:
    def _dataset(self, rng, grid=16):
        dataset = CongestionDataset()

        def make():
            features = rng.uniform(0, 1, size=(6, grid, grid))
            labels = np.clip((features[3] * 8).astype(np.int64), 0, 7)
            return Sample(features, labels, "Design_T")

        dataset.train = [make() for _ in range(4)]
        dataset.eval = [make() for _ in range(1)]
        return dataset

    def test_sanitized_training_runs_clean(self):
        rng = np.random.default_rng(0)
        model = build_model("unet", "tiny")
        result = Trainer(TrainConfig(epochs=1, batch_size=2, sanitize=True)).train(
            model, self._dataset(rng)
        )
        assert result.unused_parameters == []
        assert result.leaked_ops == []
        assert _get_tape_hook() is None

    def test_sanitize_off_by_default(self):
        assert TrainConfig().sanitize is False
