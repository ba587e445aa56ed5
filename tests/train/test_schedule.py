"""Learning-rate schedules."""

import pytest

from repro.models import build_model
from repro.train import SCHEDULES, TrainConfig, Trainer, lr_at_epoch

from .test_loop import _synthetic_dataset


class TestLrAtEpoch:
    def test_constant(self):
        assert lr_at_epoch(1e-3, 0, 10) == 1e-3
        assert lr_at_epoch(1e-3, 9, 10) == 1e-3

    def test_cosine_endpoints(self):
        start = lr_at_epoch(1.0, 0, 100, "cosine")
        end = lr_at_epoch(1.0, 99, 100, "cosine")
        assert start == pytest.approx(1.0)
        assert end == pytest.approx(0.05, abs=1e-9)

    def test_cosine_monotone_decreasing(self):
        lrs = [lr_at_epoch(1.0, e, 50, "cosine") for e in range(50)]
        assert all(b <= a + 1e-12 for a, b in zip(lrs, lrs[1:]))

    def test_step_halves(self):
        assert lr_at_epoch(1.0, 0, 100, "step", step_every=20) == 1.0
        assert lr_at_epoch(1.0, 20, 100, "step", step_every=20) == 0.5
        assert lr_at_epoch(1.0, 40, 100, "step", step_every=20) == 0.25

    def test_unknown_schedule(self):
        with pytest.raises(ValueError, match="unknown schedule"):
            lr_at_epoch(1.0, 0, 10, "linear")

    def test_invalid_epoch(self):
        with pytest.raises(ValueError):
            lr_at_epoch(1.0, -1, 10)
        with pytest.raises(ValueError):
            lr_at_epoch(1.0, 0, 0)

    def test_all_schedules_listed(self):
        for schedule in SCHEDULES:
            assert lr_at_epoch(1.0, 3, 10, schedule) > 0


class TestTrainerIntegration:
    def test_cosine_schedule_trains(self, rng):
        dataset = _synthetic_dataset(rng, n_train=4)
        model = build_model("unet", "tiny")
        result = Trainer(
            TrainConfig(epochs=4, batch_size=2, lr_schedule="cosine")
        ).train(model, dataset)
        assert len(result.losses) == 4
