"""Training loop: loss reduction, class weighting, per-design eval."""

import numpy as np
import pytest

from repro.models import build_model
from repro.train import (
    CongestionDataset,
    Sample,
    TrainConfig,
    Trainer,
)


def _synthetic_dataset(rng, n_train=8, n_eval=2, grid=16):
    """Learnable toy task: label = quantized RUDY channel."""
    dataset = CongestionDataset()

    def make():
        features = rng.uniform(0, 1, size=(6, grid, grid))
        labels = np.clip((features[3] * 8).astype(np.int64), 0, 7)
        return Sample(features, labels, "Design_T")

    dataset.train = [make() for _ in range(n_train)]
    dataset.eval = [make() for _ in range(n_eval)]
    return dataset


class TestTrainer:
    def test_loss_decreases(self, rng):
        dataset = _synthetic_dataset(rng)
        model = build_model("unet", "tiny")
        result = Trainer(TrainConfig(epochs=8, batch_size=4, lr=3e-3)).train(
            model, dataset
        )
        assert result.losses[-1] < result.losses[0]
        assert result.epochs == 8
        assert result.seconds > 0

    def test_model_left_in_eval_mode(self, rng):
        dataset = _synthetic_dataset(rng, n_train=4)
        model = build_model("unet", "tiny")
        Trainer(TrainConfig(epochs=1)).train(model, dataset)
        assert not model.training

    def test_learns_synthetic_task_above_chance(self, rng):
        dataset = _synthetic_dataset(rng, n_train=12)
        model = build_model("unet", "tiny")
        Trainer(TrainConfig(epochs=60, batch_size=4, lr=1e-2)).train(
            model, dataset
        )
        metrics = Trainer.evaluate(model, dataset.eval)
        assert metrics["ACC"] > 0.25  # 8-class chance is 0.125
        assert metrics["R2"] > 0.3

    def test_class_weights_normalized(self, rng):
        dataset = _synthetic_dataset(rng, n_train=4)
        trainer = Trainer(TrainConfig())
        weights = trainer._class_weights(dataset, 8)
        assert weights.shape == (8,)
        assert weights.mean() == pytest.approx(1.0)
        assert np.all(weights > 0)

    def test_class_weighting_disabled(self, rng):
        dataset = _synthetic_dataset(rng, n_train=4)
        trainer = Trainer(TrainConfig(class_weighting=False))
        assert trainer._class_weights(dataset, 8) is None

    def test_evaluate_empty_raises(self):
        model = build_model("unet", "tiny")
        with pytest.raises(ValueError, match="empty"):
            Trainer.evaluate(model, [])

    def test_train_empty_dataset_raises(self):
        """An empty dataset must raise, not silently report 0.0 loss."""
        model = build_model("unet", "tiny")
        with pytest.raises(ValueError, match="empty dataset"):
            Trainer(TrainConfig(epochs=1)).train(model, CongestionDataset())

    def test_evaluate_by_design_includes_average(self, rng):
        dataset = _synthetic_dataset(rng, n_train=4, n_eval=2)
        dataset.eval[1].design_name = "Design_U"
        model = build_model("unet", "tiny")
        Trainer(TrainConfig(epochs=1)).train(model, dataset)
        per_design = Trainer.evaluate_by_design(model, dataset)
        assert set(per_design) == {"Design_T", "Design_U", "Average"}
        avg = np.mean(
            [per_design["Design_T"]["ACC"], per_design["Design_U"]["ACC"]]
        )
        assert per_design["Average"]["ACC"] == pytest.approx(avg)
