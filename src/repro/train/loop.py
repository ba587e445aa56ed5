"""Training loop for the congestion prediction models.

The paper trains with Adam at lr = 1e-3 (Section V-A).  Congestion
level maps are dominated by low levels, so the cross-entropy loss uses
inverse-sqrt-frequency class weights — without them every model
collapses onto the majority level and Table I's differences vanish.

Long runs are fault-tolerant (``repro.resilience``): with
``checkpoint_dir`` set the trainer writes atomic, checksummed bundles
(model + Adam moments + RNG + loss curve) every ``checkpoint_every``
epochs and can resume bit-for-bit with ``resume=True``; a divergence
guard rolls NaN/exploding epochs back to the last good snapshot with
the learning rate backed off, bounded by ``divergence_retries`` before
:class:`repro.resilience.TrainingDiverged` is raised.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .. import nn
from ..models.base import CongestionModel
from ..resilience import Checkpoint, CheckpointManager, DivergenceGuard, fingerprint_of
from .dataset import CongestionDataset, Sample
from .metrics import evaluate_predictions
from .schedule import lr_at_epoch

__all__ = ["TrainConfig", "TrainResult", "Trainer"]


@dataclass
class TrainConfig:
    """Optimizer and schedule knobs (paper: Adam, lr 1e-3)."""

    epochs: int = 10
    batch_size: int = 4
    lr: float = 1e-3
    lr_schedule: str = "constant"  # constant | cosine | step
    weight_decay: float = 0.0
    grad_clip: float = 5.0
    class_weighting: bool = True
    max_class_weight: float = 8.0
    seed: int = 0
    log_every: int = 0  # epochs between progress prints; 0 silences
    # Fault tolerance (repro.resilience).  ``checkpoint_dir`` enables
    # atomic last/best bundles every ``checkpoint_every`` epochs;
    # ``resume`` restores the last bundle (refusing a mismatched
    # config fingerprint) and continues bit-for-bit.
    checkpoint_dir: str | None = None
    checkpoint_every: int = 1
    resume: bool = False
    # Divergence guard: an epoch loss that is NaN/Inf or worse than
    # ``divergence_factor`` × the best loss so far rolls back to the
    # last good snapshot with lr × ``lr_backoff``, at most
    # ``divergence_retries`` times (0 disables the guard).
    divergence_factor: float = 10.0
    lr_backoff: float = 0.5
    divergence_retries: int = 3


@dataclass
class TrainResult:
    """Loss curve and timing of one training run."""

    losses: list[float] = field(default_factory=list)
    epochs: int = 0
    seconds: float = 0.0
    # Fault-tolerance bookkeeping: the epoch a resume restarted from
    # (0 for fresh runs), one dict per divergence rollback, and the
    # corrupt checkpoint files moved to ``quarantine/`` before training.
    resumed_from_epoch: int = 0
    recoveries: list[dict] = field(default_factory=list)
    quarantined: list[str] = field(default_factory=list)


class Trainer:
    """Trains a congestion model on a :class:`CongestionDataset`."""

    def __init__(self, config: TrainConfig | None = None) -> None:
        self.config = config or TrainConfig()

    def _class_weights(self, dataset: CongestionDataset, num_classes: int) -> np.ndarray | None:
        if not self.config.class_weighting:
            return None
        counts = dataset.class_frequencies(num_classes)
        total = counts.sum()
        # Inverse-sqrt frequency, clipped; absent classes get the max.
        weights = np.where(
            counts > 0, np.sqrt(total / (num_classes * np.maximum(counts, 1.0))), 1.0
        )
        weights = np.clip(weights, 1.0 / self.config.max_class_weight, self.config.max_class_weight)
        return weights / weights.mean()

    def _fingerprint(self, model: CongestionModel) -> dict:
        """Config + architecture identity a resumed run must match."""
        fingerprint = fingerprint_of(asdict(self.config))
        fingerprint["model"] = model.__class__.__name__
        fingerprint["model_params"] = int(model.num_parameters())
        return fingerprint

    @staticmethod
    def _snapshot(
        model: CongestionModel,
        optimizer: nn.Optimizer,
        rng: np.random.Generator,
        epoch: int,
        losses: list[float],
        fingerprint: dict,
        lr_scale: float,
    ) -> Checkpoint:
        """A resumable copy of the complete training state."""
        return Checkpoint(
            model_state=model.state_dict(),
            optimizer_state=optimizer.state_dict(),
            rng_state=rng.bit_generator.state,
            epoch=epoch,
            losses=list(losses),
            fingerprint=fingerprint,
            extra={"lr_scale": lr_scale},
        )

    @staticmethod
    def _restore(
        checkpoint: Checkpoint,
        model: CongestionModel,
        optimizer: nn.Optimizer,
        rng: np.random.Generator,
    ) -> None:
        model.load_state_dict(checkpoint.model_state)
        optimizer.load_state_dict(checkpoint.optimizer_state)
        rng.bit_generator.state = checkpoint.rng_state

    def train(self, model: CongestionModel, dataset: CongestionDataset) -> TrainResult:
        cfg = self.config
        if not dataset.train:
            raise ValueError(
                "empty dataset: no training samples (dataset.train is empty)"
            )
        rng = np.random.default_rng(cfg.seed)
        loss_fn = nn.CrossEntropyLoss2d(
            model.num_classes,
            weight=self._class_weights(dataset, model.num_classes),
        )
        optimizer = nn.Adam(
            model.parameters(), lr=cfg.lr, weight_decay=cfg.weight_decay
        )
        result = TrainResult()
        start = time.perf_counter()
        model.train()

        # -- fault tolerance wiring (repro.resilience) --------------------
        fingerprint = self._fingerprint(model)
        manager = (
            CheckpointManager(cfg.checkpoint_dir) if cfg.checkpoint_dir else None
        )
        guard = DivergenceGuard(
            factor=cfg.divergence_factor,
            backoff=cfg.lr_backoff,
            max_retries=cfg.divergence_retries,
        )
        guard_on = cfg.divergence_retries > 0
        lr_scale = 1.0
        start_epoch = 0
        if manager is not None and cfg.resume:
            restored = manager.load_last(expected_fingerprint=fingerprint)
            if restored is not None:
                self._restore(restored, model, optimizer, rng)
                result.losses = list(restored.losses)
                start_epoch = restored.epoch
                lr_scale = float(restored.extra.get("lr_scale", 1.0))
                result.resumed_from_epoch = start_epoch
                for loss in result.losses:
                    guard.observe(loss)
        if manager is not None:
            result.quarantined = [str(path) for path in manager.quarantined]

        # Rollback point = complete state at the top of the epoch.
        rollback = (
            self._snapshot(
                model, optimizer, rng, start_epoch, result.losses,
                fingerprint, lr_scale,
            )
            if (guard_on or manager is not None)
            else None
        )
        epoch = start_epoch
        while epoch < cfg.epochs:
            optimizer.lr = lr_at_epoch(
                cfg.lr, epoch, cfg.epochs, schedule=cfg.lr_schedule
            ) * lr_scale
            epoch_loss = 0.0
            batches = 0
            batch_blew_up = False
            for feats, labels in dataset.batches(cfg.batch_size, rng):
                optimizer.zero_grad()
                logits = model(nn.Tensor(feats))
                loss = loss_fn(logits, labels)
                batch_loss = loss.item()
                if guard_on and not np.isfinite(batch_loss):
                    # Don't even backprop a NaN/Inf loss — its
                    # gradients are poison; bail out to the guard.
                    epoch_loss = batch_loss
                    batch_blew_up = True
                    break
                loss.backward()
                nn.clip_grad_norm(model.parameters(), cfg.grad_clip)
                optimizer.step()
                epoch_loss += batch_loss
                batches += 1
            mean_loss = (
                epoch_loss if batch_blew_up else epoch_loss / max(batches, 1)
            )
            if guard_on and (batch_blew_up or guard.is_divergent(mean_loss)):
                # Roll back to the last good snapshot, back the lr off,
                # and retry the epoch; raises TrainingDiverged once the
                # retry budget is spent.
                lr_scale *= guard.request_rollback(
                    epoch, mean_loss, optimizer.lr
                )
                self._restore(rollback, model, optimizer, rng)
                result.losses = list(rollback.losses)
                epoch = rollback.epoch
                result.recoveries = list(guard.events)
                rollback.extra["lr_scale"] = lr_scale
                continue
            guard.observe(mean_loss)
            result.losses.append(mean_loss)
            if cfg.log_every and (epoch + 1) % cfg.log_every == 0:
                print(f"epoch {epoch + 1}/{cfg.epochs} loss={mean_loss:.4f}")
            epoch += 1
            if guard_on or manager is not None:
                rollback = self._snapshot(
                    model, optimizer, rng, epoch, result.losses,
                    fingerprint, lr_scale,
                )
            if manager is not None and (
                epoch % cfg.checkpoint_every == 0 or epoch == cfg.epochs
            ):
                manager.save(
                    rollback, is_best=mean_loss <= min(result.losses)
                )
        result.epochs = len(result.losses)
        result.seconds = time.perf_counter() - start
        model.eval()
        return result

    @staticmethod
    def evaluate(model: CongestionModel, samples: list[Sample]) -> dict[str, float]:
        """Table-I metrics of ``model`` on a sample list."""
        if not samples:
            raise ValueError("cannot evaluate on an empty sample list")
        feats = np.stack([s.features for s in samples])
        labels = np.stack([s.labels for s in samples])
        pred = model.predict_levels(feats)
        return evaluate_predictions(pred, labels)

    @staticmethod
    def evaluate_by_design(
        model: CongestionModel, dataset: CongestionDataset
    ) -> dict[str, dict[str, float]]:
        """Per-design metrics plus the cross-design average (Table I rows)."""
        per_design = {
            name: Trainer.evaluate(model, samples)
            for name, samples in sorted(dataset.eval_by_design().items())
        }
        if per_design:
            keys = next(iter(per_design.values())).keys()
            per_design["Average"] = {
                k: float(np.mean([m[k] for m in per_design.values()]))
                for k in keys
            }
        return per_design
