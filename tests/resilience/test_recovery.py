"""Recovery policies under injected faults: rollback, backoff, fallback."""

import numpy as np
import pytest

from repro.models import build_model
from repro.resilience import (
    DivergenceGuard,
    EstimatorOutputError,
    FaultInjected,
    TrainingDiverged,
    inject_fault,
    validate_level_map,
)
from repro.train import TrainConfig, Trainer

from .conftest import make_dataset


class TestValidateLevelMap:
    def test_accepts_valid_map(self):
        level_map = np.full((8, 8), 3.0)
        assert validate_level_map(level_map) is level_map

    @pytest.mark.parametrize(
        "bad, match",
        [
            (np.zeros((4, 4, 2)), "2-D"),
            (np.zeros((0, 0)), "2-D"),
            (np.array([["a", "b"], ["c", "d"]]), "dtype"),
            (np.full((4, 4), np.nan), "non-finite"),
            (np.full((4, 4), np.inf), "non-finite"),
            (np.full((4, 4), -1.0), "range"),
            (np.full((4, 4), 9.0), "range"),
        ],
    )
    def test_rejects_garbage(self, bad, match):
        with pytest.raises(EstimatorOutputError, match=match):
            validate_level_map(bad)


class TestDivergenceGuard:
    def test_nan_and_inf_always_divergent(self):
        guard = DivergenceGuard()
        assert guard.is_divergent(float("nan"))
        assert guard.is_divergent(float("inf"))

    def test_explosion_relative_to_best(self):
        guard = DivergenceGuard(factor=10.0)
        guard.observe(1.0)
        assert not guard.is_divergent(5.0)
        assert guard.is_divergent(11.0)

    def test_no_baseline_no_explosion_check(self):
        assert not DivergenceGuard(factor=10.0).is_divergent(1e9)

    def test_retry_budget_is_bounded(self):
        guard = DivergenceGuard(max_retries=2, backoff=0.5)
        assert guard.request_rollback(0, float("nan"), 1e-3) == 0.5
        assert guard.request_rollback(0, float("nan"), 5e-4) == 0.5
        with pytest.raises(TrainingDiverged) as err:
            guard.request_rollback(0, float("nan"), 2.5e-4)
        assert err.value.retries == 2
        assert err.value.epoch == 0


class TestTrainingRollback:
    def test_nan_at_step_n_rolls_back_and_finishes(self, tiny_dataset):
        """The acceptance scenario: NaN gradient at step N -> rollback
        with lr backoff, training completes with a finite curve."""
        model = build_model("unet", "tiny")
        with inject_fault(
            "repro.nn.loss:CrossEntropyLoss2d.__call__", nth=4, mode="corrupt"
        ) as fault:
            result = Trainer(TrainConfig(epochs=4, batch_size=4)).train(
                model, tiny_dataset
            )
        assert fault.fired
        assert len(result.recoveries) == 1
        assert result.recoveries[0]["retry"] == 1
        assert result.epochs == 4
        assert all(np.isfinite(loss) for loss in result.losses)

    def test_rollback_restarts_from_last_good_epoch(self, tiny_dataset):
        """The poisoned epoch's loss never enters the curve, and the
        curve matches the fault-free run up to the rollback point."""
        model_ref = build_model("unet", "tiny")
        result_ref = Trainer(TrainConfig(epochs=2, batch_size=4)).train(
            model_ref, make_dataset()
        )
        model = build_model("unet", "tiny")
        with inject_fault(
            "repro.nn.loss:CrossEntropyLoss2d.__call__", nth=3, mode="corrupt"
        ):
            result = Trainer(TrainConfig(epochs=2, batch_size=4)).train(
                model, make_dataset()
            )
        # Epoch 1 (calls 1-2) is untouched in both runs.
        assert result.losses[0] == result_ref.losses[0]
        assert all(np.isfinite(loss) for loss in result.losses)

    def test_persistent_nan_raises_structured_error(self, tiny_dataset):
        model = build_model("unet", "tiny")
        with inject_fault(
            "repro.nn.loss:CrossEntropyLoss2d.__call__",
            nth=1, mode="corrupt", repeat=True,
        ):
            with pytest.raises(TrainingDiverged) as err:
                Trainer(
                    TrainConfig(epochs=4, batch_size=4, divergence_retries=2)
                ).train(model, tiny_dataset)
        assert err.value.retries == 2
        assert not np.isfinite(err.value.loss)
        # Each rollback halves the lr (default backoff 0.5).
        assert err.value.lr == pytest.approx(1e-3 * 0.25)

    def test_guard_disabled_propagates_nan(self, tiny_dataset):
        model = build_model("unet", "tiny")
        with inject_fault(
            "repro.nn.loss:CrossEntropyLoss2d.__call__",
            nth=1, mode="corrupt", repeat=True,
        ):
            result = Trainer(
                TrainConfig(epochs=1, batch_size=4, divergence_retries=0)
            ).train(model, tiny_dataset)
        assert not np.isfinite(result.losses[0])

    def test_empty_dataset_raises(self):
        from repro.train import CongestionDataset

        model = build_model("unet", "tiny")
        with pytest.raises(ValueError, match="empty dataset"):
            Trainer(TrainConfig(epochs=1)).train(model, CongestionDataset())


def _tiny_placer_config():
    from repro.placement import GPConfig, PlacerConfig

    return PlacerConfig(
        gp=GPConfig(bins=16, max_iters=80),
        inflation_rounds=1,
        stage1_iters=60,
        stage2_iters=25,
    )


class TestEstimatorFallback:
    def test_estimator_raising_in_round_1_falls_back_to_rudy(
        self, fresh_tiny_design
    ):
        from repro.placement import place_design

        with inject_fault(
            "repro.placement.estimators:RudyEstimator.__call__", nth=1
        ) as fault:
            outcome = place_design(
                fresh_tiny_design, config=_tiny_placer_config()
            )
        assert fault.fired
        assert outcome.degraded
        assert len(outcome.incidents) == 1
        incident = outcome.incidents[0]
        assert incident.stage == "estimate/round1"
        assert incident.action == "fallback:rudy"
        assert "FaultInjected" in incident.error
        assert outcome.hpwl > 0  # the flow still completed

    def test_garbage_output_falls_back_to_rudy(self, fresh_tiny_design):
        from repro.placement import MacroPlacer

        def nan_estimator(design, x, y):
            grid = design.device.tile_cols
            return np.full((grid, grid), np.nan)

        placer = MacroPlacer(
            fresh_tiny_design, estimator=nan_estimator,
            config=_tiny_placer_config(),
        )
        outcome = placer.run()
        assert outcome.degraded
        assert "non-finite" in outcome.incidents[0].error
        assert outcome.hpwl > 0

    def test_clean_run_has_no_incidents(self, fresh_tiny_design):
        from repro.placement import place_design

        outcome = place_design(fresh_tiny_design, config=_tiny_placer_config())
        assert outcome.incidents == []
        assert not outcome.degraded

    def test_fallback_disabled_propagates(self, fresh_tiny_design):
        from dataclasses import replace

        from repro.placement import place_design

        config = replace(_tiny_placer_config(), estimator_fallback=False)
        with inject_fault(
            "repro.placement.estimators:RudyEstimator.__call__", nth=1
        ):
            with pytest.raises(FaultInjected):
                place_design(fresh_tiny_design, config=config)
