"""Resume semantics: interrupted runs continue bit-for-bit.

The headline regression test the resilience layer must hold forever:
a run checkpointed at epoch k and resumed produces a loss curve and
final ``state_dict`` *bitwise-equal* to the uninterrupted run — which
is only possible if model, Adam moments, and the batch-shuffling RNG
all restore exactly.
"""

import numpy as np
import pytest

from repro.models import build_model
from repro.resilience import (
    CheckpointMismatch,
    FaultInjected,
    inject_fault,
)
from repro.train import TrainConfig

from .conftest import make_dataset


def _train(cfg, dataset):
    from repro.train import Trainer

    model = build_model("unet", "tiny")
    result = Trainer(cfg).train(model, dataset)
    return model, result


class TestResumeDeterminism:
    def test_resumed_run_is_bitwise_equal_to_uninterrupted(self, tmp_path):
        # Uninterrupted 6-epoch reference run.
        model_ref, result_ref = _train(
            TrainConfig(epochs=6, checkpoint_dir=str(tmp_path / "ref")),
            make_dataset(),
        )
        # Same run stopped after 3 epochs, then resumed to 6.
        ckpt = str(tmp_path / "split")
        _train(TrainConfig(epochs=3, checkpoint_dir=ckpt), make_dataset())
        model_res, result_res = _train(
            TrainConfig(epochs=6, checkpoint_dir=ckpt, resume=True),
            make_dataset(),
        )
        assert result_res.resumed_from_epoch == 3
        assert result_res.losses == result_ref.losses
        ref_state = model_ref.state_dict()
        res_state = model_res.state_dict()
        assert set(ref_state) == set(res_state)
        for key in ref_state:
            assert np.array_equal(ref_state[key], res_state[key]), key

    def test_checkpoint_every_k_still_matches(self, tmp_path):
        model_ref, result_ref = _train(TrainConfig(epochs=5), make_dataset())
        ckpt = str(tmp_path / "k2")
        # Kill during epoch 3 with only even-epoch checkpoints (2 steps
        # per epoch): the resume restarts from epoch 2, replaying 3.
        with pytest.raises(FaultInjected):
            with inject_fault("repro.nn:clip_grad_norm", nth=5):
                _train(
                    TrainConfig(
                        epochs=5, checkpoint_dir=ckpt, checkpoint_every=2
                    ),
                    make_dataset(),
                )
        model_res, result_res = _train(
            TrainConfig(
                epochs=5, checkpoint_dir=ckpt, checkpoint_every=2, resume=True
            ),
            make_dataset(),
        )
        assert result_res.resumed_from_epoch == 2
        assert result_res.losses == result_ref.losses
        for key, arr in model_ref.state_dict().items():
            assert np.array_equal(arr, model_res.state_dict()[key]), key


class TestKillAndResume:
    def test_killed_mid_epoch_then_resumed_matches(self, tmp_path):
        """E2E: a crash mid-run loses at most the unfinished epoch."""
        model_ref, result_ref = _train(TrainConfig(epochs=4), make_dataset())
        ckpt = str(tmp_path / "killed")
        # Kill the run partway through epoch 3 (batch granularity:
        # 8 samples / batch_size 4 = 2 optimizer steps per epoch).
        with pytest.raises(FaultInjected):
            with inject_fault("repro.nn:clip_grad_norm", nth=5):
                _train(
                    TrainConfig(epochs=4, checkpoint_dir=ckpt), make_dataset()
                )
        model_res, result_res = _train(
            TrainConfig(epochs=4, checkpoint_dir=ckpt, resume=True),
            make_dataset(),
        )
        assert result_res.resumed_from_epoch == 2
        assert result_res.losses == result_ref.losses
        for key, arr in model_ref.state_dict().items():
            assert np.array_equal(arr, model_res.state_dict()[key]), key


class TestResumeSafety:
    def test_mismatched_config_is_refused(self, tmp_path):
        ckpt = str(tmp_path)
        _train(TrainConfig(epochs=2, checkpoint_dir=ckpt), make_dataset())
        with pytest.raises(CheckpointMismatch, match="lr"):
            _train(
                TrainConfig(epochs=4, lr=5e-4, checkpoint_dir=ckpt, resume=True),
                make_dataset(),
            )

    def test_mismatched_model_is_refused(self, tmp_path):
        from repro.train import Trainer

        ckpt = str(tmp_path)
        _train(TrainConfig(epochs=1, checkpoint_dir=ckpt), make_dataset())
        other = build_model("ours", "tiny")
        with pytest.raises(CheckpointMismatch, match="model"):
            Trainer(
                TrainConfig(epochs=2, checkpoint_dir=ckpt, resume=True)
            ).train(other, make_dataset())

    def test_resume_without_checkpoint_trains_fresh(self, tmp_path):
        model, result = _train(
            TrainConfig(epochs=2, checkpoint_dir=str(tmp_path), resume=True),
            make_dataset(),
        )
        assert result.resumed_from_epoch == 0
        assert result.epochs == 2

    def test_extending_epoch_budget_is_allowed(self, tmp_path):
        """epochs is volatile: resuming with a bigger budget is the
        whole point of resumable checkpoints."""
        ckpt = str(tmp_path)
        _train(TrainConfig(epochs=2, checkpoint_dir=ckpt), make_dataset())
        _, result = _train(
            TrainConfig(epochs=4, checkpoint_dir=ckpt, resume=True),
            make_dataset(),
        )
        assert result.resumed_from_epoch == 2
        assert result.epochs == 4
