"""Checkpoint bundles: atomic, checksummed, fingerprinted, rolling."""

import numpy as np
import pytest

from repro.models import build_model
from repro.nn import SGD, Adam
from repro.resilience import (
    Checkpoint,
    CheckpointCorrupt,
    CheckpointManager,
    CheckpointMismatch,
    fingerprint_of,
    load_checkpoint,
    save_checkpoint,
)


def _bundle(seed=0, epoch=3) -> Checkpoint:
    rng = np.random.default_rng(seed)
    model = build_model("unet", "tiny")
    optimizer = Adam(model.parameters(), lr=1e-3)
    # Take a real optimizer step so the moments are non-trivial.
    for p in model.parameters():
        p.grad = rng.normal(size=p.data.shape)
    optimizer.step()
    return Checkpoint(
        model_state=model.state_dict(),
        optimizer_state=optimizer.state_dict(),
        rng_state=rng.bit_generator.state,
        epoch=epoch,
        losses=[1.5, 1.2, 1.0][:epoch],
        fingerprint={"lr": 1e-3, "batch_size": 4},
        extra={"lr_scale": 0.5},
    )


class TestRoundTrip:
    def test_everything_survives(self, tmp_path):
        bundle = _bundle()
        path = save_checkpoint(bundle, tmp_path / "ck.npz")
        restored = load_checkpoint(path)
        assert restored.epoch == bundle.epoch
        assert restored.losses == bundle.losses
        assert restored.rng_state == bundle.rng_state
        assert restored.fingerprint == bundle.fingerprint
        assert restored.extra == bundle.extra
        for key, arr in bundle.model_state.items():
            assert np.array_equal(restored.model_state[key], arr)
        assert restored.optimizer_state["step"] == 1
        for slot in ("m", "v"):
            for a, b in zip(
                restored.optimizer_state[slot], bundle.optimizer_state[slot]
            ):
                assert np.array_equal(a, b)

    def test_rng_state_restores_stream(self, tmp_path):
        rng = np.random.default_rng(9)
        rng.normal(size=10)
        bundle = _bundle()
        bundle.rng_state = rng.bit_generator.state
        expected = np.random.default_rng(0)
        expected.bit_generator.state = rng.bit_generator.state
        path = save_checkpoint(bundle, tmp_path / "ck.npz")
        restored = load_checkpoint(path)
        fresh = np.random.default_rng(0)
        fresh.bit_generator.state = restored.rng_state
        assert np.array_equal(fresh.normal(size=5), expected.normal(size=5))


class TestAtomicity:
    def test_no_temp_file_left_behind(self, tmp_path):
        save_checkpoint(_bundle(), tmp_path / "ck.npz")
        assert [p.name for p in tmp_path.iterdir()] == ["ck.npz"]

    def test_overwrite_is_replace_not_append(self, tmp_path):
        path = tmp_path / "ck.npz"
        save_checkpoint(_bundle(epoch=1), path)
        save_checkpoint(_bundle(epoch=3), path)
        assert load_checkpoint(path).epoch == 3


class TestIntegrity:
    def test_bit_flip_is_detected(self, tmp_path):
        path = save_checkpoint(_bundle(), tmp_path / "ck.npz")
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointCorrupt):
            load_checkpoint(path)

    def test_truncation_is_detected(self, tmp_path):
        path = save_checkpoint(_bundle(), tmp_path / "ck.npz")
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(CheckpointCorrupt):
            load_checkpoint(path)

    def test_garbage_file_is_detected(self, tmp_path):
        path = tmp_path / "ck.npz"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(CheckpointCorrupt):
            load_checkpoint(path)


class TestFingerprint:
    def test_mismatched_resume_is_refused(self, tmp_path):
        path = save_checkpoint(_bundle(), tmp_path / "ck.npz")
        with pytest.raises(CheckpointMismatch, match="lr"):
            load_checkpoint(path, expected_fingerprint={"lr": 5e-4, "batch_size": 4})

    def test_matching_resume_is_accepted(self, tmp_path):
        path = save_checkpoint(_bundle(), tmp_path / "ck.npz")
        load_checkpoint(path, expected_fingerprint={"lr": 1e-3, "batch_size": 4})

    def test_fingerprint_of_drops_volatile_knobs(self):
        fp = fingerprint_of(
            {"lr": 1e-3, "epochs": 50, "resume": True, "checkpoint_dir": "/x",
             "checkpoint_every": 2, "log_every": 1}
        )
        assert fp == {"lr": 1e-3}


class TestManager:
    def test_rolling_last_and_best(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        assert manager.load_last() is None
        manager.save(_bundle(epoch=1), is_best=True)
        manager.save(_bundle(epoch=2), is_best=False)
        manager.save(_bundle(epoch=3), is_best=True)
        assert manager.load_last().epoch == 3
        assert manager.load_best().epoch == 3
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "best.ckpt.npz", "last.ckpt.npz",
        ]

    def test_best_lags_last(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save(_bundle(epoch=1), is_best=True)
        manager.save(_bundle(epoch=2), is_best=False)
        assert manager.load_last().epoch == 2
        assert manager.load_best().epoch == 1


class TestStartupScan:
    """Crash debris is quarantined at construction, never trusted."""

    def test_clean_directory_stays_untouched(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save(_bundle(epoch=1), is_best=True)
        manager = CheckpointManager(tmp_path)  # rescan
        assert manager.quarantined == []
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "best.ckpt.npz", "last.ckpt.npz",
        ]

    def test_leftover_tmp_file_is_quarantined(self, tmp_path):
        (tmp_path / "last.ckpt.npz.tmp").write_bytes(b"torn mid-write")
        manager = CheckpointManager(tmp_path)
        assert [p.name for p in manager.quarantined] == ["last.ckpt.npz.tmp"]
        assert not (tmp_path / "last.ckpt.npz.tmp").exists()
        assert (tmp_path / "quarantine" / "last.ckpt.npz.tmp").exists()

    def test_corrupt_last_is_quarantined_on_scan(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save(_bundle(epoch=1), is_best=True)
        (tmp_path / "last.ckpt.npz").write_bytes(b"garbage")
        manager = CheckpointManager(tmp_path)
        assert [p.name for p in manager.quarantined] == ["last.ckpt.npz"]
        # Resume falls back to the surviving best bundle.
        assert manager.load_last().epoch == 1

    def test_load_last_falls_back_when_corruption_postdates_scan(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save(_bundle(epoch=1), is_best=True)
        manager.save(_bundle(epoch=2), is_best=False)
        (tmp_path / "last.ckpt.npz").write_bytes(b"garbage")
        restored = manager.load_last()
        assert restored is not None and restored.epoch == 1
        assert [p.name for p in manager.quarantined] == ["last.ckpt.npz"]

    def test_all_bundles_corrupt_returns_none(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save(_bundle(epoch=1), is_best=True)
        (tmp_path / "last.ckpt.npz").write_bytes(b"garbage")
        (tmp_path / "best.ckpt.npz").write_bytes(b"also garbage")
        manager = CheckpointManager(tmp_path)
        assert manager.load_last() is None
        assert len(manager.quarantined) == 2

    def test_quarantine_names_never_collide(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        for _ in range(2):
            (tmp_path / "x.tmp").write_bytes(b"debris")
            manager._quarantine(tmp_path / "x.tmp")
        names = sorted(p.name for p in (tmp_path / "quarantine").iterdir())
        assert names == ["x.tmp", "x.tmp.1"]

    def test_fingerprint_mismatch_still_raises(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save(_bundle(epoch=1))
        with pytest.raises(CheckpointMismatch):
            manager.load_last(expected_fingerprint={"lr": 9.0, "batch_size": 4})

    def test_scan_can_be_disabled(self, tmp_path):
        (tmp_path / "last.ckpt.npz.tmp").write_bytes(b"torn")
        manager = CheckpointManager(tmp_path, scan=False)
        assert manager.quarantined == []
        assert (tmp_path / "last.ckpt.npz.tmp").exists()


class TestOptimizerStateDict:
    def test_adam_round_trip_continues_identically(self):
        rng = np.random.default_rng(1)

        def fresh():
            model = build_model("unet", "tiny")
            return model, Adam(model.parameters(), lr=1e-3)

        model_a, opt_a = fresh()
        grads = [rng.normal(size=p.data.shape) for p in model_a.parameters()]
        for p, g in zip(model_a.parameters(), grads):
            p.grad = g
        opt_a.step()

        model_b, opt_b = fresh()
        model_b.load_state_dict(model_a.state_dict())
        opt_b.load_state_dict(opt_a.state_dict())
        # One more identical step from restored state must match exactly.
        for opt, model in ((opt_a, model_a), (opt_b, model_b)):
            for p, g in zip(model.parameters(), grads):
                p.grad = g.copy()
            opt.step()
        for pa, pb in zip(model_a.parameters(), model_b.parameters()):
            assert np.array_equal(pa.data, pb.data)

    def test_sgd_velocity_round_trip(self):
        from repro.nn.module import Parameter

        pa, pb = Parameter(np.zeros(3)), Parameter(np.zeros(3))
        opt_a = SGD([pa], lr=0.1, momentum=0.9)
        pa.grad = np.ones(3)
        opt_a.step()
        opt_b = SGD([pb], lr=0.1, momentum=0.9)
        opt_b.load_state_dict(opt_a.state_dict())
        pb.data[...] = pa.data
        pa.grad = np.ones(3)
        pb.grad = np.ones(3)
        opt_a.step()
        opt_b.step()
        assert np.array_equal(pa.data, pb.data)

    def test_shape_mismatch_rejected(self):
        from repro.nn.module import Parameter

        opt = Adam([Parameter(np.zeros(3))], lr=1e-3)
        state = opt.state_dict()
        state["m"] = [np.zeros(4)]
        with pytest.raises(ValueError, match="shape mismatch"):
            opt.load_state_dict(state)

    def test_length_mismatch_rejected(self):
        from repro.nn.module import Parameter

        opt = Adam([Parameter(np.zeros(3))], lr=1e-3)
        state = opt.state_dict()
        state["v"] = []
        with pytest.raises(ValueError, match="arrays for"):
            opt.load_state_dict(state)
