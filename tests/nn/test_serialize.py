"""Checkpoint serialization: suffix normalization and round-trips."""

import numpy as np
import pytest

from repro.models import build_model
from repro.nn import load_module, load_state, save_module, save_state


@pytest.fixture
def state():
    rng = np.random.default_rng(0)
    return {"w": rng.normal(size=(3, 4)), "b": rng.normal(size=4)}


class TestSuffixNormalization:
    def test_round_trip_with_npz_suffix(self, tmp_path, state):
        path = save_state(state, tmp_path / "ckpt.npz")
        assert path == tmp_path / "ckpt.npz"
        restored = load_state(tmp_path / "ckpt.npz")
        assert np.array_equal(restored["w"], state["w"])

    def test_round_trip_without_suffix(self, tmp_path, state):
        """numpy appends .npz when the suffix is missing; load_state on
        the same spelling used to fail with FileNotFoundError."""
        path = save_state(state, tmp_path / "ckpt")
        assert path == tmp_path / "ckpt.npz"
        assert path.exists()
        restored = load_state(tmp_path / "ckpt")  # same suffix-less string
        assert np.array_equal(restored["b"], state["b"])

    def test_foreign_suffix_gets_npz_appended(self, tmp_path, state):
        path = save_state(state, tmp_path / "ckpt.model")
        assert path.name == "ckpt.model.npz"
        restored = load_state(tmp_path / "ckpt.model")
        assert set(restored) == {"w", "b"}

    def test_string_paths_work(self, tmp_path, state):
        save_state(state, str(tmp_path / "ckpt"))
        restored = load_state(str(tmp_path / "ckpt"))
        assert np.array_equal(restored["w"], state["w"])


class TestAtomicity:
    """save_state follows the tmp + fsync + rename idiom, so a crash never
    leaves a torn file at the final name."""

    def test_no_temp_file_left_behind(self, tmp_path, state):
        save_state(state, tmp_path / "ckpt.npz")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.npz"]

    def test_overwrite_is_atomic_replace(self, tmp_path, state):
        # Saving over an existing checkpoint replaces it wholesale; a
        # reader never sees a mix of old and new members.
        save_state(state, tmp_path / "ckpt.npz")
        newer = {"w": state["w"] * 2.0}
        save_state(newer, tmp_path / "ckpt.npz")
        restored = load_state(tmp_path / "ckpt.npz")
        assert set(restored) == {"w"}
        assert np.array_equal(restored["w"], state["w"] * 2.0)

    def test_crash_before_rename_preserves_previous(self, tmp_path, state,
                                                    monkeypatch):
        # Kill the process (simulated) after the tmp write but before
        # os.replace: the previous complete checkpoint must survive and
        # no torn archive may sit at the final name.
        import os as _os

        save_state(state, tmp_path / "ckpt.npz")

        def boom(src, dst):
            raise RuntimeError("crash before rename")

        monkeypatch.setattr(_os, "replace", boom)
        with pytest.raises(RuntimeError):
            save_state({"w": np.zeros((2, 2))}, tmp_path / "ckpt.npz")
        monkeypatch.undo()
        restored = load_state(tmp_path / "ckpt.npz")
        assert np.array_equal(restored["w"], state["w"])


class TestModuleRoundTrip:
    def test_save_module_returns_actual_path(self, tmp_path):
        model = build_model("unet", "tiny")
        path = save_module(model, tmp_path / "model")
        assert path.suffix == ".npz"
        other = build_model("unet", "tiny")
        for p in other.parameters():
            p.data[...] = 0.0
        load_module(other, tmp_path / "model")
        for a, b in zip(model.parameters(), other.parameters()):
            assert np.array_equal(a.data, b.data)
