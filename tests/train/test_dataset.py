"""Dataset generation and rotation augmentation."""

import numpy as np
import pytest

from repro.features import FEATURE_NAMES
from repro.netlist import MLCAD2023_SPECS
from repro.resilience import inject_fault
from repro.train import (
    CongestionDataset,
    DatasetConfig,
    Sample,
    generate_samples,
    rotate_sample,
)

_H = FEATURE_NAMES.index("h_net_density")
_V = FEATURE_NAMES.index("v_net_density")


def _sample(rng, grid=8):
    return Sample(
        features=rng.normal(size=(6, grid, grid)),
        labels=rng.integers(0, 8, size=(grid, grid)),
        design_name="Design_X",
    )


class TestRotation:
    def test_zero_rotation_identity(self, rng):
        s = _sample(rng)
        assert rotate_sample(s, 0) is s
        assert rotate_sample(s, 4) is s

    def test_labels_rotate_with_features(self, rng):
        s = _sample(rng)
        r = rotate_sample(s, 1)
        np.testing.assert_allclose(r.labels, np.rot90(s.labels, 1))
        np.testing.assert_allclose(
            r.features[0], np.rot90(s.features[0], 1, axes=(0, 1))
        )

    def test_90_swaps_h_and_v_channels(self, rng):
        s = _sample(rng)
        r = rotate_sample(s, 1)
        np.testing.assert_allclose(r.features[_H], np.rot90(s.features[_V]))
        np.testing.assert_allclose(r.features[_V], np.rot90(s.features[_H]))

    def test_180_keeps_channels(self, rng):
        s = _sample(rng)
        r = rotate_sample(s, 2)
        np.testing.assert_allclose(r.features[_H], np.rot90(s.features[_H], 2))

    def test_four_rotations_identity(self, rng):
        s = _sample(rng)
        r = s
        for _ in range(4):
            r = rotate_sample(r, 1)
        np.testing.assert_allclose(r.features, s.features)
        np.testing.assert_allclose(r.labels, s.labels)

    def test_rotation_recorded(self, rng):
        assert rotate_sample(_sample(rng), 3).rotation == 3


class TestGeneration:
    @pytest.fixture(scope="class")
    def samples(self):
        config = DatasetConfig(
            grid=16, placements_per_design=2, design_scale=1 / 256,
            gp_iters=80, stage2_iters=20, seed=7,
        )
        return generate_samples(MLCAD2023_SPECS["Design_197"], config)

    def test_count_and_shapes(self, samples):
        assert len(samples) == 2
        for s in samples:
            assert s.features.shape == (6, 16, 16)
            assert s.labels.shape == (16, 16)
            assert s.labels.dtype == np.int64

    def test_labels_in_level_range(self, samples):
        for s in samples:
            assert s.labels.min() >= 0 and s.labels.max() <= 7

    def test_placements_differ(self, samples):
        assert not np.allclose(samples[0].features, samples[1].features)

    def test_design_name_recorded(self, samples):
        assert all(s.design_name == "Design_197" for s in samples)


class TestCongestionDataset:
    @pytest.fixture(scope="class")
    def dataset(self):
        config = DatasetConfig(
            grid=16, placements_per_design=3, design_scale=1 / 256,
            gp_iters=80, stage2_iters=20, seed=3, eval_fraction=0.34,
        )
        specs = [MLCAD2023_SPECS[n] for n in ("Design_197", "Design_120")]
        return CongestionDataset.build(specs, config)

    def test_split_sizes(self, dataset):
        # Per design: 3 placements -> 1 eval + 2 train x 4 rotations.
        assert len(dataset.eval) == 2
        assert len(dataset.train) == 2 * 2 * 4

    def test_failed_design_reports_error_type_and_message(self):
        config = DatasetConfig(grid=16, placements_per_design=1, design_scale=1 / 256)
        specs = [MLCAD2023_SPECS["Design_120"]]
        with inject_fault(
            "repro.train.dataset:generate_samples", repeat=True, message="boom"
        ) as fault:
            with pytest.raises(RuntimeError, match=r"Design_120 \(FaultInjected: boom\)"):
                CongestionDataset.build(specs, config)
        assert fault.calls == 2  # the job is retried once

    def test_augmentation_present(self, dataset):
        rotations = {s.rotation for s in dataset.train}
        assert rotations == {0, 1, 2, 3}

    def test_eval_not_augmented(self, dataset):
        assert all(s.rotation == 0 for s in dataset.eval)

    def test_class_frequencies(self, dataset):
        freq = dataset.class_frequencies()
        assert freq.shape == (8,)
        assert freq.sum() == len(dataset.train) * 16 * 16

    def test_batches_cover_everything(self, dataset, rng):
        seen = 0
        for feats, labels in dataset.batches(5, rng):
            assert feats.shape[0] == labels.shape[0] <= 5
            assert feats.shape[1:] == (6, 16, 16)
            seen += feats.shape[0]
        assert seen == len(dataset.train)

    def test_eval_by_design(self, dataset):
        grouped = dataset.eval_by_design()
        assert set(grouped) == {"Design_197", "Design_120"}


class TestSplitByDesign:
    def test_partition(self, rng):
        from repro.train import CongestionDataset

        ds = CongestionDataset()
        for name in ("A", "B", "C"):
            for k in range(3):
                s = _sample_named(rng, name)
                ds.train.append(s if k else rotate_sample(s, 1))
            ds.eval.append(_sample_named(rng, name))
        seen, unseen = ds.split_by_design({"C"})
        assert all(s.design_name != "C" for s in seen.train + seen.eval)
        assert all(s.design_name == "C" for s in unseen.eval)
        assert not unseen.train

    def test_unseen_excludes_rotations(self, rng):
        from repro.train import CongestionDataset

        ds = CongestionDataset()
        base = _sample_named(rng, "X")
        ds.train = [base, rotate_sample(base, 2)]
        ds.eval = []
        _, unseen = ds.split_by_design({"X"})
        assert len(unseen.eval) == 1
        assert unseen.eval[0].rotation == 0


def _sample_named(rng, name, grid=8):
    return Sample(
        features=rng.normal(size=(6, grid, grid)),
        labels=rng.integers(0, 8, size=(grid, grid)),
        design_name=name,
    )
