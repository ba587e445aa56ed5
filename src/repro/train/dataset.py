"""Dataset generation for congestion prediction (Section V-A).

The paper builds its training set by running the macro placement flow
with varying parameters — 30 placements per benchmark — labelling each
placement with the Vivado initial router's congestion levels, and
augmenting by 90°/180°/270° rotations (30 × 4 = 120 sets per design,
1200 total).  This module reproduces that pipeline on our substrates:

* placements come from :func:`repro.placement.place_design` with varied
  seeds, inflation rounds and estimator gains;
* labels come from the global router's congestion level map;
* rotations transform both features and labels — with the subtlety that
  a 90° rotation swaps the horizontal and vertical net density channels.

``placements_per_design`` is scale-controlled (paper: 30; benches use
fewer) — see DESIGN.md §2 on scaling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..features import FEATURE_NAMES, FeatureExtractor, resize_map
from ..netlist import Design, DesignSpec, generate_design
from ..placement import PlacerConfig, RudyEstimator, place_design
from ..routing import congestion_report, route_design

__all__ = ["Sample", "DatasetConfig", "generate_samples", "CongestionDataset", "rotate_sample"]

_H_IDX = FEATURE_NAMES.index("h_net_density")
_V_IDX = FEATURE_NAMES.index("v_net_density")


@dataclass
class Sample:
    """One training example: feature stack + integer congestion levels."""

    features: np.ndarray  # (6, G, G) float
    labels: np.ndarray  # (G, G) int levels 0-7
    design_name: str
    rotation: int = 0  # quarter-turns applied


def rotate_sample(sample: Sample, quarter_turns: int) -> Sample:
    """Rotate a sample by ``quarter_turns`` × 90°.

    Feature maps are indexed ``[x, y]``; a 90° rotation maps horizontal
    routing demand onto vertical tracks and vice versa, so the H/V net
    density channels are swapped for odd quarter-turns.
    """
    k = quarter_turns % 4
    if k == 0:
        return sample
    features = np.rot90(sample.features, k=k, axes=(1, 2)).copy()
    labels = np.rot90(sample.labels, k=k).copy()
    if k % 2 == 1:
        features[[_H_IDX, _V_IDX]] = features[[_V_IDX, _H_IDX]]
    return Sample(features, labels, sample.design_name, rotation=k)


@dataclass
class DatasetConfig:
    """Dataset-generation knobs."""

    grid: int = 64
    placements_per_design: int = 6
    augment: bool = True
    eval_fraction: float = 0.25
    seed: int = 0
    design_scale: float = 1.0 / 64.0
    gp_iters: int = 400
    stage2_iters: int = 120


def _varied_placer_config(
    rng: np.random.Generator, cfg: DatasetConfig, gp_seed: int | None = None
) -> PlacerConfig:
    """A placement configuration drawn from the paper's parameter sweep."""
    from ..placement.sweep import sample_placer_config

    return sample_placer_config(
        rng, gp_iters=cfg.gp_iters, stage2_iters=cfg.stage2_iters, gp_seed=gp_seed
    )


def generate_samples(
    design_or_spec: Design | DesignSpec,
    config: DatasetConfig,
    seed_seq: np.random.SeedSequence | None = None,
) -> list[Sample]:
    """Run the placement sweep for one design and label every placement.

    A fresh design instance is generated per placement (placement state
    is mutated by the flow), each placed with varied parameters, routed,
    and converted to a (features, levels) pair on the ``grid`` raster.

    With ``seed_seq`` every placement draws from its own spawned child
    stream — independent of how many placements ran before it — which
    is what lets :meth:`CongestionDataset.build` generate designs in
    parallel workers and still reproduce the serial dataset bitwise.
    Without it, one ``default_rng(config.seed)`` generator is threaded
    through the whole sweep.
    """
    if seed_seq is None:
        rng = np.random.default_rng(config.seed)
        draws = [(rng, None) for _ in range(config.placements_per_design)]
    else:
        draws = []
        for child in seed_seq.spawn(config.placements_per_design):
            cfg_seq, gp_seq = child.spawn(2)
            gp_seed = int(gp_seq.generate_state(1)[0] % 1_000_000)
            draws.append((np.random.default_rng(cfg_seq), gp_seed))
    extractor = FeatureExtractor(grid=config.grid)
    samples: list[Sample] = []
    for draw_rng, gp_seed in draws:
        if isinstance(design_or_spec, DesignSpec):
            design = generate_design(design_or_spec, scale=config.design_scale)
        else:
            design = generate_design(
                _spec_of(design_or_spec), scale=config.design_scale,
                device=design_or_spec.device,
            )
        placer_cfg = _varied_placer_config(draw_rng, config, gp_seed=gp_seed)
        estimator = RudyEstimator(
            grid=design.device.tile_cols, gain=float(draw_rng.uniform(0.7, 1.3))
        )
        place_design(design, estimator=estimator, config=placer_cfg)

        features = extractor(design)
        routing = route_design(design)
        report = congestion_report(routing)
        labels = resize_map(
            report.level_map.astype(np.float32), config.grid, config.grid
        )
        labels = np.clip(np.rint(labels), 0, 7).astype(np.int64)
        samples.append(Sample(features, labels, design.name))
    return samples


def _spec_of(design: Design) -> DesignSpec:
    from ..netlist.generator import MLCAD2023_SPECS

    if design.name in MLCAD2023_SPECS:
        return MLCAD2023_SPECS[design.name]
    raise ValueError(
        f"cannot regenerate unknown design {design.name!r}; pass a DesignSpec"
    )


@dataclass
class CongestionDataset:
    """Per-design train/eval splits with optional rotation augmentation."""

    train: list[Sample] = field(default_factory=list)
    eval: list[Sample] = field(default_factory=list)

    @classmethod
    def build(
        cls,
        specs: list[DesignSpec],
        config: DatasetConfig,
        parallel: int = 0,
    ) -> "CongestionDataset":
        """Generate the full multi-design dataset (paper Section V-A).

        Each design is one :mod:`repro.orchestrate` job drawing from its
        own ``SeedSequence`` child, which the runtime spawns from
        ``config.seed`` by position, so the dataset is a pure function
        of the config — independent of generation order.
        ``parallel=N`` fans the per-design sweeps across N supervised
        worker processes (0 runs them in-process); the dataset is
        bitwise-identical either way.  A design that fails twice raises
        ``RuntimeError`` naming each failure's type and message.
        """
        from ..orchestrate import JobSpec, RuntimeConfig, run_jobs

        jobs = [
            JobSpec(
                key=f"{index}:{spec.name}",
                fn="repro.train.dataset:generate_samples",
                args=(spec, config),
            )
            for index, spec in enumerate(specs)
        ]
        report = run_jobs(
            jobs,
            RuntimeConfig(
                workers=int(parallel), seed=config.seed,
                deadline=3600.0, max_attempts=2,
            ),
        )
        failed = [
            f"{spec.name} ({o.error['type']}: {o.error['message']})"
            for spec, o in zip(specs, report.outcomes)
            if o.status != "done"
        ]
        if failed:
            raise RuntimeError(f"dataset generation failed for design(s): {'; '.join(failed)}")
        per_design = [outcome.result for outcome in report.outcomes]

        dataset = cls()
        for samples in per_design:
            n_eval = max(1, int(round(config.eval_fraction * len(samples))))
            eval_part = samples[:n_eval]
            train_part = samples[n_eval:]
            dataset.eval.extend(eval_part)
            for sample in train_part:
                dataset.train.append(sample)
                if config.augment:
                    for k in (1, 2, 3):
                        dataset.train.append(rotate_sample(sample, k))
        return dataset

    def class_frequencies(self, num_classes: int = 8) -> np.ndarray:
        """Level histogram of the training labels (for loss weighting)."""
        counts = np.zeros(num_classes, dtype=np.float32)
        for sample in self.train:
            counts += np.bincount(sample.labels.ravel(), minlength=num_classes)
        return counts

    def batches(
        self, batch_size: int, rng: np.random.Generator
    ):
        """Yield shuffled ``(features, labels)`` batches for one epoch."""
        order = rng.permutation(len(self.train))
        for start in range(0, len(order), batch_size):
            chunk = order[start : start + batch_size]
            feats = np.stack([self.train[i].features for i in chunk])
            labels = np.stack([self.train[i].labels for i in chunk])
            yield feats, labels

    def eval_by_design(self) -> dict[str, list[Sample]]:
        """Evaluation samples grouped per design (Table I is per-design)."""
        grouped: dict[str, list[Sample]] = {}
        for sample in self.eval:
            grouped.setdefault(sample.design_name, []).append(sample)
        return grouped

    def split_by_design(
        self, holdout: set[str] | frozenset[str]
    ) -> tuple["CongestionDataset", "CongestionDataset"]:
        """Leave-designs-out split for generalization experiments.

        Returns ``(seen, unseen)``: ``seen`` keeps only samples of
        designs *not* in ``holdout`` (train + eval), while ``unseen``
        holds every sample of the held-out designs in its eval list.
        The paper trains and evaluates on the same ten designs; this
        split measures transfer to designs never seen in training.
        """
        seen = CongestionDataset(
            train=[s for s in self.train if s.design_name not in holdout],
            eval=[s for s in self.eval if s.design_name not in holdout],
        )
        unseen_eval = [
            s
            for s in self.train + self.eval
            if s.design_name in holdout and s.rotation == 0
        ]
        unseen = CongestionDataset(train=[], eval=unseen_eval)
        return seen, unseen
