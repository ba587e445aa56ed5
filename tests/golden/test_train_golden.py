"""Golden run: a short Table I training, pinned to its loss curve.

``train_golden.json`` holds the per-epoch training losses and the eval
ACC/R2/NRMS of a seeded float64 ``Trainer.train`` of the ``ours`` tiny
model on router-labelled placements of two designs.  Any change in the
nn layers, the loss, the optimizer or the dataset pipeline shows here.

The losses are checked with ``rtol=1e-9``: a primitive rewritten with a
different summation order (a fused vjp, say) moves them by rounding
only, which is ~1e-16 relative, while a wrong gradient moves them at the
first epoch by far more.  Regenerate the file only for an intended
behaviour change, from the repository root::

    PYTHONPATH=src python -m tests.golden.test_train_golden
"""

from __future__ import annotations

import json
import platform
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).with_name("train_golden.json")
DESIGNS = ("Design_116", "Design_190")
GRID = 32
SEED = 17
RTOL = 1e-9


def golden_run() -> dict:
    """Build the dataset, train, evaluate; return the golden dict."""
    from repro import nn
    from repro.models import build_model
    from repro.netlist import MLCAD2023_SPECS
    from repro.train import CongestionDataset, DatasetConfig, TrainConfig, Trainer

    dataset_config = DatasetConfig(
        grid=GRID, placements_per_design=3, design_scale=1.0 / 256.0,
        gp_iters=120, stage2_iters=40, seed=SEED,
    )
    train_config = TrainConfig(epochs=4, batch_size=4, seed=SEED)
    previous = nn.get_default_dtype()
    nn.set_default_dtype(np.float64)
    try:
        dataset = CongestionDataset.build(
            [MLCAD2023_SPECS[name] for name in DESIGNS], dataset_config
        )
        model = build_model("ours", "tiny", grid=GRID, seed=SEED)
        result = Trainer(train_config).train(model, dataset)
        metrics = Trainer.evaluate(model, dataset.eval)
    finally:
        nn.set_default_dtype(previous)
    return {
        "config": {"designs": list(DESIGNS), "grid": GRID, "seed": SEED},
        "numpy": np.__version__,
        "machine": platform.machine(),
        "losses": [float(loss) for loss in result.losses],
        "eval": {key: float(metrics[key]) for key in ("ACC", "R2", "NRMS")},
    }


def test_training_matches_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = golden_run()
    where = (
        f"golden made with numpy {golden['numpy']} on {golden['machine']}; "
        f"this run numpy {got['numpy']} on {got['machine']}"
    )
    assert len(got["losses"]) == len(golden["losses"]), where
    np.testing.assert_allclose(
        got["losses"], golden["losses"], rtol=RTOL, err_msg=where
    )
    for key, want in golden["eval"].items():
        np.testing.assert_allclose(
            got["eval"][key], want, rtol=RTOL, err_msg=f"{key}; {where}"
        )


if __name__ == "__main__":
    data = golden_run()
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN} ({len(data['losses'])} epochs)")
