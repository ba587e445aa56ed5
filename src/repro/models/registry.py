"""Model registry: the four Table-I contenders by name, with presets.

``build_model(name, preset)`` constructs each model at one of three
sizes: ``"tiny"`` (unit tests), ``"fast"`` (benchmark harness) and
``"paper"`` (the paper's configuration — C=16-ish channels, 12
transformer layers, 256-capable).
"""

from __future__ import annotations

from .base import CongestionModel
from .ours import MFATransformerNet
from .pgnn import PGNNNet
from .pros import ProsNet
from .unet import UNet

__all__ = ["MODEL_NAMES", "PRESETS", "build_model"]

MODEL_NAMES = ("unet", "pgnn", "pros2", "ours")
PRESETS = ("tiny", "fast", "paper")


def build_model(
    name: str,
    preset: str = "fast",
    grid: int = 64,
    seed: int = 0,
    in_channels: int = 6,
) -> CongestionModel:
    """Construct one of the Table-I models.

    Every model is validated before it is returned: its own ``forward``
    is traced over a data-free ``(1, in_channels, grid, grid)`` input
    with :func:`repro.ir.trace` (no numerics), and the traced output must
    meet the ``(N, num_classes, H, W)`` logit contract.  A shape failure
    raises :class:`~repro.ir.ShapeError` naming the innermost failing
    module; a constructor that rejects the grid raises a plain
    ``ValueError``.

    Parameters
    ----------
    name:
        One of ``unet``, ``pgnn``, ``pros2``, ``ours``.
    preset:
        ``tiny`` / ``fast`` / ``paper`` capacity preset.
    grid:
        Input resolution (``ours`` requires a multiple of 16).
    in_channels:
        Number of grid feature channels (6 in the paper).
    """
    return _build_and_trace(name, preset, grid, seed, in_channels)[0]


def _build_and_trace(
    name: str,
    preset: str,
    grid: int,
    seed: int,
    in_channels: int,
):
    """:func:`build_model`, also returning its ``(1, C, grid, grid)`` graph.

    The validation trace is the batch-1 forward graph with inputs in
    ``(0, 1)``; :func:`repro.ir.trace_model` reuses it instead of
    tracing the model a second time.
    """
    if name not in MODEL_NAMES:
        raise ValueError(f"unknown model {name!r}; expected one of {MODEL_NAMES}")
    if preset not in PRESETS:
        raise ValueError(f"unknown preset {preset!r}; expected one of {PRESETS}")

    sizes = {
        "tiny": {"unet": 4, "pgnn": 4, "pros2": 4, "ours": 4, "layers": 2, "gnn": 4},
        "fast": {"unet": 8, "pgnn": 8, "pros2": 10, "ours": 12, "layers": 4, "gnn": 8},
        "paper": {"unet": 12, "pgnn": 12, "pros2": 14, "ours": 16, "layers": 12, "gnn": 8},
    }[preset]

    if name == "unet":
        model: CongestionModel = UNet(
            in_channels=in_channels, base_channels=sizes["unet"], seed=seed
        )
    elif name == "pgnn":
        model = PGNNNet(
            in_channels=in_channels,
            gnn_channels=sizes["gnn"],
            base_channels=sizes["pgnn"],
            seed=seed,
        )
    elif name == "pros2":
        model = ProsNet(
            in_channels=in_channels, base_channels=sizes["pros2"], seed=seed
        )
    else:
        model = MFATransformerNet(
            in_channels=in_channels,
            base_channels=sizes["ours"],
            num_transformer_layers=sizes["layers"],
            grid=grid,
            seed=seed,
        )
    from ..ir import ShapeError, trace

    graph = trace(model, (1, in_channels, grid, grid),
                  input_vrange=(0.0, 1.0), name=name)
    expected = (1, model.num_classes, grid, grid)
    shapes = [graph[i].shape for i in graph.outputs]
    if shapes != [expected]:
        raise ShapeError(
            f"{type(model).__name__}: output {shapes} does not match the "
            f"(N, {model.num_classes}, H, W) logit contract {expected}"
        )
    return model, graph
