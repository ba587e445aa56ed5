"""Checkpoint serialization for :class:`~repro.nn.module.Module` trees.

State dicts are flat ``name -> ndarray`` mappings, stored as compressed
``.npz`` archives so trained congestion predictors can be saved once and
reused by the placement flow without retraining.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from .._durable import write_durably
from .module import Module

__all__ = ["save_state", "load_state", "save_module", "load_module"]


def _npz_path(path: str | os.PathLike) -> Path:
    """The path ``np.savez_compressed`` actually writes to.

    numpy appends ``.npz`` when the suffix is missing, which used to
    break ``load_state(path)`` on the same string; both functions now
    normalize through here so either spelling round-trips.
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_name(path.name + ".npz")
    return path


def save_state(state: dict[str, np.ndarray], path: str | os.PathLike) -> Path:
    """Write a state dict to a compressed ``.npz`` archive.

    The archive lands through :func:`repro._durable.write_durably`, so
    a crash mid-save leaves either the previous complete checkpoint or
    the new one — never a torn archive at the final name.

    Returns the path actually written (with the ``.npz`` suffix that
    numpy appends when it is missing).
    """
    return write_durably(_npz_path(path), lambda fh: np.savez_compressed(fh, **state))


def load_state(path: str | os.PathLike) -> dict[str, np.ndarray]:
    """Read a state dict previously written by :func:`save_state`."""
    with np.load(_npz_path(path)) as archive:
        return {name: archive[name] for name in archive.files}


def save_module(module: Module, path: str | os.PathLike) -> Path:
    """Checkpoint a module's parameters and buffers; returns the path."""
    return save_state(module.state_dict(), path)


def load_module(module: Module, path: str | os.PathLike) -> Module:
    """Restore a checkpoint into an already-constructed module."""
    module.load_state_dict(load_state(path))
    return module
