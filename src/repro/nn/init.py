"""Weight initialization schemes for :mod:`repro.nn` layers.

The paper's models follow standard PyTorch defaults (Kaiming-uniform
convolutions, Xavier linear layers); these helpers reproduce those
schemes deterministically from a caller-supplied generator so training
runs are reproducible across processes.
"""

from __future__ import annotations

import numpy as np

__all__ = ["kaiming_uniform", "xavier_uniform", "zeros", "ones"]


def _fan_in_out(shape: tuple[int, ...]) -> tuple[int, int]:
    if len(shape) == 2:  # linear: (out, in)
        fan_out, fan_in = shape
    elif len(shape) == 4:  # conv: (out, in, k, k)
        receptive = shape[2] * shape[3]
        fan_in = shape[1] * receptive
        fan_out = shape[0] * receptive
    else:
        raise ValueError(f"unsupported weight shape {shape}")
    return fan_in, fan_out


def kaiming_uniform(
    shape: tuple[int, ...], rng: np.random.Generator, a: float = np.sqrt(5)
) -> np.ndarray:
    """He-uniform init (PyTorch's default for Conv2d/Linear weights)."""
    fan_in, _ = _fan_in_out(shape)
    gain = np.sqrt(2.0 / (1.0 + a * a))
    bound = gain * np.sqrt(3.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


def xavier_uniform(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Glorot-uniform init, suited to attention projections."""
    fan_in, fan_out = _fan_in_out(shape)
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def zeros(shape: tuple[int, ...]) -> np.ndarray:
    return np.zeros(shape)


def ones(shape: tuple[int, ...]) -> np.ndarray:
    return np.ones(shape)
