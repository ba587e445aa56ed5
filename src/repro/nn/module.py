"""Module system: parameter containers with PyTorch-like ergonomics.

A :class:`Module` owns :class:`Parameter` leaves and child modules,
exposes ``parameters()`` / ``named_parameters()`` for optimizers, a
``state_dict`` round-trip for checkpointing, and a ``train()`` /
``eval()`` mode flag consumed by BatchNorm.  Attribute assignment
registers children automatically, so model code reads like the PyTorch
the paper was written in.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .tensor import Tensor

__all__ = ["Parameter", "Module", "Sequential", "ModuleList"]

# Optional instrumentation around every Module.__call__ (see
# repro.ir.trace).  The hook is ``hook(event, module)`` with event
# "enter" before forward and "exit" after (also on exception); when no
# tracer is active this is a single ``is None`` check per call.
_CALL_HOOK = None


def _set_call_hook(hook) -> None:
    """Install (or clear) the module-call instrumentation hook."""
    global _CALL_HOOK
    _CALL_HOOK = hook


class Parameter(Tensor):
    """A tensor that is always trainable and enumerated by ``parameters()``."""

    def __init__(self, data) -> None:
        super().__init__(data, requires_grad=True)
        # Parameters must stay trainable even when constructed under
        # ``no_grad`` (e.g. lazily built modules inside an eval pass).
        self.requires_grad = True


class Module:
    """Base class for all neural-network modules."""

    def __init__(self) -> None:
        self._parameters: dict[str, Parameter] = {}
        self._modules: dict[str, "Module"] = {}
        self._buffers: dict[str, np.ndarray] = {}
        self.training: bool = True

    # -- registration ----------------------------------------------------------

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", {})[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", {})[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Track non-trainable state (e.g. BatchNorm running stats)."""
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    # -- traversal -----------------------------------------------------------------

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield prefix + name, param
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix + name + ".")

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def named_buffers(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
        for name, buf in self._buffers.items():
            yield prefix + name, buf
        for name, module in self._modules.items():
            yield from module.named_buffers(prefix + name + ".")

    def modules(self) -> Iterator["Module"]:
        yield self
        for module in self._modules.values():
            yield from module.modules()

    def num_parameters(self) -> int:
        """Total number of trainable scalars in the module tree."""
        return sum(p.size for p in self.parameters())

    # -- train/eval mode ----------------------------------------------------------------

    def train(self, mode: bool = True) -> "Module":
        for module in self.modules():
            module.training = mode
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.grad = None

    # -- state dict ------------------------------------------------------------------------

    def state_dict(self) -> dict[str, np.ndarray]:
        state = {name: p.data.copy() for name, p in self.named_parameters()}
        for name, buf in self.named_buffers():
            state[name] = buf.copy()
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        own_params = dict(self.named_parameters())
        own_buffers = dict(self.named_buffers())
        missing = (set(own_params) | set(own_buffers)) - set(state)
        unexpected = set(state) - (set(own_params) | set(own_buffers))
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}"
            )
        for name, param in own_params.items():
            if param.data.shape != state[name].shape:
                raise ValueError(
                    f"shape mismatch for {name}: {param.data.shape} vs "
                    f"{state[name].shape}"
                )
            param.data[...] = state[name]
        for name, buf in own_buffers.items():
            buf[...] = state[name]

    # -- call protocol ----------------------------------------------------------------------

    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        hook = _CALL_HOOK
        if hook is None:
            return self.forward(*args, **kwargs)
        hook("enter", self)
        try:
            return self.forward(*args, **kwargs)
        finally:
            hook("exit", self)


class Sequential(Module):
    """Apply child modules in order."""

    def __init__(self, *layers: Module) -> None:
        super().__init__()
        self.layers = list(layers)
        for i, layer in enumerate(layers):
            self._modules[str(i)] = layer

    def __iter__(self) -> Iterator[Module]:
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)

    def forward(self, x):
        for layer in self.layers:
            x = layer(x)
        return x


class ModuleList(Module):
    """Hold an indexable list of child modules (no implicit forward)."""

    def __init__(self, modules: list[Module] | None = None) -> None:
        super().__init__()
        self._list: list[Module] = []
        for module in modules or []:
            self.append(module)

    def append(self, module: Module) -> "ModuleList":
        self._modules[str(len(self._list))] = module
        self._list.append(module)
        return self

    def __getitem__(self, index: int) -> Module:
        return self._list[index]

    def __iter__(self) -> Iterator[Module]:
        return iter(self._list)

    def __len__(self) -> int:
        return len(self._list)
