"""Concrete layers used by the paper's models.

Everything the architectures in Figs. 2–5 need: convolutions,
normalization, activations, pooling/upsampling and linear projections.
Layers own their :class:`~repro.nn.module.Parameter` leaves and
delegate the math to :mod:`repro.nn.functional`.
"""

from __future__ import annotations

import numpy as np

from . import functional as F
from . import init
from .module import Module, Parameter
from .tensor import Tensor

__all__ = [
    "Conv2d",
    "Linear",
    "BatchNorm2d",
    "LayerNorm",
    "ReLU",
    "GELU",
    "Sigmoid",
    "MaxPool2d",
    "UpsampleNearest",
    "Identity",
    "Softmax",
    "ConvBNReLU",
]

_default_rng = np.random.default_rng(0)


class Conv2d(Module):
    """2-D convolution with square kernels.

    Parameters mirror ``torch.nn.Conv2d`` for the subset the paper uses:
    ``in_channels``, ``out_channels``, ``kernel_size``, ``stride``,
    ``padding`` and ``bias``.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng or _default_rng
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = Parameter(init.kaiming_uniform(shape, rng))
        if bias:
            fan_in = in_channels * kernel_size * kernel_size
            bound = 1.0 / np.sqrt(fan_in)
            self.bias = Parameter(rng.uniform(-bound, bound, size=out_channels))
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(
            x, self.weight, self.bias, stride=self.stride, padding=self.padding
        )


class Linear(Module):
    """Affine projection ``y = x W^T + b`` over the trailing axis.

    Runs :func:`repro.nn.functional.linear`: one 2-D GEMM over all
    leading positions, with a hand-written vjp.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng or _default_rng
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            init.xavier_uniform((out_features, in_features), rng)
        )
        if bias:
            bound = 1.0 / np.sqrt(in_features)
            self.bias = Parameter(rng.uniform(-bound, bound, size=out_features))
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)


class BatchNorm2d(Module):
    """Per-channel batch normalization for NCHW tensors."""

    def __init__(self, num_features: int, momentum: float = 0.1, eps: float = 1e-5):
        super().__init__()
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        from .tensor import get_default_dtype

        dtype = get_default_dtype()
        self.gamma = Parameter(np.ones(num_features))
        self.beta = Parameter(np.zeros(num_features))
        self.register_buffer("running_mean", np.zeros(num_features, dtype=dtype))
        self.register_buffer("running_var", np.ones(num_features, dtype=dtype))

    def forward(self, x: Tensor) -> Tensor:
        return F.batch_norm(
            x,
            self.gamma,
            self.beta,
            self.running_mean,
            self.running_var,
            training=self.training,
            momentum=self.momentum,
            eps=self.eps,
        )


class LayerNorm(Module):
    """Layer normalization over the trailing feature axis."""

    def __init__(self, dim: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.gamma = Parameter(np.ones(dim))
        self.beta = Parameter(np.zeros(dim))

    def forward(self, x: Tensor) -> Tensor:
        return F.layer_norm(x, self.gamma, self.beta, eps=self.eps)


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class GELU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.gelu()


class Sigmoid(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.sigmoid()


class Softmax(Module):
    def __init__(self, axis: int = -1) -> None:
        super().__init__()
        self.axis = axis

    def forward(self, x: Tensor) -> Tensor:
        return F.softmax(x, axis=self.axis)


class MaxPool2d(Module):
    def __init__(self, kernel_size: int = 2) -> None:
        super().__init__()
        self.kernel_size = kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return F.max_pool2d(x, self.kernel_size)


class UpsampleNearest(Module):
    def __init__(self, scale: int = 2) -> None:
        super().__init__()
        self.scale = scale

    def forward(self, x: Tensor) -> Tensor:
        return F.upsample_nearest(x, self.scale)


class Identity(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x


class ConvBNReLU(Module):
    """The paper's decoder building block: 3×3 conv → BatchNorm → ReLU."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int = 3,
        stride: int = 1,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        self.conv = Conv2d(
            in_channels,
            out_channels,
            kernel_size,
            stride=stride,
            padding=kernel_size // 2,
            bias=False,
            rng=rng,
        )
        self.bn = BatchNorm2d(out_channels)
        self.act = ReLU()

    def forward(self, x: Tensor) -> Tensor:
        return self.act(self.bn(self.conv(x)))
