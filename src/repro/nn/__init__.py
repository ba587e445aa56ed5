"""Pure-numpy deep-learning substrate (the repo's PyTorch substitute).

Provides reverse-mode autograd (:mod:`repro.nn.tensor`), the layers the
paper's models need (:mod:`repro.nn.layers`, :mod:`repro.nn.attention`,
:mod:`repro.nn.transformer`), losses, optimizers and checkpointing.
See DESIGN.md §2 for why this substitution preserves the paper's
behaviour.
"""

from . import functional
from .attention import MultiHeadSelfAttention
from .layers import (
    BatchNorm2d,
    Conv2d,
    ConvBNReLU,
    GELU,
    Identity,
    LayerNorm,
    Linear,
    MaxPool2d,
    ReLU,
    Sigmoid,
    Softmax,
    UpsampleNearest,
)
from .loss import CrossEntropyLoss2d, one_hot_levels
from .module import Module, ModuleList, Parameter, Sequential
from .optim import SGD, Adam, Optimizer, clip_grad_norm
from .serialize import load_module, load_state, save_module, save_state
from .tensor import (
    Tensor,
    as_tensor,
    concatenate,
    get_default_dtype,
    is_grad_enabled,
    no_grad,
    set_default_dtype,
    stack,
)
from .transformer import TransformerLayer, TransformerStack

__all__ = [
    "functional",
    "Tensor",
    "as_tensor",
    "concatenate",
    "stack",
    "no_grad",
    "is_grad_enabled",
    "set_default_dtype",
    "get_default_dtype",
    "Module",
    "ModuleList",
    "Parameter",
    "Sequential",
    "Conv2d",
    "Linear",
    "BatchNorm2d",
    "LayerNorm",
    "ReLU",
    "GELU",
    "Sigmoid",
    "Softmax",
    "MaxPool2d",
    "UpsampleNearest",
    "Identity",
    "ConvBNReLU",
    "MultiHeadSelfAttention",
    "TransformerLayer",
    "TransformerStack",
    "CrossEntropyLoss2d",
    "one_hot_levels",
    "Optimizer",
    "SGD",
    "Adam",
    "clip_grad_norm",
    "save_state",
    "load_state",
    "save_module",
    "load_module",
]
