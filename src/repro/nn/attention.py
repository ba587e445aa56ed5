"""Multi-head self-attention (Eq. 9 of the paper).

Implements scaled dot-product attention
``Softmax(Q K^T / sqrt(d_k)) V`` with ``Q``, ``K``, ``V`` obtained from
the input sequence by linear projections, split across heads, and
recombined by an output projection — the MSA block inside each vision
transformer layer (Fig. 4).
"""

from __future__ import annotations

import numpy as np

from . import functional as F
from .layers import Linear
from .module import Module
from .tensor import Tensor

__all__ = ["MultiHeadSelfAttention"]


class MultiHeadSelfAttention(Module):
    """Multi-head self-attention over ``(batch, tokens, dim)`` sequences.

    Parameters
    ----------
    dim:
        Embedding dimension ``C_t`` of the token sequence.
    num_heads:
        Number of attention heads; must divide ``dim``.
    """

    def __init__(
        self,
        dim: int,
        num_heads: int = 4,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if dim % num_heads:
            raise ValueError(f"dim {dim} not divisible by num_heads {num_heads}")
        self.dim = dim
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        self.q_proj = Linear(dim, dim, rng=rng)
        self.k_proj = Linear(dim, dim, rng=rng)
        self.v_proj = Linear(dim, dim, rng=rng)
        self.out_proj = Linear(dim, dim, rng=rng)

    def _split_heads(self, x: Tensor, batch: int, tokens: int) -> Tensor:
        # (B, T, D) -> (B, heads, T, head_dim)
        return x.reshape(batch, tokens, self.num_heads, self.head_dim).transpose(
            (0, 2, 1, 3)
        )

    def forward(self, x: Tensor) -> Tensor:
        batch, tokens, dim = x.shape
        if dim != self.dim:
            raise ValueError(f"expected embedding dim {self.dim}, got {dim}")
        q = self._split_heads(self.q_proj(x), batch, tokens)
        k = self._split_heads(self.k_proj(x), batch, tokens)
        v = self._split_heads(self.v_proj(x), batch, tokens)

        scale = 1.0 / np.sqrt(self.head_dim)
        scores = (q @ k.transpose((0, 1, 3, 2))) * scale
        weights = F.softmax(scores, axis=-1)
        context = weights @ v  # (B, heads, T, head_dim)
        merged = context.transpose((0, 2, 1, 3)).reshape(batch, tokens, dim)
        return self.out_proj(merged)
