"""Multiscale Feature Attention block (Section III-C2, Fig. 3).

The MFA block combines the two attention modules of the dual attention
network the paper cites [14]:

* **PAM** (position attention): spatial self-attention — every position
  re-weights every other position (Eqs. 4–5).
* **CAM** (channel attention): channel self-attention — every channel
  re-weights every other channel (Eqs. 6–7).

Per Fig. 3, the block first reduces channels by 1/16 with a convolution
for each branch, runs PAM/CAM, sums the branch outputs and restores the
original channel count with a final convolution, wrapped in a residual
connection.  (The paper's Eq. 4/6 subscripts contain typos; we implement
the canonical DANet formulation — see DESIGN.md §5.)

PAM's attention product is one autograd primitive,
:func:`repro.nn.functional.position_attention`, with a hand-written vjp:
the formulation (``S = softmax(BᵀC)``, output ``D·Sᵀ``) is DANet's,
unchanged, but the ``L × L`` attention (``L = H·W``) is computed in
cache-sized blocks of query rows and recomputed in backward, so memory
is O(rows·L) and no ``L × L`` map or gradient is ever held.

Compute stays quadratic in ``L``; PAM therefore optionally pools its
key/query/value maps so ``L`` stays below ``max_tokens``, matching how
DANet-style models are deployed at high resolution.  The pooling bounds
compute only: memory no longer needs it.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..nn import functional as F
from ..nn.tensor import Tensor

__all__ = ["PositionAttention", "ChannelAttention", "MFABlock"]


class PositionAttention(nn.Module):
    """PAM: spatial self-attention with a learnable residual gain α.

    Attention memory is O(rows·L) for ``L`` tokens (row blocks of about
    1 MiB, recomputed in backward); ``max_tokens`` pools the maps to
    bound the O(L²) compute, not memory.
    """

    def __init__(
        self,
        channels: int,
        max_tokens: int = 4096,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        self.channels = channels
        self.max_tokens = max_tokens
        inter = max(1, channels // 8)
        self.query_conv = nn.Conv2d(channels, inter, 1, rng=rng)
        self.key_conv = nn.Conv2d(channels, inter, 1, rng=rng)
        self.value_conv = nn.Conv2d(channels, channels, 1, rng=rng)
        self.alpha = nn.Parameter(np.zeros(1))

    def _pool_factor(self, h: int, w: int) -> int:
        factor = 1
        while (h // factor) * (w // factor) > self.max_tokens and factor < min(h, w):
            factor *= 2
        return factor

    def forward(self, x: Tensor) -> Tensor:
        n, c, h, w = x.shape
        factor = self._pool_factor(h, w)
        att_in = F.avg_pool2d(x, factor) if factor > 1 else x
        ah, aw = att_in.shape[2], att_in.shape[3]
        tokens = ah * aw

        # B, C, D of Eqs. 4–5.
        q = self.query_conv(att_in).reshape(n, -1, tokens)
        k = self.key_conv(att_in).reshape(n, -1, tokens)
        v = self.value_conv(att_in).reshape(n, c, tokens)

        out = F.position_attention(q, k, v)  # Eq. 5: D · softmax(BᵀC)ᵀ
        out = out.reshape(n, c, ah, aw)
        if factor > 1:
            out = F.upsample_nearest(out, factor)
            # Crop in case pooling truncated odd dimensions.
            if out.shape[2] != h or out.shape[3] != w:
                out = out[:, :, :h, :w]
        return self.alpha * out + x


class ChannelAttention(nn.Module):
    """CAM: channel self-attention with a learnable residual gain β."""

    def __init__(self, channels: int) -> None:
        super().__init__()
        self.channels = channels
        self.beta = nn.Parameter(np.zeros(1))

    def forward(self, x: Tensor) -> Tensor:
        n, c, h, w = x.shape
        flat = x.reshape(n, c, h * w)
        energy = flat @ flat.transpose((0, 2, 1))  # (n, C, C)
        # DANet subtracts from the rowwise max before softmax to avoid a
        # degenerate all-self attention; keep that stabilization.
        energy_max = energy.max(axis=-1, keepdims=True)
        attention = F.softmax(energy_max - energy, axis=-1)
        out = attention @ flat  # Eq. 7: C · M
        out = out.reshape(n, c, h, w)
        return self.beta * out + x


class MFABlock(nn.Module):
    """Fig. 3: channel-reduced PAM + CAM branches, summed and restored.

    Input and output shapes are identical (``[channels, H, W]``), which
    is what lets the block sit on every skip connection of Fig. 5.
    """

    def __init__(
        self,
        channels: int,
        reduction: int = 16,
        max_tokens: int = 4096,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        self.channels = channels
        inter = max(1, channels // reduction)
        self.pam_reduce = nn.ConvBNReLU(channels, inter, kernel_size=3, rng=rng)
        self.cam_reduce = nn.ConvBNReLU(channels, inter, kernel_size=3, rng=rng)
        self.pam = PositionAttention(inter, max_tokens=max_tokens, rng=rng)
        self.cam = ChannelAttention(inter)
        self.restore = nn.Conv2d(inter, channels, 1, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        p = self.pam(self.pam_reduce(x))
        c = self.cam(self.cam_reduce(x))
        fused = self.restore(p + c)
        return fused + x
