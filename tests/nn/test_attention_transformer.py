"""Multi-head attention and vision transformer layers."""

import numpy as np
import pytest

from repro import nn
from repro.nn import Tensor

from ..conftest import numerical_gradient


class TestMultiHeadSelfAttention:
    def test_shape_preserved(self, rng):
        attn = nn.MultiHeadSelfAttention(16, num_heads=4, rng=rng)
        out = attn(Tensor(rng.normal(size=(2, 9, 16))))
        assert out.shape == (2, 9, 16)

    def test_head_divisibility_enforced(self):
        with pytest.raises(ValueError, match="divisible"):
            nn.MultiHeadSelfAttention(10, num_heads=3)

    def test_wrong_dim_raises(self, rng):
        attn = nn.MultiHeadSelfAttention(8, num_heads=2, rng=rng)
        with pytest.raises(ValueError, match="dim"):
            attn(Tensor(rng.normal(size=(1, 4, 12))))

    def test_gradcheck(self, rng):
        attn = nn.MultiHeadSelfAttention(6, num_heads=2, rng=rng)
        x = Tensor(rng.normal(size=(1, 4, 6)), requires_grad=True)
        (attn(x) ** 2).sum().backward()

        def f():
            return float((attn(Tensor(x.data)).data ** 2).sum())

        np.testing.assert_allclose(
            numerical_gradient(f, x.data), x.grad, atol=1e-5
        )

    def test_permutation_equivariance_without_positions(self, rng):
        """Self-attention (no pos-embed) commutes with token permutation."""
        attn = nn.MultiHeadSelfAttention(8, num_heads=2, rng=rng)
        x = rng.normal(size=(1, 5, 8))
        perm = np.array([3, 1, 4, 0, 2])
        out = attn(Tensor(x)).data
        out_perm = attn(Tensor(x[:, perm])).data
        np.testing.assert_allclose(out[:, perm], out_perm, atol=1e-10)


class TestTransformerLayer:
    def test_shape(self, rng):
        layer = nn.TransformerLayer(8, num_heads=2, rng=rng)
        out = layer(Tensor(rng.normal(size=(2, 5, 8))))
        assert out.shape == (2, 5, 8)

    def test_residual_paths_carry_gradient(self, rng):
        layer = nn.TransformerLayer(8, num_heads=2, rng=rng)
        x = Tensor(rng.normal(size=(1, 4, 8)), requires_grad=True)
        layer(x).sum().backward()
        assert x.grad is not None
        assert not np.allclose(x.grad, 0)


class TestTransformerStack:
    def test_spatial_roundtrip_shape(self, rng):
        stack = nn.TransformerStack(
            in_channels=8, embed_dim=16, num_layers=3, tokens=16,
            num_heads=2, rng=rng,
        )
        out = stack(Tensor(rng.normal(size=(2, 8, 4, 4))))
        assert out.shape == (2, 8, 4, 4)
        assert stack.num_layers == 3

    def test_token_count_checked(self, rng):
        stack = nn.TransformerStack(8, 8, 1, tokens=16, num_heads=2, rng=rng)
        with pytest.raises(ValueError, match="tokens"):
            stack(Tensor(rng.normal(size=(1, 8, 2, 2))))

    def test_channel_count_checked(self, rng):
        stack = nn.TransformerStack(8, 8, 1, tokens=4, num_heads=2, rng=rng)
        with pytest.raises(ValueError, match="channels"):
            stack(Tensor(rng.normal(size=(1, 4, 2, 2))))

    def test_position_embedding_breaks_permutation_symmetry(self, rng):
        stack = nn.TransformerStack(4, 8, 1, tokens=4, num_heads=2, rng=rng)
        x = rng.normal(size=(1, 4, 2, 2))
        out = stack(Tensor(x)).data
        rolled = stack(Tensor(np.roll(x, 1, axis=3))).data
        assert not np.allclose(out, np.roll(rolled, -1, axis=3), atol=1e-6)

    def test_all_parameters_receive_gradients(self, rng):
        stack = nn.TransformerStack(4, 8, 2, tokens=4, num_heads=2, rng=rng)
        x = Tensor(rng.normal(size=(2, 4, 2, 2)))
        (stack(x) ** 2).sum().backward()
        for name, param in stack.named_parameters():
            assert param.grad is not None, f"{name} has no gradient"
