"""Layer behaviour: shapes, parameter counts, semantic checks."""

import numpy as np

from repro import nn
from repro.nn import Tensor


class TestConv2dLayer:
    def test_output_shape(self, rng):
        conv = nn.Conv2d(3, 8, 3, stride=2, padding=1)
        out = conv(Tensor(rng.normal(size=(2, 3, 8, 8))))
        assert out.shape == (2, 8, 4, 4)

    def test_no_bias(self):
        conv = nn.Conv2d(3, 8, 3, bias=False)
        assert conv.bias is None
        assert len(conv.parameters()) == 1

    def test_deterministic_with_rng(self):
        a = nn.Conv2d(2, 2, 3, rng=np.random.default_rng(7))
        b = nn.Conv2d(2, 2, 3, rng=np.random.default_rng(7))
        np.testing.assert_allclose(a.weight.data, b.weight.data)


class TestLinearLayer:
    def test_affine(self):
        lin = nn.Linear(3, 2)
        lin.weight.data[...] = np.array([[1.0, 0, 0], [0, 1.0, 0]])
        lin.bias.data[...] = np.array([10.0, 20.0])
        out = lin(Tensor(np.array([[1.0, 2.0, 3.0]])))
        np.testing.assert_allclose(out.data, [[11.0, 22.0]])

    def test_batched_inputs(self, rng):
        lin = nn.Linear(4, 5)
        out = lin(Tensor(rng.normal(size=(2, 7, 4))))
        assert out.shape == (2, 7, 5)


class TestNormLayers:
    def test_batchnorm_running_stats_freeze_in_eval(self, rng):
        bn = nn.BatchNorm2d(2)
        x = Tensor(rng.normal(3.0, 1.0, size=(4, 2, 4, 4)))
        bn(x)
        mean_after_train = bn.running_mean.copy()
        bn.eval()
        bn(x)
        np.testing.assert_allclose(bn.running_mean, mean_after_train)

    def test_layernorm_normalizes_rows(self, rng):
        ln = nn.LayerNorm(16)
        out = ln(Tensor(rng.normal(4.0, 2.0, size=(3, 16))))
        np.testing.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.data.std(axis=-1), 1.0, atol=1e-2)


class TestSimpleLayers:
    def test_relu(self):
        out = nn.ReLU()(Tensor(np.array([-1.0, 2.0])))
        np.testing.assert_allclose(out.data, [0.0, 2.0])

    def test_sigmoid_range(self, rng):
        out = nn.Sigmoid()(Tensor(rng.normal(size=10) * 10))
        assert np.all(out.data > 0) and np.all(out.data < 1)

    def test_softmax_layer(self, rng):
        out = nn.Softmax(axis=1)(Tensor(rng.normal(size=(2, 5))))
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0)

    def test_identity(self, rng):
        x = Tensor(rng.normal(size=(2, 2)))
        assert nn.Identity()(x) is x

    def test_pool_and_upsample_layers(self, rng):
        x = Tensor(rng.normal(size=(1, 2, 4, 4)))
        assert nn.MaxPool2d(2)(x).shape == (1, 2, 2, 2)
        assert nn.UpsampleNearest(2)(x).shape == (1, 2, 8, 8)


class TestConvBNReLU:
    def test_shape_and_nonnegativity(self, rng):
        block = nn.ConvBNReLU(3, 6)
        out = block(Tensor(rng.normal(size=(2, 3, 8, 8))))
        assert out.shape == (2, 6, 8, 8)
        assert np.all(out.data >= 0)

    def test_trains_end_to_end(self, rng):
        block = nn.ConvBNReLU(2, 4)
        x = Tensor(rng.normal(size=(2, 2, 4, 4)), requires_grad=True)
        block(x).sum().backward()
        assert x.grad is not None
        assert block.conv.weight.grad is not None
