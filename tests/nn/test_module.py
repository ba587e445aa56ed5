"""Module system: registration, traversal, modes, state dicts."""

import numpy as np
import pytest

from repro import nn


class Small(nn.Module):
    def __init__(self):
        super().__init__()
        self.fc1 = nn.Linear(4, 8)
        self.bn = nn.BatchNorm2d(3)
        self.act = nn.ReLU()
        self.scale = nn.Parameter(np.ones(1))

    def forward(self, x):
        return self.fc1(x) * self.scale


class TestRegistration:
    def test_parameters_found_recursively(self):
        m = Small()
        names = [n for n, _ in m.named_parameters()]
        assert "scale" in names
        assert "fc1.weight" in names
        assert "fc1.bias" in names
        assert "bn.gamma" in names

    def test_num_parameters(self):
        m = nn.Linear(4, 8)
        assert m.num_parameters() == 4 * 8 + 8

    def test_buffers_found(self):
        m = Small()
        buffer_names = [n for n, _ in m.named_buffers()]
        assert "bn.running_mean" in buffer_names
        assert "bn.running_var" in buffer_names

    def test_modules_iteration(self):
        m = Small()
        kinds = {type(x).__name__ for x in m.modules()}
        assert {"Small", "Linear", "BatchNorm2d", "ReLU"} <= kinds


class TestModes:
    def test_train_eval_propagates(self):
        m = Small()
        m.eval()
        assert not m.bn.training
        assert not m.act.training
        m.train()
        assert m.bn.training
        assert m.act.training

    def test_zero_grad(self):
        m = nn.Linear(3, 3)
        out = m(nn.Tensor(np.ones((2, 3))))
        out.sum().backward()
        assert m.weight.grad is not None
        m.zero_grad()
        assert m.weight.grad is None

    def test_parameter_trainable_under_no_grad(self):
        with nn.no_grad():
            p = nn.Parameter(np.ones(3))
        assert p.requires_grad


class TestStateDict:
    def test_roundtrip(self, rng):
        m1 = Small()
        m2 = Small()
        m1.scale.data[...] = 7.0
        m1.bn.running_mean[...] = 3.0
        m2.load_state_dict(m1.state_dict())
        assert m2.scale.data[0] == 7.0
        assert m2.bn.running_mean[0] == 3.0

    def test_missing_key_raises(self):
        m = Small()
        state = m.state_dict()
        del state["scale"]
        with pytest.raises(KeyError, match="missing"):
            m.load_state_dict(state)

    def test_unexpected_key_raises(self):
        m = Small()
        state = m.state_dict()
        state["bogus"] = np.zeros(1)
        with pytest.raises(KeyError, match="unexpected"):
            m.load_state_dict(state)

    def test_shape_mismatch_raises(self):
        m = Small()
        state = m.state_dict()
        state["scale"] = np.zeros(5)
        with pytest.raises(ValueError, match="shape"):
            m.load_state_dict(state)

    def test_state_dict_is_a_copy(self):
        m = Small()
        state = m.state_dict()
        state["scale"][...] = 99.0
        assert m.scale.data[0] == 1.0


class TestContainers:
    def test_sequential_applies_in_order(self):
        seq = nn.Sequential(nn.Linear(2, 3), nn.ReLU(), nn.Linear(3, 1))
        out = seq(nn.Tensor(np.ones((4, 2))))
        assert out.shape == (4, 1)
        assert len(seq) == 3
        assert len(list(iter(seq))) == 3

    def test_sequential_registers_children(self):
        seq = nn.Sequential(nn.Linear(2, 3), nn.Linear(3, 4))
        assert len(seq.parameters()) == 4

    def test_module_list(self):
        ml = nn.ModuleList([nn.Linear(2, 2) for _ in range(3)])
        assert len(ml) == 3
        assert isinstance(ml[1], nn.Linear)
        ml.append(nn.Linear(2, 2))
        assert len(ml) == 4
        assert len(ml.parameters()) == 8

    def test_forward_not_implemented(self):
        with pytest.raises(NotImplementedError):
            nn.Module().forward()
