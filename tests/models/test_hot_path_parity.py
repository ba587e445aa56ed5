"""Bitwise parity of two nn hot-path simplifications on the ``ours`` model.

* ``Tensor._accumulate`` makes a tensor's first gradient with one copy,
  where it used to fill zeros and add.
* ``CongestionModel.predict_proba`` hands its features straight to the
  ``Tensor`` constructor, where it used to cast them to float64 first.

Each is checked against a test-local copy of the code it replaced.
"""

import numpy as np
import pytest

from repro import nn
from repro.models import build_model
from repro.nn import functional as F
from repro.nn.tensor import Tensor

GRID = 32


def _zero_fill_accumulate(self, grad, fresh=False):
    if not self.requires_grad:
        return
    if self.grad is None:
        self.grad = np.zeros_like(self.data)
    self.grad += grad


def _cast_predict_proba(model, features):
    model.eval()
    with nn.no_grad():
        logits = model(Tensor(np.asarray(features, dtype=np.float64)))
        return F.softmax(logits, axis=1).data


@pytest.fixture(params=[np.float64, np.float32], ids=["float64", "float32"])
def dtype(request):
    nn.set_default_dtype(request.param)
    yield request.param
    nn.set_default_dtype(np.float64)


def _param_grads(rng_seed: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(rng_seed)
    model = build_model("ours", "tiny", grid=GRID, seed=3)
    x = Tensor(rng.random((2, 6, GRID, GRID)))
    weights = Tensor(rng.standard_normal((2, 8, GRID, GRID)))
    (model(x) * weights).sum().backward()
    return {name: p.grad for name, p in model.named_parameters()}


def test_first_accumulation_copy_matches_zero_fill(dtype, monkeypatch):
    got = _param_grads(0)
    monkeypatch.setattr(Tensor, "_accumulate", _zero_fill_accumulate)
    want = _param_grads(0)
    assert got.keys() == want.keys()
    for name, grad in want.items():
        assert got[name].dtype == grad.dtype == dtype
        assert np.array_equal(got[name], grad), name


def test_predict_proba_without_cast_matches(dtype):
    model = build_model("ours", "tiny", grid=GRID, seed=3)
    features = np.random.default_rng(1).random((2, 6, GRID, GRID))
    for feats in (features, features.astype(np.float32)):
        got = model.predict_proba(feats)
        assert got.dtype == dtype
        assert np.array_equal(got, _cast_predict_proba(model, feats))
