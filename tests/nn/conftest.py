"""Shared nn-suite fixtures."""

import sys
from pathlib import Path

import numpy as np
import pytest

from repro import nn
from repro.nn.tensor import Tensor


@pytest.fixture
def float32_mode():
    nn.set_default_dtype(np.float32)
    yield
    nn.set_default_dtype(np.float64)


@pytest.fixture
def adjoint_log(monkeypatch):
    """Every adjoint handed to a requires-grad tensor, before it is summed.

    ``Tensor._accumulate`` copies into ``grad`` in the target's dtype
    (unless the adjoint is fresh and already matches), so ``grad`` alone
    cannot show a vjp that promotes or reshapes its adjoint.  Entries are ``(target, adjoint shape, adjoint dtype,
    "file:line" of the vjp that handed it over)``.
    """
    log = []
    accumulate = Tensor._accumulate

    def recording(self, grad, fresh=False):
        if self.requires_grad:
            caller = sys._getframe(1)
            where = f"{Path(caller.f_code.co_filename).name}:{caller.f_lineno}"
            log.append((self, np.shape(grad), np.asarray(grad).dtype, where))
        accumulate(self, grad, fresh=fresh)

    monkeypatch.setattr(Tensor, "_accumulate", recording)
    return log
