"""Shared nn-suite fixtures."""

import numpy as np
import pytest

from repro import nn


@pytest.fixture
def float32_mode():
    nn.set_default_dtype(np.float32)
    yield
    nn.set_default_dtype(np.float64)
