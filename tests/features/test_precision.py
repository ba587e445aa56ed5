"""Float32 feature-pipeline precision.

The six feature maps ship as float32 while every rectangle
accumulation (``bincount`` + ``cumsum``) runs in float64.  These tests
check both halves of that contract:

* a float64 *shadow run* of the identical extraction code bounds the
  end-to-end float32 error at grids 64 and 256 within an envelope
  derived from float32 unit roundoff (ops-counted, not tuned), and
* a differential test pins ``_rect_accumulate`` against a per-rectangle
  float64 slice-add reference, which fails if the accumulation itself
  narrows to float32 before the ``cumsum``.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.features.grids as grids
from repro.features import FEATURE_NAMES, FeatureExtractor

U32 = np.finfo(np.float32).eps / 2  # float32 unit roundoff, 2**-24

# Ops-counted envelope: after the float64 accumulation narrows, at most
# ~5 float32 roundings reach a raw map element (the narrowing itself,
# the normalization divides, the rudy add, the pre-accumulation pin
# weights); bilinear resize adds ~11 more (weight rounding plus four
# convex products and three adds).  A 3x headroom factor keeps the
# bound a certificate rather than a tuned constant.
CERT_REL_RAW = 16 * U32
CERT_REL_RESIZED = 48 * U32


class _Float64Numpy:
    """numpy proxy whose ``float32`` is float64: the shadow pipeline.

    Rebinding ``grids.np`` to this object makes every explicit
    ``astype(np.float32)`` / ``dtype=np.float32`` in the extraction
    code widen instead of narrow, so the shadow run exercises the
    *identical* code path at full precision.
    """

    float32 = np.float64

    def __getattr__(self, name):
        return getattr(np, name)


@pytest.fixture
def shadow_numpy(monkeypatch):
    monkeypatch.setattr(grids, "np", _Float64Numpy())


def _shadow_pair(design, grid, out=None, monkeypatch=None):
    """(float32 stack, float64 shadow stack) for the same placement."""
    extractor = FeatureExtractor(grid=grid)
    if out is None:
        f32 = extractor(design)
    else:
        f32 = extractor.resized(design, out)
    saved = grids.np
    grids.np = _Float64Numpy()
    try:
        if out is None:
            f64 = extractor(design)
        else:
            f64 = extractor.resized(design, out)
    finally:
        grids.np = saved
    return f32, f64


class TestFloat32Certification:
    """Shadow-run validation of the shipped float32 pipeline."""

    def test_raw_grid64_within_certified_envelope(self, tiny_design):
        f32, f64 = _shadow_pair(tiny_design, 64)
        assert f32.dtype == np.float32
        assert f64.dtype == np.float64
        for k, name in enumerate(FEATURE_NAMES):
            scale = max(float(np.abs(f64[k]).max()), 1.0)
            err = float(np.abs(f32[k].astype(np.float64) - f64[k]).max())
            assert err <= CERT_REL_RAW * scale, (
                f"{name}: float32 error {err:.3e} exceeds certified "
                f"{CERT_REL_RAW * scale:.3e} at grid 64"
            )

    def test_resized_grid256_within_certified_envelope(self, tiny_design):
        f32, f64 = _shadow_pair(tiny_design, 64, out=256)
        assert f32.shape == (len(FEATURE_NAMES), 256, 256)
        for k, name in enumerate(FEATURE_NAMES):
            scale = max(float(np.abs(f64[k]).max()), 1.0)
            err = float(np.abs(f32[k].astype(np.float64) - f64[k]).max())
            assert err <= CERT_REL_RESIZED * scale, (
                f"{name}: float32 error {err:.3e} exceeds certified "
                f"{CERT_REL_RESIZED * scale:.3e} at 256x256"
            )

    def test_shadow_pipeline_actually_widens(self, tiny_design, shadow_numpy):
        stack = FeatureExtractor(grid=16)(tiny_design)
        assert stack.dtype == np.float64

    def test_error_is_not_identically_zero(self, tiny_design):
        # The certificate must bound a *real* quantity: the float32 run
        # genuinely differs from the float64 shadow somewhere.
        f32, f64 = _shadow_pair(tiny_design, 64)
        assert float(np.abs(f32.astype(np.float64) - f64).max()) > 0.0


class TestRectAccumulateDifferential:
    """``_rect_accumulate`` against a per-rectangle float64 slice-add."""

    def test_matches_float64_slice_add(self):
        rng = np.random.default_rng(0)
        grid, n = 256, 2000
        xa, xb = rng.integers(0, grid, size=(2, n))
        ya, yb = rng.integers(0, grid, size=(2, n))
        x0, x1 = np.minimum(xa, xb), np.maximum(xa, xb)
        y0, y1 = np.minimum(ya, yb), np.maximum(ya, yb)
        values = rng.random(n)

        ref = np.zeros((grid, grid))
        for k in range(n):
            ref[x0[k]:x1[k] + 1, y0[k]:y1[k] + 1] += values[k]
        out = grids._rect_accumulate(grid, x0, x1, y0, y1, values)

        assert out.dtype == np.float32
        # float64 accumulation leaves only the final narrowing: half an
        # ulp per bin.  Accumulating in float32 compounds ~grid roundings
        # along each prefix sum and lands well outside this bound.
        err = float(np.abs(out.astype(np.float64) - ref).max())
        assert err <= 2 * U32 * float(ref.max()), err
