"""Model registry, baselines and the model-backed estimator."""

import numpy as np
import pytest

from repro import nn
from repro.ir import ShapeError, trace
from repro.models import (
    MODEL_NAMES,
    MFATransformerNet,
    ModelEstimator,
    PGNNNet,
    ProsNet,
    UNet,
    build_model,
)
from repro.nn import Tensor


class TestRegistry:
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_build_and_forward(self, name, rng):
        model = build_model(name, "tiny", grid=32)
        x = rng.normal(size=(1, 6, 32, 32))
        logits = model(Tensor(x))
        assert logits.shape == (1, 8, 32, 32)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown model"):
            build_model("resnext")

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="unknown preset"):
            build_model("unet", "huge")

    def test_preset_sizes_ordered(self):
        tiny = build_model("ours", "tiny", grid=32).num_parameters()
        fast = build_model("ours", "fast", grid=32).num_parameters()
        assert tiny < fast

    def test_expected_types(self):
        assert isinstance(build_model("unet", "tiny"), UNet)
        assert isinstance(build_model("pgnn", "tiny"), PGNNNet)
        assert isinstance(build_model("pros2", "tiny"), ProsNet)
        assert isinstance(build_model("ours", "tiny"), MFATransformerNet)

    def test_only_ours_has_transformer(self):
        """Table I note: Ours is the only hybrid CNN-transformer model."""
        for name in ("unet", "pgnn", "pros2"):
            model = build_model(name, "tiny")
            assert not any(
                type(m).__name__ == "TransformerStack" for m in model.modules()
            )
        ours = build_model("ours", "tiny")
        assert any(
            type(m).__name__ == "TransformerStack" for m in ours.modules()
        )


class TestBuildModelValidation:
    """``build_model`` traces every model and rejects broken shapes."""

    def test_all_models_all_paper_grids(self):
        # build_model raises unless the traced output is (1, 8, grid, grid).
        for name in MODEL_NAMES:
            for grid in (64, 128, 256, 512):
                build_model(name, "paper", grid=grid)

    def test_build_model_validates_by_default(self):
        # 20 survives UNet's constructor but not its three 2x pools
        # (20 -> 10 -> 5 -> 2.5), so construction itself must fail.
        with pytest.raises(ShapeError, match=r"^UNet\.pool: "):
            build_model("unet", "tiny", grid=20)

    @pytest.mark.parametrize("grid", [20, 24, 40])
    def test_pros2_rejects_grids_its_forward_cannot_run(self, grid):
        with pytest.raises(ShapeError, match="concatenate"):
            build_model("pros2", "tiny", grid=grid)

    def test_constructor_rejection_stays_a_plain_value_error(self):
        with pytest.raises(ValueError, match="divisible by 16") as exc:
            build_model("ours", "tiny", grid=24)
        assert not isinstance(exc.value, ShapeError)

    def test_logit_contract_enforced(self, monkeypatch):
        monkeypatch.setattr(UNet, "forward", lambda self, x: self.enc1(x))
        with pytest.raises(ShapeError, match="logit contract"):
            build_model("unet", "tiny", grid=32)

    def test_skip_connection_mismatch_detected(self):
        # Sabotage a decoder stage: dec3 consumes up3(e4) concat e3, so
        # a wrong input width must be rejected without running numerics.
        from repro.models.unet import DoubleConv

        model = build_model("unet", "tiny", grid=32)
        c = model.base_channels
        model.dec3 = DoubleConv(8 * c + 4 * c + 1, 4 * c, rng=np.random.default_rng(0))
        with pytest.raises(ShapeError, match=r"^UNet\.dec3\."):
            trace(model, (1, 6, 32, 32))

    def test_encoder_decoder_spatial_mismatch_detected(self):
        # Break the spatial contract instead of the channel one: an
        # upsample factor of 4 makes up3(e4) 2x larger than skip e3.
        from repro.nn import UpsampleNearest

        model = build_model("unet", "tiny", grid=32)
        model.up3 = UpsampleNearest(4)
        with pytest.raises(ShapeError, match="concatenate"):
            trace(model, (1, 6, 32, 32))


class TestBaselineModels:
    @pytest.mark.parametrize("cls", [UNet, PGNNNet, ProsNet])
    def test_trains_one_step(self, cls, rng):
        model = cls(base_channels=4, seed=0)
        loss_fn = nn.CrossEntropyLoss2d(8)
        opt = nn.Adam(model.parameters(), lr=1e-3)
        x = rng.normal(size=(2, 6, 16, 16))
        y = rng.integers(0, 8, size=(2, 16, 16))
        logits = model(Tensor(x))
        loss0 = loss_fn(logits, y)
        loss0.backward()
        opt.step()
        loss1 = loss_fn(model(Tensor(x)), y)
        assert loss1.item() < loss0.item()

    def test_pgnn_gnn_branch_changes_output(self, rng):
        model = PGNNNet(base_channels=4, gnn_channels=4, seed=0)
        x = rng.normal(size=(1, 6, 16, 16))
        base = model(Tensor(x)).data
        for layer in model.gnn:
            layer.w_neigh.weight.data[...] = 0.0
            layer.w_self.weight.data[...] = 0.0
            layer.w_self.bias.data[...] = 0.0
        ablated = model(Tensor(x)).data
        assert not np.allclose(base, ablated)

    def test_pgnn_aggregation_is_fixed(self):
        model = PGNNNet(base_channels=4, gnn_channels=4, seed=0)
        params = {name for name, _ in model.named_parameters()}
        assert not any("_aggregate" in p for p in params)


def _params_without_grad(model):
    """Names of trainable parameters one forward/backward leaves gradless."""
    model.train()
    model(Tensor(np.zeros((1, 6, 16, 16)))).sum().backward()
    return [
        n for n, p in model.named_parameters() if p.requires_grad and p.grad is None
    ]


class TestUnusedParameters:
    """Every registry parameter reaches the loss."""

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_reports_parameters_without_grad(self, name):
        assert _params_without_grad(build_model(name, "tiny", grid=16)) == []

    def test_names_the_orphan(self):
        # A parameter that forward never touches is what the check catches.
        model = build_model("unet", "tiny", grid=16)
        model.orphan = nn.Linear(3, 3)
        assert _params_without_grad(model) == ["orphan.weight", "orphan.bias"]


class TestPredictRecordsNoTape:
    """The in-flow predictor runs under ``no_grad``: no op wires the tape."""

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_predict_proba_records_no_tape(self, name, monkeypatch):
        nn.set_default_dtype(np.float32)
        try:
            model = build_model(name, "tiny", grid=16)
            made = []
            make = Tensor._make

            def spy(data, parents, backward):
                out = make(data, parents, backward)
                made.append(out)
                return out

            monkeypatch.setattr(Tensor, "_make", staticmethod(spy))
            features = np.zeros((1, 6, 16, 16), dtype=np.float32)
            proba = model.predict_proba(features)
        finally:
            nn.set_default_dtype(np.float64)
        assert proba.dtype == np.float32
        assert made
        assert [t for t in made if t._backward is not None] == []


class TestModelEstimator:
    def test_level_map_shape_and_range(self, tiny_design):
        model = build_model("unet", "tiny")
        estimator = ModelEstimator(model, model_grid=32, out_grid=16)
        levels = estimator(tiny_design, tiny_design.x, tiny_design.y)
        assert levels.shape == (16, 16)
        assert np.all(levels >= 0) and np.all(levels <= 7)

    def test_default_out_grid_is_model_grid(self, tiny_design):
        model = build_model("unet", "tiny")
        estimator = ModelEstimator(model, model_grid=32)
        levels = estimator(tiny_design, tiny_design.x, tiny_design.y)
        assert levels.shape == (32, 32)


class TestModelEstimatorModes:
    def test_argmax_mode_integer_levels(self, tiny_design):
        model = build_model("unet", "tiny")
        estimator = ModelEstimator(model, model_grid=32, out_grid=32, mode="argmax")
        levels = estimator(tiny_design, tiny_design.x, tiny_design.y)
        np.testing.assert_allclose(levels % 1.0, 0.0)

    def test_unknown_mode_rejected(self, tiny_design):
        model = build_model("unet", "tiny")
        estimator = ModelEstimator(model, model_grid=32, mode="median")
        with pytest.raises(ValueError, match="unknown mode"):
            estimator(tiny_design, tiny_design.x, tiny_design.y)


class TestLookaheadLegalization:
    def test_lookahead_runs_and_differs(self, fresh_tiny_design):
        from repro.placement import GlobalPlacer, GPConfig

        gp = GlobalPlacer(fresh_tiny_design, GPConfig(bins=16, max_iters=60))
        gp.run(max_iters=60)
        x, y = gp.positions()
        model = build_model("unet", "tiny")
        raw = ModelEstimator(model, model_grid=32, out_grid=16)
        look = ModelEstimator(
            model, model_grid=32, out_grid=16, lookahead_legalize=True
        )
        a = raw(fresh_tiny_design, x, y)
        b = look(fresh_tiny_design, x, y)
        assert a.shape == b.shape == (16, 16)

    def test_lookahead_does_not_mutate_design(self, fresh_tiny_design):
        d = fresh_tiny_design
        x0 = d.x.copy()
        model = build_model("unet", "tiny")
        look = ModelEstimator(
            model, model_grid=32, out_grid=16, lookahead_legalize=True
        )
        look(d, d.x, d.y)
        np.testing.assert_allclose(d.x, x0)
