"""Serial-vs-parallel bitwise parity (ISSUE satellite regression).

Per-job RNG streams are ``SeedSequence(seed).spawn(n)`` children
assigned by submission index, so the *work* a job does is independent
of which worker ran it or when.  These tests pin that property on the
real pipelines: the Table-II contest sweep and the training-dataset
builder.
"""

import pickle

import numpy as np
import pytest

from repro.contest import TEAM_NAMES, contest_teams, run_table2
from repro.models import ModelEstimator, build_model
from repro.netlist import MLCAD2023_SPECS, generate_design
from repro.train import CongestionDataset, DatasetConfig

TINY = dict(
    design_names=("Design_116", "Design_120"),
    scale=1.0 / 256.0,
    team_names=("UTDA",),
    seed=17,
)

# Every team, so each analytical estimator (including the fallback
# "Ours" runs without a model) is compared between serial and parallel
# runs; the model-backed "Ours" has its own case below.
ALL_TEAMS = dict(
    design_names=("Design_120",),
    scale=1.0 / 256.0,
    team_names=TEAM_NAMES,
    seed=17,
)


@pytest.fixture(scope="module")
def tiny_model():
    return build_model("ours", "tiny", grid=32)


def _assert_bitwise_parity(serial, parallel, teams):
    assert serial.complete and parallel.complete
    assert set(serial.scores) == set(teams)
    assert serial.rows() == parallel.rows()
    # Not merely equal-after-rounding: the raw score fields match
    # (except t_macro_minutes, which is measured wall-clock time).
    for team, by_design in serial.scores.items():
        for design, score in by_design.items():
            other = parallel.scores[team][design]
            assert (other.s_ir, other.s_dr, other.t_pr_hours) == (
                score.s_ir, score.s_dr, score.t_pr_hours,
            )


class TestTable2Parity:
    def test_parallel_scores_match_serial_bitwise(self):
        serial = run_table2(parallel=0, **ALL_TEAMS)
        parallel = run_table2(parallel=2, **ALL_TEAMS)
        _assert_bitwise_parity(serial, parallel, TEAM_NAMES)

    def test_model_backed_ours_matches_serial_bitwise(self, tiny_model):
        # The trained model travels to the workers inside the pickled
        # team, so the parallel sweep runs the same predictor.
        teams = contest_teams(model=tiny_model, model_grid=32)
        kwargs = dict(ALL_TEAMS, team_names=("Ours",))
        serial = run_table2(teams, parallel=0, **kwargs)
        parallel = run_table2(teams, parallel=2, **kwargs)
        _assert_bitwise_parity(serial, parallel, ("Ours",))

    def test_every_team_survives_pickle(self, tiny_model):
        design = generate_design(MLCAD2023_SPECS["Design_120"], scale=1.0 / 256.0)
        teams = contest_teams() + contest_teams(model=tiny_model, model_grid=32)[-1:]
        for team in teams:
            clone = pickle.loads(pickle.dumps(team))
            assert clone.name == team.name
            assert clone.placer_config_factory() == team.placer_config_factory()
            estimator = team.estimator_factory(design)
            cloned = clone.estimator_factory(design)
            assert type(cloned) is type(estimator)
            if isinstance(estimator, ModelEstimator):
                weights = estimator.model.state_dict()
                cloned_weights = cloned.model.state_dict()
                assert list(cloned_weights) == list(weights)
                for name, value in weights.items():
                    assert np.array_equal(cloned_weights[name], value)
            else:
                assert cloned == estimator

    def test_seed_actually_varies_the_flow(self):
        a = run_table2(parallel=0, **{**TINY, "seed": 17})
        b = run_table2(parallel=0, **{**TINY, "seed": 18})
        assert a.rows() != b.rows()


class TestDatasetParity:
    def _config(self):
        return DatasetConfig(
            grid=16,
            placements_per_design=2,
            design_scale=1.0 / 256.0,
            gp_iters=60,
            stage2_iters=20,
            seed=5,
            augment=False,
        )

    def test_parallel_build_matches_serial_bitwise(self):
        specs = [MLCAD2023_SPECS[n] for n in ("Design_116", "Design_120")]
        serial = CongestionDataset.build(specs, self._config(), parallel=0)
        parallel = CongestionDataset.build(specs, self._config(), parallel=2)
        assert len(serial.train) == len(parallel.train)
        assert len(serial.eval) == len(parallel.eval)
        for a, b in zip(serial.train + serial.eval, parallel.train + parallel.eval):
            assert a.design_name == b.design_name
            assert np.array_equal(a.features, b.features)
            assert np.array_equal(a.labels, b.labels)

    def test_per_design_streams_are_order_independent(self):
        # Generating a design alone yields the same samples as
        # generating it as part of the full set — the per-design child
        # depends only on (seed, position).
        specs = [MLCAD2023_SPECS[n] for n in ("Design_116", "Design_120")]
        full = CongestionDataset.build(specs, self._config(), parallel=0)
        from repro.train.dataset import generate_samples

        child0 = np.random.SeedSequence(self._config().seed).spawn(2)[0]
        alone = generate_samples(specs[0], self._config(), seed_seq=child0)
        first = [s for s in full.eval + full.train if s.design_name == "Design_116"]
        assert np.array_equal(alone[0].features, first[0].features)
        assert np.array_equal(alone[0].labels, first[0].labels)
