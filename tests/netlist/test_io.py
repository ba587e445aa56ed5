"""Design save/load round-trips."""

import numpy as np
import pytest

from repro.netlist import load_design, save_design


class TestRoundTrip:
    @pytest.fixture
    def path(self, tmp_path, tiny_design):
        p = tmp_path / "design.netlist"
        save_design(tiny_design, p)
        return p

    def test_counts_preserved(self, path, tiny_design):
        loaded = load_design(path)
        assert loaded.name == tiny_design.name
        assert loaded.num_instances == tiny_design.num_instances
        assert loaded.num_nets == tiny_design.num_nets
        assert loaded.num_pins == tiny_design.num_pins

    def test_device_preserved(self, path, tiny_design):
        loaded = load_design(path)
        assert loaded.device.num_cols == tiny_design.device.num_cols
        assert loaded.device.column_types == tiny_design.device.column_types
        assert loaded.device.short_capacity == tiny_design.device.short_capacity

    def test_placement_bit_exact(self, path, tiny_design):
        loaded = load_design(path)
        np.testing.assert_allclose(loaded.x, tiny_design.x, atol=1e-7)
        np.testing.assert_allclose(loaded.y, tiny_design.y, atol=1e-7)

    def test_constraints_preserved(self, path, tiny_design):
        loaded = load_design(path)
        assert len(loaded.cascades) == len(tiny_design.cascades)
        for a, b in zip(loaded.cascades, tiny_design.cascades):
            assert a.instances == b.instances
        assert len(loaded.regions) == len(tiny_design.regions)
        for a, b in zip(loaded.regions, tiny_design.regions):
            assert a.instances == b.instances
            assert a.xlo == pytest.approx(b.xlo)

    def test_demands_and_movability_preserved(self, path, tiny_design):
        loaded = load_design(path)
        np.testing.assert_allclose(
            loaded.demand_matrix, tiny_design.demand_matrix
        )
        np.testing.assert_array_equal(
            loaded.movable_mask, tiny_design.movable_mask
        )

    def test_nominal_stats_preserved(self, path, tiny_design):
        loaded = load_design(path)
        assert loaded.nominal_stats == tiny_design.nominal_stats

    def test_hpwl_matches(self, path, tiny_design):
        loaded = load_design(path)
        assert loaded.hpwl() == pytest.approx(tiny_design.hpwl(), rel=1e-6)

    def test_second_roundtrip_stable(self, path, tmp_path):
        loaded = load_design(path)
        p2 = tmp_path / "again.netlist"
        save_design(loaded, p2)
        assert path.read_text() == p2.read_text()


class TestAtomicity:
    """save_design follows the tmp + fsync + rename idiom, so a crash never
    leaves a torn file at the final name."""

    def test_no_temp_file_left_behind(self, tmp_path, tiny_design):
        save_design(tiny_design, tmp_path / "design.netlist")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["design.netlist"]

    def test_crash_before_rename_preserves_previous(self, tmp_path,
                                                    tiny_design, monkeypatch):
        import os as _os

        p = tmp_path / "design.netlist"
        save_design(tiny_design, p)
        before = p.read_text()

        def boom(src, dst):
            raise RuntimeError("crash before rename")

        monkeypatch.setattr(_os, "replace", boom)
        with pytest.raises(RuntimeError):
            save_design(tiny_design, p)
        monkeypatch.undo()
        # The previous complete file is untouched at the final name.
        assert p.read_text() == before


class TestErrors:
    def test_bad_header(self, tmp_path):
        p = tmp_path / "bad.netlist"
        p.write_text("NOT A NETLIST\n")
        with pytest.raises(ValueError, match="not a"):
            load_design(p)

    def test_missing_device(self, tmp_path):
        p = tmp_path / "bad.netlist"
        p.write_text("REPRO-NETLIST v1\nDESIGN x\nEND\n")
        with pytest.raises(ValueError, match="DEVICE"):
            load_design(p)

    def test_unknown_keyword(self, tmp_path):
        p = tmp_path / "bad.netlist"
        p.write_text("REPRO-NETLIST v1\nBOGUS 1 2 3\nEND\n")
        with pytest.raises(ValueError, match="unknown keyword|malformed"):
            load_design(p)

    def test_columns_before_device(self, tmp_path):
        p = tmp_path / "bad.netlist"
        p.write_text("REPRO-NETLIST v1\nCOLUMNS CLB\nEND\n")
        with pytest.raises(ValueError, match="COLUMNS before DEVICE"):
            load_design(p)

    @pytest.mark.parametrize("past_end", (False, True),
                             ids=("negative", "past_end"))
    def test_place_index_out_of_range(self, tmp_path, tiny_design, past_end):
        # Numpy would wrap -1 to the last instance; both must be rejected
        # with the file and line like any other malformed record.
        idx = tiny_design.num_instances if past_end else -1
        p = tmp_path / "design.netlist"
        save_design(tiny_design, p)
        text = p.read_text().replace("\nEND\n", f"\nPLACE {idx} 1.0 1.0\nEND\n")
        p.write_text(text)
        with pytest.raises(ValueError, match=rf"\.netlist:\d+: PLACE index {idx} "):
            load_design(p)

    def test_comments_and_blanks_ignored(self, tmp_path, tiny_design):
        p = tmp_path / "design.netlist"
        save_design(tiny_design, p)
        text = p.read_text().replace(
            "REPRO-NETLIST v1\n", "REPRO-NETLIST v1\n# comment\n\n"
        )
        p.write_text(text)
        loaded = load_design(p)
        assert loaded.num_instances == tiny_design.num_instances


class TestPropertyRoundTrip:
    def test_random_manual_designs_roundtrip(self, tiny_device, tmp_path, rng):
        """Randomized small designs survive save/load bit-exactly."""
        from repro.arch import ResourceType
        from repro.netlist import Design, Instance, Net

        for trial in range(5):
            n_cells = int(rng.integers(3, 10))
            instances = [
                Instance(
                    f"c{i}", ResourceType.LUT,
                    {ResourceType.LUT: float(rng.uniform(0.5, 8.0))},
                    movable=bool(rng.random() > 0.2),
                )
                for i in range(n_cells)
            ]
            instances.append(Instance("d", ResourceType.DSP))
            nets = []
            for _ in range(int(rng.integers(2, 8))):
                size = int(rng.integers(2, min(4, n_cells) + 1))
                pins = rng.choice(n_cells + 1, size=size, replace=False)
                nets.append(
                    Net(tuple(int(p) for p in pins),
                        weight=float(rng.uniform(0.5, 2.0)))
                )
            design = Design(f"rand{trial}", tiny_device, instances, nets)
            design.set_placement(
                rng.uniform(0, 16, design.num_instances),
                rng.uniform(0, 16, design.num_instances),
            )
            path = tmp_path / f"rand{trial}.netlist"
            save_design(design, path)
            loaded = load_design(path)
            assert loaded.num_instances == design.num_instances
            np.testing.assert_allclose(loaded.x, design.x)
            np.testing.assert_allclose(
                loaded.demand_matrix, design.demand_matrix
            )
            np.testing.assert_allclose(
                loaded.net_weights, design.net_weights
            )
            assert loaded.hpwl() == pytest.approx(design.hpwl())
