"""CLI: parser structure and command execution at tiny scale."""

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_commands_registered(self):
        parser = build_parser()
        for command in ("stats", "place", "route", "score", "train", "table2"):
            args = parser.parse_args([command])
            assert args.command == command

    def test_subcommand_set(self, capsys):
        parser = build_parser()
        (sub,) = [a for a in parser._actions if a.dest == "command"]
        assert sorted(sub.choices) == [
            "analyze", "lint", "place", "route", "score", "stats", "table2",
            "train",
        ]
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(["gradcheck", "all"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_design_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["place", "--design", "NotADesign"])

    def test_table2_parallel_must_be_non_negative(self, capsys):
        # run_jobs treats workers <= 0 as serial, so a negative count
        # must be a usage error rather than a silent serial run.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["table2", "--parallel", "-2"])
        assert exc.value.code == 2
        assert "must be non-negative" in capsys.readouterr().err
        assert build_parser().parse_args(
            ["table2", "--parallel", "0"]).parallel == 0


class TestCommands:
    def test_stats(self, capsys):
        rc = main(["stats", "--designs", "Design_116", "--scale", "256"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Design_116" in out
        assert "370000" in out

    def test_place(self, capsys):
        rc = main(
            ["place", "--design", "Design_120", "--scale", "256",
             "--iters", "150"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "hpwl=" in out and "legal=True" in out

    def test_score(self, capsys):
        rc = main(["score", "--design", "Design_120", "--scale", "256"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "S_IR=" in out and "S_score=" in out

    def test_train_writes_checkpoint(self, tmp_path, capsys):
        out_path = tmp_path / "model.npz"
        rc = main(
            ["train", "--designs", "Design_120", "--scale", "256",
             "--grid", "32", "--placements", "2", "--epochs", "1",
             "--model", "unet", "--out", str(out_path)]
        )
        assert rc == 0
        assert out_path.exists()
        out = capsys.readouterr().out
        assert "checkpoint" in out

    def test_train_resume_from_checkpoint_dir(self, tmp_path, capsys):
        """Kill-and-resume e2e at CLI level: the second invocation picks
        up from the bundles the first one left behind."""
        ckpt_dir = tmp_path / "ckpts"
        base = ["train", "--designs", "Design_120", "--scale", "256",
                "--grid", "32", "--placements", "2", "--model", "unet",
                "--out", str(tmp_path / "model.npz"),
                "--checkpoint-dir", str(ckpt_dir)]
        assert main(base + ["--epochs", "1"]) == 0
        assert (ckpt_dir / "last.ckpt.npz").exists()
        capsys.readouterr()
        assert main(base + ["--epochs", "2", "--resume"]) == 0
        out = capsys.readouterr().out
        assert "resumed from epoch 1" in out

    def test_train_resume_requires_checkpoint_dir(self, tmp_path, capsys):
        rc = main(
            ["train", "--designs", "Design_120", "--scale", "256",
             "--grid", "32", "--placements", "2", "--epochs", "1",
             "--model", "unet", "--out", str(tmp_path / "m.npz"),
             "--resume"]
        )
        assert rc == 2
        assert "--checkpoint-dir" in capsys.readouterr().err


    def test_train_resume_under_other_config_is_usage_error(self, tmp_path, capsys):
        ckpt_dir = tmp_path / "ckpts"
        base = ["train", "--designs", "Design_120", "--scale", "256",
                "--grid", "32", "--placements", "2", "--epochs", "1",
                "--out", str(tmp_path / "model.npz"),
                "--checkpoint-dir", str(ckpt_dir)]
        assert main(base + ["--model", "unet"]) == 0
        capsys.readouterr()
        rc = main(base + ["--model", "pgnn", "--resume"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "different configuration" in err
        assert "Traceback" not in err and err.count("\n") == 1

    def test_train_resume_reports_quarantined_checkpoints(self, tmp_path, capsys):
        # Corrupt bundles are moved aside and training restarts from
        # scratch; the run must say so instead of succeeding silently.
        ckpt_dir = tmp_path / "ckpts"
        base = ["train", "--designs", "Design_120", "--scale", "256",
                "--grid", "32", "--placements", "2", "--model", "unet",
                "--out", str(tmp_path / "model.npz"),
                "--checkpoint-dir", str(ckpt_dir)]
        assert main(base + ["--epochs", "1"]) == 0
        bundles = sorted(ckpt_dir.glob("*.npz"))
        assert bundles
        rng = np.random.default_rng(0)
        for path in bundles:
            path.write_bytes(rng.bytes(100))
        capsys.readouterr()
        assert main(base + ["--epochs", "2", "--resume"]) == 0
        captured = capsys.readouterr()
        assert "resumed from epoch" not in captured.out
        assert captured.err == (
            f"warning: quarantined {len(bundles)} corrupt checkpoint "
            f"bundle(s) in {ckpt_dir}; training from epoch 1\n"
        )
        assert len(list((ckpt_dir / "quarantine").iterdir())) == len(bundles)

    def test_train_without_training_samples_is_usage_error(self, tmp_path, capsys):
        rc = main(
            ["train", "--designs", "Design_120", "--scale", "256",
             "--grid", "32", "--placements", "1", "--epochs", "1",
             "--model", "unet", "--out", str(tmp_path / "m.npz")]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--placements" in err
        assert "Traceback" not in err and err.count("\n") == 1
        assert not (tmp_path / "m.npz").exists()

    @pytest.mark.parametrize("model,grid", [("ours", "24"), ("pros2", "20")])
    def test_train_rejected_grid_is_usage_error(self, model, grid, tmp_path,
                                                capsys, monkeypatch):
        # The model is built (and validated) before any dataset work.
        import repro.train

        def no_dataset(*args, **kwargs):
            raise AssertionError("the dataset was built")

        monkeypatch.setattr(repro.train.CongestionDataset, "build", no_dataset)
        rc = main(
            ["train", "--designs", "Design_116", "--scale", "256",
             "--placements", "2", "--grid", grid, "--epochs", "1",
             "--model", model, "--out", str(tmp_path / "m.npz")]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err and err.count("\n") == 1

    @pytest.mark.parametrize("model,grid", [("ours", "24"), ("pros2", "20")])
    def test_analyze_rejected_grid_is_usage_error(self, model, grid, capsys):
        rc = main(["analyze", model, "--preset", "tiny", "--grid", grid])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err and err.count("\n") == 1


class TestAnalysisJSONSchemas:
    """Schema snapshots for the machine-readable analysis reports.

    These lock the top-level contract CI and external tooling consume;
    adding keys is fine, renaming or dropping them must fail here.
    """

    def _json(self, capsys, argv, expect_rc=0):
        import json

        rc = main(argv)
        assert rc == expect_rc
        return json.loads(capsys.readouterr().out)

    def test_analyze_json_schema(self, capsys):
        bundle = self._json(
            capsys,
            ["analyze", "unet", "--preset", "tiny", "--grid", "32",
             "--json"],
        )
        assert bundle["schema"] == "repro.ir/v1"
        (report,) = bundle["reports"]
        assert set(report) >= {
            "schema", "model", "preset", "grid", "graph", "cost",
            "stability", "failures",
        }
        assert report["model"] == "unet"
        assert report["graph"]["nodes"] > 0


class TestExitCodeContract:
    """The unified exit-code table from docs/API.md.

    Every analysis command distinguishes clean (0), blocking findings
    (1), usage errors (2), baseline drift (3) and internal crashes (4);
    these tests pin the shared contract rather than one command's habit.
    """

    def test_constants_are_distinct_and_stable(self):
        from repro.cli import (
            EXIT_BLOCKING,
            EXIT_DRIFT,
            EXIT_INTERNAL,
            EXIT_OK,
            EXIT_USAGE,
        )

        assert (EXIT_OK, EXIT_BLOCKING, EXIT_USAGE, EXIT_DRIFT,
                EXIT_INTERNAL) == (0, 1, 2, 3, 4)

    # One spec per analysis subcommand: a tiny-scale clean invocation,
    # out-of-range numeric arguments that must be usage errors, the
    # baseline filename, and a mutation that drifts one pinned value.
    SUBCOMMANDS = {
        "analyze": {
            "argv": ["analyze", "unet", "--preset", "tiny", "--grid", "32"],
            "usage": [["--grid", "0"], ["--grid", "-4"], ["--top", "-1"],
                      ["--no-determinism"]],
            "baseline": "ir.json",
            "drift": lambda doc: doc["entries"][0].update(
                total_flops=doc["entries"][0]["total_flops"] + 1),
        },
        # The flow commands share the usage half of the contract: sizes,
        # counts and the downscale factor must be positive.
        "place": {
            "argv": ["place", "--design", "Design_120", "--scale", "256",
                     "--iters", "150"],
            "usage": [["--iters", "0"]],
        },
        "score": {
            "argv": ["score", "--design", "Design_120", "--scale", "256"],
            "usage": [["--scale", "0"], ["--scale", "-64"], ["--scale", "nan"]],
        },
        "train": {
            "argv": ["train", "--designs", "Design_120", "--scale", "256",
                     "--grid", "32", "--placements", "2", "--epochs", "1",
                     "--model", "unet"],
            "usage": [["--epochs", "0"], ["--placements", "0"],
                      ["--grid", "0"], ["--checkpoint-every", "0"],
                      ["--designs", "Design_120", "Design_120"]],
        },
    }

    @pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
    def test_contract_holds_for_every_subcommand(
        self, command, tmp_path, capsys, monkeypatch
    ):
        import json

        monkeypatch.chdir(tmp_path)  # train's default --out lands here
        spec = self.SUBCOMMANDS[command]
        argv = list(spec["argv"])
        # 2: usage errors come from argparse before any analysis runs.
        for bad in [["--no-such-flag"], *spec.get("usage", [])]:
            with pytest.raises(SystemExit) as exc:
                main(argv + bad)
            assert exc.value.code == 2, bad
        # 0: the tree is clean at tiny scale.
        assert main(argv) == 0
        if "baseline" not in spec:
            return  # the flow commands carry no baselines
        baseline = tmp_path / spec["baseline"]
        # 0: update then re-check round-trips.
        assert main(argv + ["--update-baseline", str(baseline)]) == 0
        capsys.readouterr()
        assert main(argv + ["--check-baseline", str(baseline)]) == 0
        assert "baseline OK" in capsys.readouterr().out
        # 3: one drifted pinned value fails with a one-line diff.
        doc = json.loads(baseline.read_text())
        spec["drift"](doc)
        baseline.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(argv + ["--check-baseline", str(baseline)]) == 3
        assert "baseline drift" in capsys.readouterr().err
        # 2: a missing or unparsable baseline is a usage error, found
        # before the analysis runs: one error line, no traceback.
        garbled = tmp_path / "garbled.json"
        garbled.write_text("{not json")
        for bad in (tmp_path / "nope.json", garbled):
            capsys.readouterr()
            assert main(argv + ["--check-baseline", str(bad)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ")
            assert captured.err.count("\n") == 1

    def test_table2_repeated_design_is_usage_error(self, capsys,
                                                   monkeypatch):
        # A repeated design used to crash the parallel run (duplicate
        # job keys, exit 4) and double every row of a serial one.
        import repro.contest

        def no_jobs(*args, **kwargs):
            raise AssertionError("a job ran")

        monkeypatch.setattr(repro.contest, "run_table2", no_jobs)
        with pytest.raises(SystemExit) as exc:
            main(["table2", "--designs", "Design_120", "Design_120",
                  "--scale", "256", "--parallel", "2"])
        assert exc.value.code == 2
        assert "Design_120 given more than once" in capsys.readouterr().err

    def test_table2_resume_without_journal_is_usage_error(self, capsys,
                                                          monkeypatch):
        import repro.contest

        def no_jobs(*args, **kwargs):
            raise AssertionError("a job ran")

        monkeypatch.setattr(repro.contest, "run_table2", no_jobs)
        assert main(["table2", "--designs", "Design_120", "--resume"]) == 2
        err = capsys.readouterr().err
        assert err == "error: --resume requires --journal PATH\n"


class TestMoreCommands:
    def test_route_prints_map(self, capsys):
        rc = main(["route", "--design", "Design_120", "--scale", "256"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "levels:" in out

    def test_stats_multiple_designs(self, capsys):
        rc = main(
            ["stats", "--designs", "Design_116", "Design_120",
             "--scale", "256"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Design_116" in out and "Design_120" in out
