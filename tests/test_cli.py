"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_run_parses_schedulers(self):
        args = build_parser().parse_args(
            ["run", "fifo", "pcaps", "--grid", "CAISO", "--jobs", "3"]
        )
        assert args.schedulers == ["fifo", "pcaps"]
        assert args.grid == "CAISO"

    def test_sweep_requires_knob(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep"])

    def test_invalid_grid_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fifo", "--grid", "MARS"])


class TestCommands:
    def test_grids(self, capsys):
        assert main(["grids"]) == 0
        out = capsys.readouterr().out
        assert "CAISO" in out and "coal" in out

    def test_table1(self, capsys):
        assert main(["table1", "--hours", "500"]) == 0
        out = capsys.readouterr().out
        assert "paper-mean" in out

    def test_fig1(self, capsys):
        assert main(["fig1", "--gamma", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "T-OPT" in out and "C-OPT" in out

    def test_run_small_matchup(self, capsys):
        code = main(
            [
                "run", "fifo", "pcaps",
                "--jobs", "3", "--executors", "4", "--seed", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "pcaps" in out and "carbon_red%" in out

    def test_run_unknown_scheduler(self, capsys):
        assert main(["run", "not-a-scheduler", "--jobs", "2"]) == 2
        captured = capsys.readouterr()
        assert "unknown schedulers" in captured.err
        assert captured.out == ""

    def test_run_adds_baseline_if_missing(self, capsys):
        code = main(
            [
                "run", "pcaps", "--baseline", "decima",
                "--jobs", "3", "--executors", "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "decima" in out

    def test_sweep_gamma(self, capsys):
        code = main(
            [
                "sweep", "gamma", "--values", "0.2", "0.8",
                "--jobs", "3", "--executors", "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "0.20" in out and "0.80" in out

    def test_sweep_b(self, capsys):
        code = main(
            [
                "sweep", "B", "--values", "2", "4",
                "--jobs", "3", "--executors", "4", "--baseline", "fifo",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "2.00" in out


class TestCampaignCommands:
    def test_campaign_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign"])

    def test_campaign_list(self, capsys):
        assert main(["campaign", "list"]) == 0
        out = capsys.readouterr().out
        assert "demo" in out and "table3" in out and "fig18-19" in out

    def test_campaign_unknown_name(self, capsys):
        assert main(["campaign", "run", "not-a-campaign"]) == 2
        assert "unknown campaign" in capsys.readouterr().err

    def test_campaign_report_without_store(self, tmp_path, capsys):
        store = str(tmp_path / "never-written.jsonl")
        assert main(["campaign", "report", "smoke", "--store", store]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_campaign_resume_without_store(self, tmp_path, capsys):
        store = str(tmp_path / "never-written.jsonl")
        assert main(["campaign", "resume", "smoke", "--store", store]) == 2
        assert "nothing to resume" in capsys.readouterr().err

    @pytest.mark.parametrize("executors", ["0", "-1"])
    def test_campaign_run_rejects_nonpositive_executors(
        self, tmp_path, capsys, executors
    ):
        store = tmp_path / "never-written.jsonl"
        argv = ["campaign", "run", "demo", "--store", str(store)]
        assert main(argv + ["--executors", executors, "--workers", "0"]) == 2
        assert "num_executors must be >= 1" in capsys.readouterr().err
        assert not store.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["campaign", "run", "demo"],
            ["campaign", "resume", "demo"],
            ["geo", "sweep", "geo-smoke"],
            ["disrupt", "sweep"],
            ["stream", "sweep", "stream-smoke"],
        ],
        ids=" ".join,
    )
    def test_negative_workers_rejected(self, capsys, argv):
        assert build_parser().parse_args(argv + ["--workers", "0"]).workers == 0
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv + ["--workers", "-1"])
        assert exc.value.code == 2
        assert "must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["campaign", "run", "smoke"],
            ["geo", "sweep", "geo-smoke"],
            ["disrupt", "sweep"],
            ["stream", "sweep", "stream-smoke"],
        ],
        ids=" ".join,
    )
    def test_interrupted_sweep_exits_130(self, tmp_path, capsys, monkeypatch, argv):
        """SIGINT/SIGTERM surface as CampaignInterrupted from the runner;
        every sweep command reports it and exits 130 instead of raising."""
        from repro.campaign import CampaignInterrupted, CampaignRunner

        def interrupted(self, spec, resume=True, on_progress=None):
            raise CampaignInterrupted(completed=1, pending=3)

        monkeypatch.setattr(CampaignRunner, "run", interrupted)
        store = str(tmp_path / "store.jsonl")
        assert main(argv + ["--store", store, "--workers", "0"]) == 130
        out = capsys.readouterr().out
        assert "interrupted: " in out
        assert "done in" not in out

    def test_campaign_run_rerun_and_report(self, tmp_path, capsys):
        store = str(tmp_path / "smoke.jsonl")
        base = ["campaign", "run", "smoke", "--store", store, "--workers", "0"]

        assert main(base) == 0
        first = capsys.readouterr().out
        assert "4 simulated, 0 cached" in first
        assert "cache hit rate 0.0%" in first

        assert main(base + ["--quiet"]) == 0
        rerun = capsys.readouterr().out
        assert "0 simulated, 4 cached" in rerun
        assert "cache hit rate 100.0%" in rerun

        assert main(["campaign", "report", "smoke", "--store", store]) == 0
        report = capsys.readouterr().out
        assert "4/4 trials in store" in report
        # The report from the store alone matches the table the run printed.
        assert report.strip().splitlines()[-1] in rerun


class TestObsCommands:
    def test_obs_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["obs"])

    def test_log_level_flag_parses(self):
        args = build_parser().parse_args(["--log-level", "debug", "grids"])
        assert args.log_level == "debug"

    def test_obs_flag_writes_artifacts(self, tmp_path, capsys):
        import json

        obs_dir = tmp_path / "obs"
        code = main(
            [
                "run", "fifo", "--jobs", "3", "--executors", "4",
                "--obs", "--obs-dir", str(obs_dir),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "obs: wrote" in captured.err
        metrics = obs_dir / "metrics.jsonl"
        trace = obs_dir / "trace.json"
        assert metrics.exists() and trace.exists()
        doc = json.loads(trace.read_text())
        assert any(e.get("ph") == "X" for e in doc["traceEvents"])

    def test_obs_report_renders_snapshot(self, tmp_path, capsys):
        obs_dir = tmp_path / "obs"
        main(
            [
                "run", "fifo", "--jobs", "3", "--executors", "4",
                "--obs", "--obs-dir", str(obs_dir),
            ]
        )
        capsys.readouterr()
        code = main(
            ["obs", "report", "--metrics", str(obs_dir / "metrics.jsonl")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "engine.events.task_done" in out
        assert "obs snapshot" in out

    def test_obs_report_missing_snapshot(self, tmp_path, capsys):
        missing = str(tmp_path / "nope" / "metrics.jsonl")
        assert main(["obs", "report", "--metrics", missing]) == 2
        assert "no metrics snapshot" in capsys.readouterr().err

    def test_obs_dashboard_builds_html(self, tmp_path, capsys):
        output = tmp_path / "dash" / "index.html"
        code = main(
            [
                "obs", "dashboard", "--output", str(output),
                "--bench", "--store", "--obs-dir",
            ]
        )
        assert code == 0
        assert "wrote" in capsys.readouterr().out
        text = output.read_text()
        assert text.startswith("<!DOCTYPE html>")
        assert "repro dashboard" in text

    def test_obs_report_empty_directory(self, tmp_path, capsys):
        """A directory argument resolves the conventional snapshot name —
        and fails cleanly when the directory holds none."""
        empty = tmp_path / "obs"
        empty.mkdir()
        assert main(["obs", "report", "--metrics", str(empty)]) == 2
        err = capsys.readouterr().err
        assert "no metrics snapshot" in err and "metrics.jsonl" in err

    def test_obs_report_corrupt_snapshot(self, tmp_path, capsys):
        bad = tmp_path / "metrics.jsonl"
        bad.write_text("{definitely not json\n")
        assert main(["obs", "report", "--metrics", str(bad)]) == 2
        assert "unreadable metrics snapshot" in capsys.readouterr().err

    def test_obs_dashboard_named_obs_dir_must_exist(self, tmp_path, capsys):
        empty = tmp_path / "obs"
        empty.mkdir()
        code = main(
            [
                "obs", "dashboard",
                "--output", str(tmp_path / "index.html"),
                "--obs-dir", str(empty),
            ]
        )
        assert code == 2
        assert "has no metrics.jsonl" in capsys.readouterr().err

    def test_obs_dashboard_missing_history_dir(self, tmp_path, capsys):
        code = main(
            [
                "obs", "dashboard",
                "--output", str(tmp_path / "index.html"),
                "--history-dir", str(tmp_path / "absent"),
            ]
        )
        assert code == 2
        assert "does not exist" in capsys.readouterr().err

    def test_obs_dashboard_empty_history_dir(self, tmp_path, capsys):
        empty = tmp_path / "bench-history"
        empty.mkdir()
        code = main(
            [
                "obs", "dashboard",
                "--output", str(tmp_path / "index.html"),
                "--history-dir", str(empty),
            ]
        )
        assert code == 2
        assert "is empty" in capsys.readouterr().err


class TestObsRegressCommand:
    def write_history(self, root, rates):
        import json

        for i, rate in enumerate(rates):
            snap = root / f"run-{i:08d}"
            snap.mkdir(parents=True)
            (snap / "BENCH_engine.json").write_text(
                json.dumps(
                    {
                        "benchmark": "engine-throughput",
                        "scenarios": [
                            {"name": "smoke", "events_per_s": rate}
                        ],
                    }
                )
            )
        return root

    def test_missing_history_dir(self, tmp_path, capsys):
        code = main(
            ["obs", "regress", "--history-dir", str(tmp_path / "absent")]
        )
        assert code == 2
        assert "does not exist" in capsys.readouterr().err

    def test_healthy_history_passes(self, tmp_path, capsys):
        root = self.write_history(
            tmp_path / "h", [1000.0, 1010.0, 990.0, 1005.0]
        )
        assert main(["obs", "regress", "--history-dir", str(root)]) == 0
        assert "verdict: PASS" in capsys.readouterr().out

    def test_regression_fails_the_gate(self, tmp_path, capsys):
        root = self.write_history(
            tmp_path / "h", [1000.0, 1010.0, 990.0, 800.0]
        )
        assert main(["obs", "regress", "--history-dir", str(root)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSED" in out and "FAIL" in out

    def test_json_output(self, tmp_path, capsys):
        import json

        root = self.write_history(tmp_path / "h", [1000.0, 1000.0, 780.0])
        code = main(
            ["obs", "regress", "--history-dir", str(root), "--json"]
        )
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is False
        assert doc["findings"][0]["metric"] == "engine events/s (mean)"

    def test_tolerance_and_min_points_flags(self, tmp_path, capsys):
        root = self.write_history(tmp_path / "h", [1000.0, 800.0])
        # Two points: advisory under the default min-points of 3...
        assert main(["obs", "regress", "--history-dir", str(root)]) == 0
        capsys.readouterr()
        # ...enforced once min-points is lowered to match the history.
        code = main(
            [
                "obs", "regress", "--history-dir", str(root),
                "--min-points", "2",
            ]
        )
        assert code == 1
        capsys.readouterr()
        # ...and a wide-enough tolerance waves the same drop through.
        code = main(
            [
                "obs", "regress", "--history-dir", str(root),
                "--min-points", "2", "--tolerance", "0.5",
            ]
        )
        assert code == 0


class TestStreamExportCommands:
    def test_bad_slo_rule_fails_cleanly(self, capsys):
        code = main(
            ["stream", "run", "--jobs", "2", "--slo", "not a rule !!"]
        )
        assert code == 2
        assert "cannot parse SLO rule" in capsys.readouterr().err

    def test_stream_run_with_export_and_slo(self, tmp_path, capsys):
        from repro.obs.export import read_samples
        from repro.obs.slo import read_alerts

        samples = tmp_path / "samples.jsonl"
        alerts = tmp_path / "alerts.jsonl"
        code = main(
            [
                "stream", "run", "--jobs", "4", "--seed", "1",
                "--epoch-events", "64", "--quiet",
                "--export-jsonl", str(samples),
                "--slo", "jct=avg_jct>0.0@1",
                "--alerts-output", str(alerts),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "jobs arrived" in captured.out
        assert "alert transition(s)" in captured.err
        rows = read_samples(samples)
        assert rows and rows[0]["epoch"] == 1
        meta, transitions = read_alerts(alerts)
        assert meta["label"] == "stream run"
        assert any(t["state"] == "firing" for t in transitions)

    def test_stream_run_with_ephemeral_export_port(self, capsys):
        code = main(
            [
                "stream", "run", "--jobs", "3", "--seed", "2",
                "--epoch-events", "64", "--quiet", "--export-port", "0",
            ]
        )
        assert code == 0
        assert "exposition endpoint: http://" in capsys.readouterr().err
