"""Tests for geo campaigns (``repro.campaign.geo``) and the ``repro geo`` CLI."""

import pytest

from repro.campaign import CampaignRunner, CampaignSpec, ResultStore, trial_key
from repro.campaign.geo import (
    format_geo_report,
    geo_campaign_report,
    geo_presets,
)
from repro.campaign.spec import apply_axis, from_plain, plain
from repro.cli import main
from repro.geo import FederationConfig, RegionConfig
from repro.workloads.batch import WorkloadSpec


def tiny_base(**overrides) -> FederationConfig:
    params = dict(
        regions=(
            RegionConfig(name="de", grid="DE", scheduler="fifo",
                         num_executors=3),
            RegionConfig(name="on", grid="ON", scheduler="fifo",
                         num_executors=3),
        ),
        routing="round-robin",
        workload=WorkloadSpec(num_jobs=4, mean_interarrival=8.0,
                              tpch_scales=(2,)),
    )
    params.update(overrides)
    return FederationConfig(**params)


def geo_spec(axes) -> CampaignSpec:
    return CampaignSpec("t", tiny_base(), axes=axes, baseline="round-robin")


class TestSerialization:
    def test_round_trip(self):
        config = tiny_base(routing="carbon-forecast", seed=9)
        assert from_plain(FederationConfig, plain(config)) == config

    def test_key_is_content_addressed(self):
        config = tiny_base()
        assert trial_key(config, "v1") == trial_key(config, "v1")
        assert trial_key(config, "v1") != trial_key(
            config.with_routing("queue-aware"), "v1"
        )
        assert trial_key(config, "v1") != trial_key(config, "v2")


class TestSpec:
    def test_axes_expand_cartesian(self):
        spec = geo_spec({"routing": ("round-robin", "carbon-greedy"), "seed": (0, 1)})
        trials = spec.trials()
        assert len(trials) == 4
        assert {t.routing for t in trials} == {"round-robin", "carbon-greedy"}

    def test_baseline_trials_injected_when_missing(self):
        spec = geo_spec({"routing": ("carbon-forecast",), "seed": (0, 1)})
        trials = spec.trials()
        baselines = [t for t in trials if t.routing == "round-robin"]
        assert len(baselines) == 2  # one per seed replicate

    def test_dotted_axes_reach_nested_configs(self):
        config = tiny_base()
        assert apply_axis(config, "workload.num_jobs", 9).workload.num_jobs == 9
        assert apply_axis(
            config, "transfer.kwh_per_gb", 0.5
        ).transfer.kwh_per_gb == 0.5
        swept = apply_axis(config, "regions.scheduler", "pcaps")
        assert all(r.scheduler == "pcaps" for r in swept.regions)

    def test_presets_include_geo_sweep(self):
        presets = geo_presets()
        assert "geo-sweep" in presets and "geo-smoke" in presets
        sweep = presets["geo-sweep"]
        assert len(sweep.base.regions) == 6
        routings = dict(sweep.axes)["routing"]
        assert set(routings) == {
            "round-robin", "queue-aware", "carbon-greedy", "carbon-forecast",
        }
        for spec in presets.values():
            assert spec.trials(), spec.name


class TestExecution:
    def test_run_populates_store_and_resumes(self, tmp_path):
        spec = geo_spec({"routing": ("round-robin", "carbon-greedy")})
        store = ResultStore(tmp_path / "geo.jsonl")
        first = CampaignRunner(store, workers=0).run(spec)
        assert first.stats.misses == 2 and not first.failures
        second = CampaignRunner(store, workers=0).run(spec)
        assert second.stats.hits == 2 and second.stats.misses == 0
        assert [r.key for r in first.records] == [r.key for r in second.records]

    def test_pool_execution_matches_inline(self, tmp_path):
        """Geo trials fan out across the shared campaign process pool."""
        spec = geo_spec({"routing": ("round-robin", "carbon-greedy")})
        pooled = CampaignRunner(
            ResultStore(tmp_path / "pool.jsonl"), workers=2
        ).run(spec)
        inline = CampaignRunner(
            ResultStore(tmp_path / "inline.jsonl"), workers=0
        ).run(spec)
        assert not pooled.failures
        by_key_pool = {r.key: r.metrics for r in pooled.records}
        by_key_inline = {r.key: r.metrics for r in inline.records}
        assert by_key_pool == by_key_inline  # determinism across processes

    def test_failure_isolated_as_error_record(self, tmp_path, monkeypatch):
        spec = geo_spec({"routing": ("round-robin",)})
        monkeypatch.setattr(
            "repro.campaign.geo.run_federation",
            lambda config: (_ for _ in ()).throw(RuntimeError("boom")),
        )
        run = CampaignRunner(ResultStore(tmp_path / "geo.jsonl"), workers=0).run(spec)
        assert len(run.failures) == 1
        assert "boom" in run.failures[0].error

    def test_cached_progress_lines_increment(self, tmp_path):
        spec = geo_spec({"routing": ("round-robin", "carbon-greedy")})
        store = ResultStore(tmp_path / "geo.jsonl")
        CampaignRunner(store, workers=0).run(spec)
        lines: list[tuple[int, int, str]] = []
        CampaignRunner(store, workers=0).run(
            spec, on_progress=lambda d, t, line: lines.append((d, t, line))
        )
        assert [(d, t) for d, t, _ in lines] == [(1, 2), (2, 2)]
        assert all(line.startswith("cached ") for _, _, line in lines)

    def test_report_normalizes_to_baseline(self, tmp_path):
        spec = geo_spec({"routing": ("round-robin", "carbon-greedy"), "seed": (0, 1)})
        run = CampaignRunner(ResultStore(tmp_path / "geo.jsonl"), workers=0).run(spec)
        rows = geo_campaign_report(run.records, baseline="round-robin")
        by_routing = {row["routing"]: row for row in rows}
        assert by_routing["round-robin"]["carbon_reduction_pct"] == pytest.approx(0.0)
        assert by_routing["round-robin"]["replicates"] == 2
        table = format_geo_report(rows, title="x")
        assert "carbon-greedy" in table and "Δcarbon" in table


class TestCLI:
    GEO_ARGS = [
        "--regions", "DE,ON", "--scheduler", "fifo", "--executors", "3",
        "--jobs", "4", "--interarrival", "8",
    ]

    def test_cli_routing_choices_mirror_registry(self):
        """build_parser avoids importing repro.geo; pin the literal copy."""
        from repro.cli import GEO_ROUTING_CHOICES
        from repro.geo.routing import ROUTING_POLICY_NAMES

        assert GEO_ROUTING_CHOICES == ROUTING_POLICY_NAMES

    def test_cli_origin_normalized_and_validated(self, capsys):
        assert main(["geo", "run", *self.GEO_ARGS, "--origin", "DE"]) == 0
        capsys.readouterr()
        assert main(["geo", "run", *self.GEO_ARGS, "--origin", "caiso"]) == 2
        assert "unknown origin region" in capsys.readouterr().err

    def test_geo_run(self, capsys):
        assert main(["geo", "run", *self.GEO_ARGS]) == 0
        out = capsys.readouterr().out
        assert "routing 'carbon-forecast'" in out and "total" in out

    def test_geo_run_rejects_unknown_grid(self, capsys):
        assert main(["geo", "run", "--regions", "DE,MOON"]) == 2
        assert "unknown grids" in capsys.readouterr().err

    def test_geo_run_rejects_invalid_region_lists(self, capsys):
        assert main(["geo", "run", "--regions", "DE,DE"]) == 2
        assert "invalid federation" in capsys.readouterr().err
        assert main(["geo", "run", "--regions", ""]) == 2
        assert "invalid federation" in capsys.readouterr().err

    def test_geo_compare(self, capsys):
        assert main(["geo", "compare", *self.GEO_ARGS]) == 0
        out = capsys.readouterr().out
        for routing in ("round-robin", "queue-aware", "carbon-greedy",
                        "carbon-forecast"):
            assert routing in out

    def test_geo_sweep(self, tmp_path, capsys):
        """The sweep prints the campaign-run summary and the trial-health
        block: a trial that fails its first attempt shows up as flaky."""
        from repro import faults

        flaky_key = trial_key(geo_presets()["geo-smoke"].trials()[0])
        plan = faults.FaultPlan(
            rules=(faults.FaultRule("error", key_prefix=flaky_key, occasions=(1,)),)
        )
        store = str(tmp_path / "geo.jsonl")
        with faults.injecting(plan):
            assert main(
                ["geo", "sweep", "geo-smoke", "--store", store, "--workers", "0"]
            ) == 0
        out = capsys.readouterr().out
        assert "2 trials" in out and "0 failed" in out
        assert "cache hit rate 0.0%" in out
        assert f"flaky  {flaky_key[:12]}: ok on attempt 2" in out
        assert "InjectedFault" in out
        assert out.count("flaky ") == 1

    def test_geo_sweep_unknown_preset(self, capsys):
        assert main(["geo", "sweep", "nope"]) == 2
        assert "unknown geo campaign" in capsys.readouterr().err
