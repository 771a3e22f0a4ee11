"""Streaming campaigns: sweeps over service-mode runs.

The stream trial kind of :mod:`repro.campaign.executor`: a
:class:`~repro.campaign.spec.CampaignSpec` whose base is a
:class:`~repro.stream.service.ServiceConfig` sweeps service runs, keyed
(under ``kind: "stream"``) into the same append-only
:class:`~repro.campaign.store.ResultStore`, and re-runs skip completed
trials. ``stream.*`` axes reach the :class:`StreamSpec`, ``experiment.*``
the :class:`~repro.experiments.runner.ExperimentConfig`.

Key stability (the resume-from-store fix this module exists for): the trial
key serializes the *full* stream spec — family, rate, scales, seed,
horizon/max-jobs bounds, **and gc policy** — alongside the experiment
config, so a streaming campaign resumed against an existing store matches
exactly the trials it already ran. Service *cadence* fields
(``epoch_events``, checkpoint knobs) are deliberately excluded: they never
change metrics (pinned by ``tests/test_stream.py``), so re-running with a
different epoch size or checkpoint cadence still resumes cleanly.
"""

from __future__ import annotations

from typing import Any

from repro.campaign.executor import TrialKind
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import TrialRecord
from repro.experiments.runner import ExperimentConfig
from repro.stream.service import ServiceConfig, StreamReport, run_service
from repro.workloads.stream import StreamSpec

#: ServiceConfig fields excluded from the trial key: pure cadence, proven
#: metrics-neutral, so changing them must not orphan stored results.
CADENCE_FIELDS = ("epoch_events", "checkpoint_every_epochs", "checkpoint_dir")


def stream_metrics(report: StreamReport) -> dict[str, Any]:
    """The summary serialized for one successful streaming trial."""
    return {
        **report.summary,
        "fingerprint": report.fingerprint,
        "jobs_arrived": report.jobs_arrived,
        "jct_mean": report.jct_moments["mean"],
        "jct_std": report.jct_moments["std"],
        "stretch_mean": report.stretch_moments["mean"],
        "stretch_std": report.stretch_moments["std"],
        "windows": len(report.windows),
    }


def stream_presets() -> dict[str, CampaignSpec]:
    """Named streaming campaign specs (laptop scale)."""
    smoke_base = ServiceConfig(
        experiment=ExperimentConfig(scheduler="fifo", num_executors=6),
        stream=StreamSpec(
            mean_interarrival=20.0, tpch_scales=(2,), max_jobs=40
        ),
        epoch_events=512,
    )
    steady_base = ServiceConfig(
        experiment=ExperimentConfig(scheduler="pcaps", num_executors=16),
        stream=StreamSpec(
            mean_interarrival=20.0, tpch_scales=(2,), max_jobs=2000
        ),
        window_s=3600.0,
        epoch_events=8192,
    )
    specs = [
        CampaignSpec(
            "stream-smoke",
            smoke_base,
            axes={"experiment.scheduler": ("fifo", "pcaps")},
            description="2-trial streaming sanity campaign (tests, CI)",
        ),
        CampaignSpec(
            "stream-steady",
            steady_base,
            axes={
                "experiment.scheduler": ("fifo", "decima", "pcaps"),
                "stream.seed": (0, 1),
            },
            description="steady-state service runs: 3 schedulers × 2 "
            "arrival seeds, 2000 jobs each in O(1) memory",
        ),
    ]
    return {spec.name: spec for spec in specs}


def stream_trial_label(config: ServiceConfig) -> str:
    stream = config.stream
    bound = (
        f"jobs={stream.max_jobs}"
        if stream.max_jobs is not None
        else f"horizon={stream.horizon_s}s"
        if stream.horizon_s is not None
        else "unbounded"
    )
    return (
        f"{config.experiment.scheduler} stream {stream.family} {bound} "
        f"ia={stream.mean_interarrival:g}s seed={stream.seed}"
    )


def _execute(
    key: str, config: ServiceConfig, attempt: int, checkpoint
) -> StreamReport:
    # Service runs keep their own checkpoint cadence (ServiceConfig), not
    # the campaign supervisor's trial policy.
    return run_service(config)


TRIAL_KIND = TrialKind(
    name="stream",
    config_type=ServiceConfig,
    execute=_execute,
    metrics=stream_metrics,
    label=stream_trial_label,
    key_tag="stream",
    key_excluded=CADENCE_FIELDS,
)


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def stream_campaign_report(
    records: list[TrialRecord],
) -> list[dict[str, Any]]:
    """Mean summary metrics per scheduler over the spec's ``ok`` records."""
    by_scheduler: dict[str, list[TrialRecord]] = {}
    for record in records:
        if record.ok:
            scheduler = record.config["experiment"]["scheduler"]
            by_scheduler.setdefault(scheduler, []).append(record)

    def mean_of(group: list[TrialRecord], metric: str) -> float:
        return sum(r.metrics[metric] for r in group) / len(group)

    rows = [
        {
            "scheduler": scheduler,
            "replicates": len(group),
            "carbon_footprint": mean_of(group, "carbon_footprint"),
            "avg_jct": mean_of(group, "avg_jct"),
            "ect": mean_of(group, "ect"),
            "utilization": mean_of(group, "utilization"),
            "stretch_mean": mean_of(group, "stretch_mean"),
            "jobs": sum(int(r.metrics["num_jobs"]) for r in group),
        }
        for scheduler, group in by_scheduler.items()
    ]
    rows.sort(key=lambda r: r["carbon_footprint"])
    return rows


def format_stream_campaign_report(
    rows: list[dict[str, Any]], title: str = ""
) -> str:
    lines = []
    if title:
        lines.append(title)
    lines.append(
        f"{'scheduler':<16} {'n':>3} {'jobs':>7} {'carbon':>12} "
        f"{'ECT':>9} {'JCT':>9} {'util':>6} {'stretch':>8}"
    )
    for row in rows:
        lines.append(
            f"{row['scheduler']:<16} {row['replicates']:>3} "
            f"{row['jobs']:>7} {row['carbon_footprint']:>12.1f} "
            f"{row['ect']:>9.1f} {row['avg_jct']:>9.1f} "
            f"{row['utilization']:>6.3f} {row['stretch_mean']:>8.2f}"
        )
    return "\n".join(lines)
