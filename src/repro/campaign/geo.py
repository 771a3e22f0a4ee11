"""Geo campaigns: cartesian sweeps over federation-config fields.

The federation trial kind of :mod:`repro.campaign.executor`: a
:class:`~repro.campaign.spec.CampaignSpec` whose base is a
:class:`~repro.geo.config.FederationConfig` sweeps federation trials,
keyed (under ``kind: "federation"``) into the same append-only
:class:`~repro.campaign.store.ResultStore` and run by the same
:class:`~repro.campaign.executor.CampaignRunner`. Axis names may be
dotted: ``workload.*`` reaches the shared
:class:`~repro.workloads.batch.WorkloadSpec`, ``transfer.*`` the
:class:`~repro.geo.config.TransferModel`, and ``regions.*`` applies one
override to *every* member region (e.g. ``regions.scheduler`` sweeps the
intra-cluster scheduler federation-wide). The ``baseline`` is a routing
policy.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.campaign.executor import CampaignRunner, TrialKind
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import TrialRecord
from repro.disrupt.schedule import DisruptionSchedule
from repro.geo.config import FederationConfig, RegionConfig
from repro.geo.federation import run_federation
from repro.geo.result import FederationResult
from repro.workloads.batch import WorkloadSpec


def federation_metrics(result: FederationResult) -> dict[str, Any]:
    """The summary serialized for one successful federation trial."""
    return {
        "total_carbon_g": result.total_carbon_g,
        "compute_carbon_g": result.compute_carbon_g,
        "transfer_carbon_g": result.transfer_carbon_g,
        "ect": result.ect,
        "avg_jct": result.avg_jct,
        "avg_stretch": result.avg_stretch,
        "num_jobs": result.num_jobs,
        "moved_jobs": result.moved_jobs(),
        "jobs_per_region": result.jobs_per_region(),
        "rerouted_jobs": len(result.reroutes),
        "migrated_jobs": result.migrated_jobs(),
        "failover_transfer_carbon_g": result.failover_transfer_carbon_g,
    }


def geo_trial_label(config: FederationConfig) -> str:
    label = (
        f"{config.routing} regions={len(config.regions)} "
        f"seed={config.seed}"
    )
    if config.disruptions is not None:
        label += (
            f" disrupted×{len(config.disruptions)}"
            f" failover={'on' if config.failover else 'off'}"
        )
    return label


def _execute(
    key: str, config: FederationConfig, attempt: int, checkpoint
) -> FederationResult:
    # Federation trials compose many steppers and do not checkpoint
    # mid-flight, so the supervisor's checkpoint policy is ignored.
    return run_federation(config)


TRIAL_KIND = TrialKind(
    name="federation",
    config_type=FederationConfig,
    execute=_execute,
    metrics=federation_metrics,
    label=geo_trial_label,
    key_tag="federation",
    baseline_field="routing",
    policy_fields=("routing",),
)

#: The one runner serves federation campaigns too; the name stays for
#: callers that import it from here.
GeoCampaignRunner = CampaignRunner


def geo_presets() -> dict[str, CampaignSpec]:
    """Named geo campaign specs (laptop scale)."""
    tiny = WorkloadSpec(family="tpch", num_jobs=6, mean_interarrival=10.0,
                        tpch_scales=(2,))
    sweep_workload = WorkloadSpec(
        family="tpch", num_jobs=24, mean_interarrival=20.0, tpch_scales=(2, 10)
    )
    specs = [
        CampaignSpec(
            "geo-smoke",
            FederationConfig(
                regions=(
                    RegionConfig(name="de", grid="DE", scheduler="fifo",
                                 num_executors=4),
                    RegionConfig(name="on", grid="ON", scheduler="fifo",
                                 num_executors=4),
                ),
                workload=tiny,
            ),
            axes={"routing": ("round-robin", "carbon-forecast")},
            baseline="round-robin",
            description="2-trial federation sanity campaign (tests, CI)",
        ),
        CampaignSpec(
            "geo-sweep",
            FederationConfig.six_grid(
                scheduler="pcaps", num_executors=10, workload=sweep_workload
            ),
            axes={
                "routing": (
                    "round-robin",
                    "queue-aware",
                    "carbon-greedy",
                    "carbon-forecast",
                ),
                "seed": (0, 1, 2),
            },
            baseline="round-robin",
            description="six-grid federation: 4 routing policies × 3 seeds",
        ),
        CampaignSpec(
            "disrupt-sweep",
            FederationConfig(
                regions=(
                    RegionConfig(name="de", grid="DE", scheduler="pcaps",
                                 num_executors=8),
                    RegionConfig(name="on", grid="ON", scheduler="pcaps",
                                 num_executors=8),
                    RegionConfig(name="caiso", grid="CAISO", scheduler="pcaps",
                                 num_executors=8),
                ),
                workload=WorkloadSpec(
                    family="tpch", num_jobs=18, mean_interarrival=15.0,
                    tpch_scales=(2,),
                ),
                disruptions=DisruptionSchedule.generate(
                    seed=7,
                    regions=("de", "on", "caiso"),
                    horizon_s=900.0,
                    num_outages=2,
                    mean_outage_s=600.0,
                    num_curtailments=1,
                    num_blackouts=1,
                ),
            ),
            axes={
                "routing": (
                    "round-robin",
                    "queue-aware",
                    "carbon-forecast",
                ),
                "failover": (True, False),
                "seed": (0, 1),
            },
            baseline="round-robin",
            description="outage/curtailment/blackout resilience: "
            "failover on vs off, per routing policy",
        ),
        CampaignSpec(
            "geo-schedulers",
            FederationConfig.six_grid(num_executors=10, workload=sweep_workload),
            axes={
                "routing": ("round-robin", "carbon-forecast"),
                "regions.scheduler": ("fifo", "decima", "pcaps"),
            },
            baseline="round-robin",
            description="does intra-cluster carbon-awareness still pay "
            "under spatial routing?",
        ),
    ]
    return {spec.name: spec for spec in specs}


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def geo_campaign_report(
    records: list[TrialRecord], baseline: str = "round-robin"
) -> list[dict[str, Any]]:
    """Mean metrics per routing policy, normalized to the baseline policy.

    Groups the spec's ``ok`` records by routing, averages the global
    metrics over replicates, and reports carbon change vs. the baseline
    routing's mean — the geo analogue of the paper's normalized tables.
    """
    by_routing: dict[str, list[TrialRecord]] = {}
    for record in records:
        if record.ok:
            by_routing.setdefault(record.config["routing"], []).append(record)

    def mean_of(group: list[TrialRecord], metric: str) -> float:
        return float(np.mean([r.metrics[metric] for r in group]))

    means = {
        routing: {
            metric: mean_of(group, metric)
            for metric in ("total_carbon_g", "ect", "avg_jct", "avg_stretch")
        }
        for routing, group in by_routing.items()
    }
    base = means.get(baseline)
    rows = []
    for routing, m in means.items():
        row = {
            "routing": routing,
            "replicates": len(by_routing[routing]),
            **m,
        }
        if base is not None and base["total_carbon_g"] > 0:
            row["carbon_reduction_pct"] = 100.0 * (
                1.0 - m["total_carbon_g"] / base["total_carbon_g"]
            )
            row["ect_ratio"] = (
                m["ect"] / base["ect"] if base["ect"] > 0 else 1.0
            )
            row["jct_ratio"] = (
                m["avg_jct"] / base["avg_jct"] if base["avg_jct"] > 0 else 1.0
            )
        rows.append(row)
    rows.sort(key=lambda r: r["total_carbon_g"])
    return rows


def format_geo_report(rows: list[dict[str, Any]], title: str = "") -> str:
    lines = []
    if title:
        lines.append(title)
    lines.append(
        f"{'routing':<18} {'n':>3} {'carbon_g':>10} {'Δcarbon':>9} "
        f"{'ECT':>8} {'JCT':>8} {'stretch':>8}"
    )
    for row in rows:
        delta = (
            f"{row['carbon_reduction_pct']:>+8.1f}%"
            if "carbon_reduction_pct" in row
            else f"{'—':>9}"
        )
        lines.append(
            f"{row['routing']:<18} {row['replicates']:>3} "
            f"{row['total_carbon_g']:>10.1f} {delta} "
            f"{row['ect']:>8.1f} {row['avg_jct']:>8.1f} "
            f"{row['avg_stretch']:>8.2f}"
        )
    return "\n".join(lines)
