"""repro.campaign — parallel experiment-campaign orchestration.

The paper's evaluation is hundreds of (scheduler × grid × workload × seed ×
trace-slice) trials: Tables 2/3 average repeated trials at random trace start
times and Figs. 7–19 are parameter sweeps. This package turns those sweeps
into declarative, resumable, cached campaigns:

- :mod:`repro.campaign.spec` — :class:`CampaignSpec` expands cartesian grids
  over the fields of one trial kind's config into concrete trial lists,
  with named presets for the paper's campaigns;
- :mod:`repro.campaign.cache` — content-addressed trial keys (config hash ×
  code version) so re-runs and overlapping sweeps skip completed trials;
- :mod:`repro.campaign.store` — an append-only JSONL result store holding
  per-trial metric summaries;
- :mod:`repro.campaign.executor` — the trial-kind table (single-cluster
  experiments, geo federations, streaming service runs) and one
  supervised process-pool runner for all of them, with failure
  isolation, progress callbacks, and resume-from-store;
- :mod:`repro.campaign.geo` / :mod:`repro.campaign.stream` — the
  federation and stream kinds' presets, metrics and report tables;
- :mod:`repro.campaign.supervise` — the resilience policy (per-trial
  timeouts, seeded-backoff retries, quarantine, mid-flight checkpoints)
  the executor enforces;
- :mod:`repro.campaign.reports` — replicate aggregation (mean/p50/p95) and
  baseline-normalized tables from stored records alone.

Quickstart::

    from repro.campaign import CampaignRunner, ResultStore, campaign_presets

    spec = campaign_presets()["demo"]
    runner = CampaignRunner(ResultStore("campaign-results.jsonl"))
    run = runner.run(spec)            # fans trials across worker processes
    rerun = runner.run(spec)          # 100% cache hits, zero simulations
    assert rerun.stats.hit_rate == 1.0
"""

from repro.campaign.cache import CacheStats, trial_key
from repro.campaign.executor import CampaignRun, CampaignRunner
from repro.campaign.geo import format_geo_report, geo_campaign_report, geo_presets
from repro.campaign.reports import campaign_report, format_campaign_report
from repro.campaign.spec import CampaignSpec, campaign_presets, matchup_spec
from repro.campaign.store import ResultStore, StoreCheck, TrialRecord
from repro.campaign.supervise import (
    CampaignInterrupted,
    CheckpointPolicy,
    SupervisorConfig,
)

__all__ = [
    "CacheStats",
    "CampaignInterrupted",
    "CampaignRun",
    "CampaignRunner",
    "CampaignSpec",
    "CheckpointPolicy",
    "ResultStore",
    "StoreCheck",
    "SupervisorConfig",
    "TrialRecord",
    "campaign_presets",
    "campaign_report",
    "format_campaign_report",
    "format_geo_report",
    "geo_campaign_report",
    "geo_presets",
    "matchup_spec",
    "trial_key",
]
