"""Declarative campaign specifications.

A :class:`CampaignSpec` is "a base config plus axes": each axis names a
config field and the values to sweep, and the campaign is the cartesian
product of all axes applied to the base. The base may be any trial kind's
config — an :class:`ExperimentConfig`, a
:class:`~repro.geo.config.FederationConfig` or a
:class:`~repro.stream.service.ServiceConfig` — and its type decides the
kind (:func:`repro.campaign.executor.kind_of`). Axis names may be dotted
(``workload.num_jobs``, ``stream.seed``) to reach nested config fields; a
dotted name through a tuple of configs (``regions.scheduler``) applies the
value to every element.

If the spec names a ``baseline`` policy (a scheduler, or a routing policy
for federation trials) that no product trial covers, one baseline trial is
prepended per replicate combination (every axis except the kind's policy
fields), so normalized reports can be computed from the result store
alone.

:func:`campaign_presets` provides named specs for the paper's Table 2/3 and
Fig. 7–19 campaigns at laptop scale (Fig. 15 is a timeline comparison, not a
sweep, and has no campaign preset).
"""

from __future__ import annotations

import dataclasses
import itertools
import typing
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Any, Iterable, Mapping

from repro.carbon.grids import GRID_CODES
from repro.experiments.runner import ExperimentConfig
from repro.workloads.batch import WorkloadSpec

#: Config fields that define *which policy* runs rather than *what it runs
#: on*. Two trials that differ only in these fields share a replicate (same
#: workload, grid, and trace slice), which is what makes their normalized
#: comparison meaningful.
POLICY_FIELDS: tuple[str, ...] = ("scheduler", "gamma", "cap_min_quota", "gh_theta")

#: Config fields that vary replicates of the same cell (averaged over in
#: reports rather than broken out as table rows).
REPLICATE_FIELDS: tuple[str, ...] = ("seed", "trace_start_step")

Axes = Mapping[str, Iterable[Any]] | Iterable[tuple[str, Iterable[Any]]]


def apply_axis(config: Any, field_name: str, value: Any) -> Any:
    """Return ``config`` with one (possibly dotted) field replaced.

    Each dotted step enters a nested config; a step onto a tuple of
    configs (``regions.scheduler``) replaces the field in every element.
    """
    head, _, rest = field_name.partition(".")
    if not rest:
        return replace(config, **{head: value})
    inner = getattr(config, head)
    if isinstance(inner, tuple):
        swept = tuple(apply_axis(item, rest, value) for item in inner)
    else:
        swept = apply_axis(inner, rest, value)
    return replace(config, **{head: swept})


def plain(config: Any) -> dict[str, Any]:
    """Serialize a config dataclass (all nesting) to plain JSON types.

    The store records and trial keys of every trial kind use this form;
    :func:`from_plain` inverts it.
    """

    def _plain(obj: Any) -> Any:
        if isinstance(obj, dict):
            return {k: _plain(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [_plain(v) for v in obj]
        return obj

    return _plain(dataclasses.asdict(config))


@lru_cache(maxsize=None)
def _field_types(cls: type) -> dict[str, Any]:
    return typing.get_type_hints(cls)


def from_plain(cls: type, data: Mapping[str, Any]) -> Any:
    """Rebuild a ``cls`` config from :func:`plain`: mappings become the
    field's dataclass, lists the field's tuple."""

    def revive(hint: Any, value: Any) -> Any:
        if isinstance(value, Mapping):
            options = (hint, *typing.get_args(hint))
            return from_plain(next(filter(dataclasses.is_dataclass, options)), value)
        if isinstance(value, list):
            item = typing.get_args(hint)[0]
            return tuple(revive(item, v) for v in value)
        return value

    types = _field_types(cls)
    return cls(**{name: revive(types[name], v) for name, v in data.items()})


@dataclass(frozen=True)
class CampaignSpec:
    """A named cartesian sweep over the fields of one trial kind's config.

    Parameters
    ----------
    name:
        Campaign identifier (used in store records and the CLI).
    base:
        The config every trial starts from; its type picks the trial kind.
    axes:
        Mapping (or ordered pairs) of field name -> values to sweep. Dotted
        names reach into nested configs (see :func:`apply_axis`).
    baseline:
        Policy every report row is normalized against: a scheduler, or a
        routing policy for federation trials (stream trials have none). If
        none of the product trials run it, baseline trials are added per
        replicate.
    description:
        One line shown by ``repro campaign list``.
    """

    name: str
    base: Any
    axes: tuple[tuple[str, tuple[Any, ...]], ...]
    baseline: str | None = None
    description: str = ""

    def __init__(
        self,
        name: str,
        base: Any,
        axes: Axes,
        baseline: str | None = None,
        description: str = "",
    ) -> None:
        pairs = axes.items() if isinstance(axes, Mapping) else axes
        normalized = tuple((str(k), tuple(v)) for k, v in pairs)
        for field_name, values in normalized:
            if not values:
                raise ValueError(f"axis {field_name!r} has no values")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "axes", normalized)
        object.__setattr__(self, "baseline", baseline)
        object.__setattr__(self, "description", description)
        if baseline is not None and self.kind.baseline_field is None:
            raise ValueError(f"{self.kind.name} campaigns take no baseline")

    @property
    def kind(self):
        """The :class:`~repro.campaign.executor.TrialKind` of the base config."""
        from repro.campaign.executor import kind_of

        return kind_of(self.base)

    # ------------------------------------------------------------------
    def num_trials(self) -> int:
        return len(self.trials())

    def axis_summary(self) -> str:
        """``scheduler×4 · grid×2 · seed×3`` — for listings and banners."""
        return " · ".join(f"{name}×{len(values)}" for name, values in self.axes)

    def _expand(self, axes) -> list[Any]:
        configs = []
        names = [name for name, _ in axes]
        for combo in itertools.product(*(values for _, values in axes)):
            config = self.base
            for field_name, value in zip(names, combo):
                config = apply_axis(config, field_name, value)
            configs.append(config)
        return configs

    def trials(self) -> list[Any]:
        """Expand the spec into concrete, deduplicated trial configs.

        Baseline trials (when needed) come first so a campaign's progress
        stream starts with the rows everything else is normalized against.
        """
        product_trials = self._expand(self.axes)
        configs: list[Any] = []
        kind = self.kind
        field_name = kind.baseline_field
        if self.baseline is not None and not any(
            getattr(c, field_name) == self.baseline for c in product_trials
        ):
            replicate_axes = [
                (name, values)
                for name, values in self.axes
                if name not in kind.policy_fields
            ]
            configs = [
                replace(config, **{field_name: self.baseline})
                for config in self._expand(replicate_axes)
            ]
        configs.extend(product_trials)
        return list(dict.fromkeys(configs))

    def scaled(
        self, num_jobs: int | None = None, num_executors: int | None = None
    ) -> "CampaignSpec":
        """A copy with the base workload/cluster resized (CLI overrides)."""
        base = self.base
        if num_jobs is not None:
            base = replace(base, workload=replace(base.workload, num_jobs=num_jobs))
        if num_executors is not None:
            base = replace(
                base,
                num_executors=num_executors,
                per_job_cap=max(2, num_executors // 4),
            )
        return replace(self, base=base)


def matchup_spec(
    scheduler_names: Iterable[str],
    config: ExperimentConfig,
    name: str = "matchup",
) -> CampaignSpec:
    """The simplest campaign: several schedulers on one identical setup.

    This is what :func:`repro.experiments.runner.run_matchup` expands to.
    """
    return CampaignSpec(
        name=name,
        base=config,
        axes={"scheduler": tuple(scheduler_names)},
        description="one workload, several schedulers",
    )


# ----------------------------------------------------------------------
# Named presets for the paper's campaigns (laptop scale)
# ----------------------------------------------------------------------
def campaign_presets() -> dict[str, CampaignSpec]:
    """Named campaign specs mirroring the paper's tables and sweeps."""
    def tpch(jobs: int, ia: float = 30.0, scales=(2, 10, 50)) -> WorkloadSpec:
        return WorkloadSpec(
            family="tpch", num_jobs=jobs, mean_interarrival=ia, tpch_scales=scales
        )
    prototype = ExperimentConfig(
        mode="kubernetes",
        num_executors=40,
        per_job_cap=10,
        workload=tpch(25, ia=45.0),
        seed=5,
    )
    simulator = ExperimentConfig(
        mode="standalone", num_executors=25, workload=tpch(20), seed=5
    )
    offsets = (0, 977, 1954)  # "uniformly random start times", fixed for replay
    gammas = (0.1, 0.25, 0.5, 0.75, 0.9)

    specs = [
        CampaignSpec(
            "smoke",
            ExperimentConfig(
                num_executors=4, workload=tpch(3, ia=5.0, scales=(2,))
            ),
            axes={"scheduler": ("fifo", "pcaps"), "seed": (0, 1)},
            baseline="fifo",
            description="4-trial sanity campaign (tests, CI)",
        ),
        CampaignSpec(
            "demo",
            ExperimentConfig(
                num_executors=10, workload=tpch(6, ia=20.0, scales=(2, 10))
            ),
            axes={
                "scheduler": ("fifo", "decima", "cap-fifo", "pcaps"),
                "grid": ("DE", "CAISO"),
                "seed": (0, 1, 2),
            },
            baseline="fifo",
            description="24-trial showcase: 4 schedulers × 2 grids × 3 seeds",
        ),
        CampaignSpec(
            "table2",
            replace(prototype, seed=0),
            axes={
                "scheduler": ("k8s-default", "decima", "cap-k8s-default", "pcaps"),
                "grid": GRID_CODES,
                "trace_start_step": offsets,
            },
            baseline="k8s-default",
            description="Table 2: prototype mode, all grids × trace offsets",
        ),
        CampaignSpec(
            "table3",
            replace(simulator, num_executors=40, workload=tpch(25, ia=45.0), seed=0),
            axes={
                "scheduler": (
                    "fifo",
                    "weighted-fair",
                    "decima",
                    "greenhadoop",
                    "cap-fifo",
                    "cap-weighted-fair",
                    "cap-decima",
                    "pcaps",
                ),
                "grid": GRID_CODES,
                "trace_start_step": offsets,
            },
            baseline="fifo",
            description="Table 3: simulator mode, all grids × trace offsets",
        ),
        CampaignSpec(
            "fig7",
            prototype,
            axes={"scheduler": ("pcaps",), "gamma": gammas},
            baseline="k8s-default",
            description="Fig. 7: PCAPS γ sweep, prototype mode, DE",
        ),
        CampaignSpec(
            "fig8",
            prototype,
            axes={
                "scheduler": ("cap-k8s-default",),
                "cap_min_quota": (4, 8, 14, 22, 32),
            },
            baseline="k8s-default",
            description="Fig. 8: CAP B sweep, prototype mode, DE",
        ),
        CampaignSpec(
            "fig9",
            ExperimentConfig(
                mode="kubernetes",
                num_executors=24,
                per_job_cap=6,
                workload=tpch(15),
            ),
            axes={
                "scheduler": ("pcaps", "cap-k8s-default"),
                "seed": tuple(range(8)),
            },
            baseline="k8s-default",
            description="Fig. 9: per-job trials, 8 seed replicates",
        ),
        CampaignSpec(
            "fig10",
            ExperimentConfig(
                mode="kubernetes",
                num_executors=25,
                per_job_cap=6,
                workload=tpch(15),
                seed=2,
            ),
            axes={
                "scheduler": ("decima", "cap-k8s-default", "pcaps"),
                "grid": GRID_CODES,
            },
            baseline="k8s-default",
            description="Fig. 10: per-grid behaviour, prototype mode",
        ),
        CampaignSpec(
            "fig11",
            simulator,
            axes={"scheduler": ("pcaps",), "gamma": gammas},
            baseline="fifo",
            description="Fig. 11: PCAPS γ sweep, simulator mode, DE",
        ),
        CampaignSpec(
            "fig12",
            simulator,
            axes={
                "scheduler": ("cap-fifo",),
                "cap_min_quota": (2, 5, 8, 12, 16, 20),
            },
            baseline="fifo",
            description="Fig. 12: CAP B sweep, simulator mode, DE",
        ),
        CampaignSpec(
            "fig13-pcaps",
            replace(simulator, seed=11),
            axes={
                "scheduler": ("pcaps",),
                "gamma": (0.2, 0.4, 0.5, 0.6, 0.8, 0.95),
            },
            baseline="decima",
            description="Fig. 13: PCAPS frontier branch vs Decima",
        ),
        CampaignSpec(
            "fig13-cap",
            replace(simulator, seed=11),
            axes={
                "scheduler": ("cap-decima",),
                "cap_min_quota": (2, 4, 6, 9, 13, 18),
            },
            baseline="decima",
            description="Fig. 13: CAP-Decima frontier branch vs Decima",
        ),
        CampaignSpec(
            "fig14",
            replace(simulator, workload=tpch(15), seed=2),
            axes={
                "scheduler": ("decima", "cap-fifo", "pcaps"),
                "grid": GRID_CODES,
            },
            baseline="fifo",
            description="Fig. 14: per-grid behaviour, simulator mode",
        ),
        CampaignSpec(
            "fig16-17",
            replace(simulator, seed=6),
            axes={
                "scheduler": ("decima", "cap-fifo", "pcaps"),
                "workload.num_jobs": (6, 12, 25, 50),
            },
            baseline="fifo",
            description="Figs. 16/17: metrics vs batch size, DE",
        ),
        CampaignSpec(
            "fig18-19",
            replace(simulator, seed=6),
            axes={
                "scheduler": ("decima", "cap-fifo", "pcaps"),
                "workload.mean_interarrival": (10.0, 20.0, 30.0, 60.0),
            },
            baseline="fifo",
            description="Figs. 18/19: metrics vs mean interarrival, DE",
        ),
    ]
    return {spec.name: spec for spec in specs}
