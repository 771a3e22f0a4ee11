"""Outside-in span tracer for the benchmark's traced run.

The traced run wraps the public functions of each program layer from here,
never from inside ``src/``: :meth:`Tracer.install` replaces each function or
method with a wrapper that records one span ``(name, start, end, parent)``
per call, and :meth:`Tracer.uninstall` puts the originals back, so timed
runs execute the unmodified program. Spans stay in memory until
:meth:`Tracer.write` dumps them at the end of the run.

A layer's self time is its spans' durations minus the part covered by
child spans. A call into a layer whose innermost open span already has the
same name (PCAPS's ``select_gen`` reaching its inner policy, the failover
router calling its inner router) is folded into the open span, so counts
are decisions, not nesting depth.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Callable

#: Span name -> layer. Every wrapped entry point maps to exactly one layer;
#: ``unit`` and ``setup`` are the benchmark's own root spans.
LAYER_OF = {
    "workloads.build": "workloads",
    "workloads.take": "workloads",
    "carbon.synth": "carbon",
    "carbon.reading": "carbon",
    "carbon.tally": "carbon",
    "simulator.step": "simulator",
    "simulator.retire": "simulator",
    "state.frontier": "state",
    "schedulers.select": "schedulers",
    "core.quota": "core",
    "trace.append": "trace",
    "stream.epoch": "stream",
    "campaign.run": "campaign",
    "campaign.trial": "campaign",
    "campaign.store.append": "campaign",
    "geo.route": "geo",
    "geo.federation": "geo",
    "setup": "other",
    "unit": "other",
}

LAYERS = (
    "workloads",
    "carbon",
    "simulator",
    "state",
    "schedulers",
    "core",
    "trace",
    "stream",
    "campaign",
    "geo",
    "other",
)


def _own_subclasses(base: type, attr: str) -> list[type]:
    """``base`` and every loaded subclass that defines ``attr`` itself."""
    found, todo = [], [base]
    while todo:
        cls = todo.pop()
        if attr in cls.__dict__:
            found.append(cls)
        todo.extend(cls.__subclasses__())
    return sorted(set(found), key=lambda c: (c.__module__, c.__qualname__))


class Tracer:
    """In-memory span recorder plus the layer wiring of the program."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        #: ``(name_id, start, end, parent_index)``; ``None`` while open.
        self.spans: list[tuple[int, float, float, int] | None] = []
        #: ``(span_index, name_id)`` of every open span, innermost last.
        self.stack: list[tuple[int, int]] = []
        #: Outermost selects that returned ``None`` (carbon deferral or an
        #: empty frontier), and selects whose choice received executors.
        self.deferred = 0
        self.useful = 0
        self._grant_pending = False
        self._patches: list[tuple[Any, str, Any]] = []

    # -- span recording -------------------------------------------------
    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(
        self,
        fn: Callable,
        name: str,
        on_return: Callable[[Any], None] | None = None,
    ) -> Callable:
        nid = self.name_id(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            if stack and stack[-1][1] == nid:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            stack.append((index, nid))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (nid, start, end, stack[-1][0] if stack else -1)
            if on_return is not None:
                on_return(result)
            return result

        return traced

    def wrap_generator(
        self, fn: Callable, name: str, on_return: Callable[[Any], None]
    ) -> Callable:
        """Like :meth:`wrap` for generator functions driven by
        ``yield from``: the span stays open while the generator is
        suspended, so work the caller does to answer a yielded request
        (the engine resolving a score request) counts inside it."""
        nid = self.name_id(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            if stack and stack[-1][1] == nid:
                return (yield from fn(*args, **kwargs))
            index = len(spans)
            spans.append(None)
            stack.append((index, nid))
            start = clock()
            try:
                result = yield from fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (nid, start, end, stack[-1][0] if stack else -1)
            on_return(result)
            return result

        return traced

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside one span (the benchmark's root spans)."""
        return self.wrap(fn, name)(*args, **kwargs)

    def _on_select(self, choice) -> None:
        if choice is None:
            self.deferred += 1
        else:
            self._grant_pending = True

    def _on_add_task(self, _handle) -> None:
        if self._grant_pending:
            self.useful += 1
            self._grant_pending = False

    # -- patching -------------------------------------------------------
    def _patch_method(self, cls: type, attr: str, wrapper: Callable) -> None:
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def _patch_function(self, module_name: str, attr: str, name: str) -> None:
        """Replace a module-level function everywhere ``repro`` bound it,
        including ``from module import name`` copies in other modules."""
        original = getattr(sys.modules[module_name], attr)
        wrapper = self.wrap(original, name)
        for mod_name, module in list(sys.modules.items()):
            if not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            if getattr(module, attr, None) is original:
                self._patches.append((module, attr, original))
                setattr(module, attr, wrapper)

    def install(self) -> None:
        """Wrap every layer entry point the benchmark reports on."""
        from repro.campaign.executor import CampaignRunner
        from repro.campaign.store import ResultStore
        from repro.carbon.api import CarbonIntensityAPI
        from repro.geo.federation import Federation
        from repro.geo.routing import RoutingPolicy
        from repro.simulator.engine import SimulationStepper
        from repro.simulator.interfaces import Provisioner, StageScheduler
        from repro.simulator.state import ClusterView
        from repro.simulator.streaming import StreamingAggregator
        from repro.simulator.trace import ScheduleTrace
        from repro.stream.service import ServiceRunner
        from repro.workloads.stream import ArrivalStream

        if self._patches:
            raise RuntimeError("tracer already installed")
        for module_name, attr, name in (
            ("repro.workloads.batch", "build_workload", "workloads.build"),
            ("repro.workloads.tpch", "tpch_job", "workloads.build"),
            ("repro.workloads.arrivals", "submissions_from_dags", "workloads.build"),
            ("repro.carbon.grids", "synthesize_trace", "carbon.synth"),
            ("repro.campaign.executor", "capture_trial_record", "campaign.trial"),
        ):
            self._patch_function(module_name, attr, name)

        methods = [
            (ArrivalStream, "take", "workloads.take"),
            (CarbonIntensityAPI, "reading", "carbon.reading"),
            (ScheduleTrace, "carbon_footprint", "carbon.tally"),
            (StreamingAggregator, "carbon_footprint", "carbon.tally"),
            (SimulationStepper, "step", "simulator.step"),
            (SimulationStepper, "retire_finished", "simulator.retire"),
            (ClusterView, "frontier_arrays", "state.frontier"),
            (ClusterView, "ready_stages", "state.frontier"),
            (ClusterView, "has_assignable", "state.frontier"),
            (ServiceRunner, "run_epoch", "stream.epoch"),
            (CampaignRunner, "run", "campaign.run"),
            (ResultStore, "append", "campaign.store.append"),
            (Federation, "run", "geo.federation"),
        ]
        for trace_cls in (ScheduleTrace, StreamingAggregator):
            for attr in ("task_done", "add_hold", "add_quota"):
                methods.append((trace_cls, attr, "trace.append"))
        methods += [
            (cls, "quota", "core.quota")
            for cls in _own_subclasses(Provisioner, "quota")
        ]
        methods += [
            (cls, "route", "geo.route")
            for cls in _own_subclasses(RoutingPolicy, "route")
        ]
        for cls, attr, name in methods:
            self._patch_method(cls, attr, self.wrap(cls.__dict__[attr], name))
        for trace_cls in (ScheduleTrace, StreamingAggregator):
            self._patch_method(
                trace_cls,
                "add_task",
                self.wrap(
                    trace_cls.__dict__["add_task"],
                    "trace.append",
                    on_return=self._on_add_task,
                ),
            )
        for cls in _own_subclasses(StageScheduler, "select_gen"):
            self._patch_method(
                cls,
                "select_gen",
                self.wrap_generator(
                    cls.__dict__["select_gen"],
                    "schedulers.select",
                    self._on_select,
                ),
            )

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    # -- analysis -------------------------------------------------------
    def closed_spans(self) -> list[tuple[int, float, float, int]]:
        if self.stack:
            raise RuntimeError("spans still open")
        return self.spans  # type: ignore[return-value]

    def summary(self, first: int = 0) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds, over the spans
        recorded from index ``first`` on (children never precede parents,
        so a suffix of the span list is closed under parenthood)."""
        spans = self.closed_spans()
        child = [0.0] * len(spans)
        for nid, start, end, parent in spans[first:]:
            if parent >= first:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for index in range(first, len(spans)):
            nid, start, end, _parent = spans[index]
            row = out.setdefault(
                self.names[nid], {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += (end - start) - child[index]
        return out

    def durations(self, name: str, first: int = 0) -> list[float]:
        nid = self._ids.get(name)
        return [
            end - start
            for span_nid, start, end, _ in self.closed_spans()[first:]
            if span_nid == nid
        ]

    def write(self, path: Path) -> None:
        """Dump every span: ``[name_id, start_s, duration_s, parent]``,
        times relative to the first span."""
        spans = self.closed_spans()
        origin = spans[0][1] if spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": self.names,
                    "fields": ["name", "start_s", "duration_s", "parent"],
                    "spans": [
                        [nid, round(start - origin, 9), round(end - start, 9), parent]
                        for nid, start, end, parent in spans
                    ],
                },
                fh,
                separators=(",", ":"),
            )


def quantile(values: list[float], q: float) -> float:
    """The ``q`` quantile (0 < q < 1) by ``statistics.quantiles``'
    exclusive method; the sole value for a single sample."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[round(q * 100) - 1]
