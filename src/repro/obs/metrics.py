"""The metrics registry: counters, gauges, histograms, timers.

Instruments are plain mutable objects handed out once by a
:class:`MetricsRegistry` and then incremented inline — probe sites hold a
direct reference, so a hot-path update is one attribute store, never a
dictionary lookup. Nothing here touches random state or allocates per
update (histograms pre-allocate their bucket arrays), which is what lets
the engine keep its bit-identity contract with instrumentation enabled.

Snapshots serialize to JSONL (one metric per line, see
:meth:`MetricsRegistry.write_jsonl`) so they can sit next to the campaign
result store and be diffed or aggregated with the same line-oriented
tooling.
"""

from __future__ import annotations

import json
import time
from bisect import bisect_left
from pathlib import Path
from typing import Any, Iterator
from repro.ioutil import atomic_write_text

#: Histogram bucket upper bounds: a 1-2-5 ladder across 10 decades
#: (1e-7 .. 999), sized for latencies in seconds but generic. The last
#: bucket is an overflow catch-all.
_BUCKET_BOUNDS: tuple[float, ...] = tuple(
    m * 10.0**e for e in range(-7, 3) for m in (1.0, 2.0, 5.0)
)


class Counter:
    """Monotone event count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def snapshot(self) -> dict[str, Any]:
        return {"name": self.name, "type": "counter", "value": self.value}


class Gauge:
    """Last-set value, with a high-water helper for peaks."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def high_water(self, value: float) -> None:
        if value > self.value:
            self.value = value

    def snapshot(self) -> dict[str, Any]:
        return {"name": self.name, "type": "gauge", "value": self.value}


class Histogram:
    """Fixed-bucket distribution (1-2-5 log ladder) plus running stats.

    Recording is O(log buckets) with no allocation; quantiles are
    estimated by linear interpolation inside the containing bucket, exact
    at the recorded min/max endpoints.
    """

    __slots__ = ("name", "counts", "count", "total", "min", "max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.counts = [0] * (len(_BUCKET_BOUNDS) + 1)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def record(self, value: float) -> None:
        self.counts[bisect_left(_BUCKET_BOUNDS, value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (0..1) from the bucket counts."""
        if not self.count:
            return 0.0
        target = q * self.count
        seen = 0
        for i, n in enumerate(self.counts):
            if n == 0:
                continue
            if seen + n >= target:
                lo = _BUCKET_BOUNDS[i - 1] if i > 0 else 0.0
                hi = (
                    _BUCKET_BOUNDS[i]
                    if i < len(_BUCKET_BOUNDS)
                    else max(self.max, lo)
                )
                lo = max(lo, self.min)
                hi = min(hi, self.max)
                if hi <= lo:
                    return lo
                frac = (target - seen) / n
                return lo + frac * (hi - lo)
            seen += n
        return self.max

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready view: exact ``count``/``sum``/``mean``/``min``/``max``
        straight off the running stats (no bucket interpolation) and the
        interpolated ladder quantiles."""
        return {
            "name": self.name,
            "type": "histogram",
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


class Timer:
    """Context manager recording wall-clock durations into a histogram."""

    __slots__ = ("histogram", "_t0")

    def __init__(self, histogram: Histogram) -> None:
        self.histogram = histogram
        self._t0 = 0.0

    def __enter__(self) -> "Timer":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        self.histogram.record(time.perf_counter() - self._t0)


class MetricsRegistry:
    """Named instruments, created on first request and shared thereafter."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name)
        return instrument

    def timer(self, name: str) -> Timer:
        return Timer(self.histogram(name))

    def __iter__(self) -> Iterator[Counter | Gauge | Histogram]:
        yield from self._counters.values()
        yield from self._gauges.values()
        yield from self._histograms.values()

    def __len__(self) -> int:
        return (
            len(self._counters) + len(self._gauges) + len(self._histograms)
        )

    def snapshot(self) -> list[dict[str, Any]]:
        """Every instrument as a JSON-ready dict, sorted by name."""
        return sorted(
            (instrument.snapshot() for instrument in self),
            key=lambda row: row["name"],
        )

    def value(self, name: str) -> Any:
        """The current value of a named counter or gauge (tests, reports)."""
        if name in self._counters:
            return self._counters[name].value
        if name in self._gauges:
            return self._gauges[name].value
        raise KeyError(name)

    def write_jsonl(
        self, path: str | Path, meta: dict[str, Any] | None = None
    ) -> Path:
        """Serialize the snapshot to ``path``: a meta header line, then one
        line per metric. Returns the path written."""
        header = {"type": "meta", "generated_at": _utc_now(), **(meta or {})}
        lines = [json.dumps(header, sort_keys=True)]
        lines += [
            json.dumps(row, sort_keys=True) for row in self.snapshot()
        ]
        # Atomic (temp + rename): an interrupted run never leaves a
        # half-written snapshot.
        return atomic_write_text(Path(path), "\n".join(lines) + "\n")


def read_jsonl(path: str | Path) -> tuple[dict[str, Any], list[dict[str, Any]]]:
    """Load a metrics snapshot: ``(meta, metric rows)``."""
    meta: dict[str, Any] = {}
    rows: list[dict[str, Any]] = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        row = json.loads(line)
        if row.get("type") == "meta":
            meta = row
        else:
            rows.append(row)
    return meta, rows


def _utc_now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
