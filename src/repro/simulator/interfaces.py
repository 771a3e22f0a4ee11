"""Scheduler and provisioner interfaces.

Two orthogonal extension points mirror the paper's architecture:

- a :class:`StageScheduler` decides *which ready stage* gets executors next
  (Spark's stage scheduling); :class:`ProbabilisticPolicy` is the
  Definition 4.1 refinement that PCAPS wraps;
- a :class:`Provisioner` decides *how many executors the whole cluster may
  use* (CAP's resource quota, GreenHadoop's window-derived limit), enforced
  by the engine without preemption.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.simulator.state import ClusterView, FrontierArrays, ReadyStage


def _verify_inline_choice() -> bool:
    """Check that the inlined sampler reproduces ``Generator.choice``.

    The vectorized sampling path inlines the cumsum/searchsorted core of
    ``Generator.choice(n, p=...)`` to skip its per-call validation
    overhead. The inline is only used when this probe — a spread of sizes,
    skews, and seeds, including the post-draw generator state — confirms
    the installed numpy's ``choice`` consumes and transforms randomness
    the same way; otherwise the real method is called and only the
    validation savings are lost.
    """
    probe = np.random.default_rng(0)
    for _ in range(64):
        n = int(probe.integers(1, 40))
        weights = probe.random(n) ** 2 + 1e-12
        p = weights / weights.sum()
        seed = int(probe.integers(0, 2**31))
        real, ours = np.random.default_rng(seed), np.random.default_rng(seed)
        cdf = p.cumsum()
        cdf /= cdf[-1]
        if int(real.choice(n, p=p)) != int(
            cdf.searchsorted(ours.random(), side="right")
        ):
            return False
        if real.random() != ours.random():
            return False
    return True


_INLINE_CHOICE_OK: bool | None = None


def _sample_index(rng: np.random.Generator, p: np.ndarray) -> int:
    """``int(rng.choice(len(p), p=p))``, minus the validation overhead.

    Bit-identical to the real call (same cdf arithmetic, same single
    ``rng.random()`` draw), enforced by :func:`_verify_inline_choice` once
    per process with automatic fallback — so the tuple and columnar
    scheduler paths always sample identically.
    """
    global _INLINE_CHOICE_OK
    if _INLINE_CHOICE_OK is None:
        _INLINE_CHOICE_OK = _verify_inline_choice()
    if _INLINE_CHOICE_OK:
        cdf = p.cumsum()
        cdf /= cdf[-1]
        return int(cdf.searchsorted(rng.random(), side="right"))
    return int(rng.choice(len(p), p=p))


@dataclass
class ScoreRequest:
    """A select generator's request to score-and-sample one frontier.

    The generator-based select paths (:meth:`StageScheduler.select_gen`)
    yield one of these at the exact point the sync path would start
    computing ``softmax(raw_scores(view, frontier))``, then receive the
    outcome back via ``send``. Driving a generator inline with
    :func:`drive_select` resolves each request through the identical
    operation sequence as the pre-generator sync path, so a solo run's
    floats (and therefore its RNG draws and its schedule fingerprint)
    are unchanged.

    Two kinds, matching the two sampling entry points:

    - ``"sample"`` (from :meth:`sample_with_importance_gen`): the reply
      is the full outcome — ``(ReadyStage, importance)`` or ``None`` —
      including the Decima action-mask renormalization and the RNG draw
      from the requesting policy's own generator;
    - ``"select"`` (from :meth:`ProbabilisticPolicy.select_gen`): the
      reply is the sampled frontier index (an ``int``).
    """

    policy: "ProbabilisticPolicy"
    view: ClusterView
    frontier: FrontierArrays
    kind: str = "sample"

    def resolve(self):
        """Resolve solo, exactly as the pre-generator sync path would."""
        policy, view, frontier = self.policy, self.view, self.frontier
        if self.kind == "select":
            probs = policy._softmax(policy._raw_scores(view, frontier))
            return _sample_index(policy._rng, probs)
        assignable = np.flatnonzero(frontier.slots > 0)
        unfiltered = frontier.parent_data is None
        if assignable.size == 0:
            if unfiltered:
                policy._dist_cache = (frontier.data, None, None, assignable)
            return None
        # _softmax, with the exp-weights kept for the scoring session.
        weights = policy._exp_weights(policy._raw_scores(view, frontier))
        probs = weights / weights.sum()
        # Only unfiltered matrices repeat across calls (mid-pass filtered
        # retries are one-shot); caching them would evict the reusable
        # entry.
        if unfiltered:
            policy._dist_cache = (frontier.data, weights, probs, assignable)
        return policy._finish_sample(view, frontier, weights, probs, assignable)


def drive_select(gen):
    """Run a select generator to completion, resolving requests inline.

    The sync trampoline: equivalent to the pre-generator select methods
    call for call, because :meth:`ScoreRequest.resolve` is the same
    ``_softmax(_raw_scores(...))`` expression the sync path inlined.
    """
    try:
        request = next(gen)
        while True:
            request = gen.send(request.resolve())
    except StopIteration as stop:
        return stop.value


#: What :meth:`ProbabilisticPolicy._resample_blocked` returns when a
#: blocked retry must rescore the frontier.
_RESCORE = object()


@dataclass(frozen=True)
class StageChoice:
    """A scheduler's decision: grow this stage, up to this parallelism.

    ``parallelism_limit`` bounds the stage's *concurrent* executors (running
    plus newly assigned); ``None`` means "no limit beyond the task count".
    """

    job_id: int
    stage_id: int
    parallelism_limit: int | None = None


class StageScheduler(abc.ABC):
    """Picks one ready stage per call; the engine loops until executors run
    out, the scheduler declines (returns ``None``), or nothing is ready."""

    #: Display name used in result tables.
    name: str = "scheduler"

    #: Spark standalone semantics: executors granted to a job stay bound to
    #: it (idle but unavailable, still drawing power) until the job
    #: completes. Appendix A.1.2 attributes FIFO's inflated JCT *and* carbon
    #: footprint in the simulator to exactly this hoarding; dynamic-
    #: allocation schedulers (Decima, the Kubernetes default) release
    #: executors after each task.
    holds_executors: bool = False

    @abc.abstractmethod
    def select(self, view: ClusterView) -> StageChoice | None:
        """Choose a stage to receive executors, or ``None`` to idle.

        Returning ``None`` leaves all remaining free executors idle until
        the next scheduling event (job arrival, task completion, or carbon
        step) — the deferral mechanism of Algorithm 1.
        """

    def select_gen(self, view: ClusterView):
        """Generator twin of :meth:`select` (see :class:`ScoreRequest`).

        The default never yields, so the engine's ``yield from`` simply
        returns the sync decision. Probabilistic policies override this
        with a generator that yields its score requests.
        """
        return self.select(view)
        yield  # pragma: no cover - unreachable; marks a generator function

    def reset(self) -> None:
        """Clear any per-experiment state (default: stateless)."""


class ProbabilisticPolicy(StageScheduler):
    """A Definition 4.1 scheduler: emits a distribution over ready stages.

    Subclasses implement :meth:`scores`; the base class converts scores to a
    masked-softmax distribution, samples from it, and exposes both — which is
    exactly the interface PCAPS consumes (probabilities plus a sampled node).

    Subclasses that can score the frontier as one array expression set
    ``vectorized = True`` and implement :meth:`scores_from_arrays`; the
    sampling entry points (:meth:`select`, :meth:`sample_with_importance`)
    then operate on :class:`~repro.simulator.state.FrontierArrays` columns
    instead of per-entry tuples — same floats, same RNG draws, so sampled
    schedules are bit-identical to the tuple path (the property the
    pinned-fingerprint suite enforces).
    """

    #: True when :meth:`scores_from_arrays` is implemented and the sampling
    #: entry points should take the columnar fast path. Subclasses that only
    #: override :meth:`scores` keep the tuple path.
    vectorized: bool = False

    def __init__(self, seed: int | None = 0, temperature: float = 1.0) -> None:
        if temperature <= 0:
            raise ValueError("temperature must be positive")
        self.temperature = temperature
        self._seed = seed
        self._rng = np.random.default_rng(seed)
        # (matrix object, exp-weights, probs, assignable) of the last
        # columnar frontier scored; see sample_with_importance.
        self._dist_cache: tuple | None = None
        # The last columnar draw, (view, blocked count, (job, stage), row,
        # frontier, exp-weights), and the scoring session opened on its
        # frontier; see sample_with_importance_gen.
        self._last: tuple | None = None
        self._session: tuple | None = None

    def reset(self) -> None:
        self._rng = np.random.default_rng(self._seed)
        self._dist_cache = None
        self._last = None
        self._session = None

    def __getstate__(self) -> dict:
        # The last draw and its session belong to one grant pass's view
        # (which holds the engine's caches and obs probes); a restored run
        # builds new views, so neither could be used again.
        state = self.__dict__.copy()
        state["_last"] = state["_session"] = None
        return state

    @abc.abstractmethod
    def scores(self, view: ClusterView, ready: list[ReadyStage]) -> np.ndarray:
        """Unnormalized preference scores, one per entry of ``ready``."""

    def scores_from_arrays(
        self, view: ClusterView, frontier: FrontierArrays
    ) -> np.ndarray:
        """Columnar twin of :meth:`scores` (only when ``vectorized``).

        Must return, for any frontier, the bit-identical float per entry
        that :meth:`scores` returns for the equivalent tuple list: the
        sampling entry points feed the result into the same softmax and
        RNG, and the engine's replay determinism rests on the two paths
        agreeing exactly.

        Must also be a *pure function of the frontier matrix*
        (``frontier.data``): the sampling entry points cache the scored
        distribution per matrix object, so scores that secretly read
        other view state would go stale. Policies that need such state
        must keep ``vectorized = False``.
        """
        raise NotImplementedError

    def _raw_scores(
        self, view: ClusterView, frontier: FrontierArrays
    ) -> np.ndarray:
        """Hook between the sampling entry points and
        :meth:`scores_from_arrays`; subclasses may interpose caching (see
        :class:`~repro.schedulers.decima.DecimaScheduler`)."""
        return self.scores_from_arrays(view, frontier)

    def _coupled_rows(self, frontier: FrontierArrays) -> np.ndarray | None:
        """Rows whose removal can change another row's raw score.

        The scoring session reuses a pass's scores across blocked retries
        only while no such row is blocked. ``None`` (the default) says the
        coupling is unknown, so every blocked retry rescores the frontier.
        """
        return None

    def parallelism_limit(self, view: ClusterView, choice: ReadyStage) -> int:
        """Parallelism limit for a chosen stage (default: all its tasks)."""
        return choice.stage.num_tasks

    def _softmax(self, raw: np.ndarray) -> np.ndarray:
        """Temperature-scaled softmax, shared by both scoring paths.

        One function on purpose: the float operation order is part of the
        bit-identity contract between the tuple and columnar paths.
        """
        weights = self._exp_weights(raw)
        return weights / weights.sum()

    def _exp_weights(self, raw: np.ndarray) -> np.ndarray:
        """The softmax numerators. The rows holding the scaled maximum
        weigh exactly ``exp(0.0) == 1.0``."""
        scaled = raw / self.temperature
        scaled -= scaled.max()
        return np.exp(scaled)

    def distribution(
        self, view: ClusterView, ready: list[ReadyStage]
    ) -> np.ndarray:
        """Masked softmax over the ready frontier (Decima's action head)."""
        if not ready:
            return np.zeros(0)
        raw = np.asarray(self.scores(view, ready), dtype=float)
        if raw.shape != (len(ready),):
            raise ValueError("scores must return one value per ready stage")
        return self._softmax(raw)

    def sample(
        self, view: ClusterView, ready: list[ReadyStage]
    ) -> tuple[int, np.ndarray]:
        """Sample an index into ``ready``; also return the distribution."""
        probs = self.distribution(view, ready)
        index = int(self._rng.choice(len(ready), p=probs))
        return index, probs

    def sample_with_importance(
        self, view: ClusterView
    ) -> tuple[ReadyStage, float] | None:
        """Sample an assignable stage plus its Definition 4.2 importance.

        The distribution is computed over the *full* frontier ``A_t``
        (including stages whose tasks are all in flight — they carry
        probability mass and anchor the normalization) while sampling is
        restricted to assignable stages, mirroring Decima's action mask.
        Returns ``None`` when nothing is assignable.
        """
        return drive_select(self.sample_with_importance_gen(view))

    def _draw(self, probs: np.ndarray, rows: np.ndarray) -> int:
        """Renormalize the assignable slice ``probs`` and draw one of
        ``rows``: the action-mask tail every columnar resolution path
        shares. One function on purpose — its float-operation order is
        part of the bit-identity contract."""
        total = probs.sum()
        if total <= 0:
            probs = np.full(len(rows), 1.0 / len(rows))
        else:
            probs = probs / total
        return int(rows[_sample_index(self._rng, probs)])

    def _finish_sample(
        self,
        view: ClusterView,
        full: FrontierArrays,
        weights: np.ndarray,
        probs: np.ndarray,
        assignable: np.ndarray,
    ) -> tuple[ReadyStage, float]:
        """Draw under the action mask, compute the Definition 4.2
        importance, and remember the draw for a blocked retry."""
        pick = self._draw(probs[assignable], assignable)
        peak = probs.max()
        importance = float(probs[pick] / peak) if peak > 0 else 1.0
        entry = full.entry(pick)
        self._last = (
            view, len(view.blocked_pairs), (entry.job_id, entry.stage_id),
            pick, full, weights,
        )
        return entry, importance

    def _resample_blocked(self, view: ClusterView, last: tuple):
        """A blocked retry's draw from the pass's scoring session.

        ``last`` is the previous draw on ``view``, and the engine has
        blocked exactly that pick since. The session, opened here on the
        first such block it can serve, keeps the drawn frontier's exp-weights and masks
        out each blocked row. The surviving rows' weights are then the
        floats a rescore of the filtered frontier would compute, as long
        as no blocked row held the scaled maximum (``weight == 1.0``) or a
        cross-row score term (:meth:`_coupled_rows`); such a block returns
        ``_RESCORE``. The draw repeats the rescore's operations: the
        surviving sum, the assignable renormalization, one
        :func:`_sample_index` draw. The peak probability is ``1 / total``
        exactly, since the surviving maximum weight is ``1.0``.
        """
        _, blocks, _, row, base, weights = last
        stats = view.cache_stats
        session = self._session
        if session is None or session[0] is not base:
            # Opened lazily, on a first block it can serve: a pass that
            # never blocks, or first blocks its top row, pays nothing.
            coupled = None if weights[row] == 1.0 else self._coupled_rows(base)
            session = self._session = None if coupled is None else (
                base,
                np.ones(len(base), dtype=bool),  # rows not blocked
                base.slots > 0,  # rows not blocked and assignable
                coupled | (weights == 1.0),  # rows a block must rescore
            )
        if session is None or session[3][row]:
            self._session = None
            if stats is not None:
                stats.session_fallbacks.inc()
            return _RESCORE
        if stats is not None:
            stats.session_reuses.inc()
        keep, open_rows = session[1], session[2]
        keep[row] = False
        open_rows[row] = False
        rows = np.flatnonzero(open_rows)
        if rows.size == 0:
            return None
        total = weights[keep].sum()
        pick = self._draw(weights[rows] / total, rows)
        importance = float(weights[pick] / total / (1.0 / total))
        entry = base.entry(pick)
        self._last = (
            view, blocks + 1, (entry.job_id, entry.stage_id),
            pick, base, weights,
        )
        return entry, importance

    def sample_with_importance_gen(self, view: ClusterView):
        """Generator form of :meth:`sample_with_importance`.

        Yields one :class:`ScoreRequest` on a distribution-cache miss;
        cache hits (deferral streaks re-sampling an unchanged frontier)
        and blocked retries the scoring session serves never yield.
        """
        if self.vectorized:
            last, self._last = self._last, None
            if last is not None and last[0] is view:
                pairs = view.blocked_pairs
                if len(pairs) == last[1] + 1 and pairs[-1] == last[2]:
                    sampled = self._resample_blocked(view, last)
                    if sampled is not _RESCORE:
                        return sampled
            full = view.frontier_arrays(include_saturated=True)
            cache = self._dist_cache
            if cache is not None and cache[0] is full.data:
                # Same matrix object as the last call (nothing launched or
                # finished in between — e.g. a deferral streak across
                # carbon steps): the distribution is unchanged; only the
                # RNG advances.
                weights, probs, assignable = cache[1], cache[2], cache[3]
                if assignable.size == 0:
                    return None
                return self._finish_sample(
                    view, full, weights, probs, assignable
                )
            return (yield ScoreRequest(self, view, full, "sample"))
        full = view.ready_stages(include_saturated=True)
        assignable = [i for i, r in enumerate(full) if r.slots > 0]
        if not assignable:
            return None
        probs = self.distribution(view, full)
        weights = probs[assignable]
        total = weights.sum()
        if total <= 0:
            weights = np.full(len(assignable), 1.0 / len(assignable))
        else:
            weights = weights / total
        pick = assignable[int(self._rng.choice(len(assignable), p=weights))]
        peak = probs.max()
        importance = float(probs[pick] / peak) if peak > 0 else 1.0
        return full[pick], importance

    def select(self, view: ClusterView) -> StageChoice | None:
        return drive_select(self.select_gen(view))

    def select_gen(self, view: ClusterView):
        if self.vectorized:
            frontier = view.frontier_arrays()
            mask = frontier.slots > 0
            if not mask.any():
                return None
            if not mask.all():
                frontier = frontier.compress(mask)
            index = yield ScoreRequest(self, view, frontier, "select")
            chosen = frontier.entry(index)
        else:
            ready = view.ready_stages()
            ready = [r for r in ready if r.slots > 0]
            if not ready:
                return None
            index, _ = self.sample(view, ready)
            chosen = ready[index]
        return StageChoice(
            job_id=chosen.job_id,
            stage_id=chosen.stage_id,
            parallelism_limit=self.parallelism_limit(view, chosen),
        )


class Provisioner(abc.ABC):
    """Computes the cluster-wide executor quota at a point in time."""

    name: str = "provisioner"

    @abc.abstractmethod
    def quota(self, view: ClusterView) -> int:
        """Maximum number of busy executors allowed at ``view.time``.

        The engine enforces the quota without preemption: running tasks
        always finish, but no new assignment is made while ``busy >= quota``.
        """

    def scale_parallelism(self, limit: int, view: ClusterView) -> int:
        """Optionally shrink a scheduler-chosen parallelism limit.

        Default: identity. CAP overrides this with ``ceil(P * r(t)/K)``
        (Section 5.1, "Setting level of parallelism").
        """
        return limit

    def reset(self) -> None:
        """Clear any per-experiment state (default: stateless)."""


class StaticProvisioner(Provisioner):
    """A fixed quota — useful for tests and for modelling smaller clusters."""

    def __init__(self, quota: int) -> None:
        if quota < 1:
            raise ValueError("quota must be >= 1")
        self._quota = quota
        self.name = f"static({quota})"

    def quota(self, view: ClusterView) -> int:
        return self._quota
