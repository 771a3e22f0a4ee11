"""Probabilistic surrogate for Decima [Mao et al., SIGCOMM'19].

The paper interfaces PCAPS with Decima, an RL scheduler whose GNN policy
emits scores over ready stages; a masked softmax turns the scores into the
Definition 4.1 distribution. Training a GNN is out of scope here (and
unnecessary: PCAPS consumes only the distribution), so this surrogate
reproduces the *behavioural profile* the Decima paper reports its trained
policy learns:

1. **SRPT bias** — favour stages of jobs with little remaining work, which
   is the main source of Decima's average-JCT improvement over FIFO/fair
   (Mao et al., Section 7.2 observe learned SRPT-like behaviour).
2. **Bottleneck awareness** — favour stages that gate the most downstream
   work (critical-path pressure), so bottleneck stages receive probability
   mass — the property PCAPS's relative-importance metric relies on.
3. **Locality** — a small bonus for jobs that already hold executors,
   modelling Decima's learned avoidance of executor-movement costs.
4. **Moderated parallelism** — Decima learns per-job parallelism limits
   instead of grabbing whole stages; the surrogate divides the cluster among
   active jobs.

Scores are combined linearly and softmaxed with a temperature; sampling uses
a seeded generator, so experiments are reproducible.

Per-job aggregates (remaining work, bottleneck scores) come from the
memoized :class:`~repro.simulator.state.JobRuntime` accessors, which are
invalidated only on task finish / stage completion — so repeated ``select``
calls within one scheduling event reuse them instead of recomputing
O(stages²) DAG metrics per executor grant.
"""

from __future__ import annotations

import math

import numpy as np

from repro.simulator.interfaces import ProbabilisticPolicy
from repro.simulator.state import ClusterView, FrontierArrays, ReadyStage


class DecimaScheduler(ProbabilisticPolicy):
    """Decima-like probabilistic stage scheduler (Definition 4.1).

    Parameters
    ----------
    seed:
        Seed for action sampling.
    temperature:
        Softmax temperature; lower is greedier (the paper samples from the
        softmax, as we do).
    srpt_weight / bottleneck_weight / locality_weight:
        Coefficients of the three learned biases described above.
    """

    name = "decima"
    #: Sampling runs on FrontierArrays columns; ``scores`` below is the
    #: reference implementation the columnar expression must match bit-for-
    #: bit (pinned by the fingerprint suite and the equivalence tests).
    vectorized = True

    def __init__(
        self,
        seed: int | None = 0,
        temperature: float = 0.25,
        srpt_weight: float = 2.0,
        bottleneck_weight: float = 1.5,
        locality_weight: float = 0.3,
    ) -> None:
        super().__init__(seed=seed, temperature=temperature)
        self.srpt_weight = srpt_weight
        self.bottleneck_weight = bottleneck_weight
        self.locality_weight = locality_weight
        # (matrix object, raw scores, denominator) of the last frontier
        # scored; see _raw_scores.
        self._score_cache: tuple | None = None

    def reset(self) -> None:
        super().reset()
        self._score_cache = None

    def scores(self, view: ClusterView, ready: list[ReadyStage]) -> np.ndarray:
        remaining = {
            job_id: view.job(job_id).remaining_work()
            for job_id in {r.job_id for r in ready}
        }
        max_remaining = max(remaining.values())
        # Per-job score terms are hoisted out of the per-entry loop; the
        # per-entry expression keeps the original operation order, so the
        # resulting floats (and thus sampling) are unchanged.
        denominator = max(max_remaining, 1e-9)
        srpt_term: dict[int, float] = {}
        locality_term: dict[int, float] = {}
        bottlenecks: dict[int, dict[int, float]] = {}
        for job_id in remaining:
            job = view.job(job_id)
            srpt_term[job_id] = self.srpt_weight * (
                1.0 - remaining[job_id] / denominator
            )
            locality_term[job_id] = self.locality_weight * (
                1.0 if job.executors_in_use > 0 else 0.0
            )
            bottlenecks[job_id] = job.bottleneck_scores()
        bottleneck_weight = self.bottleneck_weight
        out = np.empty(len(ready))
        for i, r in enumerate(ready):
            job_id = r.job_id
            bottleneck = bottlenecks[job_id].get(r.stage_id, 0.0)
            out[i] = (
                srpt_term[job_id]
                + bottleneck_weight * bottleneck
                + locality_term[job_id]
            )
        return out

    def scores_from_arrays(
        self, view: ClusterView, frontier: FrontierArrays
    ) -> np.ndarray:
        """Vectorized :meth:`scores`: one array expression per score term.

        Elementwise IEEE-754 operations in the exact order of the scalar
        loop above — ``(srpt + bottleneck_weight * bottleneck) + locality``
        with ``srpt = srpt_weight * (1 - remaining / denominator)`` — so
        every score, and therefore every softmax weight and RNG draw, is
        bit-identical to the tuple path.
        """
        remaining = frontier.remaining_work
        denominator = max(float(remaining.max()), 1e-9)
        srpt = self.srpt_weight * (1.0 - remaining / denominator)
        locality = self.locality_weight * (
            frontier.executors_in_use > 0
        ).astype(float)
        return srpt + self.bottleneck_weight * frontier.bottleneck + locality

    def _raw_scores(self, view: ClusterView, frontier) -> np.ndarray:
        """Score-cache interposer for the sampling entry points.

        Decima's scores are a pure function of the frontier matrix, so
        the same matrix object scores identically (cache hit by identity).
        A row-filtered matrix (blocked entries dropped mid-pass) whose
        parent is the cached matrix reuses the parent's per-row scores
        whenever the SRPT denominator — the only cross-row term —
        survived the filter: each kept row's score then has bit-identical
        inputs, so slicing the cached array equals recomputing. The cache
        stays anchored to the unfiltered matrix (filters within one
        scheduling pass all derive from it), and both shortcuts preserve
        the fingerprint contract exactly.
        """
        cached = self._score_cache
        data = frontier.data
        if cached is not None:
            if cached[0] is data:
                return cached[1]
            if frontier.parent_data is not None and cached[0] is frontier.parent_data:
                remaining = frontier.remaining_work
                if remaining.size:
                    denominator = max(float(remaining.max()), 1e-9)
                    if denominator == cached[2]:
                        return cached[1][frontier.filter_mask]
        raw = self.scores_from_arrays(view, frontier)
        if frontier.parent_data is None:
            denominator = max(
                float(frontier.remaining_work.max()), 1e-9
            ) if len(frontier) else 1e-9
            self._score_cache = (data, raw, denominator)
        return raw

    def _coupled_rows(self, frontier: FrontierArrays) -> np.ndarray:
        """Rows holding the SRPT denominator, the only cross-row term of
        :meth:`scores_from_arrays`: while none is blocked, every other
        row's score keeps bit-identical inputs."""
        remaining = frontier.remaining_work
        return remaining >= max(float(remaining.max()), 1e-9)

    def parallelism_limit(self, view: ClusterView, choice: ReadyStage) -> int:
        """Split the cluster among active jobs (Decima's learned moderation).

        Decima learns that flooding one stage with executors starves other
        jobs; its limits end up near an even division of executors across
        jobs. We cap the chosen stage at ``ceil(K / active jobs)``.
        """
        active = max(view.queued_job_count(), 1)
        share = math.ceil(view.total_executors / active)
        return max(1, min(choice.stage.num_tasks, share))
