"""SHA-256 fingerprint tests: the engine's bit-identity contract.

Seven pinned-seed scenarios — one per scheduler family (plain, holding,
probabilistic, provisioned, combined) — are each fingerprinted over their
task/hold/quota records and ex-post carbon tally. The suite pins three
properties:

- determinism: running the identical scenario twice produces the identical
  fingerprint;
- stepper equivalence: submitting everything up front and draining through
  ``SimulationStepper`` reproduces ``Simulation.run()`` exactly;
- disruption neutrality: a stepper with an *empty*
  :class:`~repro.disrupt.schedule.DisruptionSchedule` installed (and the
  no-op capacity verbs exercised) still replays bit-identically — the
  disruption machinery is invisible until a schedule actually fires.

A blocked-heavy PCAPS trial rides along with the rerun and tuple-path
checks: the pinned pcaps scenario barely blocks, so it hardly reaches the
scoring session that serves blocked retries, and the tuple path, which
never opens one, is the independent reference.
"""

import pytest

from repro import obs
from repro.disrupt import (
    DisruptionEvent,
    DisruptionSchedule,
    install_disruptions,
)
from repro.experiments.runner import ExperimentConfig, workload_for
from repro.workloads.batch import WorkloadSpec

from fingerprint_scenarios import (  # noqa: F401  (re-exported for suites)
    PINNED_SCENARIOS,
    SCENARIO_IDS,
    build_simulation,
    run_fingerprint,
    schedule_fingerprint,
)

#: ``pcaps-batch``-shaped, scaled down: most selects are blocked retries.
#: Outside PINNED_SCENARIOS, which keeps one scenario per scheduler.
BLOCKED_PCAPS = ExperimentConfig(
    scheduler="pcaps", num_executors=10, seed=7,
    workload=WorkloadSpec(num_jobs=40, tpch_scales=(2, 10, 50)),
)
CHECKED_SCENARIOS = [*PINNED_SCENARIOS, BLOCKED_PCAPS]
CHECKED_IDS = [*SCENARIO_IDS, "pcaps-blocked"]


class TestPinnedFingerprints:
    def test_scenarios_cover_seven_schedulers(self):
        assert len(PINNED_SCENARIOS) == 7
        assert len(set(SCENARIO_IDS)) == 7

    @pytest.mark.parametrize("config", CHECKED_SCENARIOS, ids=CHECKED_IDS)
    def test_rerun_is_bit_identical(self, config):
        assert run_fingerprint(config) == run_fingerprint(config)

    @pytest.mark.parametrize("config", CHECKED_SCENARIOS, ids=CHECKED_IDS)
    def test_tuple_path_matches_vectorized_path(self, config):
        """The columnar (FrontierArrays) scheduler path replays the tuple
        path bit-for-bit — same scores, same softmax, same RNG draws."""
        sim = build_simulation(config)
        policies = [
            s for s in (sim.scheduler, getattr(sim.scheduler, "policy", None))
            if getattr(s, "vectorized", False)
        ]
        if not policies:
            pytest.skip("scenario has no vectorized policy")
        for policy in policies:
            policy.vectorized = False
        via_tuples = schedule_fingerprint(sim.run(workload_for(config)))
        assert via_tuples == run_fingerprint(config)

    def test_blocked_pcaps_case_is_blocked_heavy(self):
        """Blocked retries outnumber placed grants, and the scoring session
        serves some of them."""
        with obs.collecting() as observer:
            build_simulation(BLOCKED_PCAPS).run(workload_for(BLOCKED_PCAPS))
        registry = observer.registry
        blocked = registry.value("engine.blocked_retries")
        grants = (
            registry.histogram("engine.select_latency_s").count
            - blocked
            - registry.value("engine.deferrals")
        )
        assert blocked > grants > 0
        assert registry.value("engine.cache.session.reuses") > 0
        assert registry.value("engine.cache.session.fallbacks") > 0

    @pytest.mark.parametrize("config", PINNED_SCENARIOS, ids=SCENARIO_IDS)
    def test_empty_disruption_schedule_is_bit_identical(self, config):
        """The disruption machinery is invisible without a schedule."""
        via_run = run_fingerprint(config)

        stepper = build_simulation(config).stepper()
        for sub in workload_for(config):
            stepper.submit(sub)
        installed = install_disruptions(stepper, DisruptionSchedule.empty())
        assert installed == 0
        # No-op verbs must not perturb the replay either.
        stepper.resume(0.0)
        stepper.set_capacity(0.0, config.num_executors)
        stepper.run_to_completion()
        assert stepper.preempted_tasks == 0
        assert schedule_fingerprint(stepper.result()) == via_run


class TestDisruptedDeterminism:
    @pytest.mark.parametrize("scheduler", ["fifo", "pcaps", "cap-decima"])
    def test_disrupted_rerun_is_bit_identical(self, scheduler):
        """A pinned schedule yields the identical disrupted replay."""
        config = ExperimentConfig(
            scheduler=scheduler, num_executors=6, seed=11,
            workload=WorkloadSpec(num_jobs=8, mean_interarrival=8.0,
                                  tpch_scales=(2,)),
        )
        schedule = DisruptionSchedule.generate(
            seed=5, horizon_s=400.0, num_outages=1, num_curtailments=1,
            num_blackouts=1,
        )

        def run_once() -> str:
            stepper = build_simulation(config).stepper()
            for sub in workload_for(config):
                stepper.submit(sub)
            install_disruptions(stepper, schedule)
            stepper.run_to_completion()
            return schedule_fingerprint(stepper.result())

        assert run_once() == run_once()

    def test_disruption_changes_the_fingerprint(self):
        """Sanity: a schedule that bites actually alters the replay."""
        config = PINNED_SCENARIOS[0]
        schedule = DisruptionSchedule(
            events=(  # outage across the busy window
                DisruptionEvent(kind="outage", start=30.0, end=300.0),
            )
        )
        stepper = build_simulation(config).stepper()
        for sub in workload_for(config):
            stepper.submit(sub)
        install_disruptions(stepper, schedule)
        stepper.run_to_completion()
        assert schedule_fingerprint(stepper.result()) != run_fingerprint(
            config
        )
        assert stepper.preempted_tasks > 0
