"""The scheduler select seam: ``select_gen`` and its ``ScoreRequest``s.

The engine takes every assignment decision through
``scheduler.select_gen``; probabilistic policies yield one
:class:`~repro.simulator.interfaces.ScoreRequest` per scored frontier and
receive the outcome back. Outside-in tracing times the scheduler layer by
wrapping that generator, so the seam is pinned against the shared
fingerprint table (:mod:`fingerprint_scenarios`):

- **external driver** — stepping a run through the stepper's generator
  form and resolving each yielded request by hand reproduces the
  ``Simulation.run()`` fingerprint of every pinned scenario, and only the
  probabilistic families yield requests, each of the kind its sampling
  entry point declares;
- **wrapper transparency** — a pass-through generator wrapper installed
  on ``select_gen`` sees every select call the engine counts, in time
  order, without changing one decision.
"""

import pytest

from repro.experiments.runner import workload_for
from repro.simulator.interfaces import ScoreRequest

from fingerprint_scenarios import (
    PINNED_SCENARIOS,
    SCENARIO_IDS,
    build_simulation,
    run_fingerprint,
    schedule_fingerprint,
)

#: Request kind each scheduler family yields; absent families never yield.
#: Decima-style policies score the assignable frontier (``select``); PCAPS
#: scores the full frontier and samples under the action mask (``sample``).
REQUEST_KINDS = {"decima": "select", "cap-decima": "select", "pcaps": "sample"}


def loaded_stepper(config):
    sim = build_simulation(config)
    stepper = sim.stepper()
    for sub in workload_for(config):
        stepper.submit(sub)
    return sim, stepper


@pytest.mark.parametrize("config", PINNED_SCENARIOS, ids=SCENARIO_IDS)
def test_external_driver_matches_solo_run(config):
    _, stepper = loaded_stepper(config)
    kinds = []
    while stepper.events:
        gen = stepper._step_gen()
        try:
            request = next(gen)
            while True:
                assert isinstance(request, ScoreRequest)
                kinds.append(request.kind)
                request = gen.send(request.resolve())
        except StopIteration:
            pass
    expected = REQUEST_KINDS.get(config.scheduler)
    if expected is None:
        assert kinds == []
    else:
        assert kinds and set(kinds) == {expected}
    assert schedule_fingerprint(stepper.result()) == run_fingerprint(config)


@pytest.mark.parametrize("config", PINNED_SCENARIOS, ids=SCENARIO_IDS)
def test_select_gen_wrapper_is_transparent(config):
    sim, stepper = loaded_stepper(config)
    inner = sim.scheduler.select_gen
    calls = []

    def traced(view):
        calls.append(view.time)
        return (yield from inner(view))

    sim.scheduler.select_gen = traced
    sim.measure_latency = True  # the engine then counts its select calls
    stepper.run_to_completion()
    result = stepper.result()
    assert calls == sorted(calls)
    assert len(calls) == result.scheduler_invocations > 0
    assert schedule_fingerprint(result) == run_fingerprint(config)
