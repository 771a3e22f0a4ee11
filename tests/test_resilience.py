"""Resilience layer: crash-safe store, supervision, and atomic artifacts.

Covers the store's lenient reader / verify / repair, the failure-aware
``latest`` view, resume over a damaged store (valid + corrupt + truncated +
superseded lines), the supervisor's retry/quarantine/backoff semantics,
graceful shutdown draining, and the atomic artifact writers.
"""

import json
from dataclasses import replace

import pytest

from test_campaign import tiny_config, tiny_spec

from repro.campaign.executor import CampaignRunner
from repro.campaign.spec import plain
from repro.campaign.store import (
    STATUS_ERROR,
    STATUS_OK,
    ResultStore,
    TrialRecord,
)
from repro.campaign.supervise import (
    CampaignInterrupted,
    SupervisorConfig,
    backoff_delay,
)
from repro.ioutil import atomic_write_bytes, atomic_write_text
from repro.obs.observer import collecting


def record_for(key: str, status: str = STATUS_OK, **overrides) -> TrialRecord:
    params = dict(
        key=key,
        campaign="t",
        config=plain(tiny_config()),
        status=status,
        metrics={"carbon_footprint": 1.0, "ect": 2.0, "avg_jct": 3.0}
        if status == STATUS_OK
        else None,
        error=None if status == STATUS_OK else "boom",
    )
    params.update(overrides)
    return TrialRecord(**params)


class TestLenientStore:
    def test_atomic_append_is_one_line(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        store.append(record_for("a"))
        store.append(record_for("b"))
        lines = store.path.read_text().splitlines()
        assert len(lines) == 2
        assert all(json.loads(line)["key"] in "ab" for line in lines)

    def test_truncated_tail_is_skipped_and_counted(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        store.append(record_for("a"))
        store.append(record_for("b"))
        # Simulate a process killed mid-append: tear the final line.
        raw = store.path.read_text()
        store.path.write_text(raw[: len(raw) - 40])
        records = store.records()
        assert [r.key for r in records] == ["a"]
        assert store.last_corrupt_count == 1

    def test_corrupt_midfile_line_does_not_poison_the_rest(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        store.append(record_for("a"))
        with store.path.open("a") as handle:
            handle.write('{"key": "half\n')  # torn write
            handle.write("not json at all\n")
        store.append(record_for("b"))
        assert sorted(r.key for r in store.records()) == ["a", "b"]
        assert store.last_corrupt_count == 2

    def test_corrupt_lines_feed_the_obs_counter(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        store.append(record_for("a"))
        with store.path.open("a") as handle:
            handle.write("garbage\n")
        with collecting("store-test") as observer:
            store.records()
            assert observer.registry.value("store.corrupt_lines_skipped") == 1

    def test_json_line_missing_required_fields_is_corrupt(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        with store.path.open("w") as handle:
            handle.write('{"some": "other json"}\n')
        assert store.records() == []
        assert store.last_corrupt_count == 1

    def test_latest_exposes_failures_select_does_not(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        store.append(record_for("a"))
        store.append(record_for("b", status=STATUS_ERROR))
        keys = ["a", "b", "never-ran"]
        assert [r.key for r in store.select(keys)] == ["a"]
        latest = store.latest(keys)
        assert [(r.key, r.ok) for r in latest] == [("a", True), ("b", False)]

    def test_old_store_lines_without_attempt_fields_load(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        line = record_for("a").to_json()
        data = json.loads(line)
        del data["attempts"], data["attempt_errors"]
        store.path.write_text(json.dumps(data) + "\n")
        (record,) = store.records()
        assert record.attempts == 1 and record.attempt_errors is None


class TestVerifyRepair:
    def build_damaged_store(self, tmp_path) -> ResultStore:
        """valid, superseded-duplicate, corrupt-midfile, valid, torn-tail."""
        store = ResultStore(tmp_path / "s.jsonl")
        store.append(record_for("a", status=STATUS_ERROR))
        store.append(record_for("a"))  # supersedes the failure
        with store.path.open("a") as handle:
            handle.write('{"torn mid-file\n')
        store.append(record_for("b"))
        with store.path.open("a") as handle:
            handle.write(record_for("c").to_json()[:25])  # torn tail
        return store

    def test_verify_reports_everything(self, tmp_path):
        check = self.build_damaged_store(tmp_path).verify()
        assert check.total_lines == 5
        assert check.valid_records == 3
        assert check.corrupt_lines == [3, 5]
        assert check.unique_keys == 2
        assert check.superseded == 1
        assert check.ok_records == 2 and check.failed_records == 0
        assert not check.clean
        assert "2 corrupt line(s)" in check.summary()

    def test_repair_keeps_valid_lines_verbatim_and_backs_up(self, tmp_path):
        store = self.build_damaged_store(tmp_path)
        original = store.path.read_text()
        before = [
            line for number, line in enumerate(original.splitlines(), start=1)
            if number in (1, 2, 4)
        ]
        check = store.repair()
        assert not check.clean  # describes what was found pre-repair
        assert store.path.read_text().splitlines() == before
        backup = store.path.with_name(store.path.name + ".bak")
        assert backup.read_text() == original
        assert store.verify().clean

    def test_repair_on_clean_store_is_a_noop(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        store.append(record_for("a"))
        before = store.path.read_text()
        assert store.repair().clean
        assert store.path.read_text() == before
        assert not store.path.with_name(store.path.name + ".bak").exists()

    def test_verify_empty_and_missing_store(self, tmp_path):
        missing = ResultStore(tmp_path / "nope.jsonl")
        assert missing.verify().clean
        empty = ResultStore(tmp_path / "empty.jsonl")
        empty.path.write_text("")
        assert empty.verify().total_lines == 0


class TestResumeFromDamagedStore:
    def test_resume_reuses_every_recoverable_record(self, tmp_path):
        """The satellite scenario: valid lines, a corrupt mid-file line, a
        truncated final line, and superseded duplicates — resume must reuse
        every recoverable record and re-run only the lost ones."""
        spec = tiny_spec()
        store = ResultStore(tmp_path / "s.jsonl")
        runner = CampaignRunner(store, workers=0)
        first = runner.run(spec)
        assert len(first.records) == 4 and not first.failures

        lines = store.path.read_text().splitlines()
        keys = [json.loads(line)["key"] for line in lines]
        damaged = [
            lines[0],
            "{halfway-torn",          # corrupt mid-file line
            lines[1],
            lines[1],                 # superseded duplicate key
            lines[2],
            lines[3][:30],            # truncated final line: key lost
        ]
        store.path.write_text("\n".join(damaged))  # no trailing newline

        resumed = CampaignRunner(store, workers=0).run(spec)
        # Three keys survived the damage; only the truncated one re-runs.
        assert resumed.stats.hits == 3 and resumed.stats.misses == 1
        assert not resumed.failures
        final = {r.key: r.metrics for r in resumed.records}
        assert final == {r.key: r.metrics for r in first.records}
        assert set(final) == set(keys)


class TestSupervision:
    def test_backoff_is_seeded_and_bounded(self):
        sup = SupervisorConfig(
            backoff_base_s=0.1, backoff_factor=2.0, backoff_max_s=0.3,
            backoff_seed=7,
        )
        first = backoff_delay(sup, "k", 1)
        assert first == backoff_delay(sup, "k", 1)  # pure function
        assert backoff_delay(sup, "k", 2) != first  # attempt changes jitter
        assert backoff_delay(sup, "other", 1) != first  # key changes jitter
        for attempt in range(1, 6):
            delay = backoff_delay(sup, "k", attempt)
            assert 0.05 <= delay <= 0.3  # within [base/2, max]

    def test_flaky_trial_retries_to_success_inline(self, tmp_path, monkeypatch):
        import repro.campaign.executor as executor_module

        real = executor_module.run_experiment
        calls: dict[str, int] = {}

        def flaky_once(config, carbon_trace=None):
            label = f"{config.scheduler}:{config.seed}"
            calls[label] = calls.get(label, 0) + 1
            if config.scheduler == "pcaps" and calls[label] == 1:
                raise RuntimeError("transient failure")
            return real(config, carbon_trace=carbon_trace)

        monkeypatch.setattr(executor_module, "run_experiment", flaky_once)
        runner = CampaignRunner(
            ResultStore(tmp_path / "r.jsonl"), workers=0,
            supervisor=SupervisorConfig(max_attempts=3, backoff_base_s=0.001),
        )
        run = runner.run(tiny_spec())
        assert not run.failures
        flaky = [r for r in run.records if r.attempts > 1]
        assert {r.attempts for r in flaky} == {2}
        assert all(
            r.attempt_errors and "transient failure" in r.attempt_errors[0]
            for r in flaky
        )
        assert len(flaky) == 2  # both pcaps trials recovered

    def test_quarantine_after_attempt_budget(self, tmp_path, monkeypatch):
        import repro.campaign.executor as executor_module

        def always_explode(config, carbon_trace=None):
            raise RuntimeError("permanent failure")

        monkeypatch.setattr(executor_module, "run_experiment", always_explode)
        store = ResultStore(tmp_path / "r.jsonl")
        with collecting("quarantine") as observer:
            runner = CampaignRunner(
                store, workers=0,
                supervisor=SupervisorConfig(max_attempts=3, backoff_base_s=0.001),
            )
            run = runner.run(tiny_spec())
            assert observer.registry.value("campaign.quarantines") == 4
            assert observer.registry.value("campaign.retries") == 8
        assert len(run.failures) == 4
        for record in run.failures:
            assert record.attempts == 3
            assert len(record.attempt_errors) == 3
            assert "permanent failure" in record.error
        # Quarantined records land in the store as failures → resumable.
        assert [r.ok for r in store.latest([r.key for r in run.failures])] == [
            False
        ] * 4

    def test_shutdown_drains_and_raises(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        runner = CampaignRunner(store, workers=0)
        seen: list[int] = []

        def stop_after_two(done: int, total: int, line: str) -> None:
            seen.append(done)
            if done == 2:
                runner.request_shutdown()

        with pytest.raises(CampaignInterrupted) as excinfo:
            runner.run(tiny_spec(), on_progress=stop_after_two)
        assert excinfo.value.completed == 2
        assert excinfo.value.pending == 2
        # The two completed trials reached the store before the raise.
        assert len(store.completed()) == 2
        resumed = CampaignRunner(store, workers=0).run(tiny_spec())
        assert resumed.stats.hits == 2 and resumed.stats.misses == 2

    def test_collect_includes_failed_trials(self, tmp_path, monkeypatch):
        import repro.campaign.executor as executor_module

        real = executor_module.run_experiment

        def explode_on_pcaps(config, carbon_trace=None):
            if config.scheduler == "pcaps":
                raise RuntimeError("down")
            return real(config, carbon_trace=carbon_trace)

        monkeypatch.setattr(executor_module, "run_experiment", explode_on_pcaps)
        runner = CampaignRunner(
            ResultStore(tmp_path / "r.jsonl"), workers=0,
            supervisor=SupervisorConfig(max_attempts=1),
        )
        runner.run(tiny_spec())
        collected = runner.collect(tiny_spec())
        assert len(collected) == 4
        assert sum(1 for r in collected if not r.ok) == 2  # visible, not dropped

    def test_supervisor_config_validation(self):
        with pytest.raises(ValueError):
            SupervisorConfig(max_attempts=0)
        with pytest.raises(ValueError):
            SupervisorConfig(trial_timeout_s=-1.0)
        with pytest.raises(ValueError):
            SupervisorConfig(checkpoint_every_events=0)


class TestAtomicArtifacts:
    def test_atomic_write_replaces_whole_file(self, tmp_path):
        target = tmp_path / "doc.json"
        atomic_write_text(target, "first")
        atomic_write_text(target, "second")
        assert target.read_text() == "second"
        # No temp residue.
        assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]

    def test_atomic_write_bytes_roundtrip(self, tmp_path):
        target = tmp_path / "blob.bin"
        atomic_write_bytes(target, b"\x00\x01\x02")
        assert target.read_bytes() == b"\x00\x01\x02"

    def test_bench_report_written_atomically(self, tmp_path, monkeypatch):
        """write_report goes through the atomic writer (no partial JSON)."""
        import repro.experiments.perf as perf_module

        captured: list[str] = []
        real = perf_module.atomic_write_text

        def spy(path, text, *args, **kwargs):
            captured.append(str(path))
            return real(path, text, *args, **kwargs)

        monkeypatch.setattr(perf_module, "atomic_write_text", spy)
        perf_module.write_report([], tmp_path / "BENCH_test.json")
        assert captured == [str(tmp_path / "BENCH_test.json")]
        assert json.loads((tmp_path / "BENCH_test.json").read_text())[
            "benchmark"
        ] == "engine-throughput"

    def test_obs_artifacts_written_atomically(self, tmp_path):
        with collecting("atomic-artifacts") as observer:
            observer.registry.counter("x").inc()
            observer.write_artifacts(tmp_path)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert "metrics.jsonl" in names and "trace.json" in names
        assert not [n for n in names if n.endswith(".tmp")]


class TestReportVisibility:
    def test_cli_report_shows_attempts_and_last_failure(self, tmp_path, capsys):
        from repro.cli import _print_trial_health

        records = [
            record_for("aaaabbbbccccdddd"),
            replace(
                record_for("eeeeffffgggghhhh", status=STATUS_ERROR),
                attempts=3,
                attempt_errors=["first", "second", "third"],
                error="third",
            ),
            replace(
                record_for("iiiijjjjkkkkllll"),
                attempts=2,
                attempt_errors=["flaked once"],
            ),
        ]
        _print_trial_health(records)
        out = capsys.readouterr().out
        assert "FAILED eeeeffffgggg after 3 attempt(s): third" in out
        assert "flaky  iiiijjjjkkkk: ok on attempt 2" in out
        assert "flaked once" in out
        assert "aaaabbbbcccc" not in out  # healthy trials stay quiet
