"""Fault-tolerant sweep execution: policy, injection, partial results.

Exercises the resilience layer end to end: the deterministic fault
plans of :mod:`repro.engine.faults`, the retry/quarantine
:class:`~repro.engine.executor.FailurePolicy`, the per-task deadline
watchdog, partial-result :class:`~repro.api.results.FailedRecord`
round-trips, and the CLI's ``--on-error`` / ``--inject`` exit codes.
"""

import json
import time

import pytest

from repro import FailurePolicy, Study
from repro.api.results import FailedRecord, Record, ResultSet
from repro.engine import EvaluationCache, run_jobs
from repro.engine.faults import (
    FaultPlan,
    FaultSpec,
    InjectedFault,
    resolve_plan,
    task_deadline,
)
from repro.exceptions import (
    JobQuarantinedError,
    ReproError,
    StoreLockTimeout,
    TaskTimeoutError,
    WorkerCrashError,
)


def _study():
    return (Study()
            .systems("albireo", "crossbar")
            .networks("tiny")
            .scenarios("conservative")
            .grid(global_buffer_kib=[512, 1024]))


#: Sub-task-level fault: fires wherever planner sub-tasks are computed
#: (pool workers, and the in-process route at workers=1).
RAISE_ALBIREO_CONV1 = [{"match": "albireo:conv1:layer",
                        "action": "raise", "attempt": -1}]

#: Job-level fault: fires on every execution path (serial included).
RAISE_ALBIREO_JOB = [{"match": "albireo:*:job",
                      "action": "raise", "attempt": -1}]


class TestExceptionHierarchy:
    def test_new_errors_are_repro_errors(self):
        for error_type in (TaskTimeoutError, JobQuarantinedError,
                           WorkerCrashError, StoreLockTimeout,
                           InjectedFault):
            assert issubclass(error_type, ReproError)
            with pytest.raises(ReproError):
                raise error_type("boom")


class TestFaultPlan:
    def test_spec_matching_and_attempt_pinning(self):
        spec = FaultSpec(match="albireo:*:layer", attempt=0)
        assert spec.applies("albireo:conv1:layer", 0)
        assert not spec.applies("albireo:conv1:layer", 1)  # pinned
        assert not spec.applies("crossbar:conv1:layer", 0)
        every = FaultSpec(match="*", attempt=-1)
        assert every.applies("anything:at:all", 7)

    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError, match="unknown fault action"):
            FaultSpec(match="*", action="explode")

    def test_from_dict_validates_keys(self):
        with pytest.raises(ValueError, match="unknown fault spec keys"):
            FaultSpec.from_dict({"match": "*", "acton": "raise"})
        with pytest.raises(ValueError, match="'match' pattern"):
            FaultSpec.from_dict({"action": "raise"})

    def test_plan_first_match_fires(self):
        plan = FaultPlan([FaultSpec(match="a:*", action="raise",
                                    message="first"),
                          FaultSpec(match="*", action="raise",
                                    message="second")])
        with pytest.raises(InjectedFault, match="first"):
            plan.check("a:x:layer", 0)
        with pytest.raises(InjectedFault, match="second"):
            plan.check("b:x:layer", 0)
        plan.check("never", 5)  # FaultSpec defaults pin to attempt 0

    def test_wire_round_trip(self):
        plan = FaultPlan.from_data(
            {"faults": [{"match": "*:conv1:*", "action": "sleep",
                         "seconds": 1.5, "attempt": 2}]})
        rebuilt = FaultPlan.from_wire(plan.to_wire())
        assert rebuilt.specs == plan.specs
        assert FaultPlan.from_wire(None) is None

    def test_from_json_and_resolve(self, tmp_path):
        path = tmp_path / "faults.json"
        path.write_text(json.dumps(RAISE_ALBIREO_CONV1))
        for source in (str(path), RAISE_ALBIREO_CONV1,
                       FaultPlan.from_json(str(path))):
            plan = resolve_plan(source)
            assert len(plan) == 1
            assert plan.specs[0].match == "albireo:conv1:layer"

    def test_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_INJECT", raising=False)
        assert resolve_plan(None) is None
        monkeypatch.setenv("REPRO_INJECT",
                           json.dumps(RAISE_ALBIREO_CONV1))
        assert len(resolve_plan(None)) == 1
        path = tmp_path / "faults.json"
        path.write_text(json.dumps(RAISE_ALBIREO_CONV1))
        monkeypatch.setenv("REPRO_INJECT", str(path))
        assert len(resolve_plan(None)) == 1


class TestTaskDeadline:
    def test_deadline_interrupts_sleep(self):
        started = time.perf_counter()
        with pytest.raises(TaskTimeoutError, match="deadline"):
            with task_deadline(0.2):
                time.sleep(30)
        assert time.perf_counter() - started < 5.0

    def test_no_deadline_is_a_no_op(self):
        with task_deadline(None):
            pass
        with task_deadline(0):
            pass

    def test_timer_disarmed_after_scope(self):
        with task_deadline(0.2):
            pass
        time.sleep(0.3)  # an armed leftover timer would fire here


class TestFailurePolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="on_error"):
            FailurePolicy(on_error="explode")
        with pytest.raises(ValueError, match="max_retries"):
            FailurePolicy(max_retries=-1)
        with pytest.raises(ValueError, match="backoff"):
            FailurePolicy(backoff=-0.1)
        with pytest.raises(ValueError, match="task_timeout"):
            FailurePolicy(task_timeout=0.0)

    def test_default_is_fail_stop(self):
        assert not FailurePolicy().captures
        assert FailurePolicy(on_error="skip").captures


class TestFailStopDefault:
    def test_injected_fault_aborts_serial_run(self):
        with pytest.raises(InjectedFault):
            _study().run(inject=RAISE_ALBIREO_JOB)

    def test_injected_fault_aborts_parallel_run(self):
        with pytest.raises(InjectedFault):
            _study().run(workers=2, cache=EvaluationCache(),
                         inject=RAISE_ALBIREO_CONV1)

    def test_on_error_raise_policy_identical_to_none(self):
        with pytest.raises(InjectedFault):
            _study().run(failure_policy=FailurePolicy(on_error="raise"),
                         inject=RAISE_ALBIREO_JOB)


class TestSkipPolicy:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_points_become_records_rest_completes(self, workers):
        cache = EvaluationCache()
        results = _study().run(
            workers=workers, cache=cache,
            failure_policy=FailurePolicy(on_error="skip"),
            inject=RAISE_ALBIREO_JOB)
        assert len(results) == 4
        assert len(results.ok()) == 2
        failures = results.failures
        assert len(failures) == 2
        for record in failures:
            assert record.failed
            assert record.tags["system"] == "albireo"
            assert record.error == "InjectedFault"
            assert record.attempts == 1
            assert not record.quarantined
        # skip mode never quarantines
        assert cache.resilience.quarantines == 0

    def test_ok_results_match_clean_run(self):
        clean = _study().run()
        injected = _study().run(
            workers=2, cache=EvaluationCache(),
            failure_policy=FailurePolicy(on_error="skip"),
            inject=RAISE_ALBIREO_CONV1)
        clean_crossbar = [r.metrics for r in clean
                          if r.tags["system"] == "crossbar"]
        assert [r.metrics for r in injected.ok()] == clean_crossbar


class TestRetryPolicy:
    def test_transient_fault_retried_to_success(self):
        """An attempt-0-only fault fails once, then the retry passes —
        final results are bit-identical to an uninjected serial run."""
        cache = EvaluationCache()
        transient = [{"match": "*:conv2:layer", "action": "raise",
                      "attempt": 0}]
        results = _study().run(
            workers=2, cache=cache,
            failure_policy=FailurePolicy(on_error="retry", max_retries=2,
                                         backoff=0.0),
            inject=transient)
        assert not results.failures
        reference = _study().run()
        assert [r.metrics for r in results] == \
            [r.metrics for r in reference]
        assert cache.resilience.retries > 0
        assert cache.resilience.quarantines == 0

    def test_deterministic_failure_quarantined_then_skipped(self):
        """A job failing every attempt is quarantined after
        ``max_retries``; a rerun against the same cache skips it
        immediately as ``JobQuarantinedError`` while the rest stays
        served."""
        cache = EvaluationCache()
        policy = FailurePolicy(on_error="retry", max_retries=1,
                               backoff=0.0)
        results = _study().run(workers=2, cache=cache,
                               failure_policy=policy,
                               inject=RAISE_ALBIREO_CONV1)
        failures = results.failures
        assert len(failures) == 2
        for record in failures:
            assert record.quarantined
            assert record.error == "InjectedFault"
            assert record.attempts == 2  # initial + one retry
        assert cache.resilience.quarantines == 2
        assert cache.resilience.retries == 2

        rerun = _study().run(workers=2, cache=cache,
                             failure_policy=policy,
                             inject=RAISE_ALBIREO_CONV1)
        assert len(rerun.ok()) == 2
        assert {record.error for record in rerun.failures} == \
            {"JobQuarantinedError"}
        # Quarantine rows live in the cache's failures namespace and are
        # visible through uncounted peeks.
        quarantined = [key for key in cache._data["failures"]]
        assert len(quarantined) == 2
        assert "quarantine" in cache.describe_stats()

    def test_timeout_respected_and_retried(self):
        """A task sleeping past ``task_timeout`` raises
        ``TaskTimeoutError`` worker-side; pinned to attempt 0, the retry
        finishes and results match the clean run."""
        cache = EvaluationCache()
        sleepy = [{"match": "*:conv1:layer", "action": "sleep",
                   "seconds": 30.0, "attempt": 0}]
        started = time.perf_counter()
        results = _study().run(
            workers=2, cache=cache,
            failure_policy=FailurePolicy(on_error="retry", max_retries=2,
                                         backoff=0.0, task_timeout=0.5),
            inject=sleepy)
        elapsed = time.perf_counter() - started
        assert elapsed < 25.0  # the 30 s sleeps were cut short
        assert not results.failures
        reference = _study().run()
        assert [r.metrics for r in results] == \
            [r.metrics for r in reference]
        assert cache.resilience.timeouts > 0
        assert cache.resilience.retries > 0


class TestCrashSpecsOutsideWorkers:
    """``exit``/``kill`` specs end only pool workers; fired in the
    calling process they raise ``WorkerCrashError`` instead."""

    @pytest.mark.parametrize("action", ["exit", "kill"])
    def test_crash_spec_raises_in_process(self, action):
        crash = [{"match": "albireo:conv1:layer", "action": action,
                  "attempt": -1}]
        with pytest.raises(WorkerCrashError, match="outside a pool"):
            _study().run(workers=1, inject=crash)
        skipped = _study().run(
            workers=1, failure_policy=FailurePolicy(on_error="skip"),
            inject=crash)
        assert {record.error for record in skipped.failures} == \
            {"WorkerCrashError"}
        assert len(skipped.ok()) == 2

    def test_one_miss_retry_round_of_a_pooled_run(self):
        """At workers=2 a retry round left with one miss runs in-process;
        a kill spec pinned to that attempt fails the job instead of
        killing the caller, and the next attempt heals it."""
        def study():
            return Study().systems("albireo", "crossbar").networks("tiny")

        faults = [{"match": "crossbar:*:layer", "action": "raise",
                   "attempt": 0},
                  {"match": "crossbar:*:layer", "action": "kill",
                   "attempt": 1}]
        cache = EvaluationCache()
        healed = study().run(
            workers=2, cache=cache,
            failure_policy=FailurePolicy(on_error="retry", max_retries=2,
                                         backoff=0.0),
            inject=faults)
        assert not healed.failures
        assert [r.metrics for r in healed] == \
            [r.metrics for r in study().run()]
        assert cache.resilience.retries == 2

        exhausted = study().run(
            workers=2, cache=EvaluationCache(),
            failure_policy=FailurePolicy(on_error="retry", max_retries=1,
                                         backoff=0.0),
            inject=faults)
        [failure] = exhausted.failures
        assert failure.error == "WorkerCrashError"
        assert failure.attempts == 2 and failure.quarantined


class TestPartialResults:
    def _mixed(self):
        cache = EvaluationCache()
        return _study().run(
            workers=2, cache=cache,
            failure_policy=FailurePolicy(on_error="skip"),
            inject=RAISE_ALBIREO_CONV1)

    def test_json_round_trip(self):
        results = self._mixed()
        rebuilt = ResultSet.from_json(results.to_json())
        assert len(rebuilt) == len(results)
        assert len(rebuilt.failures) == 2
        for record in rebuilt.failures:
            assert isinstance(record, FailedRecord)
            assert record.error == "InjectedFault"
            assert record.attempts == 1
        assert [r.tags for r in rebuilt] == [r.tags for r in results]
        assert [r.metrics for r in rebuilt.ok()] == \
            [r.metrics for r in results.ok()]

    def test_csv_gets_failure_columns(self):
        text = self._mixed().to_csv()
        header = text.splitlines()[0].split(",")
        for key in ("error", "error_message", "attempts", "quarantined"):
            assert key in header
        assert "InjectedFault" in text

    def test_ranking_verbs_exclude_failures(self):
        results = self._mixed()
        assert not any(r.failed for r in results.pareto())
        assert not any(r.failed for r in results.top_k(10))
        assert not results.best().failed

    def test_report_marks_failed_rows(self):
        text = self._mixed().report()
        assert "FAILED:InjectedFault" in text

    def test_failed_record_value_is_strict(self):
        record = FailedRecord(tags={"system": "albireo"}, metrics={},
                              error="Boom", error_message="bang")
        assert record["system"] == "albireo"
        assert record["error"] == "Boom"
        assert "energy_pj" not in record
        with pytest.raises(ReproError, match="failed with Boom"):
            record.value("energy_pj")

    def test_all_failed_best_raises_clearly(self):
        from repro.exceptions import SpecError

        only_failed = ResultSet([FailedRecord(tags={}, metrics={})])
        with pytest.raises(SpecError, match="no successful"):
            only_failed.best()
        assert isinstance(Record(tags={}, metrics={}), Record)


class TestCliFaults:
    def _spec(self, tmp_path):
        spec = {
            "name": "faulty",
            "systems": ["albireo", "crossbar"],
            "networks": ["tiny"],
            "scenarios": ["conservative"],
            "options": {"use_mapper": False},
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        return str(path)

    def test_on_error_skip_exits_3_with_split_json(self, tmp_path,
                                                   capsys):
        from repro.cli import main

        faults = tmp_path / "faults.json"
        faults.write_text(json.dumps(RAISE_ALBIREO_CONV1))
        out_path = tmp_path / "records.json"
        code = main(["run", self._spec(tmp_path),
                     "--workers", "2", "--on-error", "skip",
                     "--inject", str(faults),
                     "--json", str(out_path)])
        assert code == 3
        assert "failures: 1 of 2 points failed" in capsys.readouterr().out
        payload = json.loads(out_path.read_text())
        rows = payload["records"]
        assert len(rows) == 2
        failed = [row for row in rows if "error" in row]
        assert len(failed) == 1
        assert failed[0]["error"] == "InjectedFault"
        assert failed[0]["system"] == "albireo"

    def test_clean_run_with_policy_exits_0(self, tmp_path):
        from repro.cli import main

        assert main(["run", self._spec(tmp_path),
                     "--on-error", "skip"]) == 0

    def test_library_error_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"systems": ["warpdrive"],
                                   "networks": ["tiny"]}))
        assert main(["run", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("error:")
