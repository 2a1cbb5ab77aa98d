"""Every execution route must reproduce the reference evaluator.

Three routes evaluate the same batches: the reference loop (``run_job``
per job over one shared in-process cache), the in-process planner
(``run_jobs(workers=1)``) and the pooled planner (``workers=2``).  Their
records must be bit-identical — compared as the JSON text of
``network_evaluation_to_dict``, so row order and every float digit
count — and they must leave the same cache entries behind.  Under
injected faults the planner routes must fail the same coordinates with
the same quarantine entries.
"""

import json
import os
import subprocess
import sys
from dataclasses import replace

import pytest

from repro.engine import (
    EvaluationCache,
    FailurePolicy,
    JobFailure,
    make_job,
    run_job,
    run_jobs,
)
from repro.engine.codec import network_evaluation_to_dict
from repro.systems import AlbireoConfig, CrossbarConfig, WdmDelayConfig
from repro.systems.base import PhotonicSystem
from repro.workloads import ConvLayer, tiny_cnn
from repro.workloads.network import LayerRepetition, Network

REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")


def _renamed_network():
    """One geometry under many names, plus a second geometry."""
    shape = dict(m=8, c=8, p=16, q=16, r=3, s=3)
    entries = [LayerRepetition(layer=ConvLayer(name=f"same{i}", **shape),
                               consumes_previous_output=i > 0)
               for i in range(6)]
    entries.insert(3, LayerRepetition(
        layer=ConvLayer(name="odd", m=16, c=8, p=8, q=8, r=3, s=3)))
    return Network(name="RenamedNet", entries=tuple(entries))


def _batches():
    tiny = tiny_cnn()
    renamed = _renamed_network()
    albireo = AlbireoConfig()
    return {
        "mixed_systems": [make_job(tiny, config) for config in (
            albireo, CrossbarConfig(), WdmDelayConfig(),
            replace(albireo, clusters=8), CrossbarConfig())],
        "fused": [make_job(tiny, albireo, fused=fused)
                  for fused in (True, False)],
        "no_dram": [make_job(renamed, albireo, include_dram=include_dram)
                    for include_dram in (False, True)],
        "use_mapper": [make_job(tiny, config, use_mapper=True)
                       for config in (albireo, CrossbarConfig())],
        "renamed_geometry": [make_job(renamed, replace(albireo,
                                                       clusters=clusters))
                             for clusters in (4, 8, 4)],
    }


def _text(outcome):
    if isinstance(outcome, JobFailure):
        return outcome
    return json.dumps(network_evaluation_to_dict(outcome))


def _reference(jobs, cache):
    return [run_job(job, cache) for job in jobs]


def _key_sets(cache):
    image = cache.snapshot()
    return {namespace: set(image.get(namespace, {}))
            for namespace in ("layers", "mappings", "results",
                              "failures")}


@pytest.mark.parametrize("batch", sorted(_batches()))
def test_routes_bit_identical_and_same_cache_entries(batch):
    jobs = _batches()[batch]
    reference_cache = EvaluationCache()
    expected = [_text(r) for r in _reference(jobs, reference_cache)]
    for workers in (1, 2):
        cache = EvaluationCache()
        got = [_text(r) for r in run_jobs(jobs, workers=workers,
                                          cache=cache)]
        assert got == expected, f"workers={workers} diverged on {batch}"
        assert _key_sets(cache) == _key_sets(reference_cache), \
            f"workers={workers} left different cache entries on {batch}"


def test_cacheless_in_process_route_matches_reference():
    jobs = _batches()["mixed_systems"]
    expected = [_text(run_job(job)) for job in jobs]
    assert [_text(r) for r in run_jobs(jobs)] == expected


#: A sub-task fault (every job needing albireo's conv1 layer entry) and
#: a job-level fault (every crossbar job), both on every attempt.
_FAULTS = [{"match": "albireo:conv1:layer", "action": "raise",
            "attempt": -1},
           {"match": "crossbar:*:job", "action": "raise", "attempt": -1}]


@pytest.mark.parametrize("on_error", ["skip", "retry"])
def test_injected_faults_fail_the_same_coordinates(on_error):
    jobs = _batches()["mixed_systems"]
    policy = FailurePolicy(on_error=on_error, max_retries=1, backoff=0.0)
    runs = {}
    for workers in (1, 2):
        cache = EvaluationCache()
        results = run_jobs(jobs, workers=workers, cache=cache,
                           failure_policy=policy, inject=_FAULTS)
        runs[workers] = ([_text(r) for r in results],
                         cache.snapshot().get("failures", {}))
    assert runs[1] == runs[2]
    texts, quarantined = runs[1]
    failed = [index for index, text in enumerate(texts)
              if isinstance(text, JobFailure)]
    assert failed == [0, 1, 3, 4]  # both albireo, both crossbar jobs
    assert texts[1].error == "InjectedFault"
    assert all(texts[index].attempts == (2 if on_error == "retry" else 1)
               for index in failed)
    keys = {jobs[index].key for index in failed}
    assert set(quarantined) == (keys if on_error == "retry" else set())
    # The surviving coordinate matches the reference evaluator.
    assert texts[2] == _text(run_job(jobs[2]))


def test_transient_sub_task_fault_heals_to_reference_records():
    jobs = _batches()["renamed_geometry"]
    expected = [_text(run_job(job)) for job in jobs]
    transient = [{"match": "albireo:same0:layer", "action": "raise",
                  "attempt": 0}]
    policy = FailurePolicy(on_error="retry", max_retries=1, backoff=0.0)
    for workers in (1, 2):
        cache = EvaluationCache()
        results = run_jobs(jobs, workers=workers, cache=cache,
                           failure_policy=policy, inject=transient)
        assert [_text(r) for r in results] == expected
        assert cache.resilience.retries > 0


def test_in_process_route_streams_job_by_job(monkeypatch):
    """The first record is out before the third configuration's
    sub-tasks are computed, and progress ticks once per job."""
    events = []
    compute = PhotonicSystem.compute_sub_task

    def counting(system, task):
        events.append(("task", system.config.clusters))
        return compute(system, task)

    monkeypatch.setattr(PhotonicSystem, "compute_sub_task", counting)
    configs = [replace(AlbireoConfig(), clusters=clusters)
               for clusters in (4, 8, 16)]
    jobs = [make_job(tiny_cnn(), config) for config in configs]
    ticks = []
    run_jobs(jobs, workers=1, cache=EvaluationCache(),
             progress=lambda done, total, job: ticks.append((done, total)),
             on_record=lambda index, job, outcome:
                 events.append(("record", index)))
    first_record = events.index(("record", 0))
    third_config = events.index(("task", 16))
    assert first_record < third_config
    assert ticks == [(1, 3), (2, 3), (3, 3)]


_HASH_SEED_SCRIPT = """
import json
from repro.engine import make_job, run_job
from repro.engine.codec import network_evaluation_to_dict
from repro.systems import AlbireoConfig, CrossbarConfig, WdmDelayConfig
from repro.workloads import tiny_cnn

print(json.dumps([
    network_evaluation_to_dict(run_job(make_job(
        tiny_cnn(), config, use_mapper=use_mapper)))
    for config in (AlbireoConfig(), CrossbarConfig(), WdmDelayConfig())
    for use_mapper in (False, True)]))
"""


def test_records_independent_of_hash_seed():
    """Dataspace and dim sets iterate in string-hash order; energy rows,
    float accumulation and the mapper's fill order must not follow it."""
    outputs = []
    for seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=REPO_SRC)
        env.pop("REPRO_INJECT", None)
        completed = subprocess.run(
            [sys.executable, "-c", _HASH_SEED_SCRIPT], env=env,
            capture_output=True, text=True, timeout=300, check=True)
        outputs.append(completed.stdout)
    assert outputs[0] == outputs[1] == outputs[2]
