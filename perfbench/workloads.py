"""The benchmark's workloads: seeded inputs, one timed repetition, and
the reference the correctness gate compares against.

Each workload object is built from ``(seed, size)`` alone, so the
repetition processes and the reference process derive identical inputs.
``setup()`` holds everything a user pays once per process (imports are
already done by then; lazy imports are triggered by a warm-up point
outside the workload's lattice), ``measure()`` is the timed region plus
the digests of what it produced, and ``reference()`` evaluates the same
inputs through the reference evaluator.

Digests: an ok Study record contributes the SHA-256 of the canonical JSON
of ``network_evaluation_to_dict(record.evaluation)``; a failed point
contributes the SHA-256 of its coordinates.  A streamed service record
contributes the SHA-256 of its flat row (``Record.to_dict``).
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

from repro import obs
from repro.api import FailurePolicy, Record, ResultSet, Study
from repro.engine import EvaluationCache, build_plan, run_job
from repro.engine.codec import (
    canonical_json,
    network_evaluation_from_dict,
    network_evaluation_to_dict,
)
from repro.exceptions import ServiceError
from repro.experiments import fig2_validation
from repro.service import ServiceClient
from repro.systems import AlbireoConfig
from repro.systems.registry import system_entries
from repro.workloads import ConvLayer
from repro.workloads.network import LayerRepetition, Network

import ledger

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Outside every workload's lattice (no workload sweeps 2 clusters), so
#: the warm-up triggers lazy imports without pre-building anything the
#: timed region then reuses.
WARMUP_CONFIG = AlbireoConfig(clusters=2)

#: Study workloads keep going past a failing point; the failure then
#: shows up as a ``FailedRecord`` and counts against ``error_rate``.
SKIP = FailurePolicy(on_error="skip")


def digest(value: Any) -> str:
    return hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _mapper_ratios(stats: Dict[str, int]) -> Dict[str, float]:
    generated = stats["evaluated"] + stats["deduplicated"]
    return {
        "mapper.searches": stats["searches"],
        "mapper.evaluated": stats["evaluated"],
        "mapper.valid_ratio": (stats["valid"] / stats["evaluated"]
                               if stats["evaluated"] else 0.0),
        "mapper.dedup_ratio": (stats["deduplicated"] / generated
                               if generated else 0.0),
    }


def _hit_ratio(counts: Dict[str, int]) -> float:
    lookups = counts.get("hits", 0) + counts.get("misses", 0)
    return counts.get("hits", 0) / lookups if lookups else 0.0


def _timed(fn, *args):
    start = time.perf_counter()
    value = fn(*args)
    return value, time.perf_counter() - start


def _planner_metrics(jobs: List[Any], workers: int) -> Dict[str, float]:
    """Plan ``jobs`` against an empty cache, timed from outside."""
    cache = EvaluationCache()
    _, seconds = _timed(build_plan, jobs, cache, workers)
    planner = cache.planner
    return {
        "study.jobs": len(jobs),
        "planner.plan_s": seconds,
        "planner.planned": planner.planned,
        "planner.phase1_tasks": planner.phase1_tasks,
        "planner.dedup_ratio": (planner.deduplicated / planner.planned
                                if planner.planned else 0.0),
    }


def _results_metrics(results: ResultSet, build) -> Dict[str, float]:
    _, build_s = _timed(build)
    _, pareto_s = _timed(results.pareto)
    _, to_json_s = _timed(results.to_json)
    return {"results.build_s": build_s, "results.pareto_s": pareto_s,
            "results.to_json_s": to_json_s}


def _codec_metrics(evaluations: List[Any]) -> Dict[str, float]:
    encoded, encode_s = _timed(
        lambda: [network_evaluation_to_dict(e) for e in evaluations])
    _, decode_s = _timed(
        lambda: [network_evaluation_from_dict(d) for d in encoded])
    return {"codec.encode_s": encode_s, "codec.decode_s": decode_s}


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

DSE_NETWORKS = ("tiny", "lenet5", "alexnet", "resnet18", "vgg16")

#: The deep synthetic network's two geometries (alternating, every entry
#: under its own name): serial execution evaluates each entry, while the
#: planner would evaluate two geometries per configuration.
DEEP_SHAPES = (dict(m=64, c=64, p=32, q=32, r=3, s=3),
               dict(m=48, c=32, p=14, q=14, r=3, s=3))

#: Per-system grid axes of the service lattice (4 x 5 points each).
SERVICE_AXES = {
    "albireo": {"clusters": (4, 8, 16, 32), "output_reuse": (1, 3, 5, 7, 9)},
    "crossbar": {"tiles": (4, 8, 16, 32), "rows": (4, 8, 12, 16, 24)},
    "wdm_delay": {"tiles": (2, 4, 8, 16), "output_lanes": (4, 8, 12, 16, 24)},
}
SERVICE_NETWORKS = ("tiny", "lenet5")
SCENARIOS = ("conservative", "aggressive")


def dse_study(seed: int, size: str) -> Study:
    """Every registered system's default sweep x five CNNs, in a seeded
    order (the same 360 points for every seed)."""
    rng = random.Random(seed)
    configs = [config for entry in system_entries().values()
               if entry.default_sweep is not None
               for config in entry.default_sweep()]
    networks = list(DSE_NETWORKS)
    if size == "small":
        configs, networks = configs[::12], networks[:2]
    rng.shuffle(configs)
    rng.shuffle(networks)
    return Study("dse_sweep").configs(*configs).networks(*networks)


def deep_study(seed: int, size: str) -> Study:
    """24 Albireo configurations over a 384-entry network holding each of
    two geometries 192 times, in a seeded sequence, every entry under its
    own name.  The seed changes the network but not its cost."""
    rng = random.Random(seed)
    count, entries = (4, 24) if size == "small" else (24, 384)
    shapes = [index % 2 for index in range(entries)]
    rng.shuffle(shapes)
    network = Network(
        name=f"synth{entries}",
        entries=tuple(
            LayerRepetition(
                layer=ConvLayer(name=f"conv{index:03d}",
                                **DEEP_SHAPES[shape]),
                consumes_previous_output=index > 0)
            for index, shape in enumerate(shapes)))
    configs = [dataclasses.replace(AlbireoConfig(), clusters=clusters,
                                   output_reuse=output_reuse)
               for output_reuse in range(1, 7)
               for clusters in (4, 8, 16, 32)]
    return Study("deep_sweep").configs(*configs[:count]).networks(network)


def mapper_study(seed: int, size: str) -> Study:
    """Mapper search over three systems x two CNNs x two scenarios, in a
    seeded order."""
    rng = random.Random(seed)
    systems = list(SERVICE_AXES)
    networks = list(SERVICE_NETWORKS)
    scenarios = list(SCENARIOS)
    if size == "small":
        systems, networks = systems[:1], networks[:1]
    for axis in (systems, networks, scenarios):
        rng.shuffle(axis)
    return (Study("mapper_search").systems(*systems).networks(*networks)
            .scenarios(*scenarios).options(use_mapper=True))


def service_inputs(seed: int, size: str):
    """(pre-fill specs, submit specs) over the 240-point service lattice.

    The pre-fill holds a seeded half of every (system, network, scenario)
    block's 20 grid points; each submit asks for one block's 2 x 2
    sub-grid.  Blocks and sub-grids are drawn uniformly, so every seed
    sends the same number of points from the same lattice.
    """
    rng = random.Random(seed)
    blocks = [(system, network, scenario)
              for system in SERVICE_AXES
              for network in SERVICE_NETWORKS
              for scenario in SCENARIOS]
    prefill = []
    for system, network, scenario in blocks:
        (a, a_values), (b, b_values) = SERVICE_AXES[system].items()
        points = [{a: x, b: y} for x in a_values for y in b_values]
        prefill.append({"name": "service_prefill", "systems": [system],
                        "networks": [network], "scenarios": [scenario],
                        "grid_points": rng.sample(points, len(points) // 2)})
    submits = []
    for _ in range(10 if size == "small" else 200):
        system, network, scenario = rng.choice(blocks)
        (a, a_values), (b, b_values) = SERVICE_AXES[system].items()
        submits.append({
            "name": "service_mix", "systems": [system],
            "networks": [network], "scenarios": [scenario],
            "grid": {a: sorted(rng.sample(a_values, 2)),
                     b: sorted(rng.sample(b_values, 2))}})
    return prefill, submits


# ---------------------------------------------------------------------------
# Study workloads (dse_sweep, deep_sweep, mapper_search)
# ---------------------------------------------------------------------------

class StudyWorkload:
    """One ``Study.run`` per repetition, in this process, from an empty
    in-memory cache."""

    def __init__(self, study: Study, workers: int,
                 use_mapper: bool = False) -> None:
        self.study = study
        self.workers = workers
        self.use_mapper = use_mapper

    def setup(self) -> None:
        Study("warmup").configs(WARMUP_CONFIG).networks("tiny") \
            .options(use_mapper=self.use_mapper).run()

    def inputs_sha(self) -> str:
        return digest([job.key for job in self.study.compile()])

    def measure(self, traced: bool) -> Dict[str, Any]:
        cache = EvaluationCache()
        first: List[float] = []

        def on_record(record: Record, done: int, total: int) -> None:
            if not first:
                first.append(time.perf_counter())

        gc.collect()
        start = time.perf_counter()
        results = self.study.run(workers=self.workers, cache=cache,
                                 failure_policy=SKIP, on_record=on_record,
                                 trace=traced or None)
        wall = time.perf_counter() - start
        rss_mb = peak_rss_mb()
        ok = [record for record in results if not record.failed]
        codec = _codec_metrics([record.evaluation for record in ok]) \
            if traced else {}
        rep = {
            "points": len(results),
            "wall_s": wall,
            "requests": [[first[0] - start if first else None, wall]],
            "peak_rss_mb": rss_mb,
            "ops": [[not record.failed, record_digest(record)]
                    for record in results],
            "inputs_sha": self.inputs_sha(),
        }
        if traced:
            rep["layers"] = self._layers(results, cache, codec)
        return rep

    def _layers(self, results: ResultSet, cache: EvaluationCache,
                codec: Dict[str, float]) -> Dict[str, float]:
        jobs, compile_s = _timed(self.study.compile)
        stats = cache.stats_snapshot()
        table = ledger.SpanTable()
        table.add(obs.chrome_trace_dict(results.trace))
        counters = {
            "study.compile_s": compile_s,
            "pool.worker_peak_rss_mb": peak_rss_mb(resource.RUSAGE_CHILDREN),
            "cache.results_hit_ratio": _hit_ratio(stats["results"]),
            "cache.layers_hit_ratio": _hit_ratio(stats["layers"]),
        }
        counters.update(_planner_metrics(jobs, max(2, self.workers)))
        counters.update(_mapper_ratios(cache.mapper_search_stats()))
        counters.update(codec)
        counters.update(_results_metrics(results, lambda: ResultSet(
            Record.from_evaluation(record.tags, record.evaluation,
                                   config=record.config)
            for record in results if not record.failed)))
        return ledger.layer_metrics(table, counters)

    def reference(self) -> Dict[str, Any]:
        """The reference evaluator: ``run_job`` on each compiled job, no
        cache, no planner, no pool."""
        digests = []
        for job in self.study.compile():
            try:
                evaluation = run_job(job)
            except Exception:  # a failing point is part of the reference
                digests.append(digest({"failed": job.tags_dict}))
                continue
            digests.append(digest(network_evaluation_to_dict(evaluation)))
        return {"ops": digests, "inputs_sha": self.inputs_sha()}

    def close(self) -> None:
        pass


def record_digest(record: Record) -> str:
    if record.failed:
        return digest({"failed": record.tags})
    return digest(network_evaluation_to_dict(record.evaluation))


# ---------------------------------------------------------------------------
# service_mix
# ---------------------------------------------------------------------------

class ServiceWorkload:
    """A ``repro serve`` daemon (its own process, one worker) over a
    freshly pre-filled sharded store, driven by one closed-loop client."""

    def __init__(self, seed: int, size: str, workdir: str) -> None:
        self.prefill_specs, self.submit_specs = service_inputs(seed, size)
        self.workdir = workdir
        self.daemon: Optional[subprocess.Popen] = None
        self.client: Optional[ServiceClient] = None

    def inputs_sha(self) -> str:
        return digest([self.prefill_specs, self.submit_specs])

    def setup(self) -> None:
        store = os.path.join(self.workdir, "store")
        cache = EvaluationCache(store)
        self.prefilled = [Study.from_dict(spec).run(cache=cache)
                          for spec in self.prefill_specs]
        _, self.store_open_s = _timed(EvaluationCache, store)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
        with open(os.path.join(self.workdir, "daemon.log"), "w") as log:
            self.daemon = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--cache", store,
                 "--workers", "1", "--port", "0"],
                stdout=subprocess.PIPE, stderr=log, text=True, env=env)
        banner = self.daemon.stdout.readline()
        if not banner.startswith("repro-service listening on "):
            raise RuntimeError(f"daemon did not start: {banner!r}")
        self.client = ServiceClient(banner.split()[3], timeout=60.0)
        self.client.submit({"name": "warmup", "systems": ["albireo"],
                            "networks": ["tiny"],
                            "grid": {"clusters": [WARMUP_CONFIG.clusters]},
                            }).result()

    def measure(self, traced: bool) -> Dict[str, Any]:
        client = self.client
        before = client.stats()
        table = ledger.SpanTable()
        requests, streamed, acks, waits, streams = [], [], [], [], []
        gc.collect()
        loop_start = time.perf_counter()
        for spec in self.submit_specs:
            start = time.perf_counter()
            first = started = last = None
            got: List[Dict[str, Any]] = []
            ok = True
            try:
                handle = client.submit(spec, trace=traced)
                acks.append(time.perf_counter() - start)
                for event in handle.events():
                    now = time.perf_counter()
                    kind = event.get("event")
                    if kind == "started":
                        started = now
                    elif kind == "record":
                        got.append(event["record"])
                        first = now if first is None else first
                        last = now
                    elif kind == "error":
                        ok = False
                    elif kind == "done":
                        ok = ok and event.get("status") == "done"
            except (ServiceError, OSError):
                ok = False
            done = time.perf_counter()
            requests.append([None if first is None else first - start,
                             done - start])
            if started is not None:
                waits.append(started - start - acks[-1])
            if first is not None:
                streams.append(last - first)
            streamed.append((ok, got))
            if traced and ok:
                table.add_json(handle.trace())
        wall = time.perf_counter() - loop_start
        after = client.stats()
        rows = [row for _, got in streamed for row in got]
        rep = {
            "points": len(rows),
            "wall_s": wall,
            "requests": requests,
            "ops": [[ok and not any("error" in row for row in got),
                     sorted(digest(row) for row in got)]
                    for ok, got in streamed],
            "inputs_sha": self.inputs_sha(),
        }
        rep["peak_rss_mb"] = self._stop_daemon()
        if traced:
            rep["layers"] = self._layers(table, before, after, rows,
                                         acks, waits, streams)
        return rep

    def _layers(self, table, before, after, rows, acks, waits,
                streams) -> Dict[str, float]:
        def delta(*path):
            old, new = before, after
            for key in path:
                old, new = old[key], new[key]
            return new - old

        jobs = []
        compile_s = 0.0
        for spec in self.submit_specs:
            compiled, seconds = _timed(Study.from_dict(spec).compile)
            jobs.extend(compiled)
            compile_s += seconds
        results = ResultSet.from_records(rows)
        counters = {
            "study.compile_s": compile_s,
            "cache.results_hit_ratio": _hit_ratio({
                "hits": delta("cache", "results", "hits"),
                "misses": delta("cache", "results", "misses")}),
            "cache.layers_hit_ratio": _hit_ratio({
                "hits": delta("cache", "layers", "hits"),
                "misses": delta("cache", "layers", "misses")}),
            "store.open_s": self.store_open_s,
            "store.shard_loads": delta("cache", "store", "shard_loads"),
            "store.flushed_entries": delta("cache", "store",
                                           "flushed_entries"),
            "store.lock_wait_s": delta("cache", "store", "lock_wait_s"),
            "service.ack_ms": 1000 * median(acks),
            "service.queue_wait_ms": 1000 * median(waits),
            "service.stream_ms": 1000 * median(streams),
            "service.records_streamed": delta("service", "records_streamed"),
        }
        counters.update(_planner_metrics(jobs, 2))
        counters.update(_mapper_ratios({
            key: delta("mapper", key) for key in after["mapper"]}))
        counters.update(_codec_metrics([
            record.evaluation for prefill in self.prefilled
            for record in prefill]))
        counters.update(_results_metrics(
            results, lambda: ResultSet.from_records(rows)))
        return ledger.layer_metrics(table, counters)

    def _stop_daemon(self) -> float:
        """SIGTERM (drain), reap, and return the daemon's peak RSS."""
        daemon, self.daemon = self.daemon, None
        daemon.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + 30.0
        while True:
            pid, status, usage = os.wait4(daemon.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                daemon.kill()
                pid, status, usage = os.wait4(daemon.pid, 0)
                break
            time.sleep(0.01)
        daemon.returncode = os.waitstatus_to_exitcode(status)
        daemon.stdout.close()
        if daemon.returncode != 0:
            raise RuntimeError(
                f"daemon exited with code {daemon.returncode}")
        return usage.ru_maxrss / 1024.0

    def reference(self) -> Dict[str, Any]:
        """A local ``Study.run`` of every distinct submitted spec."""
        cache = EvaluationCache()
        local: Dict[str, List[str]] = {}
        for spec in self.submit_specs:
            key = canonical_json(spec)
            if key not in local:
                local[key] = sorted(
                    digest(record.to_dict())
                    for record in Study.from_dict(spec).run(cache=cache))
        return {"ops": [local[canonical_json(spec)]
                        for spec in self.submit_specs],
                "inputs_sha": self.inputs_sha()}

    def close(self) -> None:
        if self.daemon is not None:
            self.daemon.kill()
            self.daemon.wait()
            self.daemon.stdout.close()
            self.daemon = None


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def build(name: str, seed: int, size: str, workdir: str):
    """The named workload's object for ``seed`` at ``size``."""
    if name == "dse_sweep":
        return StudyWorkload(dse_study(seed, size), workers=2)
    if name == "deep_sweep":
        return StudyWorkload(deep_study(seed, size), workers=1)
    if name == "mapper_search":
        return StudyWorkload(mapper_study(seed, size), workers=2,
                             use_mapper=True)
    if name == "service_mix":
        return ServiceWorkload(seed, size, workdir)
    raise ValueError(f"unknown workload {name!r}")


def fig2_error_pct() -> Dict[str, Any]:
    """The Fig. 2 energy error versus the reported values, and whether it
    stays within the paper's claim."""
    result = fig2_validation.run()
    return {"fig2_err_pct": 100 * result.average_error,
            "fig2_ok": result.meets_paper_claim}
