"""The per-layer ledger: which metrics it holds and how each is read.

Layer times come from the spans the engine already records
(``repro.obs``), read from the Chrome-trace form both ``ResultSet.trace``
and the daemon's ``/v1/studies/<id>/trace`` export.  Counts and ratios
come from the engine's own counters, and the remaining layers are timed
by the benchmark around calls into their public functions; the
repetition process passes those in as ``counters``.  A layer that a
workload's path never reaches reads 0.

Stdlib only: the controller imports this module for the names and units
without importing the engine.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Tuple

#: (name, unit, better) for every per-layer metric, in ledger order.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("study.compile_s", "s", "lower"),
    ("study.jobs", "count", "lower"),
    ("planner.plan_s", "s", "lower"),
    ("planner.planned", "count", "lower"),
    ("planner.phase1_tasks", "count", "lower"),
    ("planner.dedup_ratio", "ratio", "higher"),
    ("executor.lookup_s", "s", "lower"),
    ("executor.serial_s", "s", "lower"),
    ("executor.phase1_s", "s", "lower"),
    ("executor.aliases_s", "s", "lower"),
    ("executor.assemble_s", "s", "lower"),
    ("executor.wait_s", "s", "lower"),
    ("executor.dispatch_self_s", "s", "lower"),
    ("pool.spawn_s", "s", "lower"),
    ("pool.spawns", "count", "lower"),
    ("pool.batches", "count", "lower"),
    ("pool.respawns", "count", "lower"),
    ("pool.worker_peak_rss_mb", "MB", "lower"),
    ("analysis.evaluate_s", "s", "lower"),
    ("analysis.evaluations", "count", "lower"),
    ("refmap.select_s", "s", "lower"),
    ("system.build_s", "s", "lower"),
    ("mapper.search_s", "s", "lower"),
    ("mapper.searches", "count", "lower"),
    ("mapper.evaluated", "count", "lower"),
    ("mapper.valid_ratio", "ratio", "higher"),
    ("mapper.dedup_ratio", "ratio", "higher"),
    ("codec.encode_s", "s", "lower"),
    ("codec.decode_s", "s", "lower"),
    ("results.build_s", "s", "lower"),
    ("results.pareto_s", "s", "lower"),
    ("results.to_json_s", "s", "lower"),
    ("cache.results_hit_ratio", "ratio", "higher"),
    ("cache.layers_hit_ratio", "ratio", "higher"),
    ("store.open_s", "s", "lower"),
    ("store.flush_s", "s", "lower"),
    ("store.shard_loads", "count", "lower"),
    ("store.flushed_entries", "count", "lower"),
    ("store.lock_wait_s", "s", "lower"),
    ("service.ack_ms", "ms", "lower"),
    ("service.queue_wait_ms", "ms", "lower"),
    ("service.stream_ms", "ms", "lower"),
    ("service.records_streamed", "count", "higher"),
    ("obs.overhead_pct", "%", "lower"),
    ("obs.coverage", "ratio", "higher"),
)

#: Ledger metric -> (span name, column) read from the span table.
#: ``analysis.evaluate_s`` is the self time of ``layer.evaluate``: the
#: nested ``refmap.select`` and ``mapper.search`` have rows of their own.
FROM_SPANS: Dict[str, Tuple[str, str]] = {
    "executor.lookup_s": ("run_jobs.lookup", "total"),
    "executor.serial_s": ("run_jobs.serial", "total"),
    "executor.phase1_s": ("executor.phase1", "total"),
    "executor.aliases_s": ("executor.aliases", "total"),
    "executor.assemble_s": ("run_jobs.assemble", "total"),
    "executor.wait_s": ("executor.wait", "total"),
    "executor.dispatch_self_s": ("executor.dispatch", "self"),
    "pool.spawn_s": ("executor.pool_spawn", "total"),
    "pool.spawns": ("executor.pool_spawn", "count"),
    "pool.batches": ("worker.batch", "count"),
    "pool.respawns": ("pool.respawn", "count"),
    "analysis.evaluate_s": ("layer.evaluate", "self"),
    "analysis.evaluations": ("layer.evaluate", "count"),
    "refmap.select_s": ("refmap.select", "total"),
    "system.build_s": ("system.build", "total"),
    "mapper.search_s": ("mapper.search", "total"),
    "store.flush_s": ("cache.flush", "total"),
}

_COLUMNS = {"count": 0, "total": 1, "self": 2}


class SpanTable:
    """Per-span-name ``[count, total_s, self_s]`` summed over every lane
    of one or more Chrome traces, plus the main lane's coverage."""

    def __init__(self) -> None:
        self.rows: Dict[str, List[float]] = {}
        self.covered_us = 0.0
        self.extent_us = 0.0

    def add_json(self, text: str) -> None:
        self.add(json.loads(text))

    def add(self, chrome: Dict[str, Any]) -> None:
        main = None
        lanes: Dict[Any, List[Dict[str, Any]]] = {}
        for event in chrome["traceEvents"]:
            if event["ph"] == "M":
                if event["name"] == "thread_name" \
                        and event["args"]["name"] == "main":
                    main = event["tid"]
            elif event["ph"] == "X":
                lanes.setdefault(event["tid"], []).append(event)
        for tid, events in lanes.items():
            events.sort(key=lambda event: (event["ts"], -event["dur"]))
            covered = self._add_lane(events)
            if tid == main:
                self.covered_us += covered
                self.extent_us += (max(e["ts"] + e["dur"] for e in events)
                                   - events[0]["ts"])

    def _add_lane(self, events: List[Dict[str, Any]]) -> float:
        """Fold one lane's spans in; returns the time its top-level spans
        cover.  A span's self time is its duration minus its children's."""
        stack: List[Tuple[float, List[float]]] = []
        covered = 0.0
        for event in events:
            start, duration = event["ts"], event["dur"]
            while stack and stack[-1][0] <= start:
                stack.pop()
            row = self.rows.setdefault(event["name"], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += duration / 1e6
            row[2] += duration / 1e6
            if stack:
                stack[-1][1][2] -= duration / 1e6
            else:
                covered += duration
            stack.append((start + duration, row))
        return covered

    def get(self, span: str, column: str) -> float:
        row = self.rows.get(span)
        return row[_COLUMNS[column]] if row else 0.0

    @property
    def coverage(self) -> float:
        return (min(1.0, self.covered_us / self.extent_us)
                if self.extent_us else 0.0)


def layer_metrics(table: SpanTable,
                  counters: Dict[str, float]) -> Dict[str, float]:
    """Every ledger metric but ``obs.overhead_pct`` (which compares
    repetitions, so the controller adds it)."""
    values = {name: table.get(span, column)
              for name, (span, column) in FROM_SPANS.items()}
    values["obs.coverage"] = table.coverage
    values.update(counters)
    return {name: float(values.get(name, 0.0))
            for name, _unit, _better in PER_LAYER
            if name != "obs.overhead_pct"}
