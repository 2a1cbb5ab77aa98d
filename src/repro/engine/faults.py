"""Deterministic fault injection + the worker-side task watchdog.

The resilience layer (worker supervision in :mod:`repro.engine.pool`,
retry/quarantine policy in :mod:`repro.engine.executor`) needs a test
substrate that makes failures happen *on demand and deterministically*:
a :class:`FaultPlan` is a list of :class:`FaultSpec` rules keyed by a
task-key pattern and an attempt number.  When a pool worker (or the
in-process route) is about to compute a matching task on the matching
attempt, the spec's action fires:

* ``"raise"`` — raise :class:`InjectedFault` (an ordinary task error);
* ``"sleep"`` — sleep ``seconds`` (drives the ``task_timeout`` watchdog);
* ``"exit"``  — ``os._exit(1)`` (abrupt worker death, atexit skipped);
* ``"kill"``  — SIGKILL the worker's own pid (the OOM-killer stand-in).

``exit`` and ``kill`` model *worker* deaths, so they only end the
process inside a pool worker (one marked by :func:`enter_worker`).
Fired anywhere else — the in-process route at ``workers=1``, or a
one-job retry round of a pooled run — they raise
:class:`~repro.exceptions.WorkerCrashError` instead, which follows the
failure policy like any task error: a CLI or service daemon is never
killed by its own fault plan.

Task keys are ``"system:layer:kind"`` for planner sub-tasks (``kind`` is
``mapper`` or ``layer``) and ``"system:network:job"`` for whole jobs
(checked before assembly on the planner routes, and around whole-job
evaluation); ``match`` is an
:func:`fnmatch.fnmatch` pattern over that string, so ``"*:conv1:*"``
targets one layer everywhere and ``"albireo:*"`` one system.  ``attempt``
pins the rule to one (re)dispatch attempt — ``0`` fires on the first try
only, so a retried task then succeeds; ``-1`` fires every time, modeling
a deterministic failure that must end up quarantined.

Plans travel as plain dicts (JSON files, ``repro run --inject`` and the
``REPRO_INJECT`` environment variable — a path or inline JSON — both
resolve through :func:`resolve_plan`) and ride to pool workers inside
dispatch payloads, so injection works identically in-process and across
process boundaries.

:func:`task_deadline` is the watchdog the executor arms around each task
when a :class:`~repro.engine.executor.FailurePolicy` sets
``task_timeout``: a real-time SIGALRM interval timer whose handler
raises :class:`~repro.exceptions.TaskTimeoutError` — it interrupts pure
Python and sleeps alike, and is a no-op off the main thread or on
platforms without ``setitimer``.  Pool workers always run tasks on their
main thread; the in-process route runs on the caller's thread, so a
``workers=1`` run driven from another thread (the ``repro serve``
daemon's executor thread) has no watchdog.
"""

from __future__ import annotations

import fnmatch
import json
import os
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Tuple,
    Union,
)

from repro.exceptions import ReproError, TaskTimeoutError, WorkerCrashError

#: Environment variable consulted when no explicit plan is passed:
#: either a path to a plan JSON file or the inline JSON itself.
FAULT_PLAN_ENV = "REPRO_INJECT"

_ACTIONS = ("raise", "sleep", "exit", "kill")

# Set by the pool initializers: only a pool worker may really die.
_IN_WORKER = False


def enter_worker() -> None:
    """Mark this process as a pool worker, where ``exit``/``kill``
    specs end the process (see the module docstring)."""
    global _IN_WORKER
    _IN_WORKER = True


class InjectedFault(ReproError):
    """The error an ``action="raise"`` fault spec produces."""


@dataclass(frozen=True)
class FaultSpec:
    """One injection rule: pattern x attempt -> action."""

    match: str                  # fnmatch pattern over the task key
    action: str = "raise"       # "raise" | "sleep" | "exit" | "kill"
    attempt: int = 0            # dispatch attempt to fire on; -1 = every
    seconds: float = 30.0       # sleep duration for action="sleep"
    message: str = "injected fault"

    def __post_init__(self) -> None:
        if self.action not in _ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r}; "
                f"options: {', '.join(_ACTIONS)}")

    def applies(self, task_key: str, attempt: int) -> bool:
        if self.attempt >= 0 and attempt != self.attempt:
            return False
        return fnmatch.fnmatch(task_key, self.match)

    def fire(self) -> None:
        if self.action == "raise":
            raise InjectedFault(f"{self.message} [{self.match}]")
        if self.action == "sleep":
            time.sleep(self.seconds)
            return
        if not _IN_WORKER:
            raise WorkerCrashError(
                f"injected {self.action} [{self.match}] outside a pool "
                f"worker")
        if self.action == "exit":
            os._exit(1)
        os.kill(os.getpid(), signal.SIGKILL)  # pragma: no cover - dies

    def to_dict(self) -> Dict[str, Any]:
        return {"match": self.match, "action": self.action,
                "attempt": self.attempt, "seconds": self.seconds,
                "message": self.message}

    @classmethod
    def from_dict(cls, spec: Mapping[str, Any]) -> "FaultSpec":
        unknown = sorted(set(spec) - {"match", "action", "attempt",
                                      "seconds", "message"})
        if unknown:
            raise ValueError(f"unknown fault spec keys: {unknown}")
        if "match" not in spec:
            raise ValueError("fault spec needs a 'match' pattern")
        return cls(match=str(spec["match"]),
                   action=str(spec.get("action", "raise")),
                   attempt=int(spec.get("attempt", 0)),
                   seconds=float(spec.get("seconds", 30.0)),
                   message=str(spec.get("message", "injected fault")))


class FaultPlan:
    """An ordered set of :class:`FaultSpec` rules (first match fires)."""

    def __init__(self, specs: Iterable[FaultSpec] = ()) -> None:
        self.specs: Tuple[FaultSpec, ...] = tuple(specs)

    def __bool__(self) -> bool:
        return bool(self.specs)

    def __len__(self) -> int:
        return len(self.specs)

    def check(self, task_key: str, attempt: int) -> None:
        """Fire the first spec matching ``(task_key, attempt)``, if any."""
        for spec in self.specs:
            if spec.applies(task_key, attempt):
                spec.fire()
                return

    # ------------------------------------------------------------------
    # Wire/JSON forms
    # ------------------------------------------------------------------
    def to_wire(self) -> List[Dict[str, Any]]:
        """A plain-data form safe to pickle into worker payloads."""
        return [spec.to_dict() for spec in self.specs]

    @classmethod
    def from_wire(cls, wire: Optional[Iterable[Mapping[str, Any]]],
                  ) -> Optional["FaultPlan"]:
        if wire is None:
            return None
        return cls(FaultSpec.from_dict(spec) for spec in wire)

    @classmethod
    def from_data(cls, data: Any) -> "FaultPlan":
        """Build from decoded JSON: a spec list, or ``{"faults": [...]}``."""
        if isinstance(data, Mapping):
            data = data.get("faults", [])
        if not isinstance(data, (list, tuple)):
            raise ValueError(
                "fault plan JSON must be a list of specs or an object "
                "with a 'faults' list")
        return cls(FaultSpec.from_dict(spec) for spec in data)

    @classmethod
    def from_json(cls, path: str) -> "FaultPlan":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_data(json.load(handle))

    @classmethod
    def from_env(cls) -> Optional["FaultPlan"]:
        """The plan named by :data:`FAULT_PLAN_ENV` (path or inline
        JSON), or ``None`` when the variable is unset/empty."""
        raw = os.environ.get(FAULT_PLAN_ENV, "").strip()
        if not raw:
            return None
        if raw.startswith("[") or raw.startswith("{"):
            return cls.from_data(json.loads(raw))
        return cls.from_json(raw)


class TaskGuard(NamedTuple):
    """The failure-policy context every task runs under: the watchdog
    deadline, whether errors are captured as data, and the fault plan.
    Routes pass ``None`` instead when all three are off (the
    zero-overhead fast path)."""

    timeout: Optional[float]
    capture: bool
    plan: Optional[FaultPlan]


def resolve_plan(
        inject: Union[None, str, Mapping[str, Any], list, "FaultPlan"],
) -> Optional[FaultPlan]:
    """Normalize the executor's ``inject`` argument to a plan (or None).

    Accepts an existing plan, a JSON file path, decoded JSON data, or
    ``None`` — which falls back to the :data:`FAULT_PLAN_ENV` variable so
    injection reaches any entry point without threading a flag through.
    """
    if inject is None:
        return FaultPlan.from_env()
    if isinstance(inject, FaultPlan):
        return inject
    if isinstance(inject, str):
        return FaultPlan.from_json(inject)
    return FaultPlan.from_data(inject)


def job_task_key(job: Any) -> str:
    """The injection key for a whole-job evaluation."""
    return f"{job.system}:{job.network.name}:job"


def sub_task_key(system_name: str, task: Any) -> str:
    """The injection key for one planner sub-task."""
    return f"{system_name}:{task.layer.name}:{task.kind}"


@contextmanager
def task_deadline(seconds: Optional[float]):
    """Arm a real-time watchdog around one task (see module docstring).

    ``None``/``0`` yields unguarded.  Only the process main thread can
    receive SIGALRM; elsewhere the deadline degrades to unguarded rather
    than failing (pool workers always run tasks on their main thread).
    """
    if (not seconds
            or threading.current_thread() is not threading.main_thread()
            or not hasattr(signal, "setitimer")):
        yield
        return

    def _expired(_signum, _frame):
        raise TaskTimeoutError(
            f"task exceeded its {seconds:g}s deadline")

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
