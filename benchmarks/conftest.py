"""Shared benchmark plumbing.

Each figure benchmark renders its paper-comparable table and both prints it
(visible with ``pytest -s``) and writes it to ``benchmarks/results/`` so a
benchmark run leaves reviewable artifacts next to the timing numbers.
Benchmarks that persist machine-readable ``BENCH_*.json`` reports write
them through :func:`write_bench_json`, which stamps :func:`provenance`
metadata (git commit and whether the tree was dirty, CPU count,
interpreter, platform, UTC timestamp) so a checked-in number can always
be traced to the tree and machine that produced it.
"""

from __future__ import annotations

import datetime
import json
import os
import pathlib
import platform
import subprocess

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def publish(name: str, text: str) -> None:
    """Print a result table and persist it under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n{'=' * 72}\n{text}\n{'=' * 72}")


def provenance() -> dict:
    """Where/when/on-what a benchmark number was produced."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT,
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
        # Uncommitted changes under src/ or benchmarks/ mean the number
        # came from the commit *plus* a working-tree diff.
        dirty = bool(subprocess.run(
            ["git", "status", "--porcelain", "--", "src", "benchmarks"],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.strip())
    except (OSError, subprocess.SubprocessError):
        commit, dirty = None, None
    return {
        "git_commit": commit,
        "git_dirty": dirty,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "timestamp_utc": datetime.datetime.now(
            datetime.timezone.utc).isoformat(timespec="seconds"),
    }


def write_bench_json(path, report: dict) -> None:
    """Persist a ``BENCH_*.json`` report with provenance stamped in."""
    stamped = dict(report)
    stamped["provenance"] = provenance()
    pathlib.Path(path).write_text(json.dumps(stamped, indent=2) + "\n")
