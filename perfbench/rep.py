"""One benchmark repetition in a fresh interpreter.

    python3 perfbench/rep.py measure WORKLOAD SEED SIZE WORKDIR [--traced]
    python3 perfbench/rep.py reference WORKLOAD SEED SIZE WORKDIR

``measure`` sets the workload up, runs its timed region once and prints
one JSON object: the timings, the digests the correctness gate checks,
and ``ready_monotonic`` (``time.monotonic()`` when set-up ended, which
the controller subtracts from its spawn time to get ``setup_s``).
``reference`` prints the reference digests for the same inputs.  Run by
``run.py`` with ``PYTHONPATH`` pointing at the repository's ``src``.
"""

import json
import sys
import time


def main(argv):
    mode, name, seed, size, workdir = argv[:5]
    traced = "--traced" in argv[5:]
    import workloads

    workload = workloads.build(name, int(seed), size, workdir)
    try:
        if mode == "reference":
            result = workload.reference()
            result.update(workloads.fig2_error_pct())
        else:
            workload.setup()
            ready = time.monotonic()
            result = workload.measure(traced)
            result["ready_monotonic"] = ready
            result["traced"] = traced
    finally:
        workload.close()
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
