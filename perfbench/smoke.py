"""Smoke test of the benchmark at reduced size.

    python3 perfbench/smoke.py

Runs every workload once untraced at the default seed and once traced at
the held-out seed, both at size ``small``, and checks that:

* ``BENCHMARK.json`` names exactly the workloads and metrics this code
  produces, with the same units;
* every run passes the correctness gate, and both seeds give inputs of
  the same size;
* the gate reports a failure when one reference digest is wrong.

Exits non-zero on the first failed check.
"""

import json
import os
import sys

import ledger
import run


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"perfbench smoke: FAILED: {message}")


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    check([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
          "BENCHMARK.json workloads differ from run.WORKLOADS")
    end_to_end = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    check(end_to_end == list(run.END_TO_END),
          "BENCHMARK.json end_to_end differs from run.END_TO_END")
    per_layer = [(m["name"], m["unit"], m["better"])
                 for m in spec["per_layer"]]
    check(per_layer == list(ledger.PER_LAYER),
          "BENCHMARK.json per_layer differs from ledger.PER_LAYER")

    for workload in run.WORKLOADS:
        points = []
        for seed, trace, expected in (
                (run.DEFAULT_SEED, False, end_to_end),
                (run.HELD_OUT_SEED, True,
                 [(name, unit) for name, unit, _ in ledger.PER_LAYER])):
            outcome = run.evaluate(workload, seed, 0, trace, size="small")
            check(outcome["correct"] and outcome["failed"] == 0,
                  f"{workload} seed {seed}: gate failed")
            values = outcome["per_layer"] if trace else outcome["end_to_end"]
            check(sorted(values) == sorted(name for name, _ in expected),
                  f"{workload}: metrics {sorted(values)}")
            check(all(isinstance(values[name], float) for name in values),
                  f"{workload}: non-numeric metric")
            points.append(outcome["reps"][0]["points"])

            reference = dict(outcome["reference"])
            reference["ops"] = ["0" * 64] + reference["ops"][1:]
            attempted, failed = run.gate(outcome["reps"], reference)
            check(failed == len(outcome["reps"]) and attempted > failed,
                  f"{workload}: gate missed a wrong reference digest")
        check(points[0] == points[1],
              f"{workload}: seeds give different input sizes {points}")
        print(f"perfbench smoke: {workload} ok", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
