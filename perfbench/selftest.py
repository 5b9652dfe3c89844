"""Self-test of the edit-run benchmark.  From the root of a checkout::

    python3 perfbench/selftest.py

Checks, at tiny sizes (a few minutes in all):

1. every workload, untraced and traced, emits every metric that
   ``BENCHMARK.json`` names, with its unit, and tracing leaves the
   edited model's outputs unchanged;
2. changing one input row trips the input-fingerprint check;
3. changing one recorded output hash trips the output check;
4. in a directory holding only ``BENCHMARK.json`` and ``perfbench/``,
   the benchmark exits non-zero without printing a result.

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import copy
import math
import shutil
import subprocess
import sys

import run


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")
    print(f"ok  {message}", flush=True)


def check_metrics(result: dict, section: list[dict], label: str) -> None:
    emitted = result["metrics"]
    check(set(emitted) == {m["name"] for m in section}, f"{label}: emits exactly the named metrics")
    for m in section:
        got = emitted[m["name"]]
        if got["unit"] != m["unit"] or not math.isfinite(got["value"]):
            check(False, f"{label}: {m['name']} = {got}, want a number in {m['unit']}")


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import workloads

    spec = run.load_spec()
    check(
        sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS),
        "BENCHMARK.json lists exactly the defined workloads",
    )
    for name in workloads.WORKLOADS:
        wl = workloads.tiny(workloads.WORKLOADS[name])
        inputs = workloads.generate_inputs(wl, 0)
        record: dict = {}
        plain = run.run_benchmark(
            wl, 0, 0.0, False, expected_all=record, record=True, inputs=inputs
        )
        check(plain["failed"] == 0 and record, f"{name}: tiny untraced run passes and records")
        check_metrics(run.result_line(plain, spec), spec["end_to_end"], f"{name} trace 0")
        traced = run.run_benchmark(wl, 0, 0.0, True, expected_all=record, inputs=inputs)
        check(traced["failed"] == 0 and traced["pinned"],
              f"{name}: traced outputs equal the untraced record")
        check_metrics(run.result_line(traced, spec), spec["per_layer"], f"{name} trace 1")

        changed = copy.deepcopy(inputs)
        y = changed[0].train.y.copy()
        y[0] = (y[0] + 1) % changed[0].train.n_classes
        changed[0].train = changed[0].train.with_labels(y)
        try:
            run.run_benchmark(wl, 0, 0.0, False, expected_all=record, inputs=changed)
        except run.Refused:
            check(True, f"{name}: one changed input row is refused")
        else:
            check(False, f"{name}: one changed input row is refused")

        wrong = copy.deepcopy(record)
        wrong[name]["0"]["outputs"][0]["pred_sha"] = "0" * 16
        bad = run.run_benchmark(wl, 0, 0.0, False, expected_all=wrong, inputs=inputs)
        check(bad["failed"] == bad["attempted"] >= 1,
              f"{name}: a changed expected hash fails the output check")

    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(
        run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    proc = subprocess.run(
        [*spec["command"], "--workload", "car-rf", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    check(proc.returncode != 0 and '"metrics"' not in proc.stdout,
          f"without the program source the benchmark exits {proc.returncode} with no result")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
