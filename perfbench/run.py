"""Edit-run benchmark: time to an edited model, per paper model.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload adult-lr --seed 0 --seconds 20 --trace 0

The run generates the workload's inputs from ``--seed`` (untimed),
refuses to go on if a recorded seed's input fingerprint differs, then
starts a fresh measuring process (``measure.py``, BLAS/OpenMP threads
pinned to 1) that runs edit sessions, one at a time, for about
``--seconds``.  Every session's outputs are checked; a session that
raises, breaks an invariant, differs from the recorded outputs of its
seed, or differs between two runs of the same input counts as failed.
With ``--trace 0`` the last line of stdout holds the end-to-end metrics,
with ``--trace 1`` the per-layer metrics from a traced run (untraced
sessions of the same inputs run alongside, for the tracing overhead).
Metric names and units come from ``BENCHMARK.json``; a human-readable
summary and a JSON report under ``perfbench/out/`` accompany each run.

``--record`` stores the run's input fingerprint and outputs in
``perfbench/expected.json`` as the reference for its seed.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import pickle  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"
OUT = HERE / "out"
TIME_LIMIT_S = 170.0  # the whole run, generation included

LAYERS = ("engine", "models", "data", "neighbors", "sampling", "core")

#: Which end-to-end metric each per-layer metric should move.
LAYER_MOVES = {
    "engine.setup_s": "setup_s, run_s",
    "engine.finalize_s": "run_s",
    "engine.preselect_s": "iter_s",
    "engine.select_s": "iter_s",
    "engine.generate_s": "iter_s",
    "engine.accept_s": "iter_s",
    "engine.unattributed_s": "run_s",
    "engine.iterations": "run_s",
    "engine.accepted": "iter_s (a rejected iteration is a wasted fit)",
    "engine.accept_ratio": "iter_s",
    "engine.rows_added": "iter_s, peak_rss_mb",
    "models.fit_s": "iter_s, run_s, setup_s",
    "models.fit_calls": "iter_s, run_s, setup_s",
    "models.fit_rows": "iter_s, run_s, setup_s",
    "models.estimator_fit_s": "iter_s, run_s, setup_s",
    "models.lbfgs_iters": "iter_s",
    "models.predict_s": "iter_s",
    "models.predict_rows": "iter_s",
    "data.encode_s": "iter_s",
    "data.encode_rows": "iter_s",
    "neighbors.query_s": "iter_s",
    "neighbors.queries": "iter_s",
    "neighbors.build_s": "iter_s",
    "sampling.generate_s": "iter_s",
    "sampling.rows_generated": "iter_s",
    "sampling.borderline_s": "iter_s",
    "core.ip_solve_s": "iter_s",
    "core.evaluate_s": "iter_s",
    "host.calib_s": "none: host speed drift",
    "trace.overhead_s": "none: traced minus untraced run_s",
    **{f"share.{layer}": "run_s" for layer in (*LAYERS, "unattributed")},
}


class Refused(Exception):
    """The run cannot be compared with others (exit 3, no result)."""


def high_percentile(samples: list[float]) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples above it, as
    ``(percentile, value)``; ``None`` below eleven samples."""
    n = len(samples)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def load_expected() -> dict:
    if EXPECTED.is_file():
        with open(EXPECTED) as fh:
            return json.load(fh)
    return {}


def measure(workload, inputs: list, seconds: float, trace: bool, timeout: float) -> dict:
    """Run ``measure.py`` in a fresh process and return its report."""
    payload = pickle.dumps(
        {
            "workload": asdict(workload),
            "inputs": [pickle.dumps(inp) for inp in inputs],
            "seconds": seconds,
            "trace": trace,
        }
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, str(HERE / "measure.py")],
        input=payload,
        stdout=subprocess.PIPE,
        env=env,
        timeout=timeout,
        check=True,
    )
    return json.loads(proc.stdout)


def check_outputs(sessions: list[dict], expected: dict | None) -> list[str]:
    """Mark each failed session; returns one message per failure."""
    failures = []
    first: dict[int, dict] = {}
    for s in sessions:
        why = []
        if "exception" in s:
            why.append(s["exception"])
        else:
            why.extend(s["errors"])
            digest = s["digest"]
            if expected is not None and digest != expected["outputs"][s["draw"]]:
                why.append(f"outputs {digest} != recorded {expected['outputs'][s['draw']]}")
            ref = first.setdefault(s["draw"], digest)
            if digest != ref:
                why.append(f"outputs differ between runs of one input: {digest} != {ref}")
        s["failed"] = bool(why)
        failures.extend(f"draw {s['draw']}: {w}" for w in why)
    return failures


def end_to_end(report: dict) -> tuple[dict, list[str]]:
    ok = [s for s in report["sessions"] if not s["failed"] and not s["traced"]]
    samples = {
        "setup_s": [s["setup_s"] for s in ok],
        "iter_s": [t for s in ok for t in s["iter_s"]],
        "run_s": [s["run_s"] for s in ok],
    }
    values = {name: statistics.median(xs) for name, xs in samples.items()}
    calib = statistics.median(report["calib_s"])
    # The host's speed drifts by 10-30% over minutes; step and run time in
    # units of the calibration loop of the same run track the program,
    # not the host (see README.md, "Steadiness").
    values["iter_calib"] = values["iter_s"] / calib
    values["run_calib"] = values["run_s"] / calib
    values["peak_rss_mb"] = report["peak_rss_mb"]
    lines = []
    for name, xs in samples.items():
        tail = high_percentile(xs)
        tail_text = f"p{tail[0]:.1f} {tail[1]:.4f} s" if tail else "no percentile (<11 samples)"
        lines.append(f"  {name:<12} median {values[name]:.4f} s   {tail_text}   n={len(xs)}")
    for name, raw in (("iter_calib", "iter_s"), ("run_calib", "run_s")):
        lines.append(f"  {name:<12} {values[name]:.3f} calib = {raw} / host.calib_s {calib:.4f} s")
    lines.append(f"  {'peak_rss_mb':<12} {values['peak_rss_mb']:.1f} MiB")
    digests = {s["draw"]: s["digest"] for s in ok}
    for key in ("test_mra", "test_f1"):
        vals = [d[key] for d in digests.values()]
        lines.append(
            f"  {key:<12} mean {statistics.fmean(vals):.4f} ratio over {len(vals)} "
            f"input sets (exact per seed: output check)"
        )
    return values, lines


def per_layer(report: dict) -> tuple[dict, list[str]]:
    traced = [s for s in report["sessions"] if s["traced"] and not s["failed"]]
    untraced = [s for s in report["sessions"] if not s["traced"] and not s["failed"]]
    n = len(traced)
    total = {}
    self_time = {}
    counts = {}
    calls = {}
    top = 0.0
    for s in traced:
        sp = s["spans"]
        for src, dst in ((sp["total"], total), (sp["self"], self_time),
                         (sp["counts"], counts), (sp["calls"], calls)):
            for k, v in src.items():
                dst[k] = dst.get(k, 0.0) + v
        top += sp["top_level"]
    run_total = sum(s["run_s"] for s in traced)

    def per_run(d, key):
        return d.get(key, 0.0) / n

    values = {}
    for span in ("engine.setup", "engine.finalize", "engine.preselect", "engine.select",
                 "engine.generate", "engine.accept", "models.fit", "models.estimator_fit",
                 "models.predict", "data.encode", "neighbors.query", "neighbors.build",
                 "sampling.generate", "sampling.borderline", "core.ip_solve", "core.evaluate"):
        values[f"{span}_s"] = per_run(total, span)
    values["engine.unattributed_s"] = (run_total - top) / n
    iterations = sum(s["iterations"] for s in traced)
    accepted = sum(s["accepted"] for s in traced)
    values["engine.iterations"] = iterations / n
    values["engine.accepted"] = accepted / n
    values["engine.accept_ratio"] = accepted / iterations
    values["engine.rows_added"] = sum(s["rows_added"] for s in traced) / n
    values["models.fit_calls"] = per_run(calls, "models.fit")
    for counter in ("models.fit_rows", "models.lbfgs_iters", "models.predict_rows",
                    "data.encode_rows", "neighbors.queries", "sampling.rows_generated"):
        values[counter] = per_run(counts, counter)
    values["host.calib_s"] = statistics.median(report["calib_s"])
    values["trace.overhead_s"] = (
        statistics.median(s["run_s"] for s in traced)
        - statistics.median(s["run_s"] for s in untraced)
    )
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, secs in self_time.items():
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + secs
    layer_self["unattributed"] = run_total - top
    for layer, secs in layer_self.items():
        values[f"share.{layer}"] = secs / run_total
    lines = [f"  layer self-time share of run_s ({n} traced sessions, "
             f"{run_total / n:.3f} s per session):"]
    for layer, secs in sorted(layer_self.items(), key=lambda kv: -kv[1]):
        lines.append(f"    {layer:<13} {secs / n:8.4f} s  {100 * secs / run_total:6.2f}%")
    overhead = values["trace.overhead_s"]
    lines.append(f"  tracing overhead: {overhead:+.4f} s per session "
                 f"(traced minus untraced median run_s)")
    return values, lines


def run_benchmark(workload, seed: int, seconds: float, trace: bool, *,
                  expected_all: dict, record: bool = False,
                  inputs: list | None = None) -> dict:
    """One benchmark run; returns the result object plus report details.

    Raises :class:`Refused` when the inputs differ from the recorded
    inputs of this seed.  ``inputs`` overrides generation (self-test).
    """
    import workloads

    started = time.perf_counter()
    if inputs is None:
        inputs = workloads.generate_inputs(workload, seed)
    fingerprint = workloads.input_fingerprint(inputs)
    expected = expected_all.get(workload.name, {}).get(str(seed))
    if record:
        expected = None
    elif expected is not None and expected["inputs"] != fingerprint:
        raise Refused(
            f"{workload.name} seed {seed}: input fingerprint {fingerprint} != recorded "
            f"{expected['inputs']}; refusing to compare runs on different inputs"
        )
    report = measure(workload, inputs, seconds, trace,
                     timeout=max(1.0, TIME_LIMIT_S - (time.perf_counter() - started)))
    failures = check_outputs(report["sessions"], expected)
    attempted = len(report["sessions"])
    failed = sum(s["failed"] for s in report["sessions"])
    lines = [
        f"perfbench {workload.name} seed={seed} trace={int(trace)}: "
        f"{attempted} sessions over {report['passes']} pass(es) of {len(inputs)} input set(s)",
        f"  inputs fingerprint {fingerprint} "
        + ("(matches record)" if expected else "(seed not recorded: invariants and "
           "repeat-consistency checked)"),
        f"  host.calib_s median {statistics.median(report['calib_s']):.4f} s",
        f"  fail_ratio {failed}/{attempted} = {failed / attempted:.3f}",
    ]
    lines.extend(f"  FAILED {msg}" for msg in failures)
    values: dict = {}
    modes_ok = {s["traced"] for s in report["sessions"] if not s["failed"]}
    if modes_ok == ({True, False} if trace else {False}):
        values, more = (per_layer if trace else end_to_end)(report)
        lines.extend(more)
    if record and failed == 0:
        by_draw = {s["draw"]: s["digest"] for s in report["sessions"]}
        expected_all.setdefault(workload.name, {})[str(seed)] = {
            "inputs": fingerprint,
            "outputs": [by_draw[d] for d in range(len(inputs))],
        }
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "fingerprint": fingerprint,
        "pinned": expected is not None,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "values": values,
        "lines": lines,
        "sessions": report["sessions"],
        "calib_s": report["calib_s"],
    }


def result_line(run: dict, spec: dict) -> dict:
    section = spec["per_layer" if run["trace"] else "end_to_end"]
    metrics = {}
    for m in section:
        value = run["values"][m["name"]]
        if not math.isfinite(value):
            raise ValueError(f"metric {m['name']} is not finite: {value}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program source {SRC / 'repro'} not found", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = load_spec()
    expected_all = load_expected()
    try:
        run = run_benchmark(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                            bool(args.trace), expected_all=expected_all, record=args.record)
    except Refused as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    except subprocess.TimeoutExpired:
        print(f"perfbench: measuring process exceeded {TIME_LIMIT_S:.0f} s", file=sys.stderr)
        return 1
    except subprocess.CalledProcessError as exc:
        print(f"perfbench: measuring process failed with code {exc.returncode}",
              file=sys.stderr)
        return 1
    if not run["values"]:
        print("\n".join(run["lines"]))
        print("perfbench: no metrics: every session of a mode failed", file=sys.stderr)
        return 1
    result = result_line(run, spec)
    if args.record and run["failed"] == 0:
        with open(EXPECTED, "w") as fh:
            json.dump(expected_all, fh, indent=1, sort_keys=True)
            fh.write("\n")
    OUT.mkdir(exist_ok=True)
    report_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(report_path, "w") as fh:
        json.dump({**{k: v for k, v in run.items() if k != "lines"},
                   "result": result, "layer_moves": LAYER_MOVES}, fh, indent=1)
    print("\n".join(run["lines"]))
    print(f"  report: {report_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
