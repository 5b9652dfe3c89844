"""Measuring process of the edit-run benchmark (started by ``run.py``).

Reads one pickled payload from stdin: the workload, its pickled input
sets and the time budget.  Drives the public session API for one input
set at a time (one closed-loop client, one edit session in flight):
``repro.edit(...)`` -> ``build_state()``/``build_engine()`` ->
``EditEngine.initialize/step/finalize``.  It runs whole passes over the
input sets, so every input set weighs the same however many passes fit
in the budget, and prints one JSON object with the raw per-session
timings, output digests and, for traced sessions, span totals.
"""

from __future__ import annotations

import gc
import json
import pickle
import resource
import sys
import time
import traceback

import numpy as np
import repro
from repro.models import algorithm

import workloads
from spans import Tracer


def calibrate() -> float:
    """Seconds for a fixed mix of pure-Python arithmetic, small NumPy calls
    and BLAS products, the kinds of work the edit path spends its time in.
    It runs no program code, so it measures host speed."""
    codes = np.arange(256) % 17
    weights = np.ones(256)
    rng = np.random.default_rng(0)
    A, B = rng.random((6000, 100)), rng.random((100, 2))
    t0 = time.perf_counter()
    acc = 0
    for i in range(150_000):
        acc += i * i
    for _ in range(1_500):
        np.cumsum(np.bincount(codes, weights=weights, minlength=17))
    for _ in range(30):
        np.exp(A @ B).sum()
    return time.perf_counter() - t0


def edit_session(wl: workloads.Workload, inp: workloads.EditInput, tracer: Tracer | None) -> dict:
    train_fn = algorithm(wl.model)
    if tracer is not None:
        train_fn = tracer.wrap_algorithm(train_fn)
    gc.collect()
    t0 = time.perf_counter()
    if tracer is not None:
        tracer.begin("engine.setup")
    session = (
        repro.edit(inp.train)
        .with_rules(inp.frs)
        .with_algorithm(train_fn)
        .configure(tau=wl.tau, eta=wl.eta, selection=wl.selection, random_state=inp.random_state)
    )
    state = session.build_state()
    engine = session.build_engine()
    if tracer is not None:
        tracer.wrap_stages(engine)
    engine.initialize(state)
    if tracer is not None:
        tracer.end()
    t_ready = time.perf_counter()
    iters = []
    while not state.done:
        t = time.perf_counter()
        engine.step(state)
        iters.append(time.perf_counter() - t)
    if tracer is not None:
        tracer.begin("engine.finalize")
    result = engine.finalize(state)
    if tracer is not None:
        tracer.end()
    t_end = time.perf_counter()

    # Output check (untimed, untraced).
    if tracer is not None:
        tracer.uninstall()
    pred = np.asarray(result.model.predict(inp.test.X), dtype=np.int64)
    digest = workloads.output_digest(result, inp, pred)
    return {
        "setup_s": t_ready - t0,
        "iter_s": iters,
        "run_s": t_end - t0,
        "iterations": result.iterations,
        "accepted": result.accepted_iterations,
        "rows_added": result.n_added,
        "digest": digest,
        "errors": workloads.invariant_errors(result, inp, pred, digest, wl.tau),
    }


def main() -> int:
    payload = pickle.loads(sys.stdin.buffer.read())
    wl = workloads.Workload(**payload["workload"])
    blobs = payload["inputs"]
    seconds = payload["seconds"]
    modes = (True, False) if payload["trace"] else (False,)
    sessions, calib = [], []
    start = time.perf_counter()
    passes = 0
    while True:
        pass_start = time.perf_counter()
        for draw, blob in enumerate(blobs):
            # Alternate which mode goes first so neither always runs on
            # the warmer caches.
            for traced in modes if draw % 2 == 0 else modes[::-1]:
                inp = pickle.loads(blob)  # pristine inputs for every session
                calib.append(calibrate())
                tracer = None
                if traced:
                    tracer = Tracer()
                    tracer.install()
                record = {"draw": draw, "traced": traced}
                try:
                    record.update(edit_session(wl, inp, tracer))
                except Exception as exc:  # one failed session is a failed run
                    traceback.print_exc(file=sys.stderr)
                    record["exception"] = f"{type(exc).__name__}: {exc}"
                finally:
                    if tracer is not None:
                        tracer.uninstall()
                        record["spans"] = tracer.snapshot()
                sessions.append(record)
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed + (time.perf_counter() - pass_start) > seconds:
            break
    calib.append(calibrate())  # every session sits between two calibrations
    json.dump(
        {
            "sessions": sessions,
            "calib_s": calib,
            "passes": passes,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        sys.stdout,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
