"""Served execution is bit-identical to ``EditSession.run()``.

The serving layer's core contract: a served session calls exactly the
same engine entry points (initialize / step / finalize) on the same
state as the sync path, and all randomness lives in per-session state —
so results match bit for bit whether a session runs alone, is stepped
manually, or interleaves with many concurrent tenants.  A lone session,
with and without a memory pool, is a row of the mode-contract table
(``tests/test_mode_contracts.py``); the cases below need more than one
run or a manual driver.
"""

from __future__ import annotations

import asyncio

from repro.serve import EditService

from conftest import assert_same_run
from serveutil import make_spec


def test_manual_stepping_bit_identical():
    serial = make_spec(seed=3).run()

    async def serve():
        service = EditService()
        handle = service.submit(make_spec(seed=3))
        while not handle.done:
            view = await handle.step()
            assert view.quanta_done > 0
        return await handle.result()

    assert_same_run(serial, asyncio.run(serve()))


def test_concurrent_sessions_each_bit_identical():
    """Interleaving N tenants must not perturb any one of them."""
    seeds = [11, 22, 33, 44]
    serial = {seed: make_spec(seed=seed).run() for seed in seeds}

    async def serve():
        service = EditService(
            policy="weighted-priority", memory_budget_mb=128.0
        )
        handles = {
            seed: service.submit(
                make_spec(seed=seed), name=f"s{seed}", priority=1.0 + i
            )
            for i, seed in enumerate(seeds)
        }
        results = await asyncio.gather(
            *(h.run_to_completion() for h in handles.values())
        )
        return dict(zip(handles, results))

    served = asyncio.run(serve())
    for seed in seeds:
        assert_same_run(serial[seed], served[seed])


def test_rerun_of_same_spec_is_deterministic():
    """Two served runs of identical specs agree with each other too."""

    async def serve():
        service = EditService()
        return await service.submit(make_spec(seed=5)).run_to_completion()

    assert_same_run(asyncio.run(serve()), asyncio.run(serve()))
