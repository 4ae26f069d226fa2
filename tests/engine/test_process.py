"""Tests for the multiprocess backend: transport, fallbacks, selection.

Conformance with the other backends is covered by
``test_backend_conformance.py``; here we pin the process-specific
machinery — pickle-safe plan transport with worker-side caching, the
``run_values`` batch hook behind ``Engine.run_many``, graceful
degradation on unpicklable plans, and the cost model's process-vs-in-thread
decision.
"""

from __future__ import annotations

import pytest

from repro import engine
from repro.core.costs import tight_family
from repro.core.normalize import Normalize
from repro.engine import BACKENDS, Engine, ProcessBackend
from repro.engine.cost_model import WIDE_SPINE, select_backend
from repro.engine.plan import compile_plan
from repro.errors import OrNRATypeError
from repro.lang.morphisms import Compose, Id, PairOf
from repro.lang.orset_ops import OrToSet
from repro.lang.primitives import plus, predicate
from repro.lang.set_ops import SetMap, SetMu
from repro.types.kinds import INT
from repro.values.values import vorset, vset

from tests.strategies import cpu_bound_designs

DOUBLE = Compose(plus(), PairOf(Id(), Id()))


@pytest.fixture(scope="module")
def pooled() -> Engine:
    """An engine whose process backend genuinely crosses the pool."""
    eng = Engine()
    eng.backends["process"] = ProcessBackend(max_workers=2, min_shard=4)
    return eng


class TestRegistration:
    def test_registered_in_backends(self):
        assert isinstance(BACKENDS["process"], ProcessBackend)

    def test_engine_accepts_process(self):
        assert engine.run(Id(), vset(1, 2), backend="process") == vset(1, 2)

    def test_repl_accepts_process(self):
        from repro.repl import Repl

        repl = Repl()
        assert repl.eval_line("backend process") == "backend = process"
        repl.eval_line("let xs = {1, 2, 3}")
        assert repl.eval_line("apply map(id) xs").startswith("{1, 2, 3}")


class TestRemoteExecution:
    def test_map_stage_crosses_the_pool(self, pooled):
        backend = pooled.backends["process"]
        before = backend.remote_chunks
        xs = vset(*range(100))
        assert pooled.run(SetMap(DOUBLE), xs, backend="process") == pooled.run(
            SetMap(DOUBLE), xs, backend="eager"
        )
        assert backend.remote_chunks > before

    def test_worker_errors_propagate(self, pooled):
        with pytest.raises(OrNRATypeError):
            pooled.run(SetMap(plus()), vset(*range(50)), backend="process")

    def test_worker_plan_cache_reuses_payload(self, pooled):
        backend = pooled.backends["process"]
        xs = vset(*range(64))
        first = pooled.run(SetMap(DOUBLE), xs, backend="process")
        again = pooled.run(SetMap(DOUBLE), xs, backend="process")
        assert first == again
        # The coordinator caches one payload per plan object.
        plan = pooled.compile(SetMap(DOUBLE), True)
        assert backend._payload(plan) is backend._payload(plan)

    def test_normalize_through_workers(self, pooled):
        x, _t = tight_family(6)
        assert pooled.run(Normalize(), x, backend="process") == pooled.run(
            Normalize(), x, backend="eager"
        )


class TestRunValuesBatchHook:
    def test_run_many_fans_whole_inputs(self, pooled):
        backend = pooled.backends["process"]
        before = backend.remote_chunks
        batch = [vset(*range(i, i + 30)) for i in range(8)]
        out = pooled.run_many(SetMap(DOUBLE), batch, backend="process")
        assert out == [pooled.run(SetMap(DOUBLE), v, backend="eager") for v in batch]
        assert backend.remote_chunks > before

    def test_order_and_dedupe_preserved(self, pooled):
        batch = [vset(1, 2), vset(3, 4), vset(1, 2), vset(5, 6), vset(3, 4)]
        out = pooled.run_many(SetMap(DOUBLE), batch, backend="process")
        assert out == [pooled.run(SetMap(DOUBLE), v, backend="eager") for v in batch]
        assert out[0] == out[2] and out[1] == out[4]

    def test_single_input_stays_local(self, pooled):
        out = pooled.run_many(SetMap(DOUBLE), [vset(1, 2, 3)], backend="process")
        assert out == [pooled.run(SetMap(DOUBLE), vset(1, 2, 3), backend="eager")]

    def test_max_workers_bounds_process_fanout(self, pooled):
        # Regression: run_many's max_workers must cap the chunk count
        # handed to the process pool, not just the thread pool.
        backend = pooled.backends["process"]
        batch = [vset(*range(i, i + 20)) for i in range(10)]
        before = backend.remote_chunks
        out = pooled.run_many(SetMap(DOUBLE), batch, backend="process", max_workers=2)
        assert out == [pooled.run(SetMap(DOUBLE), v, backend="eager") for v in batch]
        assert backend.remote_chunks - before <= 2
        # max_workers=1 means strictly sequential: no pool at all.
        before = backend.remote_chunks
        out = pooled.run_many(SetMap(DOUBLE), batch, backend="process", max_workers=1)
        assert out == [pooled.run(SetMap(DOUBLE), v, backend="eager") for v in batch]


class TestGracefulDegradation:
    def test_unpicklable_plan_falls_back_to_eager(self, pooled):
        backend = pooled.backends["process"]
        before = backend.pickle_fallbacks
        evil = SetMap(predicate("evil", lambda v: True, INT))
        out = pooled.run(evil, vset(*range(50)), backend="process")
        assert out == pooled.run(evil, vset(*range(50)), backend="eager")
        assert backend.pickle_fallbacks > before

    def test_single_worker_backend_is_inline(self):
        eng = Engine()
        eng.backends["process"] = ProcessBackend(max_workers=1)
        xs = vset(*range(40))
        assert eng.run(SetMap(DOUBLE), xs, backend="process") == eng.run(
            SetMap(DOUBLE), xs, backend="eager"
        )

    def test_warm_starts_workers_up_front(self):
        backend = ProcessBackend(max_workers=2, min_shard=4)
        backend.warm()
        try:
            pool = backend._executor()
            assert pool is not None and len(pool._processes) == 2
        finally:
            backend.close()

    def test_warm_on_inline_backend_is_a_noop(self):
        backend = ProcessBackend(max_workers=1)
        backend.warm()  # no pool to start
        backend.close()

    def test_async_engine_process_backend_warms_on_start(self):
        import asyncio

        from repro.io import value_to_json
        from repro.serve import AsyncEngine
        from repro.values.values import vorset

        async def main():
            async with AsyncEngine(backend="process") as engine:
                return await engine.run_json(
                    "normalize", value_to_json(vorset(1, 2))
                )

        assert asyncio.run(main()) == value_to_json(vorset(1, 2))

    def test_close_then_reuse_reopens_pool(self, pooled):
        backend = pooled.backends["process"]
        backend.close()
        xs = vset(*range(80))
        assert pooled.run(SetMap(DOUBLE), xs, backend="process") == pooled.run(
            SetMap(DOUBLE), xs, backend="eager"
        )

    def test_stats_shape(self, pooled):
        stats = pooled.backends["process"].stats()
        for key in ("remote_chunks", "pickle_fallbacks", "pool_fallbacks", "max_workers"):
            assert key in stats


class TestSelection:
    # map(normalize) over wide sets of 2^6-world designs: each member
    # carries enough work to amortize process transport.
    CPU_BOUND = SetMap(Normalize())

    def test_cpu_bound_wide_spine_selects_process(self):
        x = cpu_bound_designs(WIDE_SPINE + 8)
        plan = compile_plan(self.CPU_BOUND)
        choice = select_backend(plan, x, available={"eager", "parallel", "process"})
        assert choice.backend == "process"
        assert choice.shards is not None
        assert "CPU-bound" in choice.reason

    def test_direct_callers_never_get_process_by_default(self):
        # select_backend without `available` keeps the in-thread
        # contract: never process, and never the GIL-bound thread pool.
        x = cpu_bound_designs(WIDE_SPINE + 8)
        plan = compile_plan(self.CPU_BOUND)
        choice = select_backend(plan, x)
        assert choice.backend in ("eager", "fused")

    def test_engine_auto_reaches_process(self):
        eng = Engine()
        x = cpu_bound_designs(WIDE_SPINE + 8)
        choice = eng.choose_backend(self.CPU_BOUND, x)
        assert choice.backend == "process"
        assert "CPU-bound" in choice.reason

    def test_auto_routes_bench_serve_designs_to_process(self):
        # The recorded workload where process wins (BENCH_serve's
        # process-vs-thread-sharding input: 48 designs of 2^8 worlds).
        eng = Engine()
        assert eng.choose_backend(self.CPU_BOUND, cpu_bound_designs(48, 8)).backend == "process"

    def test_small_inputs_still_eager(self):
        eng = Engine()
        choice = eng.choose_backend(SetMap(DOUBLE), vset(1, 2, 3))
        assert choice.backend == "eager"

    def test_restricted_registry_never_names_missing_backends(self):
        # Regression: `available` must gate every non-eager choice, not
        # just process — a registry without parallel/streaming falls
        # back to eager instead of a KeyError in Engine._execute.
        x, _t = tight_family(WIDE_SPINE + 8)
        plan = compile_plan(Compose(SetMu(), SetMap(OrToSet())))
        for names in ({"eager"}, {"eager", "process"}):
            choice = select_backend(plan, x, available=names)
            assert choice.backend in names
        choice = select_backend(plan, x, existential=True, available={"eager"})
        assert choice.backend == "eager"


class TestInterpreterExit:
    # One backend="process" op that really crosses the pool, from the
    # global backend and from a caller-owned one left open.
    SCRIPT = """
from repro import engine, vorset, vset
from repro.engine import BACKENDS, Engine, ProcessBackend
from repro.lang.parser import parse_morphism

x = vset(*(vorset(i, i + 1000) for i in range(64)))
q = parse_morphism("map(normalize)")
engine.run(q, x, backend="process")
OWNED = Engine()
OWNED.backends["process"] = ProcessBackend(max_workers=2, min_shard=2)
OWNED.run(q, x, backend="process")
assert BACKENDS["process"].stats()["remote_chunks"] > 0
"""

    def test_exit_shuts_the_pools_down_quietly(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""

    def test_exit_hook_closes_every_live_backend(self, monkeypatch):
        import weakref

        from repro.engine import process

        # Only this test's backend: the suite's shared pools stay warm.
        monkeypatch.setattr(process, "_LIVE_BACKENDS", weakref.WeakSet())
        backend = ProcessBackend(max_workers=2, min_shard=2)
        backend.warm()
        assert backend._pool is not None
        process._close_live_backends()
        assert backend._pool is None
