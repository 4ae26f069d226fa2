"""Crash-path tests for the process backend, driven by fault injection.

Every scenario here pins the same contract from a different angle:
``backend="process"`` is *semantically safe under faults* — a broken
pool (a genuinely killed worker, an injected coordinator error) is
retried under the supervisor's bounded-restart policy and, exhausted,
degrades to a correct local evaluation.  The circuit breaker turns
repeated incidents into routing: ``healthy()`` goes false, the engine's
adaptive selector drops the backend, and a half-open probe heals it.

Faults come from :mod:`repro.engine.faults`: plans installed in the
coordinator are inherited by forked workers, so ``crash`` rules produce
*real* ``BrokenProcessPool`` conditions, not mocks.
"""

from __future__ import annotations

import errno
import multiprocessing
from types import SimpleNamespace

import pytest

from repro.engine import (
    CircuitBreaker,
    Deadline,
    Engine,
    ProcessBackend,
    Supervisor,
    deadline_scope,
    faults,
)
from repro.engine.cost_model import WIDE_SPINE
from repro.engine.faults import FaultPlan, FaultRule, InjectedFault
from repro.engine.process import _worker_ping
from repro.errors import DeadlineExceeded
from repro.lang.morphisms import Compose, Id, PairOf
from repro.lang.primitives import plus, predicate
from repro.lang.set_ops import SetMap
from repro.types.kinds import INT
from repro.values.values import vset

DOUBLE = Compose(plus(), PairOf(Id(), Id()))


def fast_backend(**kwargs) -> ProcessBackend:
    """A 2-worker backend whose supervisor never really sleeps."""
    kwargs.setdefault("max_workers", 2)
    kwargs.setdefault("min_shard", 4)
    kwargs.setdefault("supervisor", Supervisor(restarts=1, sleep=lambda _s: None))
    return ProcessBackend(**kwargs)


class TestWorkerCrashes:
    def test_crash_mid_batch_degrades_to_local(self):
        # Every fresh worker crashes on its first shard (the hit counter
        # is per-process), so all restarts fail and the shards re-run
        # locally — the caller still gets the right answer.  Both worker
        # entry points are armed: a single-map plan ships as fused arena
        # slices, not plan-subtree chunks.
        plan = FaultPlan(
            rules=(
                FaultRule("process.worker_chunk", "crash", times=1),
                FaultRule("process.worker_fused", "crash", times=1),
            )
        )
        backend = fast_backend()
        eng = Engine()
        eng.backends["process"] = backend
        xs = vset(*range(100))
        expected = eng.run(SetMap(DOUBLE), xs, backend="eager")
        try:
            with faults.active_plan(plan):
                assert eng.run(SetMap(DOUBLE), xs, backend="process") == expected
        finally:
            backend.close()
        assert backend.pool_restarts >= 1
        assert backend.pool_fallbacks >= 1

    def test_crash_during_warm_is_survived(self):
        plan = FaultPlan(rules=(FaultRule("process.worker_ping", "crash", times=1),))
        backend = fast_backend()
        eng = Engine()
        eng.backends["process"] = backend
        xs = vset(*range(100))
        try:
            with faults.active_plan(plan):
                backend.warm()  # must not raise, despite every ping crashing
            assert backend.pool_fallbacks >= 1
            # The ping rule does not touch the chunk entry point: a later
            # request rebuilds the pool and runs remotely again.
            before = backend.remote_chunks
            expected = eng.run(SetMap(DOUBLE), xs, backend="eager")
            assert eng.run(SetMap(DOUBLE), xs, backend="process") == expected
            assert backend.remote_chunks > before
        finally:
            backend.close()

    def test_unpicklable_plan_falls_back_even_under_faults(self):
        # The pickle guard fires before any pool traffic, so a fault
        # plan aimed at the workers never sees an unpicklable program.
        plan = FaultPlan(rules=(FaultRule("process.worker_chunk", "crash", times=1),))
        backend = fast_backend()
        eng = Engine()
        eng.backends["process"] = backend
        evil = SetMap(predicate("evil", lambda _v: True, INT))
        try:
            with faults.active_plan(plan):
                before = backend.pickle_fallbacks
                out = eng.run(evil, vset(*range(50)), backend="process")
                assert out == eng.run(evil, vset(*range(50)), backend="eager")
                assert backend.pickle_fallbacks > before
        finally:
            backend.close()


class TestSupervisedRecovery:
    def test_injected_coordinator_fault_is_retried_to_success(self):
        # `process.pool:error:1` fails exactly the first submission in
        # the coordinator — the retry finds a healthy pool and succeeds
        # *remotely* (no local fallback).
        plan = FaultPlan(rules=(FaultRule("process.pool", "error", times=1),))
        backend = fast_backend()
        eng = Engine()
        eng.backends["process"] = backend
        xs = vset(*range(100))
        expected = eng.run(SetMap(DOUBLE), xs, backend="eager")
        try:
            with faults.active_plan(plan):
                before = backend.remote_chunks
                assert eng.run(SetMap(DOUBLE), xs, backend="process") == expected
                assert backend.remote_chunks > before
        finally:
            backend.close()
        assert backend.pool_restarts == 1
        assert backend.pool_fallbacks == 0
        assert backend.breaker.state == "closed"

    def test_injected_fault_is_treated_like_a_broken_pool(self):
        backend = fast_backend()
        calls = {"n": 0}

        def attempt() -> list:
            calls["n"] += 1
            raise InjectedFault("synthetic")

        try:
            assert backend._supervised(attempt) is None
        finally:
            backend.close()
        assert calls["n"] == 2  # one attempt + one restart
        assert backend.pool_restarts == 1
        assert backend.pool_fallbacks == 1

    def test_deadline_exceeded_is_never_retried(self):
        backend = fast_backend()
        calls = {"n": 0}

        def attempt() -> list:
            calls["n"] += 1
            raise DeadlineExceeded("out of budget")

        try:
            with pytest.raises(DeadlineExceeded):
                backend._supervised(attempt)
        finally:
            backend.close()
        assert calls["n"] == 1

    def test_pool_map_enforces_deadlines_coordinator_side(self):
        backend = fast_backend()
        try:
            backend.warm()
            with deadline_scope(Deadline.after(0.0)):
                with pytest.raises(DeadlineExceeded):
                    backend._pool_map(backend._executor(), _worker_ping, range(2))
        finally:
            backend.close()


class _NoStartContext(type(multiprocessing.get_context("spawn"))):
    """A start-method context whose worker processes can never start."""

    class Process(multiprocessing.get_context("spawn").Process):
        def start(self):
            raise OSError(errno.EAGAIN, "cannot start a worker process")


class TestPoolCannotStart:
    def test_start_failure_degrades_to_local(self):
        backend = fast_backend(mp_context=_NoStartContext())
        eng = Engine()
        eng.backends["process"] = backend
        xs = vset(*range(100))
        try:
            out = eng.run(SetMap(DOUBLE), xs, backend="process")
        finally:
            backend.close()
        assert out == eng.run(SetMap(DOUBLE), xs, backend="eager")
        assert backend.pool_fallbacks >= 1
        assert backend.remote_chunks == 0

    def test_daemonic_process_never_owns_a_pool(self, monkeypatch):
        daemon = SimpleNamespace(daemon=True)
        monkeypatch.setattr(multiprocessing, "current_process", lambda: daemon)
        backend = fast_backend()
        eng = Engine()
        eng.backends["process"] = backend
        xs = vset(*range(100))
        backend.warm()
        assert backend._executor() is None
        assert not backend.healthy()
        assert "process" not in eng._available()
        assert eng.run(SetMap(DOUBLE), xs, backend="process") == eng.run(
            SetMap(DOUBLE), xs, backend="eager"
        )
        assert backend.remote_chunks == 0
        assert backend.pool_fallbacks == 0


class TestCircuitBreaker:
    def test_open_breaker_demotes_the_backend_from_auto(self):
        from repro.core.normalize import Normalize

        from tests.strategies import cpu_bound_designs

        clock = FakeClock()
        backend = fast_backend(
            breaker=CircuitBreaker(threshold=1, reset_after=5.0, clock=clock)
        )
        eng = Engine()
        eng.backends["process"] = backend
        x = cpu_bound_designs(WIDE_SPINE + 8)
        program = SetMap(Normalize())
        try:
            assert eng.choose_backend(program, x).backend == "process"
            backend.breaker.record_failure()
            assert not backend.healthy()
            assert "process" not in eng._available()
            demoted = eng.choose_backend(program, x).backend
            assert demoted != "process"
            # ...and the demoted route still answers correctly.
            out = eng.run(program, x)
            assert out == eng.run(program, x, backend="eager")
            # After the reset window the half-open probe lets traffic
            # route back; a success closes the breaker for good.
            clock.advance(5.0)
            assert backend.healthy()
            assert eng.choose_backend(program, x).backend == "process"
            backend.breaker.record_success()
            assert backend.breaker.state == "closed"
        finally:
            backend.close()

    def test_open_breaker_skips_the_pool_entirely(self):
        backend = fast_backend(breaker=CircuitBreaker(threshold=1, reset_after=999.0))
        eng = Engine()
        eng.backends["process"] = backend
        backend.breaker.record_failure()
        xs = vset(*range(100))
        try:
            before = backend.remote_chunks
            out = eng.run(SetMap(DOUBLE), xs, backend="process")
            assert out == eng.run(SetMap(DOUBLE), xs, backend="eager")
            assert backend.remote_chunks == before  # no pool traffic
        finally:
            backend.close()

    def test_stats_surface_supervision(self):
        backend = fast_backend()
        try:
            stats = backend.stats()
        finally:
            backend.close()
        assert stats["pool_restarts"] == 0
        assert stats["breaker"] == "closed"


class TestFaultPlanSpec:
    def test_from_spec_round_trip(self):
        plan = FaultPlan.from_spec(
            "seed=42;process.worker_chunk:crash:1;serve.eval:slow:2:0.05"
        )
        assert plan.seed == 42
        assert plan.rules[0] == FaultRule("process.worker_chunk", "crash", times=1)
        assert plan.rules[1].kind == "slow"
        assert plan.rules[1].times == 2
        assert plan.rules[1].delay == 0.05

    def test_star_and_probability_entries(self):
        plan = FaultPlan.from_spec("serve.eval:error:*;serve.frame:malform:0.5")
        assert plan.rules[0].times is None and plan.rules[0].prob == 1.0
        assert plan.rules[1].times is None and plan.rules[1].prob == 0.5

    def test_malformed_entry_raises(self):
        with pytest.raises(ValueError):
            FaultPlan.from_spec("not-a-rule")

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            FaultRule("serve.eval", "explode")

    def test_counted_rule_fires_exactly_n_times(self):
        plan = FaultPlan(rules=(FaultRule("serve.eval", "error", times=2),))
        fired = [plan.match("serve.eval") is not None for _ in range(5)]
        assert fired == [True, True, False, False, False]
        assert plan.stats()["serve.eval"] == 5

    def test_probabilistic_rule_is_seed_deterministic(self):
        def schedule(seed: int) -> list[bool]:
            plan = FaultPlan(
                seed=seed,
                rules=(FaultRule("serve.eval", "error", times=None, prob=0.5),),
            )
            return [plan.match("serve.eval") is not None for _ in range(64)]

        a, b, other = schedule(42), schedule(42), schedule(43)
        assert a == b
        assert any(a) and not all(a)  # a real coin, not a constant
        assert a != other

    def test_env_spec_arms_lazily(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "serve.eval:error:1")
        faults.clear()  # forget the plan *and* the env check...
        faults._ENV_CHECKED = False  # ...then force a fresh env read
        try:
            plan = faults.active()
            assert plan is not None
            assert plan.rules[0].site == "serve.eval"
        finally:
            faults.clear()


class FakeClock:
    def __init__(self) -> None:
        self.now = 50.0

    def advance(self, dt: float) -> None:
        self.now += dt

    def __call__(self) -> float:
        return self.now
