"""The multiprocess backend: true CPU parallelism for compiled plans.

:class:`~repro.engine.parallel.ParallelBackend` shards the collection
spine across *threads* — safe and cheap, but on GIL builds CPU-bound
plans (normalization, arithmetic-heavy map bodies) serialize anyway.
:class:`ProcessBackend` runs the same sharded spine walk (it subclasses
:class:`~repro.engine.parallel.ShardedBackend`) with the shards executed
in a :class:`~concurrent.futures.ProcessPoolExecutor`:

* **pickle-safe transport** — the compiled :class:`~repro.engine.plan.Plan`
  is pickled *once* per plan (``Plan.__getstate__`` drops bound closures)
  and shipped to workers as a byte payload; each worker caches the
  unpickled plan and its bound closures keyed on the payload digest, so
  repeated shards of the same plan only pay the transport, not the
  rebind.  Values cross the boundary as ordinary pickles.
* **per-worker interner** — every worker process owns a private
  :class:`~repro.engine.interning.Interner` (keyed on ``os.getpid()`` so
  a forked arena is never reused), giving shard-local hash-consing and
  memoized ``normalize``; the coordinator merges shard results in order
  on materialization and the caller's arena re-interns the final value —
  merge-on-materialize, exactly like the thread backend.
* **graceful degradation** — a plan that does not pickle (a user
  primitive wrapping a lambda, say) falls back to eager execution in the
  coordinating process (counted in ``stats()["pickle_fallbacks"]``), and
  a broken pool is handled by *supervised recovery*
  (:meth:`ProcessBackend._supervised`): the pool is torn down and
  rebuilt up to ``restarts`` times with seeded, jittered backoff
  (:class:`~repro.engine.supervisor.Supervisor`) before the shards
  re-run locally, so ``backend="process"`` is *always* semantically
  safe.  Repeated incidents trip a
  :class:`~repro.engine.supervisor.CircuitBreaker`; while it is open,
  :meth:`ProcessBackend.healthy` answers ``False`` and the adaptive
  selector routes around the backend until the breaker half-opens and a
  probe succeeds.

Requests carrying a deadline (:mod:`repro.engine.deadline`) are
enforced coordinator-side: shard futures are awaited with
``result(timeout=remaining)`` and an expired wait cancels the
outstanding futures and raises
:class:`~repro.errors.DeadlineExceeded` — workers cannot observe the
coordinator's context variable across the pickle boundary, so the
coordinator polices the clock for them.  The deterministic
fault-injection harness (:mod:`repro.engine.faults`) hooks the
coordinator submission site (``process.pool``) and the three worker
entry points.

The backend registers itself as ``BACKENDS["process"]``;
``backend="auto"`` reaches it through
:func:`repro.engine.cost_model.select_backend` when the static estimate
says each member of a wide spine carries enough work to amortize
process transport (``SHARD_BREAK_EVEN_WORK``).
:meth:`ProcessBackend.run_values` is the batch hook ``Engine.run_many``
uses to fan *whole inputs* across workers — one task per input chunk,
each evaluated start-to-finish in a worker.  The worker tasks pause the
cyclic collector while they run (:mod:`repro.engine.gcpause`).
"""

from __future__ import annotations

import atexit
import functools
import hashlib
import multiprocessing
import os
import pickle
import threading
import weakref
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from itertools import repeat
from typing import Any, Callable, Iterable, Sequence

from repro.errors import DeadlineExceeded
from repro.values.values import Value

from repro.engine import faults
from repro.engine.analysis import plan_facts
from repro.engine.backends import BACKENDS
from repro.engine.columnar import Arena, compile_stages, run_stages
from repro.engine.deadline import current_deadline
from repro.engine.faults import InjectedFault
from repro.engine.gcpause import gc_paused
from repro.engine.interning import Interner
from repro.engine.parallel import ShardedBackend, even_chunks, even_ranges
from repro.engine.plan import Plan, PlanNode
from repro.engine.supervisor import CircuitBreaker, Supervisor

__all__ = ["ProcessBackend", "default_process_count"]

#: Cap on coordinator-side cached plan payloads (cleared wholesale past it).
_MAX_PAYLOADS = 128

#: Cap on worker-side cached plans / bound closures (cleared wholesale past
#: it).  Long-lived workers serving many distinct query texts must not
#: accumulate every plan they have ever seen.
_MAX_WORKER_PLANS = 128


def default_process_count() -> int:
    """Default worker-process count: the machine's cores, bounded."""
    return max(1, min(16, os.cpu_count() or 1))


#: Every live backend, so interpreter exit can shut their pools down.
_LIVE_BACKENDS: "weakref.WeakSet[ProcessBackend]" = weakref.WeakSet()


@atexit.register
def _close_live_backends() -> None:
    """Shut every pool down while the interpreter is still whole.

    A pool left to module teardown is collected after the
    :mod:`concurrent.futures` globals are gone, and its manager's
    weakref callback fails noisily (``Exception ignored in ...
    weakref_cb``).
    """
    for backend in list(_LIVE_BACKENDS):
        backend.close()


def _pool_allowed() -> bool:
    """Can this process own a worker pool at all?

    A daemonic process (a ``NetServer`` worker, say) may not have
    children, so its engines run every shard locally and ``auto`` never
    routes to this backend there.
    """
    return not multiprocessing.current_process().daemon


# -- worker side -------------------------------------------------------------
#
# Everything below the pool boundary is module-level (picklable by
# reference under every multiprocessing start method).  Worker state is
# keyed on the worker's pid so a forked parent arena is never mistaken
# for the worker's own.

_WORKER_STATE: dict = {"pid": None}


def _worker_state() -> dict:
    state = _WORKER_STATE
    if state.get("pid") != os.getpid():
        state.clear()
        state["pid"] = os.getpid()
        state["interner"] = Interner()
        state["plans"] = {}
        state["bound"] = {}
    return state


def _worker_plan(payload: bytes) -> tuple[dict, bytes, Plan]:
    state = _worker_state()
    key = hashlib.sha1(payload).digest()
    plan = state["plans"].get(key)
    if plan is None:
        if len(state["plans"]) >= _MAX_WORKER_PLANS:
            state["plans"].clear()
            state["bound"].clear()
        plan = pickle.loads(payload)
        state["plans"][key] = plan
    return state, key, plan


def _bind_subtree(
    plan: Plan, idx: int, leaf: Callable | None
) -> Callable[[Value], Value]:
    """Eager closures for the subtree at *idx* (worker-side rebind)."""
    bound: dict[int, Callable[[Value], Value]] = {}

    def build(i: int) -> Callable[[Value], Value]:
        fn = bound.get(i)
        if fn is None:
            fn = Plan._build_node(plan.nodes[i], build, leaf)
            bound[i] = fn
        return fn

    return build(idx)


def _bind_body(plan: Plan, interner: Interner, idx: int) -> Callable[[Value], Value]:
    """Stage-body binder for :func:`repro.engine.columnar.compile_stages`."""
    return _bind_subtree(plan, idx, interner.leaf_apply)


def _run_chunk_remote(
    payload: bytes, body_idx: int | None, chunk: list[Value]
) -> list[Value]:
    """Worker entry point: run one plan subtree over one shard.

    *body_idx* selects the subtree (``None`` means the whole plan — the
    :meth:`ProcessBackend.run_values` batch path).  Inputs are interned
    into the worker's private arena so repeated elements share one
    memoized normalization within the worker.
    """
    faults.fire("process.worker_chunk")
    with gc_paused():
        state, key, plan = _worker_plan(payload)
        idx = plan.root if body_idx is None else body_idx
        interner: Interner = state["interner"]
        fn = state["bound"].get((key, idx))
        if fn is None:
            fn = _bind_subtree(plan, idx, interner.leaf_apply)
            state["bound"][(key, idx)] = fn
        return [fn(interner.intern(e)) for e in chunk]


def _run_fused_slice_remote(
    payload: bytes, node_idx: int, kind: str, bases: list, raws: list
) -> tuple[str, list, list]:
    """Worker entry point: one fused node's stages over one arena slice.

    The slice crosses the boundary as raw columns — atom payloads and the
    occasional boxed ``Value`` — so no per-element ``Value`` pickling
    happens for the common all-atoms spine.  The compiled stage list is
    cached per (plan, node) like the bound closures.
    """
    faults.fire("process.worker_fused")
    with gc_paused():
        state, key, plan = _worker_plan(payload)
        interner: Interner = state["interner"]
        stages = state["bound"].get((key, node_idx, "fused"))
        if stages is None:
            stages = compile_stages(
                plan.nodes[node_idx],
                functools.partial(_bind_body, plan, interner),
            )
            state["bound"][(key, node_idx, "fused")] = stages
        out = run_stages(stages, Arena(kind, bases, raws))
        return out.kind, out.bases, out.raws


def _worker_ping(_i: int) -> int:
    """No-op worker task used by :meth:`ProcessBackend.warm`."""
    faults.fire("process.worker_ping")
    return os.getpid()


# -- coordinator side --------------------------------------------------------


class ProcessBackend(ShardedBackend):
    """Sharded spine execution across a process pool.

    *max_workers* sizes the pool (default :func:`default_process_count`);
    *min_shard* is the smallest collection worth shipping to workers —
    process transport costs more than a thread handoff, so the default is
    higher than the thread backend's; *mp_context* overrides the
    :mod:`multiprocessing` start-method context.

    ``mp_context=None`` keeps the platform default (``fork`` on Linux):
    the ``spawn``/``forkserver`` methods re-import the *parent's* main
    module in each worker, which breaks plain-script and stdin callers
    (they degrade to the local fallback and never parallelize — measured,
    not hypothetical).  The cost of ``fork`` is that lazily creating
    workers from a non-main thread of a multi-threaded coordinator is
    deadlock-prone; long-lived servers avoid that by calling
    :meth:`warm` once from the main thread before concurrency starts
    (the serving entry points do).
    """

    name = "process"

    def __init__(
        self,
        max_workers: int | None = None,
        min_shard: int = 32,
        mp_context=None,
        supervisor: Supervisor | None = None,
        breaker: CircuitBreaker | None = None,
    ) -> None:
        super().__init__(
            max_workers=max_workers if max_workers is not None else default_process_count(),
            min_shard=min_shard,
        )
        self.mp_context = mp_context
        self._pool: ProcessPoolExecutor | None = None
        self._pool_lock = threading.Lock()
        self._payloads: dict[int, tuple[Plan, bytes | None]] = {}
        self.supervisor = supervisor if supervisor is not None else Supervisor()
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.remote_chunks = 0
        self.pickle_fallbacks = 0
        self.pool_fallbacks = 0
        self.pool_restarts = 0
        _LIVE_BACKENDS.add(self)

    # -- pool --------------------------------------------------------------

    def _executor(self) -> ProcessPoolExecutor | None:
        if self.max_workers <= 1 or not _pool_allowed():
            return None
        pool = self._pool
        if pool is None:
            with self._pool_lock:
                pool = self._pool
                if pool is None:
                    pool = ProcessPoolExecutor(
                        max_workers=self.max_workers, mp_context=self.mp_context
                    )
                    self._pool = pool
        return pool

    def warm(self) -> None:
        """Start every worker process now, from the calling thread.

        Worker processes are otherwise forked lazily by whichever thread
        first submits a shard — under a fork start method that thread is
        often a pool thread of a multi-threaded coordinator, which is
        deadlock-prone.  Serving entry points call this once from the
        main thread before concurrency begins; with all workers already
        alive, later submits never fork.
        """
        if self._executor() is None:
            return
        # One task per worker forces the pool to spawn its full
        # complement (workers are created one per pending submit).
        def attempt() -> list:
            return self._pool_map(self._executor(), _worker_ping, range(self.max_workers))

        self._supervised(attempt)

    def close(self) -> None:
        """Shut the worker pool down (a later execute reopens it)."""
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None

    def _discard_pool(self) -> None:
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=False, cancel_futures=True)
                self._pool = None

    def _count(self, counter: str, n: int = 1) -> None:
        # The singleton backend is shared across engines and threads;
        # unguarded += would lose increments under concurrency.
        with self._pool_lock:
            setattr(self, counter, getattr(self, counter) + n)

    # -- supervision -------------------------------------------------------

    def healthy(self) -> bool:
        """False while the circuit breaker is open, or where no pool may
        start (a daemonic process): the selector routes away."""
        return _pool_allowed() and self.breaker.allow()

    def _pool_map(
        self,
        pool: ProcessPoolExecutor | None,
        fn: Callable,
        *columns: Iterable,
    ) -> list:
        """``pool.map`` with coordinator-side deadline enforcement.

        Each shard is submitted as a future.  Without an ambient deadline
        the wait is a plain blocking map; with one, each future is
        awaited with the deadline's remaining budget — workers never see
        the coordinator's context variable (it does not survive
        pickling), so the coordinator polices the clock: an expired wait
        cancels every outstanding future and raises
        :class:`~repro.errors.DeadlineExceeded`.  A pool whose workers
        cannot start raises :class:`BrokenExecutor`.  The fault-injection
        site ``process.pool`` fires per attempt, before submission, so an
        injected :class:`~repro.engine.faults.InjectedFault` exercises
        the same supervised-recovery path as a genuinely broken pool.
        """
        faults.fire("process.pool")
        if pool is None:  # pragma: no cover - callers gate on _executor()
            raise BrokenExecutor("worker pool unavailable")
        try:
            # strict=False: the payload columns are itertools.repeat — the
            # finite chunk column bounds the zip, exactly like pool.map.
            futures: list[Future] = [
                pool.submit(fn, *args) for args in zip(*columns, strict=False)
            ]
        except (OSError, AssertionError) as exc:
            # Workers start on submit; a pool that cannot start (out of
            # processes, or a daemonic parent) is a broken pool.
            raise BrokenExecutor(f"worker pool cannot start: {exc!r}") from exc
        deadline = current_deadline()
        results: list[Any] = []
        try:
            for future in futures:
                remaining = None if deadline is None else deadline.remaining()
                if remaining is not None and remaining <= 0.0:
                    raise FuturesTimeout
                results.append(future.result(timeout=remaining))
        except BaseException as exc:
            # Like pool.map: a failed or abandoned wait cancels the rest.
            for future in futures:
                future.cancel()
            if isinstance(exc, FuturesTimeout):
                raise DeadlineExceeded(
                    "deadline exceeded waiting on process pool"
                ) from None
            raise
        return results

    def _supervised(self, attempt: Callable[[], list]) -> list | None:
        """Run one remote submission under the restart/breaker policy.

        Returns the attempt's result, or ``None`` when the caller should
        degrade to local execution: the breaker is open, or the pool
        failed ``restarts + 1`` times in a row (each failure tears the
        pool down so the next attempt forks fresh workers, and waits a
        seeded jittered backoff).  :class:`~repro.errors.DeadlineExceeded`
        is *not* retried — a request out of budget must fail now, not
        after a backoff sleep.
        """
        restarts = self.supervisor.restarts
        for trial in range(restarts + 1):
            if not self.breaker.allow():
                return None
            try:
                result = attempt()
            except (BrokenExecutor, InjectedFault):
                # A crashed worker (OOM kill, interpreter teardown), a
                # pool that cannot start, or an injected coordinator
                # fault must not take the query down.
                self._discard_pool()
                self.breaker.record_failure()
                if trial < restarts and self.breaker.allow():
                    self._count("pool_restarts")
                    self.supervisor.wait(trial)
                    continue
                self._count("pool_fallbacks")
                return None
            self.breaker.record_success()
            return result
        return None  # pragma: no cover - loop always returns

    # -- plan transport ----------------------------------------------------

    def can_transport(self, plan: Plan) -> bool:
        """Can *plan* reach the workers at all (is its pickle payload ok)?

        ``Engine.run_many`` consults this before committing a batch to
        :meth:`run_values`: an untransportable plan is better served by
        the *thread* fan-out than by this backend's sequential eager
        fallback.

        The memoized static fact
        (:func:`repro.engine.analysis.plan_facts`) answers the common
        case without touching the payload cache lock; the actual pickle
        payload stays the final word, so the decision is exactly the
        pre-analysis one (a leaf that pickles in isolation but whose
        *assembly* does not is still rejected).
        """
        if not plan_facts(plan).transportable:
            return False
        return self._payload(plan) is not None

    def _payload(self, plan: Plan) -> bytes | None:
        """The plan's pickled transport form (``None`` if unpicklable)."""
        key = id(plan)
        with self._pool_lock:
            entry = self._payloads.get(key)
            if entry is not None and entry[0] is plan:
                return entry[1]
        try:
            blob: bytes | None = pickle.dumps(plan)
        except Exception:
            blob = None
        with self._pool_lock:
            if len(self._payloads) >= _MAX_PAYLOADS:
                self._payloads.clear()
            # The stored plan reference keeps id(plan) from being recycled.
            self._payloads[key] = (plan, blob)
        return blob

    # -- execution ---------------------------------------------------------

    def execute(
        self,
        plan: Plan,
        value: Value,
        interner: Interner | None = None,
        shard_hint: int | None = None,
    ) -> Value:
        from repro.engine.passes import fuse_plan

        # Fuse before the transport check so the payload workers receive
        # is the plan the spine walk executes (fuse_plan is idempotent).
        plan = fuse_plan(plan)
        if not self.can_transport(plan):
            # An unpicklable plan cannot reach the workers; correctness
            # beats parallelism, so run it eagerly in-process.
            self._count("pickle_fallbacks")
            return BACKENDS["eager"].execute(plan, value, interner)
        return super().execute(plan, value, interner, shard_hint)

    def _run_map_stage(
        self,
        plan: Plan,
        body_idx: int,
        chunks: list[list[Value]],
        leaf: Callable | None,
        bound: dict[int, Callable[[Value], Value]],
    ) -> list[list[Value]]:
        pool = self._executor() if len(chunks) > 1 else None
        payload = self._payload(plan) if pool is not None else None
        if pool is None or payload is None:
            return super()._run_map_stage(plan, body_idx, chunks, leaf, bound)
        def attempt() -> list:
            return self._pool_map(
                self._executor(),
                _run_chunk_remote,
                repeat(payload),
                repeat(body_idx),
                chunks,
            )

        results = self._supervised(attempt)
        if results is None:
            return super()._run_map_stage(plan, body_idx, chunks, leaf, bound)
        self._count("remote_chunks", len(chunks))
        return results

    def _run_fused_slices(
        self,
        plan: Plan,
        node: PlanNode,
        arena: Arena,
        n_slices: int,
        leaf: Callable | None,
        bound: dict[int, Callable[[Value], Value]],
    ) -> Arena | None:
        pool = self._executor()
        payload = self._payload(plan) if pool is not None else None
        if pool is None or payload is None:
            return None
        ranges = even_ranges(len(arena), n_slices)
        if len(ranges) <= 1:
            return None
        def attempt() -> list:
            return self._pool_map(
                self._executor(),
                _run_fused_slice_remote,
                repeat(payload),
                repeat(node.idx),
                repeat(arena.kind),
                [arena.bases[a:b] for a, b in ranges],
                [arena.raws[a:b] for a, b in ranges],
            )

        results = self._supervised(attempt)
        if results is None:
            return None
        self._count("remote_chunks", len(ranges))
        bases: list = []
        raws: list = []
        for _kind, slice_bases, slice_raws in results:
            bases.extend(slice_bases)
            raws.extend(slice_raws)
        return Arena(results[0][0], bases, raws)

    def run_values(
        self,
        plan: Plan,
        values: Sequence[Value],
        interner: Interner | None = None,
        max_workers: int | None = None,
    ) -> list[Value]:
        """Fan *whole inputs* across the worker pool, one chunk per task.

        The batch hook behind ``Engine.run_many(..., backend="process")``:
        each input is evaluated start-to-finish inside one worker (no
        per-stage materialization crossing the boundary), and results
        come back in input order.  *max_workers* is the caller's
        fan-out bound (``run_many``'s parameter): fewer chunks are cut
        when it is tighter than the pool.
        """
        fanout = self.max_workers if max_workers is None else min(max_workers, self.max_workers)
        pool = self._executor() if fanout > 1 else None
        payload = self._payload(plan) if pool is not None else None
        if pool is None or payload is None or len(values) <= 1:
            return [self.execute(plan, v, interner) for v in values]
        chunks = even_chunks(list(values), fanout)
        def attempt() -> list:
            return self._pool_map(
                self._executor(), _run_chunk_remote, repeat(payload), repeat(None), chunks
            )

        shards = self._supervised(attempt)
        if shards is None:
            return [self.execute(plan, v, interner) for v in values]
        self._count("remote_chunks", len(chunks))
        results = [r for shard in shards for r in shard]
        if interner is not None:
            results = [interner.intern(r) for r in results]
        return results

    # -- bookkeeping -------------------------------------------------------

    def stats(self) -> dict[str, int | str]:
        """Transport, fallback and supervision counters (diagnostics/tests)."""
        breaker_state = self.breaker.state
        with self._pool_lock:
            return {
                "remote_chunks": self.remote_chunks,
                "pickle_fallbacks": self.pickle_fallbacks,
                "pool_fallbacks": self.pool_fallbacks,
                "pool_restarts": self.pool_restarts,
                "breaker": breaker_state,
                "max_workers": self.max_workers,
            }


BACKENDS["process"] = ProcessBackend()
