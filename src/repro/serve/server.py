"""The asyncio serving front-end: admit concurrently, micro-batch, dedupe.

:func:`repro.io.run_json_many` amortizes parsing, compilation and
normalization over a *batch* — but something has to build the batches.
In a long-lived service the requests arrive one by one from many
concurrent clients; :class:`AsyncEngine` is the admission layer that
turns that stream back into batches:

* ``await engine.run_json(program, value)`` admits a single request and
  resolves when its result is ready;
* requests are collected into **adaptive micro-batches**: a request
  that finds the queue otherwise empty is dispatched at once, with no
  wait; when others are already queued behind it (a backlog), the
  batcher keeps collecting for up to ``batch_window`` seconds (at most
  ``max_batch`` requests) and ships them as one batch.  Because the
  batcher awaits each dispatch before collecting again, requests that
  arrive while a batch executes form the next batch (group commit), so
  batching and dedupe still pay under load while an idle server adds
  no window to a lone request;
* within a batch, requests are grouped by program and **deduplicated**
  on the canonical JSON encoding of their inputs — one thousand clients
  asking ``normalize`` of the same world trigger *one* evaluation, and
  every duplicate admits for free (``stats()["deduped_inputs"]``);
* each group fans into :func:`repro.io.run_json_many` on a worker
  thread, so the event loop never blocks on evaluation; distinct inputs
  inside the batch still fan out across ``run_many``'s own pool (and
  whole worker processes under ``backend="process"``).

Robustness — the admission layer is also where overload and slowness
are turned into *bounded, typed* failures instead of unbounded queues
and wedged threads:

* **backpressure** — at most ``max_pending`` admitted-but-unresolved
  requests; past that, admission sheds load with
  :class:`~repro.errors.Overloaded` carrying a ``retry_after`` hint
  (``stats()["shed"]``).
* **cost guard** — with a ``cost_budget``, each input's static
  :class:`~repro.engine.cost_model.ShapeEstimate` (via
  :func:`~repro.engine.cost_model.estimate_json`, straight off the JSON
  encoding) is checked *before* any evaluation; a predicted normalized
  size over budget is rejected with
  :class:`~repro.errors.CostBudgetExceeded` — the paper's Section 6
  bounds as an admission policy.
* **deadlines** — per-request ``timeout=`` (or the engine-wide
  ``default_timeout``) becomes a :class:`~repro.engine.deadline.Deadline`
  carried into the evaluation thread; the engine's cooperative
  checkpoints raise :class:`~repro.errors.DeadlineExceeded` instead of
  letting a pathological input wedge a worker thread
  (``stats()["timeouts"]``).
* **degradation** — :meth:`count_json` answers a world-count request
  with the exact engine count, but near-deadline falls back to the
  static Section 6 *upper bound* marked ``"approximate": true``
  (``stats()["degraded"]``); deeper in the stack the process pool's
  circuit breaker demotes ``backend="auto"`` routing process → fused or eager
  (``stats()["breaker_open"]``).

Failure isolation: if a batch evaluation fails (one malformed input,
say), the group is retried input-by-input so only the offending
requests see the error — no cross-request bleed, which the concurrency
tests (``tests/serve/test_async_server.py``) assert along with clean
shutdown: :meth:`AsyncEngine.close` stops admissions immediately but
drains and serves every in-flight request before returning, and a
straggler that slips into the queue *after* the final drain is failed
with :class:`ServerClosed` rather than left pending forever.  The
fault-injection suite (``tests/serve/test_faults.py``) drives seeded
crashes, slowdowns and malformed frames through
:mod:`repro.engine.faults` and asserts the core invariant: **no
admitted future is ever left unresolved**.

All AsyncEngine methods must be called from the event loop that first
used it (the standard asyncio single-loop discipline); evaluation — the
expensive part — happens off-loop.
"""

from __future__ import annotations

import asyncio
import json
from typing import Sequence

from repro.errors import CostBudgetExceeded, DeadlineExceeded, OrNRAValueError, Overloaded
from repro.io import count_worlds_json, run_json_many
from repro.serve.metrics import ServerMetrics

__all__ = ["AsyncEngine", "ServerClosed"]


class ServerClosed(RuntimeError):
    """Raised when a request is admitted after :meth:`AsyncEngine.close`."""


_SHUTDOWN = object()

#: Default for :meth:`AsyncEngine._collect_nowait`'s *limit* — "collect up
#: to ``max_batch``".  A distinct sentinel, not ``0``: a computed ``limit=0``
#: must mean "collect nothing", never silently drain a full batch.
_UP_TO_MAX_BATCH = object()


class _Request:
    """One admitted request: program, JSON input, dedupe key, deadline, future.

    ``admitted``/``dispatched`` are monotonic-clock stamps the metrics
    layer uses to split a request's life into queue and execute phases;
    they stay ``None`` when metrics are disabled.
    """

    __slots__ = ("program", "value", "key", "future", "deadline", "admitted", "dispatched")

    def __init__(self, program, value, key, future, deadline=None) -> None:
        self.program = program
        self.value = value
        self.key = key
        self.future = future
        self.deadline = deadline
        self.admitted = None
        self.dispatched = None


class AsyncEngine:
    """Concurrent admission and micro-batched evaluation of JSON queries.

    *backend* is the engine backend each batch runs under (``"auto"``
    lets the cost model pick per distinct input); *batch_window* is the
    longest the batcher waits for more requests under load (seconds;
    ``0`` batches only what is already queued).  The window is opened
    only when a backlog exists: a request that finds the queue otherwise
    empty is dispatched at once, so an idle engine adds no wait, while
    requests that queue up behind a running batch are collected (for up
    to the window) into the next one.  *max_batch* caps requests per
    batch; *max_workers* bounds the per-batch fan-out
    inside :func:`repro.io.run_json_many`.

    Robustness knobs: *max_pending* bounds admitted-but-unresolved
    requests (past it admission raises
    :class:`~repro.errors.Overloaded`); *default_timeout* is the
    per-request deadline in seconds when the caller passes none
    (``None`` = unbounded); *cost_budget* rejects inputs whose static
    normalized-size bound exceeds it
    (:class:`~repro.errors.CostBudgetExceeded`) before any evaluation;
    *degrade* lets :meth:`count_json` fall back to the static estimate
    when the exact count runs out of deadline.

    Observability: *metrics* (default on) attaches a
    :class:`~repro.serve.metrics.ServerMetrics` — monotonic ring-buffer
    histograms of per-request admission/queue/execute/total latencies
    plus windowed throughput, surfaced as ``stats()["latency"]`` (p50 /
    p90 / p99 per phase).  Pass ``metrics=False`` to shave the two clock
    reads per request, or a ``ServerMetrics`` of your own to share a
    registry or inject a fake clock.

    Use as an async context manager, or call :meth:`close` explicitly::

        async with AsyncEngine() as engine:
            out = await engine.run_json("normalize", {"orset": [...]})
    """

    def __init__(
        self,
        *,
        backend: str = "auto",
        batch_window: float = 0.002,
        max_batch: int = 64,
        max_workers: int | None = None,
        max_pending: int = 1024,
        default_timeout: float | None = None,
        cost_budget: int | None = None,
        degrade: bool = True,
        metrics: "ServerMetrics | bool | None" = True,
    ) -> None:
        self.backend = backend
        self.batch_window = batch_window
        self.max_batch = max(1, max_batch)
        self.max_workers = max_workers
        self.max_pending = max(1, max_pending)
        self.default_timeout = default_timeout
        self.cost_budget = cost_budget
        self.degrade = degrade
        # *metrics* — the latency observability layer: True (default)
        # builds a ServerMetrics; False/None disables recording; a
        # ServerMetrics instance is used as-is (shared registries, fake
        # clocks in tests).
        if metrics is True:
            self.metrics: "ServerMetrics | None" = ServerMetrics()
        elif not metrics:
            self.metrics = None
        else:
            self.metrics = metrics
        self._queue: asyncio.Queue = asyncio.Queue()
        self._batcher: asyncio.Task | None = None
        self._closed = False
        self._pending = 0
        self._stats = {
            "requests": 0,
            "batches": 0,
            "groups": 0,
            "batched_inputs": 0,
            "unique_inputs": 0,
            "deduped_inputs": 0,
            "errors": 0,
            "shed": 0,
            "cost_rejected": 0,
            "timeouts": 0,
            "retries": 0,
            "degraded": 0,
        }

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> "AsyncEngine":
        """Start the batcher task (idempotent; admission auto-starts too)."""
        if self._batcher is None:
            if self.backend in ("process", "auto"):
                # Fork the worker processes now, from this (usually
                # main) thread — never lazily from an executor thread
                # mid-request (fork-from-thread is deadlock-prone).
                # "auto" warms too: the cost model may route any
                # CPU-bound request to the process backend.
                from repro.engine import BACKENDS, ProcessBackend

                backend = BACKENDS.get("process")
                if isinstance(backend, ProcessBackend):
                    backend.warm()
            self._batcher = asyncio.ensure_future(self._run_batcher())
        return self

    async def close(self) -> None:
        """Refuse new admissions, drain in-flight requests, stop the batcher.

        Requests admitted before ``close`` was called are still served —
        the batcher consumes the whole queue before exiting — so every
        outstanding ``run_json`` future resolves.  Anything that slips
        into the queue *after* the batcher's final drain (an admission
        that raced the shutdown) is failed with :class:`ServerClosed`
        rather than abandoned.
        """
        if self._closed:
            if self._batcher is not None:
                await asyncio.shield(self._batcher)
            self._fail_stragglers()
            return
        self._closed = True
        if self._batcher is None:
            return
        self._queue.put_nowait(_SHUTDOWN)
        await asyncio.shield(self._batcher)
        self._fail_stragglers()

    async def __aenter__(self) -> "AsyncEngine":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def _fail_stragglers(self) -> None:
        """Fail every request still sitting in the queue with ServerClosed.

        Only called once the batcher is gone — nothing will ever serve
        these, and an unresolved future would hang its awaiter forever.
        """
        while True:
            try:
                item = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                return
            if item is _SHUTDOWN:
                continue
            if not item.future.done():
                item.future.set_exception(ServerClosed("AsyncEngine is closed"))

    # -- admission ---------------------------------------------------------

    def _admit(self, value_json, timeout: float | None):
        """Shared admission policy: closed -> overload -> cost guard.

        Returns the request's deadline (or ``None``) and registers the
        caller in the pending gauge via the returned future's done
        callback.
        """
        if self._closed:
            raise ServerClosed("AsyncEngine is closed")
        if self._pending >= self.max_pending:
            self._stats["shed"] += 1
            raise Overloaded(
                "server at capacity",
                retry_after=max(2 * self.batch_window, 0.05),
            )
        if self.cost_budget is not None:
            from repro.engine import estimate_json

            estimate = estimate_json(value_json)
            if estimate.norm_size > self.cost_budget:
                self._stats["cost_rejected"] += 1
                raise CostBudgetExceeded(
                    "input over the static cost budget",
                    estimated=estimate.norm_size,
                    budget=self.cost_budget,
                )
        seconds = timeout if timeout is not None else self.default_timeout
        if seconds is None:
            return None
        from repro.engine import Deadline

        return Deadline.after(seconds)

    def _track(self, future) -> None:
        self._pending += 1

        def _done(_f) -> None:
            self._pending -= 1

        future.add_done_callback(_done)

    def _observe_on_done(self, future, request: _Request, start: float) -> None:
        """Record the request's phase latencies when its future resolves.

        Resolution includes failures — a timed-out or errored request's
        latency is exactly what its client felt, so it belongs in the
        percentiles.  (Shed/rejected admissions never create a future and
        are counted separately.)
        """
        metrics = self.metrics
        clock = metrics.clock

        def _record(_f) -> None:
            done = clock()
            admitted = request.admitted if request.admitted is not None else start
            dispatched = request.dispatched
            metrics.observe(
                admission=admitted - start,
                queue=(dispatched if dispatched is not None else done) - admitted,
                execute=(done - dispatched) if dispatched is not None else None,
                total=done - start,
            )

        future.add_done_callback(_record)

    async def run_json(self, program, value_json, *, timeout: float | None = None) -> object:
        """Admit one request and await its result.

        *program* is surface-syntax text (or a pre-resolved Morphism);
        *value_json* is the :func:`repro.io.value_to_json` encoding.
        Structurally equal concurrent requests share one evaluation.
        *timeout* (seconds) overrides the engine's ``default_timeout``
        for this request; past it the evaluation fails with
        :class:`~repro.errors.DeadlineExceeded` at the engine's next
        cooperative checkpoint.
        """
        start = self.metrics.clock() if self.metrics is not None else 0.0
        deadline = self._admit(value_json, timeout)
        await self.start()
        key = (program, _canonical(value_json))
        # Hash the key now: an unhashable program (a list, say, from a
        # malformed stdio request) must fail *this* caller at admission,
        # not explode later inside the shared batcher task.
        hash(key)
        future = asyncio.get_running_loop().create_future()
        self._stats["requests"] += 1
        self._track(future)
        request = _Request(program, value_json, key, future, deadline)
        if self.metrics is not None:
            request.admitted = self.metrics.clock()
            self._observe_on_done(future, request, start)
        self._queue.put_nowait(request)
        if self._batcher is not None and self._batcher.done():
            # The batcher exited (shutdown drain finished) while this
            # admission was in flight — nothing will ever serve the
            # queue again, so fail the stragglers (including ours) now.
            self._fail_stragglers()
        return await future

    async def run_many(
        self, program, values_json: Sequence, *, timeout: float | None = None
    ) -> list:
        """Admit a whole client-side batch concurrently; results in order."""
        return list(
            await asyncio.gather(
                *(self.run_json(program, v, timeout=timeout) for v in values_json)
            )
        )

    async def count_json(
        self, program, value_json, *, timeout: float | None = None
    ) -> dict:
        """Count the output's worlds: exact if the deadline allows.

        Returns ``{"count": n, "approximate": False}`` from the engine's
        exact count (symbolic when supported).  When the count runs out
        of deadline and *degrade* is on, answers with the *static*
        Section 6 upper bound instead — ``{"count": bound,
        "approximate": True}`` (``stats()["degraded"]``): a degraded
        answer with an honest label beats a wedged client.
        """
        from repro.engine import checkpoint, deadline_scope, estimate_json, faults

        start = self.metrics.clock() if self.metrics is not None else 0.0
        deadline = self._admit(value_json, timeout)
        self._stats["requests"] += 1
        future = asyncio.get_running_loop().create_future()
        self._track(future)
        admitted = self.metrics.clock() if self.metrics is not None else 0.0

        def observe() -> None:
            # Counts skip the batcher (admission and dispatch coincide),
            # and record synchronously so ``stats()`` right after the
            # await already shows this request.
            if self.metrics is not None:
                done = self.metrics.clock()
                self.metrics.observe(
                    admission=admitted - start,
                    queue=0.0,
                    execute=done - admitted,
                    total=done - start,
                )

        loop = asyncio.get_running_loop()

        def exact() -> int:
            with deadline_scope(deadline):
                # The symbolic count path is one solver call — make sure
                # an already-spent deadline fails here, not after it.
                checkpoint("count dispatch")
                faults.fire("serve.eval")
                return count_worlds_json(program, value_json)

        try:
            count = await loop.run_in_executor(None, exact)
        except DeadlineExceeded:
            self._stats["timeouts"] += 1
            if not self.degrade:
                future.cancel()
                raise
            self._stats["degraded"] += 1
            result = {"count": estimate_json(value_json).worlds, "approximate": True}
            future.set_result(result)
            observe()
            return result
        except BaseException:
            future.cancel()
            raise
        result = {"count": count, "approximate": False}
        future.set_result(result)
        observe()
        return result

    # -- batching ----------------------------------------------------------

    async def _run_batcher(self) -> None:
        loop = asyncio.get_running_loop()
        shutting_down = False
        while not shutting_down:
            first = await self._queue.get()
            if first is _SHUTDOWN:
                break
            batch = [first]
            shutting_down = self._collect_nowait(batch)
            # Adaptive window: a lone request on an idle queue ships at
            # once; only a backlog (others already queued behind it) is
            # worth waiting up to ``batch_window`` to grow.  Requests
            # arriving while a batch executes still coalesce, because
            # the next batch is collected only after this one resolves.
            deadline = loop.time() + (self.batch_window if len(batch) > 1 else 0.0)
            while not shutting_down and len(batch) < self.max_batch:
                timeout = deadline - loop.time()
                if timeout <= 0:
                    break
                try:
                    item = await asyncio.wait_for(self._queue.get(), timeout)
                except asyncio.TimeoutError:
                    break
                if item is _SHUTDOWN:
                    shutting_down = True
                    break
                batch.append(item)
            await self._dispatch_guarded(batch)
        # Drain everything admitted before the shutdown sentinel — and
        # keep draining: a dispatch suspends the task, and an admission
        # racing close() may enqueue behind a drain pass already taken.
        while True:
            leftovers: list[_Request] = []
            self._collect_nowait(leftovers, limit=None)
            if not leftovers:
                break
            while leftovers:
                head = leftovers[: self.max_batch]
                leftovers = leftovers[self.max_batch :]
                await self._dispatch_guarded(head)

    async def _dispatch_guarded(self, batch: list) -> None:
        """Dispatch a batch; an unexpected error fails *these* futures only.

        The batcher task must survive anything a batch throws at it — a
        dead batcher would hang every later request — so dispatch-level
        failures are delivered to the batch's futures instead of
        propagating.
        """
        try:
            await self._dispatch(batch)
        except Exception as exc:  # noqa: BLE001 — the batcher must not die
            self._stats["errors"] += len(batch)
            for req in batch:
                if not req.future.done():
                    req.future.set_exception(exc)

    def _collect_nowait(
        self, batch: list, limit: "int | None" = _UP_TO_MAX_BATCH
    ) -> bool:
        """Move already-queued requests into *batch*; True on sentinel.

        The default collects up to ``max_batch`` requests; ``None`` means
        no cap (the shutdown drain); an explicit integer — including a
        computed ``0``, which collects nothing — is honored literally.
        """
        cap = self.max_batch if limit is _UP_TO_MAX_BATCH else limit
        while cap is None or len(batch) < cap:
            try:
                item = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                return False
            if item is _SHUTDOWN:
                return True
            batch.append(item)
        return False

    def _expire(self, req: _Request) -> bool:
        """Fail *req* with DeadlineExceeded if its deadline already passed."""
        if req.deadline is None or not req.deadline.expired():
            return False
        if not req.future.done():
            self._stats["timeouts"] += 1
            req.future.set_exception(
                DeadlineExceeded("deadline exceeded before dispatch")
            )
        return True

    async def _dispatch(self, batch: list) -> None:
        # A request that spent its whole budget queueing fails here,
        # before any evaluation is wasted on it.
        live = [req for req in batch if not self._expire(req)]
        if not live:
            return
        if self.metrics is not None:
            now = self.metrics.clock()
            for req in live:
                req.dispatched = now
        self._stats["batches"] += 1
        self._stats["batched_inputs"] += len(live)
        groups: dict = {}
        for req in live:
            groups.setdefault(req.program, []).append(req)
        await asyncio.gather(
            *(self._run_group(program, reqs) for program, reqs in groups.items())
        )

    async def _run_group(self, program, reqs: list) -> None:
        """Evaluate one same-program group: dedupe, fan out, deliver.

        The group evaluates under the *tightest* deadline of its
        members (context variables do not cross ``run_in_executor``, so
        the scope is re-entered inside the worker-thread callable).  If
        that trips — or anything else fails — the group falls back to
        :meth:`_run_individually`, where each request runs under its
        *own* deadline: one nearly-expired request must not time out its
        whole batch.
        """
        from repro.engine import deadline_scope, faults

        self._stats["groups"] += 1
        index: dict = {}
        unique: list = []
        for req in reqs:
            if req.key not in index:
                index[req.key] = len(unique)
                unique.append(req.value)
        self._stats["unique_inputs"] += len(unique)
        self._stats["deduped_inputs"] += len(reqs) - len(unique)
        deadlines = [req.deadline for req in reqs if req.deadline is not None]
        group_deadline = min(deadlines, key=lambda d: d.at) if deadlines else None
        loop = asyncio.get_running_loop()

        def evaluate() -> list:
            with deadline_scope(group_deadline):
                faults.fire("serve.eval")
                return run_json_many(
                    program, unique, self.backend, max_workers=self.max_workers
                )

        try:
            results = await loop.run_in_executor(None, evaluate)
        except Exception:
            # One bad input must not poison the batch: retry one by one
            # so only the offending requests see their own error.
            await self._run_individually(program, reqs)
            return
        for req in reqs:
            if not req.future.done():
                req.future.set_result(results[index[req.key]])

    async def _run_individually(self, program, reqs: list) -> None:
        from repro.engine import deadline_scope, faults

        loop = asyncio.get_running_loop()
        resolved: dict = {}
        for req in reqs:
            outcome = resolved.get(req.key)
            if outcome is None:
                if self._expire(req):
                    continue
                self._stats["retries"] += 1

                def evaluate(req=req) -> object:
                    with deadline_scope(req.deadline):
                        faults.fire("serve.eval")
                        return run_json_many(
                            program,
                            [req.value],
                            self.backend,
                            max_workers=self.max_workers,
                        )[0]

                try:
                    outcome = (True, await loop.run_in_executor(None, evaluate))
                except DeadlineExceeded as exc:
                    self._stats["timeouts"] += 1
                    outcome = (False, exc)
                except Exception as exc:
                    self._stats["errors"] += 1
                    outcome = (False, exc)
                resolved[req.key] = outcome
            ok, payload = outcome
            if req.future.done():
                continue
            if ok:
                req.future.set_result(payload)
            else:
                req.future.set_exception(payload)

    # -- diagnostics -------------------------------------------------------

    def stats(self) -> dict:
        """Admission/batching/robustness counters (tests and the REPL).

        Alongside the counter snapshot: ``pending`` (admitted futures
        not yet resolved — the backpressure gauge) and ``breaker_open``
        (is the process pool's circuit breaker currently refusing
        traffic, i.e. has ``backend="auto"`` demoted process → fused or eager).
        """
        from repro.engine import BACKENDS

        snapshot = dict(self._stats)
        snapshot["pending"] = self._pending
        process = BACKENDS.get("process")
        snapshot["breaker_open"] = bool(
            process is not None and process.breaker.state == "open"
        )
        if self.metrics is not None:
            snapshot["latency"] = self.metrics.snapshot()
        return snapshot


def _canonical(value_json) -> str:
    """A structural dedupe key: canonical JSON text of the input."""
    try:
        return json.dumps(value_json, sort_keys=True, separators=(",", ":"))
    except RecursionError:
        raise OrNRAValueError("malformed value JSON: nested too deep") from None
