"""The compile-and-run engine: plan IR, optimizer passes, interned runtime.

This package gives the evaluation stack the classic query-engine shape:

1. **compile** — :func:`repro.engine.plan.compile_plan` turns a
   :class:`~repro.lang.morphisms.Morphism` tree into a flat, typed
   :class:`~repro.engine.plan.Plan`;
2. **optimize** — :mod:`repro.engine.passes` rewrites the morphism with
   a pipeline of composable equational passes before compilation;
3. **run** — :mod:`repro.engine.backends` executes the plan eagerly, as
   a stream, or sharded across a worker pool
   (:mod:`repro.engine.parallel`), with :mod:`repro.engine.interning`
   hash-consing values and memoizing ``normalize``.

The single entry point is :func:`run` (or :meth:`Engine.run`)::

    from repro import engine
    from repro.lang import ormap, p1

    engine.run(ormap(p1()), vorset(vpair(1, 2)))     # <1>
    engine.run(q, db, backend="streaming")           # lazy spine
    engine.run(q, db, backend="parallel")            # thread-sharded spine
    engine.run(q, db, backend="process")             # process-sharded spine
    engine.run(q, db, backend="fused")               # columnar fused kernels
    engine.run(q, db, optimize=False, intern=False)  # plain compiled
    engine.run_many(q, dbs)                          # compile once, fan out

The default ``backend="auto"`` picks the backend *per call* from the
cost model (:mod:`repro.engine.cost_model`): the input's estimated world
count and the plan's spine profile decide between eager execution, lazy
streaming, fused columnar kernels, symbolic world queries and — when
each member of a wide spine carries enough estimated work to amortize
plan/value transport — multiprocess sharding (:mod:`repro.engine.process`)
— without building a single world (Section 6's bounds are computed
statically).

``engine.run(p, v)`` is structurally equal to the direct interpretation
``p(v)`` for every program; the engine is the canonical execution path
used by the REPL, the I/O helpers, the examples and the benchmarks.

The module-level :data:`DEFAULT_ENGINE` is safe for concurrent use: the
plan cache is guarded by a lock (and LRU-bounded), and the shared
:class:`Interner` serializes arena access internally — which is what
lets :meth:`Engine.run_many` and the parallel backend hammer one engine
from many threads.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import Iterator, Sequence

from repro.lang.morphisms import Morphism
from repro.types.kinds import Type
from repro.values.values import SetValue, Value, ensure_value

from repro.engine.analysis import (
    NodeFacts,
    PlanFacts,
    compute_plan_facts,
    format_facts,
    plan_facts,
)
from repro.engine import faults
from repro.engine.backends import BACKENDS, Backend, EagerBackend, StreamingBackend
from repro.engine.columnar import Arena, FusedBackend
from repro.engine.cost_model import (
    OPERATOR_COSTS,
    BackendChoice,
    PlanProfile,
    ShapeEstimate,
    annotate_plan,
    calibrate,
    calibration_scope,
    estimate_json,
    estimate_morphism_cost,
    estimate_value,
    operator_features,
    plan_profile,
    rank_error,
    select_backend,
    set_calibration,
)
from repro.engine.deadline import (
    Deadline,
    checkpoint,
    current_deadline,
    deadline_scope,
)
from repro.engine.interning import Interner
from repro.engine.parallel import ParallelBackend, ShardedBackend, default_worker_count
from repro.engine.process import ProcessBackend, default_process_count
from repro.engine.passes import (
    COND_PUSHDOWN,
    DEFAULT_PASSES,
    LATE_NORMALIZE,
    Pass,
    Pipeline,
    default_pipeline,
    fuse_plan,
    optimize_morphism,
)
from repro.engine.plan import Plan, PlanNode, compile_plan
from repro.engine.supervisor import CircuitBreaker, Supervisor
from repro.engine.symbolic import (
    ChoiceSpace,
    SymbolicBackend,
    plan_supports_symbolic,
    trace_worlds,
)
from repro.engine.symbolic import (
    _certain_of_worlds as _certain_of,
)
from repro.engine.symbolic import (
    _possible_of_worlds as _possible_of,
)
from repro.engine.verify import (
    PassVerificationError,
    PlanVerificationError,
    verification_enabled,
    verify_plan,
    verify_rewrite,
)

__all__ = [
    "Engine",
    "DEFAULT_ENGINE",
    "run",
    "run_many",
    "compile_program",
    "explain",
    "count_worlds",
    "certain",
    "possible",
    "exists",
    "Plan",
    "PlanNode",
    "compile_plan",
    "Pass",
    "Pipeline",
    "DEFAULT_PASSES",
    "COND_PUSHDOWN",
    "LATE_NORMALIZE",
    "default_pipeline",
    "optimize_morphism",
    "Interner",
    "Backend",
    "EagerBackend",
    "StreamingBackend",
    "ParallelBackend",
    "ProcessBackend",
    "ShardedBackend",
    "FusedBackend",
    "SymbolicBackend",
    "ChoiceSpace",
    "trace_worlds",
    "plan_supports_symbolic",
    "Arena",
    "fuse_plan",
    "BACKENDS",
    "default_worker_count",
    "default_process_count",
    "ShapeEstimate",
    "estimate_value",
    "estimate_json",
    "estimate_morphism_cost",
    "OPERATOR_COSTS",
    "operator_features",
    "calibrate",
    "calibration_scope",
    "rank_error",
    "set_calibration",
    "annotate_plan",
    "PlanProfile",
    "plan_profile",
    "BackendChoice",
    "select_backend",
    "NodeFacts",
    "PlanFacts",
    "plan_facts",
    "compute_plan_facts",
    "format_facts",
    "verify_plan",
    "verify_rewrite",
    "PlanVerificationError",
    "PassVerificationError",
    "verification_enabled",
    "Deadline",
    "deadline_scope",
    "current_deadline",
    "checkpoint",
    "CircuitBreaker",
    "Supervisor",
    "faults",
]


class Engine:
    """Compile-and-run driver tying passes, plans, backends and the arena.

    One engine owns one :class:`Interner` (so repeated runs share the
    memoized normal forms) and one compiled-plan cache keyed on the
    program, per optimization setting.  The plan cache is an LRU bounded
    by *max_plans*, and both caches are safe to use from multiple
    threads.
    """

    def __init__(
        self,
        pipeline: Pipeline | None = None,
        interner: Interner | None = None,
        max_plans: int = 256,
    ) -> None:
        self.pipeline = pipeline if pipeline is not None else default_pipeline()
        self.interner = interner if interner is not None else Interner()
        self.backends: dict[str, Backend] = dict(BACKENDS)
        self.max_plans = max_plans
        self._plans: OrderedDict[tuple[Morphism, bool], Plan] = OrderedDict()
        self._lock = threading.Lock()

    def _available(self) -> dict[str, Backend]:
        """The backends the adaptive selector may route to right now.

        A supervised backend whose circuit breaker is open reports
        ``healthy() == False`` and is dropped from the candidate set, so
        ``backend="auto"`` degrades around it (process → fused or eager) until
        the breaker half-opens and a probe heals it.  The process backend
        also reports unhealthy inside a daemonic process, where no pool
        may start.  Explicit ``backend="name"`` requests bypass this
        filter — their supervised fallbacks keep them safe.
        """
        healthy = {name: b for name, b in self.backends.items() if b.healthy()}
        return healthy if healthy else self.backends

    # -- compilation -------------------------------------------------------

    def compile(self, program: Morphism, optimize: bool = True) -> Plan:
        """The (cached, LRU-evicted) compiled plan for *program*."""
        key = (program, optimize)
        # The whole miss path runs under the lock: `pipeline.run` records
        # the fired rules on the shared pipeline (the documented
        # diagnostics channel), so concurrent compiles must not
        # interleave their rule lists.
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self._plans.move_to_end(key)
                return plan
            m = self.pipeline.run(program) if optimize else program
            plan = compile_plan(m)
            if verification_enabled():
                verify_plan(plan, context="compile")
            self._plans[key] = plan
            while len(self._plans) > self.max_plans:
                self._plans.popitem(last=False)
        return plan

    def explain(
        self,
        program: Morphism,
        input_type: Type | None = None,
        value: object = None,
        *,
        existential: bool = False,
    ) -> str:
        """The optimized, compiled (and, given a type, annotated) plan.

        The node listing is followed by a ``facts:`` line — the
        :class:`~repro.engine.analysis.PlanFacts` record the routing
        layers read (symbolic supportability, transportability, purity,
        spine shape, fusible spans, output shape, short-circuit
        potential), printed exactly as the selector sees it.

        Describes a *fresh* compilation rather than the cached plan:
        ``infer_types`` writes dom/cod annotations into the plan's nodes,
        and annotating the shared cached plan would leak one call's types
        into later ``explain``/``describe`` output (or a concurrent
        reader's).  Given a *value*, each node is additionally annotated
        with the cost model's predicted world count and normalized size
        (``~worlds<=... size<=...``) — the Section 6 bounds, computed
        without building a single world — followed by the backend the
        adaptive selector would pick for this call.  When the plan's
        spine has fusible runs, a ``fusion:`` line reports how many
        stages collapse into how many single-pass columnar kernels
        (:func:`repro.engine.passes.fuse_plan`).  ``existential=True``
        asks for the world-query route instead of the run route — the
        selector may then report the symbolic backend
        (:mod:`repro.engine.symbolic`).
        """
        with self._lock:
            m = self.pipeline.run(program)
        plan = compile_plan(m)
        if input_type is not None:
            plan.infer_types(input_type)
        facts_line = "\n" + format_facts(plan_facts(plan))
        fused = fuse_plan(plan)
        fusion = ""
        if fused is not plan:
            kernels = sum(1 for node in fused.nodes if node.op == "fused")
            stages = sum(
                len(node.spec) for node in fused.nodes if node.op == "fused"
            )
            fusion = (
                f"\nfusion: {stages} spine stage(s) collapse into "
                f"{kernels} fused kernel(s)"
            )
        if value is None:
            return plan.describe() + facts_line + fusion
        concrete = ensure_value(value)
        plan.annotate_estimates(concrete)
        choice = select_backend(
            plan,
            concrete,
            existential=existential,
            world_query=existential,
            available=self._available(),
        )
        return (
            plan.describe()
            + facts_line
            + fusion
            + f"\nbackend: {choice.backend} ({choice.reason})"
        )

    # -- execution ---------------------------------------------------------

    def run(
        self,
        program: Morphism,
        value: object,
        *,
        backend: str = "auto",
        optimize: bool = True,
        intern: bool = True,
    ) -> Value:
        """Compile *program* and execute it on *value*.

        ``backend`` selects eager, streaming or parallel execution — or
        ``"auto"`` (the default), which picks per call from the cost
        model's static world-count estimate and the plan's spine profile
        (:func:`repro.engine.cost_model.select_backend`); ``optimize``
        toggles the pass pipeline; ``intern`` routes values through the
        hash-consing arena (enabling the memoized ``normalize``).
        """
        plan = self.compile(program, optimize)
        concrete = ensure_value(value)
        interner = self.interner if intern else None
        if interner is not None:
            concrete = interner.intern(concrete)
        result = self._execute(backend, plan, concrete, interner)
        if interner is not None:
            result = interner.intern(result)
        return result

    def _execute(
        self,
        backend: str,
        plan: Plan,
        concrete: Value,
        interner: Interner | None,
        existential: bool = False,
    ) -> Value:
        """Resolve *backend* (adaptively for ``"auto"``) and execute."""
        checkpoint("engine dispatch")
        if backend != "auto":
            return self._backend(backend).execute(plan, concrete, interner)
        choice = select_backend(
            plan, concrete, existential=existential, available=self._available()
        )
        chosen = self.backends[choice.backend]
        if choice.shards is not None and isinstance(chosen, ShardedBackend):
            return chosen.execute(plan, concrete, interner, shard_hint=choice.shards)
        return chosen.execute(plan, concrete, interner)

    def run_many(
        self,
        program: Morphism,
        values: Sequence[object],
        *,
        backend: str = "auto",
        optimize: bool = True,
        intern: bool = True,
        interner: Interner | None = None,
        max_workers: int | None = None,
    ) -> list[Value]:
        """Run *program* on every input in *values*: compile once, fan out.

        The batched counterpart of :meth:`run`: one plan compilation and
        one backend bind are amortized over the whole batch, structurally
        equal inputs are computed once, and distinct inputs are fanned
        out across a worker pool (``max_workers``; pass ``0`` or ``1``
        for strictly sequential execution).  Results come back in input
        order and satisfy ``run_many(p, vs)[i] == run(p, vs[i])``.
        ``backend="auto"`` (the default) re-selects the backend per
        distinct input — a batch can mix small eager inputs with wide
        sharded ones.

        *interner* overrides the engine's arena for this batch — pass a
        fresh :class:`Interner` to share memoized normal forms *within*
        the batch without pinning anything in the engine afterwards
        (this is what :func:`repro.io.run_json_many` does).
        """
        if backend != "auto":
            self._backend(backend)  # validate the name up front
        plan = self.compile(program, optimize)
        arena = interner if interner is not None else (self.interner if intern else None)
        concrete = [ensure_value(v) for v in values]
        if arena is not None:
            concrete = [arena.intern(v) for v in concrete]
        if not concrete:
            return []

        # Dedupe structurally equal inputs: a multi-world batch often
        # repeats whole inputs, and each distinct one is computed once.
        index: dict[Value, int] = {}
        unique: list[Value] = []
        for v in concrete:
            if v not in index:
                index[v] = len(unique)
                unique.append(v)

        def run_one(v: Value) -> Value:
            result = self._execute(backend, plan, v, arena)
            if arena is not None:
                result = arena.intern(result)
            return result

        chosen = self.backends.get(backend) if backend != "auto" else None
        workers = default_worker_count() if max_workers is None else max_workers
        if backend == "auto" and workers > 1 and len(unique) > 1:
            # A batch whose every input auto-selects the process backend
            # should use the batch hook too, not stack the thread pool
            # on top of the process pool (one chunk per worker beats
            # many threads hammering pool.map concurrently).
            proc = self.backends.get("process")
            if isinstance(proc, ProcessBackend) and all(
                select_backend(plan, v, available=self._available()).backend == "process"
                for v in unique
            ):
                chosen = proc
        if (
            isinstance(chosen, ProcessBackend)
            and workers > 1
            and len(unique) > 1
            and chosen.can_transport(plan)
        ):
            # The process backend's batch hook: whole inputs fan out
            # across worker processes, one chunk per task — no thread
            # pool stacked on top of the process pool.  The caller's
            # max_workers bound caps the process fan-out too.  A plan
            # that cannot pickle never reaches this branch: the thread
            # fan-out below beats run_values' sequential eager fallback.
            results = chosen.run_values(plan, unique, arena, max_workers=workers)
        elif workers > 1 and len(unique) > 1:
            with ThreadPoolExecutor(
                max_workers=min(workers, len(unique)),
                thread_name_prefix="repro-run-many",
            ) as pool:
                results = list(pool.map(run_one, unique))
        else:
            results = [run_one(v) for v in unique]
        return [results[index[v]] for v in concrete]

    def possibilities(
        self,
        program: Morphism,
        value: object,
        *,
        backend: str = "auto",
        optimize: bool = True,
        intern: bool = True,
    ) -> Iterator[Value]:
        """Lazily stream the conceptual values of ``run(program, value)``.

        With ``backend="auto"`` (the default) this is an *existential*
        consumer: when the static estimate predicts a huge world count
        over a streamable spine, the streaming backend is chosen so the
        first witness short-circuits without materializing a normal form.
        """
        plan = self.compile(program, optimize)
        interner = self.interner if intern else None
        concrete = ensure_value(value)
        if interner is not None:
            concrete = interner.intern(concrete)
        if backend == "auto":
            choice = select_backend(
                plan, concrete, existential=True, available=self._available()
            )
            chosen = self.backends[choice.backend]
        else:
            chosen = self._backend(backend)
        return chosen.possibilities(plan, concrete, interner)

    # -- world queries -----------------------------------------------------

    def _world_query_backend(
        self, plan: Plan, concrete: Value, backend: str
    ) -> Backend:
        """Resolve the backend for a world query (whole-world-set consumer)."""
        if backend == "auto":
            choice = select_backend(
                plan,
                concrete,
                existential=True,
                world_query=True,
                available=self._available(),
            )
            return self.backends[choice.backend]
        return self._backend(backend)

    def _world_query_setup(
        self, program: Morphism, value: object, optimize: bool, intern: bool
    ) -> tuple[Plan, Value, Interner | None]:
        plan = self.compile(program, optimize)
        interner = self.interner if intern else None
        concrete = ensure_value(value)
        if interner is not None:
            concrete = interner.intern(concrete)
        return plan, concrete, interner

    def count_worlds(
        self,
        program: Morphism,
        value: object,
        *,
        backend: str = "auto",
        optimize: bool = True,
        intern: bool = True,
    ) -> int:
        """``|worlds(run(program, value))|`` — the paper's ``m``.

        With ``backend="auto"`` (or ``"symbolic"``), supported plans are
        answered on the compiled choice space: exact counts in time
        linear in the *input*, even when the count itself is
        astronomical.  Other backends count by deduplicated enumeration.
        """
        plan, concrete, interner = self._world_query_setup(
            program, value, optimize, intern
        )
        chosen = self._world_query_backend(plan, concrete, backend)
        if isinstance(chosen, SymbolicBackend):
            return chosen.count_worlds(plan, concrete, interner)
        return len(set(chosen.possibilities(plan, concrete, interner)))

    def exists(
        self,
        program: Morphism,
        value: object,
        predicate=None,
        *,
        backend: str = "auto",
        optimize: bool = True,
        intern: bool = True,
    ) -> bool:
        """Does some world of the output satisfy *predicate*?

        With no predicate: is the output consistent (has any world at
        all)?  The symbolic route answers that without producing one.
        With a predicate (any ``Value -> bool`` callable), worlds are
        streamed lazily and the first witness short-circuits.
        """
        plan, concrete, interner = self._world_query_setup(
            program, value, optimize, intern
        )
        chosen = self._world_query_backend(plan, concrete, backend)
        if predicate is None and isinstance(chosen, SymbolicBackend):
            return chosen.exists(plan, concrete, interner)
        stream = chosen.possibilities(plan, concrete, interner)
        if predicate is None:
            return next(iter(stream), None) is not None
        return any(predicate(world) for world in stream)

    def certain(
        self,
        program: Morphism,
        value: object,
        *,
        backend: str = "auto",
        optimize: bool = True,
        intern: bool = True,
    ) -> Value:
        """The set of elements present in *every* world of the output.

        The certain-answer operator of consistent query answering: the
        output's worlds must be collections (sets/bags — e.g. the worlds
        of a normalized or-set database), and the result is the
        intersection of their element sets, as a canonical ``SetValue``.
        Raises :class:`~repro.errors.OrNRAValueError` when the output
        has no worlds at all (inconsistency).  The symbolic route
        answers each membership with one SAT call instead of
        intersecting exponentially many worlds.
        """
        plan, concrete, interner = self._world_query_setup(
            program, value, optimize, intern
        )
        chosen = self._world_query_backend(plan, concrete, backend)
        if isinstance(chosen, SymbolicBackend):
            elements = chosen.certain(plan, concrete, interner)
        else:
            elements = _certain_of(chosen.possibilities(plan, concrete, interner))
        result: Value = SetValue(elements)
        if interner is not None:
            result = interner.intern(result)
        return result

    def possible(
        self,
        program: Morphism,
        value: object,
        *,
        backend: str = "auto",
        optimize: bool = True,
        intern: bool = True,
    ) -> Value:
        """The set of elements present in *some* world of the output —
        the dual of :meth:`certain` (possible answers)."""
        plan, concrete, interner = self._world_query_setup(
            program, value, optimize, intern
        )
        chosen = self._world_query_backend(plan, concrete, backend)
        if isinstance(chosen, SymbolicBackend):
            elements = chosen.possible(plan, concrete, interner)
        else:
            elements = _possible_of(chosen.possibilities(plan, concrete, interner))
        result: Value = SetValue(elements)
        if interner is not None:
            result = interner.intern(result)
        return result

    def choose_backend(
        self,
        program: Morphism,
        value: object,
        *,
        optimize: bool = True,
        existential: bool = False,
        world_query: bool = False,
    ) -> BackendChoice:
        """The adaptive selector's decision for this call, with reasoning.

        What ``backend="auto"`` would do — exposed for diagnostics, the
        REPL and tests.  ``existential`` marks a first-witness consumer
        (:meth:`possibilities`); ``world_query`` marks a whole-world-set
        consumer (:meth:`count_worlds` / :meth:`certain` /
        :meth:`possible` / :meth:`exists`).
        """
        plan = self.compile(program, optimize)
        return select_backend(
            plan,
            ensure_value(value),
            existential=existential,
            world_query=world_query,
            available=self._available(),
        )

    def _backend(self, name: str) -> Backend:
        try:
            return self.backends[name]
        except KeyError:
            raise ValueError(
                f"unknown backend {name!r} (have: {', '.join(sorted(self.backends))})"
            ) from None

    def clear_caches(self) -> None:
        """Drop compiled plans and the value arena."""
        with self._lock:
            self._plans.clear()
        self.interner.clear()


#: The module-level engine behind :func:`run` — shared so the REPL, the
#: I/O helpers and library callers benefit from one another's caches.
DEFAULT_ENGINE = Engine()


def run(program: Morphism, value: object, **options) -> Value:
    """Run *program* on *value* through the default engine."""
    return DEFAULT_ENGINE.run(program, value, **options)


def run_many(program: Morphism, values: Sequence[object], **options) -> list[Value]:
    """Batched :func:`run` through the default engine (compile once, fan out)."""
    return DEFAULT_ENGINE.run_many(program, values, **options)


def compile_program(program: Morphism, optimize: bool = True) -> Plan:
    """Compile (and optionally optimize) through the default engine."""
    return DEFAULT_ENGINE.compile(program, optimize)


def explain(
    program: Morphism,
    input_type: Type | None = None,
    value: object = None,
    *,
    existential: bool = False,
) -> str:
    """Describe the default engine's plan for *program*.

    Given a *value*, nodes carry the cost model's predicted world counts
    and the adaptive backend decision for that input; ``existential=True``
    explains the routing for world queries (:func:`exists`,
    :func:`certain`, :func:`count_worlds`) instead of :func:`run`.
    """
    return DEFAULT_ENGINE.explain(program, input_type, value, existential=existential)


def count_worlds(program: Morphism, value: object, **options) -> int:
    """Exact world count of the output through the default engine."""
    return DEFAULT_ENGINE.count_worlds(program, value, **options)


def exists(program: Morphism, value: object, predicate=None, **options) -> bool:
    """Existential world query through the default engine."""
    return DEFAULT_ENGINE.exists(program, value, predicate, **options)


def certain(program: Morphism, value: object, **options) -> Value:
    """Certain answers (elements in every world) through the default engine."""
    return DEFAULT_ENGINE.certain(program, value, **options)


def possible(program: Morphism, value: object, **options) -> Value:
    """Possible answers (elements in some world) through the default engine."""
    return DEFAULT_ENGINE.possible(program, value, **options)
