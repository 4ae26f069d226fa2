"""Sharded execution over the plan's collection spine (threads + shared core).

The PODS'93 semantics makes possible-worlds evaluation embarrassingly
parallel — every or-set branch is an independent world, and the
structural operators (``map``, ``mu``, the coercions) act elementwise on
the top-level collection.  :class:`ShardedBackend` exploits exactly that
independence at the plan level, and is the shared core behind both the
thread-pool :class:`ParallelBackend` here and the multiprocess
:class:`~repro.engine.process.ProcessBackend`:

* the input collection of a ``map`` stage is split into *shards*
  (contiguous element chunks), and the compiled body closure runs on
  each shard in a worker pool;
* ``mu`` and the kind-changing coercions are cheap resharding steps that
  keep elements chunked (flattening or retagging without materializing a
  canonical collection between stages);
* any node that is not a streamable spine stage falls back to the eager
  closure on the *materialized* (merged, canonicalized) intermediate,
  after which sharding resumes — so every plan executes, parallel where
  the spine allows and eager where it does not;
* materialization merges shards in order, and the collection
  constructors canonicalize (sort, deduplicate) exactly as the eager
  backend's do, so results are structurally identical to
  :class:`~repro.engine.backends.EagerBackend`'s on every program
  (property-tested in ``tests/engine/test_parallel.py`` and gated for
  every registered backend by
  ``tests/engine/test_backend_conformance.py``).

Like the streaming backend, intermediate shards may carry transient
duplicates (canonicalization is deferred to materialization); the
set/or-set → bag coercions therefore deduplicate across shards so no
transient duplicate becomes an observable multiplicity.

The chunk-level helpers (:func:`apply_body_to_chunk`,
:func:`flatten_chunk`) are module-level functions, not closures: thread
workers only need callables, but the process backend pickles its shard
tasks, and a lambda-capturing closure would not survive the trip.

:class:`ParallelBackend`'s pool is a lazily created
:class:`~concurrent.futures.ThreadPoolExecutor` shared by all executions
on one backend instance.  Worker closures touch only the (locked)
interner and immutable values, so concurrent shards are safe; on
free-threaded builds the shards genuinely overlap, on GIL builds the
backend degrades to eager-equivalent throughput (which is what makes the
multiprocess backend worth its serialization cost on CPU-bound plans).
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import Callable, Iterable

from repro.errors import OrNRATypeError
from repro.lang.bag_ops import BagUnique
from repro.values.values import Value

from repro.engine.backends import _MU, _RETAG, _WRAPPER_OF, BACKENDS, Backend
from repro.engine.columnar import Arena, compile_stages, encode_input, run_stages
from repro.engine.cost_model import SHARD_BREAK_EVEN_WORK, estimate_value
from repro.engine.deadline import checkpoint
from repro.engine.interning import Interner
from repro.engine.plan import MAP_KINDS, Plan, PlanNode

__all__ = [
    "ShardedBackend",
    "ParallelBackend",
    "default_worker_count",
    "apply_body_to_chunk",
    "flatten_chunk",
    "dedup_chunks",
    "even_chunks",
    "even_ranges",
]


def default_worker_count() -> int:
    """The stdlib-flavoured default pool width."""
    return min(32, (os.cpu_count() or 1) + 4)


class _Shards:
    """A chunked collection flowing along the spine: kind + element chunks."""

    __slots__ = ("kind", "chunks")

    def __init__(self, kind: str, chunks: list[list[Value]]) -> None:
        self.kind = kind
        self.chunks = chunks


def _materialize(x: "Value | _Shards") -> Value:
    if isinstance(x, _Shards):
        wrapper = _WRAPPER_OF[x.kind]
        return wrapper(e for chunk in x.chunks for e in chunk)
    return x


# -- module-level chunk helpers (shared by the thread and process pools) -----


def apply_body_to_chunk(body: Callable[[Value], Value], chunk: list[Value]) -> list[Value]:
    """Apply a compiled map body to every element of one shard.

    The per-element :func:`~repro.engine.deadline.checkpoint` is the
    sharded walk's cooperative cancellation point — free when no
    deadline is installed, and a no-op inside process-pool workers
    (the deadline context never crosses the pickle boundary; the
    coordinator enforces it pool-side instead).
    """
    out: list[Value] = []
    for e in chunk:
        checkpoint("sharded map body")
        out.append(body(e))
    return out


def flatten_chunk(chunk: list[Value], wrapper: type, noun: str) -> list[Value]:
    """One ``mu`` shard: concatenate the inner collections' elements."""
    out: list[Value] = []
    for inner in chunk:
        if not isinstance(inner, wrapper):
            raise OrNRATypeError(f"{noun}, got element {inner!r}")
        out.extend(inner.elems)
    return out


def even_chunks(items: list, n: int) -> list[list]:
    """Split *items* into *n* contiguous chunks of near-equal length."""
    n = max(1, min(n, len(items)))
    step, extra = divmod(len(items), n)
    chunks, start = [], 0
    for i in range(n):
        end = start + step + (1 if i < extra else 0)
        chunks.append(items[start:end])
        start = end
    return chunks


def even_ranges(length: int, n: int) -> list[tuple[int, int]]:
    """Contiguous ``(start, stop)`` ranges covering ``range(length)``."""
    n = max(1, min(n, length))
    step, extra = divmod(length, n)
    ranges, start = [], 0
    for i in range(n):
        end = start + step + (1 if i < extra else 0)
        ranges.append((start, end))
        start = end
    return ranges


def dedup_chunks(chunks: list[list[Value]]) -> list[list[Value]]:
    """Drop duplicates across shards, keeping first occurrences in order."""
    seen: set[Value] = set()
    out: list[list[Value]] = []
    for chunk in chunks:
        kept: list[Value] = []
        for e in chunk:
            if e not in seen:
                seen.add(e)
                kept.append(e)
        out.append(kept)
    return out


class ShardedBackend(Backend):
    """The sharded spine walk, with the chunk executor left to subclasses.

    Subclasses override :meth:`_map_chunks` (how a list of shards is
    mapped through a chunk function — inline here, a thread pool in
    :class:`ParallelBackend`) and optionally :meth:`_run_map_stage` (how
    a ``map`` stage's compiled body reaches the workers — the process
    backend ships the plan instead of a closure).  *min_shard* is the
    smallest collection worth splitting — anything shorter runs as a
    single inline shard.  *break_even_work* is the mean estimated work
    per top-level member of the input
    (:attr:`~repro.engine.cost_model.ShapeEstimate.member_work`, the
    quantity ``auto`` routes on) below which the spine also stays one
    inline shard; 0 disables the gate.
    """

    name = "sharded"

    def __init__(
        self,
        max_workers: int | None = None,
        min_shard: int = 4,
        break_even_work: int = 0,
    ) -> None:
        self.max_workers = max_workers if max_workers is not None else default_worker_count()
        self.min_shard = max(1, min_shard)
        # Estimated per-member work below which sharding costs more than
        # it buys; 0 disables the gate (shard whenever wide enough).
        self.break_even_work = max(0, break_even_work)

    # -- chunk executor (overridden by the pools) --------------------------

    def _map_chunks(
        self, fn: Callable[[list[Value]], list[Value]], chunks: list[list[Value]]
    ) -> list[list[Value]]:
        return [fn(chunk) for chunk in chunks]

    def close(self) -> None:
        """Release pooled workers (a later execute reopens them)."""

    # -- sharding ----------------------------------------------------------

    def _shard(
        self,
        elems: Iterable[Value],
        hint: int | None = None,
        elem_work: int | None = None,
    ) -> list[list[Value]]:
        items = list(elems)
        if len(items) < max(self.min_shard, 2) or self.max_workers <= 1:
            return [items] if items else [[]]
        # Below the break-even the per-shard dispatch overhead exceeds
        # the work being split: keep the collection as one inline shard
        # so the backend never loses to eager on trivial bodies.
        if (
            elem_work is not None
            and self.break_even_work
            and elem_work < self.break_even_work
        ):
            return [items]
        # A shard-count *hint* (the cost model's estimate-proportional
        # choice) overrides the fixed workers*2 default.
        n_chunks = min(len(items), hint if hint else self.max_workers * 2)
        return even_chunks(items, n_chunks)

    def _as_shards(
        self,
        x: "Value | _Shards",
        kind: str,
        error: str,
        hint: int | None = None,
        elem_work: int | None = None,
    ) -> _Shards:
        if isinstance(x, _Shards):
            if x.kind != kind:
                raise OrNRATypeError(f"{error}, got {_materialize(x)!r}")
            return x
        wrapper = _WRAPPER_OF[kind]
        if not isinstance(x, wrapper):
            raise OrNRATypeError(f"{error}, got {x!r}")
        return _Shards(kind, self._shard(x.elems, hint, elem_work))

    # -- execution ---------------------------------------------------------

    def execute(
        self,
        plan: Plan,
        value: Value,
        interner: Interner | None = None,
        shard_hint: int | None = None,
    ) -> Value:
        """Run the plan; *shard_hint* (from the cost model's estimate)
        sizes the chunks whenever a concrete collection is sharded."""
        from repro.engine.passes import fuse_plan

        plan = fuse_plan(plan)
        elem_work: int | None = None
        if self.break_even_work:
            est = estimate_value(value)
            if est.width:
                elem_work = est.member_work
        leaf = interner.leaf_apply if interner is not None else None
        result = self._eval(plan, plan.root, value, leaf, {}, shard_hint, elem_work)
        return _materialize(result)

    def _eval(
        self,
        plan: Plan,
        idx: int,
        value: "Value | _Shards",
        leaf: Callable | None,
        bound: dict[int, Callable[[Value], Value]],
        hint: int | None = None,
        elem_work: int | None = None,
    ) -> "Value | _Shards":
        node = plan.nodes[idx]
        op = node.op
        checkpoint("sharded stage")
        if op == "id":
            return value
        if op == "chain":
            for kid in node.kids:
                value = self._eval(plan, kid, value, leaf, bound, hint, elem_work)
            return value
        if op == "fused":
            return self._run_fused(plan, node, value, leaf, bound, hint, elem_work)
        if op == "map":
            kind, _wrapper, _tw, noun = MAP_KINDS[type(node.source)]
            shards = self._as_shards(value, kind, noun, hint, elem_work)
            chunks = self._run_map_stage(plan, node.kids[0], shards.chunks, leaf, bound)
            return _Shards(kind, chunks)
        source_cls = type(node.source)
        if op == "leaf" and source_cls in _MU:
            kind, noun = _MU[source_cls]
            shards = self._as_shards(value, kind, noun, hint, elem_work)
            wrapper = _WRAPPER_OF[kind]
            flatten = partial(flatten_chunk, wrapper=wrapper, noun=noun)
            return _Shards(kind, self._map_chunks(flatten, shards.chunks))
        if op == "leaf" and source_cls in _RETAG:
            kind_in, kind_out, noun = _RETAG[source_cls]
            shards = self._as_shards(value, kind_in, noun, hint, elem_work)
            chunks = shards.chunks
            if kind_out == "bag" and kind_in != "bag":
                # Transient duplicates across shards must not become
                # observable bag multiplicities (cf. the streaming spine).
                chunks = dedup_chunks(chunks)
            return _Shards(kind_out, chunks)
        if op == "leaf" and source_cls is BagUnique:
            shards = self._as_shards(value, "bag", "unique expects a bag", hint)
            return _Shards("bag", dedup_chunks(shards.chunks))
        # Anything else: merge-materialize and run the eager closure.
        concrete = _materialize(value)
        return self._bind_eager(plan, idx, leaf, bound)(concrete)

    # -- fused (columnar) stages -------------------------------------------

    def _run_fused(
        self,
        plan: Plan,
        node: PlanNode,
        value: "Value | _Shards",
        leaf: Callable | None,
        bound: dict[int, Callable[[Value], Value]],
        hint: int | None = None,
        elem_work: int | None = None,
    ) -> Value:
        """Run one fused node: arena slices across workers when the spec
        is map-only and wide enough, the inline kernel otherwise."""
        concrete = _materialize(value)
        kernel = self._bind_eager(plan, node.idx, leaf, bound)
        spec = node.spec or ()
        if any(stage[0] != "map" for stage in spec):
            # mu re-segments and retag/unique change cardinality across
            # slice boundaries; run those single-pass in this thread.
            return kernel(concrete)
        wrapper = _WRAPPER_OF.get(spec[0][1]) if spec else None
        if wrapper is None or not isinstance(concrete, wrapper):
            return kernel(concrete)  # raises the stage's own type error
        n = len(concrete.elems)
        if (
            n < max(self.min_shard, 2)
            or self.max_workers <= 1
            or (
                elem_work is not None
                and self.break_even_work
                and elem_work < self.break_even_work
            )
        ):
            return kernel(concrete)
        arena = encode_input(spec, concrete)
        n_slices = min(n, hint if hint else self.max_workers * 2)
        out = self._run_fused_slices(plan, node, arena, n_slices, leaf, bound)
        if out is None:
            return kernel(concrete)
        return out.to_value()

    def _run_fused_slices(
        self,
        plan: Plan,
        node: PlanNode,
        arena: Arena,
        n_slices: int,
        leaf: Callable | None,
        bound: dict[int, Callable[[Value], Value]],
    ) -> Arena | None:
        """Map a fused kernel over contiguous arena slices in workers.

        Returns ``None`` when no pool is available (the caller falls back
        to the inline kernel).  The base class has no pool.
        """
        return None

    def _run_map_stage(
        self,
        plan: Plan,
        body_idx: int,
        chunks: list[list[Value]],
        leaf: Callable | None,
        bound: dict[int, Callable[[Value], Value]],
    ) -> list[list[Value]]:
        """Run a map stage's body over every shard.

        The body is bound once, in the coordinating thread, so the worker
        callables only *apply* pure compiled functions.  The process
        backend overrides this: a bound closure cannot cross a process
        boundary, so it ships ``(plan, body_idx)`` and rebinds remotely.
        """
        body = self._bind_eager(plan, body_idx, leaf, bound)
        return self._map_chunks(partial(apply_body_to_chunk, body), chunks)

    def _bind_eager(
        self,
        plan: Plan,
        idx: int,
        leaf: Callable | None,
        bound: dict[int, Callable[[Value], Value]],
    ) -> Callable[[Value], Value]:
        """Eager closures for the subtree at *idx*, cached per execution."""

        def build(i: int) -> Callable[[Value], Value]:
            fn = bound.get(i)
            if fn is None:
                fn = Plan._build_node(plan.nodes[i], build, leaf)
                bound[i] = fn
            return fn

        return build(idx)


class ParallelBackend(ShardedBackend):
    """Sharded execution of the top-level collection spine on a thread pool.

    *max_workers* sizes the thread pool (default:
    :func:`default_worker_count`); *min_shard* is the smallest collection
    worth splitting — anything shorter runs as a single inline shard.
    """

    name = "parallel"

    def __init__(
        self,
        max_workers: int | None = None,
        min_shard: int = 4,
        break_even_work: int = SHARD_BREAK_EVEN_WORK,
    ) -> None:
        super().__init__(
            max_workers=max_workers,
            min_shard=min_shard,
            break_even_work=break_even_work,
        )
        self._pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()

    # -- pool --------------------------------------------------------------

    def _executor(self) -> ThreadPoolExecutor | None:
        if self.max_workers <= 1:
            return None
        pool = self._pool
        if pool is None:
            with self._pool_lock:
                pool = self._pool
                if pool is None:
                    pool = ThreadPoolExecutor(
                        max_workers=self.max_workers,
                        thread_name_prefix="repro-parallel",
                    )
                    self._pool = pool
        return pool

    def close(self) -> None:
        """Shut the worker pool down (a later execute reopens it)."""
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None

    def _map_chunks(
        self, fn: Callable[[list[Value]], list[Value]], chunks: list[list[Value]]
    ) -> list[list[Value]]:
        pool = self._executor() if len(chunks) > 1 else None
        if pool is None:
            return [fn(chunk) for chunk in chunks]
        return list(pool.map(fn, chunks))

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
        if pool is None or n_slices <= 1:
            return None
        stages = compile_stages(
            node, lambda i: self._bind_eager(plan, i, leaf, bound)
        )
        ranges = even_ranges(len(arena), n_slices)
        if len(ranges) <= 1:
            return None
        slices = [arena.slice(a, b) for a, b in ranges]
        outs = list(pool.map(partial(run_stages, stages), slices))
        bases: list = []
        raws: list = []
        for out in outs:
            bases.extend(out.bases)
            raws.extend(out.raws)
        return Arena(outs[0].kind, bases, raws)


BACKENDS["parallel"] = ParallelBackend()
