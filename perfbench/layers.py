"""Per-layer measurements (``--trace 1``), one workload at a time.

Every number is timed around a call into a layer's public function from
this file, or read from that layer's public ``stats()``; nothing inside
``src/`` is instrumented.  One traced run of a workload:

1. **serving path** — on a server subprocess (the TCP workloads first
   replay their whole load phase), a closed-loop replay of a sample of
   the workload's requests over TCP, then the same requests through an
   in-process ``AsyncEngine`` with the shipped defaults: ``net`` is the
   difference of the two medians, ``server.*`` comes from ``stats()``;
2. **request path** — each sampled op is answered twice per round, in
   alternating order: once through the public entry point (untraced)
   and once decomposed into spans around the layer calls it makes
   (decode -> parse -> compile -> select [-> intern] -> execute ->
   encode; trace -> encode -> compile -> count for world queries).
   Self times give the ``io``, ``cost_model`` and ``symbolic``/``sat``
   numbers, the untraced calls the residual and the tracing overhead;
3. **probes** — the workload's program sequence replayed into a fresh
   ``Engine`` (compile), every explicit backend against ``auto`` on the
   sampled ops (regret), interning and the symbolic encoding on the
   sampled values, and the static estimate against true world counts.

A layer a workload's own path does not touch is still measured on that
workload's inputs, so every metric is reported for every workload.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import statistics
import time

import endtoend
import loadgen
from endtoend import References, Result, percentile
from spans import Tracer

#: Ops sampled for the request path, and the wall time of the TCP
#: replay (the in-process replay sends as many requests).
SAMPLE = 200
REPLAY_BUDGET_S = 4.0
#: Distinct ops per backend probe and its wall budget; an enumerating
#: backend is not asked a world query past ENUMERABLE_WORLDS.
PROBE_OPS = 24
PROBE_BUDGET_S = 20.0
ENUMERABLE_WORLDS = 3**7
#: Values wider than this skip the symbolic-encoding probe (the
#: injectivity certificate is quadratic in the width).
SYMBOLIC_PROBE_WIDTH = 1000
#: Length of the in-process caller run that measures generator lateness.
LATENESS_RUN_S = 2.0
#: Where a traced run leaves its spans, under the checkout root.
SPANS_DIR = ".perfbench"

BACKEND_NAMES = ("eager", "streaming", "fused", "parallel", "process", "symbolic")

#: Which end-to-end metric, on which workload, each layer metric should
#: move (a metric prefix stands for every metric under it).
MOVES = {
    "net.overhead_us": "interactive latency_p50_ms",
    "server.queue_us": "interactive latency_p50_ms",
    "server.execute_us": "burst throughput_ops_s, latency_p90_ms",
    "server.batch_size": "burst throughput_ops_s, latency_p90_ms",
    "server.dedupe_ratio": "burst throughput_ops_s, latency_p90_ms",
    "server.shed": "burst throughput_ops_s, latency_p90_ms",
    "server.timeouts": "burst throughput_ops_s, latency_p90_ms",
    "server.retries": "burst throughput_ops_s, latency_p90_ms",
    "io.": "bulk latency_p50_ms; interactive latency_p50_ms; burst latency_p90_ms",
    "engine.compile_": "burst latency_p90_ms",
    "cost_model.select_us": "interactive latency_p50_ms",
    "cost_model.auto_regret": "bulk throughput_ops_s",
    "cost_model.choice.": "bulk throughput_ops_s",
    "cost_model.unsound_estimates": "worlds correctness (must stay 0)",
    "interning.": "bulk latency_p50_ms; burst latency_p90_ms",
    "backends.": "bulk latency_p50_ms",
    "process.": "bulk latency_p50_ms and ops_failed",
    "symbolic.": "worlds latency_p50_ms, throughput_ops_s",
    "sat.": "worlds latency_p50_ms, throughput_ops_s",
    "trace.": "validity of every attribution above",
    "loadgen.": "validity of every attribution above",
}


def moves(metric: str) -> str:
    for prefix, target in MOVES.items():
        if metric.startswith(prefix):
            return target
    return ""


def _us(seconds: float) -> float:
    return seconds * 1e6


def _p50_us(seconds: list[float]) -> float:
    return _us(statistics.median(seconds)) if seconds else 0.0


def _servable(ops: list[dict]) -> list[dict]:
    return [op for op in ops if op["kind"] in ("run", "count")]


def _distinct(ops: list[dict], refs: References) -> list[dict]:
    seen, out = set(), []
    for op in ops:
        key = refs.key(op)
        if key not in seen:
            seen.add(key)
            out.append(op)
    return out


# -- 1. serving path -------------------------------------------------------------------


def _tcp_replay(address, ops: list[dict], refs: References, result: Result) -> list[float]:
    samples = loadgen.closed_loop(address, loadgen.encode(ops), REPLAY_BUDGET_S)
    return endtoend.score(samples, ops, refs, result)


async def _async_replay(ops: list[dict], count: int) -> tuple[list[float], dict]:
    """*count* requests cycling through *ops*, one at a time, through an
    in-process ``AsyncEngine`` with the shipped defaults."""
    from repro.serve import AsyncEngine

    times: list[float] = []
    async with AsyncEngine() as engine:
        for i in range(count):
            op = ops[i % len(ops)]
            began = time.perf_counter()
            if op["kind"] == "count":
                await engine.count_json(op["program"], op["value"])
            else:
                await engine.run_json(op["program"], op["value"])
            times.append(time.perf_counter() - began)
        stats = engine.stats()
    return times, stats


def _server_metrics(stats: dict, out: Result) -> None:
    latency = stats["latency"]
    out.add("server.queue_us", _us(latency["queue"]["p50"] or 0.0), "us")
    out.add("server.execute_us", _us(latency["execute"]["p50"] or 0.0), "us")
    batches, batched = stats["batches"], stats["batched_inputs"]
    out.add("server.batch_size", batched / batches if batches else 0.0, "count")
    out.add("server.dedupe_ratio", stats["deduped_inputs"] / batched if batched else 0.0, "ratio")
    for counter in ("shed", "timeouts", "retries"):
        out.add(f"server.{counter}", stats[counter], "count")


def serving_path(workload, seconds, ops, phases, sample, refs, result) -> dict:
    """Section 1 of the module doc; returns the means the residual needs."""
    group, address, _ = endtoend.server_setup(refs, result, launches=1)
    try:
        lateness = None
        if workload == "interactive":
            samples = loadgen.closed_loop(address, loadgen.encode(ops), seconds)
            endtoend.score(samples, ops, refs, result)
            lateness = samples.lateness()
        elif workload == "burst":
            lateness = endtoend.burst_load(address, phases, refs, result)["lateness"]
        if lateness is not None:
            result.add("loadgen.lateness_p99_ms", percentile(lateness, 99) * 1e3, "ms")
            _server_metrics(loadgen.stats(address), result)
        tcp = _tcp_replay(address, _servable(sample), refs, result)
        if lateness is None:
            _server_metrics(loadgen.stats(address), result)
    finally:
        endtoend.stop(group, result)
    in_process, stats = asyncio.run(_async_replay(_servable(sample), len(tcp)))
    result.add("net.overhead_us", _us(statistics.median(tcp) - statistics.median(in_process)), "us")
    return {
        "tcp_mean": statistics.fmean(tcp),
        "async_mean": statistics.fmean(in_process),
        "queue_mean": stats["latency"]["queue"]["mean"] or 0.0,
    }


# -- 2. request path -------------------------------------------------------------------


def _available(engine) -> list[str]:
    healthy = [name for name, backend in engine.backends.items() if backend.healthy()]
    return healthy or list(engine.backends)


def decomposed(tracer: Tracer, rid: int, op: dict, served: bool, interners: list) -> object:
    """*op* as spans around the layer calls its entry point makes.

    *served* mirrors ``AsyncEngine`` (``io.run_json_many``: a fresh
    batch interner around execution) instead of ``io.run_json``.
    """
    from repro import io
    from repro.engine import (
        DEFAULT_ENGINE,
        ChoiceSpace,
        Interner,
        ShardedBackend,
        SymbolicBackend,
        select_backend,
        trace_worlds,
    )
    from repro.engine.symbolic import SymbolicUnsupported
    from repro.values.values import SetValue

    kind = op["kind"]
    world = kind != "run"
    with tracer.span("op", request=rid):
        with tracer.span("io.decode"):
            value = io.value_from_json(op["value"])
        with tracer.span("io.parse"):
            morphism = io.parsed_morphism(op["program"])
        with tracer.span("engine.compile"):
            plan = DEFAULT_ENGINE.compile(morphism)
        with tracer.span("cost_model.select") as span:
            choice = select_backend(
                plan, value, existential=world, world_query=world,
                available=_available(DEFAULT_ENGINE),
            )
            span["backend"] = choice.backend
        backend = DEFAULT_ENGINE.backends[choice.backend]
        if kind == "run":
            interner = None
            if served:
                with tracer.span("interning.intern"):
                    interner = Interner()
                    value = interner.intern(value)
                interners.append(interner)
            with tracer.span("execute"):
                if choice.shards is not None and isinstance(backend, ShardedBackend):
                    out = backend.execute(plan, value, interner, shard_hint=choice.shards)
                else:
                    out = backend.execute(plan, value, interner)
            if served:
                with tracer.span("interning.intern"):
                    out = interner.intern(out)
            with tracer.span("io.encode"):
                return io.value_to_json(out)
        space = None
        if isinstance(backend, SymbolicBackend):
            try:
                with tracer.span("symbolic.trace"):
                    surrogate = trace_worlds(plan, value)
                with tracer.span("symbolic.encode"):
                    space = ChoiceSpace(surrogate)
            except SymbolicUnsupported:
                space = None
        if space is None:
            query = {"count": DEFAULT_ENGINE.count_worlds, "certain": DEFAULT_ENGINE.certain,
                     "possible": DEFAULT_ENGINE.possible}[kind]
            with tracer.span("execute"):
                out = query(morphism, value, backend=choice.backend, intern=False)
        elif kind == "count":
            with tracer.span("sat.compile"):
                space.circuit()
            with tracer.span("sat.count"):
                out = space.circuit().model_count() if space.exact else space.count_worlds()
        else:
            with tracer.span("sat.members"):
                try:
                    members = space.certain_members() if kind == "certain" else space.possible_members()
                except SymbolicUnsupported:
                    members = getattr(backend, kind)(plan, value, None)
            out = SetValue(members)
        if kind == "count":
            return out
        with tracer.span("io.encode"):
            return io.value_to_json(out)


def untraced(op: dict, served: bool) -> object:
    """The public call the workload itself makes for *op*."""
    from repro import io

    from caller import answer

    if served and op["kind"] == "run":
        return io.run_json_many(op["program"], [op["value"]], "auto")[0]
    return answer(op)


def request_path(sample, served, refs, result, tracer, interners) -> dict:
    """Section 2 of the module doc; returns the totals of the replay."""
    for op in sample:
        untraced(op, served)  # first sight: plans, pools and memos warm
    traced_total = untraced_total = 0.0
    calls = 0
    start = time.perf_counter()
    rnd = 0
    while calls < SAMPLE and (rnd == 0 or time.perf_counter() - start < 2 * REPLAY_BUDGET_S):
        for i, op in enumerate(sample):
            order = (True, False) if (rnd + i) % 2 == 0 else (False, True)
            for traced_call in order:
                began = time.perf_counter()
                if traced_call:
                    data = decomposed(tracer, calls, op, served, interners)
                    traced_total += time.perf_counter() - began
                else:
                    data = untraced(op, served)
                    untraced_total += time.perf_counter() - began
                if json.dumps(data, sort_keys=True, separators=(",", ":")) != refs.answers[refs.key(op)]:
                    result.errors.append(f"wrong answer: {op['kind']} {op['program']}")
            calls += 1
        rnd += 1
    return {
        "traced": traced_total,
        "untraced": untraced_total,
        "calls": calls,
        "layers": tracer.children_self_total("op"),
    }


# -- 3. probes -----------------------------------------------------------------------------


def compile_probe(programs: list[str], result: Result) -> None:
    """The program sequence replayed in order into a fresh ``Engine``."""
    from repro import io
    from repro.engine import Engine

    engine = Engine()
    times = []
    for text in programs:
        morphism = io.parsed_morphism(text)
        start = time.perf_counter()
        engine.compile(morphism)
        times.append(time.perf_counter() - start)
    result.add("engine.compile_p50_us", _us(percentile(times, 50)), "us")
    result.add("engine.compile_p99_us", _us(percentile(times, 99)), "us")


def _estimate(op: dict) -> int:
    from repro import io
    from repro.engine import estimate_value

    return estimate_value(io.value_from_json(op["value"])).worlds


def _backend_call(op: dict, backend: str):
    from repro import io
    from repro.engine import DEFAULT_ENGINE

    morphism = io.parsed_morphism(op["program"])
    value = io.value_from_json(op["value"])
    kind = op["kind"]
    if kind == "run":
        return io.value_to_json(DEFAULT_ENGINE.run(morphism, value, backend=backend, intern=False))
    if kind == "count":
        return DEFAULT_ENGINE.count_worlds(morphism, value, backend=backend, intern=False)
    query = DEFAULT_ENGINE.certain if kind == "certain" else DEFAULT_ENGINE.possible
    return io.value_to_json(query(morphism, value, backend=backend, intern=False))


def backend_probe(ops: list[dict], refs: References, result: Result) -> None:
    """Each explicit backend and ``auto`` on the same ops: per-backend
    time, and auto's regret against the best explicit choice."""
    per_backend: dict[str, list[float]] = {name: [] for name in BACKEND_NAMES}
    regrets = []
    start = time.perf_counter()
    for op in ops[:PROBE_OPS]:
        if time.perf_counter() - start > PROBE_BUDGET_S:
            break
        enumerable = op["kind"] == "run" or _estimate(op) <= ENUMERABLE_WORLDS
        times = {}
        for name in BACKEND_NAMES + ("auto",):
            if not enumerable and name not in ("symbolic", "auto"):
                continue
            best = float("inf")
            for _ in range(2):
                began = time.perf_counter()
                data = _backend_call(op, name)
                best = min(best, time.perf_counter() - began)
            if json.dumps(data, sort_keys=True, separators=(",", ":")) != refs.answers[refs.key(op)]:
                result.errors.append(f"backend {name} disagrees: {op['kind']} {op['program']}")
            times[name] = best
        for name in BACKEND_NAMES:
            if name in times:
                per_backend[name].append(times[name])
        explicit = [t for name, t in times.items() if name != "auto"]
        regrets.append(times["auto"] / min(explicit))
    for name in BACKEND_NAMES:
        samples = per_backend[name]
        result.add(f"backends.execute_ms.{name}", statistics.median(samples) * 1e3 if samples else 0.0, "ms")
    result.add("cost_model.auto_regret", statistics.median(regrets), "ratio")


def value_probes(ops, served, refs, result, tracer, interners) -> None:
    """Interning, symbolic encoding and estimate soundness on the values."""
    from repro import io
    from repro.engine import DEFAULT_ENGINE, ChoiceSpace, Interner, estimate_value, trace_worlds

    plan = DEFAULT_ENGINE.compile(io.parsed_morphism("normalize"))
    counts = {
        refs.key(op)[2]: json.loads(refs.answers[refs.key(op)])
        for op in ops
        if op["kind"] == "count" and op["program"] == "normalize"
    }
    unsound = inexact = 0
    seen = set()
    for op in ops:
        key = refs.key(op)[2]
        if key in seen:
            continue
        seen.add(key)
        value = io.value_from_json(op["value"])
        if not served:
            with tracer.span("interning.intern"):
                interner = Interner()
                interner.intern(value)
            interners.append(interner)
        true_count = counts.get(key)
        width = len(value.elems) if hasattr(value, "elems") else 1
        if width <= SYMBOLIC_PROBE_WIDTH:
            with tracer.span("symbolic.trace"):
                surrogate = trace_worlds(plan, value)
            with tracer.span("symbolic.encode"):
                space = ChoiceSpace(surrogate)
            inexact += not space.exact
            with tracer.span("sat.compile"):
                circuit = space.circuit()
            if space.exact or estimate_value(value).worlds <= ENUMERABLE_WORLDS:
                with tracer.span("sat.count"):
                    count = circuit.model_count() if space.exact else space.count_worlds()
                true_count = count if true_count is None else true_count
        if true_count is not None and estimate_value(value).worlds < true_count:
            unsound += 1
    result.add("symbolic.inexact", inexact, "count")
    result.add("cost_model.unsound_estimates", unsound, "count")
    if unsound:
        result.errors.append(f"{unsound} unsound world estimate(s)")


def _ops(workload: str, seed: int, seconds: float):
    """The workload's ops, its load phases (``burst``) and the program
    sequence its clients send."""
    if workload == "interactive":
        from workloads import interactive_ops

        ops = interactive_ops(seed)
        return ops, None, [op["program"] for op in ops]
    if workload == "burst":
        phases = endtoend.burst_phases(seed, seconds)
        ops = [op for _, phase_ops, _ in phases for op in phase_ops]
        return ops, phases, [op["program"] for op in ops]
    ops = endtoend.in_process_ops(workload, seed)
    return ops, None, [op["program"] for op in ops] * 5


def traced(workload: str, seed: int, seconds: float, result: Result) -> None:
    from repro import io
    from repro.engine import BACKENDS

    served = workload in ("interactive", "burst")
    ops, phases, programs = _ops(workload, seed, seconds)
    refs = References()
    refs.add(ops)
    sample = ops[:SAMPLE] if served else ops
    tracer = Tracer()
    interners: list = []

    # io.parse: first sight of each text, before any other path parses it.
    for text in dict.fromkeys(op["program"] for op in sample):
        with tracer.span("io.parse.first"):
            io.parsed_morphism(text)

    serving = serving_path(workload, seconds, ops, phases, sample, refs, result)
    if not served:
        job = {
            "mode": "measure",
            "seconds": LATENESS_RUN_S,
            "ops": ops,
            "expect": [refs.digest(op) for op in ops],
        }
        report, _ = endtoend.call(job, result)
        result.failed += report["failed"]
        result.attempted += len(report["latencies"])
        result.add("loadgen.lateness_p99_ms", percentile(report["gaps"], 99) * 1e3, "ms")

    path = request_path(sample, served, refs, result, tracer, interners)
    result.attempted += path["calls"]
    compile_probe(programs[:5000], result)
    backend_probe(_distinct(sample, refs), refs, result)
    value_probes(sample, served, refs, result, tracer, interners)

    result.add("io.decode_us", _p50_us(tracer.by_name("io.decode")), "us")
    result.add("io.encode_us", _p50_us(tracer.by_name("io.encode")), "us")
    result.add("io.parse_us", _p50_us(tracer.by_name("io.parse.first")), "us")
    result.add("cost_model.select_us", _p50_us(tracer.by_name("cost_model.select")), "us")
    choices = [s["backend"] for s in tracer.spans if s["name"] == "cost_model.select"]
    for name in BACKEND_NAMES:
        result.add(f"cost_model.choice.{name}", choices.count(name), "count")
    result.add("interning.intern_us", _p50_us(tracer.by_name("interning.intern")), "us")
    stats = [interner.stats() for interner in interners]
    hits = sum(s["intern_hits"] for s in stats)
    lookups = hits + sum(s["intern_misses"] for s in stats)
    result.add("interning.hit_ratio", hits / lookups if lookups else 0.0, "ratio")
    for name in ("remote_chunks", "pool_fallbacks", "pool_restarts"):
        result.add(f"process.{name}", BACKENDS["process"].stats()[name], "count")
    result.add("symbolic.trace_us", _p50_us(tracer.by_name("symbolic.trace")), "us")
    result.add("symbolic.encode_us", _p50_us(tracer.by_name("symbolic.encode")), "us")
    result.add("sat.compile_us", _p50_us(tracer.by_name("sat.compile")), "us")
    result.add("sat.count_us", _p50_us(tracer.by_name("sat.count")), "us")

    # Residual: the share of end-to-end time no layer span explains.
    # In process it is measured against the untraced calls of the same
    # ops; over TCP the serving layers join the sum, the network as the
    # TCP-minus-in-process difference and the batch queue by its mean.
    per_call = path["layers"] / path["calls"]
    if served:
        explained = (serving["tcp_mean"] - serving["async_mean"]) + serving["queue_mean"] + per_call
        unexplained = 1 - explained / serving["tcp_mean"]
    else:
        unexplained = 1 - path["layers"] / path["untraced"]
    result.add("trace.unexplained_share", unexplained, "ratio")
    result.add("trace.overhead", path["traced"] / path["untraced"], "ratio")

    BACKENDS["process"].close()
    if multiprocessing.active_children():
        result.errors.append("process-pool workers outlived the run")
    out = endtoend.ROOT / SPANS_DIR / f"spans-{workload}-{seed}.jsonl"
    tracer.write(out)
    print(f"spans: {len(tracer.spans)} written to {out.relative_to(endtoend.ROOT)}")
