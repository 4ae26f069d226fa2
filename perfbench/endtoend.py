"""End-to-end measurement of the four workloads (``--trace 0``).

Shared by ``layers.py``: the eager references, the server launch and
stop, and the percentile and result bookkeeping.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Launches per run whose median is ``setup_s``.
TCP_LAUNCHES = 7
CALLER_LAUNCHES = 7

#: ``burst``: after an unmeasured warm-up, a reference phase at a fixed
#: offered rate (requests/s over both connections, share of
#: ``--seconds``) gives p50 and p90.  A ladder of rising rates, one short
#: phase each, then climbs until a step saturates: it misses the p90
#: limit while serving under BURST_BEHIND of its offered rate.  That
#: rate runs BURST_REPEATS times in all, and the median rate served over
#: those runs is the sustained rate.  A failed request or a generator
#: running late also ends the climb.  Each phase drains before the
#: next, so no step floods the admission queue into shedding.
BURST_REFERENCE = (500, 0.35)
BURST_WARMUP_S = 1.0
BURST_LADDER = tuple(int(1000 * 1.15**i) for i in range(15))
BURST_STEP_SHARE = 0.04
BURST_P90_LIMIT_S = 0.05
BURST_BEHIND = 0.9
BURST_REPEATS = 3
BURST_LATE_LIMIT_S = 0.02


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile; ``inf`` stands for a miss."""
    ordered = sorted(samples)
    rank = max(1, -(-q * len(ordered) // 100))
    return ordered[int(rank) - 1]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


class Result:
    """Metrics of one run plus its op accounting."""

    def __init__(self) -> None:
        self.metrics: dict[str, tuple[float, str]] = {}
        self.info: dict[str, float] = {}  # printed, not gated
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def add(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.errors

    def line(self) -> str:
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in self.metrics.items()
                },
            }
        )


# -- references -----------------------------------------------------------------


class References:
    """Eager answers keyed by (kind, program, canonical value)."""

    def __init__(self) -> None:
        from workloads import canonical

        self._canonical = canonical
        self.answers: dict[tuple, str] = {}

    def key(self, op: dict) -> tuple:
        return op["kind"], op["program"], self._canonical(op["value"])

    def add(self, ops: list[dict]) -> None:
        from workloads import reference

        for op in ops:
            key = self.key(op)
            if key not in self.answers:
                self.answers[key] = self._canonical(reference(op))

    def digest(self, op: dict) -> str:
        import hashlib

        return hashlib.sha1(self.answers[self.key(op)].encode()).hexdigest()

    def check_frame(self, op: dict, raw: "bytes | None") -> bool:
        """Is *raw* a response frame carrying the right answer to *op*?"""
        if not raw:
            return False
        frame = json.loads(raw)
        if "result" not in frame:
            return False
        result = frame["result"]
        if op["kind"] == "count":
            if result.get("approximate"):
                return False
            result = result["count"]
        return self._canonical(result) == self.answers[self.key(op)]


def paper_checks(workload: str, ops: list[dict], refs: References, result: Result) -> None:
    """The paper's own quantities, checked beside the speeds.

    ``bulk``: Theorem 4.2 coherence — normalizing a design template
    equals ``alpha o map(or_rho_2)`` (the other side of the diagram) and
    does not depend on the rewrite strategy.  ``worlds``: the Section 6
    closed form (3^k worlds on the tight family, cross-checked against
    enumeration where that is feasible) and soundness of the static
    world estimate.
    """
    from repro import io
    from repro.core.normalize import normalize_with_strategy
    from repro.engine import estimate_value
    from repro.types.rewrite import innermost_strategy, outermost_strategy
    from workloads import canonical

    if workload == "bulk":
        designs = [op for op in ops if op["program"] == "normalize"]
        for op in designs:
            other = dict(op, program="alpha o map(or_rho_2)")
            refs.add([other])
            if refs.answers[refs.key(other)] != refs.answers[refs.key(op)]:
                result.errors.append("Theorem 4.2: normalize != alpha o map(or_rho_2)")
            value = io.value_from_json(op["value"])
            if len(value.elems) <= 6:
                inner = normalize_with_strategy(value, None, innermost_strategy)
                outer = normalize_with_strategy(value, None, outermost_strategy)
                if inner != outer or canonical(io.value_to_json(inner)) != refs.answers[refs.key(op)]:
                    result.errors.append("Theorem 4.2: normal form depends on the strategy")
    if workload == "worlds":
        for op in ops:
            if op["kind"] != "count":
                continue
            true_count = json.loads(refs.answers[refs.key(op)])
            estimate = estimate_value(io.value_from_json(op["value"])).worlds
            if estimate < true_count:
                result.errors.append(f"unsound estimate {estimate} < {true_count} worlds")
            k = op.get("k")
            if k is not None and true_count != 3**k:
                # Below the closed-form cut-off the reference enumerates.
                result.errors.append(f"tight family k={k}: {true_count} worlds, not 3^k")


# -- the server workloads -------------------------------------------------------------


def launch_server(probe_line: bytes, probe_op: dict, refs: References, result: Result):
    """Spawn the server, wait for its address and a correct first answer.

    Returns ``(group, address, seconds from spawn to that answer)``.
    """
    import loadgen
    from procs import Group

    group = Group([sys.executable, "-m", "repro.serve.net"], child_env(), str(ROOT))
    address = group.wait_address()
    line = loadgen.request(address, probe_line)
    elapsed = time.perf_counter() - group.spawned
    if not refs.check_frame(probe_op, line):
        result.errors.append(f"wrong first answer: {line[:200]!r}")
    return group, address, elapsed


def server_setup(refs: References, result: Result, launches: int = TCP_LAUNCHES):
    """*launches* launches; the last server stays up for the load.

    Returns ``(group, address, median seconds from spawn to answer)``.
    """
    import loadgen
    from workloads import PROBE_PROGRAM, PROBE_VALUE

    probe_op = {"kind": "run", "program": PROBE_PROGRAM, "value": PROBE_VALUE}
    refs.add([probe_op])
    probe_line = loadgen.encode([probe_op])[0]
    times = []
    for i in range(launches):
        group, address, elapsed = launch_server(probe_line, probe_op, refs, result)
        times.append(elapsed)
        if i < launches - 1:
            stop(group, result)
    return group, address, statistics.median(times)


def stop(group, result: Result) -> None:
    survivors = group.stop()
    if survivors:
        result.errors.append(f"{len(survivors)} process(es) survived the stop")


def run_interactive(seed: int, seconds: float, result: Result) -> None:
    import loadgen
    from workloads import interactive_ops

    ops = interactive_ops(seed)
    refs = References()
    refs.add(ops)
    group, address, setup_s = server_setup(refs, result)
    result.add("setup_s", setup_s, "s")
    try:
        lines = loadgen.encode(ops)
        samples = loadgen.closed_loop(address, lines, seconds)
        result.add("peak_rss_mb", group.peak_rss_kb() / 1024, "MB")
    finally:
        stop(group, result)
    latencies = score(samples, ops, refs, result)
    result.add("latency_p50_ms", percentile(latencies, 50) * 1e3, "ms")
    result.add("latency_p90_ms", percentile(latencies, 90) * 1e3, "ms")
    result.info["latency_p99_ms"] = percentile(latencies, 99) * 1e3
    result.add("throughput_ops_s", samples.count / seconds, "ops/s")


def score(samples, ops: list[dict], refs: References, result: Result) -> list[float]:
    """Latencies of the requests sent; a wrong or missing answer is a
    failed op and a miss (``inf``)."""
    result.attempted += samples.count
    latencies = []
    for i, latency in enumerate(samples.latencies()):
        if latency is None or not refs.check_frame(ops[i % len(ops)], samples.raw[i]):
            result.failed += 1
            latency = float("inf")
        latencies.append(latency)
    return latencies


def burst_phases(seed: int, seconds: float) -> list[tuple[int, list[dict], list[float]]]:
    """``(rate, ops, due offsets)`` of the warm-up, the reference phase
    and each ladder step."""
    from workloads import burst_ops

    rate, share = BURST_REFERENCE
    plan = [(rate, BURST_WARMUP_S), (rate, seconds * share)]
    plan += [(r, seconds * BURST_STEP_SHARE) for r in BURST_LADDER]
    ops = burst_ops(seed, sum(int(r * d) for r, d in plan))
    phases, start = [], 0
    for rate, duration in plan:
        n = int(rate * duration)
        phases.append((rate, ops[start : start + n], [k / rate for k in range(n)]))
        start += n
    return phases


def _saturated(row: dict) -> bool:
    return row["p90"] > BURST_P90_LIMIT_S and row["served"] < BURST_BEHIND * row["rate"]


def _step(address, phase, refs: References, result: Result) -> tuple[dict, list[float]]:
    """One ladder step: its row and the lateness of each request."""
    import loadgen

    rate, ops, offsets = phase
    samples = loadgen.open_loop(address, loadgen.encode(ops), offsets, connections=connections())
    latencies = score(samples, ops, refs, result)
    # Correct answers that arrived while the step was still sending:
    # once a backlog builds, this is the rate the server keeps up.
    last_due = samples.due[samples.count - 1]
    served = sum(
        1
        for i, latency in enumerate(latencies)
        if latency != float("inf") and samples.recv[i] <= last_due
    )
    row = {
        "rate": rate,
        "p90": percentile(latencies, 90),
        "failed": sum(x == float("inf") for x in latencies),
        "late_p99": percentile(samples.lateness(), 99),
        "served": served / (last_due - samples.due[0]),
    }
    print(
        f"  offered {rate:>5} req/s: p90 {row['p90'] * 1e3:8.2f} ms,"
        f" served {row['served']:7.1f} req/s, failed {row['failed']},"
        f" lateness p99 {row['late_p99'] * 1e3:.2f} ms"
    )
    return row, samples.lateness()


def burst_load(address, phases, refs: References, result: Result) -> dict:
    """Drive the warm-up and reference phases, then climb the ladder.

    Returns the reference phase's latencies, the sustained rate and the
    generator lateness of every measured request.
    """
    import loadgen

    warmup, reference, *ladder = phases
    for rate, ops, offsets in (warmup, reference):
        samples = loadgen.open_loop(
            address, loadgen.encode(ops), offsets, connections=connections()
        )
        latencies = score(samples, ops, refs, result)
    lateness = samples.lateness()
    rows, sustained = [], None
    for phase in ladder:
        row, late = _step(address, phase, refs, result)
        rows.append(row)
        lateness += late
        if row["failed"] or row["late_p99"] > BURST_LATE_LIMIT_S:
            break
        if _saturated(row):
            served = [row["served"]]
            for _ in range(BURST_REPEATS - 1):
                row, late = _step(address, phase, refs, result)
                served.append(row["served"])
                lateness += late
            sustained = statistics.median(served)
            break
    if sustained is None:
        sustained = max(row["served"] for row in rows)
    return {"reference": latencies, "sustained": sustained, "lateness": lateness}


def run_burst(seed: int, seconds: float, result: Result) -> None:
    phases = burst_phases(seed, seconds)
    refs = References()
    refs.add([op for _, ops, _ in phases for op in ops])
    group, address, setup_s = server_setup(refs, result)
    result.add("setup_s", setup_s, "s")
    try:
        load = burst_load(address, phases, refs, result)
        result.add("peak_rss_mb", group.peak_rss_kb() / 1024, "MB")
    finally:
        stop(group, result)
    result.add("latency_p50_ms", percentile(load["reference"], 50) * 1e3, "ms")
    result.add("latency_p90_ms", percentile(load["reference"], 90) * 1e3, "ms")
    result.info["latency_p99_ms"] = percentile(load["reference"], 99) * 1e3
    result.add("throughput_ops_s", load["sustained"], "ops/s")


def connections() -> int:
    return max(1, min(2, os.cpu_count() or 1))


# -- the in-process workloads ---------------------------------------------------------


def in_process_ops(workload: str, seed: int) -> list[dict]:
    from workloads import bulk_ops, worlds_ops

    return bulk_ops(seed) if workload == "bulk" else worlds_ops(seed)


def probe_op(workload: str) -> dict:
    """The fixed first op of a cold caller: independent of the seed."""
    from repro import io
    from repro.core.costs import tight_family

    if workload == "bulk":
        value = io.value_to_json(tight_family(5000)[0])
        return {"kind": "run", "program": "map(ortoset) o map(settoor) o map(ortoset)", "value": value}
    value = io.value_to_json(tight_family(40)[0])
    return {"kind": "count", "program": "normalize", "value": value, "k": 40}


def call(job: dict, result: Result) -> tuple[dict, float]:
    """Run ``caller.py`` on *job*; (its report, seconds from spawn to the
    first stdout line)."""
    import subprocess

    from procs import Group

    group = Group(
        [sys.executable, str(HERE / "caller.py")],
        child_env(),
        str(ROOT),
        stdin=subprocess.PIPE,
    )
    try:
        group.proc.stdin.write(json.dumps(job).encode())
        group.proc.stdin.close()
        line = group.proc.stdout.readline()
        elapsed = time.perf_counter() - group.spawned
        group.proc.wait(timeout=170)
    finally:
        stop(group, result)
    if not line:
        raise RuntimeError("caller died:\n" + "\n".join(group.stderr_lines[-20:]))
    if group.proc.returncode:
        result.errors.append(f"caller exited with {group.proc.returncode}")
    return json.loads(line), elapsed


def run_in_process(workload: str, seed: int, seconds: float, result: Result) -> None:
    ops = in_process_ops(workload, seed)
    probe = probe_op(workload)
    refs = References()
    refs.add(ops + [probe])
    paper_checks(workload, ops, refs, result)
    times = []
    for _ in range(CALLER_LAUNCHES):
        job = {"mode": "setup", "ops": [probe], "expect": [refs.digest(probe)]}
        report, elapsed = call(job, result)
        if report["digest"] != refs.digest(probe):
            result.errors.append("wrong first answer")
        times.append(elapsed)
    result.add("setup_s", statistics.median(times), "s")
    job = {
        "mode": "measure",
        "seconds": seconds,
        "ops": ops,
        "expect": [refs.digest(op) for op in ops],
    }
    report, _ = call(job, result)
    latencies = report["latencies"]
    result.attempted += len(latencies)
    result.failed += report["failed"]
    if report["survivors"]:
        result.errors.append(f"caller workers survived: {report['survivors']}")
    result.add("latency_p50_ms", percentile(latencies, 50) * 1e3, "ms")
    result.add("latency_p90_ms", percentile(latencies, 90) * 1e3, "ms")
    result.add("throughput_ops_s", statistics.median(report["cycle_rates"]), "ops/s")
    result.add("peak_rss_mb", report["rss_kb"] / 1024, "MB")
