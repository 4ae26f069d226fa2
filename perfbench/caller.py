"""The in-process caller: one interpreter calling the library back to back.

Started by ``run.py`` as its own process, so its peak RSS and its
process-pool workers are those of the system under test and nothing of
the benchmark's own bookkeeping.  It reads one job from stdin::

    {"mode": "setup" | "measure", "seconds": s,
     "ops": [{"kind", "program", "value"}, ...], "expect": [sha1, ...]}

``setup`` answers the first op once and reports its digest, which
``run.py`` times from spawn to answer.  ``measure`` answers every op
once to fill caches, then cycles through the ops until ``seconds`` have
passed, timing each call and checking its answer against ``expect``
outside the timed region; each whole cycle also gives an ops/s rate.
The report is one JSON line on stdout.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time


def answer(op: dict) -> object:
    """Answer *op* through the library's public entry points."""
    from repro import engine, io

    kind, program, value = op["kind"], op["program"], op["value"]
    if kind == "run":
        return io.run_json(program, value, backend="auto")
    if kind == "count":
        return io.count_worlds_json(program, value, backend="auto")
    if kind == "certain":
        return io.certain_json(program, value, backend="auto")
    if kind == "possible":
        result = engine.possible(
            io.parsed_morphism(program),
            io.value_from_json(value),
            backend="auto",
            intern=False,
        )
        return io.value_to_json(result)
    raise ValueError(f"unknown op kind {kind!r}")


def digest(data: object) -> str:
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha1(text.encode()).hexdigest()


def tree_hwm_kb() -> int:
    """Peak RSS of this process plus its live worker processes."""
    import multiprocessing

    from procs import vm_hwm_kb

    return vm_hwm_kb(os.getpid()) + sum(vm_hwm_kb(p.pid) for p in multiprocessing.active_children())


def _checked(op: dict, expect: str) -> tuple[float, bool]:
    start = time.perf_counter()
    try:
        result = answer(op)
    except Exception as exc:  # noqa: BLE001 — a failed op is a data point
        elapsed = time.perf_counter() - start
        print(f"op failed: {op['kind']} {op['program']}: {exc!r}", file=sys.stderr)
        return elapsed, False
    elapsed = time.perf_counter() - start
    return elapsed, digest(result) == expect


def measure(job: dict) -> dict:
    ops, expect, seconds = job["ops"], job["expect"], job["seconds"]
    for op, want in zip(ops, expect, strict=True):
        _checked(op, want)  # warm-up: first sight of every op
    latencies: list[float] = []
    gaps: list[float] = []
    cycle_rates: list[float] = []
    failed = 0
    start = time.perf_counter()
    last_end = None
    while time.perf_counter() - start < seconds:
        cycle_start = time.perf_counter()
        for op, want in zip(ops, expect, strict=True):
            began = time.perf_counter()
            if last_end is not None:
                gaps.append(began - last_end)
            elapsed, ok = _checked(op, want)
            last_end = time.perf_counter()
            latencies.append(elapsed)
            failed += not ok
        cycle_rates.append(len(ops) / (time.perf_counter() - cycle_start))
    return {
        "latencies": latencies,
        "gaps": gaps,
        "cycle_rates": cycle_rates,
        "failed": failed,
        "rss_kb": tree_hwm_kb(),
    }


def main() -> int:
    job = json.loads(sys.stdin.read())
    if job["mode"] == "setup":
        op = job["ops"][0]
        print(json.dumps({"digest": digest(answer(op))}), flush=True)
        report = None
    else:
        report = measure(job)
    from repro.engine import BACKENDS

    BACKENDS["process"].close()
    import multiprocessing

    survivors = [p.pid for p in multiprocessing.active_children()]
    if report is not None:
        report["survivors"] = survivors
        print(json.dumps(report), flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
