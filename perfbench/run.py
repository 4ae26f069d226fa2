"""The repo benchmark: four workloads against the current checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads (why each exists is in
``BENCHMARK.json``):

* ``interactive`` — a ``python -m repro.serve.net`` subprocess with the
  shipped defaults, driven over one NDJSON connection in a closed loop
  with small distinct values under ten program texts;
* ``burst`` — the same server, two connections, an open loop on a fixed
  ladder of offered rates, Zipf-skewed inputs and a Zipf long tail of
  program texts, one frame in ten ``op: count``;
* ``bulk`` — an in-process caller running ``io.run_json(backend="auto")``
  back to back on values of 10^3-10^4 members;
* ``worlds`` — an in-process caller running ``io.count_worlds_json``,
  ``io.certain_json`` and ``engine.possible`` on tight families and key
  repairs.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
per-layer measurements of ``layers.py`` instead.  Either way the last
stdout line is ``{"correct", "attempted", "failed", "metrics"}``, and
every answer is checked against an eager reference computed before the
clock starts.  A wrong answer counts as a failed op, and any failure, or
a child process that outlives its stop, makes the exit code 1.

End-to-end metrics, per workload:

* ``setup_s`` — launch to first correct answer (server spawn to first
  response; interpreter start to first result), median of several
  launches in the run;
* ``latency_p50_ms`` and ``latency_p90_ms`` — per-op latency median and
  p90.  Open-loop requests are timed from their due send time, and a
  failed or unanswered request counts as a miss.  The TCP workloads
  also print p99, which is not gated: on a shared 2-vCPU host the top
  1% of an open loop follows the host's hiccups and moved 25-50%
  between identical runs, where p90 moved about 12% at most;
* ``throughput_ops_s`` — ops completed per second (for the in-process
  workloads the median rate over whole passes through their ops); on
  ``burst`` the sustained rate: the ladder climbs until a step misses
  the p90 limit while serving under 90% of its offered rate, runs that
  rate three times and reports the median rate served (a failed
  request or a late generator also ends the climb, at the highest rate
  served so far);
* ``peak_rss_mb`` — peak RSS of the server process group or the caller
  and its workers.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import sys
import time

from endtoend import ROOT, SRC, Result
from procs import stop_all

# -- entry point ------------------------------------------------------------------------


def provenance() -> dict:
    """Source identity and host, stamped on every result."""
    import hashlib

    sha = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            sha = target.read_text().strip() if target.is_file() else ref
        else:
            sha = ref
    tree = hashlib.sha1()
    for path in sorted(SRC.rglob("*.py")):
        tree.update(str(path.relative_to(SRC)).encode())
        tree.update(path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha1": tree.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


WORKLOADS = ("interactive", "burst", "bulk", "worlds")


def run(workload: str, seed: int, seconds: float, trace: bool) -> Result:
    import endtoend

    result = Result()
    if trace:
        from layers import traced

        traced(workload, seed, seconds, result)
    elif workload == "interactive":
        endtoend.run_interactive(seed, seconds, result)
    elif workload == "burst":
        endtoend.run_burst(seed, seconds, result)
    else:
        endtoend.run_in_process(workload, seed, seconds, result)
    return result


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from layers import moves

    print("provenance:", json.dumps(provenance(), sort_keys=True))
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        stop_all()
    print(f"workload {args.workload} (seed {args.seed}, {args.seconds:g} s)")
    for name, (value, unit) in result.metrics.items():
        target = f"  -> {moves(name)}" if args.trace else ""
        print(f"  {name:<34} {value:14.4f} {unit:<6}{target}")
    print(f"  {'ops_attempted':<34} {result.attempted:14d}")
    print(f"  {'ops_failed':<34} {result.failed:14d}")
    for name, value in result.info.items():
        print(f"  {name:<34} {value:14.4f} (not gated)")
    for error in result.errors:
        print(f"  check failed: {error}")
    print(result.line())
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
