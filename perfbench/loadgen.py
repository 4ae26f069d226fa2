"""NDJSON load generation from one process over at most two connections.

Two load shapes, both recording for every request when it was *due*, when
it was actually *sent* and when its response line arrived:

* :func:`closed_loop` — one connection; the next request is due when the
  previous response arrives (a single waiting caller).  Lateness is the
  gap the generator itself adds between a response and the next send.
* :func:`open_loop` — a fixed send schedule spread over the given
  connections, independent of responses (independent users).  Latency
  is timed from the *due* time, so a generator stall shows up as
  latency on every request it delayed instead of hiding it, and
  lateness (sent - due) says how far behind the generator ran.

Request lines are encoded before the clock starts and responses are
kept as raw lines: decoding and answer checks happen after the run.
The generator's own garbage collector is paused while it drives load,
so a collection over the benchmark's inputs and references cannot
stall the sends or the reads.
"""

from __future__ import annotations

import asyncio
import gc
import json
import socket
import time
from contextlib import contextmanager


@contextmanager
def gc_paused():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def encode(ops: list[dict]) -> list[bytes]:
    """One NDJSON frame per op, ``id`` = its index."""
    lines = []
    for i, op in enumerate(ops):
        frame = {"id": i, "program": op["program"], "value": op["value"]}
        if op["kind"] == "count":
            frame["op"] = "count"
        lines.append((json.dumps(frame) + "\n").encode())
    return lines


class Samples:
    """Per-request clocks (perf_counter seconds) and raw response lines."""

    def __init__(self, n: int) -> None:
        self.due = [0.0] * n
        self.sent = [0.0] * n
        self.recv: list = [None] * n
        self.raw: list = [None] * n
        self.count = 0  # requests sent
        self.gap: list[float] = []  # closed loop: answer -> next send

    def latencies(self) -> list:
        """Due-to-response seconds per request sent; None if unanswered."""
        return [
            None if self.recv[i] is None else self.recv[i] - self.due[i]
            for i in range(self.count)
        ]

    def lateness(self) -> list[float]:
        """Seconds the generator ran behind, per request sent."""
        return self.gap or [self.sent[i] - self.due[i] for i in range(self.count)]


def request(address, line: bytes, timeout: float = 30.0) -> bytes:
    """Send one frame on a fresh connection; the response line."""
    with socket.create_connection(address, timeout=timeout) as sock:
        sock.sendall(line)
        with sock.makefile("rb") as stream:
            return stream.readline()


def closed_loop(address, lines: list[bytes], seconds: float) -> Samples:
    """Send, await the answer, send the next — for *seconds*, cycling
    through *lines* (request ``i`` carries ``lines[i % len(lines)]``).

    A request is due when the previous answer arrived, so lateness is
    the generator's own gap and latency runs from the send.
    """
    samples = Samples(0)
    with gc_paused(), socket.create_connection(address) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        with sock.makefile("rb") as stream:
            start = previous = time.perf_counter()
            while True:
                sent = time.perf_counter()
                if sent - start >= seconds:
                    break
                sock.sendall(lines[samples.count % len(lines)])
                response = stream.readline()
                arrived = time.perf_counter()
                samples.due.append(sent)
                samples.sent.append(sent)
                samples.recv.append(arrived)
                samples.raw.append(response)
                samples.gap.append(sent - previous)
                samples.count += 1
                previous = arrived
    return samples


async def _open_loop(address, lines, offsets, connections, grace) -> Samples:
    n = len(lines)
    samples = Samples(n)
    streams = [
        await asyncio.open_connection(*address, limit=1 << 22)
        for _ in range(connections)
    ]
    for _, writer in streams:
        writer.get_extra_info("socket").setsockopt(
            socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
        )
    expected = [len(range(c, n, connections)) for c in range(connections)]

    async def read(c: int) -> None:
        reader = streams[c][0]
        for _ in range(expected[c]):
            line = await reader.readline()
            if not line:
                return
            arrived = time.perf_counter()
            rid = json.loads(line)["id"]
            samples.recv[rid], samples.raw[rid] = arrived, line

    readers = [asyncio.ensure_future(read(c)) for c in range(connections)]
    t0 = time.perf_counter() + 0.05
    for i, offset in enumerate(offsets):
        samples.due[i] = t0 + offset
    i = 0
    while i < n:
        now = time.perf_counter()
        if samples.due[i] > now:
            await asyncio.sleep(samples.due[i] - now)
            now = time.perf_counter()
        # Everything due by now goes out in this pass.
        while i < n and samples.due[i] <= now:
            samples.sent[i] = time.perf_counter()
            streams[i % connections][1].write(lines[i])
            i += 1
        samples.count = i
        await asyncio.sleep(0)
    for _, writer in streams:
        await writer.drain()
    try:
        await asyncio.wait_for(asyncio.gather(*readers), grace)
    except asyncio.TimeoutError:
        pass
    for task in readers:
        task.cancel()
    for _, writer in streams:
        writer.close()
    await asyncio.gather(*readers, return_exceptions=True)
    return samples


def open_loop(address, lines, offsets, connections: int = 2, grace: float = 10.0) -> Samples:
    """Send ``lines[i]`` at ``t0 + offsets[i]``, round-robin over
    *connections*; answers still missing *grace* seconds after the last
    send count as unanswered."""
    with gc_paused():
        return asyncio.run(_open_loop(address, lines, offsets, connections, grace))


def stats(address) -> dict:
    """The server's ``{"op": "stats"}`` snapshot."""
    line = request(address, b'{"id": 0, "op": "stats"}\n')
    return json.loads(line)["stats"]
