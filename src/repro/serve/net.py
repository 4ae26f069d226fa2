"""The network serving front-end: TCP/HTTP over :class:`AsyncEngine`.

``python -m repro.serve`` speaks JSON-lines over stdio — one process,
one pipe.  This module is the *service* face the ROADMAP's serving item
asks for: a socket front-end many clients connect to concurrently, with
per-client rate limits, latency observability and a multi-process worker
mode.  One :class:`NetServer` speaks two protocols on one port:

* **NDJSON frames** — the same newline-delimited JSON protocol as the
  stdio server (see :mod:`repro.serve.proto`), plus ``{"op": "count"}``
  for world counts and ``{"op": "stats"}`` for the live stats snapshot.
  Frames on one connection are admitted concurrently, so a burst of
  lines that queues up lands in one micro-batch and duplicate inputs are
  deduplicated — the whole point of the front-end — while a lone frame
  on an idle server is dispatched at once (see :class:`AsyncEngine`).
* **a minimal HTTP path** — ``POST /run`` and ``POST /count`` take the
  same request object as a frame (sans ``id``) as their JSON body;
  ``GET /stats`` answers the stats snapshot.  Structured error codes map
  onto status lines (429 for ``overloaded`` with a ``Retry-After``
  header, 504 for ``deadline``, 413 for ``cost``, ...).  One request per
  connection (``Connection: close``) — curl-ability, not a web server.

**Rate limits.**  With ``rate=`` set, each client (keyed by peer
address) gets a :class:`~repro.serve.metrics.TokenBucket`; a client over
its budget is shed with the same :class:`~repro.errors.Overloaded` →
``{"code": "overloaded", "retry_after": ...}`` path as engine
backpressure, *before* the request touches the admission queue.

**Worker mode.**  With ``workers=N`` the server becomes a router over
*N* worker processes, each running its own in-process ``NetServer`` (and
so its own engine, plan cache, parse memo and interner) on an ephemeral
port.  Frames are routed by :func:`repro.io.program_digest` of their
program text, so every request for one program lands on the same worker
and that worker's caches stay hot for it — cache affinity instead of
cache shredding.  ``{"op": "stats"}`` / ``GET /stats`` aggregate the
router's counters with every worker's snapshot.

Latency for every served request is recorded by the engine's metrics
layer (:mod:`repro.serve.metrics`): ``stats()["latency"]`` carries
p50/p90/p99 per phase plus windowed throughput, which the load harness
(``tools/loadgen.py``, ``benchmarks/bench_net_serve.py``) sweeps and the
REPL's ``serve`` command prints.

Use as an async context manager::

    async with NetServer() as server:
        host, port = server.address
        reader, writer = await asyncio.open_connection(host, port)
        ...

or from a shell: ``python -m repro.serve.net --port 7707``.
"""

from __future__ import annotations

import asyncio
import json
import math
import sys
import time
from collections import OrderedDict

from repro.errors import OrNRAError, Overloaded
from repro.io import program_digest
from repro.serve.metrics import TokenBucket
from repro.serve.proto import DEFAULT_MAX_LINE, HTTP_STATUS, error_frame, loads_frame
from repro.serve.server import AsyncEngine, ServerClosed

__all__ = ["NetServer", "RateLimiter", "main", "amain"]

_HTTP_METHODS = {"GET", "POST", "HEAD", "PUT", "DELETE", "OPTIONS", "PATCH"}

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class RateLimiter:
    """Per-client token buckets, LRU-bounded so clients can't leak memory.

    One bucket per client key (the network layer keys by peer address);
    buckets are created full on first sight and evicted least-recently-
    used past *max_clients* — an evicted-and-returning client starts
    with a fresh burst, which errs on the side of serving.
    """

    def __init__(
        self,
        rate: float,
        burst: "float | None" = None,
        clock=time.monotonic,
        max_clients: int = 1024,
    ) -> None:
        self.rate = float(rate)
        self.burst = float(burst) if burst is not None else max(1.0, self.rate)
        self.clock = clock
        self.max_clients = max(1, max_clients)
        self._buckets: "OrderedDict[str, TokenBucket]" = OrderedDict()

    def admit(self, key: str) -> float:
        """0.0 if *key* may proceed, else seconds until it should retry."""
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = TokenBucket(self.rate, self.burst, self.clock)
            self._buckets[key] = bucket
            while len(self._buckets) > self.max_clients:
                self._buckets.popitem(last=False)
        else:
            self._buckets.move_to_end(key)
        return bucket.admit()


class _WorkerClient:
    """The router's handle on one worker process: a multiplexed NDJSON pipe.

    Requests are tagged with router-side ids; one reader task resolves
    responses back to their waiting futures, so any number of in-flight
    requests share one connection (and arrive at the worker in one
    admission stream — the worker's micro-batcher sees them together).
    """

    def __init__(self, process, address) -> None:
        self.process = process
        self.address = address
        self.frames = 0
        self._pending: dict = {}
        self._next_id = 0
        self._write_lock: "asyncio.Lock | None" = None
        self._reader_task: "asyncio.Task | None" = None
        self._reader = None
        self._writer = None

    async def connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(*self.address)
        self._write_lock = asyncio.Lock()
        self._reader_task = asyncio.ensure_future(self._read_loop())

    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                data = json.loads(line)
                future = self._pending.pop(data.pop("id", None), None)
                if future is not None and not future.done():
                    future.set_result(data)
        except (asyncio.CancelledError, ConnectionError):
            pass
        finally:
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(ServerClosed("worker connection lost"))
            self._pending.clear()

    async def request(self, frame: dict) -> dict:
        """Send one frame to the worker and await its response payload."""
        rid = self._next_id
        self._next_id += 1
        future = asyncio.get_running_loop().create_future()
        self._pending[rid] = future
        payload = dict(frame)
        payload["id"] = rid
        blob = (json.dumps(payload, sort_keys=True) + "\n").encode()
        async with self._write_lock:
            self._writer.write(blob)
            await self._writer.drain()
        self.frames += 1
        return await future

    async def close(self) -> None:
        if self._reader_task is not None:
            self._reader_task.cancel()
        if self._writer is not None:
            self._writer.close()
        self.process.terminate()
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self.process.join, 5.0)


def _recv_address(conn, process, timeout: float = 60.0):
    """Block (on an executor thread) for a worker's reported address."""
    if conn.poll(timeout):
        return conn.recv()
    raise RuntimeError(
        f"worker pid={process.pid} did not report an address within {timeout}s"
    )


def _worker_main(conn, host: str, engine_kwargs: dict, max_line: int) -> None:
    """Entry point of one worker process (must be importable for spawn)."""
    try:
        asyncio.run(_worker_amain(conn, host, engine_kwargs, max_line))
    except KeyboardInterrupt:
        pass


async def _worker_amain(conn, host: str, engine_kwargs: dict, max_line: int) -> None:
    server = NetServer(host=host, port=0, max_line=max_line, **engine_kwargs)
    await server.start()
    conn.send(tuple(server.address))
    conn.close()
    try:
        # Serve until the router terminates us (daemon process).
        await asyncio.Event().wait()
    finally:
        await server.close()


class NetServer:
    """An asyncio TCP/HTTP server over :class:`AsyncEngine` (or a router
    over worker processes when ``workers > 0``).

    *engine* is an :class:`AsyncEngine` to serve (in-process mode only);
    omitted, one is built from ``**engine_kwargs`` (``backend``,
    ``batch_window``, ``max_pending``, ``cost_budget``, ...).  *rate* /
    *burst* arm the per-client token buckets (requests per second;
    ``None`` disables rate limiting).  *workers* > 0 switches to the
    multi-process router: ``**engine_kwargs`` then configure each
    worker's engine.  *port* 0 (the default) picks an ephemeral port —
    read :attr:`address` after :meth:`start`.
    """

    def __init__(
        self,
        engine: "AsyncEngine | None" = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        rate: "float | None" = None,
        burst: "float | None" = None,
        workers: int = 0,
        max_line: int = DEFAULT_MAX_LINE,
        mp_start: str = "spawn",
        **engine_kwargs,
    ) -> None:
        if workers and engine is not None:
            raise ValueError("worker mode builds per-worker engines; pass engine_kwargs")
        self.host = host
        self.port = port
        self.workers = max(0, workers)
        self.max_line = max_line
        self.mp_start = mp_start
        self.engine = None if self.workers else (engine or AsyncEngine(**engine_kwargs))
        self._engine_kwargs = engine_kwargs
        self._limiter = RateLimiter(rate, burst) if rate is not None else None
        self._server: "asyncio.AbstractServer | None" = None
        self._worker_clients: "list[_WorkerClient]" = []
        self._route_counts: "list[int]" = [0] * self.workers
        self.address: "tuple[str, int] | None" = None
        self._counters = {
            "connections": 0,
            "frames": 0,
            "http_requests": 0,
            "rate_limited": 0,
            "oversized": 0,
            "malformed": 0,
        }

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> "NetServer":
        if self._server is not None:
            return self
        if self.workers:
            await self._start_workers()
        else:
            await self.engine.start()
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port, limit=self.max_line
        )
        self.address = self._server.sockets[0].getsockname()[:2]
        return self

    async def _start_workers(self) -> None:
        import multiprocessing

        ctx = multiprocessing.get_context(self.mp_start)
        loop = asyncio.get_running_loop()
        spawned = []
        for _ in range(self.workers):
            parent_conn, child_conn = ctx.Pipe(duplex=False)
            process = ctx.Process(
                target=_worker_main,
                args=(child_conn, self.host, self._engine_kwargs, self.max_line),
                daemon=True,
            )
            process.start()
            child_conn.close()
            spawned.append((process, parent_conn))
        for process, conn in spawned:
            address = await loop.run_in_executor(None, _recv_address, conn, process)
            conn.close()
            client = _WorkerClient(process, address)
            await client.connect()
            self._worker_clients.append(client)

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for client in self._worker_clients:
            await client.close()
        self._worker_clients = []
        if self.engine is not None:
            await self.engine.close()

    async def __aenter__(self) -> "NetServer":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.close()

    # -- request processing ------------------------------------------------

    def _count_malformed(self, payload: dict) -> None:
        # Undecodable or too-deep frames are refused before they count
        # as frames; this is where they show up in stats.
        if payload.get("code") == "malformed":
            self._counters["malformed"] += 1

    def _admit_client(self, key: str) -> None:
        if self._limiter is None:
            return
        retry_after = self._limiter.admit(key)
        if retry_after:
            self._counters["rate_limited"] += 1
            raise Overloaded(
                f"client {key} over its rate limit", retry_after=retry_after
            )

    async def _process(self, request) -> dict:
        """One parsed request object → one response payload (sans id)."""
        if not isinstance(request, dict):
            raise OrNRAError(f"malformed request frame: {request!r}")
        op = request.get("op")
        if op == "stats":
            return {"stats": await self._stats_payload()}
        if self._worker_clients:
            return await self._route(request)
        program = request["program"]
        if op == "count":
            return {"result": await self.engine.count_json(program, request["value"])}
        if op not in (None, "run"):
            raise OrNRAError(f"unknown op {op!r}")
        if "values" in request:
            return {"results": await self.engine.run_many(program, request["values"])}
        return {"result": await self.engine.run_json(program, request["value"])}

    async def _route(self, request: dict) -> dict:
        """Worker mode: forward by program digest for cache affinity."""
        program = request["program"]
        index = int(program_digest(program), 16) % len(self._worker_clients)
        self._route_counts[index] += 1
        return await self._worker_clients[index].request(request)

    # -- stats -------------------------------------------------------------

    def stats(self) -> dict:
        """The local stats snapshot (engine counters + network counters).

        In worker mode this is the router's own view; the aggregated
        view — router plus every worker's snapshot — is what
        ``{"op": "stats"}`` frames and ``GET /stats`` answer.
        """
        snapshot = self.engine.stats() if self.engine is not None else {}
        snapshot["net"] = dict(self._counters)
        if self.workers:
            snapshot["net"]["worker_frames"] = list(self._route_counts)
        return snapshot

    async def _stats_payload(self) -> dict:
        if not self._worker_clients:
            return self.stats()
        snapshot = {"net": dict(self._counters)}
        snapshot["net"]["worker_frames"] = list(self._route_counts)
        workers = []
        for client in self._worker_clients:
            try:
                response = await client.request({"op": "stats"})
                workers.append(response.get("stats", response))
            except Exception as exc:  # noqa: BLE001 — a dead worker is a data point
                workers.append({"error": str(exc)})
        snapshot["workers"] = workers
        return snapshot

    # -- the connection loop -----------------------------------------------

    async def _on_connection(self, reader, writer) -> None:
        self._counters["connections"] += 1
        peer = writer.get_extra_info("peername")
        key = str(peer[0]) if isinstance(peer, (tuple, list)) and peer else "local"
        write_lock = asyncio.Lock()
        tasks: "set[asyncio.Task]" = set()
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # Line over the stream limit: answer a structured
                    # frame and drop the connection — there is no way to
                    # resync to the next newline we never buffered.
                    self._counters["oversized"] += 1
                    frame = {
                        "error": f"request line over {self.max_line} bytes",
                        "code": "oversized",
                    }
                    await self._write_frame(writer, write_lock, frame)
                    break
                if not line:
                    break
                text = line.decode("utf-8", "replace").strip()
                if not text:
                    continue
                if _looks_like_http(text):
                    await self._serve_http(text, reader, writer, key)
                    break  # Connection: close
                task = asyncio.ensure_future(
                    self._serve_frame(text, writer, write_lock, key)
                )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
                # Yield once so same-burst lines land in one batching window.
                await asyncio.sleep(0)
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
        finally:
            for task in tasks:
                task.cancel()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _write_frame(self, writer, write_lock, payload: dict) -> None:
        blob = (json.dumps(payload, sort_keys=True) + "\n").encode()
        async with write_lock:
            if writer.is_closing():
                return
            writer.write(blob)
            try:
                await writer.drain()
            except (ConnectionError, RuntimeError):
                pass

    async def _serve_frame(self, text: str, writer, write_lock, key: str) -> None:
        request_id = None
        try:
            request = loads_frame(text)
            if isinstance(request, dict):
                request_id = request.get("id")
            self._admit_client(key)
            self._counters["frames"] += 1
            payload = await self._process(request)
        except Exception as exc:  # noqa: BLE001 — every error goes to the client
            payload = error_frame(exc)
        self._count_malformed(payload)
        if request_id is not None:
            payload = dict(payload)
            payload["id"] = request_id
        await self._write_frame(writer, write_lock, payload)

    # -- the HTTP path -----------------------------------------------------

    async def _serve_http(self, request_line: str, reader, writer, key: str) -> None:
        parts = request_line.split()
        method = parts[0]
        path = parts[1] if len(parts) > 1 else "/"
        headers: "dict[str, str]" = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length") or 0)
        body = await reader.readexactly(length) if length > 0 else b""
        status, payload = await self._http_dispatch(method, path, body, key)
        self._count_malformed(payload)
        blob = json.dumps(payload, sort_keys=True).encode()
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(blob)}\r\n"
            "Connection: close\r\n"
        )
        if payload.get("code") == "overloaded" and "retry_after" in payload:
            head += f"Retry-After: {max(1, math.ceil(payload['retry_after']))}\r\n"
        writer.write(head.encode("latin-1") + b"\r\n" + blob)
        try:
            await writer.drain()
        except (ConnectionError, RuntimeError):
            pass

    async def _http_dispatch(self, method, path, body: bytes, key):
        try:
            if method == "GET" and path == "/stats":
                # Observability is exempt from rate limits: a shedding
                # server must still answer "how bad is it?".
                return 200, {"stats": await self._stats_payload()}
            if method == "POST" and path in ("/run", "/count"):
                request = loads_frame(body.decode("utf-8", "replace"))
                if not isinstance(request, dict):
                    raise OrNRAError(f"malformed request body: {request!r}")
                if path == "/count":
                    request = dict(request)
                    request["op"] = "count"
                self._admit_client(key)
                self._counters["http_requests"] += 1
                return 200, await self._process(request)
            return 404, {
                "error": f"no route for {method} {path}",
                "code": "malformed",
            }
        except Exception as exc:  # noqa: BLE001 — every error becomes a status
            frame = error_frame(exc)
            return HTTP_STATUS.get(frame.get("code"), 500), frame


def _looks_like_http(text: str) -> bool:
    return text.split(" ", 1)[0] in _HTTP_METHODS and " HTTP/" in text


# -- CLI ---------------------------------------------------------------------


async def amain(argv: "list[str] | None" = None, *, ready=None) -> None:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.net", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--workers", type=int, default=0)
    parser.add_argument("--backend", default="auto")
    parser.add_argument(
        "--window",
        type=float,
        default=0.002,
        help="longest batching wait under backlog, seconds (a request on "
        "an idle queue is dispatched at once)",
    )
    parser.add_argument("--max-batch", type=int, default=64)
    parser.add_argument("--timeout", type=float, default=None)
    parser.add_argument("--max-pending", type=int, default=1024)
    parser.add_argument("--cost-budget", type=int, default=None)
    parser.add_argument("--rate", type=float, default=None)
    parser.add_argument("--burst", type=float, default=None)
    parser.add_argument("--max-line", type=int, default=DEFAULT_MAX_LINE)
    args = parser.parse_args(argv)

    server = NetServer(
        host=args.host,
        port=args.port,
        rate=args.rate,
        burst=args.burst,
        workers=args.workers,
        max_line=args.max_line,
        backend=args.backend,
        batch_window=args.window,
        max_batch=args.max_batch,
        default_timeout=args.timeout,
        max_pending=args.max_pending,
        cost_budget=args.cost_budget,
    )
    async with server:
        host, port = server.address
        print(f"serving on {host}:{port} (workers={args.workers})", file=sys.stderr)
        if ready is not None:
            ready(server)
        await asyncio.Event().wait()


def main(argv: "list[str] | None" = None) -> None:
    """Synchronous entry point (``python -m repro.serve.net``)."""
    try:
        asyncio.run(amain(argv))
    except KeyboardInterrupt:
        pass


if __name__ == "__main__":
    main()
