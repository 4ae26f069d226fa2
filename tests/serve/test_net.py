"""Tests for the TCP/HTTP network front-end (:mod:`repro.serve.net`).

Each test boots a real :class:`NetServer` on an ephemeral loopback port
and talks to it over actual sockets: NDJSON frames (including ``count``
and ``stats`` ops), the minimal HTTP path, per-client rate limiting
with ``retry_after`` hints, oversized-line rejection, and the
multi-process worker mode's digest-affinity routing.
"""

from __future__ import annotations

import asyncio
import json

from repro.io import program_digest, run_json, value_to_json
from repro.serve import NetServer, RateLimiter
from repro.values.values import vorset


def orset_json(*xs):
    return value_to_json(vorset(*xs))


def nested_json(depth: int):
    """A variant injection nested *depth* levels deep."""
    value = {"atom": "int", "value": 1}
    for _ in range(depth):
        value = {"inl": value}
    return value


def nested_text(depth: int) -> str:
    """A request frame whose value nests *depth* levels, as raw text."""
    inner = '{"set": [' * depth + '{"atom": "int", "value": 1}' + "]}" * depth
    return '{"id": 1, "program": "normalize", "value": ' + inner + "}"


async def request_frames(address, frames, *, expect=None):
    """Send *frames* on one connection; responses keyed by ``id``."""
    reader, writer = await asyncio.open_connection(*address)
    for frame in frames:
        writer.write((json.dumps(frame) + "\n").encode())
    await writer.drain()
    responses = {}
    for _ in range(expect if expect is not None else len(frames)):
        line = await reader.readline()
        assert line, "server closed the connection early"
        data = json.loads(line)
        responses[data.get("id")] = data
    writer.close()
    await writer.wait_closed()
    return responses


async def http_request(address, method, path, body=None):
    """One minimal HTTP/1.1 exchange; returns (status, headers, payload)."""
    reader, writer = await asyncio.open_connection(*address)
    blob = json.dumps(body).encode() if body is not None else b""
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: test\r\nContent-Length: {len(blob)}\r\n\r\n"
    )
    writer.write(head.encode() + blob)
    await writer.drain()
    status_line = await reader.readline()
    status = int(status_line.split()[1])
    headers = {}
    while True:
        raw = await reader.readline()
        if raw in (b"\r\n", b"\n", b""):
            break
        name, _, value = raw.decode().partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", 0))
    payload = json.loads(await reader.readexactly(length)) if length else {}
    writer.close()
    await writer.wait_closed()
    return status, headers, payload


class TestFrames:
    def test_ndjson_round_trip_single_and_batch(self):
        async def main():
            async with NetServer(batch_window=0.001) as server:
                frames = [
                    {"id": 1, "program": "normalize", "value": orset_json(1, 2)},
                    {
                        "id": 2,
                        "program": "normalize",
                        "values": [orset_json(3), orset_json(4, 4)],
                    },
                ]
                return await request_frames(server.address, frames)

        responses = asyncio.run(main())
        assert responses[1]["result"] == run_json("normalize", orset_json(1, 2))
        assert responses[2]["results"] == [
            run_json("normalize", orset_json(3)),
            run_json("normalize", orset_json(4, 4)),
        ]

    def test_count_and_stats_ops(self):
        async def main():
            async with NetServer(batch_window=0.001) as server:
                return await request_frames(
                    server.address,
                    [
                        {
                            "id": 1,
                            "op": "count",
                            "program": "normalize",
                            "value": orset_json(1, 2, 3),
                        },
                        {"id": 2, "op": "stats"},
                    ],
                )

        responses = asyncio.run(main())
        assert responses[1]["result"]["count"] >= 1
        stats = responses[2]["stats"]
        assert stats["net"]["connections"] == 1
        assert "latency" in stats  # engine metrics surface through the wire

    def test_malformed_and_unknown_op_answer_structured_errors(self):
        async def main():
            async with NetServer(batch_window=0.001) as server:
                responses = await request_frames(
                    server.address,
                    [
                        {"id": 1, "value": orset_json(1)},  # no program
                        {"id": 2, "op": "mystery", "program": "normalize"},
                    ],
                )
                raw = await request_frames(
                    server.address, ["not json at all"], expect=1
                )
                return responses, raw

        responses, raw = asyncio.run(main())
        assert responses[1]["code"] == "malformed"
        assert responses[2]["code"] == "malformed"
        assert raw[None]["code"] == "malformed"

    def test_deeply_nested_value_is_malformed(self):
        async def main():
            async with NetServer(batch_window=0.001) as server:
                responses = await request_frames(
                    server.address,
                    [
                        {"id": 1, "program": "normalize", "value": nested_json(600)},
                        {"id": 2, "program": "normalize", "value": orset_json(1)},
                    ],
                )
                # Past what the JSON decoder itself will parse.
                reader, writer = await asyncio.open_connection(*server.address)
                writer.write(nested_text(5000).encode() + b"\n")
                await writer.drain()
                raw = json.loads(await reader.readline())
                writer.close()
                await writer.wait_closed()
                return responses, raw

        responses, raw = asyncio.run(main())
        assert responses[1]["code"] == "malformed"
        assert "deeper than" in responses[1]["error"]
        assert responses[2]["result"] == run_json("normalize", orset_json(1))
        assert raw["code"] == "malformed"

    def test_frames_refused_at_decode_are_counted_malformed(self):
        async def main():
            async with NetServer(batch_window=0.001) as server:
                reader, writer = await asyncio.open_connection(*server.address)
                for text in ("not json at all", nested_text(5000)):
                    writer.write(text.encode() + b"\n")
                    await writer.drain()
                    refused = json.loads(await reader.readline())
                    assert refused["code"] == "malformed"
                writer.close()
                await writer.wait_closed()
                stats = await request_frames(
                    server.address,
                    [
                        {"id": 1, "program": "normalize", "value": orset_json(1)},
                        {"id": 2, "op": "stats"},
                    ],
                )
                return stats[2]["stats"]["net"]

        net = asyncio.run(main())
        assert net["malformed"] == 2
        assert net["frames"] == 2  # the good frame and the stats frame

    def test_oversized_line_is_rejected_and_connection_dropped(self):
        async def main():
            async with NetServer(batch_window=0.001, max_line=256) as server:
                reader, writer = await asyncio.open_connection(*server.address)
                writer.write(b"x" * 1024 + b"\n")
                await writer.drain()
                frame = json.loads(await reader.readline())
                eof = await reader.readline()
                writer.close()
                await writer.wait_closed()
                return frame, eof, server.stats()

        frame, eof, stats = asyncio.run(main())
        assert frame["code"] == "oversized"
        assert eof == b""  # no resync possible mid-line: server hangs up
        assert stats["net"]["oversized"] == 1


class TestRateLimiting:
    def test_over_budget_clients_are_shed_with_retry_after(self):
        async def main():
            async with NetServer(
                batch_window=0.001, rate=0.001, burst=2.0
            ) as server:
                frames = [
                    {"id": i, "program": "normalize", "value": orset_json(i)}
                    for i in range(4)
                ]
                responses = await request_frames(server.address, frames)
                return responses, server.stats()

        responses, stats = asyncio.run(main())
        outcomes = [("result" in responses[i]) for i in range(4)]
        assert outcomes == [True, True, False, False]
        for i in (2, 3):
            assert responses[i]["code"] == "overloaded"
            assert responses[i]["retry_after"] > 0
        assert stats["net"]["rate_limited"] == 2
        assert stats["net"]["frames"] == 2  # shed frames never count as served

    def test_limiter_is_per_key_and_lru_bounded(self):
        clock = [0.0]
        limiter = RateLimiter(1.0, burst=1.0, clock=lambda: clock[0], max_clients=2)
        assert limiter.admit("a") == 0.0
        assert limiter.admit("b") == 0.0
        assert limiter.admit("a") > 0.0  # a's bucket is empty
        # c evicts the least-recently-used bucket (b); b returns fresh
        # with a full burst — eviction errs on the side of serving.
        assert limiter.admit("c") == 0.0
        assert limiter.admit("b") == 0.0
        assert len(limiter._buckets) == 2


class TestHttp:
    def test_post_run_and_get_stats(self):
        async def main():
            async with NetServer(batch_window=0.001) as server:
                status, _, payload = await http_request(
                    server.address,
                    "POST",
                    "/run",
                    {"program": "normalize", "value": orset_json(1, 2)},
                )
                cstatus, _, cpayload = await http_request(
                    server.address,
                    "POST",
                    "/count",
                    {"program": "normalize", "value": orset_json(1, 2)},
                )
                sstatus, _, spayload = await http_request(
                    server.address, "GET", "/stats"
                )
                return (status, payload), (cstatus, cpayload), (sstatus, spayload)

        (status, payload), (cstatus, cpayload), (sstatus, spayload) = asyncio.run(
            main()
        )
        assert status == 200
        assert payload["result"] == run_json("normalize", orset_json(1, 2))
        assert cstatus == 200
        assert cpayload["result"]["count"] >= 1
        assert sstatus == 200
        assert spayload["stats"]["net"]["http_requests"] == 2
        assert "latency" in spayload["stats"]

    def test_error_codes_map_onto_status_lines(self):
        async def main():
            async with NetServer(
                batch_window=0.001, rate=0.001, burst=2.0
            ) as server:
                first = await http_request(
                    server.address,
                    "POST",
                    "/run",
                    {"program": "normalize", "value": orset_json(1)},
                )
                # Admission precedes validation, so this burns a token too.
                bad = await http_request(
                    server.address, "POST", "/run", {"value": orset_json(1)}
                )
                shed = await http_request(
                    server.address,
                    "POST",
                    "/run",
                    {"program": "normalize", "value": orset_json(2)},
                )
                missing = await http_request(server.address, "GET", "/nope")
                # Observability is exempt from the rate limit.
                stats = await http_request(server.address, "GET", "/stats")
                return first, shed, missing, bad, stats

        first, shed, missing, bad, stats = asyncio.run(main())
        assert first[0] == 200
        assert shed[0] == 429
        assert shed[2]["code"] == "overloaded"
        assert int(shed[1]["retry-after"]) >= 1
        assert missing[0] == 404
        assert bad[0] == 400 and bad[2]["code"] == "malformed"
        assert stats[0] == 200

    def test_deeply_nested_body_is_a_400(self):
        async def main():
            async with NetServer(batch_window=0.001) as server:
                return await http_request(
                    server.address,
                    "POST",
                    "/run",
                    {"program": "normalize", "value": nested_json(600)},
                )

        status, _headers, payload = asyncio.run(main())
        assert status == 400
        assert payload["code"] == "malformed"


    def test_undecodable_bodies_are_counted_malformed(self):
        async def main():
            async with NetServer(batch_window=0.001) as server:
                statuses = []
                for body in (b"not json at all", nested_text(5000).encode()):
                    reader, writer = await asyncio.open_connection(*server.address)
                    head = (
                        "POST /run HTTP/1.1\r\n"
                        f"Host: test\r\nContent-Length: {len(body)}\r\n\r\n"
                    )
                    writer.write(head.encode() + body)
                    await writer.drain()
                    statuses.append(int((await reader.readline()).split()[1]))
                    writer.close()
                    await writer.wait_closed()
                stats = await http_request(server.address, "GET", "/stats")
                return statuses, stats[2]["stats"]["net"]

        statuses, net = asyncio.run(main())
        assert statuses == [400, 400]
        assert net["malformed"] == 2
        assert net["http_requests"] == 0


class TestWorkerMode:
    def test_digest_affinity_routes_one_program_to_one_worker(self):
        async def main():
            async with NetServer(workers=2, batch_window=0.001) as server:
                frames = [
                    {"id": i, "program": "normalize", "value": orset_json(i)}
                    for i in range(6)
                ]
                responses = await request_frames(server.address, frames)
                stats = await request_frames(
                    server.address, [{"id": 99, "op": "stats"}]
                )
                return responses, stats[99]["stats"]

        responses, stats = asyncio.run(main())
        for i in range(6):
            assert responses[i]["result"] == run_json("normalize", orset_json(i))
        # One program digest → one worker; the other stayed cold.
        assert sorted(stats["net"]["worker_frames"]) == [0, 6]
        assert len(stats["workers"]) == 2
        served = [w.get("requests", 0) for w in stats["workers"]]
        assert sorted(served) == [0, 6]

    def test_program_digest_is_stable_and_text_keyed(self):
        assert program_digest("normalize") == program_digest("normalize")
        assert program_digest("normalize") != program_digest("flatten")
        assert len(program_digest("normalize")) == 40
