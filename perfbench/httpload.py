"""The benchmark's own open-loop HTTP client.

One asyncio loop in one process drives a gateway over at most
``connections`` keep-alive sockets.  A generator coroutine releases
each request at its *due* time (the arrival stamp of a
:func:`repro.loadgen.trace.build_trace` trace, read as wall-clock
offsets) into one FIFO queue; one worker per connection takes the
oldest request, sends it and reads the reply.

* Latency is timed from the due time, so a request that waits for a
  busy connection is charged for the wait.
* The generator's own lateness (release time minus due time) is kept
  apart: it says whether the client, not the server, fell behind.
* A transport error, a timeout or a non-2xx status counts as failed
  and as missing any latency limit (its latency is recorded as
  infinite).  A broken connection is reopened before the worker goes on.
"""

from __future__ import annotations

import asyncio
import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple
from urllib.parse import quote


@dataclass
class LoadResult:
    """Host-time accounting of one open-loop phase."""

    attempted: int
    ok: int
    failed: int
    duration_s: float
    #: Latency of every request from its due time, in ms; ``inf`` for a
    #: failed request so it misses every limit.
    latency_ms: List[float] = field(default_factory=list)
    #: How late the generator released each request, in ms.
    late_ms: List[float] = field(default_factory=list)
    statuses: Dict[int, int] = field(default_factory=dict)
    transport_errors: int = 0
    connections: int = 0
    reconnects: int = 0
    #: Attempts each committed transaction took.
    txn_attempts: List[int] = field(default_factory=list)

    @property
    def achieved_qps(self) -> float:
        return self.ok / self.duration_s if self.duration_s > 0 else 0.0


def render_request(op) -> bytes:
    """One keep-alive HTTP/1.1 request for a :class:`TimedOp`."""
    if op.kind == "txn":
        body = json.dumps(
            {"read_keys": list(op.read_keys), "write_keys": list(op.write_keys)}
        ).encode("utf-8")
        head = (
            "POST /v1/txn HTTP/1.1\r\nHost: bench\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        )
        return head.encode("latin-1") + body
    method = "GET" if op.kind == "get" else "PUT"
    head = (
        f"{method} /v1/obj/{quote(op.key)} HTTP/1.1\r\nHost: bench\r\n"
        "Content-Length: 0\r\n\r\n"
    )
    return head.encode("latin-1")


async def read_response(reader: asyncio.StreamReader) -> Tuple[int, bytes]:
    """Read one response; returns ``(status, body)``."""
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ", 2)[1])
    length = 0
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    body = await reader.readexactly(length) if length else b""
    return status, body


async def http_get(host: str, port: int, path: str, timeout_s: float = 5.0) -> Tuple[int, bytes]:
    """One request on a fresh connection (probes and scrapes)."""
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(host, port), timeout_s
    )
    try:
        writer.write(
            f"GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n"
            "Content-Length: 0\r\n\r\n".encode("latin-1")
        )
        await writer.drain()
        return await asyncio.wait_for(read_response(reader), timeout_s)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def run_open_loop(
    host: str,
    port: int,
    ops: Sequence,
    connections: int,
    timeout_s: float = 10.0,
) -> LoadResult:
    """Send ``ops`` at their due times over ``connections`` sockets."""
    if connections < 1:
        raise ValueError("need at least one connection")
    loop = asyncio.get_running_loop()
    queue: asyncio.Queue = asyncio.Queue()
    result = LoadResult(
        attempted=len(ops),
        ok=0,
        failed=0,
        duration_s=0.0,
        connections=connections,
    )

    async def connect():
        return await asyncio.wait_for(asyncio.open_connection(host, port), timeout_s)

    def record_failure() -> None:
        result.failed += 1
        result.latency_ms.append(math.inf)

    async def worker(conn) -> None:
        reader, writer = conn
        try:
            while True:
                item = await queue.get()
                if item is None:
                    return
                op, due = item
                try:
                    if writer is None:
                        reader, writer = await connect()
                        result.reconnects += 1
                    writer.write(render_request(op))
                    await writer.drain()
                    status, body = await asyncio.wait_for(
                        read_response(reader), timeout_s
                    )
                except (
                    ConnectionError,
                    OSError,
                    asyncio.TimeoutError,
                    asyncio.IncompleteReadError,
                    asyncio.LimitOverrunError,
                    ValueError,
                    IndexError,
                ):
                    result.transport_errors += 1
                    record_failure()
                    if writer is not None:
                        writer.close()
                    reader = writer = None
                    continue
                done = loop.time()
                result.statuses[status] = result.statuses.get(status, 0) + 1
                if not 200 <= status < 300:
                    record_failure()
                    continue
                try:
                    reply = json.loads(body)
                    attempts = int(reply["attempts"]) if op.kind == "txn" else 0
                except (ValueError, KeyError, TypeError):
                    record_failure()  # a 2xx without a well-formed body
                    continue
                result.ok += 1
                result.latency_ms.append((done - due) * 1e3)
                if op.kind == "txn":
                    result.txn_attempts.append(attempts)
        finally:
            if writer is not None:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass

    conns = [await connect() for _ in range(connections)]
    workers = [asyncio.ensure_future(worker(c)) for c in conns]
    start = loop.time()
    try:
        for op in ops:
            due = start + op.at_ns / 1e9
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            result.late_ms.append(max(loop.time() - due, 0.0) * 1e3)
            queue.put_nowait((op, due))
        for _ in workers:
            queue.put_nowait(None)
        await asyncio.wait_for(asyncio.gather(*workers), timeout_s + 5.0)
    finally:
        for task in workers:
            if not task.done():
                task.cancel()
        await asyncio.gather(*workers, return_exceptions=True)
    result.duration_s = loop.time() - start
    # Requests never answered (workers cancelled on the deadline).
    answered = result.ok + result.failed
    for _ in range(result.attempted - answered):
        record_failure()
    return result


def quantile(values: List[float], q: float) -> float:
    """Linear-interpolated quantile; ``inf`` (a failed request) sorts
    last and wins any interpolation it takes part in."""
    ordered = sorted(values)
    rank = q * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    if frac == 0.0 or ordered[lo] == ordered[hi]:
        return ordered[lo]
    return ordered[lo] + (ordered[hi] - ordered[lo]) * frac
