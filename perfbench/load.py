"""Open-loop load generation against `repro serve`, from outside it.

One process, one asyncio loop, at most ``CONNECTIONS`` keep-alive
connections.  Request ``i`` of a phase is *due* at ``start + i / rate``
whatever happened before it (an open loop: independent users), and is
assigned round-robin to a connection; a connection still busy with an
earlier request sends it late.  Latency is timed from the due time, so
a stall is charged to every request queued behind it, and how late the
generator itself sent each request is reported beside it.
"""

from __future__ import annotations

import asyncio
import json
import os
import socket
import subprocess
import time
from dataclasses import dataclass, field

from procs import pin_to

CONNECTIONS = min(2, os.cpu_count() or 1)
READY_TIMEOUT_S = 60.0


@dataclass
class PhaseStats:
    """What one load phase observed, request by request."""

    rate: float
    attempted: int = 0
    latencies_ms: list = field(default_factory=list)   # from due time
    service_ms: list = field(default_factory=list)     # from send time
    late_ms: list = field(default_factory=list)        # send time - due time
    non_200: int = 0
    wrong: int = 0
    statuses: dict = field(default_factory=dict)
    wall_s: float = 0.0

    @property
    def failed(self) -> int:
        return self.non_200 + self.wrong


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def encode_requests(requests: list[dict]) -> list[bytes]:
    """``POST /classify`` wire bytes for each request body."""
    wire = []
    for request in requests:
        body = json.dumps(request["body"]).encode()
        head = (f"POST /classify HTTP/1.1\r\nHost: bench\r\n"
                f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n")
        wire.append(head.encode() + body)
    return wire


def decision_matches(response: dict, expect: dict) -> bool:
    """Does one /classify ``result`` carry the oracle's decision?"""
    return all(response.get(key) == value for key, value in expect.items())


async def _read_response(reader: asyncio.StreamReader) -> tuple[int, bytes]:
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.split(b"\r\n")
    status = int(lines[0].split(b" ", 2)[1])
    length = 0
    for line in lines[1:]:
        if line[:15].lower() == b"content-length:":
            length = int(line[15:])
    body = await reader.readexactly(length) if length else b""
    return status, body


async def _connection(port: int, jobs: list, wire: list[bytes], expects: list[dict],
                      stats: PhaseStats) -> None:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    loop = asyncio.get_running_loop()
    try:
        for due, index in jobs:
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            sent = loop.time()
            writer.write(wire[index])
            status, body = await _read_response(reader)
            done = loop.time()
            stats.latencies_ms.append((done - due) * 1e3)
            stats.service_ms.append((done - sent) * 1e3)
            stats.late_ms.append(max(0.0, sent - due) * 1e3)
            stats.statuses[status] = stats.statuses.get(status, 0) + 1
            if status != 200:
                stats.non_200 += 1
            elif not decision_matches(json.loads(body)["result"], expects[index]):
                stats.wrong += 1
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def _phase(port: int, wire: list[bytes], expects: list[dict], rate: float | None,
                 count: int, offset: int) -> PhaseStats:
    """Send ``count`` requests; ``rate=None`` sends them back to back (closed loop)."""
    loop = asyncio.get_running_loop()
    stats = PhaseStats(rate=rate or 0.0, attempted=count)
    start = loop.time() + 0.005
    jobs: list[list] = [[] for _ in range(CONNECTIONS)]
    for i in range(count):
        due = start + i / rate if rate else start
        jobs[i % CONNECTIONS].append((due, (offset + i) % len(wire)))
    began = time.perf_counter()
    await asyncio.gather(*(_connection(port, job, wire, expects, stats) for job in jobs))
    stats.wall_s = time.perf_counter() - began
    return stats


def run_phase(port: int, wire: list[bytes], expects: list[dict], *, rate: float | None,
              count: int, offset: int = 0) -> PhaseStats:
    return asyncio.run(_phase(port, wire, expects, rate, count, offset))


def http_get(port: int, path: str, timeout: float = 2.0) -> tuple[int, bytes]:
    """One blocking GET on a fresh connection (health and metrics)."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(f"GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n".encode())
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    data = b"".join(chunks)
    head, _, body = data.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), body


def metrics(port: int) -> dict:
    status, body = http_get(port, "/metrics")
    if status != 200:
        raise ServeError(f"/metrics answered {status}")
    return json.loads(body)


class ServeError(Exception):
    """The daemon did not come up."""


class Server:
    """`repro serve --port 0` in its own process, timed to readiness."""

    def __init__(self, argv: list[str], env: dict, log_path: str, cpu: int | None = None):
        self.log_path = log_path
        self._log = open(log_path, "wb")
        started = time.perf_counter()
        self.proc = subprocess.Popen(argv, env=env, stdout=self._log, stderr=subprocess.STDOUT,
                                     preexec_fn=pin_to(cpu))
        try:
            self.port = self._wait_port()
            self._wait_ready()
        except BaseException:
            self.stop()
            raise
        self.ready_s = time.perf_counter() - started

    def _wait_port(self) -> int:
        deadline = time.monotonic() + READY_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise ServeError(f"serve exited {self.proc.returncode} before listening")
            with open(self.log_path, "rb") as stream:
                for line in stream:
                    if line.startswith(b"serving on http://"):
                        return int(line.split(b":")[2].split()[0])
            time.sleep(0.002)
        raise ServeError("serve did not start listening in time")

    def _wait_ready(self) -> None:
        deadline = time.monotonic() + READY_TIMEOUT_S
        while time.monotonic() < deadline:
            try:
                if http_get(self.port, "/readyz")[0] == 200:
                    return
            except OSError:
                pass
            time.sleep(0.002)
        raise ServeError("serve did not become ready in time")

    def cpu_s(self) -> float:
        """CPU seconds of the server's threads so far.

        ``se.sum_exec_runtime`` in ``/proc/PID/task/TID/sched`` has
        microsecond resolution; ``utime + stime`` in ``/proc/PID/stat``
        (clock ticks) is the fallback.
        """
        total_ms = 0.0
        try:
            for tid in os.listdir(f"/proc/{self.proc.pid}/task"):
                with open(f"/proc/{self.proc.pid}/task/{tid}/sched") as stream:
                    for line in stream:
                        if line.startswith("se.sum_exec_runtime"):
                            total_ms += float(line.split(":")[1])
            return total_ms / 1e3
        except (OSError, ValueError):
            pass
        with open(f"/proc/{self.proc.pid}/stat") as stream:
            fields = stream.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as stream:
            for line in stream:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise ServeError("no VmHWM for the server process")

    def stop(self) -> int:
        """SIGTERM (graceful drain), then SIGKILL if it hangs; reap it."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()
        return self.proc.returncode
