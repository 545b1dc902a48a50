"""The classification daemon: backpressure, drain, reload, chaos.

Everything here drives a real :class:`ServeApp` over real sockets (the
stdlib transport in ``repro.serve.http11``) inside ``asyncio.run`` —
no mocked HTTP.  The acceptance properties:

* exact accounting under chaos load — every request is exactly one of
  served / shed / timed out, and the counters sum to the request total;
* a reload mid-load serves classifications byte-identical to a fresh
  engine built from the new list;
* graceful drain answers every accepted request.
"""

from __future__ import annotations

import asyncio
import json
import socket

import pytest

from repro.filterlist.engine import FilterEngine, RequestContext
from repro.filterlist.lists import FilterList
from repro.filterlist.options import ContentType
from repro.serve import (
    AdmissionQueue,
    DeadlineExceeded,
    EngineHolder,
    EngineSource,
    ServeApp,
    ServeConfig,
    ServeMetrics,
)
from repro.serve.http11 import HttpServer, Request, Response

LIST_V1 = """! serve test list v1
||ads.example.com^
/banner/*
@@||good.example.com^
"""

LIST_V2 = LIST_V1 + "||tracker.example.net^\n"

URLS = [
    "http://ads.example.com/spot.gif",
    "http://tracker.example.net/pixel.js",
    "http://good.example.com/banner/ad.png",
    "http://plain.example.org/article.html",
    "http://cdn.example.org/banner/wide.jpg",
]


# ---------------------------------------------------------------------------
# A tiny dependency-free async HTTP client


async def http(
    port: int, method: str, path: str, body: bytes | None = None
) -> tuple[int, dict[str, str], bytes]:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        payload = body or b""
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
            f"Content-Length: {len(payload)}\r\nConnection: close\r\n\r\n"
        )
        writer.write(head.encode() + payload)
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    head_block, _, body_bytes = raw.partition(b"\r\n\r\n")
    lines = head_block.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, body_bytes


async def classify(port: int, record: dict) -> tuple[int, dict]:
    status, _, body = await http(port, "POST", "/classify", json.dumps(record).encode())
    return status, json.loads(body)


def raw_socket_exchange(payload: bytes):
    """Send raw bytes, return (status, body) of whatever comes back."""

    async def _once(port: int) -> tuple[int, bytes]:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(payload)
        await writer.drain()
        raw = await reader.read()
        writer.close()
        await writer.wait_closed()
        head, _, body = raw.partition(b"\r\n\r\n")
        return int(head.split()[1]), body

    return _once


# ---------------------------------------------------------------------------
# App harness


def write_list(tmp_path, text: str) -> str:
    path = tmp_path / "serve-list.txt"
    path.write_text(text)
    return str(path)


def make_app(tmp_path, *, text: str = LIST_V1, **config_kwargs) -> ServeApp:
    source = EngineSource(list_paths=[write_list(tmp_path, text)])
    holder = EngineHolder(source.build(), cache_size=4096)
    config = ServeConfig(port=0, **config_kwargs)
    return ServeApp(holder, source, config)


async def start(app: ServeApp) -> int:
    return await app.start()


async def stop(app: ServeApp) -> None:
    app.begin_shutdown(0)
    await app.drain()


def check_accounting(app: ServeApp) -> None:
    """The exact-accounting invariant, at quiescence."""
    metrics = app.metrics
    assert metrics.in_flight == 0
    assert metrics.requests == metrics.accepted + metrics.shed
    assert (
        metrics.accepted
        == metrics.served + metrics.internal_errors + metrics.timed_out
    )
    assert metrics.client_errors <= metrics.served


def expected_result(text: str, url: str) -> dict:
    """What a fresh engine built from ``text`` says about ``url``."""
    engine = FilterEngine()
    lst = FilterList.from_text(text, name="serve-list", lint="refuse")
    engine.add_filters(lst.filters, list_name="serve-list")
    from repro.core.content_type import infer_content_type

    content_type = infer_content_type(url, None)
    c = engine.classify(url, RequestContext(content_type=content_type, page_url=""))
    return {
        "url": url,
        "content_type": content_type.name.lower(),
        "is_ad": c.is_ad,
        "is_blacklisted": c.is_blacklisted,
        "is_whitelisted": c.is_whitelisted,
        "would_block": c.would_block,
        "blacklist": c.blacklist_name,
        "whitelist": c.whitelist_name,
        "blacklist_lists": list(c.blacklist_lists),
    }


# ---------------------------------------------------------------------------


class TestClassifyEndpoint:
    def test_single_and_batch_roundtrip(self, tmp_path):
        async def scenario():
            app = make_app(tmp_path)
            port = await start(app)
            status, doc = await classify(
                port, {"url": "http://ads.example.com/spot.gif"}
            )
            assert status == 200
            assert doc["result"] == expected_result(
                LIST_V1, "http://ads.example.com/spot.gif"
            )
            status, doc = await classify(port, {"records": [{"url": u} for u in URLS]})
            assert status == 200
            assert doc["results"] == [expected_result(LIST_V1, u) for u in URLS]
            await stop(app)
            assert app.metrics.served == 2
            check_accounting(app)

        asyncio.run(scenario())

    def test_explicit_content_type_and_page_url(self, tmp_path):
        async def scenario():
            app = make_app(tmp_path)
            port = await start(app)
            # ABP type name and MIME string are both accepted.
            for spelling in ("script", "application/javascript"):
                status, doc = await classify(
                    port,
                    {
                        "url": "http://ads.example.com/t",
                        "content_type": spelling,
                        "page_url": "http://pub.example.org/",
                    },
                )
                assert status == 200
                assert doc["result"]["content_type"] == "script"
                assert doc["result"]["is_blacklisted"]
            await stop(app)

        asyncio.run(scenario())

    def test_client_errors_are_400_and_counted(self, tmp_path):
        async def scenario():
            app = make_app(tmp_path)
            port = await start(app)
            bad_bodies = [
                b"not json at all",
                b"[1,2,3]",
                json.dumps({"no_url": True}).encode(),
                json.dumps({"url": ""}).encode(),
                json.dumps({"records": {"url": "x"}}).encode(),
                json.dumps({"url": "http://x/", "content_type": "no-such-type"}).encode(),
            ]
            for body in bad_bodies:
                status, _, _ = await http(port, "POST", "/classify", body)
                assert status == 400
            await stop(app)
            assert app.metrics.client_errors == len(bad_bodies)
            # Client errors were *answered*: they count as served.
            assert app.metrics.served == len(bad_bodies)
            assert app.metrics.health.records_dropped == len(bad_bodies)
            check_accounting(app)

        asyncio.run(scenario())

    def test_routing_404_and_405(self, tmp_path):
        async def scenario():
            app = make_app(tmp_path)
            port = await start(app)
            status, _, _ = await http(port, "GET", "/nope")
            assert status == 404
            status, _, _ = await http(port, "GET", "/classify")
            assert status == 405
            status, _, _ = await http(port, "POST", "/healthz")
            assert status == 405
            await stop(app)

        asyncio.run(scenario())


class TestTransportRobustness:
    def test_malformed_request_line_is_400(self, tmp_path):
        async def scenario():
            app = make_app(tmp_path)
            port = await start(app)
            status, _ = await raw_socket_exchange(b"GARBAGE\r\n\r\n")(port)
            assert status == 400
            await stop(app)

        asyncio.run(scenario())

    def test_oversized_header_is_431(self, tmp_path):
        async def scenario():
            app = make_app(tmp_path)
            port = await start(app)
            huge = b"GET / HTTP/1.1\r\nX-Big: " + b"a" * 9000 + b"\r\n\r\n"
            status, _ = await raw_socket_exchange(huge)(port)
            assert status == 431
            await stop(app)

        asyncio.run(scenario())

    def test_oversized_body_is_413(self, tmp_path):
        async def scenario():
            app = make_app(tmp_path)
            port = await start(app)
            head = b"POST /classify HTTP/1.1\r\nContent-Length: 9999999\r\n\r\n"
            status, _ = await raw_socket_exchange(head)(port)
            assert status == 413
            await stop(app)

        asyncio.run(scenario())


class TestBackpressure:
    def test_queue_full_sheds_429_with_retry_after(self, tmp_path):
        async def scenario():
            app = make_app(
                tmp_path,
                queue_depth=1,
                concurrency=1,
                timeout_s=5.0,
                chaos="slow-handler:delay=0.15:for=1000000",
            )
            port = await start(app)
            results = await asyncio.gather(
                *(classify(port, {"url": u}) for u in URLS + URLS)
            )
            statuses = sorted(status for status, _ in results)
            assert 429 in statuses, statuses
            assert all(status in (200, 429) for status in statuses)
            await stop(app)
            assert app.metrics.shed_queue_full >= 1
            check_accounting(app)

        asyncio.run(scenario())

    def test_retry_after_header_present_on_shed(self, tmp_path):
        async def scenario():
            app = make_app(
                tmp_path,
                queue_depth=1,
                concurrency=1,
                chaos="slow-handler:delay=0.3:for=1000000",
            )
            port = await start(app)

            async def one(url):
                return await http(
                    port, "POST", "/classify", json.dumps({"url": url}).encode()
                )

            results = await asyncio.gather(*(one(u) for u in URLS * 3))
            shed = [r for r in results if r[0] == 429]
            assert shed, [r[0] for r in results]
            for _, headers, body in shed:
                assert float(headers["retry-after"]) > 0
                assert json.loads(body)["error"] == "queue full"
            await stop(app)
            check_accounting(app)

        asyncio.run(scenario())

    def test_deadline_times_out_with_503(self, tmp_path):
        async def scenario():
            app = make_app(
                tmp_path,
                queue_depth=8,
                concurrency=1,
                timeout_s=0.1,
                chaos="slow-handler:delay=0.5:for=1000000",
            )
            port = await start(app)
            status, doc = await classify(port, {"url": URLS[0]})
            assert status == 503
            assert doc["error"] == "deadline exceeded"
            # Let the worker finish its sleep so we reach quiescence.
            await asyncio.sleep(0.6)
            await stop(app)
            assert app.metrics.timed_out == 1
            check_accounting(app)

        asyncio.run(scenario())


class TestHealthEndpoints:
    def test_healthz_readyz_metrics(self, tmp_path):
        async def scenario():
            app = make_app(tmp_path)
            port = await start(app)
            status, _, _ = await http(port, "GET", "/healthz")
            assert status == 200
            status, _, body = await http(port, "GET", "/readyz")
            assert status == 200 and json.loads(body) == {"ready": True}
            await classify(port, {"url": URLS[0]})
            status, _, body = await http(port, "GET", "/metrics")
            assert status == 200
            doc = json.loads(body)
            assert doc["serve"]["served"] == 1
            assert doc["engine"]["generation"] == 1
            assert doc["cache"]["lookups"] == 1
            assert doc["health"]["records_ok"] == 1
            # /metrics reuses the same document the CLI emits with
            # --health-format=json (satellite: one health substrate).
            assert set(doc["health"]) <= set(
                app.metrics.health.summary_dict(transient=True)
            )
            await stop(app)

        asyncio.run(scenario())

    def test_readyz_not_ready_while_draining(self, tmp_path):
        async def scenario():
            app = make_app(tmp_path)
            port = await start(app)
            app.draining = True
            app.admission.draining = True
            status, _, body = await http(port, "GET", "/readyz")
            assert status == 503
            assert "draining" in json.loads(body)["reasons"]
            # Classifies are shed with 503 while draining.
            status, headers, _ = await http(
                port, "POST", "/classify", json.dumps({"url": URLS[0]}).encode()
            )
            assert status == 503
            assert "retry-after" in headers
            assert app.metrics.shed_draining == 1
            app.draining = False
            app.admission.draining = False
            await stop(app)
            check_accounting(app)

        asyncio.run(scenario())

    def test_readyz_not_ready_above_high_water(self, tmp_path):
        async def scenario():
            app = make_app(tmp_path, queue_depth=10, ready_high_water=0.0)
            port = await start(app)
            status, _, body = await http(port, "GET", "/readyz")
            # high_water_mark floors at 1, queue is empty: still ready.
            assert status == 200
            app.config.queue_depth = 10
            await stop(app)

        asyncio.run(scenario())


class TestGracefulDrain:
    def test_drain_answers_every_accepted_request(self, tmp_path):
        async def scenario():
            app = make_app(
                tmp_path,
                queue_depth=64,
                concurrency=2,
                timeout_s=10.0,
                drain_timeout_s=10.0,
                chaos="slow-handler:delay=0.05:for=1000000",
            )
            port = await start(app)
            tasks = [
                asyncio.ensure_future(classify(port, {"url": URLS[i % len(URLS)]}))
                for i in range(10)
            ]
            while app.metrics.requests < 10:
                await asyncio.sleep(0.01)
            app.begin_shutdown(0)
            await app.drain()
            results = await asyncio.gather(*tasks)
            assert [status for status, _ in results] == [200] * 10
            assert app.metrics.served == 10
            assert app.metrics.timed_out == 0
            check_accounting(app)
            # The listener is gone: new connections are refused.
            with pytest.raises(OSError):
                await http(port, "GET", "/healthz")

        asyncio.run(scenario())

    def test_drain_deadline_resolves_stragglers_as_timeouts(self, tmp_path):
        async def scenario():
            app = make_app(
                tmp_path,
                queue_depth=64,
                concurrency=1,
                timeout_s=30.0,
                drain_timeout_s=0.05,
                chaos="slow-handler:delay=0.4:for=1000000",
            )
            port = await start(app)
            tasks = [
                asyncio.ensure_future(classify(port, {"url": URLS[i % len(URLS)]}))
                for i in range(4)
            ]
            while app.metrics.requests < 4:
                await asyncio.sleep(0.01)
            app.begin_shutdown(0)
            await app.drain()
            results = await asyncio.gather(*tasks)
            statuses = sorted(status for status, _ in results)
            # Every accepted request was *answered* — some 200 (already in
            # service), the queued rest 503 — none dropped on the floor.
            assert all(status in (200, 503) for status in statuses), statuses
            assert 503 in statuses
            check_accounting(app)
            assert app.metrics.served + app.metrics.timed_out == 4

        asyncio.run(scenario())

    def test_shutdown_exit_codes(self, tmp_path):
        async def scenario():
            app = make_app(tmp_path)
            await start(app)
            app.begin_shutdown(130)
            app.begin_shutdown(0)  # second signal does not override
            await app.drain()
            return app._exit_code

        assert asyncio.run(scenario()) == 130


class TestHotReload:
    def test_reload_swaps_on_changed_list(self, tmp_path):
        async def scenario():
            app = make_app(tmp_path)
            port = await start(app)
            url = "http://tracker.example.net/pixel.js"
            status, before = await classify(port, {"url": url})
            assert not before["result"]["is_ad"]
            (tmp_path / "serve-list.txt").write_text(LIST_V2)
            status, _, body = await http(port, "POST", "/-/reload")
            outcome = json.loads(body)
            assert outcome["status"] in ("swapped", "noop")
            status, after = await classify(port, {"url": url})
            assert after["result"] == expected_result(LIST_V2, url)
            assert after["generation"] > before["generation"]
            await stop(app)
            assert app.metrics.reloads_succeeded >= 1

        asyncio.run(scenario())

    def test_reload_noop_preserves_warm_cache(self, tmp_path):
        async def scenario():
            app = make_app(tmp_path)
            port = await start(app)
            url = URLS[0]
            await classify(port, {"url": url})
            await classify(port, {"url": url})
            cache = app.holder.cache
            assert cache is not None and cache.stats.hits == 1
            status, _, body = await http(port, "POST", "/-/reload")
            assert json.loads(body)["status"] == "noop"
            await classify(port, {"url": url})
            assert cache.stats.hits == 2  # same cache object, still warm
            await stop(app)
            assert app.metrics.reloads_noop == 1

        asyncio.run(scenario())

    def test_reload_failure_keeps_last_good_engine(self, tmp_path):
        async def scenario():
            app = make_app(tmp_path)
            port = await start(app)
            fingerprint = app.holder.fingerprint
            # A catastrophically-backtracking rule: lint=refuse rejects it.
            (tmp_path / "serve-list.txt").write_text("/(a+)+x/$script\n")
            status, _, body = await http(port, "POST", "/-/reload")
            assert status == 503
            outcome = json.loads(body)
            assert outcome["status"] == "failed" and "error" in outcome
            assert app.holder.fingerprint == fingerprint
            # Still serving, off the last good engine.
            status, doc = await classify(port, {"url": URLS[0]})
            assert status == 200
            assert doc["result"] == expected_result(LIST_V1, URLS[0])
            await stop(app)
            assert app.metrics.reloads_failed == 1

        asyncio.run(scenario())

    def test_reload_under_load_matches_fresh_engine(self, tmp_path):
        """Acceptance: reload mid-load, classifications afterwards are
        byte-identical to a fresh engine built from the new list."""

        async def scenario():
            app = make_app(tmp_path, queue_depth=256, concurrency=4)
            port = await start(app)

            stop_flag = asyncio.Event()
            failures: list[tuple[int, dict]] = []

            async def pound():
                i = 0
                while not stop_flag.is_set():
                    status, doc = await classify(port, {"url": URLS[i % len(URLS)]})
                    if status != 200:
                        failures.append((status, doc))
                    i += 1

            pounders = [asyncio.ensure_future(pound()) for _ in range(4)]
            await asyncio.sleep(0.05)
            (tmp_path / "serve-list.txt").write_text(LIST_V2)
            status, _, body = await http(port, "POST", "/-/reload")
            outcome = json.loads(body)
            assert outcome["status"] == "swapped", outcome
            await asyncio.sleep(0.05)
            stop_flag.set()
            await asyncio.gather(*pounders)
            assert not failures, failures[:3]
            # Post-reload answers match a fresh engine on the new list.
            for url in URLS:
                _, doc = await classify(port, {"url": url})
                assert doc["result"] == expected_result(LIST_V2, url)
                assert doc["generation"] == 2
            await stop(app)
            check_accounting(app)

        asyncio.run(scenario())


class TestServeChaos:
    def test_malformed_body_chaos_accounts_exactly(self, tmp_path):
        async def scenario():
            app = make_app(tmp_path, chaos="malformed-body:every=3:for=1000000")
            port = await start(app)
            statuses = []
            for i in range(12):
                status, _ = await classify(port, {"url": URLS[i % len(URLS)]})
                statuses.append(status)
            await stop(app)
            # Every third admitted request had its body mangled -> 400.
            assert statuses.count(400) == 4
            assert statuses.count(200) == 8
            assert app.metrics.client_errors == 4
            check_accounting(app)

        asyncio.run(scenario())

    def test_reload_storm_chaos_is_survivable(self, tmp_path):
        async def scenario():
            app = make_app(
                tmp_path, queue_depth=128, chaos="reload-storm:every=2:for=1000000"
            )
            port = await start(app)
            for i in range(10):
                status, _ = await classify(port, {"url": URLS[i % len(URLS)]})
                assert status == 200
            # Storm scheduled reloads; let them all land, then verify the
            # daemon still answers and the accounting held together.
            await asyncio.sleep(0.1)
            status, _, body = await http(port, "GET", "/metrics")
            doc = json.loads(body)
            assert doc["reload"]["attempted"] >= 1
            status, _ = await classify(port, {"url": URLS[0]})
            assert status == 200
            await stop(app)
            check_accounting(app)

        asyncio.run(scenario())

    def test_chaos_under_load_accounting_sums_exactly(self, tmp_path):
        """Acceptance: slow-handler chaos + flood; after quiescence the
        shed/served/timed-out counters sum to the request total."""

        async def scenario():
            app = make_app(
                tmp_path,
                queue_depth=4,
                concurrency=2,
                timeout_s=0.25,
                chaos="slow-handler:every=2:delay=0.12:for=1000000",
            )
            port = await start(app)
            results = await asyncio.gather(
                *(classify(port, {"url": URLS[i % len(URLS)]}) for i in range(30))
            )
            statuses = [status for status, _ in results]
            assert all(status in (200, 429, 503) for status in statuses), statuses
            # Quiescence: workers may still be sleeping on claimed tickets.
            await asyncio.sleep(0.3)
            await stop(app)
            metrics = app.metrics
            assert metrics.requests == 30
            assert statuses.count(429) == metrics.shed_queue_full
            assert statuses.count(503) == metrics.timed_out + metrics.shed_draining
            check_accounting(app)

        asyncio.run(scenario())


# ---------------------------------------------------------------------------
# Transport edge cases: the protocol parser's own buffer


async def read_response(reader: asyncio.StreamReader) -> tuple[int, bytes]:
    """One response off a keep-alive connection: (status, body)."""
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    length = 0
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    return int(lines[0].split()[1]), await reader.readexactly(length)


def classify_wire(url: str, *, eol: str = "\r\n", close: bool = False) -> bytes:
    body = json.dumps({"url": url}).encode()
    head = ["POST /classify HTTP/1.1", "Host: t", f"Content-Length: {len(body)}"]
    if close:
        head.append("Connection: close")
    return (eol.join(head) + eol + eol).encode() + body


async def close_writer(writer: asyncio.StreamWriter) -> None:
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass


class TestTransportEdgeCases:
    def test_two_pipelined_requests_in_one_write_answer_in_order(self, tmp_path):
        async def scenario():
            app = make_app(tmp_path)
            port = await start(app)
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(classify_wire(URLS[0]) + classify_wire(URLS[3]))
            first = await read_response(reader)
            second = await read_response(reader)
            await close_writer(writer)
            assert [first[0], second[0]] == [200, 200]
            assert json.loads(first[1])["result"] == expected_result(LIST_V1, URLS[0])
            assert json.loads(second[1])["result"] == expected_result(LIST_V1, URLS[3])
            await stop(app)
            check_accounting(app)

        asyncio.run(scenario())

    def test_pipelined_slow_request_keeps_order(self, tmp_path):
        async def scenario():
            # The first request suspends in service; the second, already
            # buffered, must still be answered after it.
            app = make_app(tmp_path, chaos="slow-handler:delay=0.1:for=1")
            port = await start(app)
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(classify_wire(URLS[0]) + classify_wire(URLS[3]))
            first = await read_response(reader)
            second = await read_response(reader)
            await close_writer(writer)
            assert json.loads(first[1])["result"]["url"] == URLS[0]
            assert json.loads(second[1])["result"]["url"] == URLS[3]
            await stop(app)
            assert app.metrics.served == 2
            check_accounting(app)

        asyncio.run(scenario())

    def test_request_delivered_one_byte_per_write(self, tmp_path):
        async def scenario():
            app = make_app(tmp_path)
            port = await start(app)
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            for byte in classify_wire(URLS[0]):
                writer.write(bytes([byte]))
                await writer.drain()
                await asyncio.sleep(0)
            status, body = await read_response(reader)
            await close_writer(writer)
            assert status == 200
            assert json.loads(body)["result"] == expected_result(LIST_V1, URLS[0])
            await stop(app)
            check_accounting(app)

        asyncio.run(scenario())

    def test_bare_lf_line_endings_are_accepted(self, tmp_path):
        async def scenario():
            app = make_app(tmp_path)
            port = await start(app)
            status, body = await raw_socket_exchange(
                classify_wire(URLS[0], eol="\n", close=True)
            )(port)
            assert status == 200
            assert json.loads(body)["result"] == expected_result(LIST_V1, URLS[0])
            await stop(app)

        asyncio.run(scenario())

    def test_idle_keep_alive_connection_is_closed(self, tmp_path):
        async def scenario():
            server = HttpServer(lambda request: Response(200, b"{}"), idle_timeout_s=0.1)
            port = await server.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b"GET /x HTTP/1.1\r\nHost: t\r\n\r\n")
            assert (await read_response(reader))[0] == 200
            # Idle from here on: closed after one to two idle periods.
            assert await asyncio.wait_for(reader.read(), timeout=2.0) == b""
            await close_writer(writer)
            assert not server._connections
            await server.stop_accepting()
            await server.wait_connections(grace_s=0.1)

        asyncio.run(scenario())

    def test_client_that_never_reads_stops_the_reading(self, tmp_path):
        async def scenario():
            calls = []

            def handler(request: Request) -> Response:
                calls.append(request.path)
                return Response(200, b"x" * 16384, content_type="text/plain")

            server = HttpServer(handler)
            port = await server.start()
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.setblocking(False)
            await asyncio.get_running_loop().sock_connect(sock, ("127.0.0.1", port))
            reader, writer = await asyncio.open_connection(sock=sock)
            total = 2000
            writer.write(b"GET /x HTTP/1.1\r\nHost: t\r\n\r\n" * total)
            for _ in range(200):
                if server._connections and next(iter(server._connections))._write_paused:
                    break
                await asyncio.sleep(0.01)
            (conn,) = server._connections
            assert conn._write_paused
            assert not conn._transport.is_reading()
            answered = len(calls)
            await asyncio.sleep(0.2)
            # Nothing more was parsed or answered while the client
            # stayed away, so the daemon's buffers stay bounded.
            assert len(calls) == answered < total
            assert conn._transport.get_write_buffer_size() < 4 * 65536
            for _ in range(total):
                status, body = await read_response(reader)
                assert status == 200 and len(body) == 16384
            assert len(calls) == total
            await close_writer(writer)
            await server.stop_accepting()
            await server.wait_connections(grace_s=0.1)

        asyncio.run(scenario())


class TestAdmissionSlots:
    def test_expired_in_service_is_cancelled_and_hands_off_its_slot(self, tmp_path):
        async def scenario():
            # The first request sleeps 5 s in service, far past its
            # 0.3 s deadline; the second waits for the only slot.
            app = make_app(
                tmp_path,
                concurrency=1,
                timeout_s=0.3,
                chaos="slow-handler:delay=5:for=1",
            )
            port = await start(app)
            loop = asyncio.get_running_loop()
            started = loop.time()
            slow = asyncio.ensure_future(classify(port, {"url": URLS[0]}))
            while app.metrics.accepted < 1:
                await asyncio.sleep(0.005)
            await asyncio.sleep(0.1)
            waiter = asyncio.ensure_future(classify(port, {"url": URLS[3]}))
            while app.admission.queued < 1:
                await asyncio.sleep(0.005)
            status, doc = await slow
            assert status == 503 and doc["error"] == "deadline exceeded"
            assert loop.time() - started < 2.0  # cancelled, not slept out
            status, doc = await waiter
            assert status == 200  # got the slot before its own deadline
            assert doc["result"] == expected_result(LIST_V1, URLS[3])
            assert not app.admission._active
            await stop(app)
            assert (app.metrics.timed_out, app.metrics.served) == (1, 1)
            check_accounting(app)

        asyncio.run(scenario())

    def test_waiter_expiring_in_line_is_removed_and_booked_once(self):
        async def scenario():
            metrics = ServeMetrics()
            admission = AdmissionQueue(lambda payload: payload, metrics, depth=4,
                                       timeout_s=5.0, concurrency=1)
            holder = asyncio.ensure_future(admission.submit("held", 0.3))
            await asyncio.sleep(0.01)
            admission._timeout_s = 0.05  # only the waiter gets a short deadline
            with pytest.raises(DeadlineExceeded):
                await admission.submit("waiter")
            assert admission.queued == 0
            assert metrics.timed_out == 1
            assert await holder == "held"
            # The slot came back free: the expired waiter did not take it.
            assert admission.can_serve_now()
            assert admission.serve_now("next") == "next"
            assert (metrics.accepted, metrics.served, metrics.timed_out) == (3, 2, 1)
            assert metrics.in_flight == 0

        asyncio.run(scenario())

    def test_uncontended_classify_never_enters_submit(self, tmp_path):
        async def scenario():
            app = make_app(tmp_path)
            entered = 0
            submit = app.admission.submit

            async def counting(*args, **kwargs):
                nonlocal entered
                entered += 1
                return await submit(*args, **kwargs)

            app.admission.submit = counting
            port = await start(app)
            for url in URLS:
                status, _ = await classify(port, {"url": url})
                assert status == 200
            await stop(app)
            assert entered == 0
            assert app.metrics.served == len(URLS)
            check_accounting(app)

        asyncio.run(scenario())


class TestLatencyHistogram:
    def test_buckets_are_log2_microseconds(self):
        metrics = ServeMetrics()
        for elapsed_ns in (0, 999, 1_000, 1_999, 3_000, 10**12):
            metrics.observe_latency(elapsed_ns)
        counts = metrics.latency_counts
        assert counts[0] == 2  # under 1 µs
        assert counts[1] == 2  # [1, 2) µs
        assert counts[2] == 1  # [2, 4) µs
        assert counts[-1] == 1  # 1000 s lands in the open last bucket

    def test_metrics_document_counts_each_classify_once(self, tmp_path):
        async def scenario():
            app = make_app(tmp_path)
            port = await start(app)
            for url in URLS:
                await classify(port, {"url": url})
            await http(port, "GET", "/healthz")
            _, _, body = await http(port, "GET", "/metrics")
            await stop(app)
            return json.loads(body)["serve"]["latency_us"]

        latency = asyncio.run(scenario())
        assert latency["upper"] == [1 << i for i in range(len(latency["counts"]))]
        assert sum(latency["counts"]) == len(URLS)

    def test_schema_pins_the_histogram_keys(self):
        import ast
        import inspect

        from repro.serve import metrics as metrics_module
        from repro.staticcheck.protocol import SCHEMA_PATH, extract_key_paths

        tree = ast.parse(inspect.getsource(metrics_module))
        (snapshot,) = [
            node for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "snapshot"
        ]
        with open(SCHEMA_PATH, encoding="utf-8") as stream:
            pinned = json.load(stream)["surfaces"]["repro/serve/metrics.py:ServeMetrics.snapshot"]
        emitted = extract_key_paths(snapshot)
        assert emitted == set(pinned)
        assert {"serve.latency_us.upper", "serve.latency_us.counts"} <= emitted
