"""HTTP front end of the serving layer: real-socket round trips.

Each test binds an ephemeral-port :func:`build_http_server`, serves it from
a background thread and talks to it through ``urllib`` — no mocked sockets.
The contract: the JSON payloads are exactly the service's
:meth:`~repro.serving.service.Recommendation.to_json_dict` answers (so the
HTTP layer adds transport, never arithmetic), batched POSTs equal the
corresponding single GETs, and every client error surfaces as a 400/404
JSON body rather than a stack trace.
"""

from __future__ import annotations

import http.client
import json
import socket
import statistics
import sys
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.data.dataset import InteractionDataset
from repro.exceptions import ServingError
from repro.models.mf import MatrixFactorizationModel
from repro.serving import (
    FactorSnapshot,
    RecommenderService,
    build_http_server,
    run_http_server,
)
from repro.serving import http as http_module

NUM_USERS = 20
NUM_ITEMS = 25


def _service(version: int = 5) -> RecommenderService:
    rng = np.random.default_rng(2)
    interactions = [
        (user, int(item))
        for user in range(NUM_USERS)
        for item in rng.choice(NUM_ITEMS, size=3, replace=False)
    ]
    train = InteractionDataset(NUM_USERS, NUM_ITEMS, interactions, name="http")
    model = MatrixFactorizationModel(NUM_USERS, NUM_ITEMS, 8, init_scale=1.0, rng=3)
    return RecommenderService(
        FactorSnapshot.from_model(model, version=version), train, top_k=7
    )


@pytest.fixture()
def served():
    """A live server on an ephemeral port plus its backing service."""
    service = _service()
    server = build_http_server(service)
    # Tight poll interval so shutdown() returns promptly between tests.
    thread = threading.Thread(
        target=lambda: server.serve_forever(poll_interval=0.02), daemon=True
    )
    thread.start()
    host, port = server.server_address[0], server.server_address[1]
    try:
        yield f"http://{host}:{port}", service
    finally:
        server.shutdown()
        server.server_close()
        thread.join()


def _get(url: str) -> dict:
    with urllib.request.urlopen(url, timeout=10) as response:
        assert response.status == 200
        return json.loads(response.read().decode("utf-8"))


def _post(url: str, payload: dict) -> dict:
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        assert response.status == 200
        return json.loads(response.read().decode("utf-8"))


def _error(url: str, payload: dict | None = None) -> tuple[int, dict]:
    request = urllib.request.Request(
        url,
        data=None if payload is None else json.dumps(payload).encode("utf-8"),
        method="GET" if payload is None else "POST",
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=10)
    return excinfo.value.code, json.loads(excinfo.value.read().decode("utf-8"))


class TestEndpoints:
    def test_health_reports_the_served_snapshot(self, served):
        base, service = served
        payload = _get(f"{base}/health")
        assert payload == {
            "status": "ok",
            "snapshot_version": 5,
            "n_users": NUM_USERS,
            "n_items": NUM_ITEMS,
        }

    def test_recommend_matches_the_service_answer(self, served):
        base, service = served
        payload = _get(f"{base}/recommend?user=3")
        assert payload == service.top_k(3).to_json_dict()
        assert len(payload["items"]) == 7  # the service default k

    def test_recommend_honours_k(self, served):
        base, service = served
        payload = _get(f"{base}/recommend?user=3&k=2")
        assert payload == service.top_k(3, k=2).to_json_dict()
        assert len(payload["items"]) == 2

    def test_batch_post_equals_single_gets(self, served):
        base, _ = served
        users = [4, 0, 19, 4]
        batched = _post(f"{base}/recommend", {"users": users, "k": 3})
        singles = [_get(f"{base}/recommend?user={user}&k=3") for user in users]
        assert batched == {"recommendations": singles}

    def test_batch_post_without_k_uses_the_default(self, served):
        base, service = served
        batched = _post(f"{base}/recommend", {"users": [1]})
        assert batched["recommendations"] == [service.top_k(1).to_json_dict()]

    def test_stats_counts_round_trips(self, served):
        base, _ = served
        _get(f"{base}/recommend?user=6")
        _get(f"{base}/recommend?user=6")
        stats = _get(f"{base}/stats")
        assert stats["queries"] >= 2
        assert stats["memo_hits"] >= 1
        assert stats["snapshot_version"] == 5


class TestErrorSurface:
    def test_missing_user_is_a_400(self, served):
        base, _ = served
        code, body = _error(f"{base}/recommend")
        assert code == 400 and "user" in body["error"]

    def test_garbage_user_is_a_400(self, served):
        base, _ = served
        code, body = _error(f"{base}/recommend?user=pony")
        assert code == 400 and "integer" in body["error"]

    def test_unknown_user_is_a_400_with_the_serving_message(self, served):
        base, _ = served
        code, body = _error(f"{base}/recommend?user={NUM_USERS}")
        assert code == 400 and "out of range" in body["error"]

    def test_bad_k_is_a_400(self, served):
        base, _ = served
        code, body = _error(f"{base}/recommend?user=1&k=0")
        assert code == 400 and "k must be positive" in body["error"]

    def test_unknown_path_is_a_404(self, served):
        base, _ = served
        code, body = _error(f"{base}/nope")
        assert code == 404 and "/nope" in body["error"]
        code, _ = _error(f"{base}/nope", payload={"users": [1]})
        assert code == 404

    def test_batch_users_must_be_an_int_list(self, served):
        base, _ = served
        code, body = _error(f"{base}/recommend", payload={"users": "everyone"})
        assert code == 400 and "list of integers" in body["error"]
        code, body = _error(f"{base}/recommend", payload={"users": [1.5]})
        assert code == 400
        code, body = _error(f"{base}/recommend", payload={"k": 3})
        assert code == 400

    def test_batch_k_must_be_an_int(self, served):
        base, _ = served
        code, body = _error(f"{base}/recommend", payload={"users": [1], "k": "ten"})
        assert code == 400 and "'k'" in body["error"]

    def test_batch_out_of_range_user_is_a_400(self, served):
        base, _ = served
        code, body = _error(f"{base}/recommend", payload={"users": [0, NUM_USERS]})
        assert code == 400 and "out of range" in body["error"]


class TestRunHttpServer:
    def test_max_requests_zero_binds_and_returns(self):
        host, port = run_http_server(_service(), port=0, max_requests=0)
        assert host == "127.0.0.1"
        assert port > 0
        # The socket is closed again: the port is immediately rebindable.
        probe = socket.socket()
        try:
            probe.bind((host, port))
        finally:
            probe.close()

    def test_negative_max_requests_rejected(self):
        with pytest.raises(ServingError, match="non-negative"):
            run_http_server(_service(), port=0, max_requests=-1)

    def test_serves_exactly_max_requests_then_exits(self):
        service = _service()
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()

        bound: dict[str, tuple[str, int]] = {}

        def serve() -> None:
            bound["address"] = run_http_server(
                service, port=port, max_requests=2
            )

        # Daemon: if an assertion below fails, a server still blocked in
        # handle_request() must not keep the interpreter alive.
        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        # The thread binds asynchronously; retry until it accepts.  A refused
        # connection never reaches accept(), so retries don't consume the
        # max_requests budget.
        deadline = time.monotonic() + 10
        while True:
            try:
                payload = _get(f"http://127.0.0.1:{port}/health")
                break
            except urllib.error.URLError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.05)
        assert payload["status"] == "ok"
        _get(f"http://127.0.0.1:{port}/recommend?user=0")
        thread.join(timeout=30)
        assert not thread.is_alive(), "server must exit after max_requests"
        assert bound["address"] == ("127.0.0.1", port)


# --------------------------------------------------------------------------- #
# Persistent connections (HTTP/1.1 keep-alive through ``http.client``)
# --------------------------------------------------------------------------- #


@pytest.fixture()
def live():
    """A live server (the object, so tests can count its accepts)."""
    server = build_http_server(_service())
    thread = threading.Thread(
        target=lambda: server.serve_forever(poll_interval=0.02), daemon=True
    )
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join()


def _count_accepts(server) -> list[int]:
    """Wrap ``process_request``: one count per accepted connection."""
    accepted = [0]
    original = server.process_request

    def counting(request, client_address):
        accepted[0] += 1
        original(request, client_address)

    server.process_request = counting
    return accepted


def _connect(server) -> http.client.HTTPConnection:
    host, port = server.server_address[0], server.server_address[1]
    return http.client.HTTPConnection(host, port, timeout=10)


def _exchange(
    conn: http.client.HTTPConnection,
    method: str,
    path: str,
    payload: dict | None = None,
    headers: dict[str, str] | None = None,
) -> tuple[int, str | None, bytes]:
    """One request on ``conn``: (status, ``Connection`` header, raw body)."""
    headers = dict(headers or {})
    body = None
    if payload is not None:
        body = json.dumps(payload)
        headers["Content-Type"] = "application/json"
    conn.request(method, path, body=body, headers=headers)
    response = conn.getresponse()
    return response.status, response.getheader("Connection"), response.read()


def _wait_until_listening(port: int) -> None:
    """Connect and hang up until the port accepts; no request is sent."""
    deadline = time.monotonic() + 10
    while True:
        try:
            socket.create_connection(("127.0.0.1", port), timeout=1).close()
            return
        except OSError:
            if time.monotonic() > deadline:
                raise
            time.sleep(0.02)


def _free_port() -> int:
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


STREAM = [
    ("GET", "/recommend?user=3", None),
    ("GET", "/recommend?user=4&k=2", None),
    ("POST", "/recommend", {"users": [4, 0, 19], "k": 3}),
    ("GET", "/health", None),
    ("GET", "/recommend?user=pony", None),
    ("POST", "/recommend", {"users": [7]}),
    ("GET", "/recommend?user=19", None),
]


class TestPersistentConnections:
    def test_one_connection_serves_every_request(self, live):
        accepted = _count_accepts(live)
        conn = _connect(live)
        kept = [_exchange(conn, method, path, payload) for method, path, payload in STREAM]
        conn.close()
        assert accepted[0] == 1
        assert all(connection is None for _, connection, _ in kept)

        # ``Connection: close`` is echoed, so a client reusing its connection
        # object reconnects for every request.
        conn = _connect(live)
        closed = [
            _exchange(conn, method, path, payload, {"Connection": "close"})
            for method, path, payload in STREAM
        ]
        conn.close()
        assert accepted[0] == 1 + len(STREAM)
        assert all(connection == "close" for _, connection, _ in closed)
        assert [(status, body) for status, _, body in kept] == [
            (status, body) for status, _, body in closed
        ]
        assert [status for status, _, _ in kept] == [200, 200, 200, 200, 400, 200, 200]

        # An HTTP/1.0 client gets one answer, then the server hangs up.
        with socket.create_connection(live.server_address, timeout=10) as raw:
            raw.sendall(b"GET /health HTTP/1.0\r\n\r\n")
            answer = b""
            while chunk := raw.recv(65536):
                answer += chunk
        head, _, body = answer.partition(b"\r\n\r\n")
        assert b"Connection: close" in head and body == kept[3][2]
        assert accepted[0] == 2 + len(STREAM)

    def test_answers_do_not_wait_on_nagle(self, live):
        # A header write then a body write: with Nagle on, the body waits for
        # the client's delayed ACK (~40 ms) on every kept-alive request.
        accepted = _count_accepts(live)
        conn = _connect(live)
        seconds = []
        for index in range(50):
            start = time.perf_counter()
            status, _, _ = _exchange(conn, "GET", f"/recommend?user={index % NUM_USERS}")
            seconds.append(time.perf_counter() - start)
            assert status == 200
        conn.close()
        assert accepted[0] == 1
        assert statistics.median(seconds) < 0.010, (
            f"median {1000 * statistics.median(seconds):.1f} ms per kept-alive request"
        )

    def test_unknown_path_post_leaves_the_connection_usable(self, live):
        accepted = _count_accepts(live)
        conn = _connect(live)
        status, _, body = _exchange(conn, "POST", "/nope", {"users": [1]})
        assert status == 404 and "/nope" in json.loads(body)["error"]
        status, _, body = _exchange(conn, "GET", "/recommend?user=3")
        conn.close()
        assert status == 200
        assert json.loads(body) == live.service.top_k(3).to_json_dict()
        assert accepted[0] == 1

    def test_get_with_a_body_leaves_the_connection_usable(self, live):
        accepted = _count_accepts(live)
        conn = _connect(live)
        status, _, _ = _exchange(conn, "GET", "/health", {"ignored": True})
        assert status == 200
        status, _, body = _exchange(conn, "GET", "/recommend?user=3")
        conn.close()
        assert status == 200
        assert json.loads(body) == live.service.top_k(3).to_json_dict()
        assert accepted[0] == 1

    def test_body_of_unknown_length_closes_after_the_answer(self, live):
        with socket.create_connection(live.server_address, timeout=10) as raw:
            raw.sendall(
                b"POST /recommend HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: pony\r\n\r\n{}GET /health HTTP/1.1\r\n\r\n"
            )
            answer = b""
            while chunk := raw.recv(65536):
                answer += chunk
        head, _, body = answer.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400")
        assert b"Connection: close" in head
        assert "bad batch request" in json.loads(body)["error"]

    def test_idle_connection_is_closed_after_the_timeout(self, monkeypatch):
        shipped = getattr(http_module, "IDLE_TIMEOUT_SECONDS", None)
        monkeypatch.setattr(http_module, "IDLE_TIMEOUT_SECONDS", 0.3, raising=False)
        server = build_http_server(_service())
        accepted = _count_accepts(server)
        thread = threading.Thread(
            target=lambda: server.serve_forever(poll_interval=0.02), daemon=True
        )
        thread.start()
        conn = _connect(server)
        try:
            # Traffic more often than the timeout keeps the connection open
            # well past it: the timeout counts idle time only.
            for _ in range(6):
                time.sleep(0.1)
                assert _exchange(conn, "GET", "/health")[0] == 200
            idle_since = time.monotonic()
            assert accepted[0] == 1
            conn.sock.settimeout(5.0)
            assert conn.sock.recv(1) == b"", "the server must hang up"
            assert 0.15 < time.monotonic() - idle_since < 2.0
        finally:
            conn.close()
            server.shutdown()
            server.server_close()
            thread.join()
        # The shipped timeout outlasts the pauses of a real client, such as
        # the serving benchmark's block warm-up between its /health probes
        # and its first streamed request.
        assert shipped is not None and shipped >= 10

    def test_max_requests_counts_requests_not_connections(self):
        port = _free_port()
        thread = threading.Thread(
            target=lambda: run_http_server(_service(), port=port, max_requests=3),
            daemon=True,
        )
        thread.start()
        _wait_until_listening(port)
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        answers = []
        for _ in range(6):
            try:
                answers.append(_exchange(conn, "GET", "/health"))
            except (OSError, http.client.HTTPException):
                conn.close()
        conn.close()
        thread.join(timeout=10)
        assert not thread.is_alive(), "run_http_server must return after 3 answers"
        assert [status for status, _, _ in answers] == [200, 200, 200]
        # The first two kept the connection; the last one closed it.
        assert [connection for _, connection, _ in answers] == [None, None, "close"]

    def test_max_requests_holds_across_concurrent_connections(self):
        # Eight keep-alive clients (more than the cores) race for a budget of
        # 40 requests with a tiny switch interval: a lost update in the
        # server's request count would answer more or fewer than 40.
        port = _free_port()
        thread = threading.Thread(
            target=lambda: run_http_server(_service(), port=port, max_requests=40),
            daemon=True,
        )
        thread.start()
        _wait_until_listening(port)
        answered: list[int] = []

        def client() -> None:
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
            try:
                for _ in range(20):
                    assert _exchange(conn, "GET", "/health")[0] == 200
                    answered.append(1)
            except (OSError, http.client.HTTPException):
                pass
            finally:
                conn.close()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            clients = [threading.Thread(target=client) for _ in range(8)]
            for worker in clients:
                worker.start()
            for worker in clients:
                worker.join(timeout=30)
            thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in clients)
        assert not thread.is_alive(), "run_http_server must return after 40 answers"
        assert len(answered) == 40
