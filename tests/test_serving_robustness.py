"""Serving robustness: load shedding, deadlines, rollback and clean shutdown.

The HTTP front end must degrade *explicitly* under stress: excess concurrent
load is shed with a JSON 503 + ``Retry-After`` (never a hung or dropped
connection), slow answers become JSON 504s, injected faults surface as JSON
500s, and a snapshot swap that cannot complete rolls back atomically — the
old snapshot keeps serving.  Fault pressure comes from the seeded
:class:`~repro.serving.faults.ServingFaultInjector`, the serving counterpart
of the federated layer's :class:`~repro.federated.dynamics.FaultSchedule`.
"""

from __future__ import annotations

import http.client
import json
import socket
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
    ServingFaultInjector,
    build_http_server,
    run_http_server,
)

NUM_USERS = 20
NUM_ITEMS = 25


def _service(version: int = 5) -> RecommenderService:
    rng = np.random.default_rng(2)
    interactions = [
        (user, int(item))
        for user in range(NUM_USERS)
        for item in rng.choice(NUM_ITEMS, size=3, replace=False)
    ]
    train = InteractionDataset(NUM_USERS, NUM_ITEMS, interactions, name="robust")
    model = MatrixFactorizationModel(NUM_USERS, NUM_ITEMS, 8, init_scale=1.0, rng=3)
    return RecommenderService(
        FactorSnapshot.from_model(model, version=version), train, top_k=7
    )


def _serve(server):
    thread = threading.Thread(
        target=lambda: server.serve_forever(poll_interval=0.02), daemon=True
    )
    thread.start()
    host, port = server.server_address[0], server.server_address[1]
    return thread, f"http://{host}:{port}"


def _fetch(url: str) -> tuple[int, dict, dict]:
    """One GET: (status, json body, headers) — HTTP errors are answers too."""
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, json.loads(response.read().decode("utf-8")), dict(
                response.headers
            )
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode("utf-8")), dict(error.headers)


class BadSnapshot(FactorSnapshot):
    """A snapshot whose model cannot be built (simulated corrupt export)."""

    def model(self):
        raise RuntimeError("corrupt snapshot")


class TestSnapshotSwapRollback:
    def test_failed_swap_keeps_serving_the_old_snapshot(self):
        service = _service(version=5)
        before = service.top_k(3).to_json_dict()
        bad = BadSnapshot(
            user_factors=np.zeros((NUM_USERS, 8)),
            item_factors=np.zeros((NUM_ITEMS, 8)),
            version=6,
        )
        with pytest.raises(ServingError, match="rolled back"):
            service.swap_snapshot(bad)
        stats = service.stats()
        assert stats["failed_swaps"] == 1
        assert stats["snapshot_swaps"] == 0
        assert stats["snapshot_version"] == 5
        assert service.top_k(3).to_json_dict() == before

    def test_mismatched_universe_swap_rolls_back(self):
        service = _service(version=5)
        wrong_shape = FactorSnapshot(
            user_factors=np.zeros((NUM_USERS + 1, 8)),
            item_factors=np.zeros((NUM_ITEMS, 8)),
            version=6,
        )
        with pytest.raises(ServingError, match="users/items"):
            service.swap_snapshot(wrong_shape)
        stats = service.stats()
        assert stats["failed_swaps"] == 1
        assert stats["snapshot_version"] == 5


class TestLoadShedding:
    def test_excess_concurrency_is_shed_with_retry_after(self):
        # Every admitted request holds its slot for 0.5s, so with two slots
        # the other six concurrent requests must be shed — as JSON 503s with
        # a Retry-After header, never as dropped connections.
        injector = ServingFaultInjector(latency=0.5, latency_rate=1.0, rng=11)
        server = build_http_server(
            _service(), max_in_flight=2, fault_injector=injector
        )
        # A client can read its answer before the handler thread releases its
        # admission slot.  Non-daemon handler threads are joined by
        # server_close(), so the counters below are read only after every
        # handler has finished.
        server.daemon_threads = False
        thread, base = _serve(server)
        try:
            results: list[tuple[int, dict, dict]] = [None] * 8  # type: ignore[list-item]

            def fetch(index: int) -> None:
                results[index] = _fetch(f"{base}/recommend?user={index}")

            fetchers = [
                threading.Thread(target=fetch, args=(index,)) for index in range(8)
            ]
            for fetcher in fetchers:
                fetcher.start()
            for fetcher in fetchers:
                fetcher.join(timeout=30)
        finally:
            server.shutdown()
            server.server_close()
            thread.join()
        codes = sorted(status for status, _, _ in results)
        assert set(codes) == {200, 503}
        # Exactly two slots exist; a request admitted after an early
        # finisher can push the 200 count past 2, but most must shed.
        assert codes.count(200) >= 2
        assert codes.count(503) >= 4
        for status, body, headers in results:
            if status == 503:
                assert headers["Retry-After"] == "1"
                assert "over capacity" in body["error"]
        stats = server.stats_payload()
        assert stats["shed_requests"] == codes.count(503)
        assert stats["in_flight"] == 0

    def test_health_and_stats_bypass_admission(self):
        # A saturated /recommend pool must never block the probes operators
        # use to notice the saturation.
        injector = ServingFaultInjector(latency=1.0, latency_rate=1.0, rng=11)
        server = build_http_server(
            _service(), max_in_flight=1, fault_injector=injector
        )
        thread, base = _serve(server)
        try:
            slow = threading.Thread(
                target=lambda: _fetch(f"{base}/recommend?user=0")
            )
            slow.start()
            status, body, _ = _fetch(f"{base}/health")
            assert status == 200 and body["status"] == "ok"
            status, stats, _ = _fetch(f"{base}/stats")
            assert status == 200
            assert stats["in_flight"] <= 1
            slow.join(timeout=30)
        finally:
            server.shutdown()
            server.server_close()
            thread.join()


class TestDeadlinesAndInjectedErrors:
    def test_slow_answer_becomes_a_504(self):
        injector = ServingFaultInjector(latency=0.3, latency_rate=1.0, rng=11)
        server = build_http_server(
            _service(), request_timeout=0.05, fault_injector=injector
        )
        thread, base = _serve(server)
        try:
            status, body, _ = _fetch(f"{base}/recommend?user=1")
            assert status == 504
            assert "deadline" in body["error"]
            assert server.stats_payload()["deadline_hits"] == 1
        finally:
            server.shutdown()
            server.server_close()
            thread.join()

    def test_injected_failure_becomes_a_500(self):
        injector = ServingFaultInjector(error_rate=1.0, rng=11)
        server = build_http_server(_service(), fault_injector=injector)
        thread, base = _serve(server)
        try:
            status, body, _ = _fetch(f"{base}/recommend?user=1")
            assert status == 500
            assert "injected serving failure" in body["error"]
            assert server.stats_payload()["injected_errors"] == 1
        finally:
            server.shutdown()
            server.server_close()
            thread.join()

    def test_injector_validation(self):
        with pytest.raises(ServingError, match="latency must be non-negative"):
            ServingFaultInjector(latency=-1.0)
        with pytest.raises(ServingError, match=r"latency_rate must be in \[0, 1\]"):
            ServingFaultInjector(latency_rate=1.5)
        with pytest.raises(ServingError, match=r"error_rate must be in \[0, 1\]"):
            ServingFaultInjector(error_rate=-0.5)

    def test_server_limit_validation(self):
        with pytest.raises(ServingError, match="max_in_flight"):
            build_http_server(_service(), max_in_flight=0)
        with pytest.raises(ServingError, match="request_timeout"):
            build_http_server(_service(), request_timeout=0.0)


class TestCleanShutdown:
    def test_stop_event_drains_and_releases_the_port(self):
        service = _service()
        stop = threading.Event()
        bound: dict[str, tuple[str, int]] = {}

        def serve() -> None:
            bound["address"] = run_http_server(
                service, port=0, stop_event=stop, drain_timeout=2.0
            )

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        # Wait for the signal we can stop: the server stores its bound
        # address only on return, so probe via the event instead.
        stop.set()
        thread.join(timeout=30)
        assert not thread.is_alive(), "run_http_server must return once stopped"
        host, port = bound["address"]
        assert host == "127.0.0.1" and port > 0
        # The listening socket is closed: the port is immediately rebindable.
        probe = socket.socket()
        try:
            probe.bind((host, port))
        finally:
            probe.close()

    def test_drain_waits_for_in_flight_requests(self):
        injector = ServingFaultInjector(latency=0.3, latency_rate=1.0, rng=11)
        server = build_http_server(
            _service(), max_in_flight=4, fault_injector=injector
        )
        thread, base = _serve(server)
        try:
            slow = threading.Thread(target=lambda: _fetch(f"{base}/recommend?user=0"))
            slow.start()
            slow.join(timeout=30)
            assert server.drain(timeout=2.0)
            assert server.stats_payload()["in_flight"] == 0
        finally:
            server.shutdown()
            server.server_close()
            thread.join()


# --------------------------------------------------------------------------- #
# Persistent connections: early answers and shutdown
# --------------------------------------------------------------------------- #


def _keep_alive(address) -> http.client.HTTPConnection:
    return http.client.HTTPConnection(address[0], address[1], timeout=10)


def _exchange(conn, method: str, path: str, payload: dict | None = None):
    """One request on ``conn``: (status, ``Connection`` header, json body)."""
    body = None if payload is None else json.dumps(payload)
    conn.request(method, path, body=body)
    response = conn.getresponse()
    return (
        response.status,
        response.getheader("Connection"),
        json.loads(response.read().decode("utf-8")),
    )


def _handler_threads() -> set[threading.Thread]:
    return {
        thread
        for thread in threading.enumerate()
        if "process_request_thread" in thread.name
    }


def _run_in_thread(stop: threading.Event, **kwargs):
    """``run_http_server`` on a free port in a daemon thread, once listening."""
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    thread = threading.Thread(
        target=lambda: run_http_server(
            _service(), port=port, stop_event=stop, drain_timeout=2.0, **kwargs
        ),
        daemon=True,
    )
    thread.start()
    deadline = time.monotonic() + 10
    while True:
        try:
            socket.create_connection(("127.0.0.1", port), timeout=1).close()
            return thread, ("127.0.0.1", port)
        except OSError:
            if time.monotonic() > deadline:
                raise
            time.sleep(0.02)


class TestEarlyAnswersKeepTheConnection:
    def test_shed_post_leaves_the_connection_usable(self):
        injector = ServingFaultInjector(latency=0.5, latency_rate=1.0, rng=11)
        server = build_http_server(
            _service(), max_in_flight=1, fault_injector=injector
        )
        thread, base = _serve(server)
        slow = threading.Thread(target=lambda: _fetch(f"{base}/recommend?user=0"))
        conn = _keep_alive(server.server_address)
        try:
            slow.start()
            deadline = time.monotonic() + 10
            while server.stats_payload()["in_flight"] == 0:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            status, _, body = _exchange(conn, "POST", "/recommend", {"users": [1]})
            assert status == 503 and "over capacity" in body["error"]
            status, connection, body = _exchange(conn, "GET", "/health")
            assert status == 200 and body["status"] == "ok"
            assert connection is None
            slow.join(timeout=30)
        finally:
            conn.close()
            server.shutdown()
            server.server_close()
            thread.join()

    def test_injected_failure_post_leaves_the_connection_usable(self):
        injector = ServingFaultInjector(error_rate=1.0, rng=11)
        server = build_http_server(_service(), fault_injector=injector)
        thread, _ = _serve(server)
        conn = _keep_alive(server.server_address)
        try:
            status, _, body = _exchange(conn, "POST", "/recommend", {"users": [1]})
            assert status == 500 and "injected serving failure" in body["error"]
            status, connection, body = _exchange(conn, "GET", "/stats")
            assert status == 200 and body["injected_errors"] == 1
            assert connection is None
        finally:
            conn.close()
            server.shutdown()
            server.server_close()
            thread.join()


class TestShutdownClosesConnections:
    def test_stop_closes_idle_connections(self):
        before = _handler_threads()
        stop = threading.Event()
        thread, address = _run_in_thread(stop)
        conn = _keep_alive(address)
        try:
            status, connection, _ = _exchange(conn, "GET", "/health")
            assert status == 200 and connection is None
            handlers = _handler_threads() - before
            assert handlers, "the kept-alive connection has a handler thread"
            stopped_at = time.monotonic()
            stop.set()
            thread.join(timeout=10)
            assert not thread.is_alive(), "run_http_server must return once stopped"
            assert time.monotonic() - stopped_at < 2.0 + 1.0  # drain bound + polls
            for handler in handlers:
                handler.join(timeout=1.0)
            assert not any(handler.is_alive() for handler in handlers)
            with pytest.raises((OSError, http.client.HTTPException)):
                _exchange(conn, "GET", "/recommend?user=3")
        finally:
            stop.set()
            conn.close()

    def test_request_in_flight_at_stop_finishes_with_close(self):
        injector = ServingFaultInjector(latency=0.5, latency_rate=1.0, rng=11)
        started = threading.Event()
        inject = injector.before_request

        def before_request(path: str) -> None:
            started.set()
            inject(path)

        injector.before_request = before_request  # type: ignore[method-assign]
        stop = threading.Event()
        thread, address = _run_in_thread(stop, fault_injector=injector)
        conn = _keep_alive(address)
        answers = []
        try:
            assert _exchange(conn, "GET", "/health")[:2] == (200, None)
            client = threading.Thread(
                target=lambda: answers.append(
                    _exchange(conn, "GET", "/recommend?user=3")
                )
            )
            client.start()
            assert started.wait(timeout=10)
            stop.set()
            client.join(timeout=10)
            thread.join(timeout=10)
            assert not thread.is_alive()
        finally:
            stop.set()
            conn.close()
        [(status, connection, body)] = answers
        assert status == 200 and connection == "close"
        assert body == _service().top_k(3).to_json_dict()

    def test_drain_waits_for_open_connections(self):
        server = build_http_server(_service())
        thread, _ = _serve(server)
        conn = _keep_alive(server.server_address)
        try:
            assert _exchange(conn, "GET", "/health")[:2] == (200, None)
            # Nothing is in flight, but the kept-alive connection is open.
            assert not server.drain(timeout=0.2)
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=30)
        try:
            assert server.drain(timeout=5.0)
        finally:
            conn.close()

    def test_server_close_does_not_wait_for_idle_connections(self):
        server = build_http_server(_service())
        # Non-daemon handler threads are joined by server_close().
        server.daemon_threads = False
        thread, _ = _serve(server)
        conn = _keep_alive(server.server_address)
        try:
            assert _exchange(conn, "GET", "/health")[:2] == (200, None)
        finally:
            server.shutdown()
            thread.join(timeout=30)
        closer = threading.Thread(target=server.server_close, daemon=True)
        closer.start()
        closer.join(timeout=5)
        try:
            assert not closer.is_alive(), "server_close() hung on an idle connection"
        finally:
            conn.close()
            closer.join(timeout=30)
