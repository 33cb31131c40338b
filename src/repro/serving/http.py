"""Stdlib JSON front end for the recommendation service.

A deliberately small ``http.server``-based surface — no third-party web
framework, matching the repo's stdlib+numpy dependency policy:

* ``GET /health`` — liveness plus the served snapshot's shape and version,
* ``GET /stats`` — the service's cache counters plus the front end's
  robustness counters (in-flight requests, shed requests, deadline hits,
  injected errors),
* ``GET /recommend?user=U[&k=K]`` — one user's top-K list,
* ``POST /recommend`` with ``{"users": [...], "k": K}`` — a batched query
  answered through :meth:`~repro.serving.service.RecommenderService.top_k_batch`
  (one blocked scoring pass per touched block).

Errors come back as ``{"error": ...}`` with a 400 (bad request / unknown
user) or 404 (unknown path).  The server is a ``ThreadingHTTPServer``; the
service's internal lock makes concurrent handler threads safe.

Connections:

* **Persistent.**  The handler speaks HTTP/1.1: a client that does not send
  ``Connection: close`` keeps its connection, and one handler thread serves
  every request on it.  HTTP/1.0 clients and ``Connection: close`` requests
  get one answer per connection.  Every answer after which the server
  closes the connection carries ``Connection: close``.
* **No Nagle stall.**  Accepted sockets set ``TCP_NODELAY``.  An answer is a
  header write and a body write; without it the body would wait for the
  client's delayed ACK (about 40 ms on Linux) on every kept-alive request.
* **Body-safe early answers.**  Every request's declared body is read off the
  socket before it is dispatched, so a 404, a shed 503 or an injected 500
  leaves the connection at the next request.  A body of unknown length
  (chunked, or a malformed ``Content-Length``) cannot be skipped: its answer
  carries ``Connection: close``.
* **Idle timeout.**  A connection with no traffic for
  :data:`IDLE_TIMEOUT_SECONDS` is closed.

Robustness:

* **Bounded admission.**  ``max_in_flight`` caps concurrently served
  ``/recommend`` requests; excess load is *shed* with a JSON 503 carrying a
  ``Retry-After`` header instead of queueing unboundedly.  ``/health`` and
  ``/stats`` are exempt, so the server stays observable while overloaded.
* **Per-request deadlines.**  ``request_timeout`` turns a slow ``/recommend``
  answer into a JSON 504 (the work is done by then — the deadline bounds the
  *response*, the client contract, not the computation).
* **Fault injection.**  An optional
  :class:`~repro.serving.faults.ServingFaultInjector` runs inside the held
  admission slot (injected latency therefore drives real load-shedding) and
  its injected failures surface as JSON 500s.
* **Clean shutdown.**  ``server_close()`` closes the listening socket and
  the read side of every open connection: an idle persistent connection is
  closed at once, and a request in flight finishes with
  ``Connection: close``.  ``drain(timeout)`` then waits, bounded, for every
  connection's handler to finish.  :func:`run_http_server` does both on
  ``SIGINT`` / ``SIGTERM`` / ``KeyboardInterrupt`` / ``stop_event``, or once
  ``max_requests`` requests (not connections) are answered — no traceback
  out of ``serve_forever``, no dropped in-flight request.
"""

from __future__ import annotations

import json
import signal
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable
from urllib.parse import parse_qs, urlparse

from repro.exceptions import ServingError
from repro.serving.faults import InjectedServingError, ServingFaultInjector
from repro.serving.service import RecommenderService

__all__ = ["build_http_server", "run_http_server"]

#: Seconds suggested to shed clients in the 503 ``Retry-After`` header.
RETRY_AFTER_SECONDS = 1

#: Seconds a persistent connection may sit without traffic before the
#: server closes it.
IDLE_TIMEOUT_SECONDS = 30.0


class _ServingRequestHandler(BaseHTTPRequestHandler):
    """Request handler bound to one service via the server instance."""

    server: "_ServingHTTPServer"
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    #: The request's declared body, read before dispatch; ``None`` when its
    #: length is unknown (the connection then closes after the answer).
    request_body: bytes | None = b""

    # Quiet by default: serving benchmarks and tests should not spray one
    # log line per request onto stderr.
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass

    def setup(self) -> None:
        super().setup()
        self.connection.settimeout(IDLE_TIMEOUT_SECONDS)

    def parse_request(self) -> bool:
        """Parse the request, read its body, then count it as served.

        Returning ``False`` without an answer (the server's request budget
        is spent) closes the connection unanswered.
        """
        if not super().parse_request():
            return False
        self.request_body = self._read_body()
        if not self.server.claim_request():
            self.close_connection = True
            return False
        return True

    def _read_body(self) -> bytes | None:
        """The declared body, read off the socket before anything answers.

        An early answer (404, a shed 503, an injected 500) that left the
        body unread would have the next request on a persistent connection
        parsed out of it.
        """
        if "Transfer-Encoding" in self.headers:
            return None
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            return None
        return self.rfile.read(length) if length >= 0 else None

    def _send_json(
        self,
        status: int,
        payload: dict[str, object],
        headers: dict[str, str] | None = None,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if headers:
            for name, value in headers.items():
                self.send_header(name, value)
        if self.close_connection or self.request_body is None or self.server.closing:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})

    def _admitted(
        self, compute: Callable[[], tuple[int, dict[str, object]]]
    ) -> None:
        """Run one ``/recommend`` answer under admission, faults and deadline.

        Admission is non-blocking: a full server sheds the request with a
        503 + ``Retry-After`` rather than queueing it.  The fault injector
        (when configured) runs while the slot is held, so injected latency
        creates the same back-pressure real slowness would.  The deadline is
        checked after computing the answer — the response, not the
        computation, is what the 504 bounds.
        """
        server = self.server
        if not server.try_admit():
            self._send_json(
                503,
                {"error": "server over capacity; retry shortly"},
                headers={"Retry-After": str(RETRY_AFTER_SECONDS)},
            )
            return
        started = time.monotonic()
        try:
            injector = server.fault_injector
            if injector is not None:
                try:
                    injector.before_request(self.path)
                except InjectedServingError as error:
                    server.note_injected_error()
                    self._send_error_json(500, str(error))
                    return
            status, payload = compute()
            if server.deadline_exceeded(started):
                self._send_error_json(
                    504,
                    f"response deadline of {server.request_timeout}s exceeded",
                )
                return
            self._send_json(status, payload)
        finally:
            server.release()

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        service = self.server.service
        parsed = urlparse(self.path)
        if parsed.path == "/health":
            snapshot = service.snapshot
            self._send_json(
                200,
                {
                    "status": "ok",
                    "snapshot_version": snapshot.version,
                    "n_users": snapshot.n_users,
                    "n_items": snapshot.n_items,
                },
            )
            return
        if parsed.path == "/stats":
            self._send_json(200, self.server.stats_payload())
            return
        if parsed.path == "/recommend":
            self._admitted(lambda: self._recommend_single(parsed.query))
            return
        self._send_error_json(404, f"unknown path {parsed.path!r}")

    def _recommend_single(self, raw_query: str) -> tuple[int, dict[str, object]]:
        service = self.server.service
        query = parse_qs(raw_query)
        try:
            user = int(query["user"][0])
            k = int(query["k"][0]) if "k" in query else None
        except (KeyError, ValueError):
            return 400, {
                "error": "GET /recommend requires integer 'user' (and optional 'k')"
            }
        try:
            recommendation = service.top_k(user, k)
        except ServingError as error:
            return 400, {"error": str(error)}
        return 200, recommendation.to_json_dict()

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        parsed = urlparse(self.path)
        if parsed.path != "/recommend":
            self._send_error_json(404, f"unknown path {parsed.path!r}")
            return
        self._admitted(self._recommend_batch)

    def _recommend_batch(self) -> tuple[int, dict[str, object]]:
        service = self.server.service
        try:
            if self.request_body is None:
                raise ValueError("the request body has no readable length")
            payload = json.loads(self.request_body.decode("utf-8"))
            users = payload["users"]
            k = payload.get("k")
            if not isinstance(users, list) or not all(
                isinstance(user, int) for user in users
            ):
                raise ValueError("'users' must be a list of integers")
            if k is not None and not isinstance(k, int):
                raise ValueError("'k' must be an integer when given")
        except (ValueError, KeyError, TypeError) as error:
            return 400, {"error": f"bad batch request: {error}"}
        try:
            recommendations = service.top_k_batch(users, k)
        except ServingError as error:
            return 400, {"error": str(error)}
        return 200, {
            "recommendations": [
                recommendation.to_json_dict() for recommendation in recommendations
            ]
        }


class _ServingHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the service plus robustness state.

    One lock/condition pair guards the admission counter, the robustness
    counters, the request budget and the set of open connections; handler
    threads admit non-blockingly and the shutdown path waits on the
    condition for every connection to close.
    """

    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        service: RecommenderService,
        *,
        request_timeout: float | None = None,
        max_in_flight: int | None = None,
        fault_injector: ServingFaultInjector | None = None,
        max_requests: int | None = None,
    ) -> None:
        if request_timeout is not None and request_timeout <= 0:
            raise ServingError(
                f"request_timeout must be positive or None, got {request_timeout}"
            )
        if max_in_flight is not None and max_in_flight <= 0:
            raise ServingError(
                f"max_in_flight must be positive or None, got {max_in_flight}"
            )
        super().__init__(address, _ServingRequestHandler)
        self.service = service
        self.request_timeout = request_timeout
        self.max_in_flight = max_in_flight
        self.fault_injector = fault_injector
        self._admission = threading.Condition(threading.Lock())
        self._in_flight = 0
        self._shed_requests = 0
        self._deadline_hits = 0
        self._injected_errors = 0
        self._requests_left = max_requests
        self._connections: set[socket.socket] = set()
        #: Whether answers close their connection: the request budget is
        #: spent, or ``server_close`` has begun.
        self.closing = False

    def claim_request(self) -> bool:
        """Count one request against ``max_requests``; ``False`` once spent."""
        with self._admission:
            if self._requests_left is None:
                return True
            if self._requests_left == 0:
                return False
            self._requests_left -= 1
            if self._requests_left == 0:
                self.closing = True
            return True

    def process_request(self, request: Any, client_address: Any) -> None:
        """Register an accepted connection, then start its handler thread.

        Registering on the accepting thread means that once ``shutdown()``
        has returned, ``server_close`` and ``drain`` see every connection.
        """
        with self._admission:
            self._connections.add(request)
            if self.closing:
                _shut_reads(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request: Any) -> None:
        # Under the lock, so ``server_close`` never shuts a closed socket.
        with self._admission:
            self._connections.discard(request)
            super().shutdown_request(request)
            self._admission.notify_all()

    def server_close(self) -> None:
        """Close the listening socket and the read side of every connection.

        An idle persistent connection reads end-of-file and closes at once;
        a request in flight finishes, answered with ``Connection: close``.
        Non-daemon handler threads are then joined (``ThreadingMixIn``).
        """
        with self._admission:
            self.closing = True
            for connection in self._connections:
                _shut_reads(connection)
        super().server_close()

    def try_admit(self) -> bool:
        """Claim an in-flight slot, or shed the request (non-blocking)."""
        with self._admission:
            if (
                self.max_in_flight is not None
                and self._in_flight >= self.max_in_flight
            ):
                self._shed_requests += 1
                return False
            self._in_flight += 1
            return True

    def release(self) -> None:
        """Release an admitted request's slot."""
        with self._admission:
            self._in_flight -= 1

    def deadline_exceeded(self, started: float) -> bool:
        """Whether the request blew its response deadline (counted if so)."""
        if self.request_timeout is None:
            return False
        if time.monotonic() - started <= self.request_timeout:
            return False
        with self._admission:
            self._deadline_hits += 1
        return True

    def note_injected_error(self) -> None:
        """Count one injected (fault-injector) request failure."""
        with self._admission:
            self._injected_errors += 1

    def stats_payload(self) -> dict[str, object]:
        """The service's cache counters merged with the front end's."""
        payload: dict[str, object] = dict(self.service.stats())
        with self._admission:
            payload["in_flight"] = self._in_flight
            payload["shed_requests"] = self._shed_requests
            payload["deadline_hits"] = self._deadline_hits
            payload["injected_errors"] = self._injected_errors
        return payload

    def drain(self, timeout: float) -> bool:
        """Wait up to ``timeout`` seconds for every connection to close.

        In-flight requests finish inside their connection's handler, so
        this drains them too.  Call it after ``server_close()``, which ends
        idle persistent connections; before it, an idle connection stays
        open until :data:`IDLE_TIMEOUT_SECONDS`.  Returns whether the server
        fully drained — ``False`` means handler threads were still running
        at the deadline (they are daemons, so process exit will not hang on
        them).
        """
        deadline = time.monotonic() + timeout
        with self._admission:
            while self._connections:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._admission.wait(remaining)
            return True


def _shut_reads(connection: socket.socket) -> None:
    """End a connection's reads: its handler sees end-of-file, writes still work."""
    try:
        connection.shutdown(socket.SHUT_RD)
    except OSError:  # already closed by its handler
        pass


def build_http_server(
    service: RecommenderService,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    request_timeout: float | None = None,
    max_in_flight: int | None = None,
    fault_injector: ServingFaultInjector | None = None,
) -> _ServingHTTPServer:
    """A bound (but not yet serving) HTTP server for ``service``.

    ``port=0`` binds an ephemeral port (read it back from
    ``server.server_address``) — the form the tests use.  Call
    ``serve_forever()`` on the result (typically from a thread) and
    ``shutdown()`` / ``server_close()`` to stop.  See
    :class:`_ServingHTTPServer` for the robustness knobs.
    """
    return _ServingHTTPServer(
        (host, port),
        service,
        request_timeout=request_timeout,
        max_in_flight=max_in_flight,
        fault_injector=fault_injector,
    )


def run_http_server(
    service: RecommenderService,
    host: str = "127.0.0.1",
    port: int = 8080,
    *,
    max_requests: int | None = None,
    request_timeout: float | None = None,
    max_in_flight: int | None = None,
    fault_injector: ServingFaultInjector | None = None,
    drain_timeout: float = 5.0,
    stop_event: threading.Event | None = None,
) -> tuple[str, int]:
    """Bind and serve until stopped; returns the bound ``(host, port)``.

    ``max_requests`` bounds the number of requests answered before returning,
    whatever connections they arrive on: the last one is answered with
    ``Connection: close`` and later ones go unanswered (``0`` binds, reports
    the address and returns without serving — the CLI smoke-test mode);
    ``None`` serves until stopped.

    Every mode shuts down *cleanly*: ``SIGINT`` / ``SIGTERM`` (installed only
    when running on the main thread), ``stop_event`` (the programmatic/test
    hook) or the spent ``max_requests`` stop the accept loop, close the
    listening socket and every idle connection, then drain in-flight
    requests for up to ``drain_timeout`` seconds before returning — instead
    of tracebacking out of ``serve_forever`` mid-request.
    """
    if max_requests is not None and max_requests < 0:
        raise ServingError(f"max_requests must be non-negative, got {max_requests}")
    if drain_timeout < 0:
        raise ServingError(f"drain_timeout must be non-negative, got {drain_timeout}")
    server = _ServingHTTPServer(
        (host, port),
        service,
        request_timeout=request_timeout,
        max_in_flight=max_in_flight,
        fault_injector=fault_injector,
        max_requests=max_requests,
    )
    bound_host, bound_port = server.server_address[0], int(server.server_address[1])
    if max_requests == 0:
        server.server_close()
        return str(bound_host), bound_port

    stop = stop_event if stop_event is not None else threading.Event()
    previous_handlers: dict[int, Any] = {}
    if threading.current_thread() is threading.main_thread():
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                previous_handlers[signum] = signal.signal(
                    signum, lambda _signum, _frame: stop.set()
                )
            except (ValueError, OSError):  # pragma: no cover - exotic platforms
                pass
    serve_thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.1}, daemon=True
    )
    serve_thread.start()
    try:
        while not (stop.is_set() or server.closing):
            try:
                stop.wait(0.05)
            except KeyboardInterrupt:
                stop.set()
    finally:
        server.shutdown()
        serve_thread.join(timeout=5.0)
        server.server_close()
        server.drain(drain_timeout)
        for signum, handler in previous_handlers.items():
            signal.signal(signum, handler)
    return str(bound_host), bound_port
