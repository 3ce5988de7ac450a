"""The socket frontend shared by the query daemon and the fleet router.

Both serving processes speak the length-prefixed JSON protocol of
:mod:`repro.serve.protocol` to the same clients, so everything between
the listening socket and a query's answer lives here once.

Threading model (deliberately boring):

* the **main thread** owns the listener's lifecycle and the drain
  (:meth:`SocketFrontend.serve_forever` blocks on the shared
  :class:`~repro.runtime.scheduler.ShutdownRequest`, the primitive --
  and signal plumbing -- the batch runtime drains with, calling the
  subclass's per-tick hook every half second);
* one **acceptor thread** accepts connections;
* one short-lived **connection thread per client** reads frames,
  dispatches ``ping``/``health``/``stats``/``query`` (plus a subclass's
  admin ops), performs the request check and admission, blocks on the
  answer, and sends it with :func:`try_send`.

The request check rejects a query without a string ``name`` and a
non-empty ``sequence``, any ``timeout_s`` outside ``(0, MAX_TIMEOUT_S]``
(infinite and NaN included), and a name holding a tab, CR or LF (it
would split its m8 records), before admission takes a slot.  Every
rejection, unknown request type and unexpected handler exception is a
structured ``{"status": "error"}`` reply counted in
``{prefix}.requests_failed``; a malformed frame is answered once, then
the connection closes.

Graceful drain (:meth:`SocketFrontend.shutdown`): admission flips to
``draining`` (new queries get a clean ``draining`` reply), the listener
closes, in-flight work finishes (:meth:`SocketFrontend._drain_in_flight`),
connection reads stop so their threads exit after flushing, and the
backend closes (:meth:`SocketFrontend._close`).

A subclass supplies only what differs between frontends: the query
answer, the health components, the admin ops, the per-tick hook, the
in-flight drain, the backend start/close, the metric prefix and the
READY line.
"""

from __future__ import annotations

import math
import socket
import threading
import time
from dataclasses import dataclass

from ..obs import MetricsRegistry, span
from ..runtime.scheduler import ShutdownRequest
from .admission import AdmissionController, AdmissionDecision
from .protocol import ProtocolError, recv_frame, send_frame

__all__ = ["MAX_TIMEOUT_S", "FrontendConfig", "SocketFrontend", "try_send"]

#: Upper bound on every frontend timeout (config and per-request), one
#: week.  Far beyond any query, yet small enough that a timeout plus the
#: drain timeout plus the daemon's grace still fits ``threading`` waits
#: and socket timeouts on every platform (``threading.TIMEOUT_MAX``).
MAX_TIMEOUT_S = 7 * 86_400.0


@dataclass(frozen=True, kw_only=True)
class FrontendConfig:
    """Knobs every serving frontend has, validated on construction."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = pick a free port; announced on stdout
    max_queue: int = 64
    max_query_nt: int = 1_000_000
    request_timeout_s: float = 60.0
    drain_timeout_s: float = 30.0
    #: Backoff hint shipped in ``shed`` responses; a well-behaved client
    #: (``OrisClient``) sleeps roughly this long before retrying.
    retry_after_ms: float = 100.0

    def __post_init__(self) -> None:
        if not 0 <= self.port <= 65535:
            raise ValueError("port must be in 0..65535")
        if self.max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if self.max_query_nt < 1:
            raise ValueError("max_query_nt must be >= 1")
        if not 0 < self.request_timeout_s <= MAX_TIMEOUT_S:
            raise ValueError(
                f"request_timeout_s must be in (0, {MAX_TIMEOUT_S:g}] seconds"
            )
        if not 0 <= self.drain_timeout_s <= MAX_TIMEOUT_S:
            raise ValueError(
                f"drain_timeout_s must be in [0, {MAX_TIMEOUT_S:g}] seconds"
            )
        if not self.retry_after_ms >= 0:
            raise ValueError("retry_after_ms must be >= 0")


_TOO_LARGE = {
    "status": "error",
    "error": "response frame too large for the protocol cap",
}


def try_send(
    conn: socket.socket, obj: dict, registry: MetricsRegistry, prefix: str
) -> bool:
    """Best-effort reply delivery; never raises.

    A client that vanished before its answer is normal service weather,
    but not silently ignorable: every undelivered reply is work wasted,
    so it is counted (``{prefix}.responses_undeliverable``).  A reply
    over the protocol cap is downgraded to a structured error so the
    client gets a diagnosis instead of a dead socket.
    """
    try:
        send_frame(conn, obj)
        return True
    except ProtocolError:
        try:
            send_frame(conn, _TOO_LARGE)
            return True
        except OSError:
            pass
    except OSError:
        pass
    registry.inc(f"{prefix}.responses_undeliverable")
    return False


class SocketFrontend:
    """Listener, connections, dispatch, request check, admission, drain."""

    #: Metric and span namespace (``serve`` or ``fleet``).
    prefix = "serve"
    #: Request types answered by :meth:`_handle_admin`.
    admin_ops: tuple[str, ...] = ()
    #: Health component that reports the admission state.
    admission_component = "admission"

    def __init__(
        self,
        config: FrontendConfig,
        registry: MetricsRegistry | None,
        stop: ShutdownRequest | None,
        *,
        check_memory: bool,
    ):
        self.config = config
        self.registry = registry if registry is not None else MetricsRegistry()
        self.stop = stop if stop is not None else ShutdownRequest()
        self.admission = AdmissionController(
            max_queue=config.max_queue,
            max_query_nt=config.max_query_nt,
            registry=self.registry,
            check_memory=check_memory,
        )
        self._listener: socket.socket | None = None
        self._acceptor: threading.Thread | None = None
        self._conns: set[socket.socket] = set()
        self._conn_threads: list[threading.Thread] = []
        self._conn_lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------ #
    # What a subclass supplies
    # ------------------------------------------------------------------ #

    def ready_message(self) -> str:
        raise NotImplementedError

    def _start_backend(self) -> None:
        """Start the query machinery before the first accept."""

    def _tick(self) -> None:
        """Main-loop hook, called about every half second."""

    def _drain_in_flight(self) -> None:
        """Let admitted queries finish (bounded by ``drain_timeout_s``)."""

    def _close(self) -> None:
        """Tear down the query machinery after the last connection."""

    def _health_components(self) -> dict:
        return {}

    def _handle_admin(self, kind: str, request: dict) -> dict:
        raise NotImplementedError

    def _answer_query(
        self, name: str, sequence: str, timeout_s: float, request: dict
    ) -> dict:
        """Answer one admitted query; owns releasing its admission."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    @property
    def address(self) -> tuple[str, int]:
        """Bound ``(host, port)``; valid after :meth:`start`."""
        if self._listener is None:
            raise RuntimeError(f"{type(self).__name__} is not started")
        addr = self._listener.getsockname()
        return addr[0], addr[1]

    def start(self):
        """Bind, start the backend and the acceptor; returns immediately."""
        if self._listener is not None:
            return self
        listener = socket.create_server(
            (self.config.host, self.config.port), backlog=128
        )
        listener.settimeout(0.2)  # poll granularity for shutdown
        self._listener = listener
        self._start_backend()
        self._acceptor = threading.Thread(
            target=self._accept_loop,
            name=f"{self.prefix}-acceptor",
            daemon=True,
        )
        self._acceptor.start()
        return self

    def serve_forever(self) -> int:
        """Run until the shutdown request trips; returns an exit code."""
        self.start()
        with span(f"{self.prefix}.run"):
            while not self.stop.is_set():
                self.stop.wait(0.5)
                self._tick()
        self.shutdown()
        return 0

    def shutdown(self) -> None:
        """Graceful drain: finish in-flight work, refuse the rest, stop."""
        if self._closed:
            return
        self._closed = True
        self.stop.trip(self.stop.signum)
        # 1. No new queries (admission) and no new connections (listener).
        self.admission.start_draining()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:  # pragma: no cover - already torn
                pass
        if self._acceptor is not None:
            self._acceptor.join(timeout=2.0)
        # 2. Admitted queries finish and their answers are determined
        #    (none were, if start() failed before the acceptor ran).
        if self._acceptor is not None:
            self._drain_in_flight()
        # 3. Let connection threads flush their response frames, then
        #    stop their reads (EOF) so they exit.
        with self._conn_lock:
            conns = list(self._conns)
            threads = list(self._conn_threads)
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RD)
            except OSError:
                pass
        deadline = time.monotonic() + 5.0
        for thread in threads:
            thread.join(timeout=max(deadline - time.monotonic(), 0.1))
        # 4. Tear down the query machinery.
        self._close()

    # ------------------------------------------------------------------ #
    # Accept / connection handling
    # ------------------------------------------------------------------ #

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self.stop.is_set():
            try:
                conn, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:  # listener closed by shutdown
                return
            conn.settimeout(None)
            thread = threading.Thread(
                target=self._serve_connection,
                args=(conn,),
                name=f"{self.prefix}-conn",
                daemon=True,
            )
            with self._conn_lock:
                self._conns.add(conn)
                # Prune finished threads so a long-lived frontend with
                # many short connections does not accrete thread objects.
                self._conn_threads = [
                    t for t in self._conn_threads if t.is_alive()
                ]
                self._conn_threads.append(thread)
            thread.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            with conn:
                while True:
                    try:
                        request = recv_frame(conn)
                    except ProtocolError as exc:
                        self._send(conn, {"status": "error", "error": str(exc)})
                        return
                    except OSError:  # reset mid-read: nobody to answer
                        return
                    if request is None:
                        return
                    try:
                        response = self._handle(request)
                    except Exception as exc:  # noqa: BLE001 - answer, then live on
                        response = self._fail(repr(exc))
                    if not self._send(conn, response):
                        return
        finally:
            with self._conn_lock:
                self._conns.discard(conn)

    def _send(self, conn: socket.socket, obj: dict) -> bool:
        return try_send(conn, obj, self.registry, self.prefix)

    # ------------------------------------------------------------------ #
    # Request handling
    # ------------------------------------------------------------------ #

    def _fail(self, message: str) -> dict:
        """A structured error reply, counted as a failed request."""
        self.registry.inc(f"{self.prefix}.requests_failed")
        return {"status": "error", "error": message}

    def _handle(self, request: dict) -> dict:
        kind = request.get("type")
        if kind == "ping":
            return {"status": "ok"}
        if kind == "health":
            return self._handle_health()
        if kind == "stats":
            return {
                "status": "ok",
                "metrics": self.registry.as_dict(),
                "draining": self.admission.draining,
            }
        if kind == "query":
            return self._handle_query(request)
        if kind in self.admin_ops:
            return self._handle_admin(kind, request)
        return self._fail(f"unknown request type {kind!r}")

    def _handle_health(self) -> dict:
        """Per-component states plus one verdict: their conjunction."""
        components = {
            **self._health_components(),
            self.admission_component: {
                "ok": not self.admission.draining,
                "in_flight": self.admission.in_flight,
                "draining": self.admission.draining,
            },
        }
        healthy = all(c.get("ok", False) for c in components.values())
        return {"status": "ok", "healthy": healthy, "components": components}

    def _handle_query(self, request: dict) -> dict:
        """The one request check, then admission, then the answer."""
        name = request.get("name", "query")
        sequence = request.get("sequence")
        if not isinstance(name, str) or not isinstance(sequence, str) or not sequence:
            return self._fail(
                "a query needs a string name and a non-empty sequence"
            )
        try:
            timeout_s = float(
                request.get("timeout_s", self.config.request_timeout_s)
            )
        except (TypeError, ValueError):
            timeout_s = math.nan
        if not 0 < timeout_s <= MAX_TIMEOUT_S:
            return self._fail(
                f"timeout_s must be in (0, {MAX_TIMEOUT_S:g}] seconds"
            )
        if any(c in name for c in "\t\r\n"):  # m8 field/record separators
            return self._fail("a query name must not contain a tab, CR or LF")
        refusal = self._admit(request, len(sequence))
        if refusal is not None:
            return refusal
        return self._answer_query(name, sequence, timeout_s, request)

    def _admit(self, request: dict, query_nt: int) -> dict | None:
        """Take an admission slot; ``None`` when admitted, else the reply."""
        return self._refusal(self.admission.try_admit(query_nt))

    def _refusal(self, decision: AdmissionDecision) -> dict | None:
        if decision.admitted:
            return None
        response: dict = {"status": decision.status, "reason": decision.reason}
        if decision.status == "shed":
            response["retry_after_ms"] = self.config.retry_after_ms
        return response
