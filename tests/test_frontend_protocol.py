"""One protocol suite for both serving frontends.

The query daemon and the fleet router are the same socket frontend
(:mod:`repro.serve.frontend`) with different query answers, so every
protocol path is exercised against both: malformed frames, unknown
request types, the request check on ``timeout_s`` and on the name,
oversized replies, vanished clients and the draining reply.  The router runs over a stub
shard manager whose single shard is down -- none of these paths needs a
shard to answer, and a query that gets past admission proves it by
failing with the router's loud partial-gather error.
"""

from __future__ import annotations

import socket
import struct

import numpy as np
import pytest

from repro.core import OrisParams
from repro.data.synthetic import random_dna
from repro.io.bank import Bank
from repro.serve import OrisDaemon, ServeConfig, recv_frame, send_frame
from repro.serve import protocol as protocol_mod
from repro.serve.fleet import (
    FleetRouter,
    RouterConfig,
    ShardState,
    plan_fleet,
    required_overlap,
)
from repro.serve.frontend import MAX_TIMEOUT_S, FrontendConfig

_RNG = np.random.default_rng(2008)
_CORE = random_dna(_RNG, 300)
_BANK = Bank.from_strings(
    [("s1", random_dna(_RNG, 2_000) + _CORE + random_dna(_RNG, 2_000))]
)


class _DownManager:
    """A shard manager whose shards are all down (never spawns)."""

    def __init__(self, n_shards: int):
        self.n_shards = n_shards

    def endpoint(self, shard_id: int):
        return None

    def health(self) -> list[ShardState]:
        return [
            ShardState(
                shard_id=i, ok=False, pid=None, host=None, port=None,
                respawns=0, state="down",
            )
            for i in range(self.n_shards)
        ]


@pytest.fixture(params=["daemon", "router"])
def frontend(request):
    if request.param == "daemon":
        f = OrisDaemon(
            _BANK,
            OrisParams(),
            ServeConfig(n_workers=1, check_memory=False, max_delay_ms=1.0),
        )
    else:
        plan = plan_fleet(_BANK, 1, required_overlap(500))
        f = FleetRouter(
            plan, _DownManager(plan.n_shards), OrisParams(), RouterConfig()
        )
    f.start()
    yield f
    f.shutdown()


def _connect(frontend) -> socket.socket:
    return socket.create_connection(frontend.address, timeout=30.0)


def _ask(frontend, request: dict) -> dict:
    with _connect(frontend) as sock:
        send_frame(sock, request)
        return recv_frame(sock)


def _failed(frontend) -> int:
    return frontend.registry.value(f"{frontend.prefix}.requests_failed")


class TestMalformedFrame:
    def test_error_reply_then_connection_closes(self, frontend):
        with _connect(frontend) as sock:
            body = b"{not json"
            sock.sendall(struct.pack("!I", len(body)) + body)
            reply = recv_frame(sock)
            assert reply["status"] == "error"
            assert "not valid JSON" in reply["error"]
            assert recv_frame(sock) is None  # the frontend hung up

    def test_non_object_body_refused(self, frontend):
        with _connect(frontend) as sock:
            body = b"[1, 2]"
            sock.sendall(struct.pack("!I", len(body)) + body)
            reply = recv_frame(sock)
            assert reply["status"] == "error"
            assert recv_frame(sock) is None


class TestDispatch:
    def test_unknown_type_is_a_counted_error(self, frontend):
        reply = _ask(frontend, {"type": "bogus"})
        assert reply["status"] == "error"
        assert "unknown request type 'bogus'" in reply["error"]
        assert _failed(frontend) == 1

    def test_ping_and_stats(self, frontend):
        with _connect(frontend) as sock:
            send_frame(sock, {"type": "ping"})
            assert recv_frame(sock) == {"status": "ok"}
            send_frame(sock, {"type": "stats"})
            stats = recv_frame(sock)
        assert stats["status"] == "ok" and stats["draining"] is False
        assert "counters" in stats["metrics"]

    def test_query_without_sequence_is_a_counted_error(self, frontend):
        reply = _ask(frontend, {"type": "query", "name": "q"})
        assert reply["status"] == "error"
        assert _failed(frontend) == 1


class TestTimeoutCheck:
    @pytest.mark.parametrize(
        "timeout_s",
        [float("inf"), float("-inf"), float("nan"), 1e300, MAX_TIMEOUT_S * 2,
         -1, 0, "soon", None],
    )
    def test_bad_timeout_rejected_before_admission(self, frontend, timeout_s):
        reply = _ask(
            frontend,
            {"type": "query", "name": "q", "sequence": _CORE,
             "timeout_s": timeout_s},
        )
        assert reply == {
            "status": "error",
            "error": f"timeout_s must be in (0, {MAX_TIMEOUT_S:g}] seconds",
        }
        assert _failed(frontend) == 1
        # Refused before admission, so no slot taken and no work run.
        assert frontend.registry.value("serve.requests_accepted") == 0
        assert frontend.registry.value("serve.batches") == 0
        assert frontend.registry.value("fleet.partial_results") == 0

    def test_good_timeout_reaches_the_answer(self, frontend):
        reply = _ask(
            frontend,
            {"type": "query", "name": "q", "sequence": _CORE,
             "timeout_s": 30},
        )
        assert frontend.registry.value("serve.requests_accepted") == 1
        if isinstance(frontend, OrisDaemon):
            assert reply["status"] == "ok" and reply["m8"]
        else:  # the stub fleet's only shard is down: loud refusal
            assert reply["kind"] == "PartialGather"


class TestNameCheck:
    @pytest.mark.parametrize("name", ["a\tb", "a\rb", "a\nb", "q\n"])
    def test_separator_in_name_rejected_before_admission(self, frontend, name):
        reply = _ask(
            frontend, {"type": "query", "name": name, "sequence": _CORE}
        )
        assert reply == {
            "status": "error",
            "error": "a query name must not contain a tab, CR or LF",
        }
        assert _failed(frontend) == 1
        assert frontend.registry.value("serve.requests_accepted") == 0
        assert frontend.registry.value("serve.batches") == 0
        assert frontend.registry.value("fleet.partial_results") == 0


class TestOversizedReply:
    def test_downgraded_to_an_error(self, frontend, monkeypatch):
        # A stats reply that outgrows the cap; the request stays under it.
        frontend.registry.inc("padding." + "x" * 400)
        monkeypatch.setattr(protocol_mod, "MAX_FRAME_BYTES", 256)
        with _connect(frontend) as sock:
            send_frame(sock, {"type": "stats"})
            reply = recv_frame(sock)
            assert reply["status"] == "error"
            assert "too large" in reply["error"]
            # The connection survives the downgrade.
            send_frame(sock, {"type": "ping"})
            assert recv_frame(sock) == {"status": "ok"}
        assert (
            frontend.registry.value(f"{frontend.prefix}.responses_undeliverable")
            == 0
        )


class TestVanishedClient:
    def test_counted_as_undeliverable(self, frontend):
        # The client sends and hangs up before its replies: the frontend
        # reads the buffered requests, and its first send fails.
        server_end, client_end = socket.socketpair()
        send_frame(client_end, {"type": "ping"})
        send_frame(client_end, {"type": "ping"})
        client_end.close()
        frontend._serve_connection(server_end)
        name = f"{frontend.prefix}.responses_undeliverable"
        assert frontend.registry.value(name) == 1


class TestDraining:
    def test_draining_frontend_answers_draining(self, frontend):
        with _connect(frontend) as sock:
            frontend.admission.start_draining()
            send_frame(
                sock, {"type": "query", "name": "q", "sequence": _CORE}
            )
            reply = recv_frame(sock)
            assert reply["status"] == "draining"
            send_frame(sock, {"type": "stats"})
            assert recv_frame(sock)["draining"] is True
            send_frame(sock, {"type": "health"})
            health = recv_frame(sock)
        assert health["healthy"] is False
        assert health["components"][frontend.admission_component]["draining"]


class TestConfigChecks:
    @pytest.mark.parametrize("cls", [ServeConfig, RouterConfig])
    @pytest.mark.parametrize(
        "field, value",
        [
            ("max_queue", 0),
            ("max_query_nt", 0),
            ("request_timeout_s", 0),
            ("request_timeout_s", float("inf")),
            ("request_timeout_s", float("nan")),
            ("request_timeout_s", 1e300),
            ("drain_timeout_s", -1),
            ("drain_timeout_s", 1e300),
            ("retry_after_ms", -1),
        ],
    )
    def test_shared_fields_validated(self, cls, field, value):
        with pytest.raises(ValueError, match=field):
            cls(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [("max_delay_ms", -1), ("max_batch_queries", 0), ("max_batch_nt", 0)],
    )
    def test_serve_fields_validated(self, field, value):
        with pytest.raises(ValueError):
            ServeConfig(**{field: value})

    def test_tenant_quota_validated(self):
        with pytest.raises(ValueError, match="quota"):
            RouterConfig(tenant_quota=0)
        assert RouterConfig(tenant_quota=1).tenant_quota == 1

    def test_field_lists_share_the_frontend_fields(self):
        import dataclasses

        shared = {f.name for f in dataclasses.fields(FrontendConfig)}
        assert len(shared) == 7
        for cls in (ServeConfig, RouterConfig):
            assert shared <= {f.name for f in dataclasses.fields(cls)}
