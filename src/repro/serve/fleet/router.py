"""Fleet router: scatter queries to every shard, gather, merge exactly.

The router is a drop-in frontend: it is the same
:class:`~repro.serve.frontend.SocketFrontend` as a single daemon --
listener, connection threads, request check, admission, drain -- so
``scoris-n query`` and :class:`~repro.serve.client.OrisClient` work
against it unchanged.  Threading model: the frontend's main, acceptor
and connection threads, plus a scatter pool; the connection thread of
a query blocks on its gather.  Per query it:

1. admits (per-tenant quota, then the global bounded queue -- both shed
   with the standard ``shed``/``retry_after_ms`` contract);
2. **scatters** the query to every shard concurrently;
3. **gathers** the per-shard ``-m 8`` texts;
4. **merges** them with the tiles' own seam merge
   (:func:`repro.core.tiled.merge_shard_records`): each shard's
   ownership rule drops the non-owner copy of alignments straddling a
   window overlap (the canonical-generator property guarantees the
   owner's copy is the byte-identical whole alignment), subject
   coordinates are shifted back into the original sequences, and
   records are re-sorted with the engine's own key.

Because shards compute e-values and S1 thresholds from the *global*
profile (see :mod:`planner`), the merged byte stream equals what one
daemon over the whole bank would have produced.  The ``-m 8`` text
rounds e-values too coarsely to sort on, so the merge first restores
each parsed record's exact e-value from its bit score: the raw score is
recovered by inverting the bit-score formula -- rounding to the nearest
integer undoes the one-decimal formatting -- and fed through the same
Karlin-Altschul evaluator the shard used, which reproduces the shard's
float bit-for-bit (and so its formatted e-value).

Degraded mode is loud: if any shard cannot answer (down, unreachable,
mid-respawn), the query fails with a structured partial-result error
naming the missing shards -- a fleet never silently serves a subset of
the bank.  The ``fleet.shard_unreachable`` and ``fleet.partial_gather``
fault points let the chaos smoke force both paths deterministically.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

from ...align.evalue import karlin_params
from ...core.params import OrisParams
from ...core.tiled import merge_shard_records
from ...io.m8 import M8Record, format_m8
from ...obs import MetricsRegistry, span
from ...runtime import faults
from ...runtime.scheduler import ShutdownRequest
from ..admission import TenantQuotas
from ..client import OrisClient, ServiceError
from ..frontend import FrontendConfig, SocketFrontend
from ..protocol import ProtocolError
from .manager import ShardManager
from .planner import FleetPlan

__all__ = ["FleetRouter", "RouterConfig"]


@dataclass(frozen=True, kw_only=True)
class RouterConfig(FrontendConfig):
    """Router knobs (the ``serve-fleet`` subcommand maps onto these).

    The bind address, admission caps, timeouts and ``retry_after_ms``
    are the :class:`~repro.serve.frontend.FrontendConfig` fields.
    """

    #: Per-tenant in-flight cap; ``None`` disables tenant quotas.
    tenant_quota: int | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.tenant_quota is not None and self.tenant_quota < 1:
            raise ValueError("per-tenant quota must be >= 1")


class _ShardDown(RuntimeError):
    """One shard could not answer (down, unreachable, or injected)."""


class FleetRouter(SocketFrontend):
    """Scatter-gather frontend over a :class:`ShardManager`'s shards."""

    prefix = "fleet"
    admission_component = "router"

    def __init__(
        self,
        plan: FleetPlan,
        manager: ShardManager,
        params: OrisParams | None = None,
        config: RouterConfig | None = None,
        registry: MetricsRegistry | None = None,
        stop: ShutdownRequest | None = None,
    ):
        config = config or RouterConfig()
        # Shards own the memory; they shed themselves.
        super().__init__(config, registry, stop, check_memory=False)
        self.plan = plan
        self.manager = manager
        self.params = params or OrisParams()
        self._stats = karlin_params(self.params.scoring)
        self._specs = sorted(plan.specs, key=lambda s: s.shard_id)
        self.tenants = (
            TenantQuotas(config.tenant_quota, registry=self.registry)
            if config.tenant_quota is not None
            else None
        )
        self._scatter: ThreadPoolExecutor | None = None

    def ready_message(self) -> str:
        host, port = self.address
        return (
            f"FLEET READY host={host} port={port} "
            f"shards={self.manager.n_shards}"
        )

    def _start_backend(self) -> None:
        self._scatter = ThreadPoolExecutor(
            max_workers=max(4 * self.manager.n_shards, 4),
            thread_name_prefix="fleet-scatter",
        )

    def _tick(self) -> None:
        self._update_degraded_gauge()

    def _drain_in_flight(self) -> None:
        # In-flight scatters run on connection threads; give them the
        # drain budget.
        deadline = time.monotonic() + self.config.drain_timeout_s
        while self.admission.in_flight > 0 and time.monotonic() < deadline:
            time.sleep(0.05)

    def _close(self) -> None:
        if self._scatter is not None:
            self._scatter.shutdown(wait=False)

    # ------------------------------------------------------------------ #
    # Requests
    # ------------------------------------------------------------------ #

    def _update_degraded_gauge(self) -> int:
        down = sum(1 for s in self.manager.health() if not s.ok)
        self.registry.set_gauge("fleet.shards_degraded", float(down))
        return down

    def _handle_health(self) -> dict:
        return {**super()._handle_health(), "n_shards": self.manager.n_shards}

    def _health_components(self) -> dict:
        """One entry per shard: its supervision state (up, port, respawn
        count) *and* its daemon's component health, fetched over the
        wire.  The fleet is healthy when every shard is up and
        internally healthy and the router is not draining.
        """
        shards: dict[str, dict] = {}
        for state in self.manager.health():
            entry: dict = {
                "ok": state.ok,
                "state": state.state,
                "pid": state.pid,
                "port": state.port,
                "respawns": state.respawns,
            }
            if state.ok and state.port is not None:
                try:
                    with OrisClient(
                        state.host or "127.0.0.1",
                        state.port,
                        timeout=5.0,
                        retries=0,
                    ) as client:
                        report = client.health()
                    entry["healthy"] = bool(report.get("healthy"))
                    entry["components"] = report.get("components", {})
                    entry["ok"] = entry["ok"] and entry["healthy"]
                except (ServiceError, ProtocolError, OSError) as exc:
                    entry["ok"] = False
                    entry["error"] = str(exc)
            shards[f"shard{state.shard_id}"] = entry
        self._update_degraded_gauge()
        return shards

    def _admit(self, request: dict, query_nt: int) -> dict | None:
        # Tenant quota first (fairness), then the global bounded queue
        # (capacity) -- both shed with the retry hint.
        tenant = request.get("tenant", "")
        if not isinstance(tenant, str):
            return self._fail("tenant must be a string")
        if self.tenants is None:
            return super()._admit(request, query_nt)
        refusal = self._refusal(self.tenants.try_acquire(tenant))
        if refusal is None:
            refusal = super()._admit(request, query_nt)
            if refusal is not None:
                self.tenants.release(tenant)
        return refusal

    def _answer_query(
        self, name: str, sequence: str, timeout_s: float, request: dict
    ) -> dict:
        try:
            return self._scatter_gather(name, sequence, timeout_s)
        finally:
            self.admission.release()
            if self.tenants is not None:
                self.tenants.release(request.get("tenant", ""))

    # ------------------------------------------------------------------ #
    # Scatter / gather / merge
    # ------------------------------------------------------------------ #

    def _query_shard(
        self, shard_id: int, name: str, sequence: str, timeout_s: float
    ) -> str:
        if faults.should_fire("fleet.shard_unreachable", f"{shard_id}:{name}"):
            raise _ShardDown(
                f"fault injection: shard {shard_id} unreachable"
            )
        endpoint = self.manager.endpoint(shard_id)
        if endpoint is None:
            raise _ShardDown(f"shard {shard_id} is down (respawning)")
        host, port = endpoint
        try:
            with OrisClient(
                host, port, timeout=timeout_s + 5.0, retries=1
            ) as client:
                return client.query(name, sequence, timeout_s=timeout_s)
        except (ServiceError, ProtocolError, OSError) as exc:
            raise _ShardDown(f"shard {shard_id}: {exc}") from exc

    def _scatter_gather(
        self, name: str, sequence: str, timeout_s: float
    ) -> dict:
        assert self._scatter is not None
        n = len(self._specs)
        t0 = time.perf_counter()
        self.registry.observe("fleet.scatter_fanout", n)
        with span("fleet.query", query=name, shards=n):
            futures = [
                self._scatter.submit(
                    self._query_shard, spec.shard_id, name, sequence, timeout_s
                )
                for spec in self._specs
            ]
            results: list[tuple[int, str]] = []
            failures: list[str] = []
            for spec, future in zip(self._specs, futures):
                try:
                    results.append((spec.shard_id, future.result()))
                except _ShardDown as exc:
                    failures.append(str(exc))
            if not failures and faults.should_fire("fleet.partial_gather", name):
                dropped_id, _text = results.pop()
                failures.append(
                    f"fault injection: shard {dropped_id}'s partial result "
                    "dropped mid-gather"
                )
        wait_ms = (time.perf_counter() - t0) * 1000.0
        self.registry.observe("fleet.gather_wait_ms", wait_ms)
        degraded = self._update_degraded_gauge()
        if failures:
            self.registry.inc("fleet.partial_results")
            return {
                "status": "error",
                "kind": "PartialGather",
                "error": (
                    f"partial result refused: {len(failures)} of {n} shards "
                    f"unavailable ({'; '.join(failures)})"
                ),
                "shards_ok": len(results),
                "shards_total": n,
                "shards_degraded": degraded,
                "retry_after_ms": self.config.retry_after_ms,
            }
        merged, deduped = self._merge(sequence, results)
        if deduped:
            self.registry.inc("fleet.seam_hits_deduped", deduped)
        self.registry.inc("fleet.queries")
        return {"status": "ok", "m8": merged}

    def _merge(
        self, sequence: str, results: list[tuple[int, str]]
    ) -> tuple[str, int]:
        """Parse, restore exact e-values, seam-merge, format.

        Every non-empty line is a record: query names come from the
        client verbatim, so a name that starts with ``#`` or a space, or
        is empty, must survive the round trip (no comment skipping, no
        stripping).  Shards are merged in ``shard_id`` order and the
        sort is stable, so within-shard tie order (= the shard's own
        generation order) is preserved.
        """
        stats = self._stats
        full_nt = self.plan.profile.full_nt
        m = len(sequence)
        ln2 = math.log(2.0)
        ln_k = math.log(stats.k)
        spec_of = {spec.shard_id: spec for spec in self._specs}

        def exact(line):
            rec = M8Record.from_line(line)
            raw = round((rec.bit_score * ln2 + ln_k) / stats.lam)
            return replace(
                rec, evalue=stats.evalue(raw, m, full_nt[rec.subject_id])
            )

        records, deduped = merge_shard_records(
            (
                (spec_of[shard_id], [exact(ln) for ln in text.split("\n") if ln])
                for shard_id, text in sorted(results)
            ),
            self.params.sort_key,
        )
        return format_m8(records), deduped
