"""Resident ORIS query service (the ROADMAP's serving north star).

Every other entry point in this package is batch-shaped: load two banks,
build or mmap the index, compare, exit.  The paper's own cost model says
that is the wrong shape for query traffic -- step 1 indexing of the
subject bank is the *fixed* cost and step 2's seed-major enumeration is
what should run per request.  This subpackage inverts the process
lifetime accordingly:

* :mod:`repro.serve.daemon` -- a long-lived process that loads the
  subject bank once (through :class:`~repro.index.persist.IndexCache`,
  so restarts are O(1) mmap loads), publishes the subject-side worker
  arrays into a :class:`~repro.runtime.shm.SharedArena` once, keeps a
  persistent :class:`~repro.runtime.scheduler.WorkerPool`, and answers
  queries forever;
* :mod:`repro.serve.frontend` -- the socket server the daemon and the
  fleet router share: listener, connection threads, the request check,
  admission replies and the drain order;
* :mod:`repro.serve.protocol` -- the length-prefixed socket framing
  shared by every frontend and the client;
* :mod:`repro.serve.batcher` -- the micro-batcher that coalesces
  in-flight queries into one ephemeral query bank per batch;
* :mod:`repro.serve.engine` -- the batch comparison core, whose output
  is *byte-identical* per query to a single-shot ``compare`` run (the
  property the test suite and the CI smoke test enforce);
* :mod:`repro.serve.admission` -- bounded-queue admission control with
  per-request deadlines and 429-style shedding wired to the resource
  governor's memory headroom check;
* :mod:`repro.serve.client` -- the blocking client library behind
  ``python -m repro.cli query``.
"""

from .admission import AdmissionController, AdmissionDecision
from .batcher import MicroBatcher, PendingQuery
from .client import (
    OrisClient,
    QueryFailed,
    QueryPoisoned,
    ServerDraining,
    ServerShed,
    ServiceError,
)
from .engine import BatchEngine
from .daemon import OrisDaemon, ServeConfig
from .protocol import ProtocolError, recv_frame, send_frame

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "BatchEngine",
    "MicroBatcher",
    "OrisClient",
    "OrisDaemon",
    "PendingQuery",
    "ProtocolError",
    "QueryFailed",
    "QueryPoisoned",
    "ServeConfig",
    "ServerDraining",
    "ServerShed",
    "ServiceError",
    "recv_frame",
    "send_frame",
]
