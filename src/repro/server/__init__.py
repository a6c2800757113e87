"""The serving subsystem: a concurrent, durable update-processing server.

The paper's thesis is a *uniform* update-processing interface; this package
is that interface made servable:

- :mod:`repro.server.engine` -- :class:`DatabaseEngine`, the thread-safe
  core: single-writer/multi-reader locking, one serial commit step, group
  commit (one WAL fsync per batch);
- :mod:`repro.server.protocol` -- the versioned JSON-lines protocol whose
  request types map 1:1 onto the Table 4.1 problems;
- :mod:`repro.server.server` -- the threaded TCP server, one blocking
  session thread per connection (timeouts, connection backpressure,
  graceful checkpointing shutdown);
- :mod:`repro.server.client` -- a small blocking client;
- :mod:`repro.server.resilient` -- :class:`ResilientClient`, the
  self-healing front: reconnect, jittered backoff, deadline budgets and
  txn-id-stamped exactly-once commit retries;
- :mod:`repro.server.metrics` -- per-request-type counters and latency
  histograms, surfaced through the ``stats`` request.

``repro serve DIR`` / ``repro call OP`` are the CLI entry points.
"""

from repro.server.engine import (
    CommitOutcome,
    DatabaseEngine,
    EngineClosedError,
    IdempotencyError,
    RWLock,
    checked_commit,
)
from repro.server.metrics import LatencyHistogram, MetricsRegistry
from repro.server.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    Request,
    Response,
    decode_request,
    decode_response,
    dispatch,
)
from repro.server.client import (
    ConnectionLostError,
    DatabaseClient,
    ServerError,
)
from repro.server.resilient import (
    DeadlineExceeded,
    ResilientClient,
    RetriesExhausted,
)
from repro.server.server import DatabaseServer, ServerThread, run

__all__ = [
    "CommitOutcome",
    "ConnectionLostError",
    "DatabaseClient",
    "DatabaseEngine",
    "DatabaseServer",
    "DeadlineExceeded",
    "EngineClosedError",
    "IdempotencyError",
    "LatencyHistogram",
    "MetricsRegistry",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "Request",
    "Response",
    "ResilientClient",
    "RetriesExhausted",
    "RWLock",
    "ServerError",
    "ServerThread",
    "checked_commit",
    "decode_request",
    "decode_response",
    "dispatch",
    "run",
]
