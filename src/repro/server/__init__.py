"""The compile server: an HTTP/JSON front end over the compile backends.

This package turns the batch service of :mod:`repro.service` into a
network-facing, observable server:

* :mod:`repro.server.http` -- a stdlib ``ThreadingHTTPServer`` exposing
  ``POST /compile``, ``POST /batch`` (streaming NDJSON), ``GET /healthz``
  and ``GET /metrics``, with bounded-queue backpressure (429 when
  saturated);
* :mod:`repro.server.metrics` -- Prometheus-style live metrics
  (compile counters per target, compiles/s, retarget-cache and
  selector transition-cache hit rates, per-phase latency histograms) aggregated from
  the :class:`~repro.toolchain.results.CompileMetrics` block every
  result already carries.

Serve from the CLI (``repro serve --backend process``) or embed::

    from repro.server import start_server

    server = start_server(backend_kind="process", workers=4)
    print(server.url)       # POST jobs at <url>/compile
    ...
    server.close()
"""

from repro.server.http import (
    DEFAULT_MAX_BODY_BYTES,
    AdmissionGate,
    CompileRequestHandler,
    CompileServer,
    make_server,
    start_server,
)
from repro.server.metrics import ServerMetrics

__all__ = [
    "AdmissionGate",
    "CompileRequestHandler",
    "CompileServer",
    "DEFAULT_MAX_BODY_BYTES",
    "ServerMetrics",
    "make_server",
    "start_server",
]
