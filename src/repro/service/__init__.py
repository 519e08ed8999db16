"""Compilation-as-a-service: wire serialization, artifact cache, HTTP front-end.

The compiler made the compile path fast (bit-packed conjugation, table-native
extraction, streaming peephole, overhead-aware batching); this sub-package is
the serving substrate on top of it:

* :mod:`repro.service.serialize` — a compact versioned wire format.
  Programs round-trip through their packed ``uint64`` words (base64 of the
  raw word matrix plus the coefficient vector, no per-term repacking),
  circuits through the OpenQASM path, and whole
  :class:`~repro.compiler.result.CompilationResult` objects through
  :func:`result_to_wire` / :func:`result_from_wire` — tableau, metadata and
  pass timings bit-exact.
* :mod:`repro.service.cache` — :class:`ArtifactCache`, a disk-backed
  content-addressed store of compiled results (canonical program/target/
  pipeline hash → serialized result) with an in-memory first layer, an index
  file, an LRU size cap, and atomic writes so concurrent processes can share
  one cache directory.
* :mod:`repro.service.scheduler` — :class:`BatchingScheduler`, a request
  coalescer that feeds the submissions of one event-loop tick through
  :func:`repro.compile_many` as one planned batch and lets a request join
  an in-flight compile of the same artifact key.
* :mod:`repro.service.server` / ``python -m repro.service`` — a stdlib-only
  ``asyncio`` HTTP JSON API (``POST /compile``, ``POST /compile_batch``,
  ``POST /compile_template``, ``POST /bind``, ``GET /result/<key>``,
  ``DELETE /result/<key>``, ``GET /healthz``, ``GET /metrics``).  Bind
  requests replay a pre-compiled :mod:`repro.parametric` template inline on
  the event loop — microseconds per request, never the scheduler —
  and splice the fresh angles into the template's pre-encoded result.
* :mod:`repro.service.client` — the thin synchronous :class:`Client` used by
  the examples, the smoke test, and the benchmark.
* :mod:`repro.service.fleet` / ``python -m repro.service --workers N`` —
  :class:`FleetFront`, a consistent-hash sharding front over N worker
  processes sharing one cache directory: warm-LRU affinity per artifact key,
  aggregated ``/healthz``, rolled-up ``/metrics``, draining restarts.
* :mod:`repro.service.telemetry` — counters and latency histograms surfaced
  on ``/metrics``.
* :mod:`repro.service.faults` — a process-wide fault-injection registry
  (``REPRO_FAULTS`` env / ``POST /fault`` behind ``--enable-faults``) with
  named fault sites threaded through the cache, scheduler, pool, server, and
  fleet, so the failure-hardening layers (deadlines, retries, shedding,
  circuit breakers) can be exercised deterministically.
* :mod:`repro.observability` — span-based distributed tracing threaded
  through every layer above (``X-Repro-Trace-Id`` propagation, ``GET
  /trace/<id>`` stitched across the fleet, slow-request logging) plus
  Prometheus text exposition on ``GET /metrics?format=prometheus``.

Quick start::

    $ PYTHONPATH=src python -m repro.service --port 8765 --cache-dir /tmp/repro-cache

    >>> from repro.service import Client
    >>> from repro.workloads.registry import get_benchmark
    >>> client = Client("127.0.0.1", 8765)
    >>> response = client.compile(get_benchmark("H2O").terms())
    >>> response.cache_hit, response.result.cx_count()
"""

from repro.service import faults
from repro.service.cache import ArtifactCache
from repro.service.client import Client, ServiceResponse, TemplateResponse
from repro.service.scheduler import (
    BatchingScheduler,
    CompileJob,
    execute_batch,
    execute_bind,
)
from repro.service.serialize import (
    WIRE_VERSION,
    bind_request_from_wire,
    bind_request_to_wire,
    circuit_from_wire,
    circuit_to_wire,
    parametric_program_from_wire,
    parametric_program_to_wire,
    pauli_from_wire,
    pauli_to_wire,
    program_from_wire,
    program_to_wire,
    result_from_wire,
    result_to_wire,
    sum_from_wire,
    sum_to_wire,
    tableau_from_wire,
    tableau_to_wire,
    template_from_wire,
    template_to_wire,
)
from repro.service.faults import FaultRegistry, FaultRule
from repro.service.fleet import CircuitBreaker, FleetFront, HashRing
from repro.service.server import ServiceServer, run_server_in_thread
from repro.service.telemetry import LatencyHistogram, Telemetry, merge_snapshots

__all__ = [
    "ArtifactCache",
    "BatchingScheduler",
    "CircuitBreaker",
    "Client",
    "CompileJob",
    "FaultRegistry",
    "FaultRule",
    "FleetFront",
    "HashRing",
    "faults",
    "LatencyHistogram",
    "merge_snapshots",
    "ServiceResponse",
    "ServiceServer",
    "Telemetry",
    "TemplateResponse",
    "WIRE_VERSION",
    "bind_request_from_wire",
    "bind_request_to_wire",
    "circuit_from_wire",
    "circuit_to_wire",
    "execute_batch",
    "execute_bind",
    "parametric_program_from_wire",
    "parametric_program_to_wire",
    "pauli_from_wire",
    "pauli_to_wire",
    "program_from_wire",
    "program_to_wire",
    "result_from_wire",
    "result_to_wire",
    "run_server_in_thread",
    "sum_from_wire",
    "sum_to_wire",
    "tableau_from_wire",
    "tableau_to_wire",
    "template_from_wire",
    "template_to_wire",
]
