"""``python -m repro.service`` — run the compilation service.

Example::

    PYTHONPATH=src python -m repro.service --port 8765 --cache-dir /var/cache/repro

``--workers N`` (N >= 1) starts a fleet instead: N worker processes sharing
one artifact-cache directory behind a consistent-hash sharding front
(:mod:`repro.service.fleet`); every other flag is forwarded to the workers.

The server prints one ``repro.service listening on http://host:port`` line
once it is accepting connections (machine-parsable: the smoke test reads the
ephemeral port from it when started with ``--port 0``).
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import os
import signal
import sys

from repro.observability import DEFAULT_CAPACITY, DEFAULT_SAMPLE_RATE, TRACER
from repro.service.cache import DEFAULT_MAX_BYTES, DEFAULT_MAX_TEMPLATE_BYTES
from repro.service.scheduler import DEFAULT_MAX_QUEUE_DEPTH

DEFAULT_CACHE_DIR = os.path.join("~", ".cache", "repro-service")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address (default %(default)s)")
    parser.add_argument(
        "--port", type=int, default=8765, help="TCP port; 0 picks an ephemeral one"
    )
    parser.add_argument(
        "--cache-dir",
        default=os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR),
        help="artifact cache directory (REPRO_CACHE_DIR env; default %(default)s); "
        "'none' disables caching",
    )
    parser.add_argument(
        "--max-cache-mb",
        type=float,
        default=DEFAULT_MAX_BYTES / (1024 * 1024),
        help="disk budget of the artifact cache in MiB (default %(default)s)",
    )
    parser.add_argument(
        "--max-template-mb",
        type=float,
        default=DEFAULT_MAX_TEMPLATE_BYTES / (1024 * 1024),
        help="disk budget of the template store in MiB (default %(default)s)",
    )
    parser.add_argument(
        "--pool-workers",
        type=int,
        default=0,
        help="size of the long-lived compile process pool each server keeps "
        "warm (0 disables it — compilation stays in-process)",
    )
    parser.add_argument(
        "--ttl-seconds",
        type=float,
        default=0.0,
        help="expire cached artifacts/templates idle for this long "
        "(0 disables TTL expiry)",
    )
    parser.add_argument(
        "--sweep-interval",
        type=float,
        default=60.0,
        help="seconds between background cache-lifecycle sweeps "
        "(0 disables the sweep task; default %(default)s)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="run a fleet of this many worker processes behind a "
        "consistent-hash sharding front (0 = single-process server)",
    )
    parser.add_argument(
        "--max-queue-depth",
        type=int,
        default=DEFAULT_MAX_QUEUE_DEPTH,
        help="shed compile requests (503 + Retry-After) once this many are "
        "pending or in flight on the scheduler (0 disables shedding; "
        "default %(default)s)",
    )
    parser.add_argument(
        "--drain-timeout",
        type=float,
        default=10.0,
        help="seconds a draining fleet restart waits for a worker's "
        "in-flight requests before terminating it anyway "
        "(default %(default)s)",
    )
    parser.add_argument(
        "--breaker-threshold",
        type=int,
        default=5,
        help="consecutive upstream failures before a fleet worker's circuit "
        "breaker opens (0 disables the breaker; default %(default)s)",
    )
    parser.add_argument(
        "--breaker-cooldown",
        type=float,
        default=2.0,
        help="seconds an open circuit breaker sheds before sending a "
        "half-open probe (default %(default)s)",
    )
    parser.add_argument(
        "--enable-faults",
        action="store_true",
        help="allow POST /fault to arm the fault-injection registry "
        "(chaos testing only; never enable in production)",
    )
    parser.add_argument(
        "--trace-sample",
        type=float,
        default=DEFAULT_SAMPLE_RATE,
        help="fraction of untagged requests to head-sample into the trace "
        "ring (X-Repro-Trace: 1 always forces a trace; default %(default)s)",
    )
    parser.add_argument(
        "--slow-request-ms",
        type=float,
        default=0.0,
        help="log a structured slow-request line to stderr (trace id + "
        "per-span breakdown) for requests slower than this many "
        "milliseconds (0 disables; default %(default)s)",
    )
    parser.add_argument(
        "--trace-buffer",
        type=int,
        default=DEFAULT_CAPACITY,
        help="completed spans retained in the process-local trace ring "
        "buffer (default %(default)s)",
    )
    return parser


async def _serve(server) -> None:
    from repro.service.fleet import FleetFront

    await server.start()
    if isinstance(server, FleetFront):
        # SIGTERM cancels the serve task so the ``finally`` below runs and the
        # front terminates its workers instead of orphaning them.
        with contextlib.suppress(NotImplementedError):  # no signal support
            asyncio.get_running_loop().add_signal_handler(
                signal.SIGTERM, asyncio.current_task().cancel
            )
    elif server.scheduler.pool is not None:
        _exit_on_sigterm(server.scheduler.pool)
    print(f"repro.service listening on {server.address}", flush=True)
    try:
        await server.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        await server.aclose()


def _exit_on_sigterm(pool) -> None:
    """SIGTERM on a single server: kill its compile-pool workers, then exit.

    The exit itself stays abrupt (the default action): the fleet front's
    restart and respawn paths count on a terminated worker dropping its
    sockets at once.  Pool workers forked later inherit the handler, so it
    only touches the pool in the process that installed it.
    """
    owner = os.getpid()

    def handler(signum, _frame):
        if os.getpid() == owner:
            pool.terminate()
        signal.signal(signum, signal.SIG_DFL)
        os.kill(os.getpid(), signum)

    signal.signal(signal.SIGTERM, handler)


def _fleet_worker_args(args: argparse.Namespace) -> "list[str]":
    """The per-worker CLI flags a fleet forwards (cache dir rides separately)."""
    return [
        "--max-cache-mb", str(args.max_cache_mb),
        "--max-template-mb", str(args.max_template_mb),
        "--pool-workers", str(args.pool_workers),
        "--ttl-seconds", str(args.ttl_seconds),
        "--sweep-interval", str(args.sweep_interval),
        "--max-queue-depth", str(args.max_queue_depth),
        "--trace-sample", str(args.trace_sample),
        "--slow-request-ms", str(args.slow_request_ms),
        "--trace-buffer", str(args.trace_buffer),
    ]


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    cache_dir = None if args.cache_dir.lower() == "none" else os.path.expanduser(args.cache_dir)
    if args.trace_buffer > 0 and args.trace_buffer != TRACER.capacity:
        TRACER.resize(args.trace_buffer)
    if args.workers > 0:
        from repro.service.fleet import FleetFront

        server = FleetFront(
            workers=args.workers,
            cache_dir=cache_dir,
            host=args.host,
            port=args.port,
            worker_args=_fleet_worker_args(args),
            drain_timeout=args.drain_timeout,
            breaker_threshold=args.breaker_threshold,
            breaker_cooldown=args.breaker_cooldown,
            enable_faults=args.enable_faults,
            trace_sample=args.trace_sample,
            slow_request_ms=args.slow_request_ms,
        )
    else:
        from repro.service.cache import ArtifactCache
        from repro.service.server import ServiceServer

        cache = None
        if cache_dir is not None:
            cache = ArtifactCache(
                cache_dir,
                max_bytes=int(args.max_cache_mb * 1024 * 1024),
                max_template_bytes=int(args.max_template_mb * 1024 * 1024),
                ttl_seconds=args.ttl_seconds if args.ttl_seconds > 0 else None,
            )
        server = ServiceServer(
            cache=cache,
            host=args.host,
            port=args.port,
            pool_workers=args.pool_workers,
            sweep_interval=args.sweep_interval,
            max_queue_depth=args.max_queue_depth,
            enable_faults=args.enable_faults,
            trace_sample=args.trace_sample,
            slow_request_ms=args.slow_request_ms,
        )
    with contextlib.suppress(KeyboardInterrupt):
        asyncio.run(_serve(server))
    return 0


if __name__ == "__main__":
    sys.exit(main())
