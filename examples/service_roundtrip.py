"""Compilation-as-a-service round trip: server, client, cache hits, metrics.

Runs the whole serving story in one process: an in-thread service server
backed by a persistent artifact cache, a client compiling the H2O
Hamiltonian-simulation workload over HTTP (cold), compiling it again (warm
cache hit), verifying the results are identical, and reading /metrics.

Against a standalone server the client half is the same — start one with::

    PYTHONPATH=src python -m repro.service --port 8765 --cache-dir /tmp/repro-cache

and point ``Client("127.0.0.1", 8765)`` at it.

Run with:  PYTHONPATH=src python examples/service_roundtrip.py
"""

import tempfile
import time

import repro
from repro.service import Client, ServiceServer, run_server_in_thread
from repro.workloads.registry import get_benchmark


def main() -> None:
    terms = get_benchmark("H2O").terms()
    print(f"workload: H2O — {len(terms)} Pauli rotations on 8 qubits")

    with tempfile.TemporaryDirectory(prefix="repro-service-demo-") as cache_dir:
        server = ServiceServer(cache_dir=cache_dir)
        with run_server_in_thread(server):
            print(f"server listening on {server.address}")
            with Client(port=server.port) as client:
                start = time.perf_counter()
                cold = client.compile(terms, level=3)
                cold_ms = (time.perf_counter() - start) * 1e3
                print(
                    f"cold compile: {cold_ms:7.2f} ms over HTTP | "
                    f"cache_hit={cold.cache_hit} | "
                    f"cx={cold.result.cx_count()} "
                    f"depth={cold.result.entangling_depth()}"
                )

                start = time.perf_counter()
                warm = client.compile(terms, level=3)
                warm_ms = (time.perf_counter() - start) * 1e3
                print(
                    f"warm compile: {warm_ms:7.2f} ms over HTTP | "
                    f"cache_hit={warm.cache_hit} | "
                    f"{cold_ms / warm_ms:.1f}x faster"
                )
                assert warm.result.circuit == cold.result.circuit

                # the artifact is addressable by its content key
                fetched = client.result(warm.key)
                print(f"GET /result/{warm.key[:12]}…: circuit with {len(fetched.circuit)} gates")

                # and the local compile agrees bit-for-bit
                local = repro.compile(terms, level=3)
                assert fetched.circuit == local.circuit
                print("served circuit identical to a local repro.compile: True")

                metrics = client.metrics()
                cache_stats = metrics["cache"]
                print(
                    f"metrics: {cache_stats['hits']} cache hits, "
                    f"{cache_stats['misses']} misses, "
                    f"{cache_stats['disk_bytes']} bytes on disk, "
                    f"{metrics['telemetry']['counters']['service.http_requests']} "
                    "HTTP requests"
                )


if __name__ == "__main__":
    main()
