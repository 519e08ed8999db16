"""A long-lived process pool for the compile stage.

:class:`CompilePool` is the only way :func:`repro.compile_many` leaves the
calling process.  The workers are forked/spawned **once**, pre-import
:mod:`repro` (and with it numpy and the packed engine), warm a per-worker
:class:`~repro.clifford.engine.ConjugationCache`, and then survive across
batches.  A service scheduler that owns one can shard every batch over real
cores for the cost of pickling the programs alone, so
:func:`~repro.compiler.api.plan_batch` hands it any batch above the plain
pool-overhead cutoff (~2.5k terms).  Without a live pool, ``compile_many``
opens a transient one only for batches of ~20k terms and more, where the
GIL-bound synthesis dwarfs worker spawn and ``import repro``.

The pool is deliberately forgiving about worker death: a batch that trips
:class:`~concurrent.futures.process.BrokenProcessPool` (a worker OOM-killed
or segfaulted mid-compile) marks the executor broken, tears it down, and
raises :class:`CompilePoolBrokenError`; the *next* use transparently builds a
fresh executor.  :func:`repro.compile_many` catches that error and finishes
the batch serially in-process, so callers see a slower batch, never a
failed one.

Construction is cheap (the executor is created lazily on first use) and
``max_workers=0`` is an explicit "no pool" marker: :meth:`CompilePool.usable`
is false and every planner treats the pool as absent — the knob a service
operator uses to keep compilation in-process on a one-core box.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from repro.exceptions import CompilerError


class CompilePoolBrokenError(CompilerError):
    """A pool batch died with its workers; the caller should fall back."""


#: per-worker conjugation cache, created by the pool initializer so the very
#: first batch a worker sees already pools its tableau freezes
_WORKER_CACHE = None


def _pool_initializer() -> None:
    """Run once per worker process: pre-import the engine, warm the cache."""
    global _WORKER_CACHE
    import repro  # noqa: F401 — the import itself is the warmup

    from repro.clifford.engine import ConjugationCache

    _WORKER_CACHE = ConjugationCache()


def _pool_worker(payload):
    """Compile one (pipeline, device, program) payload in a worker."""
    global _WORKER_CACHE
    if _WORKER_CACHE is None:  # initializer skipped (never on CPython, but cheap)
        from repro.clifford.engine import ConjugationCache

        _WORKER_CACHE = ConjugationCache()
    pipeline, device, program = payload
    result = pipeline.run(
        program, target=device, properties={"conjugation_cache": _WORKER_CACHE}
    )
    # never pickle the worker's whole conjugation cache back with every
    # result: the payload would grow as O(results x cache size), and the
    # result's lazy absorbers tolerate a missing cache
    result.properties.pop("conjugation_cache", None)
    return result


def _warmup_probe() -> int:
    """A near-no-op task submitted per worker to force eager process spawn.

    The brief sleep keeps each probe in flight long enough that the executor
    has to spawn a distinct worker per probe instead of serving them all
    from the first one.
    """
    import time

    time.sleep(0.05)
    return os.getpid()


class CompilePool:
    """A reusable process pool dedicated to pipeline compilation.

    Parameters
    ----------
    max_workers:
        Pool width.  ``None`` resolves to ``os.cpu_count()`` (capped at 32);
        ``0`` disables the pool entirely (:attr:`usable` is false), which is
        how a service on a single-core box opts back into in-process
        compilation without changing any call sites.

    Thread-safe: the scheduler's worker threads may race batch submissions
    and a broken-pool teardown.
    """

    def __init__(self, max_workers: int | None = None):
        if max_workers is None:
            max_workers = min(os.cpu_count() or 1, 32)
        self.max_workers = int(max_workers)
        if self.max_workers < 0:
            raise CompilerError(
                f"CompilePool needs max_workers >= 0, got {self.max_workers}"
            )
        self._executor: ProcessPoolExecutor | None = None
        self._lock = threading.Lock()
        self.batches = 0
        self.programs = 0
        self.restarts = 0
        self.breaks = 0

    # ------------------------------------------------------------------ #
    @property
    def usable(self) -> bool:
        """Whether planners may route batches here (``max_workers > 0``)."""
        return self.max_workers > 0

    @property
    def alive(self) -> bool:
        """Whether a live executor currently exists (it is created lazily)."""
        with self._lock:
            return self._executor is not None

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if not self.usable:
            raise CompilerError("this CompilePool is disabled (max_workers=0)")
        with self._lock:
            if self._executor is None:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.max_workers, initializer=_pool_initializer
                )
                self.restarts += 1  # counts executor (re)creations; first is 1
            return self._executor

    def warm(self, timeout: float | None = 60.0) -> int:
        """Force the workers to spawn and finish importing; returns the count.

        Without this the first batch pays the spawn+import latency; a server
        calls it at startup so the pool is hot before traffic arrives.
        """
        if not self.usable:
            return 0
        executor = self._ensure_executor()
        futures = [executor.submit(_warmup_probe) for _ in range(self.max_workers)]
        pids = set()
        for future in futures:
            pids.add(future.result(timeout=timeout))
        return len(pids)

    # ------------------------------------------------------------------ #
    def map_compile(
        self,
        pipeline,
        device,
        programs,
        chunksize: int = 1,
    ) -> list:
        """Compile ``programs`` through the warm workers, in input order.

        Raises :class:`CompilePoolBrokenError` when the pool dies mid-batch
        (the executor is torn down; the next call rebuilds it), so callers
        can fall back to an in-process strategy without losing the batch.
        """
        # Lazy import: repro.service imports this module, so a top-level
        # import of the fault registry would be circular.
        from repro.service import faults

        faults.fire("pool.dispatch")
        executor = self._ensure_executor()
        payloads = [(pipeline, device, program) for program in programs]
        try:
            results = list(
                executor.map(_pool_worker, payloads, chunksize=max(1, int(chunksize)))
            )
        except BrokenProcessPool as error:
            self._discard_executor(executor)
            with self._lock:
                self.breaks += 1
            raise CompilePoolBrokenError(
                f"compile pool lost its workers mid-batch ({error}); "
                "the batch should fall back to in-process execution"
            ) from error
        with self._lock:
            self.batches += 1
            self.programs += len(payloads)
        return results

    def _discard_executor(self, executor: ProcessPoolExecutor) -> None:
        with self._lock:
            if self._executor is executor:
                self._executor = None
        executor.shutdown(wait=False, cancel_futures=True)

    def shutdown(self) -> None:
        """Terminate the workers; the pool may be lazily revived afterwards."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)

    def terminate(self) -> None:
        """Kill the worker processes now: no join, no lock.

        For a SIGTERM handler on its way out of the process, where
        :meth:`shutdown` could wait on busy workers or on the lock the
        interrupted thread holds.  The pool may be revived afterwards.
        """
        # ProcessPoolExecutor keeps its live workers in ``_processes``
        processes = getattr(self._executor, "_processes", None) or {}
        for process in list(processes.values()):
            process.terminate()

    def __enter__(self) -> "CompilePool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # ------------------------------------------------------------------ #
    def stats(self) -> dict:
        """JSON-safe pool counters for ``/metrics``."""
        with self._lock:
            return {
                "max_workers": self.max_workers,
                "alive": self._executor is not None,
                "batches": self.batches,
                "programs": self.programs,
                "restarts": self.restarts,
                "breaks": self.breaks,
            }

    def __repr__(self) -> str:
        return (
            f"CompilePool(max_workers={self.max_workers}, alive={self.alive}, "
            f"batches={self.batches})"
        )
