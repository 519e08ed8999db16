"""Run oracle tasks in two worker processes and collect their results.

Each worker is ``python3 perfbench/workers.py FUNCTION`` with a pickled task
list on stdin and the pickled results on stdout; the bytes only ever travel
between this benchmark's own processes.

Usage from the benchmark::

    results = parallel_map("verify_row", tasks, costs)
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys

from common import BENCH_DIR, SRC

WORKERS = 2


def parallel_map(function: str, tasks: list, costs: list[float], timeout: float = 150.0) -> list:
    """Results of ``oracle.<function>(task)``, balanced by estimated cost."""
    bins: list[list[int]] = [[] for _ in range(WORKERS)]
    loads = [0.0] * WORKERS
    for index in sorted(range(len(tasks)), key=lambda i: -costs[i]):
        target = loads.index(min(loads))
        bins[target].append(index)
        loads[target] += costs[index]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    processes = []
    try:
        for indices in bins:
            if not indices:
                continue
            process = subprocess.Popen(
                [sys.executable, str(BENCH_DIR / "workers.py"), function],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
            )
            processes.append((indices, process))
            # a worker reads all of its input before it starts computing
            process.stdin.write(pickle.dumps([tasks[i] for i in indices]))
            process.stdin.close()
        results: list = [None] * len(tasks)
        for indices, process in processes:
            output = process.stdout.read()
            if process.wait(timeout=timeout) != 0:
                raise RuntimeError(f"oracle worker exited with {process.returncode}")
            for index, value in zip(indices, pickle.loads(output)):
                results[index] = value
        return results
    finally:
        for _, process in processes:
            if process.poll() is None:
                process.kill()
            process.wait()


def main(function: str) -> int:
    import oracle

    tasks = pickle.loads(sys.stdin.buffer.read())
    handler = getattr(oracle, function)
    sys.stdout.buffer.write(pickle.dumps([handler(task) for task in tasks]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
