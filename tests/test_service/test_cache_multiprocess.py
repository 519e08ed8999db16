"""N processes on one cache dir: the shared-directory contract, end to end.

Drives ``scripts/cache_stress.py`` — the same harness an operator can run at
larger scale — at a size small enough for CI.  The script exits non-zero if
any process crashes, the object files overshoot the shared budget by more
than the per-process byte counts allow, any protected artifact is lost or
corrupted, the index fails to reconcile to a fixed point or to list exactly
the files present after a sweep, or an atomic-write temp file leaks.
"""

import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
STRESS = REPO_ROOT / "scripts" / "cache_stress.py"


def _run(*extra):
    return subprocess.run(
        [sys.executable, str(STRESS), *extra],
        capture_output=True,
        text=True,
        timeout=600,
    )


class TestMultiprocessStress:
    def test_three_processes_share_one_dir(self, tmp_path):
        result = _run(
            "--processes", "3",
            "--ops", "50",
            "--cache-dir", str(tmp_path / "shared"),
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "OK:" in result.stdout

    def test_deletes_races_and_sweeps_corrupt_nothing(self, tmp_path):
        # a different seed shuffles which keys contend on delete/sweep
        result = _run(
            "--processes", "2",
            "--ops", "80",
            "--seed", "99",
            "--cache-dir", str(tmp_path / "shared"),
        )
        assert result.returncode == 0, result.stdout + result.stderr

    def test_small_budget_holds_across_processes(self, tmp_path):
        # ~5 of the universe's ~3.6 KB artifacts: every process evicts, and
        # each sees the others' writes only through its periodic rescans
        result = _run(
            "--processes", "3",
            "--ops", "60",
            "--max-bytes", "20000",
            "--cache-dir", str(tmp_path / "shared"),
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "OK:" in result.stdout
