"""Tests for scripts/check_bench_regression.py, including the strict mode."""

import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
SCRIPT = REPO_ROOT / "scripts" / "check_bench_regression.py"

BASELINE = {
    "schema": "repro-bench-throughput/v1",
    "workloads": {
        "toy": {
            "packed_terms_per_sec": 1000.0,
            "extraction_terms_per_sec": 500.0,
            "peephole_gates_per_sec": 2000.0,
            "speedup": 6.25,
        }
    },
}

CURRENT_OK = {
    "schema": "repro-bench-throughput/v1",
    "workloads": {
        "toy": {
            "packed_terms_per_sec": 1200.0,
            "extraction_terms_per_sec": 600.0,
            "peephole_gates_per_sec": 2500.0,
            "speedup": 8.0,
        }
    },
}


def _run(tmp_path, baseline, current, *extra):
    baseline_path = tmp_path / "baseline.json"
    current_path = tmp_path / "current.json"
    baseline_path.write_text(json.dumps(baseline))
    current_path.write_text(json.dumps(current))
    return subprocess.run(
        [sys.executable, str(SCRIPT), str(baseline_path), str(current_path), *extra],
        capture_output=True,
        text=True,
    )


class TestRegressionCheck:
    def test_passes_when_above_floors(self, tmp_path):
        result = _run(tmp_path, BASELINE, CURRENT_OK)
        assert result.returncode == 0, result.stdout + result.stderr

    def test_fails_on_regression(self, tmp_path):
        bad = json.loads(json.dumps(CURRENT_OK))
        bad["workloads"]["toy"]["peephole_gates_per_sec"] = 100.0
        result = _run(tmp_path, BASELINE, bad)
        assert result.returncode == 1
        assert "REGRESSION" in result.stdout

    def test_tolerance_allows_small_drop(self, tmp_path):
        slightly_low = json.loads(json.dumps(CURRENT_OK))
        slightly_low["workloads"]["toy"]["packed_terms_per_sec"] = 850.0  # -15%
        result = _run(tmp_path, BASELINE, slightly_low, "--tolerance", "0.2")
        assert result.returncode == 0

    def test_missing_workload_fails(self, tmp_path):
        result = _run(tmp_path, BASELINE, {"workloads": {}})
        assert result.returncode == 1
        assert "MISSING" in result.stdout


class TestStrictMode:
    def test_strict_fails_when_floored_metric_missing_from_output(self, tmp_path):
        dropped = json.loads(json.dumps(CURRENT_OK))
        del dropped["workloads"]["toy"]["peephole_gates_per_sec"]
        result = _run(tmp_path, BASELINE, dropped, "--strict")
        assert result.returncode == 1
        assert "NOT MEASURED" in result.stdout

    def test_strict_fails_when_gated_metric_has_no_floor(self, tmp_path):
        unfloored = json.loads(json.dumps(BASELINE))
        del unfloored["workloads"]["toy"]["peephole_gates_per_sec"]
        result = _run(tmp_path, unfloored, CURRENT_OK, "--strict")
        assert result.returncode == 1
        assert "NO FLOOR" in result.stdout

    def test_non_strict_keeps_legacy_behaviour_for_unfloored_metric(self, tmp_path):
        # without --strict a missing floor silently passes (the gap strict
        # mode exists to close)
        unfloored = json.loads(json.dumps(BASELINE))
        del unfloored["workloads"]["toy"]["peephole_gates_per_sec"]
        result = _run(tmp_path, unfloored, CURRENT_OK)
        assert result.returncode == 0

    def test_strict_passes_on_complete_reports(self, tmp_path):
        result = _run(tmp_path, BASELINE, CURRENT_OK, "--strict")
        assert result.returncode == 0

    def test_committed_baselines_have_every_gated_floor(self):
        # the committed floors must stay strict-clean: every METRICS entry
        # needs a floor in both tier baselines, and the service/parametric
        # blocks need every gated floor
        sys.path.insert(0, str(REPO_ROOT / "scripts"))
        try:
            from check_bench_regression import METRICS, PARAMETRIC_METRICS, SERVICE_METRICS
        finally:
            sys.path.pop(0)
        for tier_file in (
            "bench_throughput_baseline.json",
            "bench_throughput_baseline_medium.json",
        ):
            committed = json.loads(
                (REPO_ROOT / "benchmarks" / "baselines" / tier_file).read_text()
            )
            for workload, entry in committed["workloads"].items():
                for metric in METRICS:
                    assert metric in entry, f"{tier_file}: {workload} lacks {metric}"
            for block, metrics in (
                ("service", SERVICE_METRICS),
                ("parametric", PARAMETRIC_METRICS),
            ):
                assert block in committed, f"{tier_file} lacks the {block} block"
                for metric in metrics:
                    assert metric in committed[block], f"{tier_file}: {block} lacks {metric}"


SERVICE_BASELINE = dict(
    BASELINE,
    service={
        "warm_hit_speedup": 100.0,
        "requests_per_sec": 50.0,
        "bind_requests_per_sec": 150.0,
    },
)
SERVICE_CURRENT = dict(
    CURRENT_OK,
    service={
        "warm_hit_speedup": 5000.0,
        "requests_per_sec": 200.0,
        "bind_requests_per_sec": 400.0,
    },
)


class TestServiceGate:
    def test_passes_above_service_floors(self, tmp_path):
        result = _run(tmp_path, SERVICE_BASELINE, SERVICE_CURRENT, "--strict")
        assert result.returncode == 0, result.stdout + result.stderr

    def test_fails_on_service_regression(self, tmp_path):
        slow = json.loads(json.dumps(SERVICE_CURRENT))
        slow["service"]["warm_hit_speedup"] = 3.0
        result = _run(tmp_path, SERVICE_BASELINE, slow)
        assert result.returncode == 1
        assert "REGRESSION" in result.stdout

    def test_reports_without_service_blocks_still_pass(self, tmp_path):
        # pre-service baselines stay comparable, strict or not
        result = _run(tmp_path, BASELINE, CURRENT_OK, "--strict")
        assert result.returncode == 0

    def test_strict_fails_when_service_block_vanishes(self, tmp_path):
        result = _run(tmp_path, SERVICE_BASELINE, CURRENT_OK, "--strict")
        assert result.returncode == 1
        assert "MISSING" in result.stdout

    def test_strict_fails_when_service_has_no_floor(self, tmp_path):
        result = _run(tmp_path, BASELINE, SERVICE_CURRENT, "--strict")
        assert result.returncode == 1
        assert "NO FLOOR" in result.stdout

    def test_strict_fails_when_one_service_metric_unmeasured(self, tmp_path):
        partial = json.loads(json.dumps(SERVICE_CURRENT))
        del partial["service"]["requests_per_sec"]
        result = _run(tmp_path, SERVICE_BASELINE, partial, "--strict")
        assert result.returncode == 1
        assert "NOT MEASURED" in result.stdout


PARAMETRIC_BASELINE = dict(
    SERVICE_BASELINE,
    parametric={"bind_seconds": 0.0002, "bind_requests_per_sec": 150.0},
)
PARAMETRIC_CURRENT = dict(
    SERVICE_CURRENT,
    parametric={
        "bind_seconds": 0.00015,
        "bind_speedup": 150.0,
        "bind_requests_per_sec": 400.0,
    },
)


class TestParametricGate:
    def test_passes_above_parametric_floors(self, tmp_path):
        result = _run(tmp_path, PARAMETRIC_BASELINE, PARAMETRIC_CURRENT, "--strict")
        assert result.returncode == 0, result.stdout + result.stderr

    def test_fails_when_bind_seconds_exceeds_its_ceiling(self, tmp_path):
        slow = json.loads(json.dumps(PARAMETRIC_CURRENT))
        slow["parametric"]["bind_seconds"] = 0.0002 * 1.21  # past the 20%
        result = _run(tmp_path, PARAMETRIC_BASELINE, slow)
        assert result.returncode == 1
        assert "REGRESSION" in result.stdout

    def test_bind_speedup_is_reported_not_gated(self, tmp_path):
        # a faster cold compile lowers the ratio without any bind slowdown
        faster_compile = json.loads(json.dumps(PARAMETRIC_CURRENT))
        faster_compile["parametric"]["bind_speedup"] = 1.0
        result = _run(tmp_path, PARAMETRIC_BASELINE, faster_compile, "--strict")
        assert result.returncode == 0, result.stdout + result.stderr

    def test_strict_fails_when_parametric_block_vanishes(self, tmp_path):
        result = _run(tmp_path, PARAMETRIC_BASELINE, SERVICE_CURRENT, "--strict")
        assert result.returncode == 1
        assert "MISSING" in result.stdout

    def test_reports_without_parametric_blocks_still_pass(self, tmp_path):
        # pre-parametric baselines stay comparable, strict or not
        result = _run(tmp_path, SERVICE_BASELINE, SERVICE_CURRENT, "--strict")
        assert result.returncode == 0
