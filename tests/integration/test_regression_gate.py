"""The perf-regression gate end to end, via the real CLI.

Runs ``benchmarks/check_results.py`` as a subprocess against temp
results/baselines directories: the gate must pass on results identical
to their baselines, fail loudly on an injected 10% cycle regression
(the bands are ±5%: deterministic simulated cycles allow tight bands),
honor per-metric overrides, and append one trajectory entry per run.
The committed results are gated through a copy, so a test run leaves
``benchmarks/results/trajectory.json`` as it found it.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
CHECK = REPO / "benchmarks" / "check_results.py"

RESULT = {
    "schema": "repro-bench-result/v1",
    "benchmark": "fig7",
    "config": {"packets": 384},
    "metrics": {
        "domU-twin": 9972.0,
        "linux": 7130.0,
        "nested": {"xen_cycles_per_packet": 8482.0},
        "fast_path": ["netif_rx"],          # non-numeric: never gated
        "host_wall_seconds": 1.23,          # non-deterministic: excluded
    },
    "obs": {},
}


def run_check(*args, timeout=60):
    return subprocess.run(
        [sys.executable, str(CHECK), *args],
        capture_output=True, text=True, timeout=timeout,
    )


def write_result(results_dir, doc):
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{doc['benchmark']}.json").write_text(json.dumps(doc))


def seed(tmp_path):
    results = tmp_path / "results"
    baselines = tmp_path / "baselines"
    write_result(results, RESULT)
    out = run_check(str(results), "--baselines-dir", str(baselines),
                    "--update-baselines")
    assert out.returncode == 0, out.stdout + out.stderr
    return results, baselines


class TestGate:
    def test_passes_on_unchanged_results(self, tmp_path):
        results, baselines = seed(tmp_path)
        out = run_check(str(results), "--baselines-dir", str(baselines),
                        "--gate")
        assert out.returncode == 0, out.stdout + out.stderr
        assert "0 regressions -> PASS" in out.stdout

    def test_fails_on_injected_ten_percent_regression(self, tmp_path):
        results, baselines = seed(tmp_path)
        worse = json.loads(json.dumps(RESULT))
        worse["metrics"]["domU-twin"] *= 1.10
        write_result(results, worse)
        out = run_check(str(results), "--baselines-dir", str(baselines),
                        "--gate")
        assert out.returncode == 1
        assert "REGRESSION fig7:domU-twin" in out.stdout
        assert "+10.0%" in out.stdout and "FAIL" in out.stdout

    def test_nested_and_excluded_metrics(self, tmp_path):
        results, baselines = seed(tmp_path)
        baseline = json.loads((baselines / "fig7.json").read_text())
        # flattened dotted keys, wall-clock and lists excluded
        assert "nested.xen_cycles_per_packet" in baseline["metrics"]
        assert "host_wall_seconds" not in baseline["metrics"]
        assert "fast_path" not in baseline["metrics"]
        # regress the nested metric only
        worse = json.loads(json.dumps(RESULT))
        worse["metrics"]["nested"]["xen_cycles_per_packet"] *= 0.8
        write_result(results, worse)
        out = run_check(str(results), "--baselines-dir", str(baselines),
                        "--gate")
        assert out.returncode == 1
        assert "fig7:nested.xen_cycles_per_packet" in out.stdout

    def test_per_metric_override_widens_the_band(self, tmp_path):
        results, baselines = seed(tmp_path)
        path = baselines / "fig7.json"
        baseline = json.loads(path.read_text())
        baseline["overrides"] = {"domU-twin": 0.25}
        path.write_text(json.dumps(baseline))
        worse = json.loads(json.dumps(RESULT))
        worse["metrics"]["domU-twin"] *= 1.10    # inside the widened band
        write_result(results, worse)
        out = run_check(str(results), "--baselines-dir", str(baselines),
                        "--gate")
        assert out.returncode == 0, out.stdout

    def test_disappeared_metric_is_a_regression(self, tmp_path):
        results, baselines = seed(tmp_path)
        worse = json.loads(json.dumps(RESULT))
        del worse["metrics"]["linux"]
        write_result(results, worse)
        out = run_check(str(results), "--baselines-dir", str(baselines),
                        "--gate")
        assert out.returncode == 1
        assert "metric disappeared" in out.stdout

    def test_unbaselined_benchmark_is_a_note_not_a_failure(self, tmp_path):
        results, baselines = seed(tmp_path)
        extra = json.loads(json.dumps(RESULT))
        extra["benchmark"] = "fig8"
        write_result(results, extra)
        out = run_check(str(results), "--baselines-dir", str(baselines),
                        "--gate")
        assert out.returncode == 0
        assert "note fig8: no baseline committed" in out.stdout

    def test_trajectory_accumulates_one_entry_per_gate_run(self, tmp_path):
        results, baselines = seed(tmp_path)
        run_check(str(results), "--baselines-dir", str(baselines), "--gate")
        worse = json.loads(json.dumps(RESULT))
        worse["metrics"]["domU-twin"] *= 1.10
        write_result(results, worse)
        run_check(str(results), "--baselines-dir", str(baselines), "--gate")
        doc = json.loads((results / "trajectory.json").read_text())
        assert doc["schema"] == "repro-perf-trajectory/v1"
        assert [r["ok"] for r in doc["runs"]] == [True, False]
        assert [r["seq"] for r in doc["runs"]] == [0, 1]
        assert doc["runs"][1]["regressions"]

    def test_plain_mode_still_validates_schemas(self, tmp_path):
        results = tmp_path / "results"
        write_result(results, RESULT)
        (results / "broken.json").write_text("{\"schema\": \"nope\"}")
        out = run_check(str(results))
        assert out.returncode == 1
        assert "FAIL broken.json" in out.stdout


class TestCommittedBaselines:
    def test_gate_passes_against_committed_results(self, tmp_path):
        # the repo's own results/baselines must agree at all times. The
        # gate appends to its results' trajectory, so it runs over a copy
        # of the committed results, against the committed baselines
        results = tmp_path / "results"
        shutil.copytree(REPO / "benchmarks" / "results", results)
        out = run_check(str(results), "--gate")
        assert out.returncode == 0, out.stdout + out.stderr
        assert "PASS" in out.stdout
