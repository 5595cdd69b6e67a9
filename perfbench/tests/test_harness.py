"""Self-test of the benchmark harness: tiny variants of every workload.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(BENCH))
import tracing  # noqa: E402


def run_bench(workload, trace, cwd=ROOT, bench=BENCH):
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = run_bench(workload, trace)
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= (2 if trace else 3)
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
        assert f"{name} = " in proc.stdout
    assert "fingerprint: " in proc.stdout
    assert "failed_ratio = 0 " in proc.stdout


def test_all_runs_every_workload_in_one_command():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "all",
         "--seconds", "1", "--trace", "0", "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    result = result_of(proc)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {
        f"{w['name']}/{m['name']}"
        for w in SPEC["workloads"] for m in SPEC["end_to_end"]}
    assert proc.stdout.count("failed_ratio = 0 ") == len(SPEC["workloads"])


def test_traced_counts_repeat_exactly_with_two_threads():
    counts = []
    for _ in range(2):
        metrics = result_of(run_bench("interface-t2", 1))["metrics"]
        counts.append({k: m["value"] for k, m in metrics.items()
                       if m["unit"] in ("count", "bytes")})
    assert counts[0] == counts[1]
    # 300 samples in two chunks, 64 fine steps each, one window per chunk
    assert counts[0]["noise.philox.calls"] == 300
    assert counts[0]["engine.advance.calls"] == 2 * 64


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("results", ".work-*", "__pycache__"))
    proc = run_bench("moments", 0, cwd=tmp_path, bench=tmp_path / BENCH.name)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_recorder_counts_every_span_under_thread_contention():
    rec = tracing.Recorder()
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def work():
            for _ in range(2000):
                rec.span("outer", rec.span, "inner", lambda: None)

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
    assert rec.calls("outer") == rec.calls("inner", parent="outer") == 16000
