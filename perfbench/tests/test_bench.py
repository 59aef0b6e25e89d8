"""The benchmark's own tests: result schema on tiny inputs, failure
accounting, speed scaling, the tracer, and refusal to run without the
program.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

from calibrate import REFERENCE_MS, SpeedProbe
from conftest import BENCH
from harness import Phase, end_to_end_metrics, run_benchmark, speed_factor
from radfiner import pipeline
from radfiner.network import RadFinerNet
from tracing import Tracer
from workloads import WORKLOADS

ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]


def _run(workload, trace, tmp_path):
    lines = []
    result = run_benchmark(workload, 1, 0.3, trace, root=ROOT,
                           work_dir=tmp_path / "work", scale="tiny", log=lines.append)
    return result, lines


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_schema(workload, trace, tmp_path):
    result, lines = _run(workload, trace, tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
    for m in result["metrics"].values():
        assert set(m) == {"value", "unit"} and math.isfinite(m["value"])
    record = json.loads(next(l for l in lines if l.startswith("record "))[7:])
    env = record["environment"]
    for key in ("cpu_model", "nproc", "blas", "python", "numpy", "scipy", "git_commit"):
        assert key in env
    assert record["seed"] == 1 and len(record["load_average_after"]) == 3
    assert record["peak_rss_scope"] == "timed loop"
    assert set(record["raw_metrics"]) == set(END_TO_END)
    assert record["speed_kernel_ms"]["samples"] >= 2
    assert not (tmp_path / "work").exists()


def test_timings_scale_by_the_median_kernel_time():
    phase = Phase(times=[0.1, 0.3], units=4)
    speed = speed_factor([REFERENCE_MS, 2 * REFERENCE_MS, 2 * REFERENCE_MS])
    assert speed == 0.5
    raw = end_to_end_metrics(phase, [2.0], 100.0, 2, 0, 1.0)
    scaled = end_to_end_metrics(phase, [2.0], 100.0, 2, 0, speed)
    assert raw["latency_p50_ms"] == pytest.approx(200.0)
    assert scaled["latency_p50_ms"] == pytest.approx(100.0)
    assert scaled["throughput_per_s"] == pytest.approx(20.0)
    assert scaled["setup_s"] == pytest.approx(1.0)
    assert scaled["peak_rss_mb"] == raw["peak_rss_mb"] == 100.0


def test_speed_probe_times_its_kernel():
    probe = SpeedProbe()
    assert 0.0 < probe.measure_ms() < 1e3


def test_workload_names_match_spec():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


def test_perturbed_infer_is_counted_failed(tmp_path, monkeypatch):
    original = RadFinerNet.infer

    def nudged(self, coords, features, nb=None):
        return original(self, coords, features, nb) + 1e-2

    monkeypatch.setattr(RadFinerNet, "infer", nudged)
    result, lines = _run("infer-crowded", False, tmp_path)
    assert result["correct"] is False
    assert result["attempted"] >= 1 and result["failed"] == result["attempted"]
    assert result["metrics"]["ok_ratio"]["value"] == 0.0
    assert any("infer differs" in l for l in lines)


def test_raising_op_is_counted_failed(tmp_path, monkeypatch):
    # set-up warms up through the working op; only timed ops raise
    def broken(*args, **kwargs):
        raise RuntimeError("op broke")

    workload = WORKLOADS["infer-crowded"]
    working_op, working_setup = pipeline.predict_panoptic, workload.setup

    def setup_then_break(self):
        monkeypatch.setattr(pipeline, "predict_panoptic", working_op)
        working_setup(self)
        monkeypatch.setattr(pipeline, "predict_panoptic", broken)

    monkeypatch.setattr(workload, "setup", setup_then_break)
    result, lines = _run("infer-crowded", False, tmp_path)
    assert result["failed"] == result["attempted"] >= 1
    assert any("op broke" in l for l in lines)


def test_tracer_self_time_absence_and_restore():
    calls = []
    inner = SimpleNamespace(work=lambda: calls.append("inner"))
    outer = SimpleNamespace(run=lambda: (inner.work(), inner.work()))
    tracer = Tracer()
    tracer.patch("outer", outer, "run")
    tracer.patch("inner", inner, "work")
    tracer.patch("gone", inner, "deleted_method")
    tracer.patch("gone_owner", None, "infer")
    outer.run()
    assert tracer.spans["outer"].calls == 1 and tracer.spans["inner"].calls == 2
    assert 0.0 <= tracer.spans["outer"].self_s
    assert tracer.absent == ["gone", "gone_owner"]
    assert "gone" not in tracer.spans
    tracer.restore()
    inner.work()
    assert tracer.spans["inner"].calls == 2 and calls == ["inner"] * 3


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload", "infer-crowded",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
