"""Closed-loop measurement of one workload, its checks, and the result.

One process, one client: each op is issued after the previous one has
returned.  An untraced run measures the end-to-end metrics; a traced run
measures half its time untraced and half with spans installed, and
reports the per-layer metrics plus the ratio between the two halves.
Timings are scaled to the reference machine speed of `calibrate` by the
median kernel time of the run; the record keeps them raw as well.
"""

from __future__ import annotations

import ctypes
import gc
import json
import os
import resource
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from calibrate import REFERENCE_MS, SpeedProbe
from envinfo import environment
from tracing import SpanStat, Tracer
from workloads import ENCLOSING_SPANS, SPANS, WORKLOADS

SETUP_REPEATS = 3
# the machine's speed is measured again after the first op that ends this
# long after the last measurement: often enough that the run's median
# kernel time rests on ~100 samples of its drift
CALIBRATION_INTERVAL_S = 0.25

END_TO_END_UNITS = {
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "latency_mean_ms": "ms",
    "throughput_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

COUNT_UNITS = {
    "neighborhood.fill_ratio": "ratio",
    "neighborhood.points_per_call": "count",
    "autodiff.tape_nodes_per_scan": "count",
    "training.points_per_scan": "count",
    "trace_overhead_ratio": "ratio",
    "trace_coverage": "ratio",
    "trace_coverage_leaf": "ratio",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for span in SPANS:
        units[f"{span}.self_ms"] = "ms"
        units[f"{span}.calls"] = "count"
        units[f"{span}.share_pct"] = "%"
    units.update(COUNT_UNITS)
    return units


@dataclass
class Phase:
    """Ops of one closed-loop phase, in issue order, with the speed kernel
    times measured between them."""

    ks: list = field(default_factory=list)
    times: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    errors: dict = field(default_factory=dict)
    units: int = 0
    kernel_ms: list = field(default_factory=list)

    def throughput(self, speed: float = 1.0) -> float:
        """Scans per second of op time, with op times multiplied by `speed`."""
        return self.units / (speed * sum(self.times))


def speed_factor(kernel_ms: list[float]) -> float:
    """Factor that brings times measured while the kernel took `kernel_ms`
    to the reference speed."""
    return REFERENCE_MS / statistics.median(kernel_ms)


def reset_peak_rss() -> str:
    """Free what set-up left behind and restart the RSS high-water mark at
    the current RSS, so the peak read after the timed loop is the loop's.
    Returns the scope the later peak covers."""
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)  # hand freed heap back
    except (OSError, AttributeError):
        pass
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        return "process"  # no reset: the peak includes set-up
    return "timed loop"


def peak_rss_mb() -> float:
    """The kernel's RSS high-water mark (VmHWM), which `reset_peak_rss`
    restarts; the process-wide ru_maxrss where /proc is missing."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def closed_loop(workload, seconds: float, k0: int, probe: SpeedProbe) -> Phase:
    """Issue ops k0, k0+1, ... until `seconds` have passed and the last op
    completed a pass over the workload's inputs.  The machine's speed is
    measured before the first op, after the last, and between ops about
    every `CALIBRATION_INTERVAL_S`."""
    phase = Phase()
    k = k0
    phase.kernel_ms.append(probe.measure_ms())
    start = last_probe = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        try:
            out = workload.op(k)
        except Exception:  # a raising op is a failed op; keep measuring
            out = None
            phase.errors[k] = traceback.format_exc()
        t1 = time.perf_counter()
        phase.ks.append(k)
        phase.times.append(t1 - t0)
        phase.outputs.append(out)
        phase.units += workload.units(k)
        k += 1
        done = t1 - start >= seconds and k % workload.pass_ops == 0
        if done or t1 - last_probe >= CALIBRATION_INTERVAL_S:
            phase.kernel_ms.append(probe.measure_ms())
            last_probe = time.perf_counter()
        if done:
            return phase


def check_outputs(workload, phases: list[Phase]) -> tuple[int, int, list[str]]:
    """(attempted, failed, error messages).  A run-level check failure
    fails every op; otherwise an op fails on its own exception or check."""
    try:
        run_errors = workload.check_run()
    except Exception:  # a crashing check is a failed check
        run_errors = [f"check raised {traceback.format_exc()}"]
    attempted = sum(len(p.ks) for p in phases)
    op_errors = []
    for phase in phases:
        for k, out in zip(phase.ks, phase.outputs):
            err = phase.errors.get(k)
            if err is None:
                try:
                    err = workload.check_op(k, out)
                except Exception:
                    err = f"check raised {traceback.format_exc()}"
            if err is not None:
                op_errors.append(f"op {k}: {err}")
    failed = attempted if run_errors else len(op_errors)
    return attempted, failed, run_errors + op_errors


def end_to_end_metrics(phase: Phase, setups: list[float], peak_mb: float,
                       attempted: int, failed: int, speed: float) -> dict[str, float]:
    """Timings multiplied by `speed`, the factor of `speed_factor`."""
    ms = np.array(phase.times) * (1e3 * speed)
    return {
        "latency_p50_ms": float(np.median(ms)),
        "latency_p95_ms": float(np.percentile(ms, 95)),
        "latency_mean_ms": float(ms.mean()),
        "throughput_per_s": phase.throughput(speed),
        "setup_s": speed * statistics.median(setups),
        "peak_rss_mb": peak_mb,
        "ok_ratio": (attempted - failed) / attempted,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer: Tracer, base: Phase, traced: Phase) -> dict[str, float]:
    """Per span: self ms per call, calls and share of traced op time.
    Absent spans get no entry.  Self times are scaled to reference speed,
    each phase by its own kernel times."""
    traced_s = sum(traced.times)
    speed = speed_factor(traced.kernel_ms)
    out = {}
    for span in SPANS:
        if span in tracer.absent:
            continue
        stat = tracer.spans.get(span, SpanStat())
        out[f"{span}.self_ms"] = 1e3 * speed * _ratio(stat.self_s, stat.calls)
        out[f"{span}.calls"] = stat.calls
        out[f"{span}.share_pct"] = 100.0 * stat.self_s / traced_s
    c = tracer.counters.get
    out["neighborhood.fill_ratio"] = _ratio(c("neighborhood.valid_slots", 0), c("neighborhood.slots", 0))
    out["neighborhood.points_per_call"] = _ratio(c("neighborhood.points", 0), c("neighborhood.calls", 0))
    out["autodiff.tape_nodes_per_scan"] = _ratio(c("autodiff.tape_nodes", 0), c("autodiff.backward_calls", 0))
    out["training.points_per_scan"] = _ratio(c("training.points", 0), c("training.scans", 0))
    out["trace_overhead_ratio"] = (traced.throughput(speed)
                                   / base.throughput(speed_factor(base.kernel_ms)))
    # within the traced phase, so that no drift the scaling leaves between
    # the two phases enters it
    out["trace_coverage"] = sum(s.self_s for s in tracer.spans.values()) / traced_s
    # an enclosing span's self time takes whatever its children miss, so
    # coverage counting it is near 1 by construction; this one leaves it out
    out["trace_coverage_leaf"] = sum(s.self_s for n, s in tracer.spans.items()
                                     if n not in ENCLOSING_SPANS) / traced_s
    return out


def format_trace_table(workload: str, metrics: dict, absent: list[str]) -> list[str]:
    lines = [f"per-layer trace, {workload}: span, self ms/call, calls, share of op time",
             f"  {'span':32s} {'self ms':>10s} {'calls':>8s} {'share %':>8s}"]
    rows = [s for s in SPANS if f"{s}.calls" in metrics and metrics[f"{s}.calls"]]
    rows.sort(key=lambda s: -metrics[f"{s}.share_pct"])
    for s in rows:
        lines.append(f"  {s:32s} {metrics[f'{s}.self_ms']:10.3f} "
                     f"{metrics[f'{s}.calls']:8d} {metrics[f'{s}.share_pct']:8.2f}")
    idle = [s for s in SPANS if f"{s}.calls" in metrics and not metrics[f"{s}.calls"]]
    if idle:
        lines.append("  not called on this workload: " + ", ".join(idle))
    if absent:
        lines.append("  absent (target no longer exists): " + ", ".join(absent))
    for name in COUNT_UNITS:
        lines.append(f"  {name:32s} {metrics[name]:.4f}")
    return lines


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  root: Path, work_dir: Path, scale: str = "full", log=print) -> dict:
    """Set up, measure and check one workload; returns the result object
    and logs a report and the environment record through `log`."""
    load_before = os.getloadavg()
    cls = WORKLOADS[workload]
    work_dir = Path(work_dir)
    probe = SpeedProbe()
    try:
        setups, kernel_ms = [], []
        for _ in range(SETUP_REPEATS):
            wl = cls(root, seed, scale, work_dir)
            kernel_ms.append(probe.measure_ms())
            t0 = time.perf_counter()
            wl.setup()
            setups.append(time.perf_counter() - t0)

        tracer = None
        rss_scope = reset_peak_rss()
        if trace:
            base = closed_loop(wl, seconds / 2, 0, probe)
            tracer = Tracer()
            wl.install_spans(tracer)
            try:
                traced = closed_loop(wl, seconds / 2, base.ks[-1] + 1, probe)
            finally:
                tracer.restore()
            phases = [base, traced]
        else:
            phases = [closed_loop(wl, seconds, 0, probe)]
        peak_mb = peak_rss_mb()

        attempted, failed, errors = check_outputs(wl, phases)
        wl.notes.update(wl.timing_notes(phases[0].ks, phases[0].times))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    kernel_ms += [ms for p in phases for ms in p.kernel_ms]
    speed = speed_factor(kernel_ms)
    raw = end_to_end_metrics(phases[0], setups, peak_mb, attempted, failed, 1.0)
    if trace:
        metrics = per_layer_metrics(tracer, *phases)
        units = per_layer_units()
        report = format_trace_table(workload, metrics, tracer.absent)
    else:
        metrics = end_to_end_metrics(phases[0], setups, peak_mb, attempted, failed, speed)
        units = END_TO_END_UNITS
        report = [f"  {'metric':20s} {'scaled':>14s} {'raw':>14s}"]
        report += [f"  {name:20s} {value:14.4f} {raw[name]:14.4f} {units[name]}"
                   for name, value in metrics.items()]

    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "scale": scale, "closed_loop_clients": 1,
        "environment": environment(root),
        "load_average_before": load_before, "load_average_after": os.getloadavg(),
        "setup_samples_s": setups,
        "raw_metrics": raw,
        "speed_kernel_ms": {"reference": REFERENCE_MS, "samples": len(kernel_ms),
                            "median": statistics.median(kernel_ms),
                            "min": min(kernel_ms), "max": max(kernel_ms)},
        "peak_rss_scope": rss_scope,
        "ops": [len(p.ks) for p in phases],
        "scans_per_op": phases[0].units / len(phases[0].ks),
        "failed_ratio": failed / attempted,
        "errors": errors[:10],
        "notes": wl.notes,
    }
    log(f"radfiner benchmark: {workload}, seed {seed}, {seconds:g} s, trace {int(trace)}, "
        f"{sum(record['ops'])} ops ({record['scans_per_op']:g} scans each), "
        f"{failed} failed")
    for line in report:
        log(line)
    for err in errors[:10]:
        log(f"  check failed: {err}")
    log("record " + json.dumps(record, sort_keys=True, default=float))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}
