"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import maxvariety  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, self_time  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _span(name, start, end, parent=None):
    span = Span(name, start, op=0, parent=parent, end=end)
    if parent is not None:
        parent.children.append(span)
    return span


def test_self_time_subtracts_direct_children_only():
    root = _span("op", 0.0, 10.0)
    clean = _span("denoise.clean_covariance", 1.0, 7.0, root)
    _span("robust.tyler.pass1", 2.0, 4.0, clean)
    _span("robust.tyler.pass2", 4.5, 6.0, clean)
    _span("allocation.optimize_variety", 8.0, 9.5, root)
    assert self_time(root) == pytest.approx(10.0 - 6.0 - 1.5)
    assert self_time(clean) == pytest.approx(6.0 - 2.0 - 1.5)


def test_self_time_counts_overlapping_children_once_within_parent():
    parent = _span("cli.main", 0.0, 5.0)
    _span("a", 1.0, 3.0, parent)
    _span("b", 2.0, 4.0, parent)
    _span("c", 4.5, 6.0, parent)  # runs past the parent's end
    assert self_time(parent) == pytest.approx(5.0 - 3.0 - 0.5)


def test_tracer_nests_spans_and_numbers_repeated_calls():
    tracer = Tracer()
    tracer.op = 3
    outer = tracer.open("denoise.clean_covariance")
    for _ in range(2):
        inner = tracer.open("robust.tyler.pass{n}")
        tracer.count("robust.tyler.sweeps")
        tracer.close(inner)
    tracer.close(outer)
    assert [c.name for c in outer.children] == ["robust.tyler.pass1",
                                               "robust.tyler.pass2"]
    assert all(c.parent is outer and c.op == 3 for c in outer.children)
    assert outer.children[0].counts == {"robust.tyler.sweeps": 1}
    assert outer.start <= outer.children[0].start <= outer.children[1].end \
        <= outer.end


def test_hooks_time_a_real_clean_and_restore_the_package():
    panel = maxvariety.gen_panel(maxvariety.FactorModelSpec(
        m=8, N=80, K=1, seed=10_000)).returns
    before = maxvariety.denoise.tyler
    tracer = Tracer()
    with spans.hooked(tracer):
        maxvariety.cli.clean_covariance(panel)
    assert maxvariety.denoise.tyler is before
    assert not tracer.missing
    names = [s.name for s in tracer.spans]
    assert names.count("robust.tyler.pass1") == 1
    assert names.count("robust.tyler.pass2") == 1
    metrics = spans.layer_metrics(tracer, maxvariety.variety_ratio)
    assert metrics["robust.tyler.sweeps"] >= 1
    assert metrics["denoise.clean_covariance.self_ms"] > 0.0
    assert metrics["allocation.optimize_variety.ms"] == 0.0


def test_missing_private_hook_is_reported_and_the_run_goes_on(monkeypatch):
    monkeypatch.delattr(maxvariety.robust, "_tyler_step")
    tyler = maxvariety.denoise.tyler
    tracer = Tracer()
    with spans.hooked(tracer):
        assert maxvariety.denoise.tyler is not tyler  # the others went in
    assert [h.attr for h in tracer.missing] == ["_tyler_step"]
    metrics = spans.layer_metrics(tracer, maxvariety.variety_ratio)
    assert "robust.tyler.sweeps" not in metrics
    assert "robust.tyler.pass1.ms" in metrics
    assert not hasattr(maxvariety.robust, "_tyler_step")


def test_names_are_well_formed_and_match_benchmark_json():
    end_to_end = run.end_to_end([(1.0, 1.0, [])], [0.1], [1.0],
                                [workloads.Outcome()], [True])
    per_layer = [name for name, *_ in spans.LAYER_METRICS]
    per_layer.append("trace.overhead_ms")
    names = [*workloads.WORKLOADS, *end_to_end, *per_layer]
    assert all(NAME.fullmatch(name) and len(name) <= 64 for name in names)
    assert len(set(names)) == len(names)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(
        workloads.WORKLOADS)
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(end_to_end)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == per_layer
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == {
        name: unit for name, (_, unit) in end_to_end.items()}


def test_end_to_end_reports_every_metric_when_every_op_failed():
    failed = workloads.Outcome(["exit code 3"])
    metrics = run.end_to_end([(2.0, 0.5, ["set-up process exited 1"])],
                             [0.2, 0.4], [1.0, 2.0], [failed, failed], [])
    assert metrics["setup_s"] == (1.0, "s")
    assert metrics["ops_per_s"] == (0.0, "1/s")
    assert metrics["op_p50_ms"][0] == pytest.approx(500.0)
    assert metrics["order_hit_share"] == (0.0, "ratio")


class _CountingWorkload:
    cycle = 3

    def __init__(self):
        self.indices = []

    def run(self, index, out):
        self.indices.append(index)

    def check(self, index, out, raw):
        return workloads.Outcome()


class _FixedReference:
    def seconds(self):
        return hostspeed.NOMINAL_S


def test_timed_loop_runs_whole_cycles_of_inputs(tmp_path):
    workload = _CountingWorkload()
    plain, scales, traced, outcomes, _ = run.timed_loop(
        workload, 1e-9, tmp_path, _FixedReference())
    assert workload.indices == [1, 2, 3]
    assert len(plain) == len(scales) == len(outcomes) == 3
    assert scales == [1.0, 1.0, 1.0] and traced == []


def test_reference_helper_times_the_kernel_and_stops():
    with hostspeed.Reference() as reference:
        assert reference.seconds() > 0.0
        helper = reference._proc
    assert helper.returncode is not None


def test_kkt_residual_accepts_the_optimum_and_flags_a_corner():
    sigma = maxvariety.gen_toeplitz_scatter(5, 0.6)
    best = maxvariety.optimize_variety(sigma).weights.weights
    assert workloads.kkt_residual(best, sigma) <= workloads.KKT_TOL
    corner = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
    assert workloads.kkt_residual(corner, sigma) > 1e-3


def test_run_fails_without_printing_a_result_when_the_source_is_absent(
        tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "order-null",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
