"""Tests of the benchmark itself: inputs, metric names, tracing, gate.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import layers  # noqa: E402
import onepass  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def mods():
    return onepass.load_zal()


def _cheap_ops() -> list[dict]:
    """A few fast operations of each kind from the spectrum and crosscheck lists."""
    spectrum = [op for op in workloads.make_ops("spectrum", 0) if op["max_trace"] <= 40][:6]
    cross = workloads.make_ops("crosscheck", 0)
    picked = [op for op in cross if op["kind"] in ("words", "check")][:8]
    picked += [op for op in cross if op["kind"] == "bruteforce"
               and op["group"] == "gamma0" and op["p"] == 17][:1]
    picked += [{"kind": "pointcount", "primes": [101, 103, 107]}]
    return spectrum + picked


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_operations(workload):
    assert workloads.make_ops(workload, 7) == workloads.make_ops(workload, 7)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seed_changes_inputs(workload):
    a, b = workloads.make_ops(workload, 1), workloads.make_ops(workload, 2)
    assert len(a) == len(b)
    assert a != b
    assert sorted(map(json.dumps, a)) != sorted(map(json.dumps, b))


def test_declared_metrics_match_emitted_names():
    e2e = {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]}
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]}
    assert e2e == layers.END_TO_END
    assert per_layer == layers.per_layer()
    for name in list(e2e) + list(per_layer):
        assert NAME.fullmatch(name), name
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_layer_map_cites_declared_names():
    for metric, (moves, on, flat_on) in layers.LAYER_MAP.items():
        assert metric in layers.per_layer()
        assert set(moves) <= set(layers.END_TO_END)
        assert {on, *flat_on} <= set(workloads.WORKLOADS)


def test_traced_and_untraced_outputs_agree(mods):
    ops = _cheap_ops()
    original = mods.lengthspec.modular_spectrum
    plain = onepass.run_pass(mods, ops)
    traced = onepass.run_pass(mods, ops, trace=True)
    assert mods.lengthspec.modular_spectrum is original
    assert plain["errors"] == [None] * len(ops)
    assert traced["digest"] == plain["digest"]

    tail_q = run.tail_percentile(len(ops))
    emitted = run.end_to_end_metrics([0.4], [plain], tail_q)
    assert set(emitted) == set(layers.END_TO_END)
    emitted = run.layer_metrics([traced])
    assert set(emitted) == set(layers.per_layer())
    assert all(v["value"] >= 0 for v in emitted.values())
    # self times of all spans cover the traced pass up to loop overhead
    lay = traced["layers"]
    assert lay["trace.self_sum_s"] <= lay["trace.wall_s"]
    assert lay["trace.unaccounted_s"] < 0.05 * lay["trace.wall_s"] + 0.01


def test_wall_s_takes_each_operation_at_its_fastest_pass():
    ref = onepass.REF_PROBE_S
    passes = [{"op_seconds": [1.0, 2.0], "op_cpu_s": [1.0, 2.5], "peak_rss_mb": 50.0},
              {"op_seconds": [1.5, 1.0], "op_cpu_s": [1.25, 1.0], "peak_rss_mb": 52.0},
              {"op_seconds": [3.0, 3.0], "op_cpu_s": [3.0, 3.0], "peak_rss_mb": 51.0}]
    for p in passes:
        p["probe_s"] = [ref, ref, ref]
    m = run.end_to_end_metrics([0.3, 0.5, 0.4], passes, 100.0)
    assert m["wall_s"]["value"] == 2.0
    assert m["cpu_s"]["value"] == 2.0
    assert m["op_p50_s"]["value"] == 1.0
    assert m["op_tail_s"]["value"] == 1.0
    assert m["peak_rss_mb"]["value"] == 51.0
    assert m["setup_s"]["value"] == 0.4


def test_times_are_scaled_by_the_probes_around_each_operation():
    ref = onepass.REF_PROBE_S
    # op 0 ran while the host was twice as slow, op 1 half way through a slowdown
    passes = [{"op_seconds": [2.0, 1.5], "probe_s": [2 * ref, 2 * ref, ref]}]
    assert run.best_per_op(passes, "op_seconds") == [1.0, 1.0]
    assert run.best_per_op(passes, "op_seconds", scaled=False) == [2.0, 1.5]


def test_gate_passes_outputs_and_catches_perturbed_ones(mods):
    ops = _cheap_ops() + [{"kind": "sym2", "n_terms": workloads.SYM2_TERMS[0]}]
    result = onepass.run_pass(mods, ops, gate=True)
    failed, controls_ok, problems = run.count_failures(ops, [result], None)
    assert failed == 0, problems
    assert controls_ok


def test_reference_comparison_uses_each_bound():
    ref = {"exact": {"n": 3}, "approx": {"x": [1.0, 1e-9]}}
    assert workloads.reference_problems(ref, {"exact": {"n": 3}, "approx": {"x": [1.0 + 5e-10, 0.0]}}) == []
    assert workloads.reference_problems(ref, {"exact": {"n": 3}, "approx": {"x": [1.0 + 5e-9, 1e-12]}})
    assert workloads.reference_problems(ref, {"exact": {"n": 4}, "approx": {"x": [1.0, 1e-9]}})


def test_stored_references_match_current_operation_lists():
    for path in sorted((BENCH_DIR / "reference").glob("*.json")):
        ref = json.loads(path.read_text())
        assert ref["ops"] == workloads.make_ops(ref["workload"], ref["seed"]), path.name


@pytest.mark.parametrize("n, q", [(5, 100.0), (20, 50.0), (40, 75.0), (48, 75.0), (100, 90.0)])
def test_tail_percentile_keeps_ten_samples_beyond(n, q):
    assert run.tail_percentile(n) == q


def test_fails_without_sources(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    res = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "spectrum",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert res.returncode != 0
    assert res.stdout == ""
