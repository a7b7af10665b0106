"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench/selftest.py

They run every workload at the tiny size, so they take about half a
minute.  The file name keeps them out of the package's own test run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def traced():
    """Two traced tiny runs of every workload."""
    return {w: [result(bench(w, 1)) for _ in range(2)] for w in workloads.NAMES}


def test_benchmark_spec_matches_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(
        spans.PER_LAYER.items()
    )


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_tiny_run_emits_every_end_to_end_metric(workload):
    out = result(bench(workload, 0))
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_traced_run_emits_every_per_layer_metric(traced):
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for runs in traced.values():
        for out in runs:
            assert out["correct"]
            assert {k: v["unit"] for k, v in out["metrics"].items()} == expected


def test_per_layer_counts_repeat_exactly(traced):
    for workload, (first, second) in traced.items():
        for name in spans.EXACT:
            assert first["metrics"][name] == second["metrics"][name], (workload, name)


def test_layers_each_workload_must_not_touch(traced):
    orbit_run = traced["orbits_q7"][0]["metrics"]
    assert orbit_run["reps.schur_char.calls"]["value"] == 0
    for name in spans.EXACT:
        if name.startswith("algebra."):
            assert orbit_run[name]["value"] == 0, name
    assert traced["verify_all"][0]["metrics"]["reps.schur_char.calls"]["value"] > 0


def _doc(status="pass"):
    return {
        "passed": status != "fail",
        "suites": [{
            "suite": "integral",
            "checks": [
                {"name": "split/integral-equals-L-over-zeta-{3s, 6s-2, 9s-3}",
                 "status": status, "detail": ""},
                {"name": "split/winning-triple", "status": "info",
                 "detail": "{3s, 6s-2, 9s-3}; the displayed third factor ..."},
            ],
        }],
    }


def test_gate_passes_a_good_report():
    conditions, failures, checks, failed = gate.gate(_doc(), triple=True)
    assert failures == [] and failed == 0 and checks == 2
    assert "winning-triple" in conditions


def test_gate_fails_a_report_with_a_failing_check():
    _, failures, _, failed = gate.gate(_doc("fail"), triple=True)
    assert failed == 1
    assert {"report-passed", "no-failed-check", "winning-triple"} <= set(failures)
    # the report claims success but one check failed
    doc = _doc("fail")
    doc["passed"] = True
    assert gate.gate(doc)[1] == ["no-failed-check"]


def test_gate_fails_wrong_orbit_size_exit_code_and_digest():
    doc = {"passed": True, "suites": [{"suite": "orbits", "checks": [
        {"name": "rho=2-non-square/orbit-equals-sphere", "status": "pass",
         "detail": "orbit size 15500 equals the directly counted sphere size 15500"},
        {"name": "rho=4-square/orbit-equals-sphere", "status": "pass",
         "detail": "orbit size 15750 equals the directly counted sphere size 15750"},
    ]}]}
    assert gate.gate(doc, orbit_q=5)[1] == []
    doc["suites"][0]["checks"][1]["detail"] = "orbit size 15500 equals ..."
    _, failures, _, _ = gate.gate(
        doc, orbit_q=5, returncode=1, digest="ab", expected_digest="cd"
    )
    assert failures == ["orbit-sizes", "exit-0", "json-digest"]


def test_refuses_a_tree_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("orbits_q7", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
