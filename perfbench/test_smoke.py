"""Smoke tests of the benchmark itself, at tiny problem sizes.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

lq = bench.import_program()
import checks  # noqa: E402

TINY = bench.Scale(mc_runs=20, design_runs=5, long_horizon=12,
                   long_epsilon=1e-6, budget=40, horizon=8)
DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _declared(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in DECLARED[kind]}


def test_declared_metrics_match_the_runner():
    assert _declared("end_to_end") == bench.END_TO_END
    assert _declared("per_layer") == bench.PER_LAYER
    assert [w["name"] for w in DECLARED["workloads"]] == list(bench.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_workload_emits_every_metric(workload, trace, tmp_path):
    result = bench.run_workload(workload, seed=0, seconds=0.0, trace=trace,
                                scale=TINY, out_root=tmp_path / "out")
    expected = bench.PER_LAYER if trace else bench.END_TO_END
    assert set(result.metrics) == set(expected)
    assert all(np.isfinite(v) for v in result.metrics.values())
    assert result.log.failed == 0, [r for r in result.log.results if not r[1]]
    last = json.loads(bench.report(result).splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["attempted"] >= 1
    assert all(m["unit"] == expected[k] for k, m in last["metrics"].items())
    if not trace:
        assert all(v > 0 for v in result.metrics.values())


def test_corrupted_schedule_trips_residual_check():
    model = lq.load_preset(lq.FULLY_ACTUATED, 8)
    gains = lq.backward_riccati(model)
    setup = lq.fa_setup(model.B1, model.W)
    schedule = lq.solve_scalar_power(gains, setup, model, epsilon=1e-3)
    ok, _, worst = checks.scalar_schedule_ok(schedule, gains, setup, model, 1e-3)
    assert ok and worst <= checks.RESIDUAL_TOL

    a = schedule.a.copy()
    a[3] *= 1.01
    corrupted = lq.PowerSchedule(mode=schedule.mode, Lambda=schedule.Lambda,
                                 a=a, b=schedule.b,
                                 terminal_multiplier=schedule.terminal_multiplier)
    ok, detail, worst = checks.scalar_schedule_ok(corrupted, gains, setup, model, 1e-3)
    assert not ok and worst > checks.RESIDUAL_TOL, detail


def test_non_finite_csv_value_is_caught():
    ok, _ = checks.csv_values_finite("policy,runs,mean\nex-comm,5,1.5\n")
    assert ok
    ok, detail = checks.csv_values_finite("policy,runs,mean\nex-comm,5,nan\n")
    assert not ok and "nan" in detail
