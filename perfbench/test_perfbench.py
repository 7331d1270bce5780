"""Self-tests of the benchmark: statistics, span accounting and failure counting.

    PYTHONPATH=src python -m pytest -q perfbench
"""
from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _riemann_percentile(values, q, steps=200_000):
    """Harrell-Davis by direct numerical integration of the Beta density."""
    v = sorted(values)
    n = len(v)
    a, b = (n + 1) * q / 100, (n + 1) * (1 - q / 100)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    total = 0.0
    for k in range(steps):
        x = (k + 0.5) / steps
        density = math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
        total += density / steps * v[min(int(x * n), n - 1)]
    return total


def test_percentile_is_the_harrell_davis_estimate():
    values = [0.3, 1.7, 0.2, 5.0, 2.2, 0.9, 3.1, 0.4, 1.1, 8.0, 0.6]
    for q in (50, 90):
        assert stats.percentile(values, q) == pytest.approx(_riemann_percentile(values, q), rel=1e-4)
    assert stats.percentile([4.0, 1.0, 3.0, 2.0], 50) == pytest.approx(2.5)  # symmetric weights
    assert stats.percentile([2.0, 6.0], 50) == pytest.approx(4.0)
    assert stats.percentile([7.0], 90) == 7.0
    assert stats.percentile([3.0] * 50, 90) == pytest.approx(3.0)
    assert stats.percentile(values, 50) < stats.percentile(values, 90) < max(values)
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile(values, 100)


def test_incomplete_beta_matches_closed_forms():
    for x in (0.1, 0.5, 0.93):
        assert stats.betainc(1, 1, x) == pytest.approx(x)
        assert stats.betainc(2, 1, x) == pytest.approx(x * x)
        assert stats.betainc(1, 3, x) == pytest.approx(1 - (1 - x) ** 3)
        assert stats.betainc(350.5, 40.5, x) == pytest.approx(1 - stats.betainc(40.5, 350.5, 1 - x), abs=1e-12)


def test_loglog_slope_recovers_a_power_law():
    points = [(x, 3.0 * x**1.5) for x in (10, 20, 40, 80)]
    assert stats.loglog_slope(points) == pytest.approx(1.5)


def _fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_is_span_time_minus_child_spans():
    tracer = tracing.Tracer(clock=_fake_clock([0.0, 2.0, 5.0, 6.0, 7.5, 10.0]))
    tracer.enter("outer")
    tracer.enter("child")  # 2.0 .. 5.0
    tracer.exit()
    tracer.enter("child")  # 6.0 .. 7.5
    tracer.exit()
    tracer.exit()  # outer: 0.0 .. 10.0
    outer, child = tracer.spans["outer"], tracer.spans["child"]
    assert (outer.calls, child.calls) == (1, 2)
    assert outer.self_s == pytest.approx(10.0 - 3.0 - 1.5)
    assert child.self_s == pytest.approx(4.5)
    assert outer.total_s == pytest.approx(10.0)


def test_recursive_spans_count_total_time_once():
    tracer = tracing.Tracer(clock=_fake_clock([0.0, 1.0, 3.0, 4.0]))
    tracer.enter("f")
    tracer.enter("f")
    tracer.exit()
    tracer.exit()
    f = tracer.spans["f"]
    assert f.calls == 2
    assert f.total_s == pytest.approx(4.0)
    assert f.self_s == pytest.approx(4.0)


def test_instrument_counts_calls_and_restores_the_package():
    import boxmodal
    import boxmodal.atomgrid
    import boxmodal.partition
    import boxmodal.refine

    before = (boxmodal.refine.induced, boxmodal.Region.union, boxmodal.atomgrid.AtomGrid.__dict__["for_regions"])
    tracer = tracing.Tracer()
    restore = tracing.instrument(boxmodal, tracer)
    try:
        assert boxmodal.refine.induced is boxmodal.partition.induced
        p = workloads._square(boxmodal, 2, 3)
        boxmodal.refine_monotone(p)
    finally:
        restore()
    assert tracer.spans["refine.refine_monotone"].calls >= 1
    assert tracer.spans["refine.extend_core"].calls == 3  # k0 = 3 layers
    assert tracer.spans["partition.induced"].calls >= 3
    assert tracer.counts["region.interval_objects"] > 0
    after = (boxmodal.refine.induced, boxmodal.Region.union, boxmodal.atomgrid.AtomGrid.__dict__["for_regions"])
    assert after == before


def _quotient_case(tmp_path: Path, index: int) -> workloads.Case:
    out = tmp_path / f"out_{index}.json"
    out.write_text(json.dumps({"worlds": 1, "cells": [{}]}))
    return workloads.Case(index, "quotient", ["quotient"], str(out))


def _call(code, digest, error=None):
    return run.Call(0.01, code, digest, error)


def test_digest_mismatch_and_raise_each_count_as_one_failure(tmp_path):
    cases = [_quotient_case(tmp_path, 0), _quotient_case(tmp_path, 1), _quotient_case(tmp_path, 2)]
    first = [_call(0, "a"), _call(0, "b"), _call(0, "c")]
    second = [_call(0, "x"), _call(None, None, "RecursionError: too deep"), _call(0, "c")]
    attempted, failed, _ = run.verify(None, "small_commands", 1, cases, [first, second])
    assert (attempted, failed) == (6, 2)


def test_recorded_digests_gate_the_default_seed(tmp_path, monkeypatch):
    cases = [_quotient_case(tmp_path, 0), _quotient_case(tmp_path, 1)]
    passes = [[_call(0, "a"), _call(0, "b")]]
    monkeypatch.setattr(checks, "load_recorded", lambda: {"small_commands": [[0, "a"], [0, "other"]]})
    assert run.verify(None, "small_commands", checks.DEFAULT_SEED, cases, passes)[:2] == (2, 1)
    monkeypatch.setattr(checks, "load_recorded", lambda: {})
    assert run.verify(None, "small_commands", checks.DEFAULT_SEED, cases, passes)[:2] == (2, 2)


def test_wrong_exit_code_for_the_verdict_is_a_failure(tmp_path):
    out = tmp_path / "out.json"
    out.write_text(json.dumps({"monotone": True, "violation": None}))
    case = workloads.Case(0, "check-monotone", ["check-monotone"], str(out))
    attempted, failed, _ = run.verify(None, "small_commands", 1, [case], [[_call(1, "d")]])
    assert (attempted, failed) == (1, 1)


def test_case_time_is_the_fastest_scaled_call_over_the_passes(tmp_path):
    cases = [_quotient_case(tmp_path, 0), _quotient_case(tmp_path, 1)]
    passes = [
        [run.Call(0.030, 0, "a", None), run.Call(0.002, 0, "b", None)],
        [run.Call(0.020, 0, "a", None), run.Call(0.009, 0, "b", None)],
        [run.Call(0.050, 0, "a", None), run.Call(0.004, 0, "b", None)],
    ]
    assert run.case_seconds(cases, passes, [1.0, 1.0, 1.0]) == [0.020, 0.002]
    assert run.case_seconds(cases, passes, [1.0, 2.0, 0.5]) == [0.025, 0.002]


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [m["unit"] for m in spec["end_to_end"]] == [u for _, u in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
