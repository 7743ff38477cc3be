"""Self-checks of the benchmark harness.

Run from the checkout root with ``python -m pytest bench/test_bench.py``.
The smoke runs use one-second runs, so their figures mean nothing; they
check that every metric is printed by name with its unit and that the
output checks can fail.
"""

import contextlib
import io
import json
import subprocess
import sys
import time
from itertools import combinations, combinations_with_replacement, product
from pathlib import Path

import pytest

import run
import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_end_to_end_metric(workload):
    report, result = _bench(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for metric in SPEC["end_to_end"]:
        got = result["metrics"].pop(metric["name"])
        assert got["unit"] == metric["unit"] and got["value"] > 0
        assert any(line.split()[:1] == [metric["name"]] and line.split()[2] == metric["unit"]
                   for line in report), metric["name"]
    assert result["metrics"] == {}
    assert any(line.split()[:2] == ["failed_ops_ratio", "0"] for line in report)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_prints_every_per_layer_metric(workload):
    report, result = _bench(workload, trace=1)
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert any("overhead" in line for line in report)
    assert any("Ring methods are not wrapped" in line for line in report)


def test_wrong_expected_value_counts_as_failed(monkeypatch):
    monkeypatch.setitem(workloads.MIN_BLOCKING_SIZE, (2, 2, 1), 4)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", "blocking", "--seed", "1", "--seconds", "1"])
    assert code == 0
    lines = out.getvalue().strip().splitlines()
    result = json.loads(lines[-1])
    assert not result["correct"]
    assert result["failed"] >= 1  # one (2,2,1) search per block
    ratio = next(line.split()[1] for line in lines if line.split()[:1] == ["failed_ops_ratio"])
    assert float(ratio) == pytest.approx(result["failed"] / result["attempted"], rel=1e-5)


def _min_blocking_by_weights(q, n, t):
    """Smallest total weight of a point multiset meeting every hyperplane t
    times, by exhaustive search; shares no code with combnull.covering."""
    planes = workloads.hyperplanes(q, n)
    points = list(product(range(q), repeat=n))
    chooser = combinations if t == 1 else combinations_with_replacement
    m = 1
    while True:
        for chosen in chooser(points, m):
            if workloads.blocks_t_fold(planes, chosen, t):
                return m
        m += 1


def test_blocking_size_table_matches_exhaustive_weights():
    for (q, n, t), size in workloads.MIN_BLOCKING_SIZE.items():
        if t == 1:
            assert size == n * (q - 1) + 1
        assert _min_blocking_by_weights(q, n, t) == size, (q, n, t)


def test_tracer_self_time_and_restore():
    import combnull
    from combnull import reduction

    tracer = Tracer()

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        traced_inner()

    traced_inner = tracer.wrap("inner", inner)
    traced_outer = tracer.wrap("outer", outer)
    original = combnull.reduce
    tracer.install()
    try:
        assert combnull.reduce is reduction.reduce is not original
        assert combnull.multiset_ideals.reduce is reduction.reduce
        traced_outer()
    finally:
        tracer.uninstall()
    assert combnull.reduce is original and reduction.reduce is original
    outer_stat, inner_stat = tracer.stats["outer"], tracer.stats["inner"]
    assert outer_stat[2] == pytest.approx(outer_stat[1] + inner_stat[2], rel=1e-6)
    assert 0.005 < outer_stat[1] < inner_stat[1]
    (inner_span,) = [s for s in tracer.spans if s[0] == "inner"]
    (outer_span,) = [s for s in tracer.spans if s[0] == "outer"]
    assert inner_span[3] == outer_span[4] and outer_span[3] == -1
