"""Every benchmark record at the repository root fits the benchmark it reports on.

A ``BENCH_<n>.json`` file gives, for each workload it measured, the parent
and change medians of its metrics:
``{"workloads": {<workload>: {<metric>: {"parent": x, "change": y, ...}}}}``.
Workload and metric names must be the ones ``BENCHMARK.json`` defines.
"""

import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


@pytest.fixture(scope="module")
def benchmark_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    return {w["name"] for w in spec["workloads"]}, metrics


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_names_the_benchmarks_workloads_and_metrics(path, benchmark_names):
    workloads, metrics = benchmark_names
    record = json.loads(path.read_text())
    assert isinstance(record.get("workloads"), dict) and record["workloads"]
    assert set(record["workloads"]) <= workloads, set(record["workloads"]) - workloads
    for workload, measured in record["workloads"].items():
        assert isinstance(measured, dict) and measured, workload
        assert set(measured) <= metrics, (workload, set(measured) - metrics)
        for metric, values in measured.items():
            for side in ("parent", "change"):
                assert _is_number(values.get(side)), (workload, metric, side)


def test_records_exist():
    assert RECORDS, "no BENCH_*.json at the repository root"
