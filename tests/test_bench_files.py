"""Every perf trajectory file ``BENCH_*.json`` at the repository root parses
and names only workloads and metrics that ``BENCHMARK.json`` declares."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
SIDES = ("parent", "change")


def declared() -> tuple[set[str], set[str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in spec["workloads"]}
    metrics = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    return workloads, metrics


def test_there_is_a_trajectory_file():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_trajectory_file_names_only_declared_workloads_and_metrics(path):
    workloads, metrics = declared()
    bench = json.loads(path.read_text())
    assert bench["workloads"] and set(bench["workloads"]) <= workloads
    for runs in bench["workloads"].values():
        assert runs["pairs"]
        for pair in runs["pairs"]:
            assert set(pair) == set(SIDES)
            for result in pair.values():
                assert {"correct", "attempted", "failed", "metrics"} <= set(result)
                assert result["metrics"] and set(result["metrics"]) <= metrics
                assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
        assert set(runs["median"]) == set(SIDES)
        for medians in runs["median"].values():
            assert medians and set(medians) <= metrics
            assert all(isinstance(v, (int, float)) for v in medians.values())
