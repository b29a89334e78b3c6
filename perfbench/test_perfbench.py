"""Self-tests of the benchmark, on small work lists.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import bench_workloads as bw  # noqa: E402
import run as bench  # noqa: E402
import thermocone as tc  # noqa: E402

SMALL = {
    "pair_stream": {"requests": 8, "grid": 20, "max_denominator": 50, "mc_samples": 2000, "cn_samples": 2000},
    "figure_scan": {"sweep_dims": (3, 4), "states_per_dim": 1, "sweep_samples": 5000, "iso_betas": (1.0,),
                    "iso_resolution": 3, "iso_samples": 1000, "ratio_betas": (0.0,), "ratio_samples": 100_000},
    "cone_highd": {"dims": (5, 4, 4)},
}
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(autouse=True)
def _few_setups(monkeypatch):
    monkeypatch.setattr(bench, "SETUP_REPEATS", 2)


def _collect(tmp_path, workload, seed=1, trace=False, api_patch=None):
    return bench.collect(workload, seed, 0.0, trace, plan=SMALL[workload], api_patch=api_patch, out_dir=tmp_path)


def _inputs(tmp_path, workload, seed):
    wl = bw.WORKLOADS[workload](SMALL[workload])
    return [r.doc() for r in wl.build(seed, tmp_path)]


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_same_seed_repeats_inputs_counts_and_digest(tmp_path, workload):
    assert _inputs(tmp_path, workload, 5) == _inputs(tmp_path, workload, 5)
    (res_a, rec_a), (res_b, rec_b) = _collect(tmp_path, workload, 5), _collect(tmp_path, workload, 5)
    assert res_a["correct"] and res_b["correct"], rec_a["failures"] + rec_b["failures"]
    assert rec_a["digest"] == rec_b["digest"]
    assert rec_a["counts"] == rec_b["counts"]


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_other_seed_changes_inputs_and_still_passes(tmp_path, workload):
    assert _inputs(tmp_path, workload, 1) != _inputs(tmp_path, workload, 2)
    for seed in (1, 2):
        result, record = _collect(tmp_path, workload, seed)
        assert result["correct"] and result["failed"] == 0, record["failures"]


def test_counts_match_between_untraced_and_traced_runs(tmp_path):
    _, plain = _collect(tmp_path, "pair_stream")
    result, traced = _collect(tmp_path, "pair_stream", trace=True)
    assert result["correct"], traced["failures"]
    assert plain["counts"] == traced["counts"] and plain["digest"] == traced["digest"]
    for name, value in plain["counts"].items():
        assert result["metrics"][name]["value"] == value


def test_wrong_output_is_counted_as_failure(tmp_path):
    def wrong_compare(p, q, spec):
        return tc.Relation.MAJORIZES

    result, record = _collect(tmp_path, "pair_stream", api_patch={"core.compare": wrong_compare})
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"] and record["fail_ratio"] > 0


def test_raising_call_is_counted_as_failure(tmp_path):
    def broken(*args, **kwargs):
        raise RuntimeError("deliberate")

    result, record = _collect(tmp_path, "cone_highd", api_patch={"cooling.optimal_cooling": broken})
    assert not result["correct"] and result["failed"] >= len(SMALL["cone_highd"]["dims"])
    assert any("deliberate" in msg for msg in record["failures"])


def test_golden_digest_gate(tmp_path, monkeypatch):
    path = tmp_path / "golden.json"
    path.write_text(json.dumps({"cone_highd": {"1": "abc"}}))
    monkeypatch.setattr(bench, "GOLDEN", path)
    assert bench.golden("cone_highd", 1, "abc") == "match"
    assert bench.golden("cone_highd", 1, "abd") == "mismatch"
    assert bench.golden("cone_highd", 2, "abc") == "none"
    assert bench.golden("pair_stream", 1, "abc") == "none"


@pytest.mark.parametrize("trace", [False, True])
def test_printed_metrics_are_the_listed_ones(tmp_path, trace):
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    for workload in sorted(SMALL):
        result, _ = _collect(tmp_path, workload, trace=trace)
        assert set(result["metrics"]) == {m["name"] for m in listed}
        for m in listed:
            assert NAME.fullmatch(m["name"])
            assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_layer_map_names_exist():
    layer_map = json.loads((HERE / "layer_map.json").read_text())
    per_layer = {m["name"] for m in BENCHMARK["per_layer"]}
    end_to_end = {m["name"] for m in BENCHMARK["end_to_end"]}
    workloads = {w["name"] for w in BENCHMARK["workloads"]}
    mapped = set()
    for entry in layer_map["map"]:
        assert set(entry["layer_metrics"]) <= per_layer
        assert set(entry["end_to_end"]) <= end_to_end
        assert set(entry["workloads"]) <= workloads
        mapped |= set(entry["layer_metrics"])
    assert mapped == per_layer
