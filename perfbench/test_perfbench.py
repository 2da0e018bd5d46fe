"""Checks on the benchmark itself.  Run with `python3 -m pytest perfbench -q`."""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run as bench  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _spec() -> dict:
    return json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_two_traced_runs_of_one_seed_give_identical_counts(workload):
    first = bench.run(workload, seed=3, seconds=0.01, trace=True)["result"]
    second = bench.run(workload, seed=3, seconds=0.01, trace=True)["result"]
    assert first["correct"] and second["correct"]
    counts = [{name: res["metrics"][name]["value"] for name in spans.COUNT_METRICS} for res in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["operators.apply_calls"] > 0
    assert counts[0]["zak.table_calls"] > 0
    reaches_cli = workload == "cli_small"
    assert (counts[0]["config.table_entries"] > 0) == reaches_cli
    assert (counts[0]["kernel.file_bytes"] > 0) == reaches_cli


def test_reported_metrics_match_benchmark_json():
    spec = _spec()
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        metrics = bench.run("cli_small", seed=5, seconds=0.01, trace=trace)["result"]["metrics"]
        assert {name: m["unit"] for name, m in metrics.items()} == {
            m["name"]: m["unit"] for m in spec[key]
        }
        assert all(math.isfinite(m["value"]) for m in metrics.values())


def test_workload_generation_is_seeded():
    a = workloads.dense_workload(workloads.DENSE_PLAIN_SLOTS, 11)
    b = workloads.dense_workload(workloads.DENSE_PLAIN_SLOTS, 11)
    c = workloads.dense_workload(workloads.DENSE_PLAIN_SLOTS, 12)
    assert [doc for doc, _ in a] == [doc for doc, _ in b]
    assert [doc for doc, _ in a] != [doc for doc, _ in c]


def test_qubit_search_finds_the_target_of_four_in_one_round():
    v = workloads.qubit_search(2, ["10"], 1)
    np.testing.assert_allclose(v, [0, 0, 1, 0], atol=1e-15)


def _doc(**overrides) -> dict:
    doc = {
        "n_modes": 2,
        "g_theta": 6,
        "g_k": 6,
        "envelopes": [{"kind": "gaussian"}, {"kind": "gaussian", "center_theta": 1.2}],
        "target": {"mode": "constant", "bits": "10"},
        "zetas": [{"kind": "cosine", "params": {"theta_factor": 0.5}}] * 2,
        "iterations": "auto",
        "use_dilation": False,
    }
    doc.update(overrides)
    return doc


@pytest.mark.parametrize(
    "overrides, identified, failure, exit_code",
    [
        ({}, "10", None, 0),
        ({"use_dilation": True}, "10", None, 0),
        ({"target": {"mode": "constant", "strings": ["00", "11", "01"]}}, ("10",), None, 0),
        (
            {"n_modes": 3, "envelopes": [{"kind": "constant"}] * 3,
             "target": {"mode": "constant", "bits": "101"}, "zetas": None},
            None, "ambiguous-association", 2,
        ),
        ({"target": {"mode": "intervals", "intervals": [[[0.0, 3.14]], []]}}, "10", None, 0),
    ],
)
def test_oracle_predicts_readout(overrides, identified, failure, exit_code):
    exp = workloads.expected_outcome(_doc(**overrides))
    assert (exp.identified, exp.failure, exp.exit_code) == (identified, failure, exit_code)


def test_oracle_names_vanishing_weights():
    exp = workloads.expected_outcome(_doc(zetas=[{"kind": "constant", "params": {"value": 0.0}}] * 2))
    assert (exp.error, exp.exit_code) == ("DegenerateWeights", 2)


def test_readout_check_rejects_wrong_answers():
    exp = workloads.Expected("10", None, 0)
    assert workloads.readout_matches("10", None, 1.0, 1e-16, exp)
    assert not workloads.readout_matches("01", None, 1.0, 1e-16, exp)
    assert not workloads.readout_matches("10", None, 1.0, 1e-9, exp)
    assert not workloads.readout_matches("10", None, 1.0, math.nan, exp)
    assert not workloads.readout_matches("10", None, None, 1e-16, exp)
