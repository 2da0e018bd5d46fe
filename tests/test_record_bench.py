"""tools/record_bench.py assembles perfbench results in the committed BENCH layout."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_recorder():
    spec = importlib.util.spec_from_file_location("record_bench", ROOT / "tools" / "record_bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_record_has_the_layout_of_committed_bench_files():
    recorder = _load_recorder()
    calls = []

    def fake_run(root, workload, trace):
        calls.append((workload, trace))
        return {"environment": {"git_sha": "abc"}, "samples": 3, "result": {"correct": True}}

    doc = recorder.record(ROOT, run=fake_run)
    workloads = ["dense_plain", "dense_dilation", "cli_small"]
    assert calls == [(w, 0) for w in workloads] + [(w, 1) for w in workloads]
    assert doc["measured_on"] == "abc"
    committed = json.loads((ROOT / "BENCH_pr9.json").read_text(encoding="utf-8"))
    assert doc.keys() == committed.keys()
    assert doc["command"] == committed["command"]
    assert list(doc["workloads"]) == workloads == list(committed["workloads"])
    assert list(doc["traced"]) == ["command", *workloads] == list(committed["traced"])
    assert doc["traced"]["command"] == committed["traced"]["command"]
    for entry in [*doc["workloads"].values(), *(doc["traced"][w] for w in workloads)]:
        assert entry.keys() == committed["traced"]["dense_plain"].keys()


def test_parent_and_change_runs_alternate(tmp_path):
    # One run at a time, each run of the parent next to the same run of the
    # change, the parent first in every other pair.
    recorder = _load_recorder()
    calls = []

    def fake_run(root, workload, trace):
        calls.append((root, workload, trace))
        return {"environment": {"git_sha": root.name}, "samples": 3, "result": {"correct": True}}

    change, parent = ROOT, tmp_path / "parent"
    change_doc, parent_doc = recorder.record_pair(change, parent, run=fake_run)
    runs = [(w, t) for t in (0, 1) for w in ["dense_plain", "dense_dilation", "cli_small"]]
    expected = []
    for i, run in enumerate(runs):
        pair = [(parent, *run), (change, *run)]
        expected += pair if i % 2 == 0 else pair[::-1]
    assert calls == expected
    assert (change_doc["measured_on"], parent_doc["measured_on"]) == (ROOT.name, "parent")
    assert change_doc.keys() == parent_doc.keys() == recorder.record(ROOT, run=fake_run).keys()


def test_one_workload_limits_the_runs_and_the_documents(tmp_path):
    # --workload W: only W's untraced and traced runs, still alternating,
    # and documents of W alone in the committed layout.
    recorder = _load_recorder()
    calls = []

    def fake_run(root, workload, trace):
        calls.append((root.name, workload, trace))
        return {"environment": {"git_sha": root.name}, "samples": 3, "result": {"correct": True}}

    change_doc, parent_doc = recorder.record_pair(
        tmp_path / "change", tmp_path / "parent", ("cli_small",), run=fake_run)
    assert calls == [("parent", "cli_small", 0), ("change", "cli_small", 0),
                     ("change", "cli_small", 1), ("parent", "cli_small", 1)]
    for doc in (change_doc, parent_doc, recorder.record(ROOT, ("cli_small",), run=fake_run)):
        assert list(doc["workloads"]) == ["cli_small"]
        assert list(doc["traced"]) == ["command", "cli_small"]
    assert (change_doc["measured_on"], parent_doc["measured_on"]) == ("change", "parent")


def test_pairs_alternate_and_report_medians(tmp_path):
    # --pairs: untraced runs only, each pair's sides in turn starting with
    # the parent, the medians of each side and the pairs the change won.
    recorder = _load_recorder()
    calls = []
    values = {"parent": iter([3.0, 5.0, 4.0]), "change": iter([2.0, 6.0, 1.0])}

    def fake_run(root, workload, trace):
        calls.append((root.name, workload, trace))
        v = next(values[root.name])
        metrics = {"op_s_p50": {"value": v, "unit": "s"}, "ops_per_s": {"value": v, "unit": "1/s"}}
        return {"environment": {}, "samples": 3, "result": {"metrics": metrics}}

    better = {"op_s_p50": "lower", "ops_per_s": "higher"}
    doc = recorder.record_pairs(tmp_path / "change", tmp_path / "parent", ["dense_dilation"], 3,
                                better, run=fake_run)
    assert calls == [(side, "dense_dilation", 0)
                     for side in ["parent", "change", "change", "parent", "parent", "change"]]
    entry = doc["workloads"]["dense_dilation"]
    assert [p["first"] for p in entry["pairs"]] == ["parent", "change", "parent"]
    assert [p["change"]["op_s_p50"] for p in entry["pairs"]] == [2.0, 6.0, 1.0]
    assert entry["median"] == {"parent": {"op_s_p50": 4.0, "ops_per_s": 4.0},
                               "change": {"op_s_p50": 2.0, "ops_per_s": 2.0}}
    assert entry["change_won"] == {"op_s_p50": 2, "ops_per_s": 1}
    assert doc["command"] == " ".join(recorder.bench_command("W", 0))


def test_pairs_read_metric_directions_from_the_benchmark():
    recorder = _load_recorder()
    better = recorder._better(ROOT / "BENCHMARK.json")
    assert better["op_s_p50"] == "lower" and better["ops_per_s"] == "higher"
    assert set(better) == {"op_s_p50", "op_s_p90", "ops_per_s", "peak_mb", "setup_s", "ok_frac"}


def test_pairs_report_slot_medians_from_the_result_files(tmp_path):
    # Each run leaves its op durations in its checkout's result file; op i of
    # a rotation is slot i, so each side of a pair gets one median per slot.
    recorder = _load_recorder()
    assert recorder.slot_counts(ROOT) == {"dense_plain": 3, "dense_dilation": 3, "cli_small": 1}
    durations = {
        "parent": iter([[1.0, 10.0, 100.0, 3.0, 30.0, 300.0], [2.0, 20.0, 200.0, 2.0, 20.0, 200.0]]),
        "change": iter([[1.0, 8.0, 90.0, 1.0, 8.0, 110.0], [3.0, 9.0, 150.0, 5.0, 9.0, 150.0]]),
    }

    def fake_run(root, workload, trace):
        times = next(durations[root.name])
        out = root / "perfbench" / "out"
        out.mkdir(parents=True, exist_ok=True)
        name = f"result_{workload}_seed{recorder.SEED}_trace{trace}.json"
        (out / name).write_text(json.dumps({"durations": times}), encoding="utf-8")
        metrics = {"op_s_p50": {"value": sorted(times)[len(times) // 2], "unit": "s"}}
        return {"environment": {}, "samples": len(times), "result": {"metrics": metrics}}

    doc = recorder.record_pairs(tmp_path / "change", tmp_path / "parent", ["dense_plain"], 2,
                                {"op_s_p50": "lower"}, run=fake_run)
    entry = doc["workloads"]["dense_plain"]
    assert [p["slot_p50"] for p in entry["pairs"]] == [
        {"parent": [2.0, 20.0, 200.0], "change": [1.0, 8.0, 100.0]},
        {"change": [4.0, 9.0, 150.0], "parent": [2.0, 20.0, 200.0]},
    ]
    assert entry["slot_median"] == {"parent": [2.0, 20.0, 200.0], "change": [2.5, 8.5, 125.0]}
    assert entry["slot_change_won"] == [1, 2, 2]
