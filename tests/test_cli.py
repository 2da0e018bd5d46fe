import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import mvgrover
from mvgrover import load_state, quad_norm, state_to_bytes
from mvgrover import operators as ops
from mvgrover import verify
from mvgrover.cli import _build_parser, dumps_record, main


def write_config(path, **overrides):
    doc = {
        "n_modes": 2,
        "g_theta": 6,
        "g_k": 6,
        "envelopes": [{"kind": "gaussian"}, {"kind": "gaussian", "center_theta": 1.2}],
        "target": {"mode": "constant", "bits": "10"},
        "zetas": [
            {"kind": "cosine", "params": {"theta_factor": 0.5}},
            {"kind": "cosine", "params": {"theta_factor": 0.5}},
        ],
        "iterations": "auto",
        "use_dilation": False,
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return doc


# --- run --------------------------------------------------------------------


def test_run_identifies_configured_target(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "report.json"
    write_config(cfg)
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert record["report"]["identified"] == "10"
    assert record["report"]["iterations_used"] == 1
    assert record["grid"] == {"n_modes": 2, "g_theta": 6, "g_k": 6}
    assert record["config"]["target"]["bits"] == "10"
    assert "identified 10" in capsys.readouterr().out


def test_run_invalid_config_names_field(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, g_theta=0)
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "r.json")])
    assert code == 1
    assert "/g_theta" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_run_degenerate_weights_exits_two(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    write_config(
        cfg,
        zetas=[
            {"kind": "constant", "params": {"value": 0.0}},
            {"kind": "constant", "params": {"value": 0.0}},
        ],
    )
    out = tmp_path / "report.json"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert "DegenerateWeights" in capsys.readouterr().err
    record = json.loads(out.read_text())
    assert record["report"] is None
    assert "DegenerateWeights" in record["error"]


def test_run_report_roundtrips_floats_exactly(tmp_path):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "report.json"
    write_config(cfg)
    main(["run", "--config", str(cfg), "--out", str(out)])
    record = json.loads(out.read_text())
    # independently recompute and compare bit for bit
    from mvgrover.config import parse_config
    from mvgrover.search import run_search

    report = run_search(parse_config(json.loads(cfg.read_text())))
    assert record["report"]["norm_constant"] == report.norm_constant
    for s, v in report.overlaps.items():
        assert record["report"]["overlaps"][s] == [v.real, v.imag]
    assert record["report"]["per_cell_max_error"] == report.per_cell_max_error


def test_run_deterministic_modulo_wall_time(tmp_path):
    cfg = tmp_path / "cfg.json"
    write_config(cfg)
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        main(["run", "--config", str(cfg), "--out", str(out)])
        doc = json.loads(out.read_text())
        doc["wall_time_ms"] = None
        outs.append(doc)
    assert outs[0] == outs[1]


def test_run_batch_writes_jsonl(tmp_path):
    cfg1 = tmp_path / "one.json"
    cfg2 = tmp_path / "two.json"
    write_config(cfg1)
    write_config(cfg2, target={"mode": "constant", "bits": "01"})
    out = tmp_path / "batch.jsonl"
    code = main(["run", "--config", str(cfg1), str(cfg2), "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0])["report"]["identified"] == "10"
    assert json.loads(lines[1])["report"]["identified"] == "01"


def test_run_batch_keeps_going_after_a_failed_run(tmp_path, capsys):
    paths = [tmp_path / f"{name}.json" for name in ("ok", "bad", "ok2")]
    write_config(paths[0])
    write_config(
        paths[1],
        use_dilation=True,
        zetas=[{"kind": "constant", "params": {"value": 1.5}}] * 2,
    )
    write_config(paths[2])
    out = tmp_path / "batch.jsonl"
    assert main(["run", "--config", *map(str, paths), "--out", str(out)]) == 1
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(records) == 3
    assert records[0]["report"]["identified"] == records[2]["report"]["identified"] == "10"
    assert records[1]["report"] is None
    assert records[1]["error"].startswith("WeightOutOfRange: ")
    assert "WeightOutOfRange" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides, path",
    [
        ({"zetas": [{"kind": "constant", "params": {"value": math.nan}}] * 2}, "/zetas/0/value"),
        ({"envelopes": [{"kind": "gaussian", "sigma_theta": math.inf}] * 2}, "/envelopes/0/sigma_theta"),
        ({"envelopes": [{"kind": "tabulated", "values": [[-math.inf] * 6] * 6}] * 2}, "/envelopes/0/values/0/0"),
        ({"zetas": [{"kind": "constant", "params": {"value": 10**400}}] * 2}, "/zetas/0/value"),
        ({"n_modes": 5}, "/n_modes"),
    ],
)
def test_run_invalid_numbers_and_sizes_name_field(tmp_path, capsys, overrides, path):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, **overrides)
    out = tmp_path / "r.json"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    assert f"{path}:" in capsys.readouterr().err
    assert not out.exists()


def test_seed_is_echoed_but_not_carried(tmp_path):
    from mvgrover.config import parse_config

    cfg = tmp_path / "cfg.json"
    doc = write_config(cfg, seed=7)
    assert not hasattr(parse_config(doc), "seed")
    out = tmp_path / "r.json"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["seed"] == 7
    write_config(cfg, seed=1.5)
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1


def _reference_dumps(obj) -> str:
    """The recursive writer with one call per value that dumps_record replaced."""

    def fmt(x):
        if not math.isfinite(x):
            return "null"
        text = format(x, ".17g")
        if not any(c in text for c in ".eE"):
            text += ".0"
        return text

    def write(obj, out):
        if obj is None:
            out.append("null")
        elif obj is True:
            out.append("true")
        elif obj is False:
            out.append("false")
        elif isinstance(obj, str):
            out.append(json.dumps(obj))
        elif isinstance(obj, int):
            out.append(str(obj))
        elif isinstance(obj, float):
            out.append(fmt(obj))
        elif isinstance(obj, complex):
            write([obj.real, obj.imag], out)
        elif isinstance(obj, dict):
            out.append("{")
            for i, (key, value) in enumerate(obj.items()):
                if i:
                    out.append(", ")
                out.append(json.dumps(str(key)))
                out.append(": ")
                write(value, out)
            out.append("}")
        elif isinstance(obj, (list, tuple)):
            out.append("[")
            for i, value in enumerate(obj):
                if i:
                    out.append(", ")
                write(value, out)
            out.append("]")
        else:
            raise TypeError(type(obj).__name__)

    buf = []
    write(obj, buf)
    return "".join(buf)


def test_dumps_record_matches_the_recursive_writer():
    rng = np.random.default_rng(4)
    table = rng.uniform(-1e3, 1e3, (5, 4)).tolist()
    record = {
        "config": {
            "envelopes": [{"kind": "tabulated", "values": table},
                          {"values": [[[1.0, -2.5], [0.1, 3e-300]], [[2.0, 0.0], [-0.0, 1e300]]]}],
            "zetas": [{"values": [[1.0, 2.0, 3.0], [4.5, -6.0, 7.25]]}],
            "seed": 7,
            "use_dilation": True,
            "mixed": [1, 2.0, True, None, "s", [], [3.0, 7]],
        },
        "report": {
            "overlaps": {"00": 0.5 + 0.25j, "01": complex(-0.0, 1e-17), "10": 1j, "11": 0j},
            "norm_constant": 1.0,
            "per_cell_max_error": math.nan,
            "bounds": [math.inf, -math.inf, math.nan, 0.1 + 0.2, 1e16, 123456789.0, -1e-5],
            "branch_identified": ("01", None),
            "ancilla_branch_norms": (0.25, 0.75),
            "iterations_used": 3,
            "flag": False,
        },
        "empty": {"list": [], "tuple": ()},
    }
    assert dumps_record(record) == _reference_dumps(record)
    assert dumps_record(table) == _reference_dumps(table)


def test_dumps_record_17_digit_floats():
    text = dumps_record({"x": 1.0, "y": 0.1 + 0.2})
    assert json.loads(text)["x"] == 1.0
    assert json.loads(text)["y"] == 0.1 + 0.2  # 0.30000000000000004 survives
    assert "0.30000000000000004" in text


# --- verify -----------------------------------------------------------------


def test_verify_fast_passes(capsys):
    assert main(["verify", "--level", "fast"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("PASS") >= 10


def test_python_dash_m_runs_the_cli():
    src = str(Path(mvgrover.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "mvgrover", "verify", "--level", "fast"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "PASS" in done.stdout and "FAIL" not in done.stdout


def test_verify_names_a_broken_grover_identity(monkeypatch, capsys):
    # Only verify's view of the operators builds a negated grover_cell; the
    # search engine keeps the real one, so exactly one invariant fails.
    def negated(target, grid):
        op = ops.grover_cell(target, grid)
        return dataclasses.replace(op, mats=-op.mats)

    monkeypatch.setattr(verify, "ops", types.SimpleNamespace(**{**vars(ops), "grover_cell": negated}))
    assert main(["verify", "--level", "full"]) == 1
    lines = capsys.readouterr().out.splitlines()
    fails = [line for line in lines if not line.startswith("PASS ")]
    assert len(fails) == 1 and fails[0].startswith("FAIL grover-operator-identity: "), fails
    assert len(lines) == len(verify.FULL_CHECKS)


def test_verify_corrupt_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--corrupt", "x"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --corrupt x" in capsys.readouterr().err


def test_verify_lines_carry_check_times(capsys):
    assert main(["verify", "--level", "full"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) >= 10
    for line in lines:
        assert re.fullmatch(r"PASS [a-z0-9-]+ \(\d+\.\d ms\)", line), line


# --- one process, several commands -------------------------------------------


def test_successive_main_calls_reuse_one_parser(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "report.json"
    write_config(cfg)
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert "identified 10" in capsys.readouterr().out
    assert main(["verify", "--level", "fast"]) == 0
    assert "FAIL" not in capsys.readouterr().out
    assert main(["state", "load", "--path", str(tmp_path / "missing.bin")]) == 1
    assert "no such file" in capsys.readouterr().err
    write_config(cfg, g_theta=0)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 1
    assert "/g_theta" in capsys.readouterr().err
    assert main(["verify", "--level", "fast"]) == 0
    assert "FAIL" not in capsys.readouterr().out
    assert _build_parser() is _build_parser()


# --- state ------------------------------------------------------------------


def test_state_save_load_roundtrip_bitwise(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    write_config(cfg)
    first = tmp_path / "state.mvgr"
    second = tmp_path / "state2.mvgr"
    assert main(["state", "save", "--config", str(cfg), "--path", str(first)]) == 0
    assert (
        main(["state", "load", "--path", str(first), "--resave", str(second)]) == 0
    )
    assert first.read_bytes() == second.read_bytes()
    state = load_state(first)
    assert quad_norm(state) == pytest.approx(1.0, abs=1e-12)
    assert state_to_bytes(state) == first.read_bytes()


def test_state_save_list_stage(tmp_path):
    cfg = tmp_path / "cfg.json"
    write_config(cfg)
    path = tmp_path / "list.mvgr"
    assert main(["state", "save", "--config", str(cfg), "--path", str(path), "--stage", "list"]) == 0
    state = load_state(path)
    assert quad_norm(state) == pytest.approx(1.0, abs=1e-12)


def test_state_load_bad_magic(tmp_path, capsys):
    path = tmp_path / "junk.mvgr"
    path.write_bytes(b"WRONG" + b"\x00" * 64)
    assert main(["state", "load", "--path", str(path)]) == 1
    assert "BadMagic" in capsys.readouterr().err


def test_state_load_truncated_reports_counts(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    write_config(cfg)
    path = tmp_path / "state.mvgr"
    main(["state", "save", "--config", str(cfg), "--path", str(path)])
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    assert main(["state", "load", "--path", str(path)]) == 1
    err = capsys.readouterr().err
    assert "TruncatedFile" in err and "expected" in err and "got" in err


# --- version ----------------------------------------------------------------


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert "mvgrover 0.1.0" in capsys.readouterr().out
