"""Command-line front end: run searches, verify invariants, move state files.

Exit codes: 0 success, 1 configuration/file problems and runs that reject
their input, 2 runs whose weights are degenerate or whose readout is not
univocal.  Reports are JSON with every float written to 17 significant
digits, so reading one back reproduces each value bit for bit.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from dataclasses import asdict
from typing import Optional

from . import __version__
from .config import load_config
from .errors import ConfigInvalid, DegenerateWeights, MvGroverError
from .kernel import load_state, quad_norm, save_state
from .search import SearchReport, build_list, final_state, run_search


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        return "null"  # JSON has no NaN/Infinity
    text = format(x, ".17g")
    if "." in text or "e" in text:
        return text
    return text + ".0"  # bare integers keep float-ness


def _write_json(obj, out: list) -> None:
    """Minimal JSON writer so floats always carry 17 significant digits."""
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
        out.append(_fmt_float(obj))
    elif isinstance(obj, complex):
        _write_json([obj.real, obj.imag], out)
    elif isinstance(obj, dict):
        out.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if i:
                out.append(", ")
            out.append(json.dumps(str(key)))
            out.append(": ")
            _write_json(value, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)) and all(type(value) is float for value in obj):
        out.append("[" + ", ".join(map(_fmt_float, obj)) + "]")  # a table row, a complex pair
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, value in enumerate(obj):
            if i:
                out.append(", ")
            _write_json(value, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_record(record) -> str:
    buf: list = []
    _write_json(record, buf)
    return "".join(buf)


def _report_doc(report: SearchReport) -> dict:
    return {**asdict(report), "overlaps": dict(sorted(report.overlaps.items()))}


def _exit_code(exc: Exception) -> int:
    """Exit code of a valid config whose run or state build raised exc."""
    return 2 if isinstance(exc, DegenerateWeights) else 1


def _execute_run(config_path: str) -> tuple[Optional[str], int]:
    """Run one config; returns (record line or None on invalid config, exit code)."""
    try:
        cfg, echo = load_config(config_path)
    except ConfigInvalid as exc:
        print(f"config invalid ({config_path}): {exc}", file=sys.stderr)
        return None, 1

    started = time.perf_counter()
    try:
        report, error = run_search(cfg), None
    except MvGroverError as exc:
        report, error, code = None, f"{type(exc).__name__}: {exc}", _exit_code(exc)
        print(f"{config_path}: {error}", file=sys.stderr)
    wall = (time.perf_counter() - started) * 1000.0

    line = dumps_record({
        "config": echo,
        "report": _report_doc(report) if report else None,
        "wall_time_ms": wall,
        "grid": {"n_modes": cfg.n_modes, "g_theta": cfg.g_theta, "g_k": cfg.g_k},
        "version": __version__,
        "error": error,
    })
    if report is None:
        return line, code
    if report.identified is None:
        print(f"readout failed: {report.failure}", file=sys.stderr)
        return line, 2
    print(f"identified {report.identified} in {report.iterations_used} iteration(s)")
    return line, 0


def _file_error(verb: str, path: str, exc: OSError) -> int:
    """Exit code 1, with "cannot <verb> <path>: <reason>" on stderr."""
    print(f"cannot {verb} {path}: {exc.strerror or exc}", file=sys.stderr)
    return 1


def _write_lines(path: str, lines: list[str], code: int) -> int:
    """Write each line and a newline to path; code, or 1 if path cannot be written."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            for line in lines:
                fh.write(line)
                fh.write("\n")
    except OSError as exc:
        return _file_error("write", path, exc)
    return code


def cmd_run(config_paths: list[str], out_path: str) -> int:
    """Run each config into one record line of out_path; exit 0 when every
    run identifies univocally, else the worst code.  A lone invalid config
    writes no file; in a batch it gets a `config invalid` line."""
    worst, lines = 0, []
    for path in config_paths:
        line, code = _execute_run(path)
        if line is None and len(config_paths) == 1:
            return code
        worst = max(worst, code)
        lines.append(line if line is not None else dumps_record({"config_path": path, "error": "config invalid"}))
    return _write_lines(out_path, lines, worst)


def cmd_verify(level: str) -> int:
    from . import verify

    return 0 if verify.run_suite(level) else 1


def cmd_state_save(config_path: str, path: str, stage: str) -> int:
    try:
        cfg, _ = load_config(config_path)
    except ConfigInvalid as exc:
        print(f"config invalid: {exc}", file=sys.stderr)
        return 1
    try:
        if stage == "list":
            state = build_list(cfg.envelopes, cfg.grid)
        else:
            state = final_state(cfg)
    except (MvGroverError, ValueError) as exc:
        print(f"cannot build {stage} state: {type(exc).__name__}: {exc}", file=sys.stderr)
        return _exit_code(exc)
    try:
        size = save_state(state, path)
    except OSError as exc:
        return _file_error("write", path, exc)
    print(f"saved {stage} state ({size} bytes) to {path}")
    return 0


def cmd_state_load(path: str, resave: Optional[str] = None) -> int:
    try:
        state = load_state(path)
    except FileNotFoundError:
        print(f"no such file: {path}", file=sys.stderr)
        return 1
    except OSError as exc:
        return _file_error("read", path, exc)
    except MvGroverError as exc:  # a bad magic, a size mismatch or an impossible grid
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    g = state.grid
    print(
        f"state: n_modes={g.n_modes} g_theta={g.g_theta} g_k={g.g_k} "
        f"quad_norm={quad_norm(state):.12g}"
    )
    if resave:
        try:
            save_state(state, resave)
        except OSError as exc:
            return _file_error("write", resave, exc)
        print(f"resaved to {resave}")
    return 0


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="mvgrover",
        description="Grover search on qubits encoded in a discretized modular-variable grid",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a search from a JSON config")
    run.add_argument("--config", required=True, nargs="+", help="config file(s)")
    run.add_argument("--out", required=True, help="report file (JSONL for several configs)")

    verify = sub.add_parser("verify", help="run the invariant suites")
    verify.add_argument("--level", choices=("fast", "full"), default="fast")

    state = sub.add_parser("state", help="save or load binary state files")
    state_sub = state.add_subparsers(dest="state_command", required=True)
    save = state_sub.add_parser("save", help="run a config and save the state")
    save.add_argument("--config", required=True)
    save.add_argument("--path", required=True)
    save.add_argument("--stage", choices=("list", "final"), default="final")
    load = state_sub.add_parser("load", help="load and summarize a state file")
    load.add_argument("--path", required=True)
    load.add_argument("--resave", help="write the loaded state back out")

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return cmd_run(args.config, args.out)
    if args.command == "verify":
        return cmd_verify(args.level)
    if args.command == "state":
        if args.state_command == "save":
            return cmd_state_save(args.config, args.path, args.stage)
        return cmd_state_load(args.path, resave=args.resave)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
