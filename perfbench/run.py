"""mvgrover benchmark: dense search, dilation and CLI workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload dense_plain --seed 1 --seconds 30 --trace 0

Each workload is a closed loop with one client in this process.  The
benchmark imports mvgrover from the checkout's `src/`, generates its inputs
from the seed, times ops for `--seconds` seconds and checks every op's
output.  With `--trace 0` it reports the end-to-end metrics; with
`--trace 1` it alternates untraced and traced rotations of the same ops and
reports per-layer metrics from the traced ones.  The last line of standard
output is the result object; the line before it records the environment
and the number of timed samples.
Results and spans are also written under `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import statistics
import sys
import tempfile
import time
import traceback
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("dense_plain", "dense_dilation", "cli_small")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 5


class SetupError(Exception):
    """The checkout does not hold a program the benchmark can run."""


@dataclass
class Op:
    """One unit of timed work and the check its output must pass."""

    run: Callable[[], object]
    check: Callable[[object], bool]


class Tally:
    """Ops attempted and failed; an op that raises counts as failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def timed(self, op: Op, wrap=None) -> float:
        self.attempted += 1
        started = time.perf_counter()
        try:
            if wrap is None:
                out = op.run()
            else:
                with wrap():
                    out = op.run()
        except Exception:
            elapsed = time.perf_counter() - started
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return elapsed
        elapsed = time.perf_counter() - started
        try:
            ok = op.check(out)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok = False
        self.failed += not ok
        return elapsed


def cap_threads() -> int:
    """Cap BLAS and OpenMP threads at the CPUs this process may use."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    return nproc


def import_program():
    """Import mvgrover from this checkout; returns (modules, seconds)."""
    src = ROOT / "src"
    if not (src / "mvgrover" / "__init__.py").is_file():
        raise SetupError(f"no mvgrover sources under {src}")
    sys.path.insert(0, str(src))
    started = time.perf_counter()
    import mvgrover
    import mvgrover.cli
    import mvgrover.search
    import mvgrover.verify  # noqa: F401  (imported lazily by the CLI; timed here)

    elapsed = time.perf_counter() - started
    if Path(mvgrover.__file__).resolve().parent != (src / "mvgrover").resolve():
        raise SetupError(f"imported mvgrover from {mvgrover.__file__}, not from {src}")
    return mvgrover, elapsed


# ---------------------------------------------------------------------------
# Ops.  `workloads` and `spans` import numpy, so they are imported inside
# functions, after cap_threads has set the thread caps.
# ---------------------------------------------------------------------------


def dense_ops(mv, slots, seed: int) -> list[Op]:
    from workloads import dense_workload, readout_matches

    search = mv.search
    ops = []
    for doc, exp in dense_workload(slots, seed):
        cfg = mv.config.parse_config(doc)

        def run(cfg=cfg):
            return search.run_search(cfg)

        def check(report, exp=exp):
            return readout_matches(
                report.identified,
                report.failure,
                report.norm_constant,
                report.per_cell_max_error,
                exp,
            )

        ops.append(Op(run, check))
    return ops


def cli_ops(mv, seed: int, workdir: Path) -> list[Op]:
    from workloads import CLI_STATE_SLOT, cli_workload, readout_matches

    script = cli_workload(seed, workdir)
    cli = mv.cli

    def run():
        captured = io.StringIO()
        with redirect_stdout(captured), redirect_stderr(io.StringIO()):
            codes = [
                cli.main(["run", "--config", *script.config_paths, "--out", script.batch_out]),
                cli.main([
                    "state", "save", "--config", script.config_paths[CLI_STATE_SLOT],
                    "--path", script.state_path, "--stage", "final",
                ]),
                cli.main(["state", "load", "--path", script.state_path, "--resave", script.resave_path]),
            ]
            mark = captured.tell()
            codes.append(cli.main(["verify", "--level", "full"]))
        return codes, captured.getvalue()[mark:].splitlines()

    def check(result) -> bool:
        codes, verify_lines = result
        try:
            ok = codes == [max(e.exit_code for e in script.expected), 0, 0, 0]
            with open(script.batch_out, encoding="utf-8") as fh:
                records = [json.loads(line) for line in fh]
            ok = ok and len(records) == len(script.expected)
            for record, exp in zip(records, script.expected):
                report = record.get("report")
                if exp.error is not None:
                    ok = ok and report is None and str(record.get("error")).startswith(exp.error)
                else:
                    ok = ok and report is not None and readout_matches(
                        report["identified"],
                        report["failure"],
                        report["norm_constant"],
                        report["per_cell_max_error"],
                        exp,
                    )
            saved = Path(script.state_path).read_bytes()
            ok = ok and len(saved) == script.state_bytes
            ok = ok and Path(script.resave_path).read_bytes() == saved
            ok = ok and bool(verify_lines) and all(line.startswith("PASS ") for line in verify_lines)
            return ok
        finally:
            for path in (script.batch_out, script.state_path, script.resave_path):
                Path(path).unlink(missing_ok=True)

    return [Op(run, check)]


def build_ops(mv, workload: str, seed: int, workdir: Path) -> list[Op]:
    import workloads

    if workload == "dense_plain":
        return dense_ops(mv, workloads.DENSE_PLAIN_SLOTS, seed)
    if workload == "dense_dilation":
        return dense_ops(mv, workloads.DENSE_DILATION_SLOTS, seed)
    return cli_ops(mv, seed, workdir)


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def p90(samples: list[float]) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


def setup(mv, workload: str, seed: int, workdir: Path, reps: int, tally: Tally):
    """Generate the workload and run one warm-up op, `reps` times.

    Returns the ops of the last repetition and the median repetition time.
    """
    times = []
    for _ in range(reps):
        started = time.perf_counter()
        ops = build_ops(mv, workload, seed, workdir)
        tally.timed(ops[0])
        times.append(time.perf_counter() - started)
    return ops, statistics.median(times)


def measure_untraced(ops: list[Op], seconds: float, tally: Tally) -> dict:
    """Closed loop over whole rotations of the ops until `seconds` pass."""
    durations = []
    started = time.perf_counter()
    while time.perf_counter() - started < seconds:
        for op in ops:
            durations.append(tally.timed(op))
    wall = time.perf_counter() - started

    # Untimed pass: each distinct op once under tracemalloc.
    peak = 0
    for op in ops:
        tracemalloc.start()
        try:
            tally.timed(op)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return {
        "durations": durations,
        "metrics": {
            "op_s_p50": (statistics.median(durations), "s"),
            "op_s_p90": (p90(durations), "s"),
            "ops_per_s": (len(durations) / wall, "1/s"),
            "peak_mb": (peak / 1e6, "MB"),
        },
    }


def measure_traced(mv, ops: list[Op], seconds: float, tally: Tally, spans_path: Path) -> dict:
    """Alternate untraced and traced rotations; per-layer metrics from the traced."""
    from spans import PER_LAYER, Tracer

    tracer = Tracer(mv)
    untraced, traced = [], []
    started = time.perf_counter()
    while time.perf_counter() - started < seconds:
        for op in ops:
            untraced.append(tally.timed(op))
        with tracer.installed():
            for op in ops:
                traced.append(tally.timed(op, wrap=tracer.op))
    tracer.write(spans_path)

    layer = tracer.layer_metrics()
    base, slow = statistics.median(untraced), statistics.median(traced)
    layer["trace.op_s_p50_traced"] = slow
    layer["trace.op_s_p50_untraced"] = base
    layer["trace.overhead_frac"] = slow / base - 1.0
    units = dict(PER_LAYER)
    return {
        "durations": traced,
        "untraced_durations": untraced,
        "metrics": {name: (layer[name], units[name]) for name, _ in PER_LAYER},
    }


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def git_sha(root: Path):
    """HEAD commit of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(nproc: int) -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {key: deps.get(key) for key in ("blas", "lapack")}
    except (TypeError, KeyError):
        blas = None
    return {
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": nproc,
        "thread_caps": {var: os.environ.get(var) for var in THREAD_VARS},
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the full record (result, environment, samples)."""
    nproc = cap_threads()
    mv, import_s = import_program()
    OUT_DIR.mkdir(exist_ok=True)
    tally = Tally()
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        workdir = Path(tmp)
        ops, setup_rep_s = setup(mv, workload, seed, workdir, 1 if trace else SETUP_REPS, tally)
        if trace:
            spans_path = OUT_DIR / f"spans_{workload}_seed{seed}.jsonl"
            measured = measure_traced(mv, ops, seconds, tally, spans_path)
        else:
            measured = measure_untraced(ops, seconds, tally)
            measured["metrics"]["setup_s"] = (import_s + setup_rep_s, "s")
            measured["metrics"]["ok_frac"] = ((tally.attempted - tally.failed) / tally.attempted, "ratio")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in measured["metrics"].items()},
    }
    record = {"environment": environment(nproc), "samples": len(measured["durations"]), "result": result}
    record.update({key: value for key, value in measured.items() if key.endswith("durations")})
    path = OUT_DIR / f"result_{workload}_seed{seed}_trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (args.seconds > 0 and math.isfinite(args.seconds)):
        parser.error("--seconds must be a positive number")
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"environment": record["environment"], "samples": record["samples"]}))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
