"""Compare the run reports of this checkout with those of a parent checkout.

Run from anywhere:

    python3 tools/compare_parent.py --parent-root ../parent-checkout
    python3 tools/compare_parent.py --parent-root ../parent-checkout \
        --workloads cli_small --seeds 7 --iterations auto,1

Draws one config per slot of each workload (`perfbench/workloads.py` of
this repository, imported read-only), seed and iteration count: by default
every dense and CLI slot, seeds 7, 3, 11 and 9013 and iterations auto, 0,
1, 2, 3 and 7, 336 configs.  Each checkout (--root, default this one, and
--parent-root) runs them all in a subprocess of its own that imports
mvgrover from the checkout's `src/`: `parse_config`, then `run_search`
twice, the second under tracemalloc, and for plain runs `final_state`.  A
report is kept with every float as `float.hex`, an error by its class name,
a final state as the SHA-256 of its bytes, and the second run's peak in
bytes next to the size of one per-mode stack, `n g_theta g_k` floats.

Prints the count of equal readouts (identified, failure, branch readouts,
iterations), of equal named errors, of bit-identical reports and of
byte-identical final states, the largest relative move of a norm (against
the parent's) and of an overlap (against the parent's largest overlap
magnitude in that report), each side's largest per_cell_max_error, each
side's largest run peak in stacks among the configs of the sweep's largest
stack (where a run's footprint is its stacks, not its fixed cost), the
largest rise of a run peak in bytes and the number of configs whose peak
rose by more than 1 KB.  The peaks are left out of the report
comparison.  Exits 1 when a readout or a named error differs, 0 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
WORKLOADS = {"dense_plain": "DENSE_PLAIN_SLOTS", "dense_dilation": "DENSE_DILATION_SLOTS",
             "cli_small": "CLI_BATCH_SLOTS"}
SEEDS = (7, 3, 11, 9013)
ITERATIONS = ("auto", 0, 1, 2, 3, 7)
READOUT = ("identified", "failure", "branch_identified", "iterations_used")
PEAK = ("peak_bytes", "stack_bytes")
PEAK_RISE = 1024  # bytes


def draw_docs(workloads, seeds, iterations) -> list[dict]:
    """One config document per (workload slot, seed, iteration count), each
    seed's generator drawing the slots in order, each slot every count."""
    sys.path.insert(0, str(REPO / "perfbench"))
    try:
        import workloads as bench  # noqa: PLC0415  (numpy is imported here only)
    finally:
        sys.path.pop(0)
    import numpy as np  # noqa: PLC0415

    docs = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        for name in workloads:
            for slot in getattr(bench, WORKLOADS[name]):
                for it in iterations:
                    try:
                        docs.append(bench.draw_config(rng, slot, it)[0])
                    except Exception as exc:  # the benchmark's oracle failed, not a checkout
                        raise RuntimeError(f"perfbench cannot draw slot {slot} at iterations {it}: "
                                           f"{type(exc).__name__}: {exc}") from None
    return docs


def _hex(x) -> str:
    return float(x).hex()


def _record(mv, doc: dict) -> dict:
    """The report, or error name, of one config, floats as float.hex."""
    try:
        cfg = mv.config.parse_config(doc)
        report = mv.search.run_search(cfg)
        tracemalloc.start()  # the first run filled the per-process caches
        try:
            mv.search.run_search(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        final = None if cfg.use_dilation else mv.search.final_state(cfg).amp
    except Exception as exc:  # every error is compared by name
        return {"error": type(exc).__name__}
    norms = report.ancilla_branch_norms
    return {
        "norm_constant": _hex(report.norm_constant),
        "ancilla_branch_norms": None if norms is None else [_hex(x) for x in norms],
        "overlaps": {s: [_hex(v.real), _hex(v.imag)] for s, v in report.overlaps.items()},
        "per_cell_max_error": _hex(report.per_cell_max_error),
        "identified": report.identified,
        "failure": report.failure,
        "branch_identified": report.branch_identified,
        "iterations_used": report.iterations_used,
        "final_sha256": None if final is None else hashlib.sha256(final.tobytes()).hexdigest(),
        "peak_bytes": peak,
        "stack_bytes": 8 * cfg.n_modes * cfg.g_theta * cfg.g_k,
    }


def worker(root: Path) -> int:
    """Run the config documents on stdin with root's mvgrover; one JSON list
    of records on stdout."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import mvgrover  # noqa: PLC0415
    import mvgrover.config  # noqa: PLC0415, F401
    import mvgrover.search  # noqa: PLC0415, F401

    if Path(mvgrover.__file__).resolve().parent != src / "mvgrover":
        print(f"imported mvgrover from {mvgrover.__file__}, not from {src}", file=sys.stderr)
        return 2
    docs = json.load(sys.stdin)
    json.dump([_record(mvgrover, doc) for doc in docs], sys.stdout)
    return 0


def run_side(root: Path, docs: list[dict]) -> list[dict]:
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--worker", str(root)],
        input=json.dumps(docs), capture_output=True, text=True, check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{root} exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout)


def _rel(a: str, b: str, scale: float) -> float:
    """|a - b| / scale of two float.hex values; 0 when both are equal."""
    x, y = float.fromhex(a), float.fromhex(b)
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    return abs(x - y) / scale if scale > 0 else math.inf


def compare(change: list[dict], parent: list[dict]) -> dict:
    """Counts and largest moves of two sides' records of the same configs."""
    out = {"configs": len(change), "errors": 0, "readout_diffs": [], "error_diffs": [],
           "bit_identical": 0, "reports": 0, "finals": 0, "finals_identical": 0,
           "norm_rel": 0.0, "overlap_rel": 0.0, "cell_error": {"change": 0.0, "parent": 0.0},
           "stack_bytes": 0, "peak_stacks": {"change": 0.0, "parent": 0.0}, "peak_rise": 0,
           "peak_rises": 0}
    for i, (c, p) in enumerate(zip(change, parent)):
        if "error" in c or "error" in p:
            if c.get("error") != p.get("error"):
                out["error_diffs"].append((i, p.get("error"), c.get("error")))
            else:
                out["errors"] += 1
            continue
        out["reports"] += 1
        if any(c[k] != p[k] for k in READOUT):
            out["readout_diffs"].append((i, {k: (p[k], c[k]) for k in READOUT if c[k] != p[k]}))
        stack = c["stack_bytes"]
        if stack > out["stack_bytes"]:
            out["stack_bytes"], out["peak_stacks"] = stack, {"change": 0.0, "parent": 0.0}
        if stack == out["stack_bytes"]:
            for side, rec in (("change", c), ("parent", p)):
                out["peak_stacks"][side] = max(out["peak_stacks"][side], rec["peak_bytes"] / stack)
        rise = c["peak_bytes"] - p["peak_bytes"]
        out["peak_rise"] = max(out["peak_rise"], rise)
        out["peak_rises"] += rise > PEAK_RISE
        if all(c[k] == p[k] for k in c.keys() | p.keys() if k not in PEAK):
            out["bit_identical"] += 1
        if p["final_sha256"] is not None:
            out["finals"] += 1
            out["finals_identical"] += c["final_sha256"] == p["final_sha256"]
        norms = [(c["norm_constant"], p["norm_constant"])]
        if p["ancilla_branch_norms"] is not None and c["ancilla_branch_norms"] is not None:
            norms += list(zip(c["ancilla_branch_norms"], p["ancilla_branch_norms"]))
        for x, y in norms:
            out["norm_rel"] = max(out["norm_rel"], _rel(x, y, abs(float.fromhex(y))))
        if c["overlaps"].keys() == p["overlaps"].keys():
            top = max(abs(complex(float.fromhex(re), float.fromhex(im)))
                      for re, im in p["overlaps"].values())
            for s, (re, im) in p["overlaps"].items():
                ov = c["overlaps"][s]
                out["overlap_rel"] = max(out["overlap_rel"], _rel(ov[0], re, top), _rel(ov[1], im, top))
        for side, rec in (("change", c), ("parent", p)):
            err = float.fromhex(rec["per_cell_max_error"])
            out["cell_error"][side] = max(out["cell_error"][side], err)
    return out


def summary(result: dict) -> list[str]:
    n = result["configs"]
    peaks = result["peak_stacks"]
    return [
        f"configs: {n}",
        f"readouts equal: {result['reports'] - len(result['readout_diffs'])} of {result['reports']} reports",
        f"named errors equal: {result['errors']} (differing: {len(result['error_diffs'])})",
        f"bit-identical reports: {result['bit_identical']} of {result['reports']}",
        f"final states byte-identical: {result['finals_identical']} of {result['finals']}",
        f"largest relative norm move: {result['norm_rel']:.3g}",
        f"largest relative overlap move: {result['overlap_rel']:.3g}",
        f"largest per_cell_max_error: change {result['cell_error']['change']:.3g}, "
        f"parent {result['cell_error']['parent']:.3g}",
        f"run peaks: at the largest stack, {result['stack_bytes']} B, largest change "
        f"{peaks['change']:.2f} stacks, parent {peaks['parent']:.2f} stacks; largest rise "
        f"{result['peak_rise']} B; {result['peak_rises']} of {result['reports']} rose by more than 1 KB",
    ] + [f"readout differs at config {i}: {diff}" for i, diff in result["readout_diffs"]] + [
        f"named error differs at config {i}: parent {p}, change {c}" for i, p, c in result["error_diffs"]]


def _iteration(text: str):
    return text if text == "auto" else int(text)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--worker"] and len(argv) == 2:
        return worker(Path(argv[1]))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent-root", type=Path, required=True, help="parent checkout")
    parser.add_argument("--root", type=Path, default=REPO, help="checkout to compare (default: this one)")
    parser.add_argument("--workloads", default=",".join(WORKLOADS),
                        help="comma-separated workloads whose slots are drawn")
    parser.add_argument("--seeds", default=",".join(map(str, SEEDS)), help="comma-separated seeds")
    parser.add_argument("--iterations", default=",".join(map(str, ITERATIONS)),
                        help="comma-separated iteration counts ('auto' or integers)")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    if set(workloads) - set(WORKLOADS):
        parser.error(f"--workloads must name some of {', '.join(WORKLOADS)}")
    try:
        seeds = [int(s) for s in args.seeds.split(",")]
        iterations = [_iteration(s) for s in args.iterations.split(",")]
    except ValueError as exc:
        parser.error(str(exc))
    for root in (args.root, args.parent_root):
        if not (root / "src" / "mvgrover" / "__init__.py").is_file():
            parser.error(f"no src/mvgrover under {root}")
    try:
        docs = draw_docs(workloads, seeds, iterations)
        parent = run_side(args.parent_root, docs)
        change = run_side(args.root, docs)
    except RuntimeError as exc:
        print(f"compare_parent: {exc}", file=sys.stderr)
        return 2
    result = compare(change, parent)
    print("\n".join(summary(result)))
    return 1 if result["readout_diffs"] or result["error_diffs"] else 0


if __name__ == "__main__":
    sys.exit(main())
