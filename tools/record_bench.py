"""Record the benchmark of one checkout as BENCH_<label>.json.

Run from anywhere:

    python3 tools/record_bench.py --label baseline
    python3 tools/record_bench.py --label parent --root ../parent-checkout
    python3 tools/record_bench.py --label change --parent-root ../parent-checkout
    python3 tools/record_bench.py --label change --parent-root ../parent-checkout \
        --pairs 10 --workload dense_dilation

Runs `perfbench/run.py` of the checkout at --root (default: this one) on the
three workloads with `--trace 0`, then on each once more with `--trace 1`,
each for seed SEED and a SECONDS window, one after another.  Each run's
environment, sample count and result object go to `BENCH_<label>.json` at the
root of this repository: the untraced runs under `workloads`, the traced ones
under `traced`.

With --parent-root the parent checkout takes the same twelve runs, one at a
time next to the same run of --root, which side goes first alternating from
one pair to the next, so drift of the machine lands on both sides alike.  The
parent's runs go to `BENCH_<label>_parent.json`.

--workload W limits all of these runs to W's two, and the documents to W.

--pairs N then takes N more untraced pairs of each workload, the parent
first in every other pair.  One pair cannot resolve a change below about 20%
on this benchmark; `BENCH_<label>_pairs.json` holds each pair's end-to-end
metrics, each metric's median on either side and the number of pairs the
change won (better in the direction BENCHMARK.json gives, ties not
counted).  A dense workload rotates slots of different cost, so each run's
op durations, read from the `perfbench/out/` result file of its checkout,
also give each slot's median op time (`slot_p50`, op i of a rotation being
slot i), with the median over the pairs and the pairs the change won per
slot.
"""

from __future__ import annotations

import argparse
import ast
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Optional

REPO = Path(__file__).resolve().parent.parent
WORKLOADS = ("dense_plain", "dense_dilation", "cli_small")
SEED = 7
SECONDS = 30


def bench_command(workload: str, trace: int) -> list[str]:
    return [
        "python3", "perfbench/run.py", "--workload", workload,
        "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", str(trace),
    ]


def run_bench(root: Path, workload: str, trace: int) -> dict:
    """One perfbench run: {environment, samples, result} from its last two lines."""
    done = subprocess.run(
        bench_command(workload, trace),
        cwd=root, capture_output=True, text=True, check=False,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(
            f"{workload} --trace {trace} exited {done.returncode}: {done.stderr.strip()[-2000:]}"
        )
    record = json.loads(lines[-2])
    record["result"] = json.loads(lines[-1])
    return record


def _runs(workloads) -> list[tuple[str, int]]:
    return [(w, 0) for w in workloads] + [(w, 1) for w in workloads]


def _document(results: dict, workloads) -> dict:
    """The BENCH document of {(workload, trace): run record}."""
    traced = {w: results[w, 1] for w in workloads}
    return {
        "command": " ".join(bench_command("W", 0)),
        "measured_on": traced[workloads[0]]["environment"]["git_sha"],
        "workloads": {w: results[w, 0] for w in workloads},
        "traced": {"command": " ".join(bench_command("W", 1)), **traced},
    }


def record(root: Path, workloads=WORKLOADS, run=run_bench) -> dict:
    """The BENCH document: each workload untraced, then each workload traced."""
    return _document({(w, t): run(root, w, t) for w, t in _runs(workloads)}, workloads)


def record_pair(root: Path, parent_root: Path, workloads=WORKLOADS,
                run=run_bench) -> tuple[dict, dict]:
    """(change, parent) BENCH documents from the runs of record, each taken on
    both checkouts back to back, the parent first in every other pair."""
    change, parent = {}, {}
    for i, (w, t) in enumerate(_runs(workloads)):
        sides = [(parent_root, parent), (root, change)]
        for side_root, results in sides if i % 2 == 0 else sides[::-1]:
            results[w, t] = run(side_root, w, t)
    return _document(change, workloads), _document(parent, workloads)


def slot_counts(root: Path) -> dict:
    """{workload: ops per rotation}: the length of each dense workload's slot
    list in root's perfbench/workloads.py, read as source; cli_small runs one
    op."""
    tree = ast.parse((root / "perfbench" / "workloads.py").read_text(encoding="utf-8"))
    lengths = {target.id: len(node.value.elts) for node in tree.body
               if isinstance(node, ast.Assign) and isinstance(node.value, ast.List)
               for target in node.targets if isinstance(target, ast.Name)}
    return {"dense_plain": lengths["DENSE_PLAIN_SLOTS"],
            "dense_dilation": lengths["DENSE_DILATION_SLOTS"], "cli_small": 1}


def slot_medians(root: Path, workload: str, slots: int) -> Optional[list]:
    """Median op time of each slot in the last untraced run of workload at
    root, from its result file; None where the run left none."""
    path = root / "perfbench" / "out" / f"result_{workload}_seed{SEED}_trace0.json"
    if not path.is_file():
        return None
    durations = json.loads(path.read_text(encoding="utf-8"))["durations"]
    return [statistics.median(durations[i::slots]) for i in range(slots)]


def _better(benchmark: Path) -> dict:
    """{end-to-end metric: "lower" or "higher"} from BENCHMARK.json."""
    doc = json.loads(benchmark.read_text(encoding="utf-8"))
    return {m["name"]: m["better"] for m in doc["end_to_end"]}


def record_pairs(root: Path, parent_root: Path, workloads, n_pairs: int, better: dict,
                 run=run_bench) -> dict:
    """N untraced pairs of each workload, the parent first in every other
    pair: each pair's metrics and slot medians, the medians and the pairs the
    change won."""
    sign = {name: 1 if how == "lower" else -1 for name, how in better.items()}
    slots = slot_counts(REPO)
    out = {"command": " ".join(bench_command("W", 0)), "workloads": {}}
    for w in workloads:
        pairs = []
        for i in range(n_pairs):
            sides = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            pair = {"first": sides[0], "slot_p50": {}}
            for side in sides:
                side_root = parent_root if side == "parent" else root
                metrics = run(side_root, w, 0)["result"]["metrics"]
                pair[side] = {name: metrics[name]["value"] for name in better}
                pair["slot_p50"][side] = slot_medians(side_root, w, slots[w])
            pairs.append(pair)
        median = {side: {name: statistics.median(p[side][name] for p in pairs) for name in better}
                  for side in ("parent", "change")}
        won = {name: sum(s * p["change"][name] < s * p["parent"][name] for p in pairs)
               for name, s in sign.items()}
        out["workloads"][w] = {"pairs": pairs, "median": median, "change_won": won}
        timed = [p["slot_p50"] for p in pairs if None not in p["slot_p50"].values()]
        if timed:
            out["workloads"][w]["slot_median"] = {
                side: [statistics.median(t[side][i] for t in timed) for i in range(slots[w])]
                for side in ("parent", "change")}
            out["workloads"][w]["slot_change_won"] = [
                sum(t["change"][i] < t["parent"][i] for t in timed) for i in range(slots[w])]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument("--root", type=Path, default=REPO, help="checkout to measure")
    parser.add_argument("--parent-root", type=Path,
                        help="parent checkout, run alternately; writes BENCH_<label>_parent.json")
    parser.add_argument("--pairs", type=int, default=0,
                        help="with --parent-root, N more untraced pairs per workload; "
                             "writes BENCH_<label>_pairs.json")
    parser.add_argument("--workload", choices=WORKLOADS, help="run this workload only")
    args = parser.parse_args(argv)
    if args.pairs < 0:
        parser.error("--pairs must be >= 0")
    if args.pairs and not args.parent_root:
        parser.error("--pairs needs --parent-root")
    workloads = (args.workload,) if args.workload else WORKLOADS
    roots = [args.root] + ([args.parent_root] if args.parent_root else [])
    for root in roots:
        if not (root / "perfbench" / "run.py").is_file():
            parser.error(f"no perfbench/run.py under {root}")
    try:
        if args.parent_root:
            root, parent_root = args.root.resolve(), args.parent_root.resolve()
            docs = record_pair(root, parent_root, workloads)
            if args.pairs:
                better = _better(REPO / "BENCHMARK.json")
                docs += (record_pairs(root, parent_root, workloads, args.pairs, better),)
        else:
            docs = (record(args.root.resolve(), workloads),)
    except RuntimeError as exc:
        print(f"record_bench: {exc}", file=sys.stderr)
        return 1
    for suffix, doc in zip(("", "_parent", "_pairs"), docs):
        out = REPO / f"BENCH_{args.label}{suffix}.json"
        out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
