"""Span tracing from outside the program, and the per-layer metrics it yields.

The tracer replaces each traced layer function with a wrapper at every name
a caller looks it up by: the home module, each module that imported the
name, and the package namespace.  `mvgrover.search` calls `ops.apply`, so
the wrapper in `mvgrover.operators` catches it; it imports `tensor`,
`normalize` and `quad_norm` by name, so those are replaced in
`mvgrover.search` as well.  Work inside an untraced helper counts as self
time of its nearest traced caller.

A span is (id, parent id, name, op id, start, end).  Spans stay in memory
and are written out once, when the run ends.  A layer's self time is the
span's duration minus the time its direct child spans cover.  Counts
(calls, and bytes computed from array shapes or file sizes) are taken at
the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

LAYERS = ("kernel", "zak", "operators", "search", "config", "cli", "verify")

# Span name -> self-time metric.  Span names are "<layer>.<function>".
SELF_TIME = {
    "kernel.tensor": "kernel.tensor_s",
    "kernel.normalize": "kernel.normalize_s",
    "kernel.quad_norm": "kernel.quad_norm_s",
    "kernel.with_ancilla": "kernel.ancilla_s",
    "kernel.ancilla_branch": "kernel.ancilla_s",
    "kernel.save_state": "kernel.save_s",
    "kernel.state_to_bytes": "kernel.save_s",
    "kernel.load_state": "kernel.load_s",
    "kernel.state_from_bytes": "kernel.load_s",
    "zak.EnvelopeSpec.table_for": "zak.table_s",
    "zak.zak_forward": "zak.transform_s",
    "zak.zak_inverse": "zak.transform_s",
    "zak.build_gaussian": "zak.transform_s",
    "operators.apply": "operators.apply_s",
    "search.build_list": "search.build_list_s",
    "search.logical_overlaps": "search.overlaps_s",
    "search.per_cell_max_error": "search.per_cell_check_s",
    "search.run_search": "search.self_s",
    "search.final_state": "search.self_s",
    "search.logical_basis": "search.self_s",
    "search.sum_over_targets": "search.self_s",
    "search.weighted_list": "search.self_s",
    "search.reference_qubit_grover": "search.self_s",
    "config.load_config": "config.parse_s",
    "config.parse_config": "config.parse_s",
    "cli.main": "cli.self_s",
    "cli.dumps_record": "cli.serialize_s",
    "verify.run_suite": "verify.suite_s",
    "bench.op": "bench.self_s",
}
OPERATOR_CONSTRUCTORS = (
    "identity",
    "pauli",
    "gamma",
    "hadamard",
    "oracle",
    "inversion_about_zero",
    "grover_cell",
    "grover_weighted",
    "dilation",
    "compose",
    "joint_weight",
)
SELF_TIME.update({f"operators.{name}": "operators.build_s" for name in OPERATOR_CONSTRUCTORS})

STATE_RETURNING = {"kernel.tensor", "kernel.normalize", "kernel.with_ancilla", "operators.apply"}

# Per-layer metrics in report order: (name, unit).  Times are self seconds
# per traced op; counts are per traced op.
PER_LAYER = [
    ("kernel.tensor_s", "s/op"),
    ("kernel.normalize_s", "s/op"),
    ("kernel.quad_norm_s", "s/op"),
    ("kernel.ancilla_s", "s/op"),
    ("kernel.state_mb", "MB/op"),
    ("kernel.save_s", "s/op"),
    ("kernel.load_s", "s/op"),
    ("kernel.file_bytes", "B/op"),
    ("zak.table_s", "s/op"),
    ("zak.table_calls", "calls/op"),
    ("zak.transform_s", "s/op"),
    ("operators.build_s", "s/op"),
    ("operators.op_mb", "MB/op"),
    ("operators.apply_s", "s/op"),
    ("operators.apply_calls", "calls/op"),
    ("operators.apply_mb", "MB/op"),
    ("search.build_list_s", "s/op"),
    ("search.overlaps_s", "s/op"),
    ("search.per_cell_check_s", "s/op"),
    ("search.reference_calls", "calls/op"),
    ("search.self_s", "s/op"),
    ("config.parse_s", "s/op"),
    ("config.table_entries", "entries/op"),
    ("cli.serialize_s", "s/op"),
    ("cli.self_s", "s/op"),
    ("verify.suite_s", "s/op"),
    ("bench.self_s", "s/op"),
    ("trace.op_s_p50_traced", "s"),
    ("trace.op_s_p50_untraced", "s"),
    ("trace.overhead_frac", "ratio"),
]
# Metrics that must repeat exactly between two traced runs of one seed.
COUNT_METRICS = [
    name
    for name, _ in PER_LAYER
    if name.endswith(("_calls", "_mb", "_bytes")) or name == "config.table_entries"
]


def _table_entries(doc) -> int:
    """Numbers in the tabulated envelopes and table weights of a config doc."""
    total = 0
    if not isinstance(doc, dict):
        return 0
    for key in ("envelopes", "zetas"):
        for spec in doc.get(key) or []:
            if isinstance(spec, dict) and isinstance(spec.get("values"), list):
                total += sum(len(row) for row in spec["values"] if isinstance(row, list))
    return total


def _nbytes(obj) -> int:
    """Bytes of a state, an operator (matrices and weights) or a plain array."""
    if hasattr(obj, "mats"):
        return obj.mats.nbytes + obj.weight.nbytes
    if hasattr(obj, "amp"):
        return obj.amp.nbytes
    return getattr(obj, "nbytes", 0)


class Tracer:
    """Installs span wrappers into the mvgrover modules and collects spans."""

    def __init__(self, package):
        self.package = package
        self.modules = {name: importlib.import_module(f"{package.__name__}.{name}") for name in LAYERS}
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.largest_state: dict[int, int] = defaultdict(int)
        self.ops = 0
        self._stack: list[tuple[int, str]] = []
        self._op_id: int = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- span recording -----------------------------------------------------

    def _record(self, name: str, fn, args, kwargs):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else (None, None)
        self._stack.append((sid, name))
        self.spans.append(None)
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, parent[0], name, self._op_id, start, end)
        self._count(name, args, out, parent[1])
        return out

    def _count(self, name: str, args, out, parent_name) -> None:
        op = self._op_id
        if name in STATE_RETURNING:
            self.largest_state[op] = max(self.largest_state[op], _nbytes(out))
        if name == "operators.apply":
            self.counts["operators.apply_calls"] += 1
            self.counts["operators.apply_bytes"] += _nbytes(args[0]) + _nbytes(args[1]) + _nbytes(out)
        elif SELF_TIME.get(name) == "operators.build_s":
            if SELF_TIME.get(parent_name) != "operators.build_s":
                self.counts["operators.op_bytes"] += _nbytes(out)
        elif name == "zak.EnvelopeSpec.table_for":
            self.counts["zak.table_calls"] += 1
        elif name == "search.reference_qubit_grover":
            self.counts["search.reference_calls"] += 1
        elif name == "kernel.save_state":
            self.counts["kernel.file_bytes"] += os.path.getsize(args[1])
        elif name == "kernel.load_state":
            self.counts["kernel.file_bytes"] += os.path.getsize(args[0])
        elif name == "config.parse_config":
            self.counts["config.table_entries"] += _table_entries(args[0] if args else None)

    def _wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op_id < 0:
                return fn(*args, **kwargs)
            return self._record(name, fn, args, kwargs)

        return traced

    @contextmanager
    def op(self):
        """Root span of one op; every span recorded inside shares its op id."""
        self._op_id = self.ops
        self.ops += 1
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append((sid, "bench.op"))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, None, "bench.op", self._op_id, start, end)
            self._op_id = -1

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function at each name that refers to it."""
        namespaces = [self.package, *self.modules.values()]
        for span_name in SELF_TIME:
            layer, _, attr = span_name.partition(".")
            if layer not in self.modules:
                continue
            home = self.modules[layer]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._wrapper(span_name, original))
                continue
            original = getattr(home, attr)
            wrapper = self._wrapper(span_name, original)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._patches.append((ns, key, original))
                        setattr(ns, key, wrapper)

    def uninstall(self) -> None:
        for ns, key, original in reversed(self._patches):
            setattr(ns, key, original)
        self._patches.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results ------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Summed self seconds per span name."""
        child_time: dict[int, float] = defaultdict(float)
        for sid, parent, _, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for sid, _, name, _, start, end in self.spans:
            totals[name] += (end - start) - child_time[sid]
        return totals

    def layer_metrics(self) -> dict[str, float]:
        """Per-op self times and counts, keyed by per-layer metric name."""
        ops = max(self.ops, 1)
        out = {name: 0.0 for name, _ in PER_LAYER if not name.startswith("trace.")}
        for span_name, seconds in self.self_times().items():
            out[SELF_TIME[span_name]] += seconds / ops
        for key in ("zak.table_calls", "search.reference_calls", "operators.apply_calls",
                    "kernel.file_bytes", "config.table_entries"):
            out[key] = self.counts[key] / ops
        out["operators.apply_mb"] = self.counts["operators.apply_bytes"] / ops / 1e6
        out["operators.op_mb"] = self.counts["operators.op_bytes"] / ops / 1e6
        out["kernel.state_mb"] = sum(self.largest_state.values()) / ops / 1e6
        return out

    def write(self, path) -> None:
        """Write every span, one JSON array per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")
