"""Seeded workload generators and the closed-form oracle that checks each op.

Every workload is a fixed rotation of slots.  A slot fixes the grid size and
the kinds of target, envelope and weight, so the amount of work per op does
not depend on the seed; the seed only draws the numeric parameters (centres,
widths, target bits, interval end points, table entries).  mvgrover sees
nothing but the generated JSON config documents.

The oracle predicts each run's readout without calling mvgrover.  After the
Hadamard the list holds P(cell) * u on every cell, with P the product of the
per-mode envelope tables and u the uniform band vector.  Each cell then runs
the textbook search on its own target class t, so the final amplitude is
f(cell) * P(cell) * v_t, where v_t is r rounds of the dense qubit search and
f is w^r for plain runs.  For dilation runs the ancilla factor
A = w sigma_x + w' sigma_z squares to the identity, so f is w (ancilla 1)
and sqrt(1 - w^2) (ancilla 0) after an odd r, and the ancilla stays in 0
after an even r.  The overlap with logical string s is then
sum_t v_t[s] * A_t / sqrt(N), with A_t the envelope mass of class t weighted
by f and N the branch norm.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

# Mirrors the readout rule that README documents.
DECISION_THRESHOLD = 1e-8
BRANCH_FLOOR = 1e-20
# Inputs whose overlaps come this close (as a factor) to the decision
# threshold are redrawn: their answer would hinge on rounding, not on the
# search.
THRESHOLD_MARGIN = 100.0
MAX_CELL_ERROR = 1e-12

Identified = Union[str, tuple, None]


@dataclass(frozen=True)
class Expected:
    """What one run must report: readout, CLI exit code, or a named error."""

    identified: Identified
    failure: Optional[str]
    exit_code: int
    error: Optional[str] = None


class NearThreshold(Exception):
    """A drawn config would put an overlap next to the decision threshold."""


# ---------------------------------------------------------------------------
# Slots: (n_modes, g, target kind, envelope kind, weight kind, use_dilation)
# ---------------------------------------------------------------------------

# Three slots of clearly different cost per dense workload: with whole
# rotations the median op then falls inside the middle slot's cluster of
# times rather than in the gap between two clusters, where it would jump.
# Together the three cover every target, envelope and weight kind.  The
# first slot is the warm-up op of set-up, so it is a mid-sized one.
DENSE_PLAIN_SLOTS = [
    (3, 8, "multi", "tabulated", "table", False),
    (2, 32, "single", "gaussian", "cosine", False),
    (4, 4, "intervals", "gaussian", "table", False),
]

DENSE_DILATION_SLOTS = [
    (3, 6, "multi", "tabulated", "table", True),
    (2, 24, "single", "gaussian", "cosine", True),
    (4, 3, "intervals", "gaussian", "table", True),
]

# The CLI batch: every target kind, plain and dilation, tabulated envelopes
# and table weights, one explicit even iteration count under dilation, one
# readout that is not univocal (three modes) and one config whose weights
# vanish; the last two end in exit code 2.
CLI_BATCH_SLOTS = [
    (2, 16, "single", "gaussian", "cosine", False),
    (2, 12, "multi", "tabulated", "table", False),
    (2, 10, "intervals", "gaussian", "cosine", True),
    (3, 6, "single", "constant", None, False),
    (2, 8, "single", "tabulated", "table", True),
    (4, 3, "intervals", "gaussian", "table", False),
    (2, 8, "single", "gaussian", "zero", False),
    (3, 4, "multi", "gaussian", "cosine", True),
]
CLI_EXPLICIT_ITERATIONS = {4: 2}  # slot index -> iterations
CLI_STATE_SLOT = 0  # plain config whose final state is saved and reloaded


def _bits(rng, n: int) -> str:
    return "".join(str(int(b)) for b in rng.integers(0, 2, n))


def _draw_target(rng, kind: str, n: int) -> dict:
    if kind == "single":
        return {"mode": "constant", "bits": _bits(rng, n)}
    if kind == "multi":
        picks = rng.choice(2**n, size=2, replace=False)
        return {"mode": "constant", "strings": [format(int(p), f"0{n}b") for p in picks]}
    sets = []
    for _ in range(n):
        ends = np.sort(rng.uniform(0.0, math.pi, 2 * int(rng.integers(1, 3))))
        sets.append([[float(ends[i]), float(ends[i + 1])] for i in range(0, ends.size, 2)])
    return {"mode": "intervals", "intervals": sets}


def _draw_envelope(rng, kind: str, g: int) -> dict:
    if kind == "constant":
        return {"kind": "constant"}
    if kind == "gaussian":
        return {
            "kind": "gaussian",
            "center_theta": float(rng.uniform(1.0, 2.1)),
            "center_k": float(rng.uniform(0.35, 0.65)),
            "sigma_theta": float(rng.uniform(0.6, 1.0)),
            "sigma_k": float(rng.uniform(0.2, 0.3)),
        }
    # Positive real tables: per_cell_max_error compares band vectors without
    # aligning their phase, so a complex or negative entry reads as an error
    # of up to 2 on the current program.
    return {"kind": "tabulated", "values": rng.uniform(0.2, 1.0, (g, g)).tolist()}


def _draw_zeta(rng, kind: str, g: int) -> dict:
    if kind == "zero":
        return {"kind": "constant", "params": {"value": 0.0}}
    if kind == "cosine":
        # theta_factor * pi + k_factor + phase < pi / 2 keeps every weight positive
        return {
            "kind": "cosine",
            "params": {
                "amplitude": float(rng.uniform(0.6, 0.95)),
                "theta_factor": float(rng.uniform(0.3, 0.4)),
                "k_factor": float(rng.uniform(0.0, 0.2)),
                "phase": float(rng.uniform(0.0, 0.1)),
            },
        }
    return {"kind": "table", "values": rng.uniform(0.3, 0.95, (g, g)).tolist()}


def draw_config(rng, slot, iterations="auto") -> tuple[dict, Expected]:
    """One config document for a slot plus its predicted outcome."""
    n, g, target_kind, env_kind, zeta_kind, dilation = slot
    while True:
        doc = {
            "n_modes": n,
            "g_theta": g,
            "g_k": g,
            "envelopes": [_draw_envelope(rng, env_kind, g) for _ in range(n)],
            "target": _draw_target(rng, target_kind, n),
            "iterations": iterations,
            "use_dilation": dilation,
        }
        if zeta_kind is not None:
            doc["zetas"] = [_draw_zeta(rng, zeta_kind, g) for _ in range(n)]
        try:
            return doc, expected_outcome(doc)
        except NearThreshold:
            continue


# ---------------------------------------------------------------------------
# Oracle
# ---------------------------------------------------------------------------


def qubit_search(n: int, targets, r: int) -> np.ndarray:
    """r rounds of (2|u><u| - 1)(1 - 2 sum |t><t|) from the uniform vector."""
    d = 2**n
    oracle = np.eye(d)
    for t in targets:
        oracle[int(t, 2), int(t, 2)] = -1.0
    diffusion = np.full((d, d), 2.0 / d) - np.eye(d)
    v = np.full(d, 1.0 / math.sqrt(d))
    for _ in range(r):
        v = diffusion @ (oracle @ v)
    return v


def _midpoints(g: int, span: float) -> np.ndarray:
    return (np.arange(g) + 0.5) * (span / g)


def _envelope_density(env: dict, theta, k) -> np.ndarray:
    """|g|^2 on the grid, normalized to unit quadrature mass."""
    if env["kind"] == "constant":
        amp = np.ones((theta.size, k.size))
    elif env["kind"] == "gaussian":
        dt = (theta - env.get("center_theta", math.pi / 2)) / (2 * env.get("sigma_theta", math.pi / 4))
        dk = (k - env.get("center_k", 0.5)) / (2 * env.get("sigma_k", 0.25))
        amp = np.exp(-(dt**2))[:, None] * np.exp(-(dk**2))[None, :]
    else:
        amp = np.asarray(env["values"], dtype=float)
    dens = amp**2
    return dens / (dens.sum() * (math.pi / theta.size) * (1.0 / k.size))


def _weight_table(zeta: Optional[dict], theta, k) -> np.ndarray:
    if zeta is None:
        return np.ones((theta.size, k.size))
    params = zeta.get("params", {})
    if zeta["kind"] == "constant":
        return np.full((theta.size, k.size), float(params.get("value", zeta.get("value", 1.0))))
    if zeta["kind"] == "cosine":
        arg = (
            params.get("theta_factor", 1.0) * theta[:, None]
            + params.get("k_factor", 0.0) * k[None, :]
            + params.get("phase", 0.0)
        )
        return params.get("amplitude", 1.0) * np.cos(arg)
    return np.asarray(zeta["values"], dtype=float)


def _joint(tables, n: int) -> np.ndarray:
    """Product of per-mode (g_theta, g_k) tables over the joint cell axes."""
    out = np.ones((1,) * (2 * n))
    for mode, table in enumerate(tables):
        shape = [1] * (2 * n)
        shape[mode], shape[n + mode] = table.shape
        out = out * table.reshape(shape)
    return out


def _class_strings(target: dict, theta, n: int) -> tuple[np.ndarray, list[list[str]]]:
    """Per theta cell, the index of its target class, and each class's strings."""
    if target["mode"] == "constant":
        strings = target["strings"] if "strings" in target else [target["bits"]]
        return np.zeros((theta.size,) * n, dtype=int), [list(strings)]
    index = np.zeros((theta.size,) * n, dtype=int)
    for i, mode_set in enumerate(target["intervals"]):
        bit = np.zeros(theta.size, dtype=int)
        for lo, hi in mode_set:
            bit |= (theta >= lo) & (theta < hi)
        shape = [1] * n
        shape[i] = theta.size
        index = index | (bit.reshape(shape) << (n - 1 - i))
    return index, [[format(t, f"0{n}b")] for t in range(2**n)]


def _readout(overlaps: np.ndarray, n: int, multi: bool) -> tuple[Identified, Optional[str]]:
    mags = np.abs(overlaps)
    near = (mags > DECISION_THRESHOLD / THRESHOLD_MARGIN) & (mags < DECISION_THRESHOLD * THRESHOLD_MARGIN)
    if np.any(near):
        raise NearThreshold(f"overlap magnitudes {mags[near]} straddle the threshold")
    hits = [format(int(s), f"0{n}b") for s in np.flatnonzero(mags > DECISION_THRESHOLD)]
    if not hits:
        return None, "no-association"
    if multi:
        return tuple(hits), None
    if len(hits) > 1:
        return None, "ambiguous-association"
    return hits[0], None


def expected_outcome(doc: dict) -> Expected:
    """Predict the readout and exit code of one config document."""
    n, gt, gk = doc["n_modes"], doc["g_theta"], doc["g_k"]
    theta, k = _midpoints(gt, math.pi), _midpoints(gk, 1.0)
    cell_weight = (math.pi / gt / gk) ** n
    dens = _joint([_envelope_density(e, theta, k) for e in doc["envelopes"]], n)
    zetas = doc.get("zetas") or [None] * n
    w = np.broadcast_to(_joint([_weight_table(z, theta, k) for z in zetas], n), dens.shape)
    if float(np.sum(dens * w**2)) * cell_weight <= 1e-20:
        return Expected(None, None, 2, error="DegenerateWeights")

    target = doc["target"]
    multi = target["mode"] == "constant" and len(target.get("strings", [None])) > 1
    n_targets = len(target["strings"]) if multi else 1
    r = doc.get("iterations", "auto")
    if r == "auto":
        r = max(1, math.floor(math.pi / (4 * math.asin(math.sqrt(n_targets / 2**n)))))
    class_index, class_targets = _class_strings(target, theta, n)
    vectors = np.array([qubit_search(n, ts, r) for ts in class_targets])

    if doc.get("use_dilation"):
        if r % 2:
            branch_f = [np.sqrt(np.clip(1.0 - w**2, 0.0, None)), w]
        else:
            branch_f = [np.ones_like(w), np.zeros_like(w)]
    else:
        branch_f = [w**r]

    cell_axes = tuple(range(n, 2 * n))
    results = []
    for f in branch_f:
        norm = float(np.sum(dens * f**2)) * cell_weight
        if norm <= BRANCH_FLOOR:
            results.append(None)
            continue
        per_theta = np.sum(dens * f, axis=cell_axes) * cell_weight
        mass = np.bincount(class_index.ravel(), weights=per_theta.ravel(), minlength=len(vectors))
        results.append(_readout(mass @ vectors / math.sqrt(norm), n, multi))

    if not doc.get("use_dilation"):
        identified, failure = results[0]
    else:
        failure = None
        live = []
        for res in results:
            if res is None:
                continue
            ident, fail = res
            failure = failure or fail
            if ident is not None:
                live.append(ident)
        if not live:
            identified, failure = None, failure or "no-association"
        elif all(h == live[0] for h in live):
            identified = live[0]
        else:
            identified, failure = None, "ambiguous-association"
    return Expected(identified, failure, 0 if identified is not None else 2)


def readout_matches(identified, failure, norm_constant, cell_error, exp: Expected) -> bool:
    """The correctness rule every run must pass."""
    if isinstance(identified, list):
        identified = tuple(identified)
    return (
        identified == exp.identified
        and failure == exp.failure
        and isinstance(norm_constant, float)
        and math.isfinite(norm_constant)
        and isinstance(cell_error, float)
        and cell_error <= MAX_CELL_ERROR
    )


# ---------------------------------------------------------------------------
# Workload definitions
# ---------------------------------------------------------------------------


def dense_workload(slots, seed: int) -> list[tuple[dict, Expected]]:
    rng = np.random.default_rng(seed)
    return [draw_config(rng, slot) for slot in slots]


@dataclass(frozen=True)
class CliScript:
    """The command script of one cli_small pass and what each step must give."""

    config_paths: list[str]
    expected: list[Expected]
    batch_out: str
    state_path: str
    resave_path: str
    state_bytes: int


def cli_workload(seed: int, workdir: Path) -> CliScript:
    """Write the batch configs into workdir and return the command script."""
    rng = np.random.default_rng(seed)
    paths, expected = [], []
    for i, slot in enumerate(CLI_BATCH_SLOTS):
        doc, exp = draw_config(rng, slot, CLI_EXPLICIT_ITERATIONS.get(i, "auto"))
        path = workdir / f"config_{i}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        paths.append(str(path))
        expected.append(exp)
    n, g = CLI_BATCH_SLOTS[CLI_STATE_SLOT][:2]
    header = 5 + 3 * 4  # magic "MVGR1" and three u32 grid sizes
    return CliScript(
        config_paths=paths,
        expected=expected,
        batch_out=str(workdir / "batch.jsonl"),
        state_path=str(workdir / "final.mvgr"),
        resave_path=str(workdir / "resaved.mvgr"),
        state_bytes=header + 16 * g ** (2 * n) * 2**n,
    )
