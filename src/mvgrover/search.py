"""Search pipeline: list preparation, iteration schedule, weighted run, readout.

Every cell runs the same qubit search, so a run is read from cell tables and
class vectors: amplitude P(cell) f(cell) v[class(cell)], with P the envelope
product, f a weight factor and v the n-qubit search vector of the cell's
target class.  The dense loop (build_list, then apply) is the oracle, and a
dense-vector qubit search the reference for the per-cell check.
"""

from __future__ import annotations

import math
import os
from collections import namedtuple
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from . import operators as ops
from .errors import (
    AmbiguousAssociation,
    AncillaMismatch,
    BadTargetCount,
    CapacityExceeded,
    DegenerateWeights,
    DuplicateTarget,
    NoAssociation,
    ShapeMismatch,
    WeightOutOfRange,
    ZeroNorm,
)
from .kernel import JointState, ModularGrid, make_grid, tensor
from .operators import TargetSpec, joint_weight
from .zak import EnvelopeSpec, logical_mode

AUTO = "auto"

DECISION_THRESHOLD = 1e-8
# Cells with less amplitude than this are skipped by the per-cell check;
# far above underflow, far below any cell an envelope actually populates.
_CELL_FLOOR = 1e-200
# A run takes r steps of the search on the n-qubit register and r steps of
# the dense reference on all its target classes at once, about 30 us together
# on a 2-core x86 machine.  r times the number of classes is bounded by this:
# a one-class run at the bound takes about 1 s, a 16-class one about 0.06 s.
# An automatic r takes at most 48 (n = 4: r = 3 on 16 classes).
MAX_CLASS_STEPS = 30_000


@dataclass(frozen=True, eq=False)
class SearchConfig:
    """Everything one run needs; zetas may be None, scalars, or tables."""

    n_modes: int
    g_theta: int
    g_k: int
    envelopes: Sequence[EnvelopeSpec]
    target: TargetSpec
    zetas: Optional[Sequence] = None
    iterations: Union[int, str] = AUTO
    use_dilation: bool = False

    @property
    def grid(self) -> ModularGrid:
        grid = make_grid(self.n_modes, self.g_theta, self.g_k)
        _check_capacity(grid)
        return grid


def _check_capacity(grid: ModularGrid) -> None:
    """CapacityExceeded unless four dense states fit in physical memory.

    Runs and state builds take the grid from SearchConfig.grid before any
    grid-sized array exists.  A run holds only a few theta_1 slices of its
    cell tables; final_state and the list that `state save` writes build one
    state, the dense oracle loop about two.
    """
    state_bytes = 16 * math.prod(grid.cell_shape + grid.band_shape)
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if 4 * state_bytes > physical:
        raise CapacityExceeded(
            f"a dense state takes {state_bytes / 2**20:.4g} MiB; four of them exceed "
            f"the {physical / 2**20:.4g} MiB of physical memory"
        )


@dataclass(frozen=True)
class SearchReport:
    """Readout of one run.

    identified is a string for single-target runs, a tuple of strings for
    multi-target runs, or None with failure set when the univocal rule has
    no unique answer.  ancilla_branch_norms and branch_identified are filled
    only for dilation runs (indexed by ancilla value).
    """

    norm_constant: float
    overlaps: dict[str, complex]
    identified: Union[str, tuple[str, ...], None]
    per_cell_max_error: float
    iterations_used: int
    ancilla_branch_norms: Optional[tuple[float, float]] = None
    branch_identified: Optional[tuple[Optional[str], Optional[str]]] = None
    failure: Optional[str] = None


def _mode_tables(envelopes: Sequence[EnvelopeSpec], grid: ModularGrid) -> list[np.ndarray]:
    """The (g_theta, g_k) table of each mode's envelope, one envelope per mode."""
    if len(envelopes) != grid.n_modes:
        raise ShapeMismatch(f"need {grid.n_modes} envelopes, got {len(envelopes)}")
    return [env.table_for(grid.single_mode()) for env in envelopes]


def build_list(envelopes: Sequence[EnvelopeSpec], grid: ModularGrid) -> JointState:
    """Quantum list: global Hadamard on the tensor of logical zeros.

    Equals the equal-weight sum of all logical basis states times 2**(-n/2).
    """
    modes = [logical_mode(t, 0, grid) for t in _mode_tables(envelopes, grid)]
    return ops.apply(ops.hadamard(grid), tensor(modes))


def logical_basis(
    envelopes: Sequence[EnvelopeSpec], grid: ModularGrid
) -> dict[str, JointState]:
    """All 2^n logical basis states built from the given envelopes."""
    tables = _mode_tables(envelopes, grid)
    n = grid.n_modes
    basis = {}
    for idx in range(2**n):
        bits = [(idx >> (n - 1 - i)) & 1 for i in range(n)]
        modes = [logical_mode(t, b, grid) for t, b in zip(tables, bits)]
        basis[format(idx, f"0{n}b")] = tensor(modes)
    return basis


def _joint_table(tables: Sequence[np.ndarray]) -> np.ndarray:
    """Product of 2D tables over joint (row, column) axes, the first table's
    axes most significant: per-mode (theta, k) tables give (theta cells, k cells)."""
    out = np.ones((1, 1))
    for t in tables:
        out = (out[:, None, :, None] * t[None, :, None, :]).reshape(out.shape[0] * t.shape[0], -1)
    return out


def _by_string(values: np.ndarray, n: int) -> dict[str, complex]:
    """{band string: value} for a vector indexed by band index."""
    return {format(idx, f"0{n}b"): complex(v) for idx, v in enumerate(values)}


def logical_overlaps(
    envelopes: Sequence[EnvelopeSpec], state: JointState
) -> dict[str, complex]:
    """Overlaps <logical s | state> for every band string s.

    Contracts the envelope profile against the band array, so the basis
    states are never materialized; agrees with inner() against logical_basis().
    """
    if state.n_ancilla:
        raise AncillaMismatch("take an ancilla branch before computing overlaps")
    grid = state.grid
    n = grid.n_modes
    profile = np.conjugate(_joint_table(_mode_tables(envelopes, grid)))
    sums = np.einsum("c,cs->s", profile.reshape(-1), state.amp.reshape(profile.size, 2**n))
    return _by_string(sums * grid.cell_weight, n)


def iteration_count(n_modes: int, m_targets: int) -> int:
    """Queries needed for maximal success probability, floor(pi/(4 asin sqrt(M/N)))."""
    big_n = 2**n_modes
    if not 1 <= m_targets < big_n:
        raise BadTargetCount(f"need 1 <= M < 2**n = {big_n}, got {m_targets}")
    count = math.floor(math.pi / (4.0 * math.asin(math.sqrt(m_targets / big_n))))
    return max(1, count)


def identify(overlaps: dict[str, complex], threshold: float = DECISION_THRESHOLD) -> str:
    """The unique string with |overlap| above threshold.

    Raises AmbiguousAssociation or NoAssociation when the answer is not
    unique.
    """
    hits = sorted(s for s, v in overlaps.items() if abs(v) > threshold)
    if not hits:
        raise NoAssociation(f"no overlap above {threshold:.1e}")
    if len(hits) > 1:
        raise AmbiguousAssociation(f"{len(hits)} overlaps above {threshold:.1e}: {hits}")
    return hits[0]


def reference_qubit_grover(n: int, targets: Sequence[str], r: int) -> np.ndarray:
    """Dense-vector qubit search: r rounds of (2|u><u| - 1)(1 - 2 sum |t><t|).

    Starts from the uniform 2^n vector; the sign convention matches
    grover_cell (the four-element single-step search lands on +|target>).
    """
    if n > 12:
        raise CapacityExceeded(f"reference search supports n <= 12, got {n}")
    if r < 0:
        raise ValueError(f"iteration count must be >= 0, got {r}")
    idx = [int(str(t), 2) for t in targets]
    if len(set(idx)) != len(idx):
        raise DuplicateTarget(f"targets must be distinct: {list(targets)}")
    big_n = 2**n
    if not all(0 <= i < big_n for i in idx):
        raise ValueError(f"targets out of range for n={n}: {list(targets)}")
    return _reference_rows(n, np.array([idx], dtype=np.intp), r)[0]


def _reference_rows(n: int, rows: np.ndarray, r: int) -> np.ndarray:
    """reference_qubit_grover for each row of target band indices, as one
    (rows, 2^n) array; the same numpy calls whatever the number of rows."""
    big_n = 2**n
    v = np.full((len(rows), big_n), 1.0 / math.sqrt(big_n), dtype=np.complex128)
    sign = np.ones(v.shape)
    np.put_along_axis(sign, rows, -1.0, axis=1)
    for _ in range(r):
        v *= sign
        v = 2.0 * v.mean(axis=1, keepdims=True) - v
    return v


def _resolved_iterations(cfg: SearchConfig, n_classes: int) -> int:
    """The run's r; CapacityExceeded when r steps on each target class exceed MAX_CLASS_STEPS."""
    if cfg.iterations == AUTO:
        r = iteration_count(cfg.n_modes, cfg.target.n_targets)
    else:
        r = int(cfg.iterations)
        if r < 0:
            raise ValueError(f"iterations must be >= 0 or '{AUTO}', got {cfg.iterations}")
    if r * n_classes > MAX_CLASS_STEPS:
        raise CapacityExceeded(
            f"{r} iterations on {n_classes} target class(es) exceed the "
            f"{MAX_CLASS_STEPS} search steps a run may take"
        )
    return r


def _target_classes(target: TargetSpec, grid: ModularGrid) -> tuple[np.ndarray, np.ndarray]:
    """Each theta cell's class index (flattened) and each class's target band
    indices; classes are the distinct rows of band_indices (at most 2^n)."""
    band = target.band_indices(grid)
    rows, index = np.unique(band.reshape(-1, band.shape[-1]), axis=0, return_inverse=True)
    index = np.broadcast_to(index.reshape(band.shape[:-1]), (grid.g_theta,) * grid.n_modes)
    return index.reshape(-1), rows


def _class_vectors(n: int, rows: np.ndarray, r: int) -> np.ndarray:
    """v_r = G^r u of every class, as one (classes, 2^n) array.

    The first class runs r steps of grover_cell on the bare n-qubit register
    (the one-cell grid) from the uniform vector.  Only interval targets have
    more than one class, each with one string t; X^a fixes u and the
    diffusion and turns the oracle of t into that of t ^ a, so class t's
    vector is the first one's read at band index b ^ t ^ t_0.  The cost does
    not depend on the number of classes.
    """
    qubits = make_grid(n, 1, 1)
    op = ops.grover_cell(TargetSpec.multi([format(t, f"0{n}b") for t in rows[0]]), qubits)
    state = JointState(qubits, np.full(qubits.cell_shape + qubits.band_shape, 2.0 ** (-n / 2)))
    for _ in range(r):
        state = ops.apply(op, state)
    return state.amp.reshape(-1)[np.arange(2**n) ^ (rows[:, :1] ^ rows[0, 0])]


_FactoredRun = namedtuple("_FactoredRun", "grid r index rows vectors tables sums norms")


def _factored_run(cfg: SearchConfig) -> _FactoredRun:
    """Check cfg and build its run from cell tables and class vectors.

    psi(cell, b) = P(cell) f(cell) v[class(cell)][b]: index maps each theta
    cell to its class, rows[c] holds class c's target band indices and
    vectors[c] its search vector, sums[b] the per-class sums of |P|^2 f and
    |P|^2 f^2 for readout branch b, norms[b] its squared norm.

    A plain run has one branch, f = w^r.  The dilated step is G (x) A with
    A = w sigma_x + w' sigma_z, and (G (x) A)^r = G^r (x) A^r with A^2 = 1,
    so a dilated run iterates the bare G and its ancilla branches carry
    f = (1, 0) after an even r and (w', w) after an odd r.

    The cell tables are built one theta_1 value at a time, g_theta^(n-1)
    g_k^n cells each, from the per-mode tables: no table of the whole grid
    is allocated, and each slice's temporaries stay in cache.
    """
    grid = cfg.grid
    if cfg.target.n_modes != grid.n_modes:
        raise ShapeMismatch(
            f"target spans {cfg.target.n_modes} modes, grid has {grid.n_modes}"
        )
    index, rows = _target_classes(cfg.target, grid)
    r = _resolved_iterations(cfg, len(rows))
    tables = _mode_tables(cfg.envelopes, grid)
    psq_modes = [np.abs(t) ** 2 for t in tables]
    w_modes = ops.mode_weight_tables(cfg.zetas, grid)
    psq_rest, w_rest = _joint_table(psq_modes[1:]), _joint_table(w_modes[1:])
    step = psq_rest.shape[0]  # theta cells per slice
    # Per branch, per theta cell: the sums of |P|^2 f and |P|^2 f^2 over the k cells.
    per_theta = np.empty((1 + cfg.use_dilation, 2, grid.g_theta**grid.n_modes))
    mass, w_max, finite = 0.0, 0.0, True
    with np.errstate(over="ignore", invalid="ignore"):  # out-of-range weights are named below
        for j in range(grid.g_theta):
            psq = _joint_table([psq_modes[0][j : j + 1], psq_rest])
            w = _joint_table([w_modes[0][j : j + 1], w_rest])
            mass += float(np.einsum("tk,tk,tk->", psq, w, w))
            if cfg.use_dilation:
                w_max = max(w_max, float(np.max(np.abs(w))))
                try:
                    w_prime = ops.ancilla_weight(w)
                except WeightOutOfRange:
                    continue  # raised below, after the degeneracy check
                factors = (w_prime, w) if r % 2 else (np.ones_like(w), np.zeros_like(w))
            else:
                factors = (w**r,)
            finite = finite and np.isfinite(w).all() and all(np.isfinite(f).all() for f in factors)
            for out, f in zip(per_theta, factors):
                pf = psq * f
                np.einsum("tk->t", pf, out=out[0, j * step : (j + 1) * step])
                np.einsum("tk,tk->t", pf, f, out=out[1, j * step : (j + 1) * step])
        mass *= grid.cell_weight
        if mass <= 1e-20:
            raise DegenerateWeights(
                f"weight product vanishes on the envelope support (mass {mass:.3e})"
            )
        if cfg.use_dilation:
            ops.ancilla_weight(np.array(w_max))  # checked on every dilated run, whatever r
        # Pairwise over each class's theta cells; a sequential sum over 12^3 of them is off by 3e-14.
        order = np.argsort(index, kind="stable")
        starts = np.searchsorted(index[order], np.arange(len(rows)))
        sums = [tuple(np.add.reduceat(p[order], starts) for p in branch) for branch in per_theta]
    vectors = _class_vectors(grid.n_modes, rows, r)
    vsq = _cell_sq(vectors)
    norms = tuple(float(np.einsum("c,c->", vsq, sq)) * grid.cell_weight for _, sq in sums)
    if not (finite and all(math.isfinite(x) for x in norms)):
        raise WeightOutOfRange(
            f"the weight w, w^{r} or a branch norm leaves the float range "
            f"(|x| <= {np.finfo(np.float64).max:.4g})"
        )
    if not cfg.use_dilation and norms[0] < 1e-30:
        raise ZeroNorm(f"cannot normalize state with squared norm {norms[0]:.3e}")
    return _FactoredRun(grid, r, index, rows, vectors, tables, sums, norms)


def final_state(cfg: SearchConfig) -> JointState:
    """The normalized post-iteration state of a plain (non-dilation) run,
    built once as P(cell) w(cell)^r v[class(cell)] / sqrt(norm)."""
    if cfg.use_dilation:
        raise ValueError("dilated finals carry an ancilla; run without use_dilation")
    run = _factored_run(cfg)
    grid = run.grid
    f = joint_weight(cfg.zetas, grid).reshape(grid.g_theta**grid.n_modes, -1) ** run.r
    coef = _joint_table(run.tables) * (f / math.sqrt(run.norms[0]))
    amp = np.empty(coef.shape + (2**grid.n_modes,), dtype=np.complex128)
    for c, v in enumerate(run.vectors):  # one masked pass per class, no state-sized temporary
        in_class = (run.index == c)[:, None, None]
        np.multiply(coef[:, :, None], v, out=amp, where=in_class)
    return JointState(grid, amp.reshape(grid.cell_shape + grid.band_shape))


def _cell_sq(bands: np.ndarray) -> np.ndarray:
    """Squared norm of each cell's band vector, with no band-sized temporary."""
    real = bands.view(np.float64)
    return np.einsum("...i,...i->...", real, real)


def _max_deviation(v: np.ndarray, ref: np.ndarray) -> float:
    """Largest |v phase / |v| - ref| over the cells (all axes but the last)
    whose |v| is above _CELL_FLOOR, with phase that of <ref|v>; -inf if none."""
    norms = np.sqrt(_cell_sq(v))
    mask = norms > _CELL_FLOOR
    # Adding 0.0 makes a -0.0 real part +0.0, so an orthogonal cell keeps phase 1.
    overlap = np.einsum("...i,...i->...", np.conjugate(ref), v) + 0.0
    scale = np.exp(-1j * np.angle(overlap))
    np.divide(scale, norms, out=scale, where=mask)
    diff = v * scale[..., None]
    diff -= ref
    np.abs(diff, out=diff)  # in place: the deviations land in the real parts
    return float(np.max(diff.real.max(axis=-1), where=mask, initial=-math.inf))


def per_cell_max_error(state: JointState, target: TargetSpec, r: int) -> float:
    """Worst per-cell deviation of the band vector from the reference qubit
    search after r rounds, up to each cell's norm and phase, so the state need
    not be normalized.  Cells with negligible amplitude are skipped; works one
    theta_1 slice at a time."""
    if state.n_ancilla:
        raise AncillaMismatch("take an ancilla branch before the per-cell check")
    grid = state.grid
    n = grid.n_modes
    d = 2**n
    v = state.amp.reshape(grid.cell_shape + (d,))
    # One reference per target class.
    index, rows = _target_classes(target, grid)
    ref = _reference_rows(n, rows, r)[index].reshape((grid.g_theta,) * n + (1,) * n + (d,))
    worst = max(_max_deviation(vi, ref_i) for vi, ref_i in zip(v, ref))
    return worst if worst >= 0.0 else math.nan


def _readout(cfg: SearchConfig, overlaps: dict[str, complex], threshold: float) -> tuple:
    """(overlaps, identified, failure) of one branch."""
    if cfg.target.is_constant and cfg.target.n_targets > 1:
        hits = tuple(sorted(s for s, v in overlaps.items() if abs(v) > threshold))
        return overlaps, hits or None, None if hits else "no-association"
    try:
        return overlaps, identify(overlaps, threshold), None
    except AmbiguousAssociation:
        return overlaps, None, "ambiguous-association"
    except NoAssociation:
        return overlaps, None, "no-association"


def run_search(cfg: SearchConfig, threshold: float = DECISION_THRESHOLD) -> SearchReport:
    """Full pipeline: list, iterations, univocal readout of each branch.

    Read from cell tables and class vectors (see _factored_run), with no
    dense state: a branch with factor f has squared norm
    N = sum_c |v_c|^2 sum_{cells in c} |P|^2 f^2 dA and overlaps
    sum_c v_c sum_{cells in c} |P|^2 f dA / sqrt(N).  The per-cell check
    compares the search vector of every class that carries amplitude with
    its reference, all classes in one pass.  norm_constant is the
    squared norm after the last iteration (1 for unit weights); a dilated
    run's is the sum of its two branch norms (1 up to rounding).
    """
    run = _factored_run(cfg)
    n = cfg.n_modes
    bands = run.vectors * run.grid.cell_weight
    dilated = len(run.norms) == 2
    # Per branch: its readout, None for an empty dilated branch.
    readouts = [
        None if dilated and nrm <= 1e-20
        else _readout(cfg, _by_string(np.einsum("c,cs->s", m / math.sqrt(nrm), bands), n), threshold)
        for (m, _), nrm in zip(run.sums, run.norms)
    ]
    live = [ro for ro in readouts if ro is not None]
    failure = next((ro[2] for ro in live if ro[2]), None)
    hits = [ro[1] for ro in live if ro[1] is not None]
    if not hits:
        identified, failure = None, failure or "no-association"
    elif all(h == hits[0] for h in hits):
        identified = hits[0]
    else:
        identified, failure = None, "ambiguous-association"
    # The dominant branch holds at least half the norm, so it is live; a tie
    # picks ancilla 1.
    dominant = readouts[int(dilated and run.norms[1] >= run.norms[0])]
    branches = [ro[1] if ro is not None and isinstance(ro[1], str) else None for ro in readouts]
    # A class is checked when one of its cells has |P f| above the floor; a
    # cell whose |P f|^2 underflows counts as empty.  All checked classes go
    # through one comparison with their references.
    checked = np.sqrt(sum(sq for _, sq in run.sums)) > _CELL_FLOOR
    error = _max_deviation(run.vectors[checked], _reference_rows(n, run.rows[checked], run.r))
    return SearchReport(
        norm_constant=sum(run.norms),
        overlaps=dominant[0],
        identified=identified,
        per_cell_max_error=error if error >= 0.0 else math.nan,
        iterations_used=run.r,
        ancilla_branch_norms=run.norms if dilated else None,
        branch_identified=tuple(branches) if dilated else None,
        failure=failure,
    )


def weighted_list(
    envelopes: Sequence[EnvelopeSpec], zetas, grid: ModularGrid
) -> JointState:
    """The weight-scaled equal-weight sum of all logical basis states.

    amp[cell, b] = w(cell) * prod_i g_i(cell_i) on every band string b; this
    is what the four single-step search results add up to at n = 2.
    """
    profile = _joint_table(_mode_tables(envelopes, grid)).reshape(grid.cell_shape)
    base = profile * joint_weight(zetas, grid)
    amp = np.empty(grid.cell_shape + grid.band_shape, dtype=np.complex128)
    amp[...] = base[(Ellipsis,) + (None,) * grid.n_modes]
    return JointState(grid, amp)


def sum_over_targets(cfg: SearchConfig) -> JointState:
    """Unnormalized sum of the four single-application results at n = 2.

    Runs one application per constant target regardless of cfg.iterations
    (the identity concerns the single-step protocol) and matches
    weighted_list(cfg.envelopes, cfg.zetas, grid) elementwise.
    """
    if cfg.n_modes != 2:
        raise BadTargetCount(f"sum_over_targets is defined for n = 2, got {cfg.n_modes}")
    if not (cfg.target.is_constant and cfg.target.n_targets == 1):
        raise BadTargetCount("sum_over_targets needs a single constant-mode target")
    grid = cfg.grid
    lst = build_list(cfg.envelopes, grid)
    total = np.zeros_like(lst.amp)
    for idx in range(4):
        spec = TargetSpec.bits(format(idx, "02b"))
        op = ops.grover_weighted(spec, cfg.zetas, grid)
        total = total + ops.apply(op, lst).amp
    return JointState(grid, total)
