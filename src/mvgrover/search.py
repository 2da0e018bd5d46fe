"""Search pipeline: list preparation, iteration schedule, weighted run, readout.

The run applies the (weighted or dilated) search step to the quantum list,
normalizes, and reads the result out as overlaps against the logical basis
states rebuilt from the same envelopes.  A dense-vector qubit search acts
as the independent reference for per-cell equivalence checks.
"""

from __future__ import annotations

import math
import os
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
    ZeroNorm,
)
from .kernel import JointState, ModularGrid, make_grid, normalize, tensor
from .operators import TargetSpec, joint_weight, mode_table_to_cells
from .zak import EnvelopeSpec, logical_mode

AUTO = "auto"

DECISION_THRESHOLD = 1e-8
# Cells with less amplitude than this are skipped by the per-cell check;
# far above underflow, far below any cell an envelope actually populates.
_CELL_FLOOR = 1e-200


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
    grid-sized array exists; a run peaks at about 3.3 states (at n = 1).
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


def _cell_profile(tables: Sequence[np.ndarray], grid: ModularGrid) -> np.ndarray:
    """Product of per-mode tables over the joint cell axes (broadcastable)."""
    prof = np.ones((1,) * (2 * grid.n_modes), dtype=np.complex128)
    for mode, table in enumerate(tables):
        prof = prof * mode_table_to_cells(table, mode, grid)
    return prof


def _band_overlaps(coef: np.ndarray, state: JointState) -> dict[str, complex]:
    """sum_cell coef(cell) amp(cell, s) cell_weight for each band string s, in one contraction."""
    grid = state.grid
    n = grid.n_modes
    sums = np.einsum("c,cs->s", coef.reshape(-1), state.amp.reshape(coef.size, 2**n))
    sums *= grid.cell_weight
    return {format(idx, f"0{n}b"): complex(v) for idx, v in enumerate(sums)}


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
    profile = np.conjugate(_cell_profile(_mode_tables(envelopes, grid), grid))
    return _band_overlaps(profile, state)


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
    v = np.full(big_n, 1.0 / math.sqrt(big_n), dtype=np.complex128)
    for _ in range(r):
        v[idx] *= -1.0
        v = 2.0 * v.mean() - v
    return v


def _resolved_iterations(cfg: SearchConfig) -> int:
    if cfg.iterations == AUTO:
        return iteration_count(cfg.n_modes, cfg.target.n_targets)
    r = int(cfg.iterations)
    if r < 0:
        raise ValueError(f"iterations must be >= 0 or '{AUTO}', got {cfg.iterations}")
    return r


def _check_not_degenerate(envelopes: Sequence[EnvelopeSpec], w, grid: ModularGrid) -> None:
    gsq = _cell_profile([np.abs(t) ** 2 for t in _mode_tables(envelopes, grid)], grid).real
    mass = float(np.sum(gsq * w**2)) * grid.cell_weight
    if mass <= 1e-20:
        raise DegenerateWeights(
            f"weight product vanishes on the envelope support (mass {mass:.3e})"
        )


def _evolved_state(cfg: SearchConfig) -> tuple[JointState, int, tuple]:
    """Run the iteration loop; returns the unnormalized psi_r, r and the
    per-cell factor of each readout branch (scalars or cell tables).

    A plain run has one branch, psi_r itself: factors (1,).  The dilated step
    is G (x) A with A = w sigma_x + w' sigma_z, and (G (x) A)^r = G^r (x) A^r
    with A^2 = 1, so dilated runs iterate the bare G; their ancilla branches
    are psi_r times (1, 0) after an even r and (w', w) after an odd r.
    """
    grid = cfg.grid
    if cfg.target.n_modes != grid.n_modes:
        raise ShapeMismatch(
            f"target spans {cfg.target.n_modes} modes, grid has {grid.n_modes}"
        )
    w = joint_weight(cfg.zetas, grid)
    _check_not_degenerate(cfg.envelopes, w, grid)
    r = _resolved_iterations(cfg)
    if cfg.use_dilation:
        w_prime = ops.ancilla_weight(w)  # checked on every dilated run, before any work
        factors = (w_prime, w) if r % 2 else (1.0, 0.0)
    else:
        factors = (1.0,)
    op = ops.grover_cell(cfg.target, grid).with_weight(1.0 if cfg.use_dilation else w)
    state = build_list(cfg.envelopes, grid)
    for _ in range(r):
        state = ops.apply(op, state)
    return state, r, factors


def final_state(cfg: SearchConfig) -> JointState:
    """The normalized post-iteration state of a plain (non-dilation) run."""
    if cfg.use_dilation:
        raise ValueError("dilated finals carry an ancilla; run without use_dilation")
    state, _, _ = _evolved_state(cfg)
    return normalize(state)


def _cell_sq(bands: np.ndarray) -> np.ndarray:
    """Squared norm of each cell's band vector, with no band-sized temporary."""
    real = bands.view(np.float64)
    return np.einsum("...i,...i->...", real, real)


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
    # One reference per target class: the constant strings, or each theta
    # cell's band string in extended mode.
    band = target.band_indices(grid)
    classes, index = np.unique(band.reshape(-1, band.shape[-1]), axis=0, return_inverse=True)
    table = np.array([reference_qubit_grover(n, [f"{t:0{n}b}" for t in c], r) for c in classes])
    ref = table[index.reshape(band.shape[:-1])].reshape(band.shape[:-1] + (1,) * n + (d,))
    worst = -math.inf  # stays so when no cell is above the floor
    for i in range(grid.g_theta):
        vi, ref_i = v[i], ref[i % ref.shape[0]]
        norms = np.sqrt(_cell_sq(vi))
        mask = norms > _CELL_FLOOR
        # Scale each cell to unit norm and remove the phase of <ref|v>; adding 0.0
        # makes a -0.0 real part +0.0, so an orthogonal cell keeps phase 1.
        overlap = np.einsum("...i,...i->...", np.conjugate(ref_i), vi) + 0.0
        scale = np.exp(-1j * np.angle(overlap))
        np.divide(scale, norms, out=scale, where=mask)
        diff = vi * scale[..., None]
        diff -= ref_i
        np.abs(diff, out=diff)  # in place: the deviations land in the real parts
        worst = max(worst, float(np.max(diff.real.max(axis=-1), where=mask, initial=-math.inf)))
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

    Each branch is psi_r times a per-cell factor (see _evolved_state), so the
    readout reads the unnormalized psi_r alone: branch norms from one table of
    per-cell squared norms, overlaps from one contraction per branch, and one
    per-cell check that covers all of psi_r.  norm_constant is the squared
    norm after the last iteration (1 for unit weights); a dilated run's is the
    sum of its two branch norms (1 up to rounding).
    """
    state, r, factors = _evolved_state(cfg)
    grid = state.grid
    cell_sq = _cell_sq(state.amp.reshape(grid.cell_shape + (2**grid.n_modes,)))
    norms = tuple(float(np.sum(np.square(f) * cell_sq)) * grid.cell_weight for f in factors)
    dilated = len(norms) == 2
    if not dilated and norms[0] < 1e-30:
        raise ZeroNorm(f"cannot normalize state with squared norm {norms[0]:.3e}")
    profile = np.conjugate(_cell_profile(_mode_tables(cfg.envelopes, grid), grid))
    # Per branch: its readout, None for an empty dilated branch.
    readouts = [
        None if dilated and nrm <= 1e-20
        else _readout(cfg, _band_overlaps(profile * (f / math.sqrt(nrm)), state), threshold)
        for f, nrm in zip(factors, norms)
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
    dominant = readouts[int(dilated and norms[1] >= norms[0])]
    branches = [ro[1] if ro is not None and isinstance(ro[1], str) else None for ro in readouts]
    return SearchReport(
        norm_constant=sum(norms),
        overlaps=dominant[0],
        identified=identified,
        per_cell_max_error=per_cell_max_error(state, cfg.target, r),
        iterations_used=r,
        ancilla_branch_norms=norms if dilated else None,
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
    base = _cell_profile(_mode_tables(envelopes, grid), grid) * joint_weight(zetas, grid)
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
