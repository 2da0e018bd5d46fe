"""Search pipeline: list preparation, iteration schedule, weighted run, readout.

Every cell runs the same qubit search, so a run is read from per-mode sums
and one search vector: amplitude P(cell) f(cell) v_c(cell), with P the
envelope product, f a weight factor and v_c the n-qubit search vector of the
cell's target class c.  After r steps the search vector is a_r on the targets
and c_r on every other string, so every class reads the values a_r and c_r of
the one vector v of the targets 0..M-1.  The dense loop (build_list, then
apply) is the oracle, and a dense-vector qubit search the reference for the
per-cell check.
"""

from __future__ import annotations

import cmath
import functools
import math
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
from .kernel import (NORM_FLOOR, JointState, ModularGrid, check_capacity, joint_table,
                     make_grid, tensor)
from .operators import TargetSpec, joint_weight
from .zak import EnvelopeSpec, envelope_densities, logical_mode

AUTO = "auto"

DECISION_THRESHOLD = 1e-8
# A dilated branch with a squared norm at most this is empty: it has no readout.
BRANCH_FLOOR = 1e-20
# Cells with less amplitude than this are skipped by the per-cell check;
# far above underflow, far below any cell an envelope actually populates.
_CELL_FLOOR = 1e-200
# A run takes r steps of the search on the n-qubit register and r steps of
# the dense reference on one row, about 30 us together on a 2-core x86
# machine, whatever the number of target classes.  r is bounded by this: a
# run at the bound takes about 1 s.  An automatic r takes at most 3 (n = 4, M = 1).
MAX_STEPS = 30_000
# The ancilla-0 branch of an odd dilated run is streamed in chunks of whole
# theta_1 slices of at most this many cells (one slice at (n, g) = (2, 24)),
# or one slice where a slice is larger; its series holds its baby and giant
# steps in K - 1 stacks of at most this many floats in all, or in one giant
# step where a step is larger.  final_state gathers the class matrices of at
# most this many floats at a time.
_STREAM_CELLS = 13_824


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
        check_capacity(grid)
        return grid


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


def _mode_grid(envelopes: Sequence[EnvelopeSpec], grid: ModularGrid) -> ModularGrid:
    """grid's one-mode grid; ShapeMismatch unless there is one envelope per mode."""
    if len(envelopes) != grid.n_modes:
        raise ShapeMismatch(f"need {grid.n_modes} envelopes, got {len(envelopes)}")
    return grid.single_mode()


def _mode_tables(envelopes: Sequence[EnvelopeSpec], grid: ModularGrid) -> list[np.ndarray]:
    """The (g_theta, g_k) table of each mode's envelope, one envelope per mode."""
    mode_grid = _mode_grid(envelopes, grid)
    return [env.table_for(mode_grid) for env in envelopes]


def build_list(envelopes: Sequence[EnvelopeSpec], grid: ModularGrid) -> JointState:
    """Quantum list: global Hadamard on the tensor of logical zeros.

    Equals the equal-weight sum of all logical basis states times 2**(-n/2).
    """
    modes = [logical_mode(t, 0, grid) for t in _mode_tables(envelopes, grid)]
    return ops.apply(ops.hadamard(grid), tensor(modes))


@functools.cache
def _band_strings(n: int) -> tuple[str, ...]:
    return tuple(format(idx, f"0{n}b") for idx in range(2**n))


def logical_basis(
    envelopes: Sequence[EnvelopeSpec], grid: ModularGrid
) -> dict[str, JointState]:
    """All 2^n logical basis states built from the given envelopes."""
    tables = _mode_tables(envelopes, grid)
    return {
        s: tensor([logical_mode(t, int(b), grid) for t, b in zip(tables, s)])
        for s in _band_strings(grid.n_modes)
    }


def _by_string(values: np.ndarray, n: int) -> dict[str, complex]:
    """{band string: value} for a vector indexed by band index."""
    return dict(zip(_band_strings(n), np.asarray(values, dtype=np.complex128).tolist()))


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
    profile = np.conjugate(joint_table(_mode_tables(envelopes, grid)))
    sums = np.einsum("c,cs->s", profile.reshape(-1), state.amp.reshape(profile.size, 2**n))
    return _by_string(sums * grid.cell_weight, n)


def iteration_count(n_modes: int, m_targets: int) -> int:
    """Queries needed for maximal success probability, floor(pi/(4 asin sqrt(M/N)))."""
    big_n = 2**n_modes
    if not 1 <= m_targets < big_n:
        raise BadTargetCount(f"need 1 <= M < 2**n = {big_n}, got {m_targets}")
    count = math.floor(math.pi / (4.0 * math.asin(math.sqrt(m_targets / big_n))))
    return max(1, count)


def _hits(overlaps: dict[str, complex]) -> tuple[str, ...]:
    """The strings whose |overlap| is above DECISION_THRESHOLD, sorted."""
    return tuple(sorted(s for s, v in overlaps.items() if abs(v) > DECISION_THRESHOLD))


def identify(overlaps: dict[str, complex]) -> str:
    """The unique string with |overlap| above DECISION_THRESHOLD.

    Raises AmbiguousAssociation or NoAssociation when the answer is not
    unique.
    """
    hits = _hits(overlaps)
    if not hits:
        raise NoAssociation(f"no overlap above {DECISION_THRESHOLD:.1e}")
    if len(hits) > 1:
        raise AmbiguousAssociation(f"{len(hits)} overlaps above {DECISION_THRESHOLD:.1e}: {hits}")
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
    sign[np.arange(len(rows))[:, None], rows] = -1.0
    for _ in range(r):
        v *= sign
        v = (2.0 / big_n) * v.sum(axis=1, keepdims=True) - v
    return v


def _resolved_iterations(cfg: SearchConfig) -> int:
    """The run's r; CapacityExceeded when it exceeds MAX_STEPS."""
    if cfg.iterations == AUTO:
        r = iteration_count(cfg.n_modes, cfg.target.n_targets)
    else:
        r = int(cfg.iterations)
        if r < 0:
            raise ValueError(f"iterations must be >= 0 or '{AUTO}', got {cfg.iterations}")
    if r > MAX_STEPS:
        raise CapacityExceeded(f"{r} iterations exceed the {MAX_STEPS} search steps a run may take")
    return r


@functools.cache
def _search_step(n: int, m: int) -> ops.GlobalOperator:
    """grover_cell on the bare n-qubit register (the one-cell grid) with the
    band indices 0..m-1 as targets; built once per process for each (n, m)."""
    return ops.grover_cell(TargetSpec.multi(_band_strings(n)[:m]), make_grid(n, 1, 1))


@functools.cache
def _uniform_state(n: int) -> JointState:
    """The uniform 2^n vector on the bare n-qubit register, read-only; built
    once per process for each n."""
    qubits = make_grid(n, 1, 1)
    return JointState(qubits, np.full(qubits.cell_shape + qubits.band_shape, 2.0 ** (-n / 2)))


def _search_vector(n: int, m: int, r: int) -> np.ndarray:
    """v = G^r u for the targets 0..m-1: r steps of _search_step(n, m) from the
    uniform 2^n vector.  v[0] is the value on the targets (a_r), v[-1] the
    value on every other string (c_r); a class with other targets is this
    vector with the band strings relabelled."""
    step = _search_step(n, m)
    state = _uniform_state(n)
    for _ in range(r):
        state = ops.apply(step, state)
    return state.amp.reshape(-1)


_FactoredRun = namedtuple("_FactoredRun",
                          "grid r rows bits v scaled w_log2 sums dots norms")

_LOG2_MAX = math.log2(np.finfo(np.float64).max)


def _scaled_product(values: Sequence[float]) -> tuple[float, int]:
    """prod(values) = m 2^e as (m, e): mantissas and exponents multiplied
    apart, so no partial product leaves the float range."""
    parts = [math.frexp(v) for v in values]
    return math.prod(m for m, _ in parts), sum(e for _, e in parts)


def _unscaled(x: float, log2_scale: float) -> float:
    """x * 2^log2_scale; inf or 0 where that leaves the float range."""
    e = min(max(log2_scale, -4096.0), 4096.0)
    whole = math.floor(e)
    try:
        return math.ldexp(x * 2.0 ** (e - whole), whole)
    except OverflowError:
        return math.copysign(math.inf, x)


def _pattern_sums(per_theta: np.ndarray, onehot: np.ndarray, pattern_bits: np.ndarray) -> tuple:
    """Sum of prod_i x_i over the cells of each pattern, in scaled form, for
    each of a stack of real per-mode tables x.

    per_theta[p, i, t] is table p of mode i summed over k at theta value t,
    onehot[i, t] the one-hot of mode i's searched bit there and
    pattern_bits[c] the n bits of pattern c (mode 0 first).  A pattern holds
    the cells whose bits spell it, a product set, so its sum is the product of
    per-mode per-bit sums.  Returns (sums / 2^e, e), one row of sums and one
    integer exponent per table: each mode's two sums are divided by the power
    of two that brings the larger below 1, exactly, so the product neither
    overflows nor underflows.
    """
    per_bit = np.matmul(per_theta[:, :, None, :], onehot)[:, :, 0, :]
    exps = np.frexp(np.abs(per_bit).max(axis=2))[1]
    per_bit = np.ldexp(per_bit, -exps[..., None])
    n = per_bit.shape[1]
    return per_bit[:, np.arange(n), pattern_bits].prod(axis=2), exps.sum(axis=1).tolist()


def _weight_powers(scaled: np.ndarray, powers: Sequence[int]):
    """Yield scaled^q for each q of the powers, each in the same buffer, so
    each power is read before the next is asked for."""
    buf = np.empty_like(scaled)
    for q in powers:
        yield np.power(scaled, q, out=buf)


def _series_coefficients(s: float, budget: int) -> Optional[list]:
    """[b_k s^k for k < K] of sqrt(1 - x) = sum_k b_k x^k (b_0 = 1,
    b_k = b_{k-1} (k - 3/2) / k), or None when s >= 1 or K > budget.

    For 0 <= x <= s < 1 every b_k with k >= 1 is negative and |b_k| falls
    with k, so the terms from K on sum to at most |b_K| s^K / (1 - s), and
    sqrt(1 - x) >= sqrt(1 - s): K is the smallest count whose relative tail
    |b_K| s^K / (1 - s)^1.5 is below 2^-53, on every cell and so on every
    class's sum.
    """
    if s >= 1.0:
        return None
    limit = 2.0**-53 * (1.0 - s) ** 1.5
    coefs, c = [1.0], 1.0
    for k in range(1, budget + 1):
        c *= s * (k - 1.5) / k
        if -c < limit:
            return coefs
        coefs.append(c)
    return None


def _series_powers(psq: np.ndarray, sq: np.ndarray, n_terms: int, axes: tuple) -> np.ndarray:
    """Sums of psq sq^j over the trailing axes of the (n, g_theta, g_k)
    stacks, (1, 2) for per-mode totals or (2,) for per-theta sums, for
    j < n_terms, stacked along a new first axis.

    Baby step, giant step (Paterson and Stockmeyer 1973): the stacks are
    (groups, cells) rows, the groups the leading axes that stay.  Term 0 is
    the sum of psq; term 1 + j B + b, for b < B, is giant step
    psq sq^(j B) contracted with baby step sq^(b + 1), one batched matmul
    per block of giant steps.  Both tables are row products, about 2 sqrt(K)
    of them: the last baby step is the giant ratio sq^B, and each block of
    giant steps starts from the last one before it times sq^B.  The two
    tables share one buffer of min(K - 1, _STREAM_CELLS // psq.size) steps,
    or of one giant step where a step is larger (B = 1 then reads sq
    itself); B is capped to leave room for one giant step and the giant
    steps fill the rest in blocks.  The buffer's size does not depend on
    how K splits into B and its giant steps, so past the cap a run's peak
    memory is the same whatever K its weights draw.
    """
    groups = psq.shape[: axes[0]]
    n_groups = math.prod(groups)
    rows = max(1, min(n_terms - 1, _STREAM_CELLS // psq.size))  # steps the buffer holds
    base = max(1, min(math.isqrt(max(n_terms - 2, 0)) + 1, rows - 1))  # ceil(sqrt(K - 1))
    giants = -(-(n_terms - 1) // base)
    own = base if base > 1 else 0  # baby steps held in the buffer
    block = max(1, min(giants, rows - own))  # rows - own >= 1
    # Few live views: each is an object of its own in the run's peak memory.
    buf = np.empty((rows,) + psq.shape)
    if own:
        buf[0] = sq
        for b in range(1, own):
            np.multiply(buf[b - 1], sq, out=buf[b])
        step = buf[own - 1]
        baby = buf[:own].reshape(own, n_groups, -1).transpose(1, 2, 0)
    else:
        step, baby = sq, sq.reshape(n_groups, -1, 1)
    out = np.empty((1 + giants * base,) + groups)
    psq.sum(axis=axes, out=out[0])
    for lo in range(0, giants, block):
        hi = min(lo + block, giants)
        g = buf[own : own + hi - lo]
        if lo:  # every block but the last is full
            np.multiply(buf[own + block - 1], step, out=g[0])
        else:
            g[0] = psq
        for j in range(1, hi - lo):
            np.multiply(g[j - 1], step, out=g[j])
        np.matmul(g.reshape(hi - lo, n_groups, -1).transpose(1, 0, 2), baby,
                  out=out[1 + lo * base : 1 + hi * base].reshape(hi - lo, base, -1)
                  .transpose(2, 0, 1))
    return out[:n_terms]


def _streamed_branch(psq, scaled, scale: float, index: np.ndarray, n_classes: int) -> tuple:
    """Per class, the sums of |P|^2 w' and of |P|^2 w'^2 over its cells, as lists,
    w' = sqrt(1 - w^2) the ancilla-0 factor of an odd dilated run, which is no
    product over modes.

    w^2 = scale^2 prod_i scaled[i]^2 is built from the run's scaled weights
    (each at most 1 in magnitude, scale = prod_i max |w_i| <= 1 + 1e-12 by the
    dilation check), so no partial product leaves the float range, and
    1 - w^2 can be negative only when scale > 1: only then is it clipped at 0,
    per cell, as the dense loop's ancilla weight is.  Summed over the k cells
    in chunks of whole theta_1 slices through one buffer, then pairwise over
    each class's theta cells (a sequential sum over 12^3 of them is off by 3e-14).
    """
    psq_rest = joint_table(psq[1:])  # (theta cells, k cells) of modes 1..n-1
    wsq_rest = joint_table(np.square(scaled[1:])).reshape(-1)
    wsq_first = np.square(scaled[0]) * (scale * scale)
    g_theta, g_k = wsq_first.shape
    chunk = min(g_theta, max(1, _STREAM_CELLS // (g_k * psq_rest.size)))
    buf = np.empty((chunk, g_k, psq_rest.size))  # (theta_1, k_1, cells of modes 1..n-1)
    per_theta = np.empty((2, g_theta, psq_rest.shape[0]))  # sums of w'^2, then of w'
    for lo in range(0, g_theta, chunk):
        hi = min(lo + chunk, g_theta)
        b = buf[: hi - lo]
        np.einsum("ja,c->jac", wsq_first[lo:hi], wsq_rest, out=b)
        np.subtract(1.0, b, out=b)
        if scale > 1.0:
            np.maximum(b, 0.0, out=b)
        for i, sums in enumerate(per_theta):
            if i:
                np.sqrt(b, out=b)
            # |P|^2 = psq[0][theta_1, k_1] psq_rest[t, k]: contracted over k_1, then over k.
            over_k1 = np.matmul(psq[0, lo:hi, None, :], b).reshape((hi - lo,) + psq_rest.shape)
            np.einsum("jtk,tk->jt", over_k1, psq_rest, out=sums[lo:hi])
    order = np.argsort(index, kind="stable")
    starts = np.searchsorted(index[order], np.arange(n_classes))
    f2, f1 = (np.add.reduceat(sums.reshape(-1)[order], starts).tolist() for sums in per_theta)
    return f1, f2


def _factored_run(cfg: SearchConfig) -> _FactoredRun:
    """Check cfg and build its run from per-mode sums and one search vector.

    psi(cell, b) = P(cell) f(cell) v_c(cell)[b]: rows[c] holds class c's
    target band indices, bits the per-mode interval bits that give each theta
    cell its class (ops.class_index), v the search vector of the targets 0..M-1
    (_search_vector), whose v[0] every class reads on its targets and v[-1]
    on its other strings, scaled[i] mode i's weights on the envelope support
    divided by their largest |w_i| (w = 2^w_log2 prod_i scaled[i] there),
    norms[b] the squared norm of readout branch b, sums[b] = (s1, s2, e) its
    per-class sums in scaled form (sum |P|^2 f = s1 2^(e/2),
    sum |P|^2 f^2 = s2 2^e over the class's cells, e a float; s1 and s2 are
    lists of one float per class, one float for a constant target) and
    dots[b] = |v|^2 sum_c s2_c, as every class vector has the norm of v.

    A plain run has one branch, f = w^r.  The dilated step is G (x) A with
    A = w sigma_x + w' sigma_z, and (G (x) A)^r = G^r (x) A^r with A^2 = 1,
    so a dilated run iterates the bare G and its ancilla branches carry
    f = (1, 0) after an even r and (w', w) after an odd r.  Either way the
    main branch has f = w^p, p = r for a plain run and r % 2 for a dilated one.

    P, w and so f = w^p are products over modes, and a class is a product set
    of cells (all theta cells for a constant target, else those whose per-mode
    interval bits spell its string), so its sums are products of per-mode
    sums: O(n g_theta g_k) work, no cell-sized array.  The per-mode inputs are
    real (n, g_theta, g_k) stacks: |g_i|^2, the scaled weights and the one-hot
    interval bits; each power p of the scaled weights costs one contraction
    (to per-mode totals for a constant target).  Each mode's largest scaled
    weight is +-1, so no power of the scaled weights vanishes and none
    overflows.  The weight scale 2^(p w_log2) cancels in the overlaps and
    enters only the norms and the range checks, which use per-mode maxima
    (max |w| = prod max |w_i| on a product set).  The ancilla-0 branch of an
    odd dilated run has f^2 = 1 - w^2.  Where that costs less than a pass over
    the cells, which needs every |w| < 1, its f = w' sums a series of weight
    powers (_series_coefficients) and its f^2 sums are sum |P|^2, the series'
    term 0, less sum |P|^2 w^2; otherwise that pass (_streamed_branch) gives
    both, with 1 - w^2 clipped at 0 per cell (exactly 0 where |w| = 1).
    """
    grid = cfg.grid
    n = grid.n_modes
    bits, rows = cfg.target.classes(grid)
    r = _resolved_iterations(cfg)
    psq = envelope_densities(cfg.envelopes, _mode_grid(cfg.envelopes, grid))
    scaled = np.array(ops.mode_weight_tables(cfg.zetas, grid))  # the weights w, scaled below
    # Each mode's weights on its envelope support (0 elsewhere) divided by
    # their largest magnitude, which becomes exactly 1, so w^p = peak^p
    # prod_i scaled_i^p there with peak = 2^w_log2 the largest |w| on the
    # support.  A mode with no weight on its support keeps zeros and
    # w_log2 = -inf: its mass is 0, as it is when the peak underflows (the
    # envelopes are normalized, so the mass is at most peak^2).
    w_max = peaks = np.abs(scaled).max(axis=(1, 2)).tolist()
    if not all(math.isfinite(m) for m in w_max):  # NaN or inf in some mode's table
        raise WeightOutOfRange("weights must be finite numbers")
    if np.count_nonzero(psq) < psq.size:
        np.copyto(scaled, 0.0, where=psq == 0)  # in place: a run holds two (n, g_theta, g_k) stacks
        peaks = np.abs(scaled).max(axis=(1, 2)).tolist()
    np.divide(scaled, np.array([p if p > 0 else 1.0 for p in peaks])[:, None, None], out=scaled)
    peak = _unscaled(*_scaled_product(peaks))
    w_log2 = math.log2(peak) if peak > 0 else -math.inf

    # Per-class sums of |P|^2 scaled^q, and their exponent, for the powers
    # the mass (2) and the main branch (p and 2 p) read, all by one contraction.
    p = r % 2 if cfg.use_dilation else r
    powers = sorted({2, p, 2 * p})
    stacks = _weight_powers(scaled, powers)
    if bits is None:  # one class of all theta cells: a product of per-mode totals
        totals = [np.einsum("itk,itk->i", psq, q).tolist() for q in stacks]
        power_sums = {q: ([m], e) for q, (m, e) in zip(powers, map(_scaled_product, totals))}
    else:
        per_theta = np.array([np.einsum("itk,itk->it", psq, q) for q in stacks])
        onehot, pattern_bits = np.eye(2)[bits], rows >> np.arange(n - 1, -1, -1) & 1
        sums, exps = _pattern_sums(per_theta, onehot, pattern_bits)
        power_sums = dict(zip(powers, zip(sums.tolist(), exps)))

    # The main branch, f = w^p: (s1, s2, e) from the sums of the powers p and 2 p.
    (s1, e1), (s2, e2) = power_sums[p], power_sums[2 * p]
    main = [x * 2.0 ** (e1 - e2 / 2) for x in s1], s2, e2 + (2 * p * w_log2 if p else 0.0)
    mass_sums, mass_exp = power_sums[2]
    mass = _unscaled(sum(mass_sums) * grid.cell_weight, mass_exp + 2 * w_log2)
    if mass <= 1e-20:
        raise DegenerateWeights(
            f"weight product vanishes on the envelope support (mass {mass:.3e})"
        )
    if cfg.use_dilation:  # each w_max > 0 above the mass floor
        ops.check_dilation_weight(_unscaled(*_scaled_product(w_max)))  # whatever r
        if r % 2:
            # The series when its K terms, n g_theta g_k floats each, cost less
            # than the stream's g_theta^n g_k^n cells; the stream otherwise.
            coefs = _series_coefficients(peak * peak, (psq[0].size**n - 1) // psq.size)
            if coefs is None:
                index = ops.class_index(bits, rows, grid)
                f1, f2 = _streamed_branch(psq, scaled, peak, index, len(rows))
            else:
                sq = np.square(scaled)
                if bits is None:
                    terms = _series_powers(psq, sq, len(coefs), (1, 2)).prod(axis=1)[:, None]
                else:
                    per_theta = _series_powers(psq, sq, len(coefs), (2,))
                    terms, exps = _pattern_sums(per_theta, onehot, pattern_bits)
                    terms = np.ldexp(terms, np.array(exps)[:, None])
                f1 = (np.array(coefs) @ terms).tolist()
                # Every w^2 < 1 here: sum |P|^2 w'^2 = sum |P|^2 - sum |P|^2 w^2,
                # clipped at 0 per class against rounding; sum |P|^2 is term 0
                # and sum |P|^2 w^2 the mass's.
                f2 = [max(x - _unscaled(y, mass_exp + 2 * w_log2), 0.0)
                      for x, y in zip(terms[0].tolist(), mass_sums)]
            sums = [(f1, f2, 0.0), main]
        else:
            empty = [0.0] * len(rows)
            sums = [main, (empty, empty, 0.0)]
    else:
        sums = [main]
    v = _search_vector(n, rows.shape[1], r)
    vsq = float(_cell_sq(v))
    dots = [vsq * sum(s2) for _, s2, _ in sums]
    norms = tuple(_unscaled(d * grid.cell_weight, e) for d, (_, _, e) in zip(dots, sums))
    # log2 of the largest |w| and |w|^r over the cells, from the per-mode maxima.
    top_log2 = math.fsum(math.log2(m) for m in w_max)
    if max(r, 1) * top_log2 > _LOG2_MAX or not all(math.isfinite(x) for x in norms):
        raise WeightOutOfRange(
            f"the weight w, w^{r} or a branch norm leaves the float range "
            f"(|x| <= {np.finfo(np.float64).max:.4g})"
        )
    if not cfg.use_dilation and norms[0] < NORM_FLOOR:
        raise ZeroNorm(f"cannot normalize state with squared norm {norms[0]:.3e}")
    return _FactoredRun(grid, r, rows, bits, v, scaled, w_log2, sums, dots, norms)


def final_state(cfg: SearchConfig) -> JointState:
    """The normalized post-iteration state of a plain (non-dilation) run,
    built once as P(cell) w(cell)^r v_c(cell) / sqrt(norm), each class vector
    v_c the run's v[-1] with v[0] on the class's targets.

    P w^r / sqrt(N) = prod_i g_i w~_i^r / sqrt(N 2^(-2 r w_log2)) with the
    run's scaled weights w~_i, so no factor leaves the float range when w or
    N lies far from 1.
    """
    if cfg.use_dilation:
        raise ValueError("dilated finals carry an ancilla; run without use_dilation")
    run = _factored_run(cfg)
    grid = run.grid
    tables = _mode_tables(cfg.envelopes, grid)
    coef = joint_table([t * wt**run.r for t, wt in zip(tables, run.scaled)])
    coef /= math.sqrt(float(_unscaled(run.norms[0], -2 * run.r * run.w_log2)))
    # The search vector is real (so is every entry of the search step), so a
    # cell's bands are (Re coef, Im coef) times its real class vector: batched
    # real matmuls of the float64 views, (k cells, 2) @ (2, 2 d) per theta
    # cell, whose products are the parts of the complex product.  In chunks
    # of theta cells, so the gathered (2, 2 d) class matrices stay small.
    d = 2**grid.n_modes
    vectors = np.full((len(run.rows), d), run.v[-1].real)
    np.put_along_axis(vectors, run.rows, run.v[0].real, axis=1)
    parts = np.zeros((len(run.rows), 2, d, 2))
    parts[:, 0, :, 0] = parts[:, 1, :, 1] = vectors
    parts = parts.reshape(-1, 2, 2 * d)
    index = ops.class_index(run.bits, run.rows, grid)
    amp = np.empty(coef.shape + (d,), dtype=np.complex128)
    coef_parts, amp_parts = (x.view(np.float64).reshape(coef.shape + (-1,)) for x in (coef, amp))
    chunk = max(1, _STREAM_CELLS // parts[0].size)
    for lo in range(0, len(index), chunk):
        hi = lo + chunk
        np.matmul(coef_parts[lo:hi], parts[index[lo:hi]], out=amp_parts[lo:hi])
    return JointState(grid, amp.reshape(grid.cell_shape + grid.band_shape))


def _cell_sq(bands: np.ndarray) -> np.ndarray:
    """Squared norm of each cell's band vector, with no band-sized temporary."""
    real = bands.view(np.float64)
    return np.einsum("...i,...i->...", real, real)


def _max_deviation(v: np.ndarray, ref: np.ndarray) -> float:
    """Largest |v phase / |v| - ref| over the cells (all axes but the last)
    whose |v| is above _CELL_FLOOR, with phase that of <ref|v>; -inf if none.

    One vector (v 1-D, a single cell) takes its norm and phase as Python
    scalars through the same ufunc loops, so it reads the bits of v[None]."""
    if v.ndim == 1:
        norm = math.sqrt(float(_cell_sq(v)))
        if not norm > _CELL_FLOOR:
            return -math.inf
        overlap = complex(np.einsum("i,i->", np.conjugate(ref), v)) + 0.0
        phase = cmath.exp(-1j * float(np.arctan2(overlap.imag, overlap.real)))
        return float(np.abs(v * (phase * (1.0 / norm)) - ref).max())
    norms = np.sqrt(_cell_sq(v))
    mask = norms > _CELL_FLOOR
    # Adding 0.0 makes a -0.0 real part +0.0, so an orthogonal cell keeps phase 1.
    overlap = np.einsum("...i,...i->...", np.conjugate(ref), v) + 0.0
    scale = np.exp(-1j * np.arctan2(overlap.imag, overlap.real))
    np.divide(scale, norms, out=scale, where=mask)
    diff = v * scale[..., None]
    diff -= ref
    np.abs(diff, out=diff)  # in place: the deviations land in the real parts
    return float(np.maximum.reduce(diff.real, axis=None, where=mask[..., None], initial=-math.inf))


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
    bits, rows = target.classes(grid)  # one reference per target class
    ref = _reference_rows(n, rows, r)[ops.class_index(bits, rows, grid)]
    ref = ref.reshape((grid.g_theta,) * n + (1,) * n + (d,))
    worst = max(_max_deviation(vi, ref_i) for vi, ref_i in zip(v, ref))
    return worst if worst >= 0.0 else math.nan


def _readout(multi: bool, overlaps: dict[str, complex]) -> tuple:
    """(identified, failure) of one branch: every hit of a multi-target run,
    else the one hit that identify returns."""
    hits = _hits(overlaps)
    if not hits:
        return None, "no-association"
    if multi:
        return hits, None
    return (hits[0], None) if len(hits) == 1 else (None, "ambiguous-association")


def run_search(cfg: SearchConfig) -> SearchReport:
    """Full pipeline: list, iterations, univocal readout of each branch.

    Read from per-mode sums and one search vector (see _factored_run), with
    no dense state and, but for odd dilated runs that stream their ancilla-0
    branch, no pass over the cells: a branch with factor f has squared norm
    N = |v|^2 (sum of S2 over the classes) dA and overlaps
    (c S1 + (a - c) T(s)) dA / sqrt(N), with S1 and S2 a class's sums of
    |P|^2 f and |P|^2 f^2 over its cells, S1 summed over all classes, T(s)
    over the classes that target s, a = v[0] and c = v[-1]; the scale of the
    per-mode sums cancels.  From the sums on, a run is a few scalars per
    class: each class's sums are Python floats, one list per sum, a and c are
    Python complex numbers, and the overlaps go straight into the dict.
    Every class vector is v relabelled, so the per-cell check compares v with
    the reference search of the targets 0..M-1, once, as one vector
    (_max_deviation).  norm_constant is the squared norm after the last
    iteration (1 for unit weights); a dilated run's is the sum of its two
    branch norms (1 up to rounding).
    """
    run = _factored_run(cfg)
    n = cfg.n_modes
    dilated = len(run.norms) == 2
    a, c = complex(run.v[0]), complex(run.v[-1])
    rows, strings = run.rows.tolist(), _band_strings(n)

    def overlaps(s1, dot: float) -> dict[str, complex]:
        # Each class's S1 dA / sqrt(N) = s1 sqrt(dA / dot): S1 = s1 2^(e/2), N = dA dot 2^e.
        s1 = [x * math.sqrt(run.grid.cell_weight / dot) for x in s1]
        on_targets = {}  # T(s) for the targets s of some class
        for row, t in zip(rows, s1):
            for b in row:
                on_targets[b] = on_targets.get(b, 0.0) + t
        base = c * sum(s1)
        out = dict.fromkeys(strings, base)
        for b, t in on_targets.items():
            out[strings[b]] = base + (a - c) * t
        return out

    # Per branch: its overlaps and readout, None for an empty dilated branch.
    branch_overlaps = [
        None if dilated and nrm <= BRANCH_FLOOR else overlaps(s1, dot)
        for (s1, _, _), dot, nrm in zip(run.sums, run.dots, run.norms)
    ]
    multi = cfg.target.n_targets > 1
    readouts = [None if ov is None else _readout(multi, ov) for ov in branch_overlaps]
    live = [ro for ro in readouts if ro is not None]
    failure = next((ro[1] for ro in live if ro[1]), None)
    hits = [ro[0] for ro in live if ro[0] is not None]
    if not hits:
        identified, failure = None, failure or "no-association"
    elif all(h == hits[0] for h in hits):
        identified = hits[0]
    else:
        identified, failure = None, "ambiguous-association"
    # The dominant branch holds at least half the norm, so it is live; a tie
    # picks ancilla 1.
    dominant = branch_overlaps[int(dilated and run.norms[1] >= run.norms[0])]
    branches = [ro[0] if ro is not None and isinstance(ro[0], str) else None for ro in readouts]
    reference = _reference_rows(n, np.arange(len(rows[0]))[None], run.r)
    return SearchReport(
        norm_constant=sum(run.norms),
        overlaps=dominant,
        identified=identified,
        per_cell_max_error=_max_deviation(run.v, reference[0]),
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
    profile = joint_table(_mode_tables(envelopes, grid)).reshape(grid.cell_shape)
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
    for s in _band_strings(2):
        op = ops.grover_weighted(TargetSpec.bits(s), cfg.zetas, grid)
        total = total + ops.apply(op, lst).amp
    return JointState(grid, total)
