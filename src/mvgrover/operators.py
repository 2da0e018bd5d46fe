"""Cell-indexed band-space operators: gates, oracles, weighted search, dilation.

A GlobalOperator is a family of 2^n x 2^n matrices, one per joint cell,
plus a real scalar weight per cell.  Cell axes of both arrays are stored
broadcastable against the grid's cell shape (most gate families repeat one
matrix at every cell), so constant operators cost O(4^n) memory no matter
the grid.  Application never mixes cells.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace
from functools import cache, reduce
from typing import Optional

import numpy as np

from .errors import (
    AncillaMismatch,
    BadMode,
    DuplicateTarget,
    GridMismatch,
    NonRealWeight,
    ShapeMismatch,
    WeightOutOfRange,
)
from .kernel import JointState, ModularGrid, joint_table

SIGMA = {
    "x": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}
IDENTITY_1 = np.eye(2, dtype=np.complex128)


@dataclass(frozen=True)
class TargetSpec:
    """Searched logical strings: constant per mode, or theta-dependent.

    Constant mode holds M >= 1 distinct band strings (mode 0 is the most
    significant bit).  Extended mode holds one interval union per mode over
    [0, pi); the searched bit of mode i at a cell is 1 iff theta_i falls in
    the mode's set, so the target string varies across theta cells.
    """

    strings: Optional[tuple[tuple[int, ...], ...]] = None
    intervals: Optional[tuple[tuple[tuple[float, float], ...], ...]] = None

    def __post_init__(self):
        if (self.strings is None) == (self.intervals is None):
            raise ValueError("TargetSpec needs exactly one of strings or intervals")
        if self.strings is not None:
            strings = tuple(tuple(int(b) for b in s) for s in self.strings)
            if not strings:
                raise ValueError("need at least one target string")
            n = len(strings[0])
            for s in strings:
                if len(s) != n or not s or any(b not in (0, 1) for b in s):
                    raise ValueError(f"malformed target string {s}")
            if len(set(strings)) != len(strings):
                raise DuplicateTarget(f"target strings must be distinct: {strings}")
            object.__setattr__(self, "strings", strings)
        else:
            sets = tuple(
                tuple((float(lo), float(hi)) for lo, hi in mode_set)
                for mode_set in self.intervals
            )
            if not sets:
                raise ValueError("need one interval set per mode")
            for mode_set in sets:
                for lo, hi in mode_set:
                    if not (0.0 <= lo <= hi <= math.pi):
                        raise ValueError(
                            f"intervals must satisfy 0 <= lo <= hi <= pi, got ({lo}, {hi})"
                        )
            object.__setattr__(self, "intervals", sets)

    @classmethod
    def bits(cls, s) -> "TargetSpec":
        """Single constant target from a string like '10' or a bit sequence."""
        return cls(strings=(tuple(int(b) for b in s),))

    @classmethod
    def multi(cls, strings) -> "TargetSpec":
        """Several constant targets; they must be distinct."""
        return cls(strings=tuple(tuple(int(b) for b in s) for s in strings))

    @classmethod
    def from_intervals(cls, sets) -> "TargetSpec":
        """Extended mode: per-mode interval unions over [0, pi)."""
        return cls(intervals=tuple(tuple(tuple(iv) for iv in mode_set) for mode_set in sets))

    @property
    def n_modes(self) -> int:
        if self.strings is not None:
            return len(self.strings[0])
        return len(self.intervals)

    @property
    def n_targets(self) -> int:
        return len(self.strings) if self.strings is not None else 1

    @property
    def is_constant(self) -> bool:
        return self.strings is not None

    @property
    def band_indices(self) -> list[int]:
        """Band index of each constant target string, mode 0 the most
        significant bit; none for an interval target."""
        return [int("".join(map(str, s)), 2) for s in self.strings or ()]

    def _check_grid(self, grid: ModularGrid) -> None:
        """GridMismatch unless grid has the target's number of modes."""
        if grid.n_modes != self.n_modes:
            raise GridMismatch(f"target has {self.n_modes} modes, grid has {grid.n_modes}")

    def classes(self, grid: ModularGrid) -> tuple:
        """(bits, rows): the (n, g_theta) per-mode bits of an interval target
        (mode_bits; None for a constant one) and the (classes, M) target band
        indices of each target class, mode 0 the most significant bit.  A
        constant target is one class; interval classes are the product set of
        the bits each mode's theta values search, ascending (class_index)."""
        if self.strings is None:
            bits = self.mode_bits(grid)
            codes = [0]
            for present in map(set, bits.tolist()):
                codes = [2 * c + b for c in codes for b in (0, 1) if b in present]
            return bits, np.array(codes, dtype=np.intp)[:, None]
        self._check_grid(grid)
        return None, np.array([self.band_indices], dtype=np.intp)

    def mode_bits(self, grid: ModularGrid) -> np.ndarray:
        """(n, g_theta) searched bit of each mode at each theta value (extended mode)."""
        if self.intervals is None:
            raise ValueError("constant targets have no per-mode bits")
        self._check_grid(grid)
        # The theta values ascend, so those in [lo, hi) are one slice of them.
        theta = grid.theta_values().tolist()
        bits = np.zeros((self.n_modes, grid.g_theta), dtype=np.intp)
        for row, mode_set in zip(bits, self.intervals):
            for lo, hi in mode_set:
                row[bisect.bisect_left(theta, lo) : bisect.bisect_left(theta, hi)] = 1
        return bits


def class_index(bits: Optional[np.ndarray], rows: np.ndarray, grid: ModularGrid) -> np.ndarray:
    """Each theta cell's class (theta cells flattened) from TargetSpec.classes:
    class 0 for a constant target, else the class whose band index the
    cell's per-mode bits spell."""
    if bits is None:
        return np.zeros(grid.g_theta**grid.n_modes, dtype=np.intp)
    band = bits[0]
    for bit in bits[1:]:
        band = (band[..., None] << 1) | bit
    return np.searchsorted(rows[:, 0], band.reshape(-1))


def _broadcasts_to(shape: tuple, cell_shape: tuple) -> bool:
    """Whether an array of this shape broadcasts to cell_shape and no further."""
    return len(shape) <= len(cell_shape) and all(
        a in (1, b) for a, b in zip(shape[::-1], cell_shape[::-1])
    )


def _check_weight(weight) -> np.ndarray:
    arr = np.asarray(weight)
    if arr.dtype.kind == "c":
        raise NonRealWeight("weight tables must be real-valued")
    return arr.astype(np.float64, copy=False)


@dataclass(frozen=True, eq=False)
class GlobalOperator:
    """Per-cell band-space matrices with real per-cell weights.

    Application is cell-local: out[cell] = weight[cell] * mats[cell] @ in[cell].
    mats has shape (broadcastable cell axes) + (D, D) with D = 2**(n_modes +
    n_ancilla); weight broadcasts against the cell shape.
    """

    grid: ModularGrid
    mats: np.ndarray
    weight: np.ndarray = 1.0  # type: ignore[assignment]
    n_ancilla: int = 0

    def __post_init__(self):
        if self.n_ancilla not in (0, 1):
            raise AncillaMismatch(f"n_ancilla must be 0 or 1, got {self.n_ancilla}")
        d = self.dim
        mats = np.ascontiguousarray(self.mats, dtype=np.complex128)
        if mats.ndim < 2 or mats.shape[-2:] != (d, d):
            raise ShapeMismatch(f"cell matrices must end in ({d}, {d}), got {mats.shape}")
        cell_shape = self.grid.cell_shape
        if not _broadcasts_to(mats.shape[:-2], cell_shape):
            raise ShapeMismatch(
                f"matrix cell axes {mats.shape[:-2]} do not broadcast to {cell_shape}"
            )
        weight = _check_weight(self.weight)
        if not _broadcasts_to(weight.shape, cell_shape):
            raise ShapeMismatch(f"weight axes {weight.shape} do not broadcast to {cell_shape}")
        if not np.isfinite(weight).all():
            raise WeightOutOfRange("weights must be finite numbers")
        mats.setflags(write=False)
        weight.setflags(write=False)
        object.__setattr__(self, "mats", mats)
        object.__setattr__(self, "weight", weight)

    @property
    def dim(self) -> int:
        return 2 ** (self.grid.n_modes + self.n_ancilla)

    def with_weight(self, weight) -> "GlobalOperator":
        """Same matrices, different per-cell weight."""
        return replace(self, weight=_check_weight(weight))


def compose(*ops: GlobalOperator) -> GlobalOperator:
    """Cell-wise matrix product; the rightmost operator acts first."""
    if not ops:
        raise ValueError("compose() needs at least one operator")
    first = ops[0]
    for op in ops[1:]:
        if op.grid != first.grid:
            raise GridMismatch("composed operators must share a grid")
        if op.n_ancilla != first.n_ancilla:
            raise AncillaMismatch("composed operators must share the ancilla layout")
    mats = reduce(lambda a, b: np.einsum("...ij,...jk->...ik", a, b), [op.mats for op in ops])
    weight = reduce(lambda a, b: a * b, [op.weight for op in ops])
    return GlobalOperator(first.grid, mats, weight, first.n_ancilla)


def identity(grid: ModularGrid) -> GlobalOperator:
    return GlobalOperator(grid, np.eye(2**grid.n_modes, dtype=np.complex128))


def pauli(axis: str, mode: int, grid: ModularGrid) -> GlobalOperator:
    """The Pauli matrix on one mode's band bit, identity on the others."""
    if axis not in SIGMA:
        raise ValueError(f"axis must be one of {tuple(SIGMA)}, got {axis!r}")
    if not 0 <= mode < grid.n_modes:
        raise BadMode(f"mode {mode} out of range for {grid.n_modes} modes")
    factors = [IDENTITY_1] * grid.n_modes
    factors[mode] = SIGMA[axis]
    return GlobalOperator(grid, joint_table(factors))


def mode_table_to_cells(table: np.ndarray, mode: int, grid: ModularGrid) -> np.ndarray:
    """A (g_theta, g_k) per-mode table reshaped onto the joint cell axes: one
    mode's weight broadcast over the cells, with no cell-sized array."""
    n = grid.n_modes
    shape = [1] * (2 * n)
    shape[mode] = grid.g_theta
    shape[n + mode] = grid.g_k
    return table.reshape(shape)


def _weight_entry(zeta, grid: ModularGrid):
    """One mode's weights as a value to fill its (g_theta, g_k) table with:
    1.0 for None, else the real scalar or table zeta; ShapeMismatch for a
    table of another shape."""
    if zeta is None:
        return 1.0
    arr = _check_weight(zeta)
    if arr.ndim and arr.shape != (grid.g_theta, grid.g_k):
        raise ShapeMismatch(
            f"weight table has shape {arr.shape}, grid needs {(grid.g_theta, grid.g_k)}"
        )
    return arr


def joint_weight(zetas, grid: ModularGrid) -> np.ndarray:
    """Product of per-mode weight tables over the joint cell axes.

    zetas may be None (all ones) or one entry per mode, each entry a table,
    a scalar, or None.
    """
    return joint_table(mode_weight_tables(zetas, grid)).reshape(grid.cell_shape)


def mode_weight_tables(zetas, grid: ModularGrid) -> np.ndarray:
    """The real (n, g_theta, g_k) stack of the modes' weight tables, each
    written in place; zetas as in joint_weight."""
    if zetas is None:
        zetas = [None] * grid.n_modes
    if len(zetas) != grid.n_modes:
        raise ShapeMismatch(f"need {grid.n_modes} weight tables, got {len(zetas)}")
    out = np.empty((grid.n_modes, grid.g_theta, grid.g_k))
    for i, zeta in enumerate(zetas):
        out[i] = _weight_entry(zeta, grid)
    return out


def gamma(axis: str, mode: int, zeta, grid: ModularGrid) -> GlobalOperator:
    """Cell-weighted Pauli family: weight(cell) = zeta(theta_mode, k_mode)."""
    table = np.empty((grid.g_theta, grid.g_k))
    table[...] = _weight_entry(zeta, grid)
    return pauli(axis, mode, grid).with_weight(mode_table_to_cells(table, mode, grid))


@cache
def _gates(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(H, I0, -H I0 H) on n band bits, read-only; built once per process
    for each n from their exact entries: H's are +-2^(-n/2) (one rounding
    for odd n), and the diffusion -H I0 H = 2/N - I, N = 2^n, is exact."""
    big_n = 2**n
    h = joint_table([np.array([[1, 1], [1, -1]], dtype=np.complex128)] * n) * 2.0 ** (-n / 2)
    i0 = np.eye(big_n, dtype=np.complex128)
    i0[0, 0] = -1.0
    diffusion = np.full((big_n, big_n), 2.0 / big_n, dtype=np.complex128) - np.eye(big_n)
    for gate in (h, i0, diffusion):
        gate.setflags(write=False)
    return h, i0, diffusion


def hadamard(grid: ModularGrid) -> GlobalOperator:
    """Band-space Hadamard on every mode at every cell."""
    return GlobalOperator(grid, _gates(grid.n_modes)[0])


def _oracle_signs(target: TargetSpec, grid: ModularGrid) -> np.ndarray:
    """The oracle's diagonal at each cell: each target class's sign row, -1
    on its searched band strings and 1 elsewhere, gathered per theta cell;
    cell axes broadcastable against the cell shape."""
    bits, rows = target.classes(grid)
    n = grid.n_modes
    signs = np.ones((len(rows), 2**n))
    np.put_along_axis(signs, rows, -1.0, axis=1)
    if bits is None:
        return signs.reshape((1,) * (2 * n) + (-1,))
    return signs[class_index(bits, rows, grid)].reshape((grid.g_theta,) * n + (1,) * n + (-1,))


def oracle(target: TargetSpec, grid: ModularGrid) -> GlobalOperator:
    """Reflection about the searched band string(s) of each cell.

    Every cell matrix is identity - 2 * sum over targets |b(cell)><b(cell)|.
    """
    signs = _oracle_signs(target, grid)
    mats = np.zeros(signs.shape + signs.shape[-1:], dtype=np.complex128)
    np.einsum("...ii->...i", mats)[...] = signs
    return GlobalOperator(grid, mats)


def inversion_about_zero(grid: ModularGrid) -> GlobalOperator:
    """Phase gate identity - 2|0...0><0...0| on the bands of each cell."""
    return GlobalOperator(grid, _gates(grid.n_modes)[1])


def grover_cell(target: TargetSpec, grid: ModularGrid) -> GlobalOperator:
    """Per-cell search step -H I0 H Is; unitary, one matrix per cell.

    The minus sign stays inside the matrices, so the four-element
    single-step search lands on +|target>.
    """
    # -H I0 H Is: the cached diffusion with its columns signed by the oracle.
    signs = _oracle_signs(target, grid)[..., None, :]
    return GlobalOperator(grid, signs * _gates(grid.n_modes)[2])


def grover_weighted(target: TargetSpec, zetas, grid: ModularGrid) -> GlobalOperator:
    """Search step scaled per cell by the product of per-mode weights."""
    return grover_cell(target, grid).with_weight(joint_weight(zetas, grid))


def check_dilation_weight(top: float) -> None:
    """WeightOutOfRange unless the largest |w|, top, is at most 1 (to 1e-12);
    a NaN top is refused too."""
    if not top <= 1.0 + 1e-12:
        raise WeightOutOfRange(f"dilation needs |weight| <= 1 everywhere, max is {top:.6g}")


def ancilla_weight(w: np.ndarray) -> np.ndarray:
    """The dilation partner w' = sqrt(1 - w^2); WeightOutOfRange unless |w| <= 1."""
    check_dilation_weight(float(np.max(np.abs(w))))
    return np.sqrt(np.maximum(1.0 - w**2, 0.0))


def dilation(target: TargetSpec, zetas, grid: ModularGrid) -> GlobalOperator:
    """Unitary extension of the weighted search onto one ancilla bit.

    With w = product of the mode weights and w' = sqrt(1 - w^2), each cell
    gets G (x) A with A = w sigma_x + w' sigma_z; A is real, symmetric and
    squares to the identity, so the whole thing is unitary.
    """
    w = joint_weight(zetas, grid)
    wp = ancilla_weight(w)
    a = w[..., None, None] * SIGMA["x"] + wp[..., None, None] * SIGMA["z"]
    g = grover_cell(target, grid).mats
    d = g.shape[-1]
    ga = np.einsum("...ij,...kl->...ikjl", g, a)
    mats = ga.reshape(ga.shape[:-4] + (2 * d, 2 * d))
    return GlobalOperator(grid, mats, n_ancilla=1)


def apply(op: GlobalOperator, state: JointState) -> JointState:
    """Cell-local matrix action scaled by the cell weight; linear in state."""
    if op.grid != state.grid:
        raise GridMismatch(f"operator grid {op.grid} != state grid {state.grid}")
    if op.n_ancilla != state.n_ancilla:
        raise AncillaMismatch(
            f"operator expects n_ancilla={op.n_ancilla}, state has {state.n_ancilla}"
        )
    d = op.dim
    vec = state.amp.reshape(state.grid.cell_shape + (d,))
    out = np.einsum("...ij,...j->...i", op.mats, vec)
    if op.weight.ndim or float(op.weight) != 1.0:
        out *= op.weight[..., None]
    return JointState(state.grid, out.reshape(state.amp.shape), state.n_ancilla)
