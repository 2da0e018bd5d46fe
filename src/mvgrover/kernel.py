"""Discretized modular domain: grids, state tensors, quadrature, tensor assembly.

The modular position lives on [0, pi) and the modular momentum on [0, 1),
both sampled at midpoints.  Each cell carries two band amplitudes per mode;
band 1 stands for the [pi, 2pi) half of the modular position axis.  Joint
amplitude tensors are indexed (theta_1..theta_n, k_1..k_n, b_1..b_n) with the
last index fastest, and all reductions run in that lexicographic order.
"""

from __future__ import annotations

import functools
import math
import os
import struct
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import (
    AncillaMismatch,
    BadMagic,
    CapacityExceeded,
    GridMismatch,
    ShapeMismatch,
    TruncatedFile,
    ZeroNorm,
    ZeroSize,
)

# Dense storage only; larger mode counts would thrash without a sparse layout.
MAX_MODES = 4
# Squared norms below this cannot be normalized: ZeroNorm.
NORM_FLOOR = 1e-30
# Physical memory for check_capacity, read once per process.
_PHYSICAL_BYTES = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")

STATE_MAGIC = b"MVGR1"
_HEADER = struct.Struct("<III")


@dataclass(frozen=True)
class ModularGrid:
    """Midpoint discretization of [0, pi) x [0, 1) for each of n modes."""

    n_modes: int
    g_theta: int
    g_k: int

    def __post_init__(self):
        for name in ("n_modes", "g_theta", "g_k"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise TypeError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise ZeroSize(f"{name} must be >= 1, got {value}")
        if self.n_modes > MAX_MODES:
            raise CapacityExceeded(
                f"dense storage supports at most {MAX_MODES} modes, got {self.n_modes}"
            )

    @property
    def d_theta(self) -> float:
        return math.pi / self.g_theta

    @property
    def d_k(self) -> float:
        return 1.0 / self.g_k

    @property
    def cell_weight(self) -> float:
        """Quadrature weight of one joint cell, (d_theta * d_k)**n_modes."""
        return (self.d_theta * self.d_k) ** self.n_modes

    @property
    def cell_shape(self) -> tuple[int, ...]:
        return (self.g_theta,) * self.n_modes + (self.g_k,) * self.n_modes

    @property
    def band_shape(self) -> tuple[int, ...]:
        return (2,) * self.n_modes

    def theta_values(self) -> np.ndarray:
        return np.arange(0.5, self.g_theta) * self.d_theta

    def k_values(self) -> np.ndarray:
        return np.arange(0.5, self.g_k) * self.d_k

    def single_mode(self) -> "ModularGrid":
        """The one-mode grid with the same per-mode resolution; grids of
        several modes share one per (g_theta, g_k) in a process."""
        if self.n_modes == 1:
            return self
        return _one_mode_grid(int(self.g_theta), int(self.g_k))


@functools.cache
def _one_mode_grid(g_theta: int, g_k: int) -> ModularGrid:
    return ModularGrid(1, g_theta, g_k)


def make_grid(n_modes: int, g_theta: int, g_k: int) -> ModularGrid:
    """Build a grid; raises ZeroSize for empty axes, CapacityExceeded for n > 4."""
    return ModularGrid(n_modes, g_theta, g_k)


def check_capacity(grid: ModularGrid) -> None:
    """CapacityExceeded unless four dense states fit in physical memory.

    Runs and state builds take the grid from SearchConfig.grid before any
    grid-sized array exists.  A run holds per-mode stacks of n g_theta g_k
    floats, and only its stream a theta_1 slice of the cells; final_state and
    the list that `state save` writes build one state, the dense oracle loop
    about two.
    """
    state_bytes = 16 * math.prod(grid.cell_shape + grid.band_shape)
    if 4 * state_bytes > _PHYSICAL_BYTES:
        mib = state_bytes / 2**20 if state_bytes < 2**1000 else math.inf  # inf past the float range
        raise CapacityExceeded(
            f"a dense state takes {mib:.4g} MiB; four of them exceed "
            f"the {_PHYSICAL_BYTES / 2**20:.4g} MiB of physical memory"
        )


@dataclass(frozen=True, eq=False)
class JointState:
    """n-mode amplitudes, shape (g_theta,)*n + (g_k,)*n + (2,)*n.

    n_ancilla = 1 appends one extra band axis (the dilation ancilla bit); the
    ancilla carries no quadrature weight of its own.
    """

    grid: ModularGrid
    amp: np.ndarray
    n_ancilla: int = 0

    def __post_init__(self):
        if self.n_ancilla not in (0, 1):
            raise AncillaMismatch(f"n_ancilla must be 0 or 1, got {self.n_ancilla}")
        shape = self.grid.cell_shape + self.grid.band_shape + (2,) * self.n_ancilla
        amp = np.ascontiguousarray(self.amp, dtype=np.complex128)
        if amp.shape != shape:
            raise ShapeMismatch(f"amplitude tensor has shape {amp.shape}, expected {shape}")
        amp.setflags(write=False)
        object.__setattr__(self, "amp", amp)


def check_one_mode(state: JointState) -> None:
    """ShapeMismatch unless state lives on a one-mode grid with no ancilla."""
    if state.grid.n_modes != 1 or state.n_ancilla:
        raise ShapeMismatch(
            f"need a one-mode state without an ancilla, got {state.grid.n_modes} "
            f"mode(s) and {state.n_ancilla} ancilla bit(s)"
        )


def _dot(x: np.ndarray, y: np.ndarray) -> float:
    """sum x * y of two float64 vectors: einsum over rows of 64 floats, in
    this thread (vdot would hand a large state to the BLAS threads), then
    numpy's pairwise sum over the row sums, so the rounding error does not
    grow with the length as one running einsum sum's does."""
    head = x.size - x.size % 64
    rows = np.einsum("ij,ij->i", x[:head].reshape(-1, 64), y[:head].reshape(-1, 64))
    return float(np.add.reduce(rows)) + float(np.einsum("i,i->", x[head:], y[head:]))


def quad_norm(state: JointState) -> float:
    """Squared quadrature norm: sum |amp|^2 * (d_theta*d_k)**n_modes, the
    dot product of the float64 view with itself."""
    real = state.amp.reshape(-1).view(np.float64)
    return _dot(real, real) * state.grid.cell_weight


def inner(a: JointState, b: JointState) -> complex:
    """Quadrature inner product, conjugate-linear in the first argument.

    Dot products of the float64 views, as in quad_norm, with no conjugated
    copy: Re = a_re b_re + a_im b_im, Im = a_re b_im - a_im b_re.
    """
    if a.grid != b.grid:
        raise GridMismatch(f"grids differ: {a.grid} vs {b.grid}")
    if a.amp.shape != b.amp.shape:
        raise AncillaMismatch(
            f"state shapes differ: {a.amp.shape} vs {b.amp.shape}"
        )
    x = a.amp.reshape(-1).view(np.float64)
    y = b.amp.reshape(-1).view(np.float64)
    im = _dot(x[0::2], y[1::2]) - _dot(x[1::2], y[0::2])
    return complex(_dot(x, y), im) * a.grid.cell_weight


def joint_table(tables: Sequence[np.ndarray]) -> np.ndarray:
    """Product over modes of per-mode arrays of one rank: axis j of the result
    is the joint axis of every table's axis j, mode 0 most significant, so two
    gates give np.kron, (theta, k) tables give (theta cells, k cells) and
    (theta, k, band) amplitudes the joint cell and band axes.  Multiplied left
    to right; the result is a new array even for one table, and the ones of
    the tables' rank for an empty (0, ...) stack."""
    if not len(tables):
        return np.ones((1,) * (np.ndim(tables) - 1))
    out = np.array(tables[0])
    for t in map(np.asarray, tables[1:]):
        # (a_0, 1, a_1, 1, ...) times (1, b_0, 1, b_1, ...), then axis j holds (a_j, b_j).
        left = out.reshape([s for a in out.shape for s in (a, 1)])
        right = t.reshape([s for b in t.shape for s in (1, b)])
        out = (left * right).reshape([a * b for a, b in zip(out.shape, t.shape)])
    return out


def tensor(modes: Sequence[JointState]) -> JointState:
    """Outer product of one-mode states (no ancilla) into one joint state.

    Axes come out grouped as (all theta, all k, all bands) in mode order
    (joint_table).  The joint grid is built first, so more than MAX_MODES
    modes raise CapacityExceeded before any allocation.
    """
    if len(modes) == 0:
        raise ZeroSize("tensor() needs at least one mode")
    base = modes[0].grid
    grid = ModularGrid(len(modes), base.g_theta, base.g_k)
    for m in modes:
        check_one_mode(m)
        if m.grid != base:
            raise GridMismatch("all modes must share g_theta and g_k")
    amp = joint_table([m.amp for m in modes])
    return JointState(grid, amp.reshape(grid.cell_shape + grid.band_shape))


def normalize(state: JointState) -> JointState:
    """Rescale to unit quadrature norm.  Raises ZeroNorm below NORM_FLOOR."""
    nrm = quad_norm(state)
    if nrm < NORM_FLOOR:
        raise ZeroNorm(f"cannot normalize state with squared norm {nrm:.3e}")
    return replace(state, amp=state.amp / math.sqrt(nrm))


def with_ancilla(state: JointState) -> JointState:
    """Append the ancilla band bit, initialized to 0."""
    if state.n_ancilla != 0:
        raise AncillaMismatch("state already carries an ancilla bit")
    amp = np.zeros(state.amp.shape + (2,), dtype=np.complex128)
    amp[..., 0] = state.amp
    return JointState(state.grid, amp, n_ancilla=1)


def ancilla_branch(state: JointState, value: int) -> JointState:
    """Project out one (unnormalized) ancilla branch as a plain joint state."""
    if state.n_ancilla != 1:
        raise AncillaMismatch("state carries no ancilla bit")
    if value not in (0, 1):
        raise ValueError(f"ancilla value must be 0 or 1, got {value}")
    return JointState(state.grid, state.amp[..., value])


# ---------------------------------------------------------------------------
# Binary state format: magic "MVGR1", three u32 LE (n_modes, g_theta, g_k),
# then complex128 amplitudes as little-endian (real, imag) float64 pairs in
# C order of the joint tensor (theta indices, k indices, band bits; last
# index fastest).
# ---------------------------------------------------------------------------


def _state_parts(state: JointState) -> tuple[bytes, np.ndarray]:
    """The header and the payload array (a view, not a copy, of a C-ordered
    complex128 state on a little-endian machine)."""
    if state.n_ancilla != 0:
        raise AncillaMismatch("ancilla-extended states have no file representation")
    g = state.grid
    header = STATE_MAGIC + _HEADER.pack(g.n_modes, g.g_theta, g.g_k)
    return header, np.ascontiguousarray(state.amp, dtype="<c16")


def _grid_from_header(head: bytes, size: int) -> ModularGrid:
    """The grid a file or blob of `size` bytes starting with `head` declares."""
    if head[: len(STATE_MAGIC)] != STATE_MAGIC:
        raise BadMagic(
            f"expected magic {STATE_MAGIC!r}, got {bytes(head[:len(STATE_MAGIC)])!r}"
        )
    offset = len(STATE_MAGIC)
    if size < offset + _HEADER.size:
        raise TruncatedFile(
            f"header needs {offset + _HEADER.size} bytes, file has {size}"
        )
    grid = ModularGrid(*_HEADER.unpack_from(head, offset))
    expected = math.prod(grid.cell_shape + grid.band_shape) * 16  # no int64 wrap
    if size - offset - _HEADER.size != expected:
        raise TruncatedFile(
            f"expected {expected} payload bytes, got {size - offset - _HEADER.size}"
        )
    return grid


def state_to_bytes(state: JointState) -> bytes:
    header, payload = _state_parts(state)
    return header + payload.tobytes()


def state_from_bytes(buf: bytes) -> JointState:
    grid = _grid_from_header(buf, len(buf))
    payload = buf[len(STATE_MAGIC) + _HEADER.size :]
    amp = np.frombuffer(payload, dtype="<c16").reshape(grid.cell_shape + grid.band_shape)
    return JointState(grid, amp.astype(np.complex128))


def save_state(state: JointState, path) -> int:
    """Write the state file; returns its size in bytes.  The payload goes
    to the file straight from the state's memory."""
    header, payload = _state_parts(state)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload.view(np.uint8))
    return len(header) + payload.nbytes


def load_state(path) -> JointState:
    """Read a state file into one freshly allocated array, with no bytes copy."""
    with open(path, "rb") as fh:
        head = fh.read(len(STATE_MAGIC) + _HEADER.size)
        grid = _grid_from_header(head, os.fstat(fh.fileno()).st_size)
        amp = np.empty(grid.cell_shape + grid.band_shape, dtype="<c16")
        got = fh.readinto(amp.view(np.uint8))
    if got != amp.nbytes:  # the file shrank while it was read
        raise TruncatedFile(f"expected {amp.nbytes} payload bytes, got {got}")
    return JointState(grid, amp.astype(np.complex128, copy=False))
