"""Position-space waves, the modular-basis transform, and CV logical states.

Position samples live on the midpoint lattice theta = -2*pi*n_win +
(p + 1/2)*d_theta, which interleaves the two band sublattices of every
period.  The forward transform uses the kernel exp(-i*2*pi*k*N); with that
sign, shifting a wave by one period toward negative theta multiplies
amp[j, m, b] by exp(+i*2*pi*k_m).  The transform is an exact isometry
between the position quadrature (weight d_theta) and the modular quadrature
(weight d_theta*d_k) whenever g_k >= 2*n_win + 1; otherwise period aliasing
adds an error on the order of the out-of-band mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    LatticeMisaligned,
    ShapeMismatch,
    WindowTooSmall,
    ZeroNorm,
)
from .kernel import JointState, ModularGrid, check_one_mode

# A wave may leave at most this fraction of its squared norm outside the
# stored window before the transform refuses it.
TAIL_FRACTION_LIMIT = 1e-6


@dataclass(frozen=True, eq=False)
class PositionWave:
    """Complex samples over a window of 2*n_win + 1 position periods.

    theta spans [-2*pi*n_win, 2*pi*(n_win + 1)).  samples_per_period must be
    even (two band sublattices per period).  tail_mass records the fraction
    of squared norm known to lie outside the window; builders that truncate
    an analytic profile fill it in, raw sample data defaults to 0.
    """

    samples: np.ndarray
    n_win: int
    samples_per_period: int
    tail_mass: float = 0.0

    def __post_init__(self):
        if self.n_win < 1:
            raise WindowTooSmall(f"n_win must be >= 1, got {self.n_win}")
        if self.samples_per_period < 2 or self.samples_per_period % 2:
            raise LatticeMisaligned(
                f"samples_per_period must be even and >= 2, got {self.samples_per_period}"
            )
        arr = np.ascontiguousarray(self.samples, dtype=np.complex128)
        expected = self.n_periods * self.samples_per_period
        if arr.ndim != 1 or arr.shape[0] != expected:
            raise ShapeMismatch(
                f"expected {expected} samples for n_win={self.n_win}, got shape {arr.shape}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)
        if self.tail_mass < 0:
            raise ValueError("tail_mass must be nonnegative")

    @property
    def n_periods(self) -> int:
        return 2 * self.n_win + 1

    @property
    def d_theta(self) -> float:
        return 2.0 * math.pi / self.samples_per_period

    def theta_values(self) -> np.ndarray:
        return -2.0 * math.pi * self.n_win + (np.arange(self.samples.size) + 0.5) * self.d_theta


def position_norm(wave: PositionWave) -> float:
    """Squared quadrature norm on the position lattice, sum |psi|^2 * d_theta."""
    return float(np.vdot(wave.samples, wave.samples).real) * wave.d_theta


def zak_forward(psi: PositionWave, grid: ModularGrid) -> JointState:
    """Expand a position wave over the modular cells and band index.

    amp[j, m, b] = sum_N psi(2*pi*N + theta_j + b*pi) * exp(-i*2*pi*k_m*N).
    """
    g = grid.single_mode()
    if psi.samples_per_period != 2 * g.g_theta:
        raise LatticeMisaligned(
            f"wave has {psi.samples_per_period} samples per period, grid needs {2 * g.g_theta}"
        )
    if psi.tail_mass > TAIL_FRACTION_LIMIT:
        raise WindowTooSmall(
            f"wave leaves {psi.tail_mass:.3e} of its norm outside the window "
            f"(limit {TAIL_FRACTION_LIMIT:.0e})"
        )
    # index p = ((N + n_win)*2 + b)*g_theta + j  <->  theta = 2*pi*N + theta_j + b*pi
    per_period = psi.samples.reshape(psi.n_periods, 2, g.g_theta)
    periods = np.arange(-psi.n_win, psi.n_win + 1)
    kernel = np.exp(-2j * math.pi * np.outer(periods, g.k_values()))
    amp = np.einsum("nbj,nm->jmb", per_period, kernel)
    return JointState(g, amp)


def zak_inverse(state: JointState, n_win: int) -> PositionWave:
    """Rebuild position samples from one-mode modular amplitudes (no ancilla).

    Exact inverse of zak_forward on waves supported inside the window when
    g_k >= 2*n_win + 1.
    """
    check_one_mode(state)
    if n_win < 1:
        raise WindowTooSmall(f"n_win must be >= 1, got {n_win}")
    g = state.grid
    periods = np.arange(-n_win, n_win + 1)
    kernel = np.exp(2j * math.pi * np.outer(g.k_values(), periods)) / g.g_k
    per_period = np.einsum("jmb,mn->nbj", state.amp, kernel)
    return PositionWave(per_period.reshape(-1), n_win, 2 * g.g_theta)


def build_gaussian(
    center_theta: float,
    sigma_theta: float,
    momentum_offset: float,
    grid: ModularGrid,
    n_win: int,
) -> PositionWave:
    """Lattice-normalized Gaussian exp(-(theta-c)^2/(4 sigma^2)) * exp(i k0 theta)."""
    if sigma_theta <= 0:
        raise ValueError(f"sigma_theta must be positive, got {sigma_theta}")
    lo = -2.0 * math.pi * n_win
    hi = 2.0 * math.pi * (n_win + 1)
    if center_theta - 6 * sigma_theta < lo or center_theta + 6 * sigma_theta > hi:
        raise WindowTooSmall(
            f"6 sigma around center {center_theta:.3g} exceeds the window "
            f"[{lo:.3g}, {hi:.3g})"
        )
    g = grid.single_mode()
    theta = -2.0 * math.pi * n_win + (np.arange((2 * n_win + 1) * 2 * g.g_theta) + 0.5) * g.d_theta
    dev = theta - center_theta
    samples = np.exp(-(dev**2) / (4.0 * sigma_theta**2) + 1j * momentum_offset * theta)
    samples /= math.sqrt(float(np.vdot(samples, samples).real) * g.d_theta)
    # |psi|^2 ~ exp(-(theta-c)^2 / (2 sigma^2)): analytic mass outside the window
    scale = sigma_theta * math.sqrt(2.0)
    tail = 0.5 * (math.erfc((hi - center_theta) / scale) + math.erfc((center_theta - lo) / scale))
    return PositionWave(samples, n_win, 2 * g.g_theta, tail_mass=tail)


@dataclass(frozen=True, eq=False)
class EnvelopeSpec:
    """Normalized cell-weight profile g(theta, k) of one CV logical qubit."""

    kind: str
    center_theta: float = math.pi / 2
    center_k: float = 0.5
    sigma_theta: float = math.pi / 4
    sigma_k: float = 0.25
    table: Optional[np.ndarray] = None

    _KINDS = ("constant", "gaussian", "tabulated")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"kind must be one of {self._KINDS}, got {self.kind!r}")
        if self.kind == "gaussian" and not (self.sigma_theta > 0 and self.sigma_k > 0):  # NaN too
            raise ValueError("gaussian envelope needs positive widths")
        if self.kind == "gaussian" and (math.isnan(self.center_theta) or math.isnan(self.center_k)):
            raise ValueError("gaussian envelope needs centres that are numbers")
        if self.kind == "tabulated":
            arr = np.ascontiguousarray(self.table, dtype=np.complex128)
            if self.table is None or not np.isfinite(arr).all():
                raise ValueError("tabulated envelope needs a table of finite entries")
            arr.setflags(write=False)
            object.__setattr__(self, "table", arr)

    @classmethod
    def constant(cls) -> "EnvelopeSpec":
        return cls("constant")

    @classmethod
    def gaussian(
        cls,
        center_theta: float = math.pi / 2,
        center_k: float = 0.5,
        sigma_theta: float = math.pi / 4,
        sigma_k: float = 0.25,
    ) -> "EnvelopeSpec":
        return cls("gaussian", center_theta, center_k, sigma_theta, sigma_k)

    @classmethod
    def tabulated(cls, values) -> "EnvelopeSpec":
        return cls("tabulated", table=values)

    def table_for(self, grid: ModularGrid) -> np.ndarray:
        """Quadrature-normalized (g_theta, g_k) table of g on the grid.

        A gaussian is the outer product of its two gaussian_axes profiles.
        """
        g = grid.single_mode()
        if self.kind == "constant":
            area = g.g_theta * g.g_k * g.d_theta * g.d_k
            return np.full((g.g_theta, g.g_k), 1.0 / math.sqrt(area), dtype=np.complex128)
        if self.kind == "tabulated":
            if self.table.shape != (g.g_theta, g.g_k):
                raise ShapeMismatch(
                    f"envelope table has shape {self.table.shape}, grid needs {(g.g_theta, g.g_k)}"
                )
            # Scaled to a largest real or imaginary part of 1 first, so the norm
            # neither over- nor underflows (a magnitude can overflow where no part
            # does); real division, as complex division by a subnormal overflows.
            scale = float(np.abs(self.table.view(np.float64)).max())
            if scale == 0.0:
                raise ZeroNorm("envelope table has zero quadrature norm")
            real = self.table.view(np.float64) / scale
            real /= math.sqrt(float(np.einsum("ij,ij->", real, real)) * g.d_theta * g.d_k)
            return real.view(np.complex128)
        rows, cols = gaussian_axes([self], g)
        return np.multiply.outer(rows[0], cols[0], dtype=np.complex128)


def envelope_densities(envelopes, grid: ModularGrid) -> np.ndarray:
    """|g|^2 of each envelope as one real (len(envelopes), g_theta, g_k) array:
    the gaussians as outer products of the squared rows of one gaussian_axes
    pass, with no complex table, the others as |table_for|^2."""
    g = grid.single_mode()
    out = np.empty((len(envelopes), g.g_theta, g.g_k))
    gauss = [i for i, env in enumerate(envelopes) if env.kind == "gaussian"]
    if gauss:
        rows, cols = gaussian_axes([envelopes[i] for i in gauss], g)
        for i, row, col in zip(gauss, np.square(rows), np.square(cols)):
            np.multiply.outer(row, col, out=out[i])
    for i, env in enumerate(envelopes):
        if env.kind != "gaussian":
            out[i] = np.abs(env.table_for(g)) ** 2
    return out


def gaussian_axes(specs, grid: ModularGrid) -> tuple[np.ndarray, np.ndarray]:
    """(m, g_theta) and (m, g_k) real profiles of m gaussians, each row of unit
    norm on its axis: row i of the two gives spec i's table as an outer
    product, and its density as the outer product of the squared rows.  A row
    is exp(min d^2 - d^2), d = (x - centre) / (2 width), peak exactly 1;
    ZeroNorm where the table's peak exp(-min d^2) is 0.  Both axes of all specs
    take one pass, the shorter axis padded with x = inf, which adds 0."""
    g = grid.single_mode()
    centre, width = np.array(  # (2 parameters, 2 axes, m, 1)
        [[(s.center_theta, s.center_k), (2.0 * s.sigma_theta, 2.0 * s.sigma_k)] for s in specs]
    ).transpose(1, 2, 0)[..., None]
    steps = np.array([[g.d_theta], [g.d_k]])
    x = np.arange(0.5, max(g.g_theta, g.g_k)) * steps
    x[0, g.g_theta:] = np.inf
    x[1, g.g_k:] = np.inf
    with np.errstate(over="ignore"):  # a tiny width overflows d**2 to inf; exp(-inf) = 0
        d2 = np.square((x[:, None, :] - centre) / width)
    low = d2.min(axis=2, keepdims=True)
    if math.exp(-float(low.max())) == 0.0:
        raise ZeroNorm("envelope table has zero quadrature norm")
    row = np.exp(np.subtract(low, d2, out=d2), out=d2)
    norm = np.einsum("imx,imx->im", row, row) * steps
    row /= np.sqrt(norm)[:, :, None]
    return row[0, :, : g.g_theta], row[1, :, : g.g_k]


def logical_mode(table: np.ndarray, bit: int, grid: ModularGrid) -> JointState:
    """One mode's logical |bit>: the envelope table on that band, nothing on the other."""
    g = grid.single_mode()
    amp = np.zeros((g.g_theta, g.g_k, 2), dtype=np.complex128)
    amp[:, :, bit] = table
    return JointState(g, amp)


def logical_zero(env: EnvelopeSpec, grid: ModularGrid) -> JointState:
    """CV logical |0>: envelope on band 0, nothing on band 1."""
    return logical_mode(env.table_for(grid), 0, grid)


def logical_one(env: EnvelopeSpec, grid: ModularGrid) -> JointState:
    """CV logical |1>: envelope on band 1, orthogonal to logical_zero."""
    return logical_mode(env.table_for(grid), 1, grid)
