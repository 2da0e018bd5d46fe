"""Self-check suites behind `mvgrover verify`.

Each check re-derives one structural property from scratch and compares the
implementation against it.  `corrupt` deliberately mis-builds one construction
(test hook) so the harness can prove a broken invariant is caught and named.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Optional

import numpy as np

from . import operators as ops
from .kernel import (
    JointState,
    ModeState,
    ancilla_branch,
    inner,
    make_grid,
    normalize,
    quad_norm,
    tensor,
    with_ancilla,
)
from .operators import TargetSpec
from .search import (
    AUTO,
    BRANCH_FLOOR,
    DECISION_THRESHOLD,
    SearchConfig,
    build_list,
    iteration_count,
    logical_overlaps,
    reference_qubit_grover,
    run_search,
    sum_over_targets,
    weighted_list,
)
from .zak import EnvelopeSpec, PositionWave, build_gaussian, zak_forward, zak_inverse

CORRUPTIONS = ("grover-sign",)


def _fail(what: str, err: float, tol: float):
    raise AssertionError(f"{what}: deviation {err:.3e} exceeds {tol:.0e}")


def _assert_close(actual, expected, tol: float, what: str):
    err = float(np.max(np.abs(np.asarray(actual) - np.asarray(expected))))
    if not err <= tol:
        _fail(what, err, tol)


def _random_state(grid, rng, n_ancilla=0) -> JointState:
    shape = grid.cell_shape + grid.band_shape + (2,) * n_ancilla
    amp = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return normalize(JointState(grid, amp, n_ancilla))


def _gaussian_envelopes(n):
    return tuple(
        EnvelopeSpec.gaussian(
            center_theta=math.pi / 2 + 0.1 * i,
            center_k=0.5 - 0.05 * i,
            sigma_theta=math.pi / 4,
            sigma_k=0.25,
        )
        for i in range(n)
    )


def _cos_zetas(grid):
    table = np.cos(grid.theta_values() / 2.0)[:, None] * np.ones(grid.g_k)[None, :]
    return (table,) * grid.n_modes


def check_grid_midpoint_rule(corrupt=None):
    grid = make_grid(1, 4, 2)
    _assert_close(grid.d_theta, math.pi / 4, 1e-15, "d_theta")
    _assert_close(grid.d_k, 0.5, 1e-15, "d_k")
    expected = np.array([1, 3, 5, 7]) * math.pi / 8
    _assert_close(grid.theta_values(), expected, 1e-15, "theta midpoints")


def check_unitary_norm_invariance(corrupt=None):
    rng = np.random.default_rng(7)
    grid = make_grid(2, 5, 3)
    psi = _random_state(grid, rng)
    for name, op in [
        ("hadamard", ops.hadamard(grid)),
        ("grover", ops.grover_cell(TargetSpec.bits("10"), grid)),
        ("oracle", ops.oracle(TargetSpec.bits("01"), grid)),
    ]:
        drift = abs(quad_norm(ops.apply(op, psi)) - quad_norm(psi))
        if drift > 1e-10:
            _fail(f"norm drift under {name}", drift, 1e-10)


def check_inner_positive_definite(corrupt=None):
    rng = np.random.default_rng(11)
    grid = make_grid(1, 4, 4)
    for _ in range(5):
        psi = _random_state(grid, rng)
        val = inner(psi, psi)
        if val.real < 0 or abs(val.imag) > 1e-14:
            raise AssertionError(f"inner(psi, psi) = {val} is not real nonnegative")
    zero = JointState(grid, np.zeros(grid.cell_shape + grid.band_shape))
    if inner(zero, zero) != 0:
        raise AssertionError("inner of the zero tensor must be exactly 0")


def check_tensor_norm_multiplicative(corrupt=None):
    rng = np.random.default_rng(13)
    grid = make_grid(1, 3, 4)
    a = _random_state(grid, rng)
    b = _random_state(grid, rng)
    ma = ModeState(grid, a.amp)
    mb = ModeState(grid, b.amp)
    joint = tensor([ma, mb])
    _assert_close(quad_norm(joint), quad_norm(ma) * quad_norm(mb), 1e-12, "tensor norm")


def check_pauli_algebra(corrupt=None):
    grid = make_grid(1, 2, 2)
    prod = ops.compose(ops.pauli("x", 0, grid), ops.pauli("y", 0, grid), ops.pauli("z", 0, grid))
    _assert_close(prod.mats, 1j * np.eye(2), 1e-15, "sigma_x sigma_y sigma_z = i I")


def check_hadamard_involution(corrupt=None):
    grid = make_grid(2, 3, 3)
    h = ops.hadamard(grid)
    _assert_close(ops.compose(h, h).mats, np.eye(4), 1e-12, "H^2 = I")


def check_grover_identity(corrupt=None):
    for n in (1, 2):
        grid = make_grid(n, 4, 3)
        d = 2**n
        uniform = np.full(d, 1.0 / math.sqrt(d))
        diffusion = 2.0 * np.outer(uniform, uniform) - np.eye(d)
        for idx in range(d):
            target = TargetSpec.bits(format(idx, f"0{n}b"))
            built = ops.grover_cell(target, grid).mats
            if corrupt == "grover-sign":
                built = -built
            expected = diffusion @ ops.oracle(target, grid).mats
            _assert_close(built, expected, 1e-12, f"grover identity n={n} target={idx}")


def check_per_cell_unitarity(corrupt=None):
    grid = make_grid(2, 4, 3)
    eye = np.eye(4)
    builders = {
        "hadamard": ops.hadamard(grid),
        "oracle": ops.oracle(TargetSpec.bits("11"), grid),
        "inversion_about_zero": ops.inversion_about_zero(grid),
        "grover_cell": ops.grover_cell(TargetSpec.bits("01"), grid),
        "oracle-extended": ops.oracle(
            TargetSpec.from_intervals([((0.0, math.pi / 2),), ()]), grid
        ),
    }
    for name, op in builders.items():
        gram = np.einsum("...ji,...jk->...ik", op.mats.conj(), op.mats)
        _assert_close(gram, eye, 1e-12, f"{name} per-cell unitarity")


def check_kraus_completeness(corrupt=None):
    rng = np.random.default_rng(17)
    grid = make_grid(2, 4, 3)
    target = TargetSpec.bits("10")
    zetas = [rng.uniform(0.05, 0.95, (4, 3)) for _ in range(2)]
    g = ops.grover_weighted(target, zetas, grid)
    w = np.broadcast_to(g.weight, grid.cell_shape)
    gp = g.with_weight(np.sqrt(1.0 - w**2))
    psi = _random_state(grid, rng)
    total = quad_norm(ops.apply(g, psi)) + quad_norm(ops.apply(gp, psi))
    _assert_close(total, quad_norm(psi), 1e-10, "G^2 + G'^2 completeness")


def check_dilation_unitarity_branches(corrupt=None):
    rng = np.random.default_rng(19)
    grid = make_grid(2, 3, 3)
    target = TargetSpec.bits("01")
    zetas = [rng.uniform(0.1, 0.9, (3, 3)) for _ in range(2)]
    u = ops.dilation(target, zetas, grid)
    gram = np.einsum("...ji,...jk->...ik", u.mats.conj(), u.mats)
    _assert_close(gram, np.eye(8), 1e-12, "dilation per-cell unitarity")
    g = ops.grover_weighted(target, zetas, grid)
    w = np.broadcast_to(g.weight, grid.cell_shape)
    gp = g.with_weight(np.sqrt(1.0 - w**2))
    psi = _random_state(grid, rng)
    out = ops.apply(u, with_ancilla(psi, 0))
    _assert_close(
        ancilla_branch(out, 1).amp, ops.apply(g, psi).amp, 1e-12, "ancilla-1 branch is G psi"
    )
    _assert_close(
        ancilla_branch(out, 0).amp, ops.apply(gp, psi).amp, 1e-12, "ancilla-0 branch is G' psi"
    )


def check_zak_roundtrip_single_period(corrupt=None):
    grid = make_grid(1, 8, 4)
    n_win = 1
    wave = build_gaussian(math.pi, 1.0, 0.3, grid, n_win)
    back = zak_inverse(zak_forward(wave, grid), n_win)
    _assert_close(back.samples, wave.samples, 1e-10, "zak round trip")


def check_zak_translation_covariance(corrupt=None):
    grid = make_grid(1, 6, 9)  # g_k >= 2*n_win+1 keeps the check exact
    n_win = 4
    wave = build_gaussian(0.0, 2.0, 0.2, grid, n_win)
    spp = wave.samples_per_period
    shifted = np.concatenate([wave.samples[spp:], np.zeros(spp, dtype=complex)])
    amp = zak_forward(wave, grid).amp
    amp_shift = zak_forward(PositionWave(shifted, n_win, spp), grid).amp
    phase = np.exp(2j * math.pi * grid.k_values())[None, :, None]
    _assert_close(amp_shift, phase * amp, 1e-10, "translation covariance phase")


def check_single_step_exactness(corrupt=None):
    cfg = SearchConfig(
        n_modes=2,
        g_theta=8,
        g_k=8,
        envelopes=_gaussian_envelopes(2),
        target=TargetSpec.bits("10"),
        iterations=AUTO,
    )
    report = run_search(cfg)
    if report.identified != "10":
        raise AssertionError(f"expected target '10', identified {report.identified!r}")
    err = abs(abs(report.overlaps["10"]) - 1.0)
    if err > 1e-10:
        _fail("single-step overlap", err, 1e-10)


def check_univocal_association(corrupt=None):
    grid = make_grid(2, 8, 6)
    cfg = SearchConfig(
        n_modes=2,
        g_theta=8,
        g_k=6,
        envelopes=_gaussian_envelopes(2),
        target=TargetSpec.bits("01"),
        zetas=_cos_zetas(grid),
    )
    report = run_search(cfg)
    if report.identified != "01":
        raise AssertionError(f"expected target '01', identified {report.identified!r}")
    others = [abs(v) for s, v in report.overlaps.items() if s != "01"]
    if max(others) > 1e-10:
        _fail("non-target overlap", max(others), 1e-10)


def check_sum_over_targets(corrupt=None):
    grid = make_grid(2, 6, 5)
    cfg = SearchConfig(
        n_modes=2,
        g_theta=6,
        g_k=5,
        envelopes=_gaussian_envelopes(2),
        target=TargetSpec.bits("00"),
        zetas=_cos_zetas(grid),
    )
    total = sum_over_targets(cfg)
    expected = weighted_list(cfg.envelopes, cfg.zetas, grid)
    _assert_close(total.amp, expected.amp, 1e-12, "sum over targets vs weighted list")


def check_per_cell_equivalence_n3(corrupt=None):
    envelopes = tuple(EnvelopeSpec.constant() for _ in range(3))
    for r in (1, 2):
        cfg = SearchConfig(
            n_modes=3,
            g_theta=8,
            g_k=8,
            envelopes=envelopes,
            target=TargetSpec.bits("101"),
            iterations=r,
        )
        report = run_search(cfg)
        if report.per_cell_max_error > 1e-12:
            _fail(f"per-cell equivalence n=3 r={r}", report.per_cell_max_error, 1e-12)


def check_zak_roundtrip_sweep(corrupt=None):
    grid = make_grid(1, 8, 17)
    n_win = 8
    for sigma in (math.pi, 2 * math.pi):
        for center in (0.0, 2.0):
            wave = build_gaussian(center, sigma, 0.4, grid, n_win)
            back = zak_inverse(zak_forward(wave, grid), n_win)
            _assert_close(back.samples, wave.samples, 1e-8, f"round trip sigma={sigma:.3g}")


def check_iteration_schedule(corrupt=None):
    if iteration_count(2, 1) != 1 or iteration_count(3, 1) != 2 or iteration_count(1, 1) != 1:
        raise AssertionError("iteration_count disagrees with the schedule formula")
    probs = [
        float(np.abs(reference_qubit_grover(3, ["011"], r)[0b011]) ** 2) for r in (1, 2, 3)
    ]
    if probs.index(max(probs)) + 1 != 2:
        raise AssertionError(f"reference success probabilities {probs} not maximized at r=2")


def _agreement_configs(rng) -> list[SearchConfig]:
    """Small plain and dilated (odd and even r) runs over the three target
    kinds, with complex envelopes and weights that change sign."""

    def cfg(n, gt, gk, target, r, dilated):
        tables = rng.uniform(0.2, 1.0, (n, gt, gk)) * np.exp(1j * rng.uniform(0, 7, (n, gt, gk)))
        envs = tuple(EnvelopeSpec.tabulated(t) for t in tables)
        zetas = tuple(rng.uniform(-1.0, 1.0, (gt, gk)) for _ in range(n))
        return SearchConfig(n, gt, gk, envs, target, zetas, r, dilated)

    intervals = TargetSpec.from_intervals([[(0.5, 2.0)], [(1.0, 3.0)]])
    multi = TargetSpec.multi(["010", "101"])
    return [
        cfg(2, 3, 3, TargetSpec.bits("10"), AUTO, False),
        cfg(3, 2, 2, multi, 2, False),
        cfg(2, 4, 2, intervals, 3, False),
        cfg(2, 3, 3, TargetSpec.bits("01"), 1, True),
        cfg(2, 4, 2, intervals, 2, True),
        cfg(3, 2, 2, multi, 3, True),
    ]


def _dense_run(cfg: SearchConfig, r: int) -> tuple[list, list]:
    """Branch norms and normalized overlaps (None for an empty branch) of the
    explicit dense loop: build_list, then r applications of grover_weighted,
    or of dilation() with the ancilla in |0>."""
    grid = cfg.grid
    state = build_list(cfg.envelopes, grid)
    if cfg.use_dilation:
        op, state = ops.dilation(cfg.target, cfg.zetas, grid), with_ancilla(state, 0)
    else:
        op = ops.grover_weighted(cfg.target, cfg.zetas, grid)
    for _ in range(r):
        state = ops.apply(op, state)
    branches = [ancilla_branch(state, a) for a in (0, 1)] if cfg.use_dilation else [state]
    norms = [quad_norm(b) for b in branches]
    overlaps = [
        logical_overlaps(cfg.envelopes, normalize(b)) if nrm > BRANCH_FLOOR else None
        for b, nrm in zip(branches, norms)
    ]
    return norms, overlaps


def _branch_hit(cfg: SearchConfig, overlaps: dict):
    """One branch's answer under the univocal rule, or None."""
    found = tuple(sorted(s for s, v in overlaps.items() if abs(v) > DECISION_THRESHOLD))
    if cfg.target.is_constant and cfg.target.n_targets > 1:
        return found or None
    return found[0] if len(found) == 1 else None


def check_engine_agreement(corrupt=None):
    rng = np.random.default_rng(23)
    for i, cfg in enumerate(_agreement_configs(rng)):
        report = run_search(cfg)
        norms, overlaps = _dense_run(cfg, report.iterations_used)
        total = sum(norms)
        _assert_close(report.norm_constant / total, 1.0, 1e-12, f"config {i} norm")
        if cfg.use_dilation:
            _assert_close(report.ancilla_branch_norms, norms, 1e-12 * total, f"config {i} norms")
        dominant = overlaps[int(cfg.use_dilation and norms[1] >= norms[0])]
        for s, v in dominant.items():
            _assert_close(report.overlaps[s], v, 1e-12, f"config {i} overlap {s}")
        branch_hits = [None if ov is None else _branch_hit(cfg, ov) for ov in overlaps]
        hits = [h for h in branch_hits if h is not None]
        identified = hits[0] if hits and all(h == hits[0] for h in hits) else None
        branches = tuple(h if isinstance(h, str) else None for h in branch_hits)
        if report.identified != identified or (
            cfg.use_dilation and report.branch_identified != branches
        ):
            raise AssertionError(
                f"config {i}: readout {report.identified!r} {report.branch_identified!r}, "
                f"dense loop {identified!r} {branches!r}"
            )


FAST_CHECKS: list[tuple[str, Callable]] = [
    ("grid-midpoint-rule", check_grid_midpoint_rule),
    ("unitary-norm-invariance", check_unitary_norm_invariance),
    ("inner-positive-definite", check_inner_positive_definite),
    ("tensor-norm-multiplicative", check_tensor_norm_multiplicative),
    ("pauli-algebra", check_pauli_algebra),
    ("hadamard-involution", check_hadamard_involution),
    ("grover-operator-identity", check_grover_identity),
    ("per-cell-unitarity", check_per_cell_unitarity),
    ("kraus-completeness", check_kraus_completeness),
    ("dilation-unitarity-branches", check_dilation_unitarity_branches),
    ("zak-roundtrip-single-period", check_zak_roundtrip_single_period),
    ("zak-translation-covariance", check_zak_translation_covariance),
    ("single-step-exactness-n2", check_single_step_exactness),
    ("univocal-association-weighted", check_univocal_association),
    ("sum-over-targets-identity", check_sum_over_targets),
]

FULL_CHECKS: list[tuple[str, Callable]] = FAST_CHECKS + [
    ("per-cell-equivalence-n3", check_per_cell_equivalence_n3),
    ("zak-roundtrip-sweep", check_zak_roundtrip_sweep),
    ("iteration-schedule-reference", check_iteration_schedule),
    ("engine-agreement", check_engine_agreement),
]


def run_suite(level: str, corrupt: Optional[str] = None, out=print) -> bool:
    """Run the named suite; prints one PASS/FAIL line per check, a pass with
    its wall time."""
    if level not in ("fast", "full"):
        raise ValueError(f"level must be 'fast' or 'full', got {level!r}")
    if corrupt is not None and corrupt not in CORRUPTIONS:
        raise ValueError(f"unknown corruption {corrupt!r}; supported: {CORRUPTIONS}")
    checks = FAST_CHECKS if level == "fast" else FULL_CHECKS
    ok = True
    for name, fn in checks:
        started = time.perf_counter()
        try:
            fn(corrupt)
        except AssertionError as exc:
            out(f"FAIL {name}: {exc}")
            ok = False
        else:
            out(f"PASS {name} ({(time.perf_counter() - started) * 1e3:.1f} ms)")
    return ok
