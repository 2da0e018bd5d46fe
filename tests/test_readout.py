"""run_search's readout from the unnormalized final state: values and memory."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mvgrover.search as search
import mvgrover.zak as zak
from mvgrover import (
    EnvelopeSpec,
    GlobalOperator,
    SearchConfig,
    TargetSpec,
    ancilla_branch,
    apply,
    build_list,
    dilation,
    final_state,
    grover_weighted,
    logical_overlaps,
    make_grid,
    normalize,
    quad_norm,
    reference_qubit_grover,
    run_search,
    with_ancilla,
)
from mvgrover.errors import CapacityExceeded, WeightOutOfRange, ZeroNorm
from mvgrover.kernel import joint_table
from mvgrover.verify import _branch_hit, _dense_run

TARGETS = {
    "single": lambda n: TargetSpec.bits("1" * n),
    "multi": lambda n: TargetSpec.multi(["0" * n, "1" + "0" * (n - 1)]),
    "intervals": lambda n: TargetSpec.from_intervals([[(0.5, 2.0)]] * n),
}


def gaussian_envs(n):
    return tuple(EnvelopeSpec.gaussian(center_theta=1.2 + 0.2 * i) for i in range(n))


def cos_zetas(grid, factor=0.5):
    table = np.cos(factor * grid.theta_values())[:, None] * np.ones(grid.g_k)[None, :]
    return (table,) * grid.n_modes


@pytest.mark.parametrize("n, g", [(2, 4), (3, 3)])
@pytest.mark.parametrize("kind", sorted(TARGETS))
def test_plain_run_matches_explicit_loop(n, g, kind):
    rng = np.random.default_rng(7 * n + len(kind))
    grid = make_grid(n, g, g)
    target = TARGETS[kind](n)
    for r in range(4):
        zetas = tuple(rng.uniform(0.3, 1.0, (g, g)) for _ in range(n))
        tables = rng.uniform(0.2, 1.0, (n, g, g)) * np.exp(1j * rng.uniform(0, 6, (n, g, g)))
        envs = tuple(EnvelopeSpec.tabulated(t) for t in tables)
        cfg = SearchConfig(n, g, g, envs, target, zetas=zetas, iterations=r)
        state = build_list(envs, grid)
        for _ in range(r):
            state = apply(grover_weighted(target, zetas, grid), state)
        expected = logical_overlaps(envs, normalize(state))
        report = run_search(cfg)
        assert report.iterations_used == r
        assert report.norm_constant == pytest.approx(quad_norm(state), rel=1e-13, abs=0)
        for s, v in expected.items():
            assert abs(report.overlaps[s] - v) <= 1e-13
        assert report.ancilla_branch_norms is None and report.branch_identified is None


@pytest.mark.parametrize("r", [0, 1, 2])
def test_dilation_weight_checked_at_every_parity(r):
    zetas = (np.full((4, 4), 1.5), None)
    cfg = SearchConfig(2, 4, 4, gaussian_envs(2), TargetSpec.bits("10"), zetas=zetas,
                       iterations=r, use_dilation=True)
    with pytest.raises(WeightOutOfRange):
        run_search(cfg)


def test_plain_run_below_norm_floor_is_zero_norm():
    # w = 9e-10 passes the degeneracy check (mass 8e-19); after two rounds
    # the squared norm is about 7e-37.
    cfg = SearchConfig(2, 4, 4, gaussian_envs(2), TargetSpec.bits("10"),
                       zetas=(3e-5, 3e-5), iterations=2)
    with pytest.raises(ZeroNorm):
        run_search(cfg)


def test_faint_plain_run_matches_dense_loop():
    # w = 0.0081 and r = 5 leave a squared norm of about 1e-21: below the
    # dilated branch floor, above the plain-run norm floor, so it is read.
    cfg = SearchConfig(3, 1, 1, (EnvelopeSpec.constant(),) * 3, TargetSpec.bits("000"),
                       zetas=(0.2, 0.45, 0.09), iterations=5)
    assert run_search(cfg).norm_constant < 1e-20
    _assert_matches_dense_loop(cfg)


def test_dilated_tie_reads_ancilla_one():
    # Two cells with w = (-1, 0): the branches (w' psi, w psi) carry one cell
    # each, with equal norms and opposite overlaps.
    grid = make_grid(1, 2, 1)
    envs = (EnvelopeSpec.tabulated(np.array([[1.0], [1.0j]])),)
    zetas = (np.array([[-1.0], [0.0]]),)
    cfg = SearchConfig(1, 2, 1, envs, TargetSpec.bits("1"), zetas=zetas, use_dilation=True)
    report = run_search(cfg)
    assert report.ancilla_branch_norms[0] == report.ancilla_branch_norms[1] > 0
    state = apply(dilation(cfg.target, zetas, grid), with_ancilla(build_list(envs, grid)))
    branch_zero, branch_one = (
        logical_overlaps(envs, normalize(ancilla_branch(state, a))) for a in (0, 1)
    )
    assert branch_one["1"] == pytest.approx(-branch_zero["1"], abs=1e-12)
    assert abs(branch_one["1"]) == pytest.approx(0.5, abs=1e-12)
    for s, v in branch_one.items():
        assert abs(report.overlaps[s] - v) <= 1e-13


def _spy_stream(monkeypatch):
    """Record the weight scale of every _streamed_branch call."""
    scales, stream = [], search._streamed_branch

    def spy(psq, scaled, scale, index, n_classes):
        scales.append(scale)
        return stream(psq, scaled, scale, index, n_classes)

    monkeypatch.setattr(search, "_streamed_branch", spy)
    return scales


def test_dilated_branches_that_disagree_are_ambiguous(monkeypatch):
    # Mode 0 searches bit 1 at theta = pi/4 only, where w = 1; at 3 pi/4 it
    # searches 0 and w = 0.  After one step the ancilla-1 branch holds the
    # class "10" and the ancilla-0 branch the class "00", with half the norm each.
    scales = _spy_stream(monkeypatch)
    target = TargetSpec.from_intervals([[(0.0, math.pi / 2)], []])
    zetas = (np.array([[1.0], [0.0]]), np.ones((2, 1)))
    cfg = SearchConfig(2, 2, 1, (EnvelopeSpec.constant(),) * 2, target, zetas=zetas,
                       iterations=1, use_dilation=True)
    report = run_search(cfg)
    assert report.identified is None and report.failure == "ambiguous-association"
    assert report.branch_identified == ("00", "10")
    assert report.ancilla_branch_norms == pytest.approx((0.5, 0.5), abs=1e-15)
    assert scales == [1.0]
    _assert_matches_dense_loop(cfg)


def test_stream_clips_weights_just_above_one(monkeypatch):
    # w = 1 + 1e-13 passes the dilation check; 1 - w^2 < 0 there is clipped
    # to 0 per cell by the stream, as the dense loop's ancilla weight does.
    scales = _spy_stream(monkeypatch)
    zetas = (np.array([[1.0 + 1e-13], [0.5]]), np.ones((2, 1)))
    cfg = SearchConfig(2, 2, 1, (EnvelopeSpec.constant(),) * 2, TargetSpec.bits("10"),
                       zetas=zetas, use_dilation=True)
    report = run_search(cfg)
    assert report.identified == "10" and report.branch_identified == ("10", "10")
    assert len(scales) == 1 and scales[0] > 1.0
    _assert_matches_dense_loop(cfg)


def test_stream_clips_the_branch_norm_per_cell(monkeypatch):
    # The ancilla-0 norm sums |P|^2 max(1 - w^2, 0) per cell, as the dense
    # loop does; sum |P|^2 - sum |P|^2 w^2 of the class, clipped once, is
    # 2.7e-13 off where one cell has w = 1 + 1e-13.
    scales = _spy_stream(monkeypatch)
    zetas = (np.array([[1.0 + 1e-13], [0.5]]), np.ones((2, 1)))
    cfg = SearchConfig(2, 2, 1, (EnvelopeSpec.constant(),) * 2, TargetSpec.bits("10"),
                       zetas=zetas, iterations=1, use_dilation=True)
    norms, _ = _dense_run(cfg, 1)
    assert run_search(cfg).ancilla_branch_norms[0] == pytest.approx(norms[0], rel=1e-15, abs=0)
    assert scales[0] > 1.0


@pytest.mark.parametrize("n, g", [(2, 16), (3, 6)])
@pytest.mark.parametrize("use_dilation", [False, True])
def test_run_search_peak_memory(n, g, use_dilation):
    grid = make_grid(n, g, g)
    cfg = SearchConfig(n, g, g, gaussian_envs(n), TargetSpec.bits("1" * n),
                       zetas=cos_zetas(grid), iterations=3, use_dilation=use_dilation)
    state_bytes = 16 * math.prod(grid.cell_shape + grid.band_shape)
    tracemalloc.start()
    try:
        run_search(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * state_bytes


@pytest.mark.parametrize("n, g", [(2, 4), (3, 3)])
@pytest.mark.parametrize("kind", sorted(TARGETS))
def test_final_state_matches_explicit_loop(n, g, kind):
    rng = np.random.default_rng(5 * n + len(kind))
    grid = make_grid(n, g, g)
    target = TARGETS[kind](n)
    for r in range(4):
        zetas = tuple(rng.uniform(-1.0, 1.0, (g, g)) for _ in range(n))
        tables = rng.uniform(0.2, 1.0, (n, g, g)) * np.exp(1j * rng.uniform(0, 6, (n, g, g)))
        envs = tuple(EnvelopeSpec.tabulated(t) for t in tables)
        state = build_list(envs, grid)
        for _ in range(r):
            state = apply(grover_weighted(target, zetas, grid), state)
        built = final_state(SearchConfig(n, g, g, envs, target, zetas=zetas, iterations=r))
        assert np.max(np.abs(built.amp - normalize(state).amp)) <= 1e-13


@pytest.mark.parametrize("r", [0, 1, 2])
def test_constant_envelopes_read_the_reference_search(r):
    # Unit weights and constant envelopes: every overlap is the reference
    # amplitude itself, summed over 12**6 cells.
    cfg = SearchConfig(3, 12, 12, (EnvelopeSpec.constant(),) * 3, TargetSpec.bits("011"),
                       iterations=r)
    report = run_search(cfg)
    ref = reference_qubit_grover(3, ["011"], r)
    for idx, v in enumerate(ref):
        assert abs(report.overlaps[format(idx, "03b")] - v) <= 1e-14
    assert report.norm_constant == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("build", [run_search, final_state])
def test_interval_run_peak_memory(build):
    # Interval targets with g_k = 1: the per-cell oracle matrices of a dense
    # run would be far larger than the state.
    grid = make_grid(3, 16, 1)
    cfg = SearchConfig(3, 16, 1, gaussian_envs(3), TARGETS["intervals"](3),
                       zetas=cos_zetas(grid), iterations=3)
    state_bytes = 16 * math.prod(grid.cell_shape + grid.band_shape)
    tracemalloc.start()
    try:
        build(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * state_bytes


@pytest.mark.parametrize("low", [1.0, 1e-250])
def test_per_cell_check_reads_one_reference_row(monkeypatch, low):
    # theta = pi/4 searches "1", theta = 3pi/4 searches "0"; the envelope
    # puts `low` on the second cell.  Both classes are relabellings of the
    # search of "0", so the check reads that one row, of the two-value
    # recurrence, whatever the amplitudes.
    calls = []
    recurrence_row = search._recurrence_row

    def spy(n, m, r):
        calls.append(tuple(format(t, f"0{n}b") for t in range(m)))
        return recurrence_row(n, m, r)

    monkeypatch.setattr(search, "_recurrence_row", spy)
    monkeypatch.setattr(search, "_reference_rows", None)  # the run reads no dense reference
    envs = (EnvelopeSpec.tabulated(np.array([[1.0], [low]])),)
    cfg = SearchConfig(1, 2, 1, envs, TargetSpec.from_intervals([[(0.0, 1.0)]]))
    report = run_search(cfg)
    assert calls == [("0",)]
    assert report.per_cell_max_error <= 1e-12


def test_step_budget_does_not_scale_with_classes():
    # 16 interval classes share one search vector, so r alone is bounded.
    target = TargetSpec.from_intervals([[(0.0, 1.5)]] * 4)
    cfg = SearchConfig(4, 2, 1, gaussian_envs(4), target, iterations=2000)
    assert len(target.classes(cfg.grid)[1]) == 16
    assert run_search(cfg).per_cell_max_error <= 1e-12
    with pytest.raises(CapacityExceeded):
        run_search(SearchConfig(4, 2, 1, gaussian_envs(4), target, iterations=30_001))


def test_interval_run_builds_one_class_operator(monkeypatch):
    # 16 target classes, one grover_cell (the step is built once per (n, M)
    # per process) and r apply calls on the one-cell grid.
    calls = []
    grover_cell, apply_op = search.ops.grover_cell, search.ops.apply

    def count(fn, name):
        def wrapped(*args):
            calls.append(name)
            return fn(*args)
        return wrapped

    monkeypatch.setattr(search.ops, "grover_cell", count(grover_cell, "grover_cell"))
    monkeypatch.setattr(search.ops, "apply", count(apply_op, "apply"))
    search._search_step.cache_clear()
    target = TargetSpec.from_intervals([[(0.0, 1.5)]] * 4)
    cfg = SearchConfig(4, 2, 1, gaussian_envs(4), target, iterations=2)
    assert len(target.classes(cfg.grid)[1]) == 16
    report = run_search(cfg)
    assert calls == ["grover_cell", "apply", "apply"]
    assert report.per_cell_max_error <= 1e-12
    calls.clear()
    other = TargetSpec.from_intervals([[(0.5, 2.5)]] * 4)
    run_search(SearchConfig(4, 3, 2, gaussian_envs(4), other, iterations=2))
    assert calls == ["apply", "apply"]


@pytest.mark.parametrize("r", [0, 1, 2, 5])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_cached_step_class_vectors_match_reference(n, r):
    # A run keeps the search vector v of the first M strings and reads every
    # class as v relabelled: v[0] on the class's targets, v[-1] elsewhere.
    # Checked for every M on the first M strings and on M random ones, and
    # for M = 1 (the interval classes) on every string.
    rng = np.random.default_rng(10 * n + r)
    strings = [format(t, f"0{n}b") for t in range(2**n)]
    for m in range(1, 2**n):
        cfg = SearchConfig(n, 1, 1, gaussian_envs(n), TargetSpec.multi(strings[:m]), iterations=r)
        v = search._factored_run(cfg).v
        assert np.max(np.abs(v - reference_qubit_grover(n, strings[:m], r))) <= 1e-14
        rows = [[t] for t in range(2**n)] if m == 1 else [rng.permutation(2**n)[:m]]
        for row in rows:
            relabelled = np.full(2**n, v[-1])
            relabelled[row] = v[0]
            ref = reference_qubit_grover(n, [strings[t] for t in row], r)
            assert np.max(np.abs(relabelled - ref)) <= 1e-14


def test_wrong_search_step_fails_the_per_cell_check(monkeypatch):
    # The per-cell check compares the class vectors with an independent
    # reference, so one wrong-sign oracle entry in the cached step shows.
    step = search._search_step

    def flipped(n, m):
        good = step(n, m)
        sign = np.ones(2**n)
        sign[m] = -1.0  # a band that is no target of the canonical step
        return GlobalOperator(good.grid, good.mats * sign)

    monkeypatch.setattr(search, "_search_step", flipped)
    for kind in sorted(TARGETS):
        cfg = SearchConfig(3, 3, 2, gaussian_envs(3), TARGETS[kind](3), iterations=1)
        assert run_search(cfg).per_cell_max_error > 1e-12
    # A globally negated step gives -v after an odd r, which no norm or phase
    # alignment would see; the run compares v entry by entry, so it shows.
    # After an even r the sign cancels, (-G)^2 = G^2, and v is right.
    monkeypatch.setattr(search, "_search_step", lambda n, m: GlobalOperator(
        step(n, m).grid, -step(n, m).mats))
    for kind in sorted(TARGETS):
        for r in (1, 2, 3):
            cfg = SearchConfig(3, 3, 2, gaussian_envs(3), TARGETS[kind](3), iterations=r)
            error = run_search(cfg).per_cell_max_error
            assert error > 1e-12 if r % 2 else error <= 1e-12


def _dense_readout(cfg, overlaps):
    """(identified, branch_identified) of the dense loop's branches under the univocal rule."""
    per_branch = [None if ov is None else _branch_hit(cfg, ov) for ov in overlaps]
    found = [h for h in per_branch if h is not None]
    identified = found[0] if found and all(h == found[0] for h in found) else None
    branches = tuple(h if isinstance(h, str) else None for h in per_branch)
    return identified, branches if cfg.use_dilation else None


def _assert_matches_dense_loop(cfg):
    report = run_search(cfg)
    norms, overlaps = _dense_run(cfg, report.iterations_used)
    assert report.norm_constant == pytest.approx(sum(norms), rel=1e-12, abs=0)
    if cfg.use_dilation:
        for got, want in zip(report.ancilla_branch_norms, norms):
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12 * sum(norms))
    dominant = overlaps[int(cfg.use_dilation and norms[1] >= norms[0])]
    for s, v in dominant.items():
        assert abs(report.overlaps[s] - v) <= 1e-12
    assert (report.identified, report.branch_identified) == _dense_readout(cfg, overlaps)


@pytest.mark.parametrize("n, gt, gk", [(1, 4, 3), (2, 4, 3), (3, 3, 2), (4, 2, 2)])
@pytest.mark.parametrize("kind", sorted(TARGETS))
@pytest.mark.parametrize("use_dilation", [False, True])
def test_per_mode_sums_match_dense_loop(n, gt, gk, kind, use_dilation):
    # Complex tabulated envelopes and weights of both signs, each mode's
    # weights spread over a different range; r = 1..3 covers odd and even
    # dilated runs.
    rng = np.random.default_rng([n, len(kind), use_dilation])
    for r in (1, 2, 3):
        tables = rng.uniform(0.2, 1.0, (n, gt, gk)) * np.exp(1j * rng.uniform(0, 7, (n, gt, gk)))
        envs = tuple(EnvelopeSpec.tabulated(t) for t in tables)
        zetas = tuple(rng.uniform(-1.0, 1.0, (gt, gk)) * 0.5**i for i in range(n))
        cfg = SearchConfig(n, gt, gk, envs, TARGETS[kind](n), zetas=zetas, iterations=r,
                           use_dilation=use_dilation)
        _assert_matches_dense_loop(cfg)
    if use_dilation:
        # |w| = 1 on part of the support (every mode's first theta row is +-1)
        # and on all of it: the ancilla-0 sums sum |P|^2 - sum |P|^2 w^2 of an
        # odd run cancel in part, or exactly, leaving that branch empty.
        signs = rng.choice([-1.0, 1.0], (n, gt, gk))
        partial = rng.uniform(-1.0, 1.0, (n, gt, gk))
        partial[:, 0, :] = signs[:, 0, :]
        for zetas in (partial, signs):
            for r in (1, 3):
                cfg = SearchConfig(n, gt, gk, envs, TARGETS[kind](n), zetas=tuple(zetas),
                                   iterations=r, use_dilation=True)
                _assert_matches_dense_loop(cfg)
        assert run_search(cfg).ancilla_branch_norms[0] == 0.0


@pytest.mark.parametrize("kind", sorted(TARGETS))
def test_compensating_weights_read_like_dense_loop(kind):
    # w = 1 on every cell, from 1e200 on mode 0 and 1e-200 on mode 1: a
    # plain product of per-mode power sums would overflow and underflow.
    cfg = SearchConfig(2, 4, 4, gaussian_envs(2), TARGETS[kind](2), zetas=(1e200, 1e-200),
                       iterations=2)
    _assert_matches_dense_loop(cfg)
    assert run_search(cfg).norm_constant == pytest.approx(1.0, abs=1e-14)


def test_plain_run_peak_memory_without_cell_tables():
    # A plain run allocates per-mode tables and one class index per theta
    # cell: no array of the g_theta^2 g_k^2 = 16.8M cells.
    grid = make_grid(2, 64, 64)
    cfg = SearchConfig(2, 64, 64, gaussian_envs(2), TargetSpec.bits("10"),
                       zetas=cos_zetas(grid), iterations=3)
    tracemalloc.start()
    try:
        run_search(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2**20


_FOOTPRINT_RUNS = {  # (iterations, use_dilation, largest |w_i|, stacks allowed)
    "plain-r1": (1, False, 1.0, 2.5),
    "plain-r3": (3, False, 1.0, 2.5),
    "plain-r40": (40, False, 1.0, 2.5),
    "even-dilated": (2, True, 1.0, 2.5),
    "odd-dilated-series": (1, True, 0.7, 3.2),
}


def _footprint_weights(kind, grid, bound):
    rng = np.random.default_rng(len(kind))
    if kind == "none":
        return None
    if kind == "scalar":
        return (bound,) * grid.n_modes
    if kind == "table":
        return tuple(rng.uniform(-bound, bound, (grid.g_theta, grid.g_k)) for _ in range(grid.n_modes))
    return tuple(bound * z for z in cos_zetas(grid))


@pytest.mark.parametrize("envelope, weights, run", [
    (envelope, weights, run)
    for envelope in ("gaussian", "tabulated", "constant")
    for weights in ("none", "scalar", "table", "cosine")
    for run in sorted(_FOOTPRINT_RUNS)
    if not (weights == "none" and run.startswith("odd"))  # unit weights stream, no series
])
def test_run_holds_two_per_mode_stacks(monkeypatch, envelope, weights, run):
    # A run's footprint is its two (n, g_theta, g_k) stacks, |g_i|^2 and the
    # scaled weights, of n g_theta g_k 8 bytes each, plus what _STREAM_CELLS
    # caps: an odd dilated run's series holds one more stack at (2, 64, 64),
    # where one stack exceeds half the cap.
    r, use_dilation, bound, allowed = _FOOTPRINT_RUNS[run]
    monkeypatch.setattr(search, "_streamed_branch", _no_stream)
    n, g = 2, 64
    grid = make_grid(n, g, g)
    rng = np.random.default_rng(3)
    envs = {
        "gaussian": gaussian_envs(n),
        "tabulated": tuple(EnvelopeSpec.tabulated(rng.uniform(0.2, 1.0, (g, g))
                                                  * np.exp(1j * rng.uniform(0, 6, (g, g))))
                           for _ in range(n)),
        "constant": (EnvelopeSpec.constant(),) * n,
    }[envelope]
    cfg = SearchConfig(n, g, g, envs, TargetSpec.bits("11"), zetas=_footprint_weights(weights, grid, bound),
                       iterations=r, use_dilation=use_dilation)
    run_search(cfg)  # the per-process caches of this shape
    tracemalloc.start()
    try:
        run_search(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= allowed * n * g * g * 8


@pytest.mark.parametrize("g, use_dilation, units, amplitude", [
    pytest.param(32, False, 14.5, 1.0, id="32-False-14.5"),
    pytest.param(24, True, 69.5, 1.0, id="24-True-69.5"),
    pytest.param(24, True, 69.5, 0.9, id="24-True-69.5-series"),
])
def test_run_peak_memory_in_mode_tables(g, use_dilation, units, amplitude):
    # Two gaussian modes with cosine weights, r = 1: a plain run holds a few
    # per-mode stacks, the odd dilated run also its streamed chunk of at most
    # one theta_1 slice (g^3 cells at n = 2) or, at amplitude 0.9, its block
    # of series powers.  Bounds in units of one mode table of g_theta * g_k
    # floats: the peaks of the previous design.
    grid = make_grid(2, g, g)
    zetas = tuple(amplitude * z for z in cos_zetas(grid))
    cfg = SearchConfig(2, g, g, gaussian_envs(2), TargetSpec.bits("10"), zetas=zetas,
                       use_dilation=use_dilation)
    run_search(cfg)  # builds the process's search step for (n, M) = (2, 1)
    tracemalloc.start()
    try:
        report = run_search(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.iterations_used == 1
    assert peak <= units * 8 * g * g


class _Streamed(Exception):
    """Raised by a stand-in for search._streamed_branch."""


def _no_stream(*args):
    raise _Streamed


def _series_config(rng, n, gt, gk, kind, r, bound):
    """A dilated run with complex tabulated envelopes and weights of both
    signs, |w_i| <= bound on every mode."""
    tables = rng.uniform(0.2, 1.0, (n, gt, gk)) * np.exp(1j * rng.uniform(0, 7, (n, gt, gk)))
    envs = tuple(EnvelopeSpec.tabulated(t) for t in tables)
    zetas = tuple(rng.uniform(-bound, bound, (gt, gk)) for _ in range(n))
    return SearchConfig(n, gt, gk, envs, TARGETS[kind](n), zetas=zetas, iterations=r,
                        use_dilation=True)


@pytest.mark.parametrize("n, gt, gk", [(2, 8, 8), (3, 4, 4), (4, 2, 3)])
@pytest.mark.parametrize("kind", sorted(TARGETS))
def test_series_branch_matches_dense_loop(monkeypatch, n, gt, gk, kind):
    # With |w_i| <= 0.7 the series' K terms of n gt gk floats each cost less
    # than the gt^n gk^n cells, so no odd run here streams its ancilla-0 branch.
    rng = np.random.default_rng([n, gt, len(kind)])
    monkeypatch.setattr(search, "_streamed_branch", _no_stream)
    for r in (1, 3):
        _assert_matches_dense_loop(_series_config(rng, n, gt, gk, kind, r, 0.7))


@pytest.mark.parametrize("n, g, kind", [(2, 24, "single"), (3, 6, "multi"), (4, 3, "intervals"),
                                        (2, 16, "intervals")])
def test_series_matches_streamed_branch(monkeypatch, n, g, kind):
    # Per class, the series' f sum against the stream's over the same cells.
    rng = np.random.default_rng([n, g])
    for _ in range(4):
        cfg = _series_config(rng, n, g, g, kind, 1, 0.9)
        with monkeypatch.context() as patched:
            patched.setattr(search, "_streamed_branch", _no_stream)
            series = search._factored_run(cfg).sums[0][0]
        with monkeypatch.context() as patched:
            patched.setattr(search, "_series_coefficients", lambda s, budget: None)
            streamed = search._factored_run(cfg).sums[0][0]
        assert len(series) == len(streamed)
        series, streamed = np.asarray(series), np.asarray(streamed)
        assert np.max(np.abs(series - streamed) / streamed) <= 1e-14


@pytest.mark.parametrize("kind", sorted(TARGETS))
def test_runs_ask_only_for_the_weight_powers_they_read(monkeypatch, kind):
    # The mass reads the power 2 of the scaled weights w~ and the main branch,
    # f = w^p, the powers 1 and 2 of w~^p: a dilated run's p = r % 2 takes
    # (0, 2) or (1, 2) of w~ in one call, and so does a plain run at r = 1;
    # any other plain run takes 2 of w~, then 1 and 2 of w~^r, raised in place.
    # An odd dilated run's ancilla-0 branch takes sum |P|^2 from its series or
    # its stream, with no power 0.
    asked, weight_powers = [], search._weight_powers

    def spy(psq, x, powers, out):
        asked.append((tuple(powers), x.copy()))
        return weight_powers(psq, x, powers, out)

    monkeypatch.setattr(search, "_weight_powers", spy)
    rng = np.random.default_rng(len(kind))
    for r in range(4):
        cfg = _series_config(rng, 2, 8, 8, kind, r, 0.7)
        with monkeypatch.context() as patched:
            patched.setattr(search, "_streamed_branch", _no_stream)  # the series
            run_search(cfg)
        with monkeypatch.context() as patched:
            patched.setattr(search, "_series_coefficients", lambda s, budget: None)  # the stream
            run_search(cfg)
        run_search(SearchConfig(2, 8, 8, cfg.envelopes, cfg.target, zetas=cfg.zetas, iterations=r))
        dilated = (1, 2) if r % 2 else (0, 2)
        plain = [(1, 2)] if r == 1 else [(2,), (1, 2)]
        assert [q for q, _ in asked] == [dilated, dilated, *plain]
        scaled = asked[0][1]
        assert all(np.array_equal(x, scaled) for _, x in asked[1:3])
        if r != 1:
            assert np.array_equal(asked[3][1], np.power(scaled, r))
        asked.clear()


def test_cost_rule_picks_series_or_stream(monkeypatch):
    # The series needs s = max w^2 below 1 and fewer terms than the stream's
    # cells allow; cosine weights of amplitude 1 at g = 24 give s = 0.998.
    monkeypatch.setattr(search, "_streamed_branch", _no_stream)
    grid = make_grid(2, 24, 24)

    def dilated(n, zetas):
        return SearchConfig(n, 24, 24, gaussian_envs(n), TargetSpec.bits("1" * n), zetas=zetas,
                            use_dilation=True)

    run_search(dilated(2, tuple(0.9 * z for z in cos_zetas(grid))))
    one_mode = cos_zetas(make_grid(1, 24, 24))
    for cfg in [
        dilated(2, cos_zetas(grid)),  # s near 1
        dilated(2, None),  # s = 1
        dilated(2, (1.0 + 5e-13, 1.0)),  # s > 1 by rounding
        dilated(1, tuple(0.5 * z for z in one_mode)),  # n = 1: K < 1 term is no term
    ]:
        with pytest.raises(_Streamed):
            run_search(cfg)


@pytest.mark.parametrize("s", [0.0, 1e-3, 0.3, 0.5, 0.81, 0.95, 0.996])
def test_series_term_count_meets_its_tail_bound(s):
    # K is the first count whose relative tail |b_K| s^K / (1 - s)^1.5 is
    # below 2^-53, with b_0 = 1 and b_k = b_{k-1} (k - 3/2) / k.
    coefs = search._series_coefficients(s, 10**6)
    k = len(coefs)
    b = [1.0]
    for j in range(1, k + 1):
        b.append(b[-1] * (j - 1.5) / j)

    def tail(j):
        return abs(b[j]) * s**j / (1.0 - s) ** 1.5

    assert tail(k) < 2.0**-53 <= tail(k - 1)
    assert coefs == pytest.approx([bj * s**j for j, bj in enumerate(b[:k])], rel=1e-12, abs=0)
    assert search._series_coefficients(s, k) == coefs
    assert search._series_coefficients(s, k - 1) is None


@pytest.mark.parametrize("s", [1.0, 1.0 + 1e-12])
def test_series_needs_weights_below_one(s):
    assert search._series_coefficients(s, 10**6) is None


def _series_inputs(seed):
    """(psq, sq) stacks of shape (3, 4, 5) like a run's: |g_i|^2 > 0 and
    squared scaled weights in [0, 1] with each mode's largest exactly 1."""
    rng = np.random.default_rng(seed)
    sq = rng.uniform(0.0, 1.0, (3, 4, 5))
    sq[:, 1, 2] = 1.0
    return rng.uniform(0.2, 1.0, (3, 4, 5)), sq


def _assert_series_powers(psq, sq, n_terms, axes):
    got = search._series_powers(psq, sq, n_terms, axes)
    want = np.array([(psq * sq**j).sum(axis=axes) for j in range(n_terms)])
    assert got.shape == want.shape == (n_terms,) + psq.shape[: axes[0]]
    assert np.all(np.abs(got - want) <= 1e-14 * want)


@pytest.mark.parametrize("axes", [(1, 2), (2,)])
@pytest.mark.parametrize("n_terms", [1, 2, 3, 16, 17, 23, 43])
def test_series_powers_match_naive_sums(axes, n_terms):
    # Term 0 alone, one baby step (B = 1), K - 1 = 2 x 1, 4 x 4 and 7 x 6
    # steps past term 0 (K = 3, 17, 43) and counts that leave the last giant
    # step's baby steps partly unused (K = 16, 23), in one block of giant steps.
    _assert_series_powers(*_series_inputs(n_terms), n_terms, axes)


@pytest.mark.parametrize("axes", [(1, 2), (2,)])
@pytest.mark.parametrize("rows", [1, 2, 3, 6, 8])
def test_series_powers_in_several_giant_blocks(monkeypatch, axes, rows):
    # A buffer of `rows` stacks: B = 1 (sq itself) for rows <= 2, else B
    # capped at rows - 1, so 42 steps past term 0 take 6 to 42 blocks; the
    # buffer stays within the cap (one stack when rows = 1).
    psq, sq = _series_inputs(rows)
    monkeypatch.setattr(search, "_STREAM_CELLS", rows * psq.size)
    _assert_series_powers(psq, sq, 43, axes)
    tracemalloc.start()
    search._series_powers(psq, sq, 43, axes)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    out_bytes = 8 * (43 + rows) * psq[..., 0].size  # at most B - 1 rows past term K - 1
    assert peak <= 8 * rows * psq.size + out_bytes + 2048


@pytest.mark.parametrize("axes", [(1, 2), (2,)])
def test_series_powers_peak_does_not_depend_on_the_term_count(axes):
    # Stacks of the (n, g) = (2, 24) slot: the buffer holds 12 steps of 9216
    # bytes whatever split of K = 13 to 62 into 4 to 8 baby steps and their
    # giant steps, so past the output the peak is the same for every K.
    rng = np.random.default_rng(5)
    psq, sq = rng.uniform(0.2, 1.0, (2, 2, 24, 24))
    search._series_powers(psq, sq, 13, axes)
    rest = []
    for n_terms in (13, 23, 29, 43, 49, 62):
        tracemalloc.start()
        got = search._series_powers(psq, sq, n_terms, axes)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        rest.append(peak - got.base.nbytes)
    assert max(rest) - min(rest) < 1024
    assert max(rest) <= 8 * 12 * psq.size + 2048


@pytest.mark.parametrize("powers", [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2), (2, 0),
                                    (2, 1), (2, 1, 0), (1, 1)])
def test_weight_powers_match_numpy_power(monkeypatch, powers):
    # Per-mode sums of psq x^q, per mode and per theta value, in the order
    # asked, on stacks of 480 bytes, 6 kB and 16 kB.  Each sum is within
    # 1e-13 of the sum of its terms' magnitudes, the scale of the rounding of
    # a sum whose terms change sign.  No einsum of the sums or of a run takes
    # more than three inputs, far below numpy 1.x's limit of 32 operands.
    inputs = []
    einsum = np.einsum

    def counted(subscripts, *operands, **kwargs):
        inputs.append(len(operands))
        return einsum(subscripts, *operands, **kwargs)

    monkeypatch.setattr(np, "einsum", counted)
    rng = np.random.default_rng(len(powers))
    for shape in ((3, 4, 5), (3, 16, 16), (2, 32, 32)):
        scaled = rng.uniform(-1.0, 1.0, shape)
        scaled[:, 0, 0] = 1.0
        psq = rng.uniform(0.2, 1.0, shape)
        for out, axes in (("i", (1, 2)), ("it", (2,))):
            for q, got in zip(powers, search._weight_powers(psq, scaled, powers, out), strict=True):
                want = (psq * scaled**q).sum(axis=axes)
                assert got.shape == want.shape
                assert np.all(np.abs(got - want) <= 1e-13 * (psq * np.abs(scaled) ** q).sum(axis=axes))
    grid = make_grid(2, 8, 8)
    for r, use_dilation in ((0, False), (3, False), (40, False), (1, True), (2, True)):
        run_search(SearchConfig(2, 8, 8, gaussian_envs(2), TargetSpec.bits("10"),
                                zetas=cos_zetas(grid), iterations=r, use_dilation=use_dilation))
    assert max(inputs) <= 3


@pytest.mark.parametrize("build", [run_search, final_state])
def test_interval_run_computes_mode_bits_once(monkeypatch, build):
    # The class index and the per-mode pattern bits come from one mode_bits call.
    calls = []
    mode_bits = TargetSpec.mode_bits

    def counted(self, grid):
        calls.append(grid)
        return mode_bits(self, grid)

    monkeypatch.setattr(TargetSpec, "mode_bits", counted)
    grid = make_grid(3, 4, 3)
    build(SearchConfig(3, 4, 3, gaussian_envs(3), TARGETS["intervals"](3), zetas=cos_zetas(grid),
                       iterations=2))
    assert len(calls) == 1


def test_weights_out_of_range_only_in_pairs_read_like_unit_weights():
    # Constant weights 1e200, 1e200 and 1e-300 give w = 1e100 on every cell,
    # though the first two modes alone multiply to 1e400.
    envs, target = gaussian_envs(3), TargetSpec.bits("101")
    unit = SearchConfig(3, 4, 4, envs, target, iterations=1)
    big = SearchConfig(3, 4, 4, envs, target, zetas=(1e200, 1e200, 1e-300), iterations=1)
    want, got = run_search(unit), run_search(big)
    assert got.norm_constant == pytest.approx(want.norm_constant * 1e200, rel=1e-12)
    for s, v in want.overlaps.items():
        assert abs(got.overlaps[s] - v) <= 1e-14
    assert np.max(np.abs(final_state(big).amp - final_state(unit).amp)) <= 1e-14


@pytest.mark.parametrize("r", [600, 2000])
@pytest.mark.parametrize("use_dilation", [False, True])
def test_long_runs_match_dense_loop(r, use_dilation):
    # Past r = 512 a largest weight scaled into [0.5, 1) would underflow in
    # w^(2r); each mode's largest scaled weight is exactly 1, so no power of
    # it vanishes.  Plain runs keep weights whose largest magnitude is 1 (any
    # smaller one drives the norm below the ZeroNorm floor at this r).
    grid = make_grid(2, 4, 3)
    theta = grid.theta_values()
    cos = np.cos(theta - theta[1])[:, None] * np.ones(3)  # 1 at theta_1
    signed = np.random.default_rng(r).uniform(-0.9, 0.9, (4, 3))
    signed[1, :] = (-1.0, 1.0, -1.0)
    weights = [None, (cos, cos), (signed, signed.T[::-1].reshape(4, 3))]
    if use_dilation:
        weights.append(tuple(0.8 * z for z in cos_zetas(grid, 0.9)))
    for zetas in weights:
        cfg = SearchConfig(2, 4, 3, gaussian_envs(2), TargetSpec.bits("10"), zetas=zetas,
                           iterations=r, use_dilation=use_dilation)
        _assert_matches_dense_loop(cfg)
    unit = SearchConfig(1, 4, 3, gaussian_envs(1), TargetSpec.bits("1"), iterations=r)
    assert run_search(unit).norm_constant == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(final_state(unit).amp) ** 2 * unit.grid.cell_weight == pytest.approx(1.0)


@pytest.mark.parametrize("n, r, bound", [(2, 2000, 1e-14), (4, search.MAX_STEPS, 1e-12)])
def test_unit_weight_runs_keep_norm_one(n, r, bound):
    # The search step's entries 2/N - delta_ij are exact, so the norm of a
    # unit-weight run stays 1; a step multiplied out as -H I0 H drifted by
    # 1.8e-12 at (n, r) = (2, 2000) and by 3.7e-11 at (4, 30000).
    cfg = SearchConfig(n, 2, 2, gaussian_envs(n), TargetSpec.bits("1" * n), iterations=r)
    assert abs(1.0 - run_search(cfg).norm_constant) <= bound


def test_dense_loop_keeps_norm_one():
    # The dense oracle applies the same exact step, so its norm stays that
    # of the list it starts from (1 up to the list's own rounding, 1.1e-14
    # here); it drifted by 1.8e-12 at r = 2000 when the step was multiplied out.
    cfg = SearchConfig(2, 4, 4, gaussian_envs(2), TargetSpec.bits("10"), iterations=2000)
    (norm,), _ = _dense_run(cfg, 2000)
    assert abs(norm / quad_norm(build_list(cfg.envelopes, cfg.grid)) - 1.0) <= 1e-14


@pytest.mark.parametrize("r", [1, 2, 3])
def test_compensating_weights_on_a_dilated_run(r):
    # w = 1 from weights of 1e-300 ... 1e200 on four modes: the ancilla-0
    # branch of an odd run builds w from the scaled weights, so no partial
    # product overflows (a RuntimeWarning is an error here), in either order.
    envs, target = gaussian_envs(4), TargetSpec.bits("1010")
    cfg = SearchConfig(4, 2, 2, envs, target, zetas=(1e-300, 1e200, 1e200, 1e-100),
                       iterations=r, use_dilation=True)
    _assert_matches_dense_loop(cfg)
    swapped = SearchConfig(4, 2, 2, envs, target, zetas=(1e200, 1e200, 1e-300, 1e-100),
                           iterations=r, use_dilation=True)
    want, got = run_search(cfg), run_search(swapped)
    assert got.norm_constant == pytest.approx(1.0, abs=1e-14)
    assert got.ancilla_branch_norms == pytest.approx(want.ancilla_branch_norms, abs=1e-14)
    assert (got.identified, got.branch_identified) == (want.identified, want.branch_identified)


@pytest.mark.parametrize(
    "x, log2_scale",
    [
        (0.0, 10.0), (-0.0, -3.5), (0.75, 0.0),
        (0.75, -1074.0), (0.6, -1060.3), (-0.6, -1070.9),  # subnormal results
        (0.75, -1076.0),  # below the smallest subnormal: 0
        (0.9, 1024.0), (-0.9, 1100.5),  # overflow to +-inf
        (0.5, 1023.7),  # just below overflow
        (0.5, 5000.0), (0.5, -5000.0), (0.5, 4096.0), (0.5, -4096.0),  # the clamps
        (math.inf, -20.0), (3e300, 100.0), (5e-324, 1.0),
    ],
)
def test_scalar_unscaled_matches_array_path(x, log2_scale):
    # math.ldexp of the clamped split, against np.ldexp of the same split: the same bits.
    scalar = search._unscaled(x, log2_scale)
    e = min(max(log2_scale, -4096.0), 4096.0)
    whole = math.floor(e)
    with np.errstate(over="ignore"):
        array = np.ldexp(np.array([x]) * 2.0 ** (e - whole), whole)
    assert isinstance(scalar, float)
    assert np.array([scalar]).tobytes() == array.tobytes()


@st.composite
def _drawn_configs(draw):
    """n <= 3 and g_theta, g_k <= 4; a constant target of one or several
    strings or interval targets; complex tabulated envelopes and weights of
    both signs with |w| <= 1; plain or dilated, r = 0..5."""
    n, gt, gk = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    strings = [format(t, f"0{n}b") for t in range(2**n)]
    kind = draw(st.sampled_from(["constant", "intervals"]))
    if kind == "constant":
        picks = draw(st.lists(st.sampled_from(strings), min_size=1, max_size=2**n - 1, unique=True))
        target = TargetSpec.multi(picks) if len(picks) > 1 else TargetSpec.bits(picks[0])
    else:
        ends = st.tuples(st.floats(0.0, math.pi), st.floats(0.0, math.pi)).map(sorted)
        target = TargetSpec.from_intervals([[tuple(draw(ends))] for _ in range(n)])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tables = rng.uniform(0.2, 1.0, (n, gt, gk)) * np.exp(1j * rng.uniform(0, 7, (n, gt, gk)))
    envs = tuple(EnvelopeSpec.tabulated(t) for t in tables)
    zetas = tuple(rng.uniform(-1.0, 1.0, (n, gt, gk)))
    return SearchConfig(n, gt, gk, envs, target, zetas=zetas, iterations=draw(st.integers(0, 5)),
                        use_dilation=draw(st.booleans()))


@settings(max_examples=60, deadline=None)
@given(_drawn_configs())
def test_drawn_runs_match_dense_loop(cfg):
    # The scalar tail of a run (float sums for one class, overlaps built
    # straight into the dict, the entry-by-entry check) against the dense loop.
    _assert_matches_dense_loop(cfg)
    assert run_search(cfg).per_cell_max_error <= 1e-12


@pytest.mark.parametrize("kind", sorted(TARGETS))
def test_run_check_reads_the_bits_of_the_cell_check(kind):
    cfg = SearchConfig(3, 3, 2, gaussian_envs(3), TARGETS[kind](3), zetas=cos_zetas(make_grid(3, 3, 2)),
                       iterations=2)
    # The run's check is v against the two-value recurrence, entry by entry:
    # both are the bare, real, unit search vector, so nothing is aligned.
    run = search._factored_run(cfg)
    ref = search._recurrence_row(3, run.rows.shape[1], run.r)
    assert run_search(cfg).per_cell_max_error == np.max(np.abs(run.v - ref))


def test_uniform_state_is_built_once_per_register():
    # Like the gates: every run of n qubits starts from one read-only state.
    for n in (1, 2, 3, 4):
        state = search._uniform_state(n)
        assert search._uniform_state(n) is state
        assert not state.amp.flags.writeable
        assert np.array_equal(state.amp.reshape(-1), np.full(2**n, 2.0 ** (-n / 2)))
    cfg = SearchConfig(3, 3, 2, gaussian_envs(3), TARGETS["single"](3), iterations=0)
    v = search._factored_run(cfg).v
    assert not v.flags.writeable
    assert np.shares_memory(v, search._uniform_state(3).amp)
    first = run_search(cfg)
    assert run_search(cfg) == first
    assert np.array_equal(search._uniform_state(3).amp.reshape(-1), np.full(8, 8**-0.5))


def test_per_shape_caches_hold_one_entry_per_grid_shape():
    # No cache depends on a config, envelope or target: runs of different
    # envelopes, weights, targets, iteration counts and dilation on two grids
    # leave one entry per grid shape in each per-shape cache, and two runs of
    # one config give equal reports.
    caches = (search._checked_grid, zak._axis_points)
    for cache in caches:
        cache.cache_clear()
    shapes = [(2, 4, 3), (3, 3, 2)]
    for n, g, gk in shapes:
        grid = make_grid(n, g, gk)
        wide = tuple(EnvelopeSpec.gaussian(1.0, 0.4, 0.9, 0.3) for _ in range(n))
        tabulated = (EnvelopeSpec.tabulated(np.linspace(0.2, 1.0, g * gk).reshape(g, gk)),) * n
        for envelopes in (gaussian_envs(n), wide, tabulated):
            for zetas in (None, cos_zetas(grid)):
                for kind in sorted(TARGETS):
                    for iterations, dilated in ((0, False), (1, True), (3, False), (3, True)):
                        cfg = SearchConfig(n, g, gk, envelopes, TARGETS[kind](n), zetas=zetas,
                                           iterations=iterations, use_dilation=dilated)
                        first = run_search(cfg)
                        assert run_search(cfg) == first
    for cache in caches:
        assert cache.cache_info().currsize == len(shapes)


@pytest.mark.parametrize("n, g, gk, kind", [(2, 4, 3, "single"), (3, 3, 2, "multi"),
                                            (2, 4, 3, "intervals"), (3, 16, 1, "intervals")])
def test_final_state_equals_the_complex_product(n, g, gk, kind):
    # final_state takes Re and Im of the cell coefficients times the real
    # class vectors; with complex and with negative real envelopes that equals
    # the complex product elementwise.  (3, 16, 1) takes several chunks.  The
    # run leaves its scaled weights raised to w~^r.
    rng = np.random.default_rng([n, g, gk])
    complex_tables = rng.uniform(0.2, 1.0, (n, g, gk)) * np.exp(1j * rng.uniform(0, 7, (n, g, gk)))
    negative_tables = rng.uniform(-1.0, -0.2, (n, g, gk)) + 0j
    zetas = tuple(rng.uniform(-1.0, 1.0, (n, g, gk)))
    for tables in (complex_tables, negative_tables):
        envs = tuple(EnvelopeSpec.tabulated(t) for t in tables)
        cfg = SearchConfig(n, g, gk, envs, TARGETS[kind](n), zetas=zetas, iterations=2)
        run = search._factored_run(cfg)
        mode_tables = search._mode_tables(envs, run.grid)
        coef = joint_table([t * w for t, w in zip(mode_tables, run.scaled)])
        coef /= math.sqrt(float(search._unscaled(run.norms[0], -2 * run.r * run.w_log2)))
        vectors = np.full((len(run.rows), 2**n), run.v[-1])
        np.put_along_axis(vectors, run.rows, run.v[0], axis=1)
        index = search.ops.class_index(run.bits, run.rows, run.grid)
        product = coef[:, :, None] * vectors[index][:, None, :]
        assert np.array_equal(final_state(cfg).amp.reshape(product.shape), product)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_search_vector_is_real(n):
    # final_state reads only the real parts of v: the search step's entries
    # are real, so every imaginary part is exactly zero.
    for m in range(1, 2**n):
        for r in range(6):
            assert np.all(search._search_vector(n, m, r).imag == 0)
