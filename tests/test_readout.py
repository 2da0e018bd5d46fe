"""run_search's readout from the unnormalized final state: values and memory."""

import math
import tracemalloc

import numpy as np
import pytest

import mvgrover.search as search
from mvgrover import (
    EnvelopeSpec,
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
from mvgrover.errors import WeightOutOfRange, ZeroNorm

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


def test_dilated_tie_reads_ancilla_one():
    # Two cells with w = (-1, 0): the branches (w' psi, w psi) carry one cell
    # each, with equal norms and opposite overlaps.
    grid = make_grid(1, 2, 1)
    envs = (EnvelopeSpec.tabulated(np.array([[1.0], [1.0j]])),)
    zetas = (np.array([[-1.0], [0.0]]),)
    cfg = SearchConfig(1, 2, 1, envs, TargetSpec.bits("1"), zetas=zetas, use_dilation=True)
    report = run_search(cfg)
    assert report.ancilla_branch_norms[0] == report.ancilla_branch_norms[1] > 0
    state = apply(dilation(cfg.target, zetas, grid), with_ancilla(build_list(envs, grid), 0))
    branch_zero, branch_one = (
        logical_overlaps(envs, normalize(ancilla_branch(state, a))) for a in (0, 1)
    )
    assert branch_one["1"] == pytest.approx(-branch_zero["1"], abs=1e-12)
    assert abs(branch_one["1"]) == pytest.approx(0.5, abs=1e-12)
    for s, v in branch_one.items():
        assert abs(report.overlaps[s] - v) <= 1e-13


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


@pytest.mark.parametrize("low, checked", [(1.0, [("0",), ("1",)]), (1e-250, [("1",)])])
def test_per_cell_check_skips_classes_below_floor(monkeypatch, low, checked):
    # theta = pi/4 searches "1", theta = 3pi/4 searches "0"; the envelope
    # puts `low` on the second cell.
    calls = []
    reference_rows = search._reference_rows

    def spy(n, rows, r):
        calls.extend(tuple(format(t, f"0{n}b") for t in row) for row in rows)
        return reference_rows(n, rows, r)

    monkeypatch.setattr(search, "_reference_rows", spy)
    envs = (EnvelopeSpec.tabulated(np.array([[1.0], [low]])),)
    cfg = SearchConfig(1, 2, 1, envs, TargetSpec.from_intervals([[(0.0, 1.0)]]))
    report = run_search(cfg)
    assert sorted(calls) == checked
    assert report.per_cell_max_error <= 1e-12


@pytest.mark.parametrize("n, r", [(1, 1), (2, 3), (3, 2), (4, 5)])
def test_interval_class_vectors_match_reference(n, r):
    # Interval classes search one string each; all but the first are
    # relabelings of the first class's search.
    rows = np.arange(2**n)[::-1, None]
    vectors = search._class_vectors(n, rows, r)
    for row, v in zip(rows, vectors):
        ref = reference_qubit_grover(n, [format(int(row[0]), f"0{n}b")], r)
        assert np.max(np.abs(v - ref)) <= 1e-14


def test_interval_run_builds_one_class_operator(monkeypatch):
    # 16 target classes, one grover_cell and r apply calls on the one-cell grid.
    calls = []
    grover_cell, apply_op = search.ops.grover_cell, search.ops.apply

    def count(fn, name):
        def wrapped(*args):
            calls.append(name)
            return fn(*args)
        return wrapped

    monkeypatch.setattr(search.ops, "grover_cell", count(grover_cell, "grover_cell"))
    monkeypatch.setattr(search.ops, "apply", count(apply_op, "apply"))
    target = TargetSpec.from_intervals([[(0.0, 1.5)]] * 4)
    cfg = SearchConfig(4, 2, 1, gaussian_envs(4), target, iterations=2)
    assert len(search._target_classes(target, cfg.grid)[1]) == 16
    report = run_search(cfg)
    assert calls == ["grover_cell", "apply", "apply"]
    assert report.per_cell_max_error <= 1e-12
