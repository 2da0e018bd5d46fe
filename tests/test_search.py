import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mvgrover import (
    AUTO,
    EnvelopeSpec,
    SearchConfig,
    TargetSpec,
    ancilla_branch,
    apply,
    build_list,
    dilation,
    final_state,
    hadamard,
    identify,
    inner,
    iteration_count,
    logical_basis,
    logical_overlaps,
    logical_zero,
    make_grid,
    normalize,
    per_cell_max_error,
    quad_norm,
    reference_qubit_grover,
    run_search,
    sum_over_targets,
    tensor,
    weighted_list,
    with_ancilla,
)
from mvgrover.errors import (
    AmbiguousAssociation,
    BadTargetCount,
    CapacityExceeded,
    DegenerateWeights,
    NoAssociation,
    ShapeMismatch,
)


def gaussian_envs(n, spread=0.0):
    return tuple(
        EnvelopeSpec.gaussian(
            center_theta=math.pi / 2 + spread * i, sigma_theta=math.pi / 4
        )
        for i in range(n)
    )


def cos_zetas(grid, factor=0.5):
    table = np.cos(factor * grid.theta_values())[:, None] * np.ones(grid.g_k)[None, :]
    return (table,) * grid.n_modes


# --- build_list ------------------------------------------------------------


def test_list_overlaps_all_half():
    grid = make_grid(2, 6, 5)
    envs = gaussian_envs(2, spread=0.2)
    lst = build_list(envs, grid)
    assert quad_norm(lst) == pytest.approx(1.0, abs=1e-12)
    for state in logical_basis(envs, grid).values():
        assert inner(state, lst) == pytest.approx(0.5, abs=1e-12)


def test_list_hadamard_involution_returns_zeros():
    grid = make_grid(2, 4, 4)
    envs = gaussian_envs(2)
    lst = build_list(envs, grid)
    back = apply(hadamard(grid), lst)
    zeros = tensor([logical_zero(e, grid) for e in envs])
    assert np.max(np.abs(back.amp - zeros.amp)) < 1e-12


# --- iteration_count --------------------------------------------------------


@pytest.mark.parametrize("n,m,expected", [(2, 1, 1), (3, 1, 2), (1, 1, 1), (4, 1, 3)])
def test_iteration_count_values(n, m, expected):
    assert iteration_count(n, m) == expected


def test_iteration_count_matches_reference_maximum():
    # r = 2 maximizes the n = 3 success probability over r in {1, 2, 3}
    probs = [abs(reference_qubit_grover(3, ["010"], r)[0b010]) ** 2 for r in (1, 2, 3)]
    assert probs.index(max(probs)) + 1 == iteration_count(3, 1)
    # n = 1: probability 1/2 is already maximal at the first application
    p = [abs(reference_qubit_grover(1, ["1"], r)[1]) ** 2 for r in (1, 2, 3)]
    assert p[0] == pytest.approx(max(p), abs=1e-12)


def test_iteration_count_bad_target_count():
    with pytest.raises(BadTargetCount):
        iteration_count(2, 0)
    with pytest.raises(BadTargetCount):
        iteration_count(2, 4)


# --- reference oracle -------------------------------------------------------


def test_reference_single_step_n2_exact():
    for idx, bits in enumerate(["00", "01", "10", "11"]):
        v = reference_qubit_grover(2, [bits], 1)
        expected = np.zeros(4)
        expected[idx] = 1.0
        assert_allclose(v, expected, atol=1e-15)


def test_reference_zero_rounds_is_uniform():
    v = reference_qubit_grover(3, ["000"], 0)
    assert_allclose(v, np.full(8, 1 / math.sqrt(8)), atol=0)


def test_reference_n3_two_rounds_regression():
    # frozen from this oracle; exact value is 121/128
    v = reference_qubit_grover(3, ["110"], 2)
    assert abs(v[0b110]) ** 2 == pytest.approx(0.9453125, abs=1e-12)


def test_reference_capacity():
    with pytest.raises(CapacityExceeded):
        reference_qubit_grover(13, ["0" * 13], 1)


# --- identify ---------------------------------------------------------------


def test_identify_unique():
    assert identify({"00": 0.0, "01": 0.0, "10": 0.93, "11": 0.0}) == "10"


def test_identify_no_association():
    with pytest.raises(NoAssociation):
        identify({"00": 0.0, "01": 0.0})


def test_identify_ambiguous():
    with pytest.raises(AmbiguousAssociation):
        identify({"00": 0.5, "01": 0.0, "10": 0.0, "11": 0.5})


# --- run_search -------------------------------------------------------------


def test_run_search_unit_weights_exact():
    cfg = SearchConfig(2, 8, 8, gaussian_envs(2, 0.1), TargetSpec.bits("10"))
    report = run_search(cfg)
    assert report.identified == "10"
    assert report.iterations_used == 1
    assert abs(report.overlaps["10"]) == pytest.approx(1.0, abs=1e-10)
    assert report.norm_constant == pytest.approx(1.0, abs=1e-10)
    for s in ("00", "01", "11"):
        assert abs(report.overlaps[s]) < 1e-10
    assert report.failure is None
    assert report.per_cell_max_error < 1e-12


def test_run_search_weighted_overlap_closed_form():
    grid = make_grid(2, 8, 6)
    envs = gaussian_envs(2, 0.15)
    zetas = cos_zetas(grid)
    cfg = SearchConfig(2, 8, 6, envs, TargetSpec.bits("01"), zetas=zetas)
    report = run_search(cfg)
    assert report.identified == "01"
    for s in ("00", "10", "11"):
        assert abs(report.overlaps[s]) < 1e-10
    # quadrature oracle for the target overlap
    g1 = envs[0].table_for(grid.single_mode())
    g2 = envs[1].table_for(grid.single_mode())
    cw = (grid.d_theta * grid.d_k) ** 2
    overlap = 0.0
    norm_const = 0.0
    for j1 in range(8):
        for j2 in range(8):
            for m1 in range(6):
                for m2 in range(6):
                    gg = abs(g1[j1, m1] * g2[j2, m2]) ** 2
                    w = zetas[0][j1, m1] * zetas[1][j2, m2]
                    overlap += gg * w * cw
                    norm_const += gg * w**2 * cw
    assert report.norm_constant == pytest.approx(norm_const, abs=1e-12)
    assert abs(report.overlaps["01"]) == pytest.approx(
        overlap / math.sqrt(norm_const), abs=1e-10
    )


def test_run_search_n3_matches_reference_probability():
    cfg = SearchConfig(3, 4, 4, gaussian_envs(3, 0.1), TargetSpec.bits("011"))
    report = run_search(cfg)
    assert report.iterations_used == 2
    ref = reference_qubit_grover(3, ["011"], 2)
    assert abs(report.overlaps["011"]) ** 2 == pytest.approx(
        abs(ref[0b011]) ** 2, abs=1e-10
    )
    assert report.per_cell_max_error < 1e-12
    # the eight-element search is not exact at r = 2: every basis state keeps
    # a residual overlap (the reference amplitude 1/(4 sqrt 8)), so the
    # strict non-orthogonality rule reports ambiguity rather than guessing
    assert report.identified is None
    assert report.failure == "ambiguous-association"
    residual = 1.0 / (4.0 * math.sqrt(8.0))
    assert abs(report.overlaps["000"]) == pytest.approx(residual, abs=1e-10)


def test_run_search_envelope_independence():
    for spread in (0.0, 0.2, 0.4):
        cfg = SearchConfig(
            2,
            6,
            6,
            gaussian_envs(2, spread),
            TargetSpec.bits("11"),
            zetas=cos_zetas(make_grid(2, 6, 6)),
        )
        assert run_search(cfg).identified == "11"


def test_run_search_degenerate_weights():
    grid = make_grid(2, 4, 4)
    zero = (np.zeros((4, 4)), np.zeros((4, 4)))
    cfg = SearchConfig(2, 4, 4, gaussian_envs(2), TargetSpec.bits("00"), zetas=zero)
    with pytest.raises(DegenerateWeights):
        run_search(cfg)


def test_run_search_multi_target_readout():
    # N = 8, M = 2: one application lands exactly on the target pair
    cfg = SearchConfig(
        3, 4, 4, gaussian_envs(3), TargetSpec.multi(["010", "101"]), iterations=AUTO
    )
    report = run_search(cfg)
    assert report.iterations_used == 1
    assert report.identified == ("010", "101")
    assert abs(report.overlaps["010"]) == pytest.approx(1 / math.sqrt(2), abs=1e-10)
    assert abs(report.overlaps["101"]) == pytest.approx(1 / math.sqrt(2), abs=1e-10)
    for s, v in report.overlaps.items():
        if s not in ("010", "101"):
            assert abs(v) < 1e-10


def test_run_search_extended_target_per_cell_correct_but_ambiguous():
    # the searched string varies across theta cells, so no single logical
    # state matches, but every cell still runs its own exact search
    grid = make_grid(2, 6, 4)
    spec = TargetSpec.from_intervals([((0.0, math.pi / 2),), ()])
    cfg = SearchConfig(2, 6, 4, gaussian_envs(2), spec)
    report = run_search(cfg)
    assert report.identified is None
    assert report.failure == "ambiguous-association"
    assert report.per_cell_max_error < 1e-12


def test_run_search_dilation_consistency():
    grid = make_grid(2, 6, 5)
    cfg = SearchConfig(
        2,
        6,
        5,
        gaussian_envs(2, 0.1),
        TargetSpec.bits("10"),
        zetas=cos_zetas(grid),
        use_dilation=True,
    )
    report = run_search(cfg)
    assert report.identified == "10"
    assert report.branch_identified == ("10", "10")
    assert sum(report.ancilla_branch_norms) == pytest.approx(1.0, abs=1e-10)
    assert report.norm_constant == pytest.approx(1.0, abs=1e-10)


def test_run_search_overlap_budget():
    cfg = SearchConfig(
        2, 6, 6, gaussian_envs(2), TargetSpec.bits("01"), zetas=cos_zetas(make_grid(2, 6, 6))
    )
    report = run_search(cfg)
    assert sum(abs(v) ** 2 for v in report.overlaps.values()) <= 1.0 + 1e-10


# --- logical_overlaps agrees with the materialized basis ---------------------


def test_logical_overlaps_match_inner_products():
    grid = make_grid(2, 5, 4)
    envs = gaussian_envs(2, 0.3)
    cfg = SearchConfig(2, 5, 4, envs, TargetSpec.bits("00"), zetas=cos_zetas(grid))
    state = final_state(cfg)
    sliced = logical_overlaps(envs, state)
    basis = logical_basis(envs, grid)
    for s, b in basis.items():
        assert sliced[s] == pytest.approx(inner(b, state), abs=1e-13)


# --- sum over targets --------------------------------------------------------


def test_sum_over_targets_unit_weights():
    grid = make_grid(2, 5, 4)
    envs = gaussian_envs(2, 0.2)
    cfg = SearchConfig(2, 5, 4, envs, TargetSpec.bits("00"))
    total = sum_over_targets(cfg)
    expected = weighted_list(envs, None, grid)
    assert np.max(np.abs(total.amp - expected.amp)) < 1e-12
    # sanity: with unit weights the sum is 2**(n/2) times the plain list
    lst = build_list(envs, grid)
    assert np.max(np.abs(total.amp - 2.0 * lst.amp)) < 1e-12


def test_sum_over_targets_single_cell_qubit_identity():
    grid = make_grid(2, 1, 1)
    envs = (EnvelopeSpec.constant(), EnvelopeSpec.constant())
    cfg = SearchConfig(2, 1, 1, envs, TargetSpec.bits("00"))
    total = sum_over_targets(cfg)
    uniform = build_list(envs, grid)
    assert_allclose(total.amp, 2.0 * uniform.amp, atol=1e-14)


def test_sum_over_targets_weighted_elementwise():
    grid = make_grid(2, 6, 5)
    envs = gaussian_envs(2, 0.25)
    zetas = cos_zetas(grid)
    cfg = SearchConfig(2, 6, 5, envs, TargetSpec.bits("01"), zetas=zetas)
    total = sum_over_targets(cfg)
    # direct construction oracle: w * g1 * g2 on every band string
    g1 = envs[0].table_for(grid.single_mode())
    g2 = envs[1].table_for(grid.single_mode())
    expected = np.zeros(grid.cell_shape + grid.band_shape, dtype=complex)
    for j1 in range(6):
        for j2 in range(6):
            for m1 in range(5):
                for m2 in range(5):
                    w = zetas[0][j1, m1] * zetas[1][j2, m2]
                    expected[j1, j2, m1, m2, :, :] = w * g1[j1, m1] * g2[j2, m2]
    assert np.max(np.abs(total.amp - expected)) < 1e-12


def test_sum_over_targets_requires_two_modes():
    cfg = SearchConfig(1, 4, 4, gaussian_envs(1), TargetSpec.bits("0"))
    with pytest.raises(BadTargetCount):
        sum_over_targets(cfg)


# --- dilated runs against the explicit dilation ------------------------------


def _explicit_dilated_run(cfg, r):
    """Readout of r applications of dilation() on the list with ancilla 0."""
    grid = cfg.grid
    u = dilation(cfg.target, cfg.zetas, grid)
    state = with_ancilla(build_list(cfg.envelopes, grid), 0)
    for _ in range(r):
        state = apply(u, state)
    branches = [ancilla_branch(state, a) for a in (0, 1)]
    norms = [quad_norm(b) for b in branches]
    multi = cfg.target.is_constant and cfg.target.n_targets > 1
    hits, per_branch, failure = [], [], None
    for branch, nrm in zip(branches, norms):
        if nrm <= 1e-20:
            per_branch.append(None)
            continue
        ov = logical_overlaps(cfg.envelopes, normalize(branch))
        found = tuple(sorted(s for s, v in ov.items() if abs(v) > 1e-8))
        if multi:
            hit = found or None
        else:
            hit = found[0] if len(found) == 1 else None
        if hit is None:
            failure = failure or ("ambiguous-association" if found else "no-association")
        per_branch.append(hit if isinstance(hit, str) else None)
        if hit is not None:
            hits.append(hit)
    if not hits:
        identified, failure = None, failure or "no-association"
    elif all(h == hits[0] for h in hits):
        identified = hits[0]
    else:
        identified, failure = None, "ambiguous-association"
    dominant = normalize(branches[int(norms[1] >= norms[0])])
    return {
        "norm_constant": quad_norm(state),
        "branch_norms": norms,
        "overlaps": logical_overlaps(cfg.envelopes, dominant),
        "identified": identified,
        "branch_identified": tuple(per_branch),
        "failure": failure,
    }


@pytest.mark.parametrize("n, g", [(2, 4), (3, 3)])
@pytest.mark.parametrize("kind", ["single", "multi", "intervals"])
def test_dilated_run_matches_explicit_dilation(n, g, kind):
    rng = np.random.default_rng(10 * n + len(kind))
    target = {
        "single": TargetSpec.bits("1" * n),
        "multi": TargetSpec.multi(["0" * n, "1" + "0" * (n - 1)]),
        "intervals": TargetSpec.from_intervals([[(0.5, 2.0)]] * n),
    }[kind]
    for r in range(5):
        zetas = tuple(rng.uniform(-1.0, 1.0, (g, g)) for _ in range(n))
        envs = tuple(EnvelopeSpec.tabulated(rng.uniform(0.2, 1.0, (g, g))) for _ in range(n))
        cfg = SearchConfig(n, g, g, envs, target, zetas=zetas, iterations=r, use_dilation=True)
        report = run_search(cfg)
        expected = _explicit_dilated_run(cfg, r)
        assert report.iterations_used == r
        assert report.identified == expected["identified"]
        assert report.branch_identified == expected["branch_identified"]
        assert report.failure == expected["failure"]
        assert report.norm_constant == pytest.approx(expected["norm_constant"], abs=1e-12)
        assert_allclose(report.ancilla_branch_norms, expected["branch_norms"], rtol=0, atol=1e-12)
        for s, v in expected["overlaps"].items():
            assert abs(report.overlaps[s] - v) <= 1e-12
        assert report.per_cell_max_error < 1e-12


# --- per-cell check up to each cell's phase ----------------------------------


def test_per_cell_check_complex_envelope():
    rng = np.random.default_rng(3)
    table = rng.uniform(0.2, 1.0, (6, 6)) * np.exp(1j * rng.uniform(0, 2 * math.pi, (6, 6)))
    envs = (EnvelopeSpec.tabulated(table), EnvelopeSpec.gaussian())
    report = run_search(SearchConfig(2, 6, 6, envs, TargetSpec.bits("01")))
    assert report.identified == "01"
    assert report.per_cell_max_error <= 1e-12


@pytest.mark.parametrize("use_dilation", [False, True])
def test_per_cell_check_negative_weights(use_dilation):
    grid = make_grid(2, 8, 4)
    zetas = cos_zetas(grid, factor=1.0)  # negative for theta > pi/2
    cfg = SearchConfig(
        2, 8, 4, gaussian_envs(2), TargetSpec.bits("11"),
        zetas=zetas, iterations=1, use_dilation=use_dilation,
    )
    assert run_search(cfg).per_cell_max_error <= 1e-12


def test_per_cell_check_wrong_target_reads_one():
    cfg = SearchConfig(2, 4, 4, gaussian_envs(2), TargetSpec.bits("10"))
    state = final_state(cfg)
    assert per_cell_max_error(state, TargetSpec.bits("10"), 1) <= 1e-12
    assert per_cell_max_error(state, TargetSpec.bits("01"), 1) == pytest.approx(1.0, abs=1e-12)


# --- envelope count -----------------------------------------------------------


@pytest.mark.parametrize("count", [1, 3])
def test_wrong_envelope_count_is_rejected(count):
    grid = make_grid(2, 4, 4)
    state = build_list(gaussian_envs(2), grid)
    with pytest.raises(ShapeMismatch):
        logical_overlaps(gaussian_envs(count), state)
    for build in (build_list, logical_basis):
        with pytest.raises(ShapeMismatch):
            build(gaussian_envs(count), grid)
    with pytest.raises(ShapeMismatch):
        weighted_list(gaussian_envs(count), None, grid)
    with pytest.raises(ShapeMismatch):
        run_search(SearchConfig(2, 4, 4, gaussian_envs(count), TargetSpec.bits("10")))
