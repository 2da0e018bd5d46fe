import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from mvgrover import (
    EnvelopeSpec,
    GlobalOperator,
    JointState,
    TargetSpec,
    ancilla_branch,
    apply,
    build_list,
    compose,
    dilation,
    gamma,
    grover_cell,
    grover_weighted,
    hadamard,
    identity,
    inner,
    inversion_about_zero,
    joint_weight,
    logical_basis,
    logical_one,
    logical_zero,
    make_grid,
    normalize,
    oracle,
    pauli,
    quad_norm,
    reference_qubit_grover,
    tensor,
    with_ancilla,
)
from mvgrover.errors import (
    AncillaMismatch,
    BadMode,
    DuplicateTarget,
    GridMismatch,
    NonRealWeight,
    ShapeMismatch,
    WeightOutOfRange,
)


def random_joint(grid, rng):
    shape = grid.cell_shape + grid.band_shape
    amp = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return normalize(JointState(grid, amp))


def cell_state(grid, cell, band):
    """Unit state supported on one joint cell (full theta+k index) and band."""
    amp = np.zeros(grid.cell_shape + grid.band_shape, dtype=complex)
    amp[tuple(cell) + tuple(band)] = 1.0
    return JointState(grid, amp)


# --- pauli -----------------------------------------------------------------


def test_pauli_z_action_on_bands():
    grid = make_grid(1, 3, 3)
    z = pauli("z", 0, grid)
    band0 = cell_state(grid, (1, 2), (0,))
    band1 = cell_state(grid, (1, 2), (1,))
    assert_allclose(apply(z, band0).amp, band0.amp, atol=0)
    assert_allclose(apply(z, band1).amp, -band1.amp, atol=0)


def test_pauli_x_swaps_logical_states():
    grid = make_grid(1, 5, 4)
    env = EnvelopeSpec.gaussian()
    x = pauli("x", 0, grid)
    swapped = apply(x, tensor([logical_zero(env, grid)]))
    assert_allclose(swapped.amp, tensor([logical_one(env, grid)]).amp, atol=0)


def test_pauli_xyz_product_is_i_identity():
    grid = make_grid(1, 2, 2)
    prod = compose(pauli("x", 0, grid), pauli("y", 0, grid), pauli("z", 0, grid))
    assert np.max(np.abs(prod.mats - 1j * np.eye(2))) < 1e-15


def test_pauli_bad_mode():
    grid = make_grid(2, 2, 2)
    with pytest.raises(BadMode):
        pauli("x", 2, grid)


# --- gamma -----------------------------------------------------------------


def test_gamma_unit_weight_is_involution():
    grid = make_grid(1, 4, 3)
    g = gamma("x", 0, 1.0, grid)
    psi = random_joint(grid, np.random.default_rng(2))
    assert np.max(np.abs(apply(g, apply(g, psi)).amp - psi.amp)) < 1e-12


def test_gamma_cosine_eigenvalue_on_single_cell():
    grid = make_grid(1, 8, 4)
    theta = grid.theta_values()
    zeta = np.cos(theta)[:, None] * np.ones(grid.g_k)[None, :]
    g = gamma("z", 0, zeta, grid)
    j, m = 5, 1
    psi = cell_state(grid, (j, m), (0,))
    out = apply(g, psi)
    assert out.amp[j, m, 0] == pytest.approx(math.cos(theta[j]), abs=1e-14)
    # single-cell diagonalization oracle: the weighted 2x2 block has
    # eigenvalues +/- cos(theta_j)
    block = g.weight_at(j, m) * g.mat_at(j, m)
    eig = np.sort_complex(np.linalg.eigvals(block))
    expected = sorted([math.cos(theta[j]), -math.cos(theta[j])])
    assert_allclose(eig, expected, atol=1e-13)


def test_gamma_x_maps_logical_zero_to_one():
    grid = make_grid(1, 4, 4)
    env = EnvelopeSpec.gaussian(sigma_theta=0.5)
    out = apply(gamma("x", 0, None, grid), tensor([logical_zero(env, grid)]))
    assert_allclose(out.amp, tensor([logical_one(env, grid)]).amp, atol=0)


def test_gamma_rejects_complex_weight():
    grid = make_grid(1, 3, 3)
    with pytest.raises(NonRealWeight):
        gamma("z", 0, np.full((3, 3), 1j), grid)


# --- hadamard --------------------------------------------------------------


def test_hadamard_band_action():
    grid = make_grid(1, 3, 3)
    h = hadamard(grid)
    plus = apply(h, cell_state(grid, (0, 0), (0,)))
    minus = apply(h, cell_state(grid, (0, 0), (1,)))
    s = 1 / math.sqrt(2)
    assert_allclose(plus.amp[0, 0], [s, s], atol=1e-15)
    assert_allclose(minus.amp[0, 0], [s, -s], atol=1e-15)


def test_hadamard_involution():
    grid = make_grid(2, 4, 3)
    psi = random_joint(grid, np.random.default_rng(3))
    h = hadamard(grid)
    assert np.max(np.abs(apply(h, apply(h, psi)).amp - psi.amp)) < 1e-12


# --- oracle ----------------------------------------------------------------


def test_oracle_constant_target_matrix():
    grid = make_grid(2, 3, 3)
    op = oracle(TargetSpec.bits("00"), grid)
    assert_allclose(op.mat_at(0, 0, 0, 0), np.diag([-1, 1, 1, 1]), atol=0)


def test_oracle_leaves_untargeted_support_alone():
    grid = make_grid(2, 3, 3)
    op = oracle(TargetSpec.bits("00"), grid)
    psi = cell_state(grid, (1, 0, 2, 1), (0, 1))
    assert_allclose(apply(op, psi).amp, psi.amp, atol=0)


def test_oracle_extended_mode_cell_by_cell():
    grid = make_grid(2, 6, 2)
    spec = TargetSpec.from_intervals([((0.0, math.pi / 2),), ()])
    op = oracle(spec, grid)
    theta = grid.theta_values()
    for j1 in range(6):
        for j2 in range(6):
            expected = np.eye(4, dtype=complex)
            flipped = 0b10 if theta[j1] < math.pi / 2 else 0b00
            expected[flipped, flipped] = -1.0
            assert_allclose(op.mat_at(j1, j2, 0, 0), expected, atol=0)
            assert_allclose(op.mat_at(j1, j2, 1, 1), expected, atol=0)


def _loop_mode_bits(spec, grid):
    """The per-interval loop: bit |= lo <= theta < hi, interval by interval."""
    theta = grid.theta_values()
    bits = np.zeros((len(spec.intervals), grid.g_theta), dtype=np.intp)
    for bit, mode_set in zip(bits, spec.intervals):
        for lo, hi in mode_set:
            bit |= (theta >= lo) & (theta < hi)
    return bits


@pytest.mark.parametrize("seed", range(6))
def test_mode_bits_match_interval_loop(seed):
    # Random sets of 0-4 intervals per mode, with empty intervals (lo == hi),
    # touching ones (one's hi is the next's lo) and ends on a theta midpoint,
    # where [lo, hi) is half open.
    rng = np.random.default_rng(seed)
    for n in (1, 2, 3, 4):
        for g in (1, 2, 5, 8):
            grid = make_grid(n, g, 1)
            theta = grid.theta_values()
            sets = []
            for _ in range(n):
                ends = np.sort(np.concatenate([rng.uniform(0.0, math.pi, 4), rng.choice(theta, 2)]))
                picks = [(ends[i], ends[i + 1]) for i in range(0, 6, 2)]
                picks += [(ends[1], ends[1]), (ends[2], ends[3]), (0.0, 0.0), (theta[0], math.pi)]
                sets.append([picks[i] for i in rng.permutation(len(picks))[: rng.integers(0, 5)]])
            spec = TargetSpec.from_intervals(sets)
            got = spec.mode_bits(grid)
            assert got.dtype == np.intp
            np.testing.assert_array_equal(got, _loop_mode_bits(spec, grid))


def test_oracle_multi_target_and_duplicates():
    grid = make_grid(2, 2, 2)
    op = oracle(TargetSpec.multi(["00", "11"]), grid)
    assert_allclose(op.mat_at(0, 0, 0, 0), np.diag([-1, 1, 1, -1]), atol=0)
    with pytest.raises(DuplicateTarget):
        TargetSpec.multi(["01", "01"])


# --- inversion about zero ---------------------------------------------------


def test_inversion_about_zero_matrix_and_square():
    grid1 = make_grid(1, 2, 2)
    op = inversion_about_zero(grid1)
    assert_allclose(op.mat_at(0, 0), np.diag([-1, 1]), atol=0)
    grid3 = make_grid(3, 2, 2)
    op3 = inversion_about_zero(grid3)
    sq = compose(op3, op3)
    assert_allclose(np.broadcast_to(sq.mats, (8, 8)), np.eye(8), atol=0)


def test_hadamard_conjugation_of_inversion_is_uniform_reflection():
    # H I0 H = 1 - 2|uniform><uniform| per cell, the minus sign of the
    # search step sits outside this product
    for n in (1, 2):
        grid = make_grid(n, 3, 2)
        d = 2**n
        h = hadamard(grid)
        product = compose(h, inversion_about_zero(grid), h)
        uniform = np.full((d, d), 1.0 / d)
        assert np.max(np.abs(product.mats - (np.eye(d) - 2 * uniform))) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_gates_are_built_once_per_register(n):
    # H, I0 and the diffusion depend on n alone: grids of n modes share one
    # read-only copy of each, built from its exact entries.
    grid, other = make_grid(n, 4, 3), make_grid(n, 2, 5)
    for build in (hadamard, inversion_about_zero):
        assert build(grid).mats is build(other).mats
        assert not build(grid).mats.flags.writeable
    d = 2**n
    # H[i, j] = (-1)^popcount(i & j) 2^(-n/2): exact for even n, and for odd
    # n the one rounding of 2^(-n/2) times a sign.
    parity = np.array([[bin(i & j).count("1") % 2 for j in range(d)] for i in range(d)])
    assert np.array_equal(hadamard(grid).mats, (1 - 2 * parity) * 2.0 ** (-n / 2))
    i0 = np.eye(d)
    i0[0, 0] = -1.0
    assert np.array_equal(inversion_about_zero(grid).mats, i0)
    # -H I0 H = 2/N - delta_ij, and the search step is its columns signed by
    # the oracle's diagonal.
    diffusion = np.full((d, d), 2.0 / d) - np.eye(d)
    for spec in (TargetSpec.bits("1" * n), TargetSpec.from_intervals([[(0.5, 2.0)]] * n)):
        signs = np.einsum("...ii->...i", oracle(spec, grid).mats)
        assert np.array_equal(grover_cell(spec, grid).mats, signs[..., None, :] * diffusion)


@pytest.mark.parametrize("axes", [(), (1,), (3,), (1, 1), (4, 1), (1, 3), (4, 3), (4,), (2, 3),
                                  (4, 2), (1, 4, 3), (1, 1, 1), (4, 3, 1)])
def test_global_operator_cell_axes_broadcast_to_the_cell_shape(axes):
    grid = make_grid(1, 4, 3)
    try:
        ok = np.broadcast_shapes(axes, grid.cell_shape) == grid.cell_shape
    except ValueError:
        ok = False
    mats = np.broadcast_to(np.eye(2), axes + (2, 2))
    for build in (lambda: GlobalOperator(grid, mats), lambda: identity(grid).with_weight(np.ones(axes))):
        if ok:
            build()
        else:
            with pytest.raises(ShapeMismatch):
                build()


# --- grover_cell -----------------------------------------------------------


def test_grover_single_step_lands_on_target():
    grid = make_grid(2, 4, 4)
    for idx, bits in enumerate(["00", "01", "10", "11"]):
        op = grover_cell(TargetSpec.bits(bits), grid)
        uniform = np.full(4, 0.5)
        out = op.mat_at(0, 0, 0, 0) @ uniform
        expected = np.zeros(4)
        expected[idx] = 1.0
        assert_allclose(out, expected, atol=1e-15)


def test_grover_unitary_per_cell():
    grid = make_grid(2, 4, 3)
    spec = TargetSpec.from_intervals([((0.0, 1.0),), ((0.5, math.pi),)])
    for op in (grover_cell(TargetSpec.bits("10"), grid), grover_cell(spec, grid)):
        gram = np.einsum("...ji,...jk->...ik", op.mats.conj(), op.mats)
        assert np.max(np.abs(gram - np.eye(4))) < 1e-12


def test_grover_two_steps_match_reference_probability():
    grid = make_grid(3, 2, 2)
    op = grover_cell(TargetSpec.bits("101"), grid)
    mat = op.mat_at(0, 0, 0, 0, 0, 0)
    state = np.full(8, 1 / math.sqrt(8))
    state = mat @ (mat @ state)
    ref = reference_qubit_grover(3, ["101"], 2)
    assert np.max(np.abs(state - ref)) < 1e-12
    assert abs(state[0b101]) ** 2 == pytest.approx(0.9453125, abs=1e-12)


def test_grover_identity_matches_projector_route():
    # -H I0 H Is equals (2|PsiL><PsiL| - 1) Is built independently
    for n in (1, 2, 3):
        grid = make_grid(n, 3, 2)
        d = 2**n
        u = np.full(d, 1 / math.sqrt(d))
        diffusion = 2 * np.outer(u, u) - np.eye(d)
        for idx in range(d):
            spec = TargetSpec.bits(format(idx, f"0{n}b"))
            direct = diffusion @ oracle(spec, grid).mats
            assert np.max(np.abs(grover_cell(spec, grid).mats - direct)) < 1e-12


def test_grover_cell_locality():
    # a state on one joint cell stays on that cell exactly
    grid = make_grid(2, 5, 4)
    op = grover_cell(TargetSpec.bits("01"), grid)
    cell = (2, 4, 3, 1)
    psi = cell_state(grid, cell, (1, 1))
    out = apply(op, psi).amp
    per_cell_mass = np.abs(out).sum(axis=(-2, -1))
    assert per_cell_mass[cell] > 0
    per_cell_mass[cell] = 0.0
    assert not per_cell_mass.any()


# --- grover_weighted --------------------------------------------------------


def test_weighted_with_unit_zetas_matches_plain():
    grid = make_grid(2, 4, 3)
    psi = random_joint(grid, np.random.default_rng(5))
    plain = apply(grover_cell(TargetSpec.bits("11"), grid), psi)
    weighted = apply(grover_weighted(TargetSpec.bits("11"), None, grid), psi)
    assert_allclose(weighted.amp, plain.amp, atol=0)
    assert quad_norm(weighted) == pytest.approx(quad_norm(psi), abs=1e-12)


def test_weighted_norm_matches_quadrature_oracle():
    grid = make_grid(2, 5, 4)
    envs = (EnvelopeSpec.gaussian(), EnvelopeSpec.gaussian(center_theta=1.0))
    theta = grid.theta_values()
    z1 = np.cos(theta / 2)[:, None] * np.ones(grid.g_k)[None, :]
    z2 = np.sin(theta / 2 + 0.3)[:, None] * np.ones(grid.g_k)[None, :]
    op = grover_weighted(TargetSpec.bits("10"), (z1, z2), grid)
    final = apply(op, build_list(envs, grid))
    # direct quadrature: N = sum |g1 g2|^2 w^2 (dtheta dk)^2
    g1 = envs[0].table_for(grid.single_mode())
    g2 = envs[1].table_for(grid.single_mode())
    total = 0.0
    for j1 in range(5):
        for j2 in range(5):
            for m1 in range(4):
                for m2 in range(4):
                    w = z1[j1, m1] * z2[j2, m2]
                    total += abs(g1[j1, m1] * g2[j2, m2]) ** 2 * w**2
    total *= (grid.d_theta * grid.d_k) ** 2
    assert quad_norm(final) == pytest.approx(total, abs=1e-12)


def test_weighted_zero_region_kills_amplitude():
    grid = make_grid(1, 4, 4)
    zeta = np.ones((4, 4))
    zeta[:2] = 0.0
    op = grover_weighted(TargetSpec.bits("0"), (zeta,), grid)
    psi = random_joint(grid, np.random.default_rng(6))
    out = apply(op, psi)
    assert not out.amp[:2].any()
    assert out.amp[2:].any()


def test_weighted_final_matches_closed_form():
    # one application on the list: amplitude w * g1 * g2 on the target band
    grid = make_grid(2, 4, 5)
    envs = (EnvelopeSpec.gaussian(), EnvelopeSpec.constant())
    theta = grid.theta_values()
    z = np.cos(theta / 2)[:, None] * np.ones(grid.g_k)[None, :]
    op = grover_weighted(TargetSpec.bits("01"), (z, z), grid)
    final = apply(op, build_list(envs, grid))
    g1 = envs[0].table_for(grid.single_mode())
    g2 = envs[1].table_for(grid.single_mode())
    expected = np.zeros(grid.cell_shape + grid.band_shape, dtype=complex)
    for j1 in range(4):
        for j2 in range(4):
            for m1 in range(5):
                for m2 in range(5):
                    expected[j1, j2, m1, m2, 0, 1] = (
                        z[j1, m1] * z[j2, m2] * g1[j1, m1] * g2[j2, m2]
                    )
    assert np.max(np.abs(final.amp - expected)) < 1e-12


def test_weighted_rejects_complex_tables():
    grid = make_grid(2, 3, 3)
    with pytest.raises(NonRealWeight):
        grover_weighted(TargetSpec.bits("00"), (np.ones((3, 3)) * 1j, None), grid)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_kraus_completeness_random_weights(seed):
    rng = np.random.default_rng(seed)
    grid = make_grid(2, 3, 3)
    zetas = [rng.uniform(0.05, 0.95, (3, 3)) for _ in range(2)]
    g = grover_weighted(TargetSpec.bits("10"), zetas, grid)
    w = np.broadcast_to(g.weight, grid.cell_shape)
    g_prime = g.with_weight(np.sqrt(1.0 - w**2))
    psi = random_joint(grid, rng)
    total = quad_norm(apply(g, psi)) + quad_norm(apply(g_prime, psi))
    assert total == pytest.approx(quad_norm(psi), abs=1e-10)


# --- dilation ---------------------------------------------------------------


def test_dilation_unit_weight_is_g_tensor_sigma_x():
    grid = make_grid(2, 3, 3)
    spec = TargetSpec.bits("10")
    u = dilation(spec, None, grid)
    g = grover_cell(spec, grid)
    expected = np.kron(g.mat_at(0, 0, 0, 0), np.array([[0, 1], [1, 0]]))
    assert np.max(np.abs(u.mat_at(0, 0, 0, 0) - expected)) < 1e-14
    # the full search result rides on the ancilla-1 branch
    envs = (EnvelopeSpec.gaussian(), EnvelopeSpec.gaussian())
    out = apply(u, with_ancilla(build_list(envs, grid), 0))
    assert quad_norm(ancilla_branch(out, 0)) == pytest.approx(0.0, abs=1e-20)
    assert quad_norm(ancilla_branch(out, 1)) == pytest.approx(1.0, abs=1e-12)


def test_dilation_constant_weight_unitary():
    grid = make_grid(2, 3, 3)
    u = dilation(TargetSpec.bits("01"), (0.6, 1.0), grid)
    gram = np.einsum("...ji,...jk->...ik", u.mats.conj(), u.mats)
    assert np.max(np.abs(gram - np.eye(8))) < 1e-12


def test_dilation_branches_are_kraus_images():
    rng = np.random.default_rng(11)
    grid = make_grid(2, 4, 3)
    spec = TargetSpec.bits("11")
    zetas = [rng.uniform(0.1, 0.9, (4, 3)) for _ in range(2)]
    u = dilation(spec, zetas, grid)
    g = grover_weighted(spec, zetas, grid)
    w = np.broadcast_to(g.weight, grid.cell_shape)
    g_prime = g.with_weight(np.sqrt(1.0 - w**2))
    psi = random_joint(grid, rng)
    out = apply(u, with_ancilla(psi, 0))
    assert np.max(np.abs(ancilla_branch(out, 1).amp - apply(g, psi).amp)) < 1e-12
    assert np.max(np.abs(ancilla_branch(out, 0).amp - apply(g_prime, psi).amp)) < 1e-12


def test_dilation_branches_identify_same_target():
    rng = np.random.default_rng(13)
    grid = make_grid(2, 4, 4)
    spec = TargetSpec.bits("10")
    envs = (EnvelopeSpec.gaussian(), EnvelopeSpec.gaussian(center_k=0.4))
    zetas = [rng.uniform(0.2, 0.8, (4, 4)) for _ in range(2)]
    out = apply(dilation(spec, zetas, grid), with_ancilla(build_list(envs, grid), 0))
    basis = logical_basis(envs, grid)
    for value in (0, 1):
        branch = normalize(ancilla_branch(out, value))
        hits = [s for s, b in basis.items() if abs(inner(b, branch)) > 1e-8]
        assert hits == ["10"]


def test_dilation_cells_are_g_tensor_a():
    rng = np.random.default_rng(19)
    grid = make_grid(2, 3, 2)
    spec = TargetSpec.from_intervals([[(0.0, 1.0)], [(1.5, 3.0)]])
    zetas = [rng.uniform(-1.0, 1.0, (3, 2)) for _ in range(2)]
    u = dilation(spec, zetas, grid)
    g = grover_cell(spec, grid)
    w = joint_weight(zetas, grid)
    for cell in np.ndindex(grid.cell_shape):
        a = w[cell] * np.array([[0, 1], [1, 0]]) + np.sqrt(1 - w[cell] ** 2) * np.diag([1, -1])
        assert_allclose(u.mat_at(*cell), np.kron(g.mat_at(*cell), a), rtol=0, atol=1e-15)


def test_dilation_weight_out_of_range():
    grid = make_grid(1, 2, 2)
    with pytest.raises(WeightOutOfRange):
        dilation(TargetSpec.bits("0"), (1.5,), grid)


# --- apply ------------------------------------------------------------------


def test_apply_identity_and_involution():
    grid = make_grid(2, 3, 4)
    psi = random_joint(grid, np.random.default_rng(15))
    assert_allclose(apply(identity(grid), psi).amp, psi.amp, atol=0)
    h = hadamard(grid)
    assert np.max(np.abs(apply(h, apply(h, psi)).amp - psi.amp)) < 1e-12


def test_apply_grid_and_ancilla_mismatch():
    psi = random_joint(make_grid(2, 3, 3), np.random.default_rng(16))
    with pytest.raises(GridMismatch):
        apply(hadamard(make_grid(2, 4, 3)), psi)
    u = dilation(TargetSpec.bits("00"), None, make_grid(2, 3, 3))
    with pytest.raises(AncillaMismatch):
        apply(u, psi)


def test_apply_is_linear():
    grid = make_grid(1, 3, 3)
    rng = np.random.default_rng(17)
    a, b = random_joint(grid, rng), random_joint(grid, rng)
    op = grover_weighted(TargetSpec.bits("1"), (np.cos(grid.theta_values())[:, None] * np.ones((1, 3)),), grid)
    mixed = JointState(grid, 2.0 * a.amp - 1j * b.amp)
    lhs = apply(op, mixed).amp
    rhs = 2.0 * apply(op, a).amp - 1j * apply(op, b).amp
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_joint_weight_broadcasting_layout():
    grid = make_grid(2, 3, 4)
    z1 = np.arange(12.0).reshape(3, 4)
    z2 = np.ones((3, 4))
    w = np.broadcast_to(joint_weight((z1, z2), grid), grid.cell_shape)
    for j1 in range(3):
        for j2 in range(3):
            for m1 in range(4):
                for m2 in range(4):
                    assert w[j1, j2, m1, m2] == z1[j1, m1] * z2[j2, m2]
