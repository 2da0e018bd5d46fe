import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from mvgrover import (
    EnvelopeSpec,
    JointState,
    ModeState,
    TargetSpec,
    build_gaussian,
    build_list,
    grover_cell,
    hadamard,
    inner,
    load_state,
    logical_one,
    logical_zero,
    make_grid,
    normalize,
    quad_norm,
    save_state,
    state_from_bytes,
    state_to_bytes,
    tensor,
    zak_forward,
)
from mvgrover.errors import (
    BadMagic,
    CapacityExceeded,
    GridMismatch,
    ShapeMismatch,
    TruncatedFile,
    ZeroNorm,
    ZeroSize,
)
from mvgrover.operators import apply


def random_mode(grid, rng):
    amp = rng.standard_normal((grid.g_theta, grid.g_k, 2)) + 1j * rng.standard_normal(
        (grid.g_theta, grid.g_k, 2)
    )
    return normalize(ModeState(grid, amp))


def inner_by_loops(a, b):
    """Naive lexicographic summation oracle for the quadrature inner product."""
    total = 0.0 + 0.0j
    for idx in np.ndindex(a.amp.shape):
        total += np.conjugate(a.amp[idx]) * b.amp[idx]
    return total * a.grid.cell_weight


# --- make_grid -------------------------------------------------------------


def test_make_grid_midpoints():
    grid = make_grid(1, 4, 2)
    assert grid.d_theta == pytest.approx(math.pi / 4, abs=0)
    assert grid.d_k == 0.5
    assert_allclose(grid.theta_values(), np.array([1, 3, 5, 7]) * math.pi / 8, atol=0)
    assert_allclose(grid.k_values(), [0.25, 0.75], atol=0)


def test_make_grid_degenerate_single_cell():
    grid = make_grid(2, 1, 1)
    assert grid.cell_shape == (1, 1, 1, 1)
    assert grid.band_shape == (2, 2)
    state = JointState(grid, np.ones((1, 1, 1, 1, 2, 2)))
    assert state.amp.size == 4


def test_make_grid_zero_size():
    with pytest.raises(ZeroSize):
        make_grid(1, 0, 1)
    with pytest.raises(ZeroSize):
        make_grid(0, 4, 4)


def test_make_grid_capacity_limit():
    with pytest.raises(CapacityExceeded):
        make_grid(5, 2, 2)


# --- quad_norm -------------------------------------------------------------


def test_quad_norm_constant_amplitude_is_one():
    # |h|^2 = 1/(2 pi) integrates to 1 over the area 2*pi*1 (both bands)
    grid = make_grid(1, 6, 5)
    amp = np.full((6, 5, 2), 1.0 / math.sqrt(2 * math.pi), dtype=complex)
    assert quad_norm(ModeState(grid, amp)) == pytest.approx(1.0, abs=1e-12)


def test_quad_norm_zero_tensor():
    grid = make_grid(2, 3, 3)
    state = JointState(grid, np.zeros(grid.cell_shape + grid.band_shape))
    assert quad_norm(state) == 0.0


def test_quad_norm_matches_position_space_norm():
    # g_k < 2*n_win + 1 here, so agreement is only up to period aliasing
    grid = make_grid(1, 8, 8)
    wave = build_gaussian(0.0, math.pi, 0.3, grid, n_win=8)
    position_side = float(np.sum(np.abs(wave.samples) ** 2)) * wave.d_theta
    assert quad_norm(zak_forward(wave, grid)) == pytest.approx(position_side, abs=1e-6)


def test_quad_norm_shape_validation():
    grid = make_grid(1, 4, 4)
    with pytest.raises(ShapeMismatch):
        ModeState(grid, np.zeros((4, 4)))
    with pytest.raises(ShapeMismatch):
        JointState(grid, np.zeros((4, 4, 4)))


# --- inner -----------------------------------------------------------------


def test_inner_self_equals_quad_norm():
    rng = np.random.default_rng(3)
    grid = make_grid(1, 5, 4)
    psi = tensor([random_mode(grid, rng)])
    val = inner(psi, psi)
    assert val.imag == pytest.approx(0.0, abs=1e-15)
    assert val.real == pytest.approx(quad_norm(psi), abs=1e-13)


def test_inner_disjoint_band_support_is_exactly_zero():
    grid = make_grid(1, 4, 4)
    env = EnvelopeSpec.gaussian()
    assert inner(logical_zero(env, grid), logical_one(env, grid)) == 0.0


def test_inner_list_overlap_is_half():
    # equal-weight superposition of the four logical states: overlap 1/2,
    # cross-checked against the naive summation oracle
    grid = make_grid(2, 3, 2)
    envs = (EnvelopeSpec.constant(), EnvelopeSpec.constant())
    lst = build_list(envs, grid)
    zeros = tensor([logical_zero(e, grid) for e in envs])
    direct = inner_by_loops(zeros, lst)
    assert inner(zeros, lst) == pytest.approx(direct, abs=1e-14)
    assert direct == pytest.approx(0.5, abs=1e-12)


def test_inner_grid_mismatch():
    a = JointState(make_grid(1, 3, 3), np.zeros((3, 3, 2)))
    b = JointState(make_grid(1, 3, 4), np.zeros((3, 4, 2)))
    with pytest.raises(GridMismatch):
        inner(a, b)


@settings(max_examples=20, deadline=None)
@given(
    st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
    st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
    st.integers(0, 2**31 - 1),
)
def test_inner_sesquilinear(alpha, beta, seed):
    rng = np.random.default_rng(seed)
    grid = make_grid(1, 3, 2)
    a, b, c = (tensor([random_mode(grid, rng)]) for _ in range(3))
    mixed = JointState(grid, alpha * b.amp + beta * c.amp)
    lhs = inner(a, mixed)
    rhs = alpha * inner(a, b) + beta * inner(a, c)
    assert lhs == pytest.approx(rhs, abs=1e-12)
    # conjugate symmetry
    assert inner(b, a) == pytest.approx(np.conjugate(inner(a, b)), abs=1e-13)


# --- tensor ----------------------------------------------------------------


def test_tensor_norm_is_product_of_norms():
    rng = np.random.default_rng(5)
    grid = make_grid(1, 4, 3)
    a, b = random_mode(grid, rng), random_mode(grid, rng)
    assert quad_norm(tensor([a, b])) == pytest.approx(1.0, abs=1e-12)
    scaled = ModeState(grid, 2.0 * a.amp)
    assert quad_norm(tensor([scaled, b])) == pytest.approx(4.0, abs=1e-12)


def test_tensor_single_mode_is_copy():
    rng = np.random.default_rng(6)
    grid = make_grid(1, 4, 3)
    a = random_mode(grid, rng)
    joint = tensor([a])
    assert_allclose(joint.amp, a.amp, atol=0)


def test_tensor_of_logical_zeros_has_single_band_combination():
    grid = make_grid(2, 3, 3)
    env = EnvelopeSpec.gaussian()
    joint = tensor([logical_zero(env, grid), logical_zero(env, grid)])
    support = np.abs(joint.amp) > 0
    assert support[..., 0, 0].any()
    assert not support[..., 0, 1].any()
    assert not support[..., 1, 0].any()
    assert not support[..., 1, 1].any()


def test_tensor_grid_mismatch():
    a = ModeState(make_grid(1, 3, 3), np.zeros((3, 3, 2)))
    b = ModeState(make_grid(1, 4, 3), np.zeros((4, 3, 2)))
    with pytest.raises(GridMismatch):
        tensor([a, b])


def test_tensor_associative_marginals():
    # grouping does not matter: norms and per-mode band masses agree
    rng = np.random.default_rng(8)
    grid = make_grid(1, 3, 2)
    modes = [random_mode(grid, rng) for _ in range(3)]
    joint = tensor(modes)
    assert quad_norm(joint) == pytest.approx(1.0, abs=1e-12)
    for i, mode in enumerate(modes):
        per_mode = np.sum(np.abs(mode.amp) ** 2, axis=(0, 1)) * grid.cell_weight
        axes = tuple(a for a in range(joint.amp.ndim) if a != 6 + i)
        marginal = np.sum(np.abs(joint.amp) ** 2, axis=axes) * joint.grid.cell_weight
        assert_allclose(marginal, per_mode, atol=1e-12)


# --- normalize -------------------------------------------------------------


def test_normalize_idempotent_and_scale_invariant():
    rng = np.random.default_rng(9)
    grid = make_grid(1, 4, 4)
    psi = random_mode(grid, rng)
    again = normalize(psi)
    assert_allclose(again.amp, psi.amp, atol=1e-12)
    tripled = normalize(ModeState(grid, 3.0 * psi.amp))
    assert_allclose(tripled.amp, psi.amp, atol=1e-12)


def test_normalize_zero_state():
    grid = make_grid(1, 4, 4)
    with pytest.raises(ZeroNorm):
        normalize(ModeState(grid, np.zeros((4, 4, 2))))


# --- invariants ------------------------------------------------------------


def test_quadrature_norm_invariant_under_unitaries():
    rng = np.random.default_rng(12)
    grid = make_grid(2, 5, 4)
    amp = rng.standard_normal(grid.cell_shape + grid.band_shape) + 1j * rng.standard_normal(
        grid.cell_shape + grid.band_shape
    )
    psi = normalize(JointState(grid, amp))
    for op in (hadamard(grid), grover_cell(TargetSpec.bits("01"), grid)):
        assert abs(quad_norm(apply(op, psi)) - quad_norm(psi)) < 1e-10


def test_states_are_immutable():
    grid = make_grid(1, 3, 3)
    psi = ModeState(grid, np.ones((3, 3, 2)))
    with pytest.raises(ValueError):
        psi.amp[0, 0, 0] = 0.0


# --- binary format ---------------------------------------------------------


def test_state_bytes_roundtrip_bitwise():
    rng = np.random.default_rng(21)
    grid = make_grid(2, 4, 3)
    amp = rng.standard_normal(grid.cell_shape + grid.band_shape) + 1j * rng.standard_normal(
        grid.cell_shape + grid.band_shape
    )
    state = JointState(grid, amp)
    blob = state_to_bytes(state)
    assert blob[:5] == b"MVGR1"
    again = state_from_bytes(blob)
    assert again.grid == grid
    assert again.amp.tobytes() == state.amp.tobytes()
    assert state_to_bytes(again) == blob


def test_state_bytes_header_layout():
    grid = make_grid(1, 2, 2)
    amp = np.arange(8, dtype=complex).reshape(2, 2, 2)
    blob = state_to_bytes(JointState(grid, amp))
    assert blob[5:17] == (1).to_bytes(4, "little") + (2).to_bytes(4, "little") * 2
    # payload is little-endian float64 (re, im) pairs, last index fastest
    first_two = np.frombuffer(blob[17 : 17 + 32], dtype="<f8")
    assert_allclose(first_two, [0.0, 0.0, 1.0, 0.0], atol=0)


def test_state_bad_magic():
    with pytest.raises(BadMagic):
        state_from_bytes(b"NOPE!" + b"\x00" * 40)


def test_state_truncated_payload():
    grid = make_grid(1, 2, 2)
    blob = state_to_bytes(JointState(grid, np.zeros((2, 2, 2))))
    with pytest.raises(TruncatedFile) as excinfo:
        state_from_bytes(blob[:-8])
    assert "expected 128 payload bytes, got 120" in str(excinfo.value)
    with pytest.raises(TruncatedFile):
        state_from_bytes(blob[:10])


def test_state_file_roundtrip_and_size(tmp_path):
    rng = np.random.default_rng(22)
    grid = make_grid(2, 3, 2)
    shape = grid.cell_shape + grid.band_shape
    state = JointState(grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    path = tmp_path / "s.mvgr"
    blob = state_to_bytes(state)
    assert save_state(state, path) == len(blob)
    assert path.read_bytes() == blob
    again = load_state(path)
    assert again.grid == grid and again.amp.tobytes() == state.amp.tobytes()
    assert quad_norm(again) == quad_norm(state)


@pytest.mark.parametrize("cut, message", [(-8, "expected 128 payload bytes, got 120"),
                                          (10, "header needs 17 bytes, file has 10")])
def test_state_file_truncated(tmp_path, cut, message):
    grid = make_grid(1, 2, 2)
    blob = state_to_bytes(JointState(grid, np.zeros((2, 2, 2))))
    path = tmp_path / "s.mvgr"
    path.write_bytes(blob[:cut])
    with pytest.raises(TruncatedFile, match=message):
        load_state(path)
    path.write_bytes(blob + b"\x00" * 16)
    with pytest.raises(TruncatedFile, match="expected 128 payload bytes, got 144"):
        load_state(path)
