import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mvgrover import (
    EnvelopeSpec,
    PositionWave,
    build_gaussian,
    inner,
    logical_one,
    logical_zero,
    make_grid,
    position_norm,
    quad_norm,
    zak_forward,
    zak_inverse,
)
from mvgrover.zak import envelope_densities
from mvgrover.errors import (
    LatticeMisaligned,
    ShapeMismatch,
    WindowTooSmall,
    ZeroNorm,
)


def plane_wave(momentum, grid, n_win):
    """exp(i * momentum * theta) restricted to the window."""
    spp = 2 * grid.g_theta
    theta = -2 * math.pi * n_win + (np.arange((2 * n_win + 1) * spp) + 0.5) * grid.d_theta
    return PositionWave(np.exp(1j * momentum * theta), n_win, spp)


def dirichlet(x, n_win):
    """sum_{N=-n_win}^{n_win} exp(2i pi x N) in closed form."""
    w = 2 * n_win + 1
    if abs(math.sin(math.pi * x)) < 1e-12:
        return float(w)
    return math.sin(w * math.pi * x) / math.sin(math.pi * x)


# --- zak_forward -----------------------------------------------------------


def test_plane_wave_matches_geometric_sum_oracle():
    grid = make_grid(1, 4, 8)
    n_win = 8
    k0 = 0.25
    state = zak_forward(plane_wave(k0, grid, n_win), grid)
    theta = grid.theta_values()
    for j in range(grid.g_theta):
        for m, k in enumerate(grid.k_values()):
            for b in (0, 1):
                expected = np.exp(1j * k0 * (theta[j] + b * math.pi)) * dirichlet(
                    k0 - k, n_win
                )
                assert state.amp[j, m, b] == pytest.approx(expected, abs=1e-9)


def test_plane_wave_concentrates_on_nearest_column():
    # with g_k = 2 one column sits exactly on k = 0.25
    grid = make_grid(1, 4, 2)
    n_win = 8
    state = zak_forward(plane_wave(0.25, grid, n_win), grid)
    mags = np.abs(state.amp)
    # uniform over theta and band within each column
    assert_allclose(mags[:, 0, :], mags[0, 0, 0], rtol=1e-12)
    assert mags[0, 0, 0] == pytest.approx(2 * n_win + 1, abs=1e-10)
    # the off column carries only the alternating-sum remnant
    assert mags[:, 1, :].max() == pytest.approx(1.0, abs=1e-10)


def test_plane_wave_leakage_below_truncation_bound():
    grid = make_grid(1, 4, 8)
    n_win = 8
    state = zak_forward(plane_wave(0.25, grid, n_win), grid)
    for m, k in enumerate(grid.k_values()):
        bound = 1.0 / abs(math.sin(math.pi * (0.25 - k))) if abs(0.25 - k) > 1e-9 else np.inf
        assert np.abs(state.amp[:, m, :]).max() <= bound + 1e-9


def test_single_period_support_is_plain_sampling():
    grid = make_grid(1, 6, 5)
    n_win = 2
    spp = 2 * grid.g_theta
    rng = np.random.default_rng(4)
    bump = rng.standard_normal(spp) + 1j * rng.standard_normal(spp)
    samples = np.zeros((2 * n_win + 1) * spp, dtype=complex)
    samples[n_win * spp : (n_win + 1) * spp] = bump  # period N = 0 only
    state = zak_forward(PositionWave(samples, n_win, spp), grid)
    for m in range(grid.g_k):
        assert_allclose(state.amp[:, m, 0], bump[: grid.g_theta], atol=1e-14)
        assert_allclose(state.amp[:, m, 1], bump[grid.g_theta :], atol=1e-14)


def test_parseval_for_window_supported_wave():
    grid = make_grid(1, 8, 17)  # g_k >= 2*n_win + 1: exact isometry
    wave = build_gaussian(1.0, math.pi, 0.7, grid, n_win=8)
    norm_position = float(np.sum(np.abs(wave.samples) ** 2)) * wave.d_theta
    assert quad_norm(zak_forward(wave, grid)) == pytest.approx(norm_position, abs=1e-10)


def test_lattice_misaligned():
    grid = make_grid(1, 4, 4)
    wave = plane_wave(0.1, make_grid(1, 6, 4), 2)
    with pytest.raises(LatticeMisaligned):
        zak_forward(wave, grid)


def test_window_too_small_from_tail_mass():
    grid = make_grid(1, 4, 4)
    wave = plane_wave(0.1, grid, 2)
    leaky = PositionWave(wave.samples, wave.n_win, wave.samples_per_period, tail_mass=1e-3)
    with pytest.raises(WindowTooSmall):
        zak_forward(leaky, grid)


# --- zak_inverse -----------------------------------------------------------


def test_roundtrip_single_period_bump():
    grid = make_grid(1, 6, 7)
    n_win = 3
    spp = 2 * grid.g_theta
    samples = np.zeros((2 * n_win + 1) * spp, dtype=complex)
    samples[n_win * spp : (n_win + 1) * spp] = np.hanning(spp) * np.exp(
        0.5j * np.arange(spp)
    )
    wave = PositionWave(samples, n_win, spp)
    back = zak_inverse(zak_forward(wave, grid), n_win)
    assert np.max(np.abs(back.samples - wave.samples)) < 1e-10


def test_roundtrip_gaussian():
    grid = make_grid(1, 8, 17)
    wave = build_gaussian(0.0, 2 * math.pi, 0.4, grid, n_win=8)
    back = zak_inverse(zak_forward(wave, grid), 8)
    assert np.max(np.abs(back.samples - wave.samples)) < 1e-8


def test_zero_state_inverse_is_zero_wave():
    grid = make_grid(1, 4, 4)
    from mvgrover import JointState

    wave = zak_inverse(JointState(grid, np.zeros((4, 4, 2))), 2)
    assert not wave.samples.any()


def test_inverse_takes_one_mode_states_only():
    from mvgrover import JointState, with_ancilla

    one = JointState(make_grid(1, 4, 4), np.zeros((4, 4, 2)))
    for bad in (JointState(make_grid(2, 4, 4), np.zeros((4,) * 4 + (2, 2))), with_ancilla(one)):
        with pytest.raises(ShapeMismatch):
            zak_inverse(bad, 2)


def test_translation_covariance_phase():
    # shifting the wave one period toward negative theta multiplies the
    # amplitudes by exp(+2i pi k)
    grid = make_grid(1, 6, 11)
    n_win = 5
    wave = build_gaussian(0.0, 1.5, 0.2, grid, n_win)
    spp = wave.samples_per_period
    shifted = PositionWave(
        np.concatenate([wave.samples[spp:], np.zeros(spp, dtype=complex)]), n_win, spp
    )
    amp = zak_forward(wave, grid).amp
    amp_shift = zak_forward(shifted, grid).amp
    phase = np.exp(2j * math.pi * grid.k_values())[None, :, None]
    assert np.max(np.abs(amp_shift - phase * amp)) < 1e-10


# --- build_gaussian --------------------------------------------------------


def test_gaussian_symmetric_and_real_at_zero_offset():
    grid = make_grid(1, 4, 4)
    n_win = 2
    wave = build_gaussian(0.0, 1.0, 0.0, grid, n_win)
    assert np.max(np.abs(wave.samples.imag)) == 0.0
    assert wave.samples.real.min() > 0.0
    # lattice points theta and -theta mirror within the first 2*n_win periods
    mirrored = 2 * n_win * wave.samples_per_period
    head = wave.samples[:mirrored]
    assert_allclose(head, head[::-1], atol=1e-12)
    assert position_norm(wave) == pytest.approx(1.0, abs=1e-12)


def test_gaussian_momentum_offset_concentrates_k():
    # odd g_k puts a column exactly at k = 0.5; sigma_theta = 3*pi makes the
    # momentum width (1/(6*pi)) well below the column spacing
    grid = make_grid(1, 6, 5)
    wave = build_gaussian(0.0, 3 * math.pi, 0.5, grid, n_win=9)
    state = zak_forward(wave, grid)
    column_mass = np.sum(np.abs(state.amp) ** 2, axis=(0, 2))
    assert np.argmax(column_mass) == 2
    assert grid.k_values()[2] == pytest.approx(0.5, abs=0)
    assert column_mass[2] > 0.9 * column_mass.sum()


def test_gaussian_window_too_small():
    grid = make_grid(1, 4, 4)
    with pytest.raises(WindowTooSmall):
        build_gaussian(0.0, 4 * math.pi, 0.0, grid, n_win=1)


def test_gaussian_rejects_bad_sigma():
    grid = make_grid(1, 4, 4)
    with pytest.raises(ValueError):
        build_gaussian(0.0, -1.0, 0.0, grid, n_win=2)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("arg", [0, 1, 2])
def test_gaussian_refuses_non_finite_input(arg, bad):
    # A NaN or infinite centre, width or momentum offset is refused by name
    # before any sample is built, so no NaN wave reaches zak_forward.
    grid = make_grid(1, 4, 3)
    args = [math.pi, 1.0, 0.0]
    args[arg] = bad
    with pytest.raises(ValueError, match="finite"):
        build_gaussian(*args, grid, 3)


# --- logical states --------------------------------------------------------


def test_constant_envelope_value():
    grid = make_grid(1, 5, 4)
    state = logical_zero(EnvelopeSpec.constant(), grid)
    assert_allclose(state.amp[:, :, 0], 1.0 / math.sqrt(math.pi), atol=1e-14)
    assert not state.amp[:, :, 1].any()
    assert quad_norm(state) == pytest.approx(1.0, abs=1e-12)


def test_logical_states_exactly_orthogonal():
    grid = make_grid(1, 6, 6)
    for env in (EnvelopeSpec.constant(), EnvelopeSpec.gaussian(sigma_theta=0.3)):
        assert inner(logical_zero(env, grid), logical_one(env, grid)) == 0.0


def test_gaussian_envelope_peak_cell():
    grid = make_grid(1, 8, 8)
    env = EnvelopeSpec.gaussian(center_theta=math.pi / 2, center_k=0.5)
    state = logical_zero(env, grid)
    assert quad_norm(state) == pytest.approx(1.0, abs=1e-12)
    # direct evaluation oracle: the unnormalized profile peaks where the
    # grid point is closest to the center
    theta, k = grid.theta_values(), grid.k_values()
    profile = np.exp(
        -(((theta[:, None] - math.pi / 2) / (2 * env.sigma_theta)) ** 2)
        - ((k[None, :] - 0.5) / (2 * env.sigma_k)) ** 2
    )
    assert np.argmax(np.abs(state.amp[:, :, 0])) == np.argmax(profile)


def test_tabulated_envelope_normalized_and_zero_rejected():
    grid = make_grid(1, 3, 3)
    table = np.arange(9.0).reshape(3, 3) + 0.5j
    env = EnvelopeSpec.tabulated(table)
    g = env.table_for(grid)
    assert float(np.sum(np.abs(g) ** 2)) * grid.d_theta * grid.d_k == pytest.approx(
        1.0, abs=1e-12
    )
    with pytest.raises(ZeroNorm):
        EnvelopeSpec.tabulated(np.zeros((3, 3))).table_for(grid)
    with pytest.raises(ShapeMismatch):
        EnvelopeSpec.tabulated(np.ones((2, 2))).table_for(grid)


def _whole_table(env, grid):
    """The constant or gaussian envelope as one 2-D table, scaled and
    normalized as a whole."""
    if env.kind == "constant":
        raw = np.ones((grid.g_theta, grid.g_k))
    else:
        dt = (grid.theta_values() - env.center_theta) / (2.0 * env.sigma_theta)
        dk = (grid.k_values() - env.center_k) / (2.0 * env.sigma_k)
        with np.errstate(over="ignore"):
            raw = np.exp(-(dt**2))[:, None] * np.exp(-(dk**2))[None, :]
    raw = raw / np.max(raw)
    return raw / math.sqrt(np.sum(raw**2) * grid.d_theta * grid.d_k)


@pytest.mark.parametrize("g_theta, g_k", [(8, 8), (5, 12), (32, 32), (1, 1)])
def test_separable_tables_match_whole_tables(g_theta, g_k):
    grid = make_grid(1, g_theta, g_k)
    narrow = grid.theta_values()[g_theta // 2]  # a width of 1e-3 centred on a cell
    envs = [
        EnvelopeSpec.constant(),
        EnvelopeSpec.gaussian(),
        EnvelopeSpec.gaussian(1.3, 0.4, 0.7, 0.2),
        EnvelopeSpec.gaussian(narrow, 0.55, 1e-3, 0.05),
    ]
    for env in envs:
        table, want = env.table_for(grid), _whole_table(env, grid)
        assert table.dtype == np.complex128
        assert np.max(np.abs(table - want)) <= 1e-15 * np.max(np.abs(want))


def test_gaussian_with_underflowing_product_is_normalized():
    # Centred between cells at 21.4 widths from the nearest on each axis: each
    # axis profile peaks near 1e-200, so their product underflows, but each
    # axis is normalized before the outer product.
    grid = make_grid(1, 8, 8)
    dt, dk = grid.d_theta / 2, grid.d_k / 2
    env = EnvelopeSpec.gaussian(
        grid.theta_values()[3] + dt, grid.k_values()[3] + dk, dt / 42.9, dk / 42.9
    )
    table = env.table_for(grid)
    norm = float(np.sum(np.abs(table) ** 2)) * grid.d_theta * grid.d_k
    assert norm == pytest.approx(1.0, rel=1e-14)
    assert np.count_nonzero(table) == 4


def _density_envs(grid):
    """Gaussians at a width of 1e-3, with a centre far off the axis (each axis
    peaks near 1e-200), with a width so small that d^2 overflows on all cells
    but the centre's, with a width (1.7e-155 on theta) at which d^2 next
    to the centre is finite but twice it is not, and with widths (1e308)
    whose double overflows; plus a tabulated and a constant envelope."""
    t_mid, k_mid = grid.theta_values()[grid.g_theta // 2], grid.k_values()[grid.g_k // 2]
    far_theta = grid.theta_values()[-1] + 21.4 * 2 * 0.1
    return [
        EnvelopeSpec.gaussian(),
        EnvelopeSpec.gaussian(t_mid, 0.55, 1e-3, 0.05),
        EnvelopeSpec.gaussian(far_theta, -21.4 * 2 * 0.05 + grid.k_values()[0], 0.1, 0.05),
        EnvelopeSpec.gaussian(t_mid, k_mid, 1e-160, 1e-160),
        EnvelopeSpec.gaussian(t_mid, k_mid, 1.7e-155, 0.25),
        EnvelopeSpec.gaussian(t_mid, k_mid, 1e308, 1e308),
        EnvelopeSpec.tabulated(np.arange(grid.g_theta * grid.g_k).reshape(grid.g_theta, grid.g_k) - 2.5j),
        EnvelopeSpec.constant(),
    ]


@pytest.mark.parametrize("g_theta, g_k", [(8, 8), (5, 12), (32, 32), (1, 1)])
def test_densities_match_squared_tables(g_theta, g_k):
    # Each envelope's density is |table_for|^2 within 1e-15 of its peak, whether
    # it comes with the other envelopes (one pass over the gaussians) or alone.
    grid = make_grid(1, g_theta, g_k)
    envs = _density_envs(grid)
    together = envelope_densities(envs, grid)
    for env, got in zip(envs, together):
        want = np.abs(env.table_for(grid)) ** 2
        assert float(np.sum(want)) * grid.d_theta * grid.d_k == pytest.approx(1.0, rel=1e-14)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(want)
        assert np.array_equal(envelope_densities([env], grid)[0], got)


@pytest.mark.parametrize(
    "env",
    [
        EnvelopeSpec.gaussian(40.0, 0.5, 0.5, 0.25),  # peak exp(-min d^2) underflows to 0
        EnvelopeSpec.gaussian(1.0, 0.5, 1e-160, 0.25),  # every d^2 overflows
    ],
)
def test_gaussian_without_peak_is_zero_norm_in_tables_and_densities(env):
    grid = make_grid(1, 8, 8)
    with pytest.raises(ZeroNorm):
        env.table_for(grid)
    with pytest.raises(ZeroNorm):
        envelope_densities([EnvelopeSpec.gaussian(), env], grid)
