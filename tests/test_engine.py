"""Grid response tables, expected intensity/compensator, quadrature, MC."""

import numpy as np
import pytest

from pmbp import ModelParams, ParameterError, RegularityError
from reference import TruncationError
from reference.engine import (
    ConvGrid,
    _fft_conv,
    compensator_eval,
    compute_h,
    default_step,
    xi_eval,
    xi_monte_carlo,
)

from oracles import (
    broadcast_intensity_compensator,
    dense_h,
    dense_xi,
    mbp11_response,
    riemann_conv,
)


# ---------------------------------------------------------------------------
# Grid


def test_grid_snaps_to_horizon():
    g = ConvGrid.make(10.0, 0.3)
    assert g.n == 34
    assert g.dt * g.n == pytest.approx(10.0)
    assert g.points[-1] == pytest.approx(10.0)
    assert np.allclose(np.diff(g.points), g.dt)


def test_grid_rejects_bad_inputs():
    with pytest.raises(ParameterError):
        ConvGrid.make(0.0, 0.1)
    with pytest.raises(ParameterError):
        ConvGrid.make(10.0, -1.0)


def test_default_step_tracks_fastest_kernel():
    p = ModelParams(d=1, e=1, theta=[[5.0]], alpha=[[0.5]], gamma=[0.0],
                    nu=[1.0])
    assert default_step(p, 10.0) == pytest.approx(0.002)
    # clipped to T/100 above, T/1e5 below
    assert default_step(p, 0.01) == pytest.approx(0.0001)


# ---------------------------------------------------------------------------
# FFT sequence convolution against plain Riemann sums


def test_fft_conv_matches_direct_sequence_sum():
    rng = np.random.default_rng(3)
    P, d = 40, 2
    D = rng.uniform(0, 1, (P + 1, d, d))
    g = rng.uniform(0, 1, (P + 1, d, d))
    want = np.zeros_like(g)
    for p in range(P + 1):
        for r in range(p + 1):
            want[p] += D[r] @ g[p - r]
    got = _fft_conv(D, g)
    assert np.allclose(got, want, atol=1e-10)


# ---------------------------------------------------------------------------
# Response tables


def test_h_matches_dense_fixed_point(pmbp21):
    grid = ConvGrid.make(4.0, 0.01)
    tab = compute_h(pmbp21, grid)
    ref = dense_h(pmbp21, grid.points)
    scale = max(np.max(np.abs(ref)), 1.0)
    assert np.max(np.abs(tab.h - ref)) / scale < 2e-2


def test_h_mbp11_closed_form(mbp11):
    grid = ConvGrid.make(6.0, 0.001)
    tab = compute_h(mbp11, grid)
    want = mbp11_response(0.6, 2.0, grid.points)
    assert np.max(np.abs(tab.h[:, 0, 0] - want)) < 2e-3 * want.max()


def test_H_is_integral_of_h(pmbp21, tables21):
    # trapezoid of the h samples should track H closely
    grid = tables21.grid
    h00 = tables21.h[:, 0, 0]
    H00 = np.concatenate(
        [[0.0], np.cumsum((h00[1:] + h00[:-1]) / 2.0) * grid.dt]
    )
    assert np.max(np.abs(tables21.H[:, 0, 0] - H00)) < 1e-3


def test_h_zero_outside_censored_columns(tables21):
    assert np.all(tables21.h[:, :, 1:] == 0.0)
    assert np.all(tables21.H[:, :, 1:] == 0.0)


def test_compute_h_rejects_critical_censored_block():
    p = ModelParams(d=1, e=1, theta=[[1.0]], alpha=[[1.0]], gamma=[0.0],
                    nu=[1.0])
    with pytest.raises(RegularityError):
        compute_h(p, ConvGrid.make(5.0, 0.01))


def test_compute_h_truncation_cap():
    p = ModelParams(d=1, e=1, theta=[[1.0]], alpha=[[0.999]], gamma=[0.0],
                    nu=[1.0])
    with pytest.raises(TruncationError):
        compute_h(p, ConvGrid.make(5.0, 0.01), max_terms=3)


def test_compute_h_residual_below_tolerance(tables21):
    assert tables21.residual_max < 1e-6
    assert tables21.k_star >= 2


# ---------------------------------------------------------------------------
# Expected intensity / compensator on the grid


@pytest.mark.parametrize("d", [1, 2, 5])
def test_riemann_conv_matches_the_double_loop(d):
    # the oracle adds one product per lag for every sample at once, in the
    # order of the plain double loop, so the results are equal
    rng = np.random.default_rng(d)
    f = rng.random((30, d, d))
    for g in (rng.random((30, d, d)), rng.random((30, d))):
        want = np.zeros((30,) + np.shape(f[0] @ g[0]))
        for p in range(30):
            for r in range(p):
                want[p] += f[r] @ g[p - r] * 0.1
        assert np.array_equal(riemann_conv(f, g, 0.1), want)


@pytest.mark.slow
def test_xi_matches_dense_oracle(pmbp21):
    events = [np.zeros(0), np.array([2.5, 5.0])]
    grid = ConvGrid.make(8.0, 0.01)
    tab = compute_h(pmbp21, grid)
    xi = xi_eval(pmbp21, events, tab)
    ref = dense_xi(pmbp21, events, grid.points)
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(xi - ref)) / scale < 2e-2


def test_xi_reduces_to_hawkes_when_e0(hawkes2, hawkes_path):
    p0 = hawkes2.replace(e=0)
    grid = ConvGrid.make(120.0, 0.05)
    tab = compute_h(p0, grid)
    lam, Lam = broadcast_intensity_compensator(p0, hawkes_path.times, grid.points)
    xi = xi_eval(p0, list(hawkes_path.times), tab)
    assert np.allclose(xi, lam, rtol=1e-6, atol=1e-9)
    Xi = compensator_eval(p0, list(hawkes_path.times), tab)
    assert np.allclose(Xi, Lam, rtol=1e-6, atol=1e-9)


def test_fully_censored_ignores_injected_events(mbp11):
    grid = ConvGrid.make(10.0, 0.01)
    tab = compute_h(mbp11, grid)
    no_events = xi_eval(mbp11, [np.zeros(0)], tab)
    fake = xi_eval(mbp11, [np.array([1.0, 2.0, 3.0])], tab)
    assert np.array_equal(no_events, fake)


def test_compensator_increments_nonnegative(pmbp21, events21, tables21):
    Xi = compensator_eval(pmbp21, events21, tables21)
    assert np.all(np.diff(Xi, axis=0) > -1e-12)
    assert np.allclose(Xi[0], pmbp21.gamma * 0.0)


def test_gamma_impulse_appears_at_zero_plus(mbp11):
    grid = ConvGrid.make(5.0, 0.01)
    tab = compute_h(mbp11, grid)
    Xi = compensator_eval(mbp11, [np.zeros(0)], tab)
    assert abs(Xi[0, 0]) < 1e-12
    # right after 0 the compensator jumps by at least gamma
    assert Xi[1, 0] >= 0.5


# ---------------------------------------------------------------------------
# Monte-Carlo cross-check (small)


def test_xi_monte_carlo_agrees_at_a_few_points(pmbp21, events21, tables21):
    times = np.array([1.0, 5.0, 20.0])
    mean, se = xi_monte_carlo(pmbp21, events21, times, 400, seed=11)
    xi = xi_eval(pmbp21, events21, tables21)
    idx = np.rint(times / tables21.grid.dt).astype(int)
    diff = np.abs(mean - xi[idx])
    assert np.all(diff <= 4.0 * se + 1e-3)


def test_xi_monte_carlo_warns_for_gamma(mbp11):
    with pytest.warns(UserWarning):
        xi_monte_carlo(mbp11, [np.zeros(0)], np.array([1.0]), 2, seed=0)
