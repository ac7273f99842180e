"""End-to-end acceptance gates: accuracy, calibration, recovery, determinism.

Each test is one observable guarantee of the library, checked at a fixed
tolerance and (where stated) a wall-clock budget.
"""

import time

import numpy as np
import pytest
from click.testing import CliRunner

from pmbp import (
    CensoredSeries,
    Dataset,
    FitConfig,
    ModelParams,
    PoiEvaluator,
    fd_gradient,
    fit_score,
    gof_anscombe,
    gof_time_rescaling,
    nll_and_grad,
    pack,
    predict_counts,
    read_events,
    recovery_experiment,
    sample_hawkes,
    sample_pmbp,
    spectral_radius,
    total_nll,
    unpack,
)
from pmbp.cli import main as cli_main
from reference.closed_form import closed_form_pmbp21
from reference.engine import (
    ConvGrid,
    _fft_conv,
    compensator_eval,
    compute_h,
    xi_eval,
    xi_monte_carlo,
)
from reference.forecast import sampled_forecast

from oracles import (
    kernel,
    kernel_integral,
    naive_compensator,
    naive_intensity,
    naive_pp_loglik,
)


# ---------------------------------------------------------------------------
# shared reference configuration: a 2-dimensional model with dimension 1
# censored, unit first-row decays, slow cross decays, and all jumps at 0.5


@pytest.fixture(scope="module")
def ref_params():
    return ModelParams(
        d=2, e=1,
        theta=[[1.0, 1.0], [0.2, 0.5]],
        alpha=np.full((2, 2), 0.5),
        gamma=[0.0, 0.0],
        nu=[1.0, 1.0],
    )


@pytest.fixture(scope="module")
def ref_events():
    return [np.zeros(0), np.array([2.5, 5.0, 15.0])]


def _kept_points(events, step):
    """Grid points of [0, 30] with step `step`, less those within one step
    of an observed event, where the grid's jump smearing is largest."""
    grid = ConvGrid.make(30.0, step)
    keep = np.ones(grid.n + 1, dtype=bool)
    for t_ev in events[1]:
        keep &= np.abs(grid.points - t_ev) > step * (1 + 1e-9)
    return grid, keep


def _max_rel_err(params, events, step):
    grid, keep = _kept_points(events, step)
    tables = compute_h(params, grid)
    xi = xi_eval(params, events, tables)
    ref, _ = closed_form_pmbp21(params, events, grid.points)
    return float(np.max(np.abs(xi[keep] - ref[keep]) / np.abs(ref[keep])))


def test_A1_expected_intensity_matches_closed_form(ref_params, ref_events):
    t0 = time.perf_counter()
    err = _max_rel_err(ref_params, ref_events, 0.01)
    # the library's exact path, on the same kept points
    grid, keep = _kept_points(ref_events, 0.01)
    t = grid.points[keep]
    exact = PoiEvaluator(ref_params, ref_events).values(t).xi
    ref, _ = closed_form_pmbp21(ref_params, ref_events, t)
    err_exact = float(np.max(np.abs(exact - ref) / np.abs(ref)))
    elapsed = time.perf_counter() - t0
    assert err <= 0.02
    assert err_exact <= 0.02
    assert elapsed < 10.0


@pytest.mark.slow
def test_A2_expected_intensity_matches_monte_carlo(ref_params, ref_events):
    t0 = time.perf_counter()
    grid = ConvGrid.make(30.0, 0.01)
    tables = compute_h(ref_params, grid)
    xi = xi_eval(ref_params, ref_events, tables)
    query = np.linspace(1.2, 28.8, 20)
    mean, se = xi_monte_carlo(ref_params, ref_events, query,
                              n_samples=10_000, seed=11)
    ref = xi[np.searchsorted(grid.points, query)]
    within = np.all(np.abs(mean - ref) <= 3.0 * se, axis=1)
    # the library's exact path, at the query times themselves
    exact = PoiEvaluator(ref_params, ref_events).values(query).xi
    within_exact = np.all(np.abs(mean - exact) <= 3.0 * se, axis=1)
    elapsed = time.perf_counter() - t0
    assert within.sum() >= 18
    assert within_exact.sum() >= 18
    assert elapsed < 120.0


def test_A3_analytic_gradient_matches_finite_differences():
    t0 = time.perf_counter()
    gen = ModelParams(d=2, e=1, theta=np.ones((2, 2)),
                      alpha=[[0.3, 0.2], [0.2, 0.3]],
                      gamma=[0.0, 0.0], nu=[0.4, 0.4])
    T = 12.0
    hist = sample_pmbp(gen, T, seed=21)
    bounds = np.arange(int(T) + 1, dtype=float)
    ds = Dataset(
        T=T,
        censored=(CensoredSeries(bounds, np.histogram(hist.times[0], bounds)[0]),),
        events=(hist.times[1],),
    )
    rng = np.random.default_rng(5)
    for _ in range(10):
        alpha = rng.uniform(0.05, 0.6, size=(2, 2))
        if alpha[0, 0] >= 0.9:
            alpha[0, 0] = 0.85
        point = ModelParams(
            d=2, e=1,
            theta=rng.uniform(0.4, 2.5, size=(2, 2)),
            alpha=alpha,
            gamma=[0.0, 0.0],
            nu=rng.uniform(0.3, 1.5, size=2),
        )

        def f(vec):
            return nll_and_grad(unpack(point, vec), ds)[0]

        _, grad = nll_and_grad(point, ds)
        g_fd = fd_gradient(f, pack(point))
        diff = np.abs(grad - g_fd)
        ok = (diff <= 1e-6) | (diff <= 1e-3 * np.abs(g_fd))
        assert ok.all(), (point, diff, g_fd)
    assert time.perf_counter() - t0 < 120.0


def test_A4_kernel_power_mass_bounded_by_matrix_power():
    t0 = time.perf_counter()
    rng = np.random.default_rng(17)
    grid = ConvGrid.make(60.0, 0.02)
    for _ in range(20):
        params = ModelParams(
            d=3, e=3,
            theta=rng.uniform(0.5, 2.0, size=(3, 3)),
            alpha=rng.uniform(0.0, 0.4, size=(3, 3)),
            gamma=np.zeros(3), nu=np.zeros(3),
        )
        u = grid.points[:, None, None]
        phi = kernel(params.alpha, params.theta, u)
        D = np.concatenate([np.zeros((1, 3, 3)), np.diff(
            kernel_integral(params.alpha, params.theta, u), axis=0)])
        term = phi
        apower = params.alpha.copy()
        for n in range(1, 5):
            mass = np.trapezoid(term, dx=grid.dt, axis=0)
            assert np.all(mass <= apower * 1.02 + 1e-12), (n, mass, apower)
            term = _fft_conv(D, term)
            apower = apower @ params.alpha
    assert time.perf_counter() - t0 < 60.0


def test_A5_no_censoring_and_full_censoring_limits(hawkes2):
    # no censored block: the expected intensity, compensator, and objective
    # reduce to the plain self-exciting forms
    hist = sample_hawkes(hawkes2, 30.0, seed=40)
    grid = ConvGrid.make(30.0, 0.05)
    tables = compute_h(hawkes2, grid)
    xi = xi_eval(hawkes2, hist.times, tables)
    Xi = compensator_eval(hawkes2, hist.times, tables)
    probe = grid.points[::40]
    lam = naive_intensity(hawkes2, hist.times, probe)
    Lam = naive_compensator(hawkes2, hist.times, probe)
    assert np.allclose(xi[::40], lam, rtol=1e-6, atol=1e-9)
    assert np.allclose(Xi[::40], Lam, rtol=1e-6, atol=1e-9)
    ds = Dataset(T=30.0, censored=(), events=tuple(hist.times))
    assert total_nll(hawkes2, ds) == pytest.approx(
        -naive_pp_loglik(hawkes2, hist.times, 30.0), rel=1e-6)

    # fully censored block: injected event lists cannot influence the output
    full = ModelParams(d=2, e=2, theta=np.ones((2, 2)),
                       alpha=[[0.3, 0.2], [0.2, 0.3]],
                       gamma=[0.0, 0.0], nu=[0.4, 0.4])
    tab2 = compute_h(full, grid)
    empty = [np.zeros(0), np.zeros(0)]
    fake = [np.array([1.0, 4.5]), np.array([2.0, 3.0, 7.0])]
    assert np.array_equal(xi_eval(full, empty, tab2), xi_eval(full, fake, tab2))
    assert np.array_equal(compensator_eval(full, empty, tab2),
                          compensator_eval(full, fake, tab2))
    t_q = np.array([0.0, 3.3, 12.7, 29.9])
    v_empty = PoiEvaluator(full, empty).values(t_q)
    v_fake = PoiEvaluator(full, fake).values(t_q)
    assert np.array_equal(v_empty.xi, v_fake.xi)
    assert np.array_equal(v_empty.Xi, v_fake.Xi)


def test_A6_compensator_forecast_matches_sampled_forecast(ref_params):
    t0 = time.perf_counter()
    T_train = 10.0
    hist = sample_pmbp(ref_params, T_train, seed=123)
    bounds = np.arange(int(T_train) + 1, dtype=float)
    ds = Dataset(
        T=T_train,
        censored=(CensoredSeries(bounds, np.histogram(hist.times[0], bounds)[0]),),
        events=(hist.times[1],),
    )
    bnds = np.arange(10.0, 21.0)
    fast = predict_counts(ref_params, ds, bnds, n_samples=1000, seed=9)
    ref = sampled_forecast(ref_params, ds, bnds, n_samples=1000, seed=10)
    m_fast, m_ref = fast.mean[:, 0], ref.count_mean[:, 0]
    small = m_ref < 0.5
    ok = np.where(
        small,
        np.abs(m_fast - m_ref) <= 0.1,
        np.abs(m_fast - m_ref) <= 0.05 * np.abs(m_ref),
    )
    assert ok.all(), (m_fast, m_ref)
    assert time.perf_counter() - t0 < 300.0


def test_A7_joint_fits_recover_branching_radius():
    t0 = time.perf_counter()
    truth = ModelParams(d=2, e=0, theta=np.ones((2, 2)),
                        alpha=[[0.3, 0.2], [0.2, 0.3]],
                        gamma=[0.0, 0.0], nu=[0.4, 0.4])
    assert spectral_radius(truth.alpha) == pytest.approx(0.5)
    _, summary = recovery_experiment(
        truth, n_sequences=50, group_size=10, censor_widths=[1.0], seed=2026,
        T=60.0,
        fit_config=FitConfig(n_starts=2, max_iter=250, tol_f=1e-6),
    )
    med = {row["likelihood_mode"]: row["median"]
           for row in summary if row["param_name"] == "rho_alpha"}
    assert abs(med["PP-PP"] - 0.5) <= 0.10, med
    assert abs(med["IC-PP[1]"] - 0.5) <= 0.15, med
    assert time.perf_counter() - t0 < 1800.0


def test_A8_intensity_error_shrinks_with_the_grid(ref_params, ref_events):
    err_fine = _max_rel_err(ref_params, ref_events, 0.01)
    err_coarse = _max_rel_err(ref_params, ref_events, 0.02)
    assert err_fine / err_coarse <= 0.65, (err_fine, err_coarse)


def test_A9_diagnostics_calibrated_under_the_true_model():
    # (a) time rescaling on a >=1000-event self-exciting realization
    hp = ModelParams(d=2, e=0, theta=[[1.0, 1.0], [0.2, 0.5]],
                     alpha=np.full((2, 2), 0.4), gamma=[0.0, 0.0],
                     nu=[0.5, 0.5])
    hist = sample_hawkes(hp, 450.0, seed=7)
    assert sum(ts.size for ts in hist.times) >= 1000
    ev_hp = PoiEvaluator(hp, hist.times)
    for dim in range(2):
        _, _, p = gof_time_rescaling(
            hist.times[dim], lambda arr: ev_hp.values(arr).Xi[:, dim]
        )
        assert p >= 0.01, (dim, p)

    # (b) count-residual normality over 120 windows whose conditional means
    # are large, with counts drawn from those means
    pp = ModelParams(d=2, e=1, theta=np.ones((2, 2)),
                     alpha=[[0.3, 0.2], [0.2, 0.3]],
                     gamma=[0.0, 0.0], nu=[2.0, 2.0])
    T, width = 480.0, 4.0
    path = sample_pmbp(pp, T, seed=3)
    ev = PoiEvaluator(pp, [np.zeros(0), path.times[1]])
    bounds = width * np.arange(int(T / width) + 1)
    inc = np.diff(ev.values(bounds).Xi[:, 0])
    assert inc.size == 120
    counts = np.random.default_rng(42).poisson(inc)
    _, _, p_norm = gof_anscombe(counts, inc)
    assert p_norm >= 0.01, p_norm

    # (c) the calibration score sits in the well-specified band
    score = fit_score(counts, inc)
    assert 0.88 <= score <= 1.0, score


def test_A10_cli_outputs_are_bitwise_reproducible(tmp_path):
    runner = CliRunner()
    hp = ModelParams(d=2, e=0, theta=[[1.0, 1.0], [0.2, 0.5]],
                     alpha=[[0.3, 0.2], [0.2, 0.3]], gamma=[0.0, 0.0],
                     nu=[0.4, 0.4])
    pp = hp.replace(e=1)
    hawkes_json = tmp_path / "hawkes.json"
    pmbp_json = tmp_path / "pmbp.json"
    hawkes_json.write_text(hp.to_json())
    pmbp_json.write_text(pp.to_json())

    def run(args):
        res = runner.invoke(cli_main, args, catch_exceptions=False)
        assert res.exit_code == 0, res.output

    def twice(args, outputs):
        run(args)
        first = [p.read_bytes() for p in outputs]
        run(args)
        assert [p.read_bytes() for p in outputs] == first

    ev = tmp_path / "ev.jsonl"
    twice(["sample-hawkes", "--params", str(hawkes_json), "--t-end", "15",
           "--seed", "3", "--out", str(ev)], [ev])
    evp = tmp_path / "evp.jsonl"
    twice(["sample-pmbp", "--params", str(pmbp_json), "--t-end", "12",
           "--seed", "4", "--out", str(evp)], [evp])
    ds = tmp_path / "ds.json"
    twice(["censor", "--events", str(evp), "--dims", "1", "--width", "2",
           "--out", str(ds)], [ds])
    vals = tmp_path / "vals.csv"
    twice(["evaluate", "--params", str(pmbp_json), "--data", str(ds),
           "--step", "0.5", "--out", str(vals)], [vals])
    fitj = tmp_path / "fit.json"
    twice(["fit", "--data", str(ds), "--n-starts", "1",
           "--max-iter", "15", "--seed", "2", "--out", str(fitj)], [fitj])
    pred = tmp_path / "pred.csv"
    twice(["predict", "--params", str(pmbp_json), "--data", str(ds),
           "--horizon", "4", "--width", "2", "--out", str(pred)], [pred])
    gofj = tmp_path / "gof.json"
    twice(["gof", "--params", str(pmbp_json), "--data", str(ds),
           "--out", str(gofj)], [gofj])
    gcj = tmp_path / "gc.json"
    twice(["grad-check", "--params", str(pmbp_json), "--data", str(ds),
           "--n-points", "1", "--seed", "6",
           "--out", str(gcj)], [gcj])
    rows, summ = tmp_path / "rows.csv", tmp_path / "summary.csv"
    twice(["recover", "--params", str(hawkes_json), "--n-sequences", "2",
           "--group-size", "1", "--t-end", "12",
           "--censor-widths", "2", "--seed", "3", "--n-starts", "1",
           "--max-iter", "10", "--threads", "2",
           "--out-rows", str(rows), "--out-summary", str(summ)], [rows, summ])
    with open(ev) as fp:
        assert read_events(fp).T == 15.0
