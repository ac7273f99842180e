"""Exact sampler and count forecasts."""

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pmbp.sampling

from pmbp import (
    CensoredSeries,
    Dataset,
    ExplosionError,
    ModelParams,
    NumericalConsistencyError,
    ParameterError,
    PoiEvaluator,
    RegularityError,
    censor,
    gof_time_rescaling,
    predict_counts,
    predict_counts_sampled,
    sample_hawkes,
    sample_pmbp,
    write_dataset,
)
from pmbp.cli import main as cli_main
from pmbp.poi import _Layout
from oracles import (
    compensator_forecast_mc,
    exact_width_moments,
    kron_moment_step,
    scipy_continue,
)


def test_pure_poisson_counts():
    # zero jump matrix and full censoring: the sampler must reproduce a
    # homogeneous Poisson stream with mean nu*T
    params = ModelParams(d=1, e=1, theta=[[1.0]], alpha=[[0.0]],
                         gamma=[0.0], nu=[1.5])
    T, n = 20.0, 200
    counts = [sample_pmbp(params, T, seed=s).counts()[0] for s in range(n)]
    lam = 1.5 * T
    se = np.sqrt(lam / n)
    assert abs(np.mean(counts) - lam) < 3.5 * se


def test_matches_hawkes_sampler_in_distribution(hawkes2):
    # no censored block: the inversion sampler targets the same law as the
    # thinning Hawkes sampler, so count means must agree
    T, n = 30.0, 150
    c_thin = np.array([sample_pmbp(hawkes2, T, seed=s).counts() for s in range(n)])
    c_ref = np.array(
        [sample_hawkes(hawkes2, T, seed=10_000 + s).counts() for s in range(n)]
    )
    se = np.sqrt((c_thin.var(axis=0) + c_ref.var(axis=0)) / n)
    assert np.all(np.abs(c_thin.mean(axis=0) - c_ref.mean(axis=0)) < 4 * se)


def _rescaling_model(d, e):
    rng = np.random.default_rng(100 * d + e)
    return ModelParams(d=d, e=e, theta=rng.uniform(0.5, 2.0, (d, d)),
                       alpha=rng.uniform(0.05, 0.25, (d, d)),
                       gamma=np.full(d, 0.3), nu=np.full(d, 0.5))


@pytest.mark.parametrize("d,e", [(1, 0), (2, 1), (3, 2), (3, 3)])
def test_time_rescaling_of_sampled_paths(d, e):
    # mapped through the exact compensator given the path's own observed
    # events, every dimension's waiting times are unit exponential
    params = _rescaling_model(d, e)
    hist = sample_pmbp(params, 200.0, seed=2021)
    ev = PoiEvaluator(params, hist.times)
    for dim in range(d):
        _, _, p = gof_time_rescaling(
            hist.times[dim], lambda t: ev.values(t).Xi[:, dim]
        )
        assert p >= 0.01, (dim, p)


def test_censored_counts_match_compensator_paired(pmbp21_sub):
    # for each realization, the censored-dim count minus the compensator
    # given that realization's own observed events is mean-zero; also with
    # a fast censored kernel
    T, n = 40.0, 200
    fast = pmbp21_sub.replace(theta=[[200.0, 1.0], [1.0, 1.0]])
    for params in (pmbp21_sub, fast):
        diffs = []
        for s in range(n):
            hist = sample_pmbp(params, T, seed=s)
            ev = PoiEvaluator(params, [np.zeros(0), hist.times[1]])
            Xi_T = ev.values(np.array([T])).Xi[0, 0]
            diffs.append(hist.counts()[0] - Xi_T)
        diffs = np.asarray(diffs)
        se = diffs.std(ddof=1) / np.sqrt(n)
        assert abs(diffs.mean()) < 4 * se


def test_sampler_determinism(pmbp21_sub):
    h1 = sample_pmbp(pmbp21_sub, 15.0, seed=99)
    h2 = sample_pmbp(pmbp21_sub, 15.0, seed=99)
    h3 = sample_pmbp(pmbp21_sub, 15.0, seed=100)
    assert all(np.array_equal(a, b) for a, b in zip(h1.times, h2.times))
    assert any(not np.array_equal(a, b) for a, b in zip(h1.times, h3.times))


def test_supercritical_censored_block_raises(pmbp21_sub):
    bad = pmbp21_sub.replace(alpha=[[1.0, 0.2], [0.2, 0.3]])
    with pytest.raises(RegularityError):
        sample_pmbp(bad, 10.0, seed=0)
    ds = _trained_dataset(pmbp21_sub)
    with pytest.raises(RegularityError):
        predict_counts(bad, ds, [10.0, 11.0], n_samples=2, seed=0)


def test_unconverged_inversion_raises(pmbp21_sub, monkeypatch):
    # one Newton step cannot reach the tolerance on an excited path; the
    # sampler must say so rather than return an inexact event time
    monkeypatch.setattr(pmbp.sampling, "_NEWTON_MAX_ITER", 1)
    with pytest.raises(NumericalConsistencyError):
        sample_pmbp(pmbp21_sub, 15.0, seed=99)


def _subcritical_model(d, e, theta, seed):
    """alpha scaled to a spectral radius in [0.1, 0.8]; theta one value
    everywhere or, for None, log-uniform on [1e-3, 1e3] per entry."""
    rng = np.random.default_rng(seed)
    if theta is None:
        theta = 10.0 ** rng.uniform(-3.0, 3.0, (d, d))
    alpha = rng.uniform(0.0, 1.0, (d, d))
    alpha *= rng.uniform(0.1, 0.8) / np.abs(np.linalg.eigvals(alpha)).max()
    return ModelParams(d=d, e=e, theta=np.broadcast_to(theta, (d, d)),
                       alpha=alpha, gamma=rng.uniform(0.0, 0.5, d),
                       nu=rng.uniform(0.2, 1.0, d))


@settings(max_examples=40, deadline=None)
@given(d=st.integers(1, 4), data=st.data(), seed=st.integers(0, 2**32 - 1),
       theta=st.sampled_from([None, 1.0, 1e-3, 1e3]))
def test_sampler_matches_scipy_reference(d, data, seed, theta):
    # the Taylor table and the expm ladder draw the same events as one
    # scipy.linalg.expm per trial step, for the same Exp(1) and uniform
    # draws; theta = 1 everywhere makes the generator defective
    e = data.draw(st.integers(0, d), label="e")
    params = _subcritical_model(d, e, theta, seed)
    rate = np.linalg.solve(np.eye(d) - params.alpha, params.nu)
    T = 30.0 / rate.sum()
    lay = _Layout(params, full=True)

    def run(cont, stops):
        return cont(lay, lay.x0, 0.0, stops, range(d),
                    np.random.default_rng(seed), 10_000)

    events = np.sort(np.concatenate(run(scipy_continue, [T])[0]))
    # stops just after events, midway between others, and the horizon
    near = events[::3] + 1e-9 * T
    far = 0.5 * (events[:-1] + events[1:])[1::3]
    stops = np.unique(np.concatenate([near, far, [T]]))
    stops = stops[stops <= T]
    times, integrals = run(pmbp.sampling._continue, stops)
    ref_times, ref_integrals = run(scipy_continue, stops)
    for got, want in zip(times, ref_times):
        assert len(got) == len(want)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-8)
    # a shift of 1e-8 in an event time moves a window's integral by up to
    # 1e-8 times the intensity's jump at the event
    jump = (params.alpha * params.theta).sum(axis=1).max()
    np.testing.assert_allclose(integrals, ref_integrals, rtol=1e-8,
                               atol=1e-8 * (1.0 + jump))


# intensities in tenths put u * sum(lam) on a cumulative boundary often
_TENTHS = st.integers(0, 40).map(lambda v: v / 10)


@settings(max_examples=300, deadline=None)
@given(lam=st.lists(st.one_of(_TENTHS, st.floats(0.0, 1e3)), min_size=1,
                    max_size=12),
       k=st.integers(0, 11),
       free=st.none() | st.floats(0.0, 1.0, exclude_max=True))
# r exactly on a boundary, after a zero intensity, and at u = 0
@example(lam=[1.0, 1.0, 2.0], k=0, free=None)
@example(lam=[0.0, 2.0, 0.0, 2.0], k=1, free=None)
@example(lam=[0.0, 0.0, 1.0], k=0, free=0.0)
@example(lam=[0.0, 0.0], k=0, free=0.3)
# 8 intensities, where NumPy's pairwise sum differs from the running sum
# by enough to move the draw
@example(lam=[0.9, 1.2, 0.7, 0.6, 0.6, 0.6, 0.0, 2.2], k=0,
         free=0.30882352941176466)
def test_dimension_draw_matches_searchsorted(lam, k, free):
    # the scalar draw picks the index the array search picks, clipped to
    # the last dimension; free=None puts u * sum(lam) on the k-th
    # cumulative sum
    lam = np.array(lam)
    cum = np.cumsum(lam)
    total = float(lam.sum())
    if free is not None:
        u = free
    else:
        u = float(cum[k % lam.size]) / total if total > 0 else 0.5
    want = min(int(np.searchsorted(cum, u * lam.sum(), side="right")),
               lam.size - 1)
    assert pmbp.sampling._pick(lam, u) == want


def test_continue_requires_zero_integrals(pmbp21_sub):
    lay = _Layout(pmbp21_sub, full=True)
    x = lay.x0.copy()
    x[lay.I[0]] = 1.0
    with pytest.raises(ValueError):
        pmbp.sampling._continue(lay, x, 0.0, [1.0], range(2),
                                np.random.default_rng(0), 100)


def test_explosion_guard():
    params = ModelParams(d=1, e=0, theta=[[1.0]], alpha=[[1.5]],
                         gamma=[0.0], nu=[1.0])
    with pytest.raises(ExplosionError):
        sample_pmbp(params, 200.0, seed=0, max_events=1000)


def _trained_dataset(params, T=10.0, seed=123, width=1.0):
    hist = sample_pmbp(params, T, seed=seed)
    bounds = width * np.arange(int(T / width) + 1)
    counts = np.histogram(hist.times[0], bounds)[0]
    return Dataset(T=T, censored=(CensoredSeries(bounds, counts),),
                   events=(hist.times[1],))


def test_predict_zero_alpha_is_exact():
    params = ModelParams(d=2, e=1, theta=np.ones((2, 2)),
                         alpha=np.zeros((2, 2)), gamma=[0.0, 0.0],
                         nu=[1.2, 0.8])
    ds = _trained_dataset(params)
    bnds = ds.T + np.arange(4.0)
    pred = predict_counts(params, ds, bnds, n_samples=20, seed=1)
    # without excitation the increment is deterministic: nu_1 * width
    assert np.allclose(pred.mean[:, 0], 1.2, rtol=1e-9)
    assert np.allclose(pred.sd, 0.0, atol=1e-9)
    assert pred.n_failed == 0


def test_predict_without_censored_block(hawkes2):
    # no censored dimension: both forecasts return an empty count table
    ds = Dataset(T=5.0, censored=(), events=(np.array([1.0]), np.array([2.0])))
    for predict in (predict_counts, predict_counts_sampled):
        pred = predict(hawkes2, ds, [5.0, 6.0, 7.0], n_samples=3, seed=0)
        assert pred.mean.shape == (2, 0) and pred.n_samples == 3


def test_predict_determinism(pmbp21_sub):
    ds = _trained_dataset(pmbp21_sub)
    bnds = ds.T + np.arange(3.0)
    p1 = predict_counts(pmbp21_sub, ds, bnds, n_samples=30, seed=8)
    p2 = predict_counts(pmbp21_sub, ds, bnds, n_samples=30, seed=8)
    assert np.array_equal(p1.mean, p2.mean)
    assert np.array_equal(p1.sd, p2.sd)


def test_predict_agrees_with_sampled_reference(pmbp21_sub):
    ds = _trained_dataset(pmbp21_sub)
    bnds = np.array([10.0, 12.0, 14.0])
    fast = predict_counts(pmbp21_sub, ds, bnds, n_samples=150, seed=9)
    ref = predict_counts_sampled(pmbp21_sub, ds, bnds, n_samples=400, seed=10)
    se = ref.sd[:, 0] / np.sqrt(ref.n_samples)
    assert np.all(np.abs(fast.mean[:, 0] - ref.mean[:, 0]) < 4 * se + 0.05)


def test_sampled_forecast_builds_steps_once(pmbp21_sub, monkeypatch):
    # the samples of one call share one set of step tables, and draw the
    # same counts as when every sample builds its own
    ds = _trained_dataset(pmbp21_sub)
    bnds = np.array([10.0, 12.0, 14.0])
    built = []

    class Counted(pmbp.sampling._Steps):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(pmbp.sampling, "_Steps", Counted)
    shared = predict_counts_sampled(pmbp21_sub, ds, bnds, n_samples=20, seed=3)
    assert len(built) == 1
    # dropping the shared tables makes every sample build its own
    cont = pmbp.sampling._continue
    monkeypatch.setattr(pmbp.sampling, "_continue",
                        lambda *args, steps: cont(*args))
    built.clear()
    rebuilt = predict_counts_sampled(pmbp21_sub, ds, bnds, n_samples=20,
                                     seed=3)
    assert len(built) == 1 + 20
    assert np.array_equal(shared.mean, rebuilt.mean)
    assert np.array_equal(shared.sd, rebuilt.sd)


def test_predict_boundary_validation(pmbp21_sub):
    ds = _trained_dataset(pmbp21_sub)
    with pytest.raises(ParameterError):
        predict_counts(pmbp21_sub, ds, [5.0, 6.0], n_samples=5, seed=0)
    with pytest.raises(ParameterError):
        predict_counts(pmbp21_sub, ds, [10.0], n_samples=5, seed=0)
    with pytest.raises(ParameterError):
        predict_counts(pmbp21_sub, ds, [10.0, 12.0, 11.0], n_samples=5, seed=0)
    with pytest.raises(ParameterError):
        predict_counts(pmbp21_sub, ds, [10.0, 12.0], n_samples=0, seed=0)
    with pytest.raises(ParameterError):
        predict_counts(pmbp21_sub.replace(e=0), ds, [10.0, 12.0], n_samples=5,
                       seed=0)
    for bad in ([5.0, 6.0], [10.0], [10.0, 12.0, 11.0]):
        with pytest.raises(ParameterError):
            predict_counts_sampled(pmbp21_sub, ds, bad, n_samples=5, seed=0)
    with pytest.raises(ParameterError):
        predict_counts_sampled(pmbp21_sub, ds, [10.0, 12.0], n_samples=0, seed=0)
    with pytest.raises(ParameterError):
        predict_counts_sampled(pmbp21_sub.replace(e=0), ds, [10.0, 12.0],
                               n_samples=5, seed=0)


# pmbp predict --horizon 10 --width 0.1 after T = 60.3: T + k * 0.1 gives
# windows of three float widths, equal to 1e-12
_ROUNDED_T = 60.3
_ROUNDED_BNDS = _ROUNDED_T + np.minimum(0.1 * np.arange(101), 10.0)


def test_predict_shares_one_step_across_rounded_widths(pmbp21_sub, tmp_path,
                                                      monkeypatch):
    assert np.unique(np.diff(_ROUNDED_BNDS)).size == 3
    params_path, data_path = tmp_path / "params.json", tmp_path / "ds.json"
    params_path.write_text(pmbp21_sub.to_json())
    with open(data_path, "w") as fp:
        write_dataset(_trained_dataset(pmbp21_sub, T=_ROUNDED_T), fp)
    widths = []
    step = pmbp.sampling._moment_step
    monkeypatch.setattr(pmbp.sampling, "_moment_step",
                        lambda A, F, w: widths.append(w) or step(A, F, w))
    res = CliRunner().invoke(cli_main, [
        "predict", "--params", str(params_path), "--data", str(data_path),
        "--horizon", "10", "--width", "0.1", "--out", str(tmp_path / "p.csv"),
    ], catch_exceptions=False)
    assert res.exit_code == 0, res.output
    assert len(widths) == 1


def test_predict_shared_step_matches_exact_widths(pmbp21_sub):
    # with one last window 1e-6 wider, which must get its own step
    ds = _trained_dataset(pmbp21_sub, T=_ROUNDED_T)
    bnds = np.append(_ROUNDED_BNDS, _ROUNDED_BNDS[-1] + 0.1 * (1 + 1e-6))
    pred = predict_counts(pmbp21_sub, ds, bnds, n_samples=1, seed=0)
    mean, sd = exact_width_moments(pmbp21_sub, ds, bnds)
    np.testing.assert_allclose(pred.mean, mean, rtol=0, atol=1e-10)
    np.testing.assert_allclose(pred.sd, sd, rtol=0, atol=1e-10)


# ---------------------------------------------------------------------------
# exactness of the forecast moments


@pytest.mark.parametrize("d,e", [(2, 1), (3, 1), (4, 2)])
def test_moment_step_matches_kronecker_expm(d, e):
    lay = pmbp.poi._Layout(_rescaling_model(d, e), full=True)
    A, F = pmbp.sampling._moment_generators(lay)
    for w in (0.3, 1.0, 7.5):
        E, T = pmbp.sampling._moment_step(A, F, w)
        E_ref, T_ref = kron_moment_step(A, F, w)
        assert np.abs(E - E_ref).max() <= 1e-12 * np.abs(E_ref).max()
        assert np.abs(T - T_ref).max() <= 1e-12 * np.abs(T_ref).max()


@pytest.mark.parametrize("d,e", [(3, 3), (3, 1)], ids=["e=d", "mute observed"])
def test_predict_without_feedback_is_the_compensator(d, e):
    # with no observed dims (e = d), or observed dims that excite nothing,
    # the censored compensator is deterministic given the training data
    params = _rescaling_model(d, e)
    ds = censor(sample_pmbp(params, 10.0, seed=5), range(1, e + 1), 1.0)
    alpha = params.alpha.copy()
    alpha[:, e:] = 0.0
    params = params.replace(alpha=alpha)
    # a gap after the horizon, then windows of unequal width
    bnds = np.array([10.5, 11.0, 12.0, 12.25, 15.0])
    pred = predict_counts(params, ds, bnds, n_samples=1, seed=0)
    Xi = PoiEvaluator(params, ds.event_list()).values(bnds).Xi
    np.testing.assert_allclose(pred.mean, np.diff(Xi[:, :e], axis=0),
                               rtol=1e-10)
    assert np.all(pred.sd == 0.0)


def test_predict_variance_is_cox_count_variance(pmbp21_sub):
    # a realized count given its compensator is Poisson, so its variance
    # is mean + sd**2
    ds = _trained_dataset(pmbp21_sub)
    bnds = np.array([10.0, 11.0, 12.0, 14.0])
    exact = predict_counts(pmbp21_sub, ds, bnds, n_samples=1, seed=0)
    n = 2000
    ref = predict_counts_sampled(pmbp21_sub, ds, bnds, n_samples=n, seed=11)
    var = exact.mean + exact.sd ** 2
    se = var * np.sqrt(2.0 / (n - 1))
    assert np.all(np.abs(ref.sd ** 2 - var) < 4 * se), (ref.sd ** 2, var)


@pytest.mark.parametrize("d,e", [(2, 1), (3, 1)])
def test_predict_matches_monte_carlo_compensator_estimator(d, e):
    params = _rescaling_model(d, e).replace(alpha=np.full((d, d), 0.2))
    ds = censor(sample_pmbp(params, 10.0, seed=7), range(1, e + 1), 1.0)
    bnds = np.array([10.0, 11.0, 12.0, 14.0])
    exact = predict_counts(params, ds, bnds, n_samples=1, seed=0)
    n = 2000
    mc_mean, mc_sd = compensator_forecast_mc(params, ds, bnds, n, seed=12)
    z = (exact.mean - mc_mean) / (mc_sd / np.sqrt(n))
    assert np.all(np.abs(z) < 4), z
    assert np.all(np.abs(exact.sd / mc_sd - 1) < 0.1), (exact.sd, mc_sd)


def test_predict_ignores_samples_and_seed(pmbp21_sub):
    ds = _trained_dataset(pmbp21_sub)
    bnds = ds.T + np.arange(4.0)
    p1 = predict_counts(pmbp21_sub, ds, bnds, n_samples=1, seed=0)
    p2 = predict_counts(pmbp21_sub, ds, bnds, n_samples=500, seed=[3, 4])
    assert np.array_equal(p1.mean, p2.mean)
    assert np.array_equal(p1.sd, p2.sd)
    assert (p1.n_samples, p2.n_samples) == (1, 500)
    assert p1.n_failed == p2.n_failed == 0


def test_predict_near_critical_censored_block(pmbp21_sub):
    params = pmbp21_sub.replace(alpha=[[0.999, 0.2], [0.2, 0.3]])
    ds = _trained_dataset(params)
    pred = predict_counts(params, ds, ds.T + np.arange(11.0), n_samples=1,
                          seed=0)
    assert np.all(np.isfinite(pred.mean)) and np.all(pred.mean >= 0)
    assert np.all(np.isfinite(pred.sd))


def test_predict_supercritical_observed_block_grows(pmbp21_sub):
    # the observed dim alone is supercritical: no sample to drop, the
    # moments grow at the mean field's rate, max eig(alpha) - 1 at theta = 1
    alpha = np.array([[0.3, 0.2], [0.2, 1.5]])
    params = pmbp21_sub.replace(alpha=alpha)
    bounds = np.arange(11.0)
    ds = Dataset(T=10.0, censored=(CensoredSeries(bounds, np.ones(10)),),
                 events=(np.array([1.0, 4.0, 9.5]),))
    pred = predict_counts(params, ds, 10.0 + np.arange(21.0), n_samples=1,
                          seed=0)
    assert np.all(np.isfinite(pred.mean)) and np.all(np.isfinite(pred.sd))
    assert np.all(np.diff(pred.mean[:, 0]) > 0)
    assert np.all(np.diff(pred.sd[:, 0]) > 0)
    rate = np.log(pred.mean[-1, 0] / pred.mean[-2, 0])
    assert rate == pytest.approx(np.linalg.eigvalsh(alpha).max() - 1, rel=1e-3)
