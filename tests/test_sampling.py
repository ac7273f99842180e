"""Exact sampler and count forecasts."""

import numpy as np
import pytest

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
    gof_time_rescaling,
    predict_counts,
    predict_counts_sampled,
    sample_hawkes,
    sample_pmbp,
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
