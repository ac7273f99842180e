"""Goodness-of-fit diagnostics."""

import json

import numpy as np
import pytest
from scipy import stats

from pmbp import (
    CensoredSeries,
    Dataset,
    DomainError,
    InsufficientDataError,
    NumericalConsistencyError,
    PoiEvaluator,
    fit_score,
    gof_anscombe,
    gof_report,
    gof_time_rescaling,
    sample_pmbp,
)

from oracles import naive_compensator


# ---------------------------------------------------------------------------
# time rescaling


def test_time_rescaling_identity_on_unit_exponential():
    rng = np.random.default_rng(0)
    times = np.cumsum(rng.exponential(1.0, size=500))
    res, stat, p = gof_time_rescaling(times, lambda t: t)
    assert res.shape == (499,)
    assert np.allclose(res, np.diff(times))
    assert p > 0.01


def test_time_rescaling_rejects_regular_grid():
    times = np.arange(1.0, 200.0)
    _, _, p = gof_time_rescaling(times, lambda t: t)
    assert p < 1e-6


def test_time_rescaling_true_hawkes_model(hawkes2, hawkes_path):
    ev = PoiEvaluator(hawkes2, hawkes_path.times)
    for dim in range(2):
        times = hawkes_path.times[dim]
        assert np.allclose(
            ev.values(times).Xi,
            naive_compensator(hawkes2, hawkes_path.times, times),
            rtol=1e-12,
        )
        res, _, p = gof_time_rescaling(
            times, lambda t: ev.values(t).Xi[:, dim]
        )
        assert res.size == times.size - 1
        assert np.all(res >= 0)
        assert p > 0.01


def test_time_rescaling_errors():
    with pytest.raises(InsufficientDataError):
        gof_time_rescaling(np.array([1.0]), lambda t: t)
    with pytest.raises(DomainError):
        gof_time_rescaling(np.ones((2, 2)), lambda t: t)
    with pytest.raises(DomainError):
        gof_time_rescaling(np.array([1.0, 2.0]), lambda t: np.zeros(5))


# ---------------------------------------------------------------------------
# variance-stabilised count residuals


@pytest.mark.filterwarnings("ignore:`kurtosistest` p-value may be inaccurate")
def test_anscombe_residual_formula():
    counts = np.array([3.0, 7.0, 11.0, 2.0, 5.0, 9.0, 4.0, 6.0])
    inc = np.full(8, 6.0)
    res, _, _ = gof_anscombe(counts, inc)
    assert np.allclose(res, 2 * (np.sqrt(counts + 0.375) - np.sqrt(6.375)))


def test_anscombe_accepts_true_poisson_counts():
    rng = np.random.default_rng(42)
    inc = np.full(120, 16.0)
    counts = rng.poisson(inc)
    _, _, p = gof_anscombe(counts, inc)
    assert p > 0.01


def test_anscombe_rejects_heavy_tailed_counts():
    rng = np.random.default_rng(1)
    inc = np.full(120, 16.0)
    counts = rng.poisson(inc).astype(float)
    counts[::17] *= 5.0  # a few gross outliers break normality
    _, _, p = gof_anscombe(counts, inc)
    assert p < 1e-4


def test_anscombe_errors():
    good = np.full(8, 4.0)
    with pytest.raises(NumericalConsistencyError):
        gof_anscombe(good, np.array([1.0] * 7 + [0.0]))
    with pytest.raises(NumericalConsistencyError):
        gof_anscombe(good, np.array([1.0] * 7 + [np.nan]))
    with pytest.raises(InsufficientDataError):
        gof_anscombe(good[:5], good[:5])
    with pytest.raises(DomainError):
        gof_anscombe(good, good[:5])


# ---------------------------------------------------------------------------
# calibration score


def test_fit_score_calibrated_and_miscalibrated():
    rng = np.random.default_rng(2)
    inc = np.full(200, 12.0)
    good = rng.poisson(inc)
    assert fit_score(good, inc) > 0.88
    assert fit_score(good * 3, inc) < 0.2


def test_fit_score_band_is_the_exact_poisson_quantiles():
    inc = np.array([5.0, 12.0, 40.0, 100.0])
    lo, hi = stats.poisson.ppf([[0.025], [0.975]], inc)
    assert np.all(lo >= 1.0)
    # both ends of the band are inside; one count past either is outside
    assert fit_score(lo, inc) == 1.0
    assert fit_score(hi, inc) == 1.0
    assert fit_score(lo - 1.0, inc) == 0.0
    assert fit_score(hi + 1.0, inc) == 0.0
    # a window with a zero increment has the band [0, 0]
    assert fit_score([0.0, 1.0], [0.0, 0.0]) == 0.5


def test_fit_score_determinism_and_errors(monkeypatch):
    counts = np.array([4.0, 5.0, 6.0])
    inc = np.array([5.0, 5.0, 5.0])
    first = fit_score(counts, inc)

    def refuse(*args, **kwargs):
        raise AssertionError("fit_score drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    assert all(fit_score(counts, inc) == first for _ in range(3))
    with pytest.raises(TypeError):
        fit_score(counts, inc, seed=7)
    with pytest.raises(DomainError):
        fit_score(counts, -inc)
    with pytest.raises(InsufficientDataError):
        fit_score(np.zeros(0), np.zeros(0))


# ---------------------------------------------------------------------------
# whole-dataset report


@pytest.fixture(scope="module")
def report_setup(pmbp21_sub):
    T, width = 60.0, 2.0
    hist = sample_pmbp(pmbp21_sub, T, seed=77)
    bounds = width * np.arange(int(T / width) + 1)
    counts = np.histogram(hist.times[0], bounds)[0]
    ds = Dataset(T=T, censored=(CensoredSeries(bounds, counts),),
                 events=(hist.times[1],))
    return pmbp21_sub, ds


def test_gof_report_structure(report_setup):
    params, ds = report_setup
    rep = gof_report(params, ds)
    assert 1 in rep.normality and 1 in rep.fit_scores
    assert 2 in rep.ks
    assert 0.0 <= rep.fit_scores[1] <= 1.0
    doc = rep.to_dict()
    assert set(doc["dimensions"]) == {"1", "2"}
    json.dumps(doc)


def test_gof_report_skips_underpowered_dimensions(pmbp21_sub):
    # three windows and one event: both tests are data-starved and must be
    # reported as skipped rather than raising
    ds = Dataset(
        T=3.0,
        censored=(CensoredSeries([0.0, 1.0, 2.0, 3.0], [1.0, 0.0, 2.0]),),
        events=(np.array([1.5]),),
    )
    rep = gof_report(pmbp21_sub, ds)
    assert 1 in rep.skipped
    assert 2 in rep.skipped
    assert 1 not in rep.normality and 2 not in rep.ks


def test_gof_report_scores_coverage_without_the_normality_test(pmbp21_sub):
    # five windows are too few for the normality test, not for the coverage
    # score, which the report still gives
    ds = Dataset(
        T=5.0,
        censored=(CensoredSeries(np.arange(6.0), [1.0, 0.0, 2.0, 0.0, 1.0]),),
        events=(np.array([0.5, 1.5, 3.0]),),
    )
    rep = gof_report(pmbp21_sub, ds)
    assert "8 windows" in rep.skipped[1] and 1 not in rep.normality
    inc = np.diff(PoiEvaluator(pmbp21_sub, ds.event_list())
                  .values(np.arange(6.0)).Xi[:, 0])
    assert rep.fit_scores[1] == fit_score(ds.censored[0].counts, inc)
    assert 2 in rep.ks
