"""Fully observed self-exciting process: the e = 0 evaluator against direct
summation, and the thinning samplers."""

import numpy as np
import pytest

from pmbp import (
    Dataset,
    EventHistory,
    ExplosionError,
    ModelParams,
    PoiEvaluator,
    sample_conditional_hawkes,
    sample_hawkes,
    total_nll,
)

from oracles import naive_compensator, naive_intensity, naive_pp_loglik


@pytest.fixture(scope="module")
def p2():
    return ModelParams(
        d=2, e=0,
        theta=[[1.0, 2.0], [0.5, 0.7]],
        alpha=[[0.3, 0.1], [0.25, 0.2]],
        gamma=[0.0, 0.0],
        nu=[0.6, 0.3],
    )


@pytest.fixture(scope="module")
def ev2():
    return [np.array([0.4, 1.1, 2.0]), np.array([0.9, 2.6])]


def test_intensity_matches_oracle(p2, ev2):
    t = np.array([0.0, 0.5, 1.0, 1.57, 3.3])
    got = PoiEvaluator(p2, ev2).values(t).xi
    want = naive_intensity(p2, ev2, t)
    assert np.allclose(got, want, rtol=1e-12)


def test_intensity_left_limit_excludes_own_event(p2, ev2):
    # evaluation at an event time uses events strictly before it
    xi = PoiEvaluator(p2, ev2).values([1.1, 1.1 - 1e-9]).xi
    assert np.allclose(xi[0], xi[1], rtol=1e-6)
    assert np.allclose(xi[0], naive_intensity(p2, ev2, [1.1])[0], rtol=1e-12)


def test_compensator_matches_oracle(p2, ev2):
    t = np.array([0.0, 0.7, 1.3, 2.9, 4.0])
    got = PoiEvaluator(p2, ev2).values(t).Xi
    want = naive_compensator(p2, ev2, t)
    assert np.allclose(got, want, rtol=1e-12)


def test_empty_history_is_poisson(p2):
    empty = [np.zeros(0), np.zeros(0)]
    t = np.array([0.5, 2.0])
    vals = PoiEvaluator(p2, empty).values(t)
    assert np.allclose(vals.xi, np.tile(p2.nu, (2, 1)))
    assert np.allclose(vals.Xi, t[:, None] * p2.nu[None, :])


def test_loglik_matches_oracle(p2, ev2):
    # the objective at e = 0 is the point-process log-likelihood, negated
    got = -total_nll(p2, Dataset(T=4.0, censored=(), events=tuple(ev2)))
    want = naive_pp_loglik(p2, ev2, 4.0)
    assert got == pytest.approx(want, rel=1e-12)


def test_loglik_poisson_closed_form():
    p = ModelParams(d=1, e=0, theta=[[1.0]], alpha=[[0.0]],
                    gamma=[0.0], nu=[2.0])
    ev = (np.array([0.3, 1.2, 2.8]),)
    # homogeneous rate 2 on [0, 4]: 3 log 2 - 8
    got = -total_nll(p, Dataset(T=4.0, censored=(), events=ev))
    assert got == pytest.approx(3 * np.log(2.0) - 8.0)


def test_sampler_deterministic(p2):
    a = sample_hawkes(p2, 50.0, 123)
    b = sample_hawkes(p2, 50.0, 123)
    c = sample_hawkes(p2, 50.0, 124)
    for ta, tb in zip(a.times, b.times):
        assert np.array_equal(ta, tb)
    assert any(
        ta.size != tc.size or not np.array_equal(ta, tc)
        for ta, tc in zip(a.times, c.times)
    )


def test_sampler_output_valid(p2):
    h = sample_hawkes(p2, 50.0, 5)
    assert isinstance(h, EventHistory)
    assert h.T == 50.0
    for ts in h.times:
        assert np.all(np.diff(ts) > 0)
        assert ts.size == 0 or (ts[0] >= 0 and ts[-1] < 50.0)


def test_sampler_poisson_special_case():
    p = ModelParams(d=2, e=0, theta=np.ones((2, 2)), alpha=np.zeros((2, 2)),
                    gamma=[0.0, 0.0], nu=[3.0, 1.0])
    counts = np.array([
        [len(ts) for ts in sample_hawkes(p, 20.0, s).times]
        for s in range(200)
    ])
    mean = counts.mean(axis=0)
    se = counts.std(axis=0) / np.sqrt(200)
    assert np.all(np.abs(mean - [60.0, 20.0]) < 3.5 * se)


def test_sampler_mean_counts_match_stationary_rate(p2):
    # subcritical stationary rate solves (I - alpha) rate = nu
    rate = np.linalg.solve(np.eye(2) - p2.alpha, p2.nu)
    counts = np.array([
        [len(ts) for ts in sample_hawkes(p2, 100.0, s).times]
        for s in range(150)
    ])
    mean = counts.mean(axis=0) / 100.0
    se = counts.std(axis=0) / np.sqrt(150) / 100.0
    # edge effects make the finite-horizon mean slightly lower; 4 s.e. + 2%
    assert np.all(np.abs(mean - rate) < 4 * se + 0.02 * rate)


def test_sampler_explosion_guard():
    p = ModelParams(d=1, e=0, theta=[[1.0]], alpha=[[1.5]],
                    gamma=[0.0], nu=[5.0])
    with pytest.raises(ExplosionError):
        sample_hawkes(p, 1e6, 0, max_events=2000)


def test_conditional_sampler_keeps_conditioning_events(p2):
    obs = [np.zeros(0), np.array([1.0, 3.0, 7.0])]
    h = sample_conditional_hawkes(p2, obs, 10.0, 9)
    assert np.array_equal(h.times[1], obs[1])
    assert np.all(np.diff(h.times[0]) > 0)


def test_conditional_sampler_deterministic(p2):
    obs = [np.zeros(0), np.array([1.0, 3.0])]
    a = sample_conditional_hawkes(p2, obs, 10.0, 77)
    b = sample_conditional_hawkes(p2, obs, 10.0, 77)
    for ta, tb in zip(a.times, b.times):
        assert np.array_equal(ta, tb)
