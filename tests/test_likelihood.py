"""Objective assembly for partially interval-censored observations."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pmbp

from pmbp import (
    CensoredSeries,
    Dataset,
    DimensionError,
    LikelihoodConfig,
    ModelParams,
    NumericalConsistencyError,
    RegularityError,
    joint_nll,
    nll_and_grad,
    pack,
    sample_hawkes,
    total_nll,
    unpack,
)
from pmbp.likelihood import icll, ppll_nll
from reference.closed_form import closed_form_pmbp21

from oracles import central_fd, naive_pp_loglik, poisson_window_nll


# ---------------------------------------------------------------------------
# window and point-process building blocks


def test_icll_matches_window_oracle():
    rng = np.random.default_rng(3)
    inc = rng.uniform(0.2, 3.0, size=12)
    bounds = np.concatenate([[0.0], np.cumsum(inc)]) + 1.5
    counts = rng.poisson(inc)
    assert icll(bounds, counts) == pytest.approx(
        poisson_window_nll(counts, inc), rel=1e-12
    )


def test_icll_zero_increment_scores_inf():
    # a counted window with no compensator mass is impossible: +inf; an
    # empty one contributes nothing
    bounds = np.array([0.0, 1.0, 1.0])
    assert icll(bounds, np.array([1.0, 2.0])) == np.inf
    assert icll(bounds, np.array([1.0, 0.0])) == 1.0


def test_icll_tolerates_roundoff_negatives_only():
    ok = icll(np.array([0.0, 1.0, 1.0 - 1e-12]), np.array([1.0, 0.0]))
    assert np.isfinite(ok)
    with pytest.raises(NumericalConsistencyError):
        icll(np.array([0.0, 1.0, 0.5]), np.array([1.0, 0.0]))


def test_icll_boundary_count_mismatch():
    with pytest.raises(DimensionError):
        icll(np.array([0.0, 1.0]), np.array([1.0, 2.0]))


def test_ppll_nll_closed_form():
    xi = np.array([2.0, 0.5, 1.0])
    assert ppll_nll(xi, 4.0) == pytest.approx(4.0 - np.sum(np.log(xi)), rel=1e-14)
    # an event at zero intensity is impossible
    assert ppll_nll(np.array([2.0, 0.0]), 1.0) == np.inf


# ---------------------------------------------------------------------------
# full objective


def _hawkes_dataset(params, T=40.0, seed=11):
    hist = sample_hawkes(params, T, seed=seed)
    return Dataset(T=T, censored=(), events=tuple(hist.times)), hist


def test_total_nll_e0_matches_hawkes_loglik(hawkes2):
    ds, hist = _hawkes_dataset(hawkes2)
    assert total_nll(hawkes2, ds) == pytest.approx(
        -naive_pp_loglik(hawkes2, hist.times, ds.T), rel=1e-6
    )


def test_weights_split_and_nu_penalty(hawkes2):
    ds, _ = _hawkes_dataset(hawkes2)
    full = total_nll(hawkes2, ds)
    only1 = total_nll(hawkes2, ds, config=LikelihoodConfig(weights=[1.0, 0.0]))
    only2 = total_nll(hawkes2, ds, config=LikelihoodConfig(weights=[0.0, 1.0]))
    assert only1 + only2 == pytest.approx(full, rel=1e-12)
    pen = total_nll(hawkes2, ds, config=LikelihoodConfig(w_nu=2.5))
    assert pen - full == pytest.approx(2.5 * np.sum(np.abs(hawkes2.nu)), rel=1e-12)


def test_joint_nll_adds_over_datasets(hawkes2):
    ds1, _ = _hawkes_dataset(hawkes2, seed=11)
    ds2, _ = _hawkes_dataset(hawkes2, T=25.0, seed=12)
    cfg = LikelihoodConfig(w_nu=1.0)
    joint = joint_nll(hawkes2, [ds1, ds2], config=cfg)
    t1 = total_nll(hawkes2, ds1, config=cfg)
    t2 = total_nll(hawkes2, ds2, config=cfg)
    # the baseline penalty enters once per objective, not once per dataset
    assert joint == pytest.approx(
        t1 + t2 - 1.0 * np.sum(np.abs(hawkes2.nu)), rel=1e-12
    )


def test_dataset_shape_mismatch(hawkes2, pmbp21_sub):
    ds, _ = _hawkes_dataset(hawkes2)
    with pytest.raises(DimensionError):
        total_nll(pmbp21_sub, ds)


def _censored_dataset(params, T=12.0, seed=5, width=1.0):
    hist = sample_hawkes(params.replace(e=0, gamma=np.zeros(params.d)), T, seed=seed)
    bounds = np.minimum(width * np.arange(int(np.ceil(T / width)) + 1), T)
    counts = np.histogram(hist.times[0], bounds)[0]
    return Dataset(
        T=T,
        censored=(CensoredSeries(boundaries=bounds, counts=counts),),
        events=(hist.times[1],),
    )


def test_nll_and_grad_matches_fd(pmbp21_sub):
    ds = _censored_dataset(pmbp21_sub)

    def f(vec):
        return total_nll(unpack(pmbp21_sub, vec), ds)

    x0 = pack(pmbp21_sub)
    val, grad = nll_and_grad(pmbp21_sub, ds)
    assert val == pytest.approx(f(x0), rel=1e-12)
    fd = central_fd(f, x0, step=1e-6)
    rel = np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-6)
    assert rel.max() < 1e-4


def test_nll_and_grad_fd_with_gamma(pmbp21_sub):
    params = pmbp21_sub.replace(gamma=np.array([0.6, 0.4]))
    ds = _censored_dataset(params)

    def f(vec):
        return total_nll(unpack(params, vec, include_gamma=True), ds)

    x0 = pack(params, include_gamma=True)
    _, grad = nll_and_grad(params, ds, include_gamma=True)
    fd = central_fd(f, x0, step=1e-6)
    rel = np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-6)
    assert rel.max() < 1e-4


def test_gradient_over_multiple_datasets_adds(pmbp21_sub):
    ds1 = _censored_dataset(pmbp21_sub, seed=5)
    ds2 = _censored_dataset(pmbp21_sub, seed=6)
    v12, g12 = nll_and_grad(pmbp21_sub, [ds1, ds2])
    v1, g1 = nll_and_grad(pmbp21_sub, ds1)
    v2, g2 = nll_and_grad(pmbp21_sub, ds2)
    assert v12 == pytest.approx(v1 + v2, rel=1e-12)
    assert np.allclose(g12, g1 + g2, rtol=1e-10, atol=1e-12)


def _multi_censored_dataset(d, e, T=10.0, seed=8):
    rng = np.random.default_rng(seed)
    bounds = np.arange(T + 1.0)
    censored = tuple(
        CensoredSeries(boundaries=bounds, counts=rng.poisson(0.8, size=int(T)))
        for _ in range(e)
    )
    events = tuple(np.sort(rng.uniform(0.0, T, size=7)) for _ in range(d - e))
    return Dataset(T=T, censored=censored, events=events)


@pytest.mark.parametrize("d,e", [(3, 2), (3, 3)])
def test_nll_and_grad_fd_wide(d, e):
    rng = np.random.default_rng(d * 10 + e)
    params = ModelParams(
        d=d, e=e, theta=rng.uniform(0.5, 1.5, size=(d, d)),
        alpha=rng.uniform(0.1, 0.3, size=(d, d)),
        gamma=rng.uniform(0.2, 0.5, size=d), nu=rng.uniform(0.4, 0.9, size=d),
    )
    ds = _multi_censored_dataset(d, e)

    def f(vec):
        return total_nll(unpack(params, vec, include_gamma=True), ds)

    _, grad = nll_and_grad(params, ds, include_gamma=True)
    fd = central_fd(f, pack(params, include_gamma=True), step=1e-5)
    assert np.max(np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-3)) < 1e-6


@settings(max_examples=15, deadline=None)
@given(d=st.integers(2, 4), data=st.data())
def test_events_on_censor_boundaries(d, data):
    # observed events exactly on window boundaries share a knot with the
    # compensator's query there, which reads the left limit: the value is
    # finite and the gradient matches central differences
    e = data.draw(st.integers(1, d - 1), label="e")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1),
                                          label="seed"))
    T = 8.0
    bounds = np.arange(T + 1.0)
    params = ModelParams(
        d=d, e=e, theta=rng.uniform(0.5, 1.5, (d, d)),
        alpha=rng.uniform(0.0, 0.9 / d, (d, d)),
        gamma=rng.uniform(0.2, 0.5, d), nu=rng.uniform(0.4, 0.9, d),
    )
    ds = Dataset(
        T=T,
        censored=tuple(
            CensoredSeries(boundaries=bounds, counts=rng.poisson(0.8, int(T)))
            for _ in range(e)
        ),
        events=tuple(
            np.sort(np.concatenate([
                rng.choice(bounds[:-1], size=3, replace=False),
                rng.uniform(0.0, T, size=2),
            ]))
            for _ in range(d - e)
        ),
    )

    def f(vec):
        return total_nll(unpack(params, vec, include_gamma=True), ds)

    value, grad = nll_and_grad(params, ds, include_gamma=True)
    assert np.isfinite(value)
    fd = central_fd(f, pack(params, include_gamma=True), step=1e-5)
    assert np.max(np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-3)) < 1e-6


_WIDE_NLL_SCRIPT = """
import numpy as np
from pmbp import CensoredSeries, Dataset, ModelParams, nll_and_grad

rng = np.random.default_rng(11)
d, e, T = 4, 2, 400.0
params = ModelParams(
    d=d, e=e, theta=rng.uniform(0.5, 2.0, (d, d)),
    alpha=rng.uniform(0.02, 0.15, (d, d)),
    gamma=rng.uniform(0.2, 0.5, d), nu=np.full(d, 0.2),
)
bounds = np.arange(T + 1.0)
ds = Dataset(
    T=T,
    censored=tuple(CensoredSeries(boundaries=bounds,
                                  counts=rng.poisson(0.3, size=int(T)))
                   for _ in range(e)),
    events=tuple(np.sort(rng.uniform(0.0, T, size=120)) for _ in range(d - e)),
)
value, grad = nll_and_grad(params, ds, include_gamma=True)
print(np.float64(value).tobytes().hex(), grad.tobytes().hex())
"""


def test_nll_and_grad_thread_count_invariance():
    # the same bytes whatever the BLAS thread count, on a scan long enough
    # to span several batches of steps
    src = str(Path(pmbp.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = []
    for n in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=n, OMP_NUM_THREADS=n,
                   PYTHONPATH=path)
        out.append(subprocess.run(
            [sys.executable, "-c", _WIDE_NLL_SCRIPT], env=env, check=True,
            capture_output=True, text=True, timeout=300,
        ).stdout)
    assert out[0] and out[0] == out[1]


@pytest.mark.parametrize("theta_11", [1.0, 10.0, 100.0, 1000.0])
def test_nll_matches_closed_form_at_fast_censored_kernels(theta_11):
    # a discretized objective drifts upward as the censored self-kernel gets
    # fast; the exact one must not.  theta_12 and theta_21 stay away from
    # (1 - alpha_11) theta_11, where the closed form is degenerate.
    params = ModelParams(
        d=2, e=1, theta=[[theta_11, 1.0], [0.5, 1.0]],
        alpha=[[0.3, 0.2], [0.2, 0.3]], gamma=[0.0, 0.0], nu=[0.4, 0.4],
    )
    ds = _censored_dataset(params.replace(theta=np.ones((2, 2))), T=30.0)
    series = ds.censored[0]
    events = ds.events[0]
    times = np.unique(np.concatenate([series.boundaries, events, [ds.T]]))
    xi, Xi = closed_form_pmbp21(params, events, times)
    at = lambda ts: np.searchsorted(times, ts)
    expected = icll(Xi[at(series.boundaries), 0], series.counts) + ppll_nll(
        xi[at(events), 1], Xi[at(ds.T), 1]
    )
    assert total_nll(params, ds) == pytest.approx(expected, rel=1e-9, abs=1e-9)


def test_supercritical_censored_block_raises(pmbp21_sub):
    ds = _censored_dataset(pmbp21_sub)
    bad = pmbp21_sub.replace(alpha=np.array([[1.2, 0.2], [0.2, 0.3]]))
    with pytest.raises(RegularityError):
        total_nll(bad, ds)


def test_event_at_zero_intensity_scores_inf():
    # dimension 2 has no baseline and no excitation, so its events are
    # impossible
    params = ModelParams(
        d=2, e=1, theta=np.ones((2, 2)), alpha=[[0.3, 0.2], [0.0, 0.0]],
        gamma=[0.0, 0.0], nu=[0.4, 0.0],
    )
    ds = Dataset(
        T=10.0, censored=(CensoredSeries(np.arange(11.0), np.ones(10)),),
        events=(np.array([1.0, 2.5, 7.0]),),
    )
    assert joint_nll(params, [ds]) == np.inf
    value, grad = nll_and_grad(params, ds)
    assert value == np.inf and np.all(np.isnan(grad))
    # a zero weight drops the impossible dimension's term altogether
    only1 = total_nll(params, ds, config=LikelihoodConfig(weights=[1.0, 0.0]))
    assert np.isfinite(only1)


# ---------------------------------------------------------------------------
# one joint scan over every dataset


@settings(max_examples=25, deadline=None)
@given(d=st.integers(1, 4), data=st.data())
def test_joint_objective_is_the_sum_of_single_dataset_objectives(d, data):
    # the datasets differ in length, so the joint scan pads the shorter
    # ones; the first has no observed events at all
    e = data.draw(st.integers(0, d), label="e")
    include_gamma = data.draw(st.booleans(), label="include_gamma")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1),
                                          label="seed"))
    params = ModelParams(
        d=d, e=e, theta=rng.uniform(0.5, 2.0, (d, d)),
        alpha=rng.uniform(0.0, 0.9 / d, (d, d)),
        gamma=rng.uniform(0.1, 0.5, d), nu=rng.uniform(0.3, 0.9, d),
    )
    datasets = []
    for T, n_events in ((4.0, 0), (9.0, 5), (15.0, 11)):
        bounds = np.arange(T + 1.0)
        datasets.append(Dataset(
            T=T,
            censored=tuple(
                CensoredSeries(boundaries=bounds,
                               counts=rng.poisson(0.8, int(T)))
                for _ in range(e)
            ),
            events=tuple(np.sort(rng.uniform(0.0, T, n_events))
                         for _ in range(d - e)),
        ))
    value, grad = nll_and_grad(params, datasets, include_gamma=include_gamma)
    parts = [nll_and_grad(params, ds, include_gamma=include_gamma)
             for ds in datasets]
    assert value == pytest.approx(sum(v for v, _ in parts), rel=1e-12)
    g_sum = np.sum([g for _, g in parts], axis=0)
    assert np.max(np.abs(grad - g_sum)) <= 1e-12 * np.max(np.abs(grad))


@settings(max_examples=15, deadline=None)
@given(d=st.integers(1, 4), data=st.data())
def test_joint_objective_adds_in_dataset_order(d, data):
    # at e = 0 the joint value is bitwise the terms of each dataset and
    # dimension added in that order, and the joint gradient the datasets'
    # gradients added in order
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1),
                                          label="seed"))
    params = ModelParams(
        d=d, e=0, theta=rng.uniform(0.5, 2.0, (d, d)),
        alpha=rng.uniform(0.0, 0.9 / d, (d, d)),
        gamma=rng.uniform(0.1, 0.5, d), nu=rng.uniform(0.3, 0.9, d),
    )
    datasets = _random_datasets(rng, d, 0, 3)
    value, grad = nll_and_grad(params, datasets)
    total, g_sum = 0.0, 0.0
    for ds in datasets:
        for j in range(d):
            total += joint_nll(params, [ds], LikelihoodConfig(
                weights=np.arange(d) == j))
        g_sum = g_sum + nll_and_grad(params, [ds])[1]
    assert np.float64(value).tobytes() == np.float64(total).tobytes()
    assert grad.tobytes() == g_sum.tobytes()


def test_first_failure_in_dataset_order_decides(monkeypatch):
    # dataset A has an event at zero intensity (+inf after the scan), and
    # dataset B narrow windows under a raised slack
    # (NumericalConsistencyError): the earlier dataset's outcome is the
    # objective's
    params = ModelParams(d=2, e=1, theta=np.ones((2, 2)),
                         alpha=[[0.3, 0.2], [0.2, 0.0]], gamma=[0.0, 0.0],
                         nu=[0.4, 0.0])
    a = Dataset(T=8.0, censored=(CensoredSeries([0.0, 4.0, 8.0],
                                                [2.0, 3.0]),),
                events=(np.array([0.0, 4.0, 6.5]),))
    b = Dataset(T=8.0, censored=(CensoredSeries(np.arange(0.0, 8.5, 0.5),
                                                np.ones(16)),),
                events=(np.array([1.5, 4.0, 6.5]),))
    monkeypatch.setattr(pmbp.likelihood, "_INCREMENT_SLACK", 1.0)
    assert nll_and_grad(params, [a, b])[0] == np.inf
    assert joint_nll(params, [a, b]) == np.inf
    with pytest.raises(NumericalConsistencyError, match="^dataset 0, "):
        nll_and_grad(params, [b, a])


def _screen_case():
    """d=3, e=2: dimension 1 (censored) and dimension 3 (observed) have zero
    rows alpha[i, :2], so the scan adds nothing to them; dimension 2 is
    driven by the censored block."""
    params = ModelParams(
        d=3, e=2, theta=[[1.0, 0.7, 1.3], [0.8, 1.1, 0.6], [1.2, 0.9, 1.0]],
        alpha=[[0.0, 0.0, 0.2], [0.2, 0.1, 0.2], [0.0, 0.0, 0.3]],
        gamma=[0.3, 0.2, 0.1], nu=[0.4, 0.3, 0.5],
    )
    rng = np.random.default_rng(17)
    datasets = [
        Dataset(T=T,
                censored=tuple(CensoredSeries(np.arange(T + 1.0),
                                              rng.poisson(0.8, int(T)))
                               for _ in range(2)),
                events=(np.sort(rng.uniform(0.0, T, int(T))),))
        for T in (6.0, 10.0)
    ]
    return params, datasets


def test_impossible_scan_free_dimension_skips_the_scan(monkeypatch):
    # nu_3 = 0 and alpha[3, :2] = 0: the first event of dimension 3 has
    # zero intensity whatever the censored block does, so the objective is
    # +inf before any scan runs
    params, datasets = _screen_case()
    params = params.replace(nu=np.array([0.4, 0.3, 0.0]))

    def refuse(*args, **kwargs):
        raise AssertionError("the scan ran at an impossible point")

    monkeypatch.setattr(pmbp.poi, "_scan", refuse)
    value, grad = nll_and_grad(params, datasets)
    assert value == np.inf and np.all(np.isnan(grad))
    assert joint_nll(params, datasets) == np.inf


def test_scan_free_terms_equal_the_full_evaluation():
    # each dimension's term alone (one-hot weights) against the same term
    # scored from the full evaluator, scan included: bitwise for the
    # scan-free dimensions 1 and 3
    params, datasets = _screen_case()
    for j in (0, 2):
        weights = np.eye(3)[j]
        expected = 0.0
        for ds in datasets:
            times = np.unique(np.concatenate(
                [[ds.T], *[s.boundaries for s in ds.censored], *ds.events]))
            vals = pmbp.PoiEvaluator(params, ds.event_list()).values(times)
            at = lambda ts: np.searchsorted(times, ts)
            if j < 2:
                series = ds.censored[j]
                expected += icll(vals.Xi[at(series.boundaries), j],
                                 series.counts)
            else:
                expected += ppll_nll(vals.xi[at(ds.events[0]), j],
                                     float(vals.Xi[at(ds.T), j]))
        cfg = LikelihoodConfig(weights=weights)
        assert joint_nll(params, datasets, config=cfg) == expected, j
        assert nll_and_grad(params, datasets, config=cfg)[0] == expected, j


def test_gradient_along_a_zero_censored_row():
    # the scan-free dimensions' cotangents still reach the adjoint: their
    # derivatives in alpha[i, :e] match a forward difference off the zero row
    params, datasets = _screen_case()
    x0 = pack(params)
    _, grad = nll_and_grad(params, datasets)
    h = 1e-7
    for k in (0, 1, 6, 7):  # alpha_11, alpha_12, alpha_31, alpha_32
        x = x0.copy()
        x[k] += h
        fd = (joint_nll(unpack(params, x), datasets)
              - joint_nll(params, datasets)) / h
        assert grad[k] == pytest.approx(fd, rel=1e-5, abs=1e-6), k


# ---------------------------------------------------------------------------
# the prepared objective


def _random_datasets(rng, d, e, n):
    """n datasets of random horizons, window counts on the first e
    dimensions and events on the rest."""
    datasets = []
    for _ in range(n):
        T = float(rng.integers(3, 12))
        datasets.append(Dataset(
            T=T,
            censored=tuple(CensoredSeries(np.arange(T + 1.0),
                                          rng.poisson(0.8, int(T)))
                           for _ in range(e)),
            events=tuple(np.sort(rng.uniform(0.0, T, rng.integers(0, 9)))
                         for _ in range(d - e)),
        ))
    return datasets


@settings(max_examples=25, deadline=None)
@given(d=st.integers(1, 4), data=st.data())
def test_prepared_objective_keeps_no_state_between_calls(d, data):
    # one prepared form evaluated at p1, p2, p1: the repeat is bitwise the
    # first call and a fresh evaluation, so no call leaves anything behind
    e = data.draw(st.integers(0, d), label="e")
    n = data.draw(st.integers(1, 3), label="datasets")
    include_gamma = data.draw(st.booleans(), label="include_gamma")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1),
                                          label="seed"))
    datasets = _random_datasets(rng, d, e, n)
    p1, p2 = (ModelParams(
        d=d, e=e, theta=rng.uniform(0.5, 2.0, (d, d)),
        alpha=rng.uniform(0.0, 0.9 / d, (d, d)),
        gamma=rng.uniform(0.1, 0.5, d), nu=rng.uniform(0.3, 0.9, d),
    ) for _ in range(2))
    prep = pmbp.likelihood._Prepared(datasets)
    first = nll_and_grad(p1, prep, include_gamma=include_gamma)
    nll_and_grad(p2, prep, include_gamma=include_gamma)
    again = nll_and_grad(p1, prep, include_gamma=include_gamma)
    fresh = nll_and_grad(p1, datasets, include_gamma=include_gamma)
    for value, grad in (again, fresh):
        assert value == first[0]
        assert np.array_equal(grad, first[1])
    assert joint_nll(p1, prep) == first[0]


def test_fit_builds_its_step_schedule_once(monkeypatch):
    # the plan's steps are grouped by length with the prepared data, once
    # per fit; no evaluation groups them, whatever the batch
    built = []
    make = pmbp.poi._schedule

    def counting(dt, group=True):
        if group:
            built.append(dt.size)
        return make(dt, group)

    monkeypatch.setattr(pmbp.poi, "_schedule", counting)
    rng = np.random.default_rng(8)
    datasets = _random_datasets(rng, 3, 1, 3)
    prep = pmbp.likelihood._Prepared(datasets)
    assert len(built) == 1
    ps = [_batch_point(rng, 3, 1, "regular") for _ in range(3)]
    for batch in (ps, ps[:1]):
        for need_grad in (True, False):
            out = pmbp.likelihood._evaluate(batch, prep, LikelihoodConfig(),
                                            need_grad, False)
            assert all(np.isfinite(res[0]) for res in out)
    assert len(built) == 1
    pmbp.fit(datasets, pmbp.FitConfig(n_starts=3, max_iter=2))
    assert len(built) == 2


def _dead_case():
    """d=3, e=1: dimension 1 is censored with counts only in its first
    window; dimensions 2 and 3 are observed with events."""
    params = ModelParams(
        d=3, e=1, theta=[[1.0, 0.7, 1.3], [0.8, 1.1, 0.6], [1.2, 0.9, 1.0]],
        alpha=[[0.2, 0.1, 0.2], [0.2, 0.1, 0.2], [0.1, 0.2, 0.3]],
        gamma=[0.3, 0.2, 0.1], nu=[0.4, 0.3, 0.5],
    )
    rng = np.random.default_rng(23)
    datasets = [
        Dataset(T=T,
                censored=(CensoredSeries(np.arange(T + 1.0),
                                         np.r_[3.0, np.zeros(int(T) - 1)]),),
                events=tuple(np.sort(rng.uniform(0.0, T, int(T)))
                             for _ in range(2)))
        for T in (6.0, 10.0)
    ]
    return params, datasets


def _full_evaluation(params, datasets, weights):
    """The weighted objective scored term by term from PoiEvaluator values,
    scan included."""
    total = 0.0
    for ds in datasets:
        times = np.unique(np.concatenate(
            [[ds.T], *[s.boundaries for s in ds.censored], *ds.events]))
        vals = pmbp.PoiEvaluator(params, ds.event_list()).values(times)
        at = lambda ts: np.searchsorted(times, ts)
        for j, series in enumerate(ds.censored):
            if weights[j]:
                total += weights[j] * icll(vals.Xi[at(series.boundaries), j],
                                           series.counts)
        for j, ts in enumerate(ds.events, start=ds.e):
            if weights[j]:
                total += weights[j] * ppll_nll(vals.xi[at(ts), j],
                                               float(vals.Xi[at(ds.T), j]))
    return total


@pytest.mark.parametrize("dim,gamma,weight,finite", [
    (2, 0.1, 1.0, False),   # an observed dimension with events
    (0, 0.3, 1.0, True),    # counts only in the first window, gamma > 0
    (0, 0.0, 1.0, False),   # the same with gamma = 0
    (2, 0.1, 0.0, True),    # an impossible dimension of weight 0
], ids=["observed", "first_window", "first_window_no_gamma", "zero_weight"])
def test_dead_dimension_matches_the_full_evaluation(monkeypatch, dim, gamma,
                                                    weight, finite):
    # nu_i = 0 and alpha[i, :] = 0 leave xi_i = 0 and Xi_i = gamma_i 1{t>0}
    params, datasets = _dead_case()
    alpha = params.alpha.copy()
    alpha[dim] = 0.0
    params = params.replace(alpha=alpha, nu=np.where(np.arange(3) == dim, 0.0,
                                                     params.nu),
                            gamma=np.where(np.arange(3) == dim, gamma,
                                           params.gamma))
    weights = np.where(np.arange(3) == dim, weight, 1.0)
    cfg = LikelihoodConfig(weights=weights)
    expected = _full_evaluation(params, datasets, weights)
    assert np.isfinite(expected) == finite
    if not finite:
        # rejected before any decay sum
        def refuse(*args, **kwargs):
            raise AssertionError("decay sums at a dead dimension")

        monkeypatch.setattr(pmbp.poi, "SourceDecay", refuse)
        assert joint_nll(params, datasets, config=cfg) == np.inf
        value, grad = nll_and_grad(params, datasets, config=cfg)
        assert value == np.inf and np.all(np.isnan(grad))
        return
    assert joint_nll(params, datasets, config=cfg) == pytest.approx(
        expected, rel=1e-12)
    value, grad = nll_and_grad(params, datasets, config=cfg)
    assert value == pytest.approx(expected, rel=1e-12)
    assert np.all(np.isfinite(grad))


def test_dead_dimension_after_a_supercritical_block():
    # the layout's regularity check comes first, as in the full evaluation
    params, datasets = _dead_case()
    params = params.replace(
        alpha=[[1.2, 0.1, 0.2], [0.2, 0.1, 0.2], [0.0, 0.0, 0.0]],
        nu=[0.4, 0.3, 0.0])
    with pytest.raises(RegularityError):
        _full_evaluation(params, datasets, np.ones(3))
    with pytest.raises(RegularityError):
        joint_nll(params, datasets)
    with pytest.raises(RegularityError):
        nll_and_grad(params, datasets)


# ---------------------------------------------------------------------------
# a batch of points against their evaluations alone


def _batch_point(rng, d, e, kind):
    """A random point of one of these kinds: regular; dead (a dimension with
    nu_i = 0 and a zero row alpha[i, :]); silent (nothing drives the
    censored block, so its compensator stays flat and any observation it
    must explain is impossible only after the scan); supercritical (the
    censored block's branching radius is 1.5)."""
    alpha = rng.uniform(0.05, 0.9 / d, (d, d))
    nu = rng.uniform(0.1, 1.0, d)
    gamma = rng.uniform(0.0, 0.5, d)
    if kind == "dead":
        i = rng.integers(d)
        alpha[i] = 0.0
        nu[i] = 0.0
    elif kind == "silent" and e:
        alpha[:e, e:] = 0.0
        nu[:e] = 0.0
        gamma[:e] = 0.0
    elif kind == "supercritical" and e:
        alpha[:e, :e] *= 1.5 / pmbp.spectral_radius(alpha[:e, :e])
    return ModelParams(d=d, e=e, theta=10.0 ** rng.uniform(-1.0, 1.0, (d, d)),
                       alpha=alpha, gamma=gamma, nu=nu)


def _assert_outcomes_equal_solo(ps, datasets, cfg, include_gamma):
    """Every point's batch outcome, with and without the gradient, is
    bitwise its evaluation alone, or the same exception."""
    batch = pmbp.likelihood._evaluate(
        ps, pmbp.likelihood._Prepared(datasets), cfg, True, include_gamma)
    values = pmbp.likelihood._evaluate(
        ps, pmbp.likelihood._Prepared(datasets), cfg, False, False)
    for p, got, got_value in zip(ps, batch, values):
        try:
            want = nll_and_grad(p, datasets, cfg, include_gamma)
        except (RegularityError, NumericalConsistencyError) as exc:
            for out in (got, got_value):
                assert type(out) is type(exc) and str(out) == str(exc)
            continue
        assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
        assert got[1].tobytes() == want[1].tobytes()
        value = joint_nll(p, datasets, cfg)
        assert got_value == (got_value[0], None)
        assert np.float64(got_value[0]).tobytes() == np.float64(value).tobytes()


@settings(max_examples=40, deadline=None)
@given(d=st.integers(1, 4), data=st.data())
def test_batch_outcomes_equal_evaluations_alone(d, data):
    # a batch mixes regular, dead, silent and supercritical points; a slack
    # raised above 0 makes points with narrow increments fail on them
    e = data.draw(st.integers(0, d), label="e")
    n = data.draw(st.integers(1, 3), label="datasets")
    kinds = data.draw(st.lists(st.sampled_from(
        ["regular", "dead", "silent", "supercritical"]), min_size=1,
        max_size=4), label="kinds")
    include_gamma = data.draw(st.booleans(), label="include_gamma")
    slack = data.draw(st.sampled_from([None, 0.3, 1.0]), label="slack")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1),
                                          label="seed"))
    datasets = _random_datasets(rng, d, e, n)
    ps = [_batch_point(rng, d, e, kind) for kind in kinds]
    cfg = LikelihoodConfig(weights=rng.choice([0.0, 0.5, 1.0], d),
                           w_nu=data.draw(st.sampled_from([0.0, 0.7]),
                                          label="w_nu"))
    with pytest.MonkeyPatch.context() as mp:
        if slack is not None:
            mp.setattr(pmbp.likelihood, "_INCREMENT_SLACK", slack)
        _assert_outcomes_equal_solo(ps, datasets, cfg, include_gamma)


def test_batch_reaches_every_outcome(monkeypatch):
    # one batch of d=3, e=1 points whose evaluations alone give a finite
    # value, NumericalConsistencyError, +inf before any sum, +inf after the
    # scan and RegularityError; each keeps its outcome in the batch
    rng = np.random.default_rng(5)
    datasets = _random_datasets(rng, 3, 1, 2)
    ds = datasets[0]
    datasets[0] = Dataset(T=ds.T, censored=ds.censored,
                          events=(np.r_[0.0, ds.events[0]], ds.events[1]))
    ps = [_batch_point(rng, 3, 1, kind) for kind in
          ("regular", "regular", "dead", "regular", "supercritical")]
    # the second point's censored increments are all below the slack
    ps[1] = ps[1].replace(nu=[1e-3, *ps[1].nu[1:]], gamma=np.zeros(3),
                          alpha=np.where(np.arange(3)[:, None] == 0, 1e-3,
                                         ps[1].alpha))
    ps[2] = ps[2].replace(alpha=np.where(np.arange(3)[:, None] == 2, 0.0,
                                         ps[2].alpha),
                          nu=[*ps[2].nu[:2], 0.0])
    # the fourth has xi_2(0) = alpha_21 theta_21 gamma_1 = 0 at the event at
    # 0, which only the scan reaches
    alpha = ps[3].alpha.copy()
    alpha[1, 1:] = 0.0
    ps[3] = ps[3].replace(alpha=alpha, gamma=np.zeros(3),
                          nu=[ps[3].nu[0], 0.0, ps[3].nu[2]])
    inc = [[np.diff(pmbp.PoiEvaluator(p, ds.event_list()).values(
        ds.censored[0].boundaries).Xi[:, 0]) for ds in datasets]
        for p in ps[:4]]
    slack = 0.5 * (max(x.max() for x in inc[1])
                   + min(x.min() for x in inc[0] + inc[3]))
    monkeypatch.setattr(pmbp.likelihood, "_INCREMENT_SLACK", slack)
    outcomes = []
    for p in ps:
        try:
            outcomes.append(nll_and_grad(p, datasets)[0])
        except (RegularityError, NumericalConsistencyError) as exc:
            outcomes.append(type(exc))
    assert np.isfinite(outcomes[0])
    assert outcomes[1] is NumericalConsistencyError
    assert outcomes[2] == outcomes[3] == np.inf
    assert outcomes[4] is RegularityError
    _assert_outcomes_equal_solo(ps, datasets, LikelihoodConfig(), True)
    _assert_outcomes_equal_solo(ps[::-1], datasets, LikelihoodConfig(), False)

    # the dead point is rejected before any decay sum; the fourth only
    # after the scan
    def refuse(*args, **kwargs):
        raise AssertionError("scan of an impossible point")

    monkeypatch.setattr(pmbp.likelihood, "_scan_values", refuse)
    assert nll_and_grad(ps[2], datasets)[0] == np.inf
    with pytest.raises(AssertionError):
        nll_and_grad(ps[3], datasets)


def test_negative_increment_error_names_the_dataset(monkeypatch):
    # a slack between the least increment of the narrow windows of dataset
    # 1 and every increment of the wide ones of dataset 0 fails dataset 1
    params = ModelParams(d=2, e=1, theta=np.ones((2, 2)),
                         alpha=[[0.3, 0.2], [0.2, 0.3]], gamma=[0.0, 0.0],
                         nu=[0.4, 0.4])
    events = (np.array([1.5, 4.0, 6.5]),)
    wide = Dataset(T=8.0, censored=(CensoredSeries([0.0, 4.0, 8.0],
                                                   [2.0, 3.0]),),
                   events=events)
    narrow = Dataset(T=8.0, censored=(CensoredSeries(np.arange(0.0, 8.5, 0.5),
                                                     np.ones(16)),),
                     events=events)
    Xi = pmbp.PoiEvaluator(params, narrow.event_list()).values(
        narrow.censored[0].boundaries).Xi[:, 0]
    inc = np.diff(Xi)
    k = int(np.argmin(inc))
    monkeypatch.setattr(pmbp.likelihood, "_INCREMENT_SLACK", 1.0)
    assert inc.min() < 1.0 < np.diff(pmbp.PoiEvaluator(
        params, wide.event_list()).values([0.0, 4.0, 8.0]).Xi[:, 0]).min()
    message = (f"dataset 1, dimension 1: compensator increment "
               f"{inc[k]:.3g} < 1.0 on window {k}")
    for call in (joint_nll, nll_and_grad):
        with pytest.raises(NumericalConsistencyError) as info:
            call(params, [wide, narrow])
        assert str(info.value) == message
