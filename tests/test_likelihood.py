"""Objective assembly for partially interval-censored observations."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pmbp

from pmbp import (
    CensoredSeries,
    Dataset,
    DimensionError,
    LikelihoodConfig,
    ModelParams,
    NumericalConsistencyError,
    RegularityError,
    closed_form_pmbp21,
    joint_nll,
    nll_and_grad,
    pack,
    sample_hawkes,
    total_nll,
    unpack,
)
from pmbp.likelihood import icll, ppll_nll

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
