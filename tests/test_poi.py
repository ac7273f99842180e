"""Exact evaluator: values against exact references, adjoint gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from pmbp import (
    Dataset,
    DomainError,
    ModelParams,
    PoiEvaluator,
    RegularityError,
    compensator_eval,
    fd_gradient,
    pack,
    total_nll,
    unpack,
    xi_eval,
)
from pmbp import closed_form_pmbp21
from pmbp.poi import _CHUNK, _Layout

from oracles import (
    mean_field_intensity,
    naive_compensator,
    naive_intensity,
    naive_pp_loglik,
    van_loan_frechet_sum,
)


def test_consistent_with_grid_evaluator_on_grid_points(pmbp21, events21, tables21):
    # the grid reference carries its discretization error, so the two agree
    # to grid accuracy rather than bit-exactly
    ev = PoiEvaluator(pmbp21, events21)
    idx = np.array([0, 50, 700, 1500, 3000])
    t = tables21.grid.points[idx]
    vals = ev.values(t)
    assert np.allclose(vals.xi, xi_eval(pmbp21, events21, tables21)[idx],
                       rtol=1e-2)
    assert np.allclose(vals.Xi, compensator_eval(pmbp21, events21, tables21)[idx],
                       rtol=1e-2, atol=1e-3)


def test_matches_closed_form_off_grid(pmbp21, events21):
    ev = PoiEvaluator(pmbp21, events21)
    t = np.array([0.7431, 2.4999, 2.5001, 7.77, 14.999, 23.456])
    vals = ev.values(t)
    xi_cf, Xi_cf = closed_form_pmbp21(pmbp21, events21, t)
    assert np.max(np.abs(vals.xi - xi_cf) / np.maximum(np.abs(xi_cf), 1e-9)) < 1e-10
    assert np.max(np.abs(vals.Xi - Xi_cf) / np.maximum(np.abs(Xi_cf), 1.0)) < 1e-10


def test_matches_closed_form_with_gamma(pmbp21, events21):
    p = pmbp21.replace(gamma=np.array([0.7, 0.4]))
    t = np.array([0.0, 0.01, 2.5, 6.0, 29.0])
    vals = PoiEvaluator(p, events21).values(t)
    xi_cf, Xi_cf = closed_form_pmbp21(p, events21, t)
    assert np.allclose(vals.xi, xi_cf, rtol=1e-10, atol=0.0)
    assert np.allclose(vals.Xi, Xi_cf, rtol=1e-10, atol=1e-14)


def test_e0_exact_hawkes(hawkes2, hawkes_path):
    ev = PoiEvaluator(hawkes2, list(hawkes_path.times))
    t = np.array([0.0, 3.21, 57.0, 119.9])
    vals = ev.values(t)
    assert np.allclose(vals.xi, naive_intensity(hawkes2, hawkes_path.times, t),
                       rtol=1e-12)
    assert np.allclose(vals.Xi, naive_compensator(hawkes2, hawkes_path.times, t),
                       rtol=1e-12)


@settings(max_examples=40, deadline=None)
@given(d=st.integers(1, 4), data=st.data())
def test_e0_matches_direct_summation(d, data):
    # any model read at e = 0 is the plain Hawkes process given all events
    e = data.draw(st.integers(0, d), label="e")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    p = ModelParams(
        d=d, e=e, theta=rng.uniform(0.2, 5.0, size=(d, d)),
        alpha=rng.uniform(0.0, 0.9 / d, size=(d, d)),
        gamma=rng.uniform(0.0, 0.5, size=d), nu=rng.uniform(0.1, 1.0, size=d),
    ).replace(e=0)
    T = 10.0
    # dimensions draw from one pool of stamps, so events coincide across
    # them, and every stamp is also a query
    pool = np.concatenate([[0.0], np.round(rng.uniform(0.0, T - 0.01, size=11), 2)])
    events = [np.unique(rng.choice(pool, size=rng.integers(0, 9)))
              for _ in range(d)]
    t = np.concatenate([pool, [T], rng.uniform(0.0, T, size=4)])
    vals = PoiEvaluator(p, events).values(t)
    assert np.allclose(vals.xi, naive_intensity(p, events, t),
                       rtol=1e-12, atol=1e-12)
    assert np.allclose(vals.Xi, naive_compensator(p, events, t),
                       rtol=1e-12, atol=1e-12)
    nll = total_nll(p, Dataset(T=T, censored=(), events=tuple(events)))
    assert -nll == pytest.approx(naive_pp_loglik(p, events, T),
                                 rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_full_censoring_matches_mean_field(d):
    # at e = d no event is observed, and the evaluator is the mean-field ODE
    rng = np.random.default_rng(50 + d)
    p = ModelParams(
        d=d, e=d, theta=rng.uniform(0.3, 3.0, size=(d, d)),
        alpha=rng.uniform(0.05, 0.8 / d, size=(d, d)),
        gamma=rng.uniform(0.2, 1.0, size=d), nu=rng.uniform(0.1, 1.0, size=d),
    )
    t = np.array([0.0, 0.3, 1.7, 4.0, 9.5, 25.0])
    vals = PoiEvaluator(p, [np.zeros(0)] * d).values(t)
    xi_ref, Xi_ref = mean_field_intensity(p, t)
    assert np.allclose(vals.xi, xi_ref, rtol=1e-8, atol=1e-12)
    assert np.allclose(vals.Xi, Xi_ref, rtol=1e-8, atol=1e-12)


def test_chunking_invariance(pmbp21, events21):
    # one batch query equals single-point queries, in any order
    ev = PoiEvaluator(pmbp21, events21)
    t = np.linspace(0.013, 29.9, 257)[::-1]
    whole = ev.values(t)
    parts = [ev.values(np.array([tt])) for tt in t]
    xi_parts = np.vstack([p.xi for p in parts])
    Xi_parts = np.vstack([p.Xi for p in parts])
    assert np.allclose(whole.xi, xi_parts, rtol=1e-12, atol=1e-13)
    assert np.allclose(whole.Xi, Xi_parts, rtol=1e-12, atol=1e-13)


def test_rejects_times_outside_span(pmbp21, events21):
    ev = PoiEvaluator(pmbp21, events21)
    with pytest.raises(DomainError):
        ev.values(np.array([-0.1]))
    with pytest.raises(DomainError):
        ev.values(np.array([np.inf]))


def test_rejects_supercritical_censored_block(pmbp21):
    with pytest.raises(RegularityError):
        PoiEvaluator(pmbp21.replace(alpha=np.array([[1.0, 0.5], [0.5, 0.5]])),
                     [np.zeros(0), np.zeros(0)])


def _model(d, e, gamma, seed=4):
    rng = np.random.default_rng(seed)
    return ModelParams(
        d=d, e=e,
        theta=rng.uniform(0.4, 1.6, size=(d, d)),
        alpha=rng.uniform(0.1, 0.3, size=(d, d)),
        gamma=gamma, nu=rng.uniform(0.4, 0.9, size=d),
    )


@pytest.mark.parametrize(
    "p,include_gamma",
    [
        (_model(2, 1, [0.0, 0.0]), False),
        (_model(2, 1, [0.4, 0.3]), False),
        (_model(2, 1, [0.4, 0.3]), True),
        (_model(3, 2, [0.0, 0.0, 0.0]), False),
        (_model(3, 2, [0.4, 0.3, 0.2]), True),
        (_model(3, 3, [0.4, 0.3, 0.2]), True),
    ],
    ids=["gamma0-False", "gamma1-False", "gamma2-True",
         "d3e2", "d3e2-gamma", "d3e3-gamma"],
)
def test_derivatives_match_fd(p, include_gamma):
    # the adjoint gradient of an arbitrary linear functional of xi and Xi
    rng = np.random.default_rng(p.d + p.e)
    events = [np.array([0.9, 2.2, 4.5]), np.array([0.3, 1.7, 3.3]),
              np.array([2.9, 5.5])][: p.d]
    t = np.array([6.123, 0.0, 1.37, 3.0, 2.2, 1.37])
    c_xi = rng.standard_normal((t.size, p.d))
    c_Xi = rng.standard_normal((t.size, p.d))

    def f(vec):
        v = PoiEvaluator(unpack(p, vec, include_gamma), events).values(t)
        return float(np.sum(c_xi * v.xi + c_Xi * v.Xi))

    ev = PoiEvaluator(p, events)
    g_an = ev.vjp(ev.values(t), c_xi, c_Xi, include_gamma)
    g_fd = fd_gradient(f, pack(p, include_gamma))
    assert np.max(np.abs(g_an - g_fd) / np.maximum(np.abs(g_fd), 1e-3)) < 1e-6


def test_derivatives_match_fd_e0():
    p = ModelParams(d=2, e=0, theta=[[1.0, 0.8], [0.5, 0.9]],
                    alpha=[[0.3, 0.2], [0.1, 0.4]], gamma=[0.0, 0.0],
                    nu=[0.5, 0.7])
    events = [np.array([0.5, 2.0]), np.array([1.2])]
    t = np.array([0.9, 3.1])
    ev = PoiEvaluator(p, events)
    vals = ev.values(t)
    x0 = pack(p, False)

    def value_at(vec, which, i, j):
        q = unpack(p, vec, False)
        return float(getattr(PoiEvaluator(q, events).values(t), which)[i, j])

    for which in ("xi", "Xi"):
        for (i, j) in [(0, 0), (1, 1), (0, 1)]:
            g_fd = fd_gradient(lambda v: value_at(v, which, i, j), x0)
            unit = np.zeros((t.size, p.d))
            unit[i, j] = 1.0
            zero = np.zeros_like(unit)
            cot = (unit, zero) if which == "xi" else (zero, unit)
            g_an = ev.vjp(vals, *cot)
            denom = np.maximum(np.abs(g_fd), 1e-4)
            assert np.max(np.abs(g_an - g_fd) / denom) < 1e-5, (which, i, j)


def test_derivatives_match_fd_past_chunk():
    # enough knots that the scan and the adjoint's Frechet sum span chunks
    p = _model(4, 2, [0.4, 0.3, 0.2, 0.1])
    rng = np.random.default_rng(42)
    events = [np.sort(rng.uniform(0.0, 40.0, size=160)) for _ in range(p.d)]
    t = rng.uniform(0.0, 40.0, size=30)
    c_xi = rng.standard_normal((t.size, p.d))
    c_Xi = rng.standard_normal((t.size, p.d))

    def f(vec):
        v = PoiEvaluator(unpack(p, vec, True), events).values(t)
        return float(np.sum(c_xi * v.xi + c_Xi * v.Xi))

    ev = PoiEvaluator(p, events)
    vals = ev.values(t)
    assert vals.scan.dt.size > _CHUNK
    g_an = ev.vjp(vals, c_xi, c_Xi, True)
    g_fd = fd_gradient(f, pack(p, True))
    assert np.max(np.abs(g_an - g_fd) / np.maximum(np.abs(g_fd), 1e-3)) < 1e-6


def _check_expm_stack(lay, dt, rng):
    """lay.expm against scipy.linalg.expm step by step, and its Frechet
    derivatives, transposed, against the Van Loan oracle, both to 1e-12 of
    the reference's largest entry."""
    R = lay.expm(dt)
    x = rng.standard_normal((dt.size, lay.s))
    lam = rng.standard_normal((dt.size, lay.s))
    dirs = x[:, :, None] * (lam * dt[:, None])[:, None, :]
    R2, L = lay.expm(dt, dirs)
    # nothing feeds back from the integrals, so their columns of every step
    # are exact unit columns; an error there doubles with each squaring
    assert np.all(R[:, lay.I, lay.I] == 1.0)
    for n, h in enumerate(dt):
        ref = expm(lay.M * h)
        for got in (R[n], R2[n]):
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), h
        ref = van_loan_frechet_sum(lay.M, dt[n : n + 1], lam[n : n + 1],
                                   x[n : n + 1])
        assert np.max(np.abs(L[n].T - ref)) <= 1e-12 * np.max(np.abs(ref)), h


@settings(max_examples=30, deadline=None)
@given(d=st.integers(1, 5), data=st.data())
def test_expm_stack_matches_scipy_and_van_loan(d, data):
    e = data.draw(st.integers(1, d), label="e")
    full = data.draw(st.booleans(), label="full")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    # rows of alpha sum below 0.9, so every block is subcritical
    p = ModelParams(
        d=d, e=e, theta=rng.uniform(0.2, 5.0, size=(d, d)),
        alpha=rng.uniform(0.0, 0.9 / d, size=(d, d)),
        gamma=np.zeros(d), nu=rng.uniform(0.1, 1.0, size=d),
    )
    dt = np.concatenate([[0.0, 1e-12], rng.exponential(1.0, size=6), [25.0]])
    _check_expm_stack(_Layout(p, full), dt, rng)


@pytest.mark.parametrize("theta,dt", [
    (1.0, [0.0, 1e-12, 0.3, 2.0, 40.0]),   # defective generator
    (1000.0, [1e-4, 0.75, 2.0, 9.0]),      # theta * dt > 700
], ids=["theta1", "theta1000"])
@pytest.mark.parametrize("full", [False, True])
def test_expm_stack_edge_cases(theta, dt, full):
    p = ModelParams(d=3, e=2, theta=np.full((3, 3), theta),
                    alpha=[[0.3, 0.2, 0.1], [0.2, 0.3, 0.2], [0.1, 0.1, 0.2]],
                    gamma=np.zeros(3), nu=[0.4, 0.5, 0.6])
    _check_expm_stack(_Layout(p, full), np.array(dt), np.random.default_rng(1))
