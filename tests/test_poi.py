"""Exact evaluator: values against exact references, adjoint gradients."""

import numpy as np
import pytest

from pmbp import (
    DomainError,
    ModelParams,
    PoiEvaluator,
    RegularityError,
    compensator_eval,
    fd_gradient,
    hawkes_compensator,
    hawkes_intensity,
    pack,
    unpack,
    xi_eval,
)
from pmbp import closed_form_pmbp21


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
    assert np.allclose(vals.xi, hawkes_intensity(hawkes2, list(hawkes_path.times), t),
                       rtol=1e-12)
    assert np.allclose(vals.Xi, hawkes_compensator(hawkes2, list(hawkes_path.times), t),
                       rtol=1e-12)


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
