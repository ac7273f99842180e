"""Analytic 2-d/1-censored solution against the grid engine and oracles."""

import numpy as np
import pytest

from pmbp import DimensionError, ModelParams, RegularityError
from reference.closed_form import closed_form_pmbp21
from reference.engine import compensator_eval, xi_eval

from oracles import mbp11_response


def test_against_grid_engine(pmbp21, events21, tables21):
    grid = tables21.grid
    t = grid.points
    xi_cf, Xi_cf = closed_form_pmbp21(pmbp21, events21, t)
    xi_g = xi_eval(pmbp21, events21, tables21)
    Xi_g = compensator_eval(pmbp21, events21, tables21)
    # exclude one cell around each event discontinuity
    mask = np.ones(t.size, dtype=bool)
    for ev in events21[1]:
        mask &= np.abs(t - ev) > grid.dt * (1 + 1e-9)
    rel_xi = np.max(np.abs(xi_cf - xi_g)[mask] / np.maximum(np.abs(xi_cf[mask]), 1e-9))
    rel_Xi = np.max(np.abs(Xi_cf - Xi_g)[mask & (t > 0.5)]
                    / np.maximum(np.abs(Xi_cf[mask & (t > 0.5)]), 1e-9))
    assert rel_xi < 2e-2
    assert rel_Xi < 2e-2


def test_no_events_reduces_to_censored_baseline():
    # without observed events and with matching rows, dimension 1 behaves like
    # the 1-d fully censored model driven by nu
    a, th, nu = 0.6, 1.3, 0.7
    p = ModelParams(d=2, e=1, theta=[[th, 1.0], [th, 1.0]],
                    alpha=[[a, 0.0], [0.0, 0.0]], gamma=[0.0, 0.0],
                    nu=[nu, 0.0])
    t = np.linspace(0.0, 6.0, 200)
    xi, _ = closed_form_pmbp21(p, [np.zeros(0), np.zeros(0)], t)
    # stationary solution: xi = nu + (h * nu); with the exponential response
    # h(u) = a th exp(-(1-a) th u) the integral is explicit
    h_int = np.array([
        a * th * (1 - np.exp(-(1 - a) * th * tt)) / ((1 - a) * th) for tt in t
    ])
    want = nu * (1 + h_int)
    assert np.allclose(xi[:, 0], want, rtol=1e-9, atol=1e-12)


def test_gamma_impulse_term():
    a, th, g = 0.5, 2.0, 0.8
    p = ModelParams(d=2, e=1, theta=[[th, 0.7], [th, 0.7]],
                    alpha=[[a, 0.0], [0.0, 0.0]], gamma=[g, 0.0],
                    nu=[0.0, 0.0])
    t = np.linspace(0.01, 4.0, 100)
    xi, Xi = closed_form_pmbp21(p, [np.zeros(0), np.zeros(0)], t)
    # xi = h gamma with the 1-d censored response
    want = mbp11_response(a, th, t) * g
    assert np.allclose(xi[:, 0], want, rtol=1e-9)
    # compensator starts at the impulse mass gamma
    assert Xi[0, 0] >= g


def test_requires_2d_1censored(pmbp21):
    p1 = ModelParams(d=1, e=1, theta=[[1.0]], alpha=[[0.5]], gamma=[0.0],
                     nu=[1.0])
    with pytest.raises(DimensionError):
        closed_form_pmbp21(p1, [np.zeros(0)], np.array([1.0]))


def test_rejects_supercritical_block(pmbp21):
    bad = pmbp21.replace(alpha=[[1.0, 0.5], [0.5, 0.5]])
    with pytest.raises(RegularityError):
        closed_form_pmbp21(bad, [np.zeros(0), np.zeros(0)], np.array([1.0]))


def test_event_discontinuity_jump(pmbp21, events21):
    # xi is discontinuous at an observed event: the jump equals phi(0+) col 2
    eps = 1e-9
    t_ev = 2.5
    xi_lo, _ = closed_form_pmbp21(pmbp21, events21, np.array([t_ev - eps]))
    xi_hi, _ = closed_form_pmbp21(pmbp21, events21, np.array([t_ev + eps]))
    jump = xi_hi[0] - xi_lo[0]
    alpha_theta = pmbp21.alpha[:, 1] * pmbp21.theta[:, 1]
    # the direct kernel contributes its full height; the censored feedback
    # needs positive elapsed time, so the instantaneous jump is phi^{.2}(0)
    assert np.allclose(jump, alpha_theta, rtol=1e-5)
