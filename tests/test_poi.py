"""Exact evaluator: values against exact references, adjoint gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from pmbp import (
    CensoredSeries,
    Dataset,
    DomainError,
    ModelParams,
    PoiEvaluator,
    RegularityError,
    fd_gradient,
    nll_and_grad,
    pack,
    predict_counts,
    sample_pmbp,
    total_nll,
    unpack,
)
from pmbp.decay import SourceDecay, _stack
from pmbp.paramvec import n_free
from pmbp.poi import (
    _CHUNK,
    _CHUNK_FLOATS,
    _Expm,
    _grid,
    _Layout,
    _plan,
    _scan,
    _schedule,
    _values,
    _vjp,
)
from reference.closed_form import closed_form_pmbp21
from reference.engine import compensator_eval, xi_eval

from oracles import (
    decay_prefix_loop,
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


@pytest.mark.parametrize("e", [0, 1, 3])
def test_query_order_repeats_and_empty_queries(e):
    # the rows of any query are those of its sorted unique times, bitwise;
    # an empty query gives (0, d) rows and a zero gradient
    d = 3
    rng = np.random.default_rng(60 + e)
    p = ModelParams(
        d=d, e=e, theta=rng.uniform(0.3, 3.0, size=(d, d)),
        alpha=rng.uniform(0.05, 0.25, size=(d, d)),
        gamma=rng.uniform(0.2, 1.0, size=d), nu=rng.uniform(0.1, 1.0, size=d),
    )
    events = [np.sort(rng.uniform(0.0, 20.0, 15)) for _ in range(d)]
    ev = PoiEvaluator(p, events)
    t = np.concatenate([rng.uniform(0.0, 25.0, 30), events[-1][:5], [0.0]])
    t = rng.permutation(np.concatenate([t, t[:10]]))
    tu, inv = np.unique(t, return_inverse=True)
    vals, ref = ev.values(t), ev.values(tu)
    assert np.array_equal(vals.xi, ref.xi[inv])
    assert np.array_equal(vals.Xi, ref.Xi[inv])
    empty = ev.values([])
    assert empty.xi.shape == empty.Xi.shape == (0, d)
    for include_gamma in (False, True):
        grad = ev.vjp(empty, np.zeros((0, d)), np.zeros((0, d)), include_gamma)
        assert grad.shape == (len(pack(p, include_gamma)),)
        assert np.all(grad == 0.0)


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
    "p,include_gamma,lattice",
    [
        (_model(2, 1, [0.0, 0.0]), False, False),
        (_model(2, 1, [0.4, 0.3]), False, False),
        (_model(2, 1, [0.4, 0.3]), True, False),
        (_model(3, 2, [0.0, 0.0, 0.0]), False, False),
        (_model(3, 2, [0.4, 0.3, 0.2]), True, False),
        (_model(3, 3, [0.4, 0.3, 0.2]), True, False),
        (_model(3, 1, [0.4, 0.3, 0.2]), True, True),
    ],
    ids=["gamma0-False", "gamma1-False", "gamma2-True",
         "d3e2", "d3e2-gamma", "d3e3-gamma", "d3e1-lattice"],
)
def test_derivatives_match_fd(p, include_gamma, lattice):
    # the adjoint gradient of an arbitrary linear functional of xi and Xi;
    # on the lattice (integer queries, half-integer events) many steps share
    # a length, so the Frechet sum is taken per distinct length
    rng = np.random.default_rng(p.d + p.e)
    events = [np.array([0.9, 2.2, 4.5]), np.array([0.3, 1.7, 3.3]),
              np.array([2.9, 5.5])][: p.d]
    t = np.array([6.123, 0.0, 1.37, 3.0, 2.2, 1.37])
    if lattice:
        events = [np.zeros(0), np.array([0.5, 2.5, 3.5, 6.5]),
                  np.array([1.5, 3.5, 7.5])]
        t = np.arange(9.0)
        sched = PoiEvaluator(p, events).values(t).plan.grid.schedule
        assert sched.lengths.size < sched.index.size
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
    assert vals.scan.grid.dt.size > _CHUNK
    g_an = ev.vjp(vals, c_xi, c_Xi, True)
    g_fd = fd_gradient(f, pack(p, True))
    assert np.max(np.abs(g_an - g_fd) / np.maximum(np.abs(g_fd), 1e-3)) < 1e-6


def test_derivatives_match_fd_through_squarings():
    # decays from 1e-3 to 1e3 give steps of 5 to 14 squarings, each of
    # which carries the Frechet derivative along as L <- R L + L R
    rng = np.random.default_rng(4)
    theta = 10.0 ** rng.uniform(-3.0, 3.0, (3, 3))
    theta[0, 0], theta[1, 2] = 1e3, 1e-3
    p = ModelParams(d=3, e=2, theta=theta, alpha=rng.uniform(0.1, 0.3, (3, 3)),
                    gamma=[0.4, 0.3, 0.2], nu=rng.uniform(0.4, 0.9, 3))
    events = [np.sort(rng.uniform(0.0, 60.0, size=6)) for _ in range(p.d)]
    t = np.r_[rng.uniform(0.0, 60.0, size=10), 30.0 + 0.04 * np.arange(4)]
    c_xi = rng.standard_normal((t.size, p.d))
    # Xi grows with t: dividing its cotangents by t keeps the rounding of
    # the functional, which central differences divide by the step, below
    # the tolerance
    c_Xi = rng.standard_normal((t.size, p.d)) / t[:, None]

    def f(vec):
        v = PoiEvaluator(unpack(p, vec, True), events).values(t)
        return float(np.sum(c_xi * v.xi + c_Xi * v.Xi))

    ev = PoiEvaluator(p, events)
    vals = ev.values(t)
    sq = np.ceil(np.log2(ev.layout.expm.norm * vals.scan.grid.dt))
    assert sq.min() >= 5 and sq.max() == 14
    g_an = ev.vjp(vals, c_xi, c_Xi, True)
    g_fd = fd_gradient(f, pack(p, True))
    assert np.max(np.abs(g_an - g_fd) / np.maximum(np.abs(g_fd), 1e-3)) < 1e-6


@settings(max_examples=30, deadline=None)
@given(d=st.integers(1, 5), data=st.data())
def test_compensator_is_monotone(d, data):
    # Xi integrates xi >= 0, so it never decreases, at query times placed
    # between events and on them; rows of alpha sum below 0.9, so every
    # model is subcritical
    e = data.draw(st.integers(0, d), label="e")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1),
                                          label="seed"))
    p = ModelParams(d=d, e=e, theta=10.0 ** rng.uniform(-3.0, 3.0, (d, d)),
                    alpha=rng.uniform(0.0, 0.9 / d, (d, d)),
                    gamma=rng.uniform(0.0, 0.5, d),
                    nu=rng.uniform(0.1, 1.0, d))
    events = [np.sort(rng.uniform(0.0, 20.0, rng.integers(0, 15)))
              for _ in range(d)]
    t = np.sort(np.concatenate([rng.uniform(0.0, 20.0, 40), *events[e:]]))
    vals = PoiEvaluator(p, events).values(t)
    assert np.all(vals.xi >= 0.0)
    assert np.all(np.diff(vals.Xi, axis=0) >= -1e-12 * np.abs(vals.Xi).max())


def _check_expm_stack(lay, dt, rng):
    """lay.expm against scipy.linalg.expm step by step, and its Frechet
    derivatives, transposed, against the Van Loan oracle, both to 1e-12 of
    the reference's largest entry: each step's alone, and their sum over
    the whole stack to 1e-12 of the sum of the steps' largest entries."""
    sched = _schedule(dt)
    R = np.empty((sched.lengths.size, lay.s, lay.s))
    lay.expm.steps(sched.lengths, R)
    R = R[sched.index]
    x = rng.standard_normal((dt.size, lay.s))
    lam = rng.standard_normal((dt.size, lay.s))
    v = lam * dt[:, None]
    # nothing feeds back from the integrals, so their columns of every step
    # are exact unit columns; an error there doubles with each squaring
    assert np.all(R[:, lay.I, lay.I] == 1.0)
    scale = 0.0
    for n, h in enumerate(dt):
        ref = expm(lay.M * h)
        assert np.max(np.abs(R[n] - ref)) <= 1e-12 * np.max(np.abs(ref)), h
        step = slice(n, n + 1)
        ref = van_loan_frechet_sum(lay.M, dt[step], lam[step], x[step])
        got = lay.expm.frechet(_schedule(dt[step]), x[step], v[step]).T
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), h
        scale += np.max(np.abs(ref))
    ref = van_loan_frechet_sum(lay.M, dt, lam, x)
    got = lay.expm.frechet(sched, x, v).T
    assert np.max(np.abs(got - ref)) <= 1e-12 * scale


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


def _check_grouped(lay, grid, rng):
    """The scan's steps of a grid against scipy.linalg.expm, and the
    Frechet sums over its schedule against the Van Loan oracle, each
    length's alone and the whole schedule's, to 1e-12 as in
    _check_expm_stack."""
    sched = grid.schedule
    dt = grid.dt[grid.real]
    assert np.array_equal(sched.lengths[sched.index], dt)
    # the scan's steps: one per distinct length, gathered, identity padding
    E = _scan([lay], grid).E[:, 0]
    assert np.all(E[~grid.real] == np.eye(lay.s))
    refs = [expm(lay.M * h) for h in sched.lengths]
    for got, k in zip(E[grid.real], sched.index):
        assert np.max(np.abs(got - refs[k])) <= 1e-12 * np.max(np.abs(refs[k]))
    x = rng.standard_normal((dt.size, lay.s))
    lam = rng.standard_normal((dt.size, lay.s))
    v = lam * dt[:, None]
    scale = 0.0
    for k in range(sched.lengths.size):
        at = sched.index == k
        ref = van_loan_frechet_sum(lay.M, dt[at], lam[at], x[at])
        got = lay.expm.frechet(_schedule(dt[at]), x[at], v[at]).T
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), k
        scale += sum(np.max(np.abs(van_loan_frechet_sum(
            lay.M, dt[n : n + 1], lam[n : n + 1], x[n : n + 1])))
            for n in np.flatnonzero(at))
    ref = van_loan_frechet_sum(lay.M, dt, lam, x)
    got = lay.expm.frechet(sched, x, v).T
    assert np.max(np.abs(got - ref)) <= 1e-12 * scale


@settings(max_examples=20, deadline=None)
@given(d=st.integers(1, 4), data=st.data())
def test_grouped_steps_and_frechet_sums_on_repeated_lengths(d, data):
    # width-1 windows shared by every dataset, events on a 0.5 lattice,
    # and a last dataset of horizon 2 with no events (padding): many real
    # steps share a length, and the lengths above 1 / ||M||_1 are squared.
    # Each distinct length is evaluated and squared once, its intervals'
    # Frechet derivatives summed before the squarings
    e = data.draw(st.integers(1, d), label="e")
    B = data.draw(st.integers(1, 2), label="datasets")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1),
                                          label="seed"))
    p = ModelParams(d=d, e=e, theta=rng.uniform(1.0, 3.0, (d, d)),
                    alpha=rng.uniform(0.0, 0.9 / d, (d, d)),
                    gamma=rng.uniform(0.0, 0.5, d), nu=rng.uniform(0.1, 1.0, d))
    lay = _Layout(p)
    events, times = [], []
    for _ in range(B):
        T = float(rng.integers(4, 9))
        times.append(np.arange(T + 1.0))
        events.append([np.zeros(0)] * e + [
            0.5 * np.unique(rng.integers(1, 2 * T, rng.integers(0, 4)))
            for _ in range(d - e)])
    times.append(np.arange(3.0))
    events.append([np.zeros(0)] * d)
    grid = _grid(events, times, e)
    assert not grid.real.all()
    sched = grid.schedule
    sizes = np.diff(np.r_[sched.heads, sched.index.size])
    assert np.all(sizes[lay.expm.norm * sched.lengths > 1.0] > 1)
    _check_grouped(lay, grid, rng)


def test_grouped_frechet_sum_spans_chunks():
    # 200 width-1 windows and a few events: the Frechet pass takes the
    # intervals in chunks, and the width-1 group runs across chunk ends
    p = _model(2, 1, [0.4, 0.3])
    lay = _Layout(p)
    rng = np.random.default_rng(3)
    grid = _grid([[np.zeros(0), np.sort(rng.uniform(0.0, 200.0, 12))]],
                 [np.arange(201.0)], 1)
    sched = grid.schedule
    size = min(_CHUNK, _CHUNK_FLOATS // lay.s**2) // 2
    ends = np.r_[sched.heads[1:], sched.index.size]
    assert np.any((sched.heads < size) & (ends > size))
    _check_grouped(lay, grid, rng)


def test_evaluator_evaluates_each_distinct_length_once(monkeypatch):
    # width-1 window boundaries with a few events: the evaluator's grid
    # groups its steps, so _Expm.steps sees each distinct length once
    p = _model(2, 1, [0.4, 0.3])
    events = [np.zeros(0), np.array([2.5, 7.25, 11.5, 11.75])]
    t = np.arange(21.0)
    seen = []
    steps = _Expm.steps

    def recording(self, lengths, out):
        seen.append(lengths.copy())
        steps(self, lengths, out)

    monkeypatch.setattr(_Expm, "steps", recording)
    vals = PoiEvaluator(p, events).values(t)
    grid = vals.plan.grid
    lengths = np.concatenate(seen)
    assert len(seen) == 1
    assert lengths.size < grid.real.sum()
    assert np.array_equal(lengths, np.unique(grid.dt[grid.real]))


def _bytes(x):
    return np.ascontiguousarray(x).tobytes()


@settings(max_examples=25, deadline=None)
@given(d=st.integers(1, 4), data=st.data())
def test_round_scan_gives_each_point_its_scan_alone(d, data):
    # P points scanned on one (P, B) batch axis, some of which leave the
    # batch before the adjoint: every point's states, values and gradient
    # are bitwise those of its scan alone
    e = data.draw(st.integers(1, d), label="e")
    P = data.draw(st.integers(1, 4), label="points")
    B = data.draw(st.integers(1, 3), label="datasets")
    keep = data.draw(st.lists(st.integers(0, P - 1), min_size=1, unique=True),
                     label="keep")
    keep = np.sort(keep)
    include_gamma = data.draw(st.booleans(), label="include_gamma")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1),
                                          label="seed"))
    ps = [ModelParams(d=d, e=e, theta=10.0 ** rng.uniform(-1.0, 1.0, (d, d)),
                      alpha=rng.uniform(0.0, 0.9 / d, (d, d)),
                      gamma=rng.uniform(0.0, 0.5, d),
                      nu=rng.uniform(0.1, 1.0, d)) for _ in range(P)]
    lays = [_Layout(p) for p in ps]
    events, times = [], []
    for _ in range(B):
        T = float(rng.integers(3, 12))
        events.append([np.sort(rng.uniform(0.0, T, rng.integers(0, 8)))
                       for _ in range(d)])
        times.append(np.unique(np.r_[np.arange(T + 1.0), *events[-1][e:]]))
    plan = _plan(events, times, e)
    m = plan.t.size
    gxi = rng.standard_normal((P, m, d))
    gXi = rng.standard_normal((P, m, d))

    def gradient(points, vals, rows):
        grad = np.zeros((len(rows), n_free(d, include_gamma)))
        _vjp([ps[i] for i in points], [lays[i] for i in points], vals, rows,
             gxi[points], gXi[points], grad, include_gamma)
        return grad

    vals = _values(ps, lays, plan)
    grad = gradient(keep, vals, keep)
    for i in range(P):
        one = _values([ps[i]], [lays[i]], plan)
        assert _bytes(vals.scan.X[:, i]) == _bytes(one.scan.X[:, 0])
        assert _bytes(vals.xi[i]) == _bytes(one.xi[0])
        assert _bytes(vals.Xi[i]) == _bytes(one.Xi[0])
        if i in keep:
            alone = gradient([i], one, [0])
            assert _bytes(grad[np.searchsorted(keep, i)]) == _bytes(alone[0])


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


def test_evaluation_path_solves_no_linear_system(monkeypatch):
    # every step of the scan, its adjoint, the sampler and the forecast is
    # a Taylor polynomial in shared powers of M, then squarings
    def refuse(*args, **kwargs):
        raise AssertionError("linear solve on the evaluation path")

    rng = np.random.default_rng(9)
    T = 10.0
    cases = []
    for d, e in [(2, 1), (4, 2)]:
        p = ModelParams(d=d, e=e, theta=rng.uniform(0.5, 2.0, (d, d)),
                        alpha=rng.uniform(0.0, 0.9 / d, (d, d)),
                        gamma=np.zeros(d), nu=rng.uniform(0.2, 0.6, d))
        ds = Dataset(
            T=T,
            censored=tuple(CensoredSeries(boundaries=np.arange(T + 1.0),
                                          counts=rng.poisson(0.8, int(T)))
                           for _ in range(e)),
            events=tuple(np.sort(rng.uniform(0.0, T, 7))
                         for _ in range(d - e)),
        )
        cases.append((p, ds))
    monkeypatch.setattr(np.linalg, "solve", refuse)
    monkeypatch.setattr(np.linalg, "inv", refuse)
    for p, ds in cases:
        value, grad = nll_and_grad(p, ds)
        assert np.isfinite(value) and np.all(np.isfinite(grad))
        pred = predict_counts(p, ds, T + np.arange(3.0), n_samples=1, seed=0)
        assert np.all(np.isfinite(pred.mean))
        assert sample_pmbp(p, 20.0, seed=0).T == 20.0


@pytest.mark.parametrize("n", [0, 1, 2, 100, 5000])
@pytest.mark.parametrize("r", [1e-3, 1.0, 1e3])
def test_source_decay_matches_event_loop(n, r):
    # the log-depth doubling gives the prefix sums of the one-event-at-a-time
    # recursion; below the normal range (r = 1e3) a float has no relative
    # precision left, so differences there are held to the smallest normal
    times = np.cumsum(np.random.default_rng(n).exponential(1.0, n))
    rates = r * np.array([1.0, 0.5, 2.0])
    decay = SourceDecay(times[None], rates[:, None])
    B, C = decay_prefix_loop(times, rates)
    tiny = np.finfo(float).tiny
    np.testing.assert_allclose(decay._B[:, 0], B, rtol=1e-12, atol=tiny)
    np.testing.assert_allclose(decay._C[:, 0], C, rtol=1e-12, atol=tiny)


def test_stacked_source_decay_matches_one_source_at_a_time():
    # a stack of sources padded to one length runs the same arithmetic as
    # each source alone: bitwise equal sums, empty sources included
    rng = np.random.default_rng(11)
    sources = [np.cumsum(rng.exponential(1.0, n)) for n in (0, 1, 7, 40, 3)]
    queries = [np.sort(rng.uniform(0.0, 45.0, m)) for m in (5, 0, 9, 30, 4)]
    rates = rng.uniform(0.1, 5.0, (3, len(sources)))
    times, gaps, located = _stack(sources, queries)
    cnt, esum, wsum = SourceDecay(times, rates, gaps)._sums(located)
    start = 0
    for k, (ts, u) in enumerate(zip(sources, queries)):
        rows = slice(start, start + u.size)
        start += u.size
        one, one_gaps, one_located = _stack([ts], [u])
        ref = SourceDecay(one, rates[:, k : k + 1], one_gaps)._sums(one_located)
        for got, want in zip((cnt[rows], esum[rows], wsum[rows]), ref):
            assert np.array_equal(got, want), k
