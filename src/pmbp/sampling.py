"""Exact simulation of the partially censored process, and count forecasts
past a training horizon.

With exponential kernels the conditional intensity of every dimension is a
linear readout xi = R x of a state x that solves dx/dt = M x between
observed events and jumps by alpha[:, k] theta[:, k] at each event of an
observed source k (poi._Layout(full=True) builds M, R and the jumps).  The
state also carries the integral of every xi_i, so the compensator of the
sampled dimensions is a sum of coordinates of expm(M tau) x.

By the time-rescaling theorem (Brown et al. 2002; Dassios & Zhao 2013 use
the same inversion for exponential Hawkes processes) the events of a set
of dimensions are the times at which their summed compensator passes the
points of a unit-rate Poisson stream.  Every draw (_draw), from any
state and time, takes two passes.

The observed pass (_continue) inverts the summed compensator of the
observed dimensions event by event, since each of their events jumps the
state: the next event comes after the time tau at which that
compensator, restarted at the current time, reaches an Exp(1) draw, and
its dimension is drawn in proportion to xi(t + tau).  M never changes
within a run, so every step reads two tables built once per run (_Steps),
with h = 1 / ||M||_1: the Taylor terms (M h)^k / k!, read off the powers
of M h that the layout's expm (poi._Expm) shares with the scan, and a
dyadic ladder of expm(M 2^j h).  Both carry the compensator as one more
row, so one matrix-vector product gives the state and the compensator
together.  Across a long gap the state gallops up and down the ladder,
one product per rung, while a rung ends before the end time and the
compensator at its end stays below the draw.  The event then lies within
h, where one product with the Taylor table gives the state and the
compensator as polynomials in the step.  Newton's method (the derivative
is the summed intensity) inside a bisection bracket solves it by Horner's
rule in Python floats, from the root of the compensator's quadratic part,
and its last step is checked on the state it returns.  There is no grid,
bound or rejection, and an event costs the same whatever the history's
length.  At d = 2 (T = 600) an event takes 2.0 rung products at e = 0 and
3.2 at e = 1, then one Taylor product, 1.8-2.0 Horner passes and one
state evaluation, on arrays of a few dozen entries whose per-call cost,
not the arithmetic, sets the price.  On a 2-vCPU x86-64 machine that is
about 12.7 us at e = 0 and 12.4 us at e = 1, where the gaps between
observed events are twice as long and the dimension draw is skipped.

The censored dimensions are driven by the expected response, so their
events never jump the state and are outputs only: given the observed
path they form an inhomogeneous Poisson process.  The observed pass keeps
its stops (the start, every event and the end), with the state there and
the censored compensator since the stop before, which the state
integrates anyway.  The censored pass (_censored) then draws their count
at once, places that many sorted uniform targets in compensator time, and
inverts them all together by a safeguarded Newton's method on arrays
(_newton), each iteration one batched expm(M tau) from the layout's expm
and one batched product.  That costs about 3.6 us per censored event at
d = 2, e = 1, with 3.4 state evaluations per event.  The impulse weight
gamma shapes the smooth intensity but its atom at t=0 is not realized as
events.

The count forecast (predict_counts) samples nothing.  Past the training
horizon only the observed sources jump the state, each at a rate linear in
it, so the state's mean and covariance solve a closed linear ODE (the
moment closure of affine point processes), and each window's censored
compensator increment has its exact mean and sd read off them.  The
Monte Carlo forecast that draws every dimension past the horizon with
_draw is a reference of the test suite (tests/reference/forecast.py), not
part of the library.
"""

from __future__ import annotations

import dataclasses
import math
from bisect import bisect_right
from itertools import accumulate

import numpy as np

from .errors import (
    DomainError,
    ExplosionError,
    NumericalConsistencyError,
    ParameterError,
)
from .params import Dataset, EventHistory, ModelParams, _seeded, _times
from .poi import _FACTORIALS, _TAYLOR_DEGREE, _Layout, _grid, _scan

_NEWTON_TOL = 1e-10  # |compensator - target| accepted at an event time
_NEWTON_MAX_ITER = 60  # bisection alone shrinks the bracket by 2**-60
_DEGREES = np.arange(_TAYLOR_DEGREE + 1.0)  # float: u ** k casts no ints
_TAYLOR_MAX_TERMS = 30  # at ||A||_1 h <= 1/4 about 16 terms reach _EPS
_EPS = np.finfo(float).eps
_SAME_WIDTH = 1e-12  # relative gap below which forecast windows share a step


class _Steps:
    """The steps of expm(M tau) that one run of the sampler takes, each with
    one more row for the compensator sum of x[comp].

    With h = 1 / ||M||_1 and c the indicator of comp, taylor stacks the
    blocks [P[k]; c P[k]] / k!, k <= _TAYLOR_DEGREE, of the powers P[k] =
    (M h)^k that lay.expm holds for the scan.  Z = (taylor @ x).reshape(-1,
    s + 1) gives the state at u h, u <= 1, followed by the compensator
    there, as sum_k u^k Z[k]: the last column holds the compensator's
    polynomial coefficients.  The dyadic ladder holds rungs[j] = [E; c E],
    E = expm(M 2^j h), for the widths that fit in the span, so rungs[j] @ x
    is the state at the rung's end followed by the compensator there.  The
    rungs are a list, so that a gallop indexes no array.
    """

    def __init__(self, lay: _Layout, comp, span: float):
        s = lay.s
        self.h = h = 1.0 / lay.expm.norm
        c = np.zeros(s)
        c[comp] = 1.0
        taylor = lay.expm.P / _FACTORIALS[:, None, None]
        self.taylor = np.concatenate([taylor, (c @ taylor)[:, None]],
                                     axis=1).reshape(-1, s)
        n = int(np.floor(np.log2(span / h))) + 1 if span >= h else 0
        self.widths = [h * 2.0 ** j for j in range(n)]
        rungs = np.empty((n, s, s))
        lay.expm.steps(np.array(self.widths), rungs)
        self.rungs = list(np.concatenate([rungs, (c @ rungs)[:, None]],
                                         axis=1))

    def gallop(self, x, t: float, end: float, target: float):
        """Advance x from t by whole rungs, up the ladder and back down, while
        a rung ends by end and the compensator at its end stays below
        target.  Returns the state and its time."""
        widths, rungs = self.widths, self.rungs
        top = len(widths) - 1
        j, up = 0, True
        while j >= 0:
            if j <= top and widths[j] <= end - t:
                y = rungs[j].dot(x)
                if y[-1] < target:
                    x = y[:-1]
                    t += widths[j]
                    j = min(j + 1, top) if up else j - 1
                    continue
            up = False
            j -= 1
        return x, t


def _invert(Z: np.ndarray, end: float, target: float):
    """The u in (0, end) at which the compensator polynomial sum_k c[k] u^k,
    c the last column of Z, reaches target, and sum_k u^k Z[k] there: the
    state followed by the compensator.  The caller has checked that the
    compensator reaches target before end.

    Newton's method starts at the root of the quadratic c[0] + c[1] u +
    c[2] u^2 = target (at twice the linear start where the quadratic never
    reaches target) and keeps a bisection bracket.  Each step evaluates
    the polynomial and its derivative in u, the summed intensity in units
    of the step h, by Horner's rule.  Once a residual is below
    sqrt(_NEWTON_TOL), the next step's residual is about its square, so
    that step is checked on the state it returns rather than by one more
    Horner pass; if the check fails Newton goes on from there.

    Raises NumericalConsistencyError if the compensator is not within
    _NEWTON_TOL of target after _NEWTON_MAX_ITER iterations, checks
    included."""
    c = Z[:, -1].tolist()
    lo, hi = 0.0, end
    gap = target - c[0]
    q = c[1] + math.sqrt(max(c[1] * c[1] + 4.0 * c[2] * gap, 0.0))
    u = 2.0 * gap / q if q * end > 2.0 * gap else 0.5 * end
    check = False
    for _ in range(_NEWTON_MAX_ITER):
        if check:
            y = (u ** _DEGREES).dot(Z)
            f = y[-1] - target
            if abs(f) <= _NEWTON_TOL:
                return u, y
            check = False
            continue
        p = rate = 0.0
        for ck in reversed(c):
            rate = rate * u + p
            p = p * u + ck
        f = p - target
        if abs(f) <= _NEWTON_TOL:
            return u, (u ** _DEGREES).dot(Z)
        if f < 0:
            lo = u
        else:
            hi = u
        step = u - f / rate if rate > 0 else hi
        if lo < step < hi:
            u = step
            check = f * f <= _NEWTON_TOL
        else:
            u = 0.5 * (lo + hi)
    raise NumericalConsistencyError(
        f"compensator inversion left a residual of {f:.3g} after "
        f"{_NEWTON_MAX_ITER} iterations"
    )


def _pick(lam: np.ndarray, u: float) -> int:
    """searchsorted(cumsum(lam), u * lam.sum(), side="right"), clipped to
    len(lam) - 1: the index of the event's dimension among the intensities
    lam, for a uniform u.  The search runs on a list, since on a few entries
    NumPy's per-call cost is most of the work.  NumPy sums fewer than 8
    entries in order, so the last partial sum is lam.sum(); from 8 on it
    sums pairwise, and its own sum is taken."""
    cum = list(accumulate(lam.tolist()))
    total = cum[-1] if len(cum) < 8 else float(lam.sum())
    return min(bisect_right(cum, u * total), len(cum) - 1)


def _continue(lay: _Layout, x, t: float, end: float,
              rng: np.random.Generator, max_events: int, stops=None):
    """The observed pass: run the process from state x (left unchanged) at
    time t to end, drawing the observed dimensions' events one at a time.

    The integrals of x must be zero, and they are zero again after every
    event.  So the observed integrals are the compensator since the last
    event, which the gallop and then _invert carry to its Exp(1) draw.
    The state also integrates the censored intensities.  When stops is a
    list, each event appends (time, state before the reset and the jump,
    dimension), and the end appends (end, state there, -1): the censored
    compensators since the stop before are that state's integrals.  At
    e = d no event is drawn, and one expm step carries the state to the
    end.

    Returns the new event times per dimension, empty for the censored ones.
    """
    d, e = lay.Y.shape
    ints = slice(lay.I[0], lay.I[-1] + 1)
    if np.any(x[ints]):
        raise ValueError("the state's integrals must start at zero")
    end = float(end)
    s = lay.s
    new_times = [[] for _ in range(d)]
    if e == d:
        # the one Exp(1) draw the loop would take, so that the censored
        # pass reads the same stream
        rng.exponential()
        if stops is not None:
            E = np.empty((1, s, s))
            lay.expm.steps(np.array([end - t]), E)
            stops.append((end, E[0].dot(x), -1))
        return new_times
    rates = lay.R[e:]
    jumps = list(lay.J)
    keep = np.ones(s)
    keep[ints] = 0.0
    steps = _Steps(lay, lay.I[e:], end - t)
    h = steps.h
    n_new = 0
    # ndarray.dot, not @: the same BLAS calls, at about half the per-call
    # cost on arrays this small
    while True:
        target = rng.exponential()
        x, t = steps.gallop(x, t, end, target)
        # the end, or else the next event, lies within h of t
        Z = steps.taylor.dot(x).reshape(-1, s + 1)
        u_end = 1.0
        if end - t <= h:
            u_end = (end - t) / h
            y = (u_end ** _DEGREES).dot(Z)
            if y[s] <= target:
                if stops is not None:
                    stops.append((end, y[:s], -1))
                return new_times
        u, y = _invert(Z, u_end, target)
        x = y[:s]
        t += u * h
        # random() is uniform() without its 0 + 1 * r; with one observed
        # dimension it is drawn all the same, to keep the stream
        v = rng.random()
        j = e + _pick(rates.dot(x), v) if d - e > 1 else e
        new_times[j].append(t)
        n_new += 1
        if n_new > max_events:
            raise ExplosionError(
                f"more than {max_events} events accepted before t={t:.4g}; "
                "the configuration is likely supercritical"
            )
        if stops is not None:
            stops.append((t, x, j))
        # the integrals restart at zero, and the event's jump is added
        x = x * keep + jumps[j - e]


def _censored(lay: _Layout, x, t: float, stops, rng: np.random.Generator,
              room: int):
    """The events of the censored dimensions on [t, end), given the observed
    path from the state x at t, drawn in one pass.  stops holds what
    _continue keeps: (time, state before the reset and the jump, dimension)
    at each observed event, then (end, state there, -1).

    Those dimensions' events never jump the state, so each one's place in
    their summed compensator's time is known in advance: N ~ Poisson of
    the censored compensator, then N sorted uniform targets, each inverted
    within its stop interval by _newton.  When e > 1 each event's
    dimension is drawn in proportion to the censored intensities there.

    Returns the event times per censored dimension.  Raises ExplosionError,
    before any array of length N is built, when N exceeds room.
    """
    e, s = lay.Y.shape[1], lay.s
    cens = slice(lay.I[0], lay.I[0] + e)
    ints = slice(lay.I[0], lay.I[-1] + 1)
    t = np.array([t] + [stop[0] for stop in stops])
    pre = np.array([stop[1] for stop in stops])
    # the censored compensator over each stop interval; rounding can leave
    # one a hair below zero where the intensities vanish
    comp = np.maximum(pre[:, cens].sum(axis=1), 0.0)
    cum = np.cumsum(comp)
    n = int(rng.poisson(cum[-1]))
    if n > room:
        raise ExplosionError(
            f"{n} censored events on [{t[0]:.4g}, {t[-1]:.4g}) exceed the {room} "
            "left of max_events; the configuration is likely supercritical"
        )
    # the state just after each stop: the integrals reset, the jump added
    X = np.empty((len(stops), s))
    X[0] = x
    X[1:] = pre[:-1]
    X[1:, ints] = 0.0
    X[1:] += lay.J[np.array([stop[2] for stop in stops[:-1]], dtype=int) - e]
    target = np.sort(rng.random(n)) * cum[-1]
    k = np.minimum(np.searchsorted(cum, target, side="right"), comp.size - 1)
    r = np.minimum(target - np.r_[0.0, cum[:-1]][k], comp[k])
    width = np.diff(t)[k]
    # Newton starts at the offset v * width where the compensator would
    # reach r if the intensity were linear in the interval, from its value
    # a at the start: (comp - a width) v^2 + a width v = r
    aw = (X @ lay.R[:e].sum(axis=0))[k] * width
    q = aw + np.sqrt(np.maximum(aw * aw + 4.0 * (comp[k] - aw) * r, 0.0))
    v = np.divide(2.0 * r, q, out=np.zeros(n), where=q > 0)
    start = width * np.minimum(v, 1.0)
    tau, x = np.empty(n), np.empty((n, s))
    size = lay.expm._size()
    for lo in range(0, n, size):
        b = slice(lo, lo + size)
        tau[b], x[b] = _newton(lay, X[k[b]], width[b], r[b], start[b])
    times = t[k] + tau
    if e == 1:
        return [times]
    cum = np.cumsum(x @ lay.R[:e].T, axis=1)
    u = rng.random(n)[:, None] * cum[:, -1:]
    dim = np.minimum((cum <= u).sum(axis=1), e - 1)
    return [times[dim == j] for j in range(e)]


def _newton(lay: _Layout, X, width, r, u):
    """The offsets u in (0, width) at which the censored compensator from the
    states X reaches r, from the starts u (updated in place), by a
    safeguarded Newton's method on all of them together.  Each iteration evaluates the states
    expm(M u) X of the targets not yet within _NEWTON_TOL, at their sorted
    offsets; the derivative is the summed censored intensity.

    Returns the offsets and the states there.  Raises
    NumericalConsistencyError as _invert does."""
    e = lay.Y.shape[1]
    cens = slice(lay.I[0], lay.I[0] + e)
    rate = lay.R[:e].sum(axis=0)
    lo, hi = np.zeros_like(u), width.copy()
    x = np.empty_like(X)
    E = np.empty((u.size,) + lay.M.shape)
    act = np.arange(u.size)
    for _ in range(_NEWTON_MAX_ITER):
        act = act[np.argsort(u[act])]
        n = act.size
        lay.expm.steps(u[act], E[:n])
        xa = np.matmul(E[:n], X[act, :, None])[:, :, 0]
        x[act] = xa
        f = xa[:, cens].sum(axis=1) - r[act]
        left = np.abs(f) > _NEWTON_TOL
        if not left.any():
            return u, x
        act, f, xa = act[left], f[left], xa[left]
        ua = u[act]
        lo[act] = np.where(f < 0, ua, lo[act])
        hi[act] = np.where(f < 0, hi[act], ua)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = ua - f / (xa @ rate)
        inside = (lo[act] < step) & (step < hi[act])
        u[act] = np.where(inside, step, 0.5 * (lo[act] + hi[act]))
    raise NumericalConsistencyError(
        "censored compensator inversion left a residual of "
        f"{np.abs(f).max():.3g} after {_NEWTON_MAX_ITER} iterations"
    )


def _open(ts: np.ndarray) -> np.ndarray:
    """Nudge each event time that does not exceed the one before it to the
    next float above that one, in place, so that the times are strictly
    increasing.  Collisions are rare: the sequential pass starts at the
    first."""
    bad = np.flatnonzero(ts[1:] <= ts[:-1])
    if bad.size:
        for k in range(bad[0] + 1, ts.size):
            if ts[k] <= ts[k - 1]:
                ts[k] = np.nextafter(ts[k - 1], np.inf)
    return ts


def _draw(lay: _Layout, x, t: float, end: float, rng: np.random.Generator,
          max_events: int) -> list:
    """The event times per dimension on [t, end) from the state x at t (its
    integrals zero): the observed pass (_continue), then, when e > 0, the
    censored pass (_censored) given its stops."""
    e = lay.Y.shape[1]
    stops = [] if e else None
    times = _continue(lay, x, t, end, rng, max_events, stops)
    if e:
        room = max_events - sum(map(len, times))
        times[:e] = _censored(lay, x, t, stops, rng, room)
    return times


def sample_pmbp(
    params: ModelParams,
    T: float,
    seed,
    *,
    max_events: int = 1_000_000,
) -> EventHistory:
    """Draw one realization of all d dimensions on [0, T) exactly, in two
    passes (_draw).

    The observed pass inverts the compensator of the observed dimensions
    event by event (_continue), since each of their events jumps the state.
    When e > 0 it keeps its stops, and the censored pass (_censored) then
    draws every censored event at once given that path: those dimensions
    are Cox streams driven by the expected intensity, so their events are
    outputs only.  At d = 2 an observed event costs about 12.5 us and a
    censored one about 3.6 us (see the module docstring).  The impulse
    weight contributes to the smooth intensity but is not realized as
    events at t=0.  Deterministic for a fixed seed.  Raises ParameterError
    for a seed NumPy refuses, RegularityError when the censored block is
    not subcritical and ExplosionError past max_events events in all.
    """
    if not np.isfinite(T) or T <= 0:
        raise DomainError(f"T must be finite and > 0, got {T}")
    lay = _Layout(params, full=True)
    rng = _seeded(np.random.default_rng, seed)
    times = _draw(lay, lay.x0, 0.0, T, rng, max_events)
    return EventHistory(times=tuple(_open(np.array(ts, dtype=float))
                                    for ts in times), T=T)


@dataclasses.dataclass
class Prediction:
    """Forecast summary from predict_counts: interval boundaries, then per
    interval and censored dim the exact mean and sd of the censored block's
    compensator increment over the observed dims' continuations.  The
    realized count has the same mean and variance mean + sd**2.

    n_samples echoes the request and n_failed is always 0; both are
    deprecated, kept for callers that still read them."""

    boundaries: np.ndarray
    mean: np.ndarray
    sd: np.ndarray
    n_samples: int
    n_failed: int


def _start(params: ModelParams, dataset: Dataset, boundaries, n_samples: int):
    """Validate a forecast request.  Returns the sampler layout, its state at
    the training horizon with the integrals restarted there, and the
    boundaries as an array."""
    bnds = _times(boundaries, "prediction boundaries", increasing=True)
    T_train = dataset.T
    if bnds.size < 2:
        raise ParameterError("need at least two prediction boundaries")
    if not bnds[0] >= T_train * (1 - 1e-12):
        raise ParameterError(
            f"prediction starts at {bnds[0]} before the training horizon {T_train}"
        )
    if n_samples < 1:
        raise ParameterError("need at least one sample")
    if dataset.d != params.d or dataset.e != params.e:
        raise ParameterError("dataset split does not match the model")
    lay = _Layout(params, full=True)
    # the events are validated by Dataset
    grid = _grid([dataset.event_list()], [np.array([T_train])], params.e)
    x_train = _scan([lay], grid).X[-1, 0, 0]
    x_train[lay.I] = 0.0
    return lay, x_train, bnds


def _moment_generators(lay: _Layout):
    """A = M + sum_k J_k R_{e+k}^T, the generator of the mean, and the
    (s, s, s) tensor F[c] = sum_k R_{e+k}[c] J_k J_k^T that feeds the mean
    into the covariance, over the observed sources k."""
    e = lay.Y.shape[1]
    R = lay.R[e:]
    A = lay.M + lay.J.T @ R
    F = np.einsum("kc,ka,kb->cab", R, lay.J, lay.J)
    return A, F


def _moment_step(A: np.ndarray, F: np.ndarray, w: float):
    """exp(G w) of the block generator G = [[A, 0], [F, X -> AX + XA^T]] on
    (m, C), as the pair (E, T): a step of width w maps m to E m and C to
    E C E^T + sum_c m_c T[c].

    Taylor series at w / 2^j, with ||A||_1 w / 2^j <= 1/4, then j squarings
    T[c] <- E T[c] E^T + sum_z E[z, c] T[z], E <- E E.  Only (s, s) and
    (s, s, s) arrays are formed, never the (s + s^2)-square matrix; each
    sum over an index z is one (s, s) by (s, s^2) product."""
    s = A.shape[0]
    norm = float(np.abs(A).sum(axis=0).max()) * w
    j = max(0, int(np.ceil(np.log2(4.0 * norm)))) if norm > 0 else 0
    h = w / 2.0 ** j
    E = np.eye(s)
    T = np.zeros_like(F)
    tE, tT = E, T
    for n in range(1, _TAYLOR_MAX_TERMS + 1):
        # G^n h^n / n! from G^(n-1) h^(n-1) / (n-1)!, the T block first
        tT = ((tE.T @ F.reshape(s, -1)).reshape(F.shape) + A @ tT
              + tT @ A.T) * (h / n)
        tE = (A @ tE) * (h / n)
        E = E + tE
        T = T + tT
        if (np.abs(tE).max() <= _EPS * np.abs(E).max()
                and np.abs(tT).max() <= _EPS * np.abs(T).max()):
            break
    for _ in range(j):
        T = E @ T @ E.T + (E.T @ T.reshape(s, -1)).reshape(F.shape)
        E = E @ E
    return E, T


def predict_counts(
    params: ModelParams,
    dataset: Dataset,
    boundaries,
    n_samples: int,
    seed,
) -> Prediction:
    """Expected censored-block counts on a partition past the training data.

    The forecast of each interval is the censored block's compensator
    increment given the observed dims' continuation past the training
    horizon.  Its mean and sd over those continuations are exact: each
    observed source k jumps the sampler's state x by J_k at rate R_{e+k} x,
    so the mean m and covariance C of x solve the linear ODEs

        dm/dt = A m,   dC/dt = A C + C A^T + sum_c m_c F[c]

    (the moment closure of affine point processes; Errais, Giesecke &
    Goldberg 2010), stepped window by window by _moment_step.  The
    integrals restart at every boundary, so each window's mean and
    variance are read off m and the diagonal of C at the integral
    coordinates.  The variance of the realized count is mean + sd**2.

    n_samples and seed no longer affect the result (deprecated): n_samples
    must still be >= 1 and is echoed in Prediction.n_samples, seed is
    ignored, and n_failed is 0.  `pmbp predict` takes neither and passes
    fixed values.
    A supercritical observed block has no stationary regime but finite
    moments: they grow exponentially with the horizon, rather than samples
    exploding, and overflow to inf only past horizons where that growth
    exceeds the float range.  Raises RegularityError when the censored
    block is not subcritical.
    """
    lay, m, bnds = _start(params, dataset, boundaries, n_samples)
    e = params.e
    A, F = _moment_generators(lay)
    s = lay.s
    C = np.zeros((s, s))
    steps = {}
    ints = slice(lay.I[0], lay.I[-1] + 1)
    out = slice(lay.I[0], lay.I[0] + e)
    mean = np.zeros((bnds.size - 1, e))
    var = np.zeros_like(mean)
    # the first width is the gap from the training horizon to bnds[0]
    widths = np.diff(np.concatenate([[dataset.T], bnds]))
    for n, w in enumerate(widths):
        if w > 0:
            # widths that differ in the last bits, as T + k * width gives,
            # share the first one's step
            key = next((v for v in steps if abs(v - w) <= _SAME_WIDTH * v), w)
            if key not in steps:
                steps[key] = _moment_step(A, F, w)
            E, T = steps[key]
            C = E @ C @ E.T + (m @ T.reshape(s, -1)).reshape(s, s)
            m = E @ m
        if n > 0:
            mean[n - 1] = m[out]
            var[n - 1] = np.diag(C)[out]
        m[ints] = 0.0
        C[ints] = 0.0
        C[:, ints] = 0.0
    return Prediction(boundaries=bnds, mean=mean,
                      sd=np.sqrt(np.maximum(var, 0.0)), n_samples=n_samples,
                      n_failed=0)
