"""Exact simulation of the partially censored process, and count forecasts
past a training horizon.

With exponential kernels the conditional intensity of every dimension is a
linear readout xi = R x of a state x that solves dx/dt = M x between
observed events and jumps by alpha[:, k] theta[:, k] at each event of an
observed source k (poi._Layout(full=True) builds M, R and the jumps).  The
state also carries the integral of every xi_i, so the compensator of the
sampled dimensions is a sum of coordinates of expm(M tau) x.

By the time-rescaling theorem (Brown et al. 2002; Dassios & Zhao 2013 use
the same inversion for exponential Hawkes processes) the next event of the
superposed sampled dimensions comes after the time tau at which that
compensator, restarted at the current time, reaches an Exp(1) draw.  Its
dimension is drawn in proportion to xi(t + tau), and only an observed
dimension's event jumps the state.

M never changes within a run, so every step reads two tables built once
per run (_Steps), with h = 1 / ||M||_1: the Taylor terms (M h)^k / k!,
read off the powers of M h that the layout's expm (poi._Expm) shares with
the scan, and a dyadic ladder of expm(M 2^j h).  Across a long gap the state
gallops up and down the ladder, one matrix-vector product per rung, while
a rung ends before the next stop and the compensator stays below the
draw.  The event then lies within h, where the compensator is a
polynomial in the step; Newton's method (the derivative is the summed
intensity) inside a bisection bracket solves it.  There is no grid, bound
or rejection, and an event costs the same whatever the history's length:
one rise product per rung tried, the Taylor product and its compensator
row, Newton's iterations on that row in Python floats, one product each
for the state and the intensities at the event, and a search over the
intensities' running sums, also in Python floats.  That is about ten NumPy
calls on arrays of a few dozen entries, so their per-call cost, not the
arithmetic, sets the price: about 15 us per event at d = 2 on a 2-vCPU
x86-64 machine.

Censored-block events never feed back into the intensity: those dimensions
are driven by the expected response, so their realized events are outputs
only.  The impulse weight gamma shapes the smooth intensity but its atom at
t=0 is not realized as events.

The count forecast (predict_counts) samples nothing.  Past the training
horizon only the observed sources jump the state, each at a rate linear in
it, so the state's mean and covariance solve a closed linear ODE (the
moment closure of affine point processes), and each window's censored
compensator increment has its exact mean and sd read off them.
predict_counts_sampled keeps sampling every dimension, as the Monte Carlo
reference.
"""

from __future__ import annotations

import dataclasses
import warnings
from bisect import bisect_right
from itertools import accumulate

import numpy as np

from .errors import (
    DomainError,
    ExplosionError,
    NumericalConsistencyError,
    ParameterError,
)
from .params import Dataset, EventHistory, ModelParams, validate_events_for
from .poi import _FACTORIALS, _TAYLOR_DEGREE, _Layout, _grid, _scan

_NEWTON_TOL = 1e-10  # |compensator - target| accepted at an event time
_NEWTON_MAX_ITER = 60  # bisection alone shrinks the bracket by 2**-60
_DEGREES = np.arange(_TAYLOR_DEGREE + 1)
_TAYLOR_MAX_TERMS = 30  # at ||A||_1 h <= 1/4 about 16 terms reach _EPS
_EPS = np.finfo(float).eps
_SAME_WIDTH = 1e-12  # relative gap below which forecast windows share a step


class _Steps:
    """The steps of expm(M tau) that runs of the sampler take, for the
    compensator sum of x[comp] over a span of time; runs with the same
    layout, comp and span (the samples of one sampled forecast) share one.

    With h = 1 / ||M||_1, taylor stacks (M h)^k / k! for k <= _TAYLOR_DEGREE:
    the powers P[k] = (M h)^k that lay.expm holds for the scan, divided by
    k!.  V = (taylor @ x).reshape(-1, s) gives the state at u h, u <= 1, as
    sum_k u^k V[k], and the compensator there as a polynomial in u.  The
    dyadic ladder holds rungs[j] = expm(M 2^j h) for the widths that fit in
    the span, with rises[j] = c (rungs[j] - I), c the indicator of comp: the
    compensator's increase over rung j from x is rises[j] @ x.  Rungs and
    rises are lists of rows, so that a gallop indexes no array.
    """

    def __init__(self, lay: _Layout, comp, span: float):
        s = lay.s
        self.h = h = 1.0 / lay.expm.norm
        self.taylor = (lay.expm.P / _FACTORIALS[:, None, None]).reshape(-1, s)
        c = np.zeros(s)
        c[comp] = 1.0
        self.c = c
        n = int(np.floor(np.log2(span / h))) + 1 if span >= h else 0
        self.widths = [h * 2.0 ** j for j in range(n)]
        rungs = lay.expm(self.widths)
        self.rungs = list(rungs)
        self.rises = list(c @ rungs - c)

    def gallop(self, x, t: float, stop: float, room: float):
        """Advance x from t by whole rungs, up the ladder and back down, while
        a rung ends by stop and raises the compensator by less than room.
        Returns the state and its time."""
        top = len(self.widths) - 1
        j, up = 0, True
        while j >= 0:
            if j <= top and self.widths[j] <= stop - t:
                rise = self.rises[j].dot(x)
                if rise < room:
                    x = self.rungs[j].dot(x)
                    t += self.widths[j]
                    room -= rise
                    j = min(j + 1, top) if up else j - 1
                    continue
            up = False
            j -= 1
        return x, t


def _invert(c: list, end: float, target: float) -> float:
    """The u in (0, end) at which the compensator polynomial sum_k c[k] u^k
    reaches target; the caller has checked that it reaches it before end.
    Each Newton step evaluates the polynomial and its derivative in u, the
    summed intensity in units of the step h, by Horner's rule.

    Raises NumericalConsistencyError if the compensator is not within
    _NEWTON_TOL of target after _NEWTON_MAX_ITER iterations."""
    lo, hi = 0.0, end
    gap = target - c[0]
    u = gap / c[1] if c[1] * end > gap else 0.5 * end
    for _ in range(_NEWTON_MAX_ITER):
        p = rate = 0.0
        for ck in reversed(c):
            rate = rate * u + p
            p = p * u + ck
        f = p - target
        if abs(f) <= _NEWTON_TOL:
            return u
        if f < 0:
            lo = u
        else:
            hi = u
        step = u - f / rate if rate > 0 else hi
        u = step if lo < step < hi else 0.5 * (lo + hi)
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


def _continue(lay: _Layout, x, t: float, stops, sample_dims,
              rng: np.random.Generator, max_events: int, *,
              steps: _Steps | None = None):
    """Run the process from state x (left unchanged) at time t to stops[-1],
    drawing the events of sample_dims.  Runs that share lay, sample_dims, t
    and stops[-1] may share their steps, built once as
    _Steps(lay, lay.I[sample_dims], stops[-1] - t).

    The integrals of x must be zero, and they are zero again after every
    event and every stop.  So each inversion's compensator starts at zero,
    and its Exp(1) draw is the room the gallop starts with.

    Returns the new event times per dimension and a (len(stops), d) array
    whose row n integrates xi from the previous stop (from t for n = 0) to
    stops[n].
    """
    d, e = lay.Y.shape
    ints = slice(lay.I[0], lay.I[-1] + 1)
    if np.any(x[ints]):
        raise ValueError("the state's integrals must start at zero")
    active = list(sample_dims)
    comp = lay.I[active]
    rates = lay.R[active]
    jumps = list(lay.J)
    if steps is None:
        steps = _Steps(lay, comp, float(stops[-1]) - t)
    h, s = steps.h, lay.s
    new_times = [[] for _ in range(d)]
    integrals = np.zeros((len(stops), d))
    n_new = 0
    target = rng.exponential()
    # ndarray.dot, not @: the same BLAS calls, at about half the per-call
    # cost on arrays this small
    for row, b in zip(integrals, map(float, stops)):
        while True:
            x, t = steps.gallop(x, t, b, target)
            # the stop, or else the next event, lies within h of t
            V = steps.taylor.dot(x).reshape(-1, s)
            c = V.dot(steps.c).tolist()
            last = b - t <= h
            end = (b - t) / h if last else 1.0
            if last:
                p = 0.0
                for ck in reversed(c):
                    p = p * end + ck
                if p <= target:
                    x = (end ** _DEGREES).dot(V)
                    break
            u = _invert(c, end, target)
            x = (u ** _DEGREES).dot(V)
            t += u * h
            # random() is uniform() without its 0 + 1 * r
            j = active[_pick(rates.dot(x), rng.random())]
            new_times[j].append(t)
            n_new += 1
            if n_new > max_events:
                raise ExplosionError(
                    f"more than {max_events} events accepted before t={t:.4g}; "
                    "the configuration is likely supercritical"
                )
            row += x[ints]
            x[ints] = 0.0
            if j >= e:
                x += jumps[j - e]
            target = rng.exponential()
        # the unused part of the Exp(1) draw carries past the stop
        target -= x[comp].sum()
        row += x[ints]
        x[ints] = 0.0
        t = b
    return new_times, integrals


def sample_pmbp(
    params: ModelParams,
    T: float,
    seed,
    *,
    max_events: int = 1_000_000,
) -> EventHistory:
    """Draw one realization of all d dimensions on [0, T) exactly, by
    inverting the compensator of the superposed process event by event.

    Censored-block dimensions are Cox streams driven by the expected
    intensity; observed-block events feed back into it.  The impulse
    weight contributes to the smooth intensity but is not realized as events
    at t=0.  Deterministic for a fixed seed.  Raises RegularityError when the
    censored block is not subcritical and ExplosionError past max_events.
    """
    if not np.isfinite(T) or T <= 0:
        raise DomainError(f"T must be finite and > 0, got {T}")
    lay = _Layout(params, full=True)
    rng = np.random.default_rng(seed)
    new_times, _ = _continue(lay, lay.x0, 0.0, [T], range(params.d), rng,
                             max_events)
    times = []
    for ts in map(np.array, new_times):
        # open-interval guard: identical adjacent stamps get nudged apart
        for k in range(1, ts.size):
            if ts[k] <= ts[k - 1]:
                ts[k] = np.nextafter(ts[k - 1], np.inf)
        times.append(ts)
    return EventHistory(times=tuple(times), T=T)


@dataclasses.dataclass
class Prediction:
    """Forecast summary: interval boundaries, then per interval and censored
    dim the mean and standard deviation of the forecast, with the number of
    samples requested and the number dropped after exploding.

    predict_counts gives the exact mean and sd of the censored block's
    compensator increment over the observed dims' continuations, with
    n_failed = 0; predict_counts_sampled gives the sample mean and sd of
    realized counts over the samples that did not explode."""

    boundaries: np.ndarray
    mean: np.ndarray
    sd: np.ndarray
    n_samples: int
    n_failed: int


def _start(params: ModelParams, dataset: Dataset, boundaries, n_samples: int):
    """Validate a forecast request.  Returns the sampler layout, its state at
    the training horizon with the integrals restarted there, and the
    boundaries as an array."""
    bnds = np.asarray(boundaries, dtype=float).reshape(-1)
    T_train = dataset.T
    if bnds.size < 2:
        raise ParameterError("need at least two prediction boundaries")
    if np.any(np.diff(bnds) <= 0):
        raise ParameterError("prediction boundaries must be strictly increasing")
    if bnds[0] < T_train * (1 - 1e-12):
        raise ParameterError(
            f"prediction starts at {bnds[0]} before the training horizon {T_train}"
        )
    if n_samples < 1:
        raise ParameterError("need at least one sample")
    if dataset.d != params.d or dataset.e != params.e:
        raise ParameterError("dataset split does not match the model")
    lay = _Layout(params, full=True)
    observed = validate_events_for(params, dataset.event_list())
    grid = _grid([observed], [np.array([T_train])], params.e)
    x_train = _scan(lay, grid).X[-1, 0]
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


def predict_counts_sampled(
    params: ModelParams,
    dataset: Dataset,
    boundaries,
    n_samples: int,
    seed,
    *,
    max_events: int = 1_000_000,
) -> Prediction:
    """Reference forecast that samples every dimension past the training
    horizon, once per seeded sample, and averages the censored dims'
    realized interval counts over the samples that did not explode
    (dropped with a warning once they exceed 1% of n_samples).  Slower and
    noisier than predict_counts, which it validates."""
    lay, x_train, bnds = _start(params, dataset, boundaries, n_samples)
    e = params.e
    dims = range(params.d)
    steps = _Steps(lay, lay.I[dims], float(bnds[-1]) - dataset.T)
    children = np.random.SeedSequence(seed).spawn(n_samples)
    mean = np.zeros((bnds.size - 1, e))
    m2 = np.zeros_like(mean)
    n_ok = 0
    n_failed = 0
    for child in children:
        rng = np.random.default_rng(child)
        try:
            new_times, _ = _continue(lay, x_train, dataset.T, bnds, dims,
                                     rng, max_events, steps=steps)
        except ExplosionError:
            n_failed += 1
            continue
        value = np.zeros_like(mean)
        for j in range(e):
            value[:, j] = np.histogram(new_times[j], bnds)[0]
        n_ok += 1
        delta = value - mean
        mean += delta / n_ok
        m2 += delta * (value - mean)
    if n_ok == 0:
        raise ExplosionError("every prediction sample exploded")
    if n_failed > 0.01 * n_samples:
        warnings.warn(
            f"{n_failed} of {n_samples} prediction samples exploded and were "
            "dropped",
            stacklevel=2,
        )
    sd = np.sqrt(m2 / (n_ok - 1)) if n_ok > 1 else np.zeros_like(m2)
    return Prediction(
        boundaries=bnds, mean=mean, sd=sd, n_samples=n_ok, n_failed=n_failed
    )
