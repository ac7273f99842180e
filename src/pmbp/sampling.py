"""Exact simulation of the partially censored process, and count forecasts
past a training horizon.

With exponential kernels the conditional intensity of every dimension is a
linear readout xi = R x of a state x that solves dx/dt = M x between
observed events and jumps by alpha[:, k] theta[:, k] at each event of an
observed source k (poi._Layout(full=True) builds M, R and the jumps).  The
state also carries the integral of every xi_i, so the compensator of the
sampled dimensions is a sum of coordinates of expm(M tau) x.

By the time-rescaling theorem (Brown et al. 2002; Dassios & Zhao 2013 use
the same inversion for exponential Hawkes processes) the next event of the superposed sampled
dimensions comes after the time tau at which that compensator, restarted
at the current time, reaches an Exp(1) draw.  tau is found by Newton's
method (the derivative is the summed intensity) inside a bisection bracket,
its dimension is drawn in proportion to xi(t + tau), and only an observed
dimension's event jumps the state.  Each event costs a few small matrix
exponentials, whatever the history's length; there is no grid, bound or
rejection.

Censored-block events never feed back into the intensity: those dimensions
are driven by the expected response, so their realized events are outputs
only.  The impulse weight gamma shapes the smooth intensity but its atom at
t=0 is not realized as events.
"""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np
from scipy.linalg import expm

from .errors import (
    DomainError,
    ExplosionError,
    NumericalConsistencyError,
    ParameterError,
)
from .params import Dataset, EventHistory, ModelParams, validate_events_for
from .poi import _Layout, _scan

_NEWTON_TOL = 1e-10  # |compensator - target| accepted at an event time
_NEWTON_MAX_ITER = 60  # bisection alone shrinks the bracket by 2**-60

# _invert and _continue take one step at a time, each step's length set by
# the previous one, so they call scipy.linalg.expm on single matrices: on a
# one-step stack, _Layout.expm (built for many steps of one M) took 49-148 us
# per 7x7 matrix against SciPy's 22-44 us (2-vCPU x86-64, one BLAS thread).


def _invert(lay: _Layout, x, span: float, target: float, comp, rate_row):
    """The tau in (0, span) at which the compensator x[comp].sum(), run
    forward from x, reaches target, and the state there; the caller has
    checked that it reaches it before span.

    Raises NumericalConsistencyError if the compensator is not within
    _NEWTON_TOL of target after _NEWTON_MAX_ITER iterations."""
    lo, hi = 0.0, span
    rate = rate_row @ x
    tau = target / rate if rate * span > target else 0.5 * span
    for _ in range(_NEWTON_MAX_ITER):
        xt = expm(lay.M * tau) @ x
        f = xt[comp].sum() - target
        if abs(f) <= _NEWTON_TOL:
            return tau, xt
        if f < 0:
            lo = tau
        else:
            hi = tau
        rate = rate_row @ xt
        step = tau - f / rate if rate > 0 else hi
        tau = step if lo < step < hi else 0.5 * (lo + hi)
    raise NumericalConsistencyError(
        f"compensator inversion left a residual of {f:.3g} after "
        f"{_NEWTON_MAX_ITER} iterations"
    )


def _continue(lay: _Layout, x, t: float, stops, sample_dims,
              rng: np.random.Generator, max_events: int):
    """Run the process from state x (left unchanged) at time t to stops[-1],
    drawing the events of sample_dims.

    Returns the new event times per dimension and a (len(stops), d) array
    whose row n integrates xi from the previous stop (from t for n = 0) to
    stops[n].
    """
    d, e = lay.Y.shape
    active = np.asarray(sample_dims, dtype=int)
    comp = lay.I[active]
    rates = lay.R[active]
    rate_row = rates.sum(axis=0)
    new_times = [[] for _ in range(d)]
    integrals = np.zeros((len(stops), d))
    n_new = 0
    target = rng.exponential()
    for n, b in enumerate(stops):
        while True:
            xb = expm(lay.M * (b - t)) @ x
            if xb[comp].sum() <= target:
                break
            tau, x = _invert(lay, x, b - t, target, comp, rate_row)
            t += tau
            lam = rates @ x
            k = int(np.searchsorted(np.cumsum(lam), rng.uniform() * lam.sum(),
                                    side="right"))
            j = int(active[min(k, active.size - 1)])
            new_times[j].append(t)
            n_new += 1
            if n_new > max_events:
                raise ExplosionError(
                    f"more than {max_events} events accepted before t={t:.4g}; "
                    "the configuration is likely supercritical"
                )
            integrals[n] += x[lay.I]
            x[lay.I] = 0.0
            if j >= e:
                x += lay.J[j - e]
            target = rng.exponential()
        # the unused part of the Exp(1) draw carries past the stop
        target -= xb[comp].sum()
        integrals[n] += xb[lay.I]
        x = xb
        x[lay.I] = 0.0
        t = float(b)
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
    """Forecast summary: interval boundaries, per-interval per-censored-dim
    mean and across-sample standard deviation, and the sample accounting."""

    boundaries: np.ndarray
    mean: np.ndarray
    sd: np.ndarray
    n_samples: int
    n_failed: int


def _forecast(
    params: ModelParams,
    dataset: Dataset,
    boundaries,
    n_samples: int,
    seed,
    max_events: int,
    sample_dims,
    measure,
) -> Prediction:
    """Validate a forecast request, continue the dataset past its horizon
    once per seeded sample (drawing `sample_dims`), and average
    measure(new_times, integrals, boundaries), an (intervals, e) array, over
    the samples that did not explode; `integrals` is _continue's, with the
    boundaries as stops."""
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
    d, e = params.d, params.e
    if dataset.d != d or dataset.e != e:
        raise ParameterError("dataset split does not match the model")
    lay = _Layout(params, full=True)
    observed = validate_events_for(params, dataset.event_list())
    # the sampler state at the horizon, with the integrals restarted there
    x_train = _scan(lay, observed, np.array([T_train])).X[-1]
    x_train[lay.I] = 0.0
    children = np.random.SeedSequence(seed).spawn(n_samples)
    K = bnds.size - 1
    mean = np.zeros((K, e))
    m2 = np.zeros((K, e))
    n_ok = 0
    n_failed = 0
    for child in children:
        rng = np.random.default_rng(child)
        try:
            new_times, integrals = _continue(
                lay, x_train, T_train, bnds, sample_dims, rng, max_events
            )
        except ExplosionError:
            n_failed += 1
            continue
        value = measure(new_times, integrals, bnds)
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
            stacklevel=3,
        )
    sd = np.sqrt(m2 / (n_ok - 1)) if n_ok > 1 else np.zeros_like(m2)
    return Prediction(
        boundaries=bnds, mean=mean, sd=sd, n_samples=n_ok, n_failed=n_failed
    )


def predict_counts(
    params: ModelParams,
    dataset: Dataset,
    boundaries,
    n_samples: int,
    seed,
    *,
    max_events: int = 1_000_000,
) -> Prediction:
    """Expected censored-block counts on a partition past the training data.

    For each sample, the observed dimensions are continued past the training
    horizon by the exact sampler; the censored-block count forecast for
    each interval is the compensator increment given that continuation, read
    off the sampler's own state, and samples are averaged.  Exploding
    continuations are dropped (with a warning once they exceed 1% of the
    requested samples).
    """
    e = params.e

    def increments(new_times, integrals, bnds):
        return integrals[1:, :e]

    return _forecast(
        params, dataset, boundaries, n_samples, seed, max_events,
        range(e, params.d), increments,
    )


def predict_counts_sampled(
    params: ModelParams,
    dataset: Dataset,
    boundaries,
    n_samples: int,
    seed,
    *,
    max_events: int = 1_000_000,
) -> Prediction:
    """Reference forecast that samples the censored dimensions as events and
    averages realized interval counts (slower, higher variance; used to
    validate the compensator-based forecast)."""
    e = params.e

    def counts(new_times, integrals, bnds):
        out = np.zeros((bnds.size - 1, e))
        for j in range(e):
            out[:, j] = np.histogram(new_times[j], bnds)[0]
        return out

    return _forecast(
        params, dataset, boundaries, n_samples, seed, max_events,
        range(params.d), counts,
    )
