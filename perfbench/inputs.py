"""Seeded benchmark inputs, generated without the package's own samplers.

Events come from exact (Ogata) thinning of an e=0 exponential-kernel Hawkes
process: between events the intensity only decays, so its value just after
the last event bounds it until the next acceptance.  Censored dimensions are
then reduced to counts on fixed-width windows.  Keeping this generator
outside the package means a change to the package's samplers never changes
the data a fit runs on.
"""

from __future__ import annotations

import hashlib

import numpy as np

import pmbp


def reference_model(e: int) -> pmbp.ModelParams:
    """The d=2 recovery model: symmetric jumps with radius 0.5, unit decays."""
    return pmbp.ModelParams(
        d=2, e=e, theta=np.ones((2, 2)), alpha=[[0.3, 0.2], [0.2, 0.3]],
        gamma=[0.0, 0.0], nu=[0.4, 0.4],
    )


def wide_model() -> pmbp.ModelParams:
    """A fixed d=4, e=2 model with alpha ~ U(.02, .15), theta ~ U(.5, 2)."""
    rng = np.random.default_rng(20211102)
    return pmbp.ModelParams(
        d=4, e=2, theta=rng.uniform(0.5, 2.0, (4, 4)),
        alpha=rng.uniform(0.02, 0.15, (4, 4)),
        gamma=np.zeros(4), nu=np.full(4, 0.2),
    )


def hawkes_events(params: pmbp.ModelParams, T: float,
                  rng: np.random.Generator) -> list:
    """One realization on [0, T) of `params` viewed as an e=0 process.

    R[i, j] holds sum_k exp(-theta[i, j] (t - t_k)) over source j's events,
    so the intensity is nu + (alpha * theta * R).sum(1).
    """
    alpha, theta, nu, d = params.alpha, params.theta, params.nu, params.d
    R = np.zeros((d, d))
    times = [[] for _ in range(d)]
    t = 0.0
    while True:
        bound = float(np.sum(nu + (alpha * theta * R).sum(1)))
        t_next = t + rng.exponential() / bound
        if t_next >= T:
            break
        R *= np.exp(-theta * (t_next - t))
        t = t_next
        lam = nu + (alpha * theta * R).sum(1)
        target = rng.uniform() * bound
        cum = np.cumsum(lam)
        if target < cum[-1]:
            j = min(int(np.searchsorted(cum, target, side="right")), d - 1)
            times[j].append(t)
            R[:, j] += 1.0
    return [np.asarray(ts) for ts in times]


def dataset(events: list, e: int, T: float, width: float = 1.0) -> pmbp.Dataset:
    """A Dataset with the first e dimensions censored on width-`width` windows."""
    return pmbp.Dataset(
        T=T,
        censored=tuple(pmbp.censor_series(ts, width, T) for ts in events[:e]),
        events=tuple(events[e:]),
    )


def stationary_rate(params: pmbp.ModelParams) -> np.ndarray:
    """Long-run event rate per dimension, (I - alpha)^-1 nu."""
    return np.linalg.solve(np.eye(params.d) - params.alpha, params.nu)


def realizations(params: pmbp.ModelParams, n: int, T: float, seed,
                 dim_groups, band: float) -> list:
    """n independent realizations of `params` viewed as an e=0 process,
    redrawn until, for every tuple of dimensions in `dim_groups`, the
    group's total event count lies within +-band of its stationary mean.

    Fit and forecast costs grow with the number of events, so fixing the
    input size this way keeps the timings about the code, not the draw.
    """
    rate = stationary_rate(params)
    stream = np.random.SeedSequence(seed)
    for _ in range(10_000):
        rngs = [np.random.default_rng(c) for c in stream.spawn(n)]
        evs = [hawkes_events(params, T, r) for r in rngs]
        if all(
            abs(sum(len(ev[j]) for ev in evs for j in dims)
                / (n * T * rate[list(dims)].sum()) - 1.0) <= band
            for dims in dim_groups
        ):
            return evs
    raise RuntimeError("no draw within the event-count band")


def digest(*objs) -> str:
    """A short hash of parameters, datasets and arrays, to show two runs used
    identical inputs."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, pmbp.Dataset):
            h.update(repr(x.T).encode())
            for s in x.censored:
                feed(s.boundaries)
                feed(s.counts)
            for ts in x.events:
                feed(ts)
        elif isinstance(x, pmbp.ModelParams):
            h.update(x.to_json().encode())
        elif isinstance(x, (list, tuple)):
            for y in x:
                feed(y)
        else:
            arr = np.ascontiguousarray(np.asarray(x, dtype=float))
            h.update(str(arr.shape).encode())
            h.update(arr.tobytes())

    for o in objs:
        feed(o)
    return h.hexdigest()[:16]
