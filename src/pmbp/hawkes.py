"""Multivariate Hawkes process: the thinning sampler.

The conditional intensity of target dimension i is

    lambda_i(t) = nu_i + sum_j sum_{t_k^j < t} alpha[i,j] theta[i,j]
                  exp(-theta[i,j] (t - t_k^j)).

The immigrant impulse gamma acts only through the compensator jump at zero;
the sampler never realizes it as point events.  The intensity and compensator
themselves are the e = 0 case of the exact evaluator:
`PoiEvaluator(params.replace(e=0), events).values(t)` in `pmbp.poi`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, ExplosionError
from .params import EventHistory, ModelParams, _seeded


def sample_hawkes(
    params: ModelParams,
    T: float,
    seed: int,
    max_events: int = 1_000_000,
) -> EventHistory:
    """Draw one realization on [0, T) by thinning.

    The dominating rate is the summed intensity just after the latest event
    (exponential kernels only decay between events), refreshed at every
    proposal.  One uniform per proposal drives both acceptance and the
    dimension choice by cumulative inversion; the final overshooting proposal
    is discarded.  Deterministic for a fixed seed; ParameterError for a
    seed NumPy refuses.
    """
    if not np.isfinite(T) or T <= 0:
        raise DomainError(f"T must be finite and > 0, got {T}")
    rng = _seeded(np.random.default_rng, seed)
    d = params.d
    at = params.alpha * params.theta
    R = np.zeros((d, d))  # R[i, j] = decayed sum over past source-j events
    times = [[] for _ in range(d)]
    t = 0.0
    n_acc = 0
    while True:
        lam_cur = params.nu + (at * R).sum(axis=1)
        lam_bar = float(lam_cur.sum())
        if lam_bar <= 0.0:
            break
        w = -math.log1p(-rng.random()) / lam_bar
        t_new = t + w
        if t_new >= T:
            break
        R *= np.exp(-params.theta * w)
        lam = params.nu + (at * R).sum(axis=1)
        target = rng.random() * lam_bar
        cum = np.cumsum(lam)
        if target <= cum[-1]:
            m = int(np.searchsorted(cum, target, side="left"))
            if times[m] and t_new <= times[m][-1]:
                t_new = float(np.nextafter(times[m][-1], np.inf))
            if t_new >= T:
                break
            times[m].append(t_new)
            R[:, m] += 1.0
            n_acc += 1
            if n_acc > max_events:
                raise ExplosionError(
                    f"sampler exceeded {max_events} events before T={T}"
                )
        t = t_new
    return EventHistory(times=tuple(times), T=float(T))
