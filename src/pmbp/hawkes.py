"""Multivariate Hawkes process: thinning samplers.

The conditional intensity of target dimension i is

    lambda_i(t) = nu_i + sum_j sum_{t_k^j < t} alpha[i,j] theta[i,j]
                  exp(-theta[i,j] (t - t_k^j)).

The immigrant impulse gamma acts only through the compensator jump at zero;
samplers never realize it as point events.  The intensity and compensator
themselves are the e = 0 case of the exact evaluator:
`PoiEvaluator(params.replace(e=0), events).values(t)` in `pmbp.poi`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, ExplosionError
from .params import EventHistory, ModelParams, validate_events_for


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
    is discarded.  Deterministic for a fixed seed.
    """
    if not np.isfinite(T) or T <= 0:
        raise DomainError(f"T must be finite and > 0, got {T}")
    rng = np.random.default_rng(seed)
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
    return EventHistory(
        times=tuple(np.asarray(ts, dtype=float) for ts in times), T=float(T)
    )


def sample_conditional_hawkes(
    params: ModelParams,
    observed,
    T: float,
    seed: int,
    max_events: int = 1_000_000,
) -> EventHistory:
    """Fill in the censored block by thinning, given the observed events.

    observed : per-dimension event arrays; only the entries for dimensions
    e..d-1 are used.  The censored-block intensities see both the fixed
    observed events and the events sampled so far.  The dominating rate
    bounds each observed source by its total count times the kernel peak
    alpha*theta, which holds for the whole window, plus the decaying sum over
    sampled events.  Returns the merged history (sampled + observed).
    """
    if not np.isfinite(T) or T <= 0:
        raise DomainError(f"T must be finite and > 0, got {T}")
    d, e = params.d, params.e
    ev = validate_events_for(params, observed)
    if e == 0:
        return EventHistory(
            times=tuple(np.asarray(ev[j], dtype=float) for j in range(d)), T=float(T)
        )
    rng = np.random.default_rng(seed)
    theta_EE = params.theta[:e, :e]
    at_EE = (params.alpha * params.theta)[:e, :e]
    theta_EO = params.theta[:e, e:]
    at_EO = (params.alpha * params.theta)[:e, e:]
    nu_E = params.nu[:e]

    # merged observed stream, advanced lazily so accumulators stay exact
    obs_t = np.concatenate([ev[j] for j in range(e, d)]) if d > e else np.zeros(0)
    obs_j = np.concatenate(
        [np.full(ev[j].size, j - e, dtype=int) for j in range(e, d)]
    ) if d > e else np.zeros(0, dtype=int)
    order = np.argsort(obs_t, kind="stable")
    obs_t, obs_j = obs_t[order], obs_j[order]
    obs_in_T = obs_t < T
    n_per_obs = np.array([np.sum(ev[j] < T) for j in range(e, d)], dtype=float)
    const_bound = float(nu_E.sum() + (at_EO * n_per_obs[None, :]).sum())

    R_E = np.zeros((e, e))
    R_O = np.zeros((e, d - e))
    ptr = 0
    t = 0.0
    times = [[] for _ in range(e)]
    n_acc = 0
    while True:
        lam_bar = const_bound + float((at_EE * R_E).sum())
        if lam_bar <= 0.0:
            break
        w = -math.log1p(-rng.random()) / lam_bar
        t_new = t + w
        if t_new >= T:
            break
        # advance the observed stream through (t, t_new), decaying piecewise
        t_seg = t
        while ptr < obs_t.size and obs_t[ptr] < t_new and obs_in_T[ptr]:
            gap = obs_t[ptr] - t_seg
            R_O *= np.exp(-theta_EO * gap)
            R_E *= np.exp(-theta_EE * gap)
            R_O[:, obs_j[ptr]] += 1.0
            t_seg = obs_t[ptr]
            ptr += 1
        gap = t_new - t_seg
        R_O *= np.exp(-theta_EO * gap)
        R_E *= np.exp(-theta_EE * gap)
        lam_E = nu_E + (at_EE * R_E).sum(axis=1) + (at_EO * R_O).sum(axis=1)
        target = rng.random() * lam_bar
        cum = np.cumsum(lam_E)
        if target <= cum[-1]:
            m = int(np.searchsorted(cum, target, side="left"))
            if times[m] and t_new <= times[m][-1]:
                t_new = float(np.nextafter(times[m][-1], np.inf))
            if t_new >= T:
                break
            times[m].append(t_new)
            R_E[:, m] += 1.0
            n_acc += 1
            if n_acc > max_events:
                raise ExplosionError(
                    f"sampler exceeded {max_events} events before T={T}"
                )
        t = t_new
    merged = [np.asarray(ts, dtype=float) for ts in times] + [
        np.asarray(ev[j], dtype=float) for j in range(e, d)
    ]
    return EventHistory(times=tuple(merged), T=float(T))
