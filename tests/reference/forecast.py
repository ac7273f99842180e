"""The Monte Carlo count forecast that `pmbp.predict_counts` computes
exactly.

Each seeded sample draws every dimension past the training horizon with
the library's exact sampler (`pmbp.sampling._draw`, the routine behind
`sample_pmbp`: the observed pass event by event, then the censored pass
given that path), from the state at the end of the training data.  Per
window and censored dimension, the sample yields two
numbers: the realized count, from a histogram of its drawn events, and the
compensator increment, from `PoiEvaluator` on the training plus the
continued observed events.  `predict_counts` gives the exact mean and sd
of the increment, and the count has the same mean and variance
mean + sd**2, so the two columns check both of its moments.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from pmbp import PoiEvaluator
from pmbp.sampling import _draw, _start


@dataclasses.dataclass
class SampledForecast:
    """Per window and censored dim, the sample mean and sd of the realized
    counts and of the compensator increments."""

    count_mean: np.ndarray
    count_sd: np.ndarray
    comp_mean: np.ndarray
    comp_sd: np.ndarray


def sampled_forecast(params, dataset, boundaries, n_samples, seed):
    """Sample the forecast n_samples times, one SeedSequence child of seed
    per sample, and average by Welford's update.  A sample that exceeds a
    million events raises ExplosionError."""
    lay, x_train, bnds = _start(params, dataset, boundaries, n_samples)
    d, e = params.d, params.e
    train = dataset.event_list()
    mean = np.zeros((2, bnds.size - 1, e))
    m2 = np.zeros_like(mean)
    children = np.random.SeedSequence(seed).spawn(n_samples)
    for n, child in enumerate(children, start=1):
        new = _draw(lay, x_train, dataset.T, bnds[-1],
                    np.random.default_rng(child), 1_000_000)
        value = np.zeros_like(mean)
        for j in range(e):
            value[0, :, j] = np.histogram(new[j], bnds)[0]
        # the evaluator ignores the censored dims' entries
        events = [np.concatenate([old, ts]) for old, ts in zip(train, new)]
        Xi = PoiEvaluator(params, events).values(bnds).Xi
        value[1] = np.diff(Xi[:, :e], axis=0)
        delta = value - mean
        mean += delta / n
        m2 += delta * (value - mean)
    sd = np.sqrt(m2 / (n_samples - 1)) if n_samples > 1 else np.zeros_like(m2)
    return SampledForecast(count_mean=mean[0], count_sd=sd[0],
                           comp_mean=mean[1], comp_sd=sd[1])
