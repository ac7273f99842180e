"""Goodness-of-fit diagnostics driven by the fitted compensator.

Three complementary checks:

* :func:`gof_time_rescaling` — for a dimension with exact event times,
  compensator increments between consecutive events are unit-exponential
  under a correct model; a Kolmogorov-Smirnov test quantifies the match.
* :func:`gof_anscombe` — for a dimension observed through interval
  counts, variance-stabilised residuals comparing each count against the
  compensator increment are approximately standard normal when the
  increments are not too small; a skewness/kurtosis normality test
  quantifies the match.
* :func:`fit_score` — the fraction of windows whose observed count falls
  inside the central 95% band of the Poisson law whose mean is the
  compensator increment, read off its exact quantiles.  The inclusive band
  of a discrete law covers more than 95%, so a well-calibrated model scores
  above 0.95 (0.987-0.989 at 0.8 events per window); gross misfit
  drives the score toward 0.

The low-level functions operate on plain arrays so they can be fed from
any compensator; :func:`gof_report` wires them to a fitted model and a
dataset, dimension by dimension.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .errors import (
    DomainError,
    InsufficientDataError,
    NumericalConsistencyError,
)
from .params import Dataset, ModelParams
from .poi import PoiEvaluator

__all__ = [
    "GofReport",
    "gof_time_rescaling",
    "gof_anscombe",
    "fit_score",
    "gof_report",
]


def gof_time_rescaling(times, compensator: Callable[[np.ndarray], np.ndarray]):
    """KS test of rescaled inter-event waiting times for one dimension.

    ``times`` are the event times of the dimension under test (sorted,
    at least 2); ``compensator`` maps an array of times to the fitted
    compensator values for that dimension.  Under a well-specified model
    the residuals ``Xi(t_{k+1}) - Xi(t_k)`` are unit-exponential.

    Returns ``(residuals, statistic, p_value)``.
    """
    t = np.asarray(times, dtype=float)
    if t.ndim != 1:
        raise DomainError("event times must be a 1-d array")
    if t.size < 2:
        raise InsufficientDataError(
            f"time-rescaling needs at least 2 events, got {t.size}")
    Xi = np.asarray(compensator(t), dtype=float)
    if Xi.shape != t.shape:
        raise DomainError(
            "compensator must return one value per event time")
    from scipy import stats  # imported here so that `import pmbp` skips SciPy

    residuals = np.diff(Xi)
    statistic, p_value = stats.kstest(residuals, "expon")
    return residuals, float(statistic), float(p_value)


def gof_anscombe(counts, increments):
    """Skew/kurtosis normality test of variance-stabilised count residuals.

    Each window with observed count ``C`` and compensator increment ``m``
    contributes the residual ``2*(sqrt(C + 3/8) - sqrt(m + 3/8))``, which
    is close to standard normal when counts are conditionally Poisson
    with mean ``m`` and ``m`` is not tiny.  All increments must be
    strictly positive.

    Returns ``(residuals, statistic, p_value)``.
    """
    C = np.asarray(counts, dtype=float)
    inc = np.asarray(increments, dtype=float)
    if C.shape != inc.shape or C.ndim != 1:
        raise DomainError("counts and increments must be 1-d arrays of "
                          "matching length")
    if np.any(~np.isfinite(inc)) or np.any(inc <= 0):
        raise NumericalConsistencyError(
            "compensator increments must be strictly positive for the "
            "variance-stabilised residual test")
    if C.size < 8:
        raise InsufficientDataError(
            f"the normality test needs at least 8 windows, got {C.size}")
    from scipy import stats

    residuals = 2.0 * (np.sqrt(C + 0.375) - np.sqrt(inc + 0.375))
    statistic, p_value = stats.normaltest(residuals)
    return residuals, float(statistic), float(p_value)


def fit_score(counts, increments) -> float:
    """Fraction of windows with counts inside the central 95% band.

    For each window the band is ``[ppf(0.025), ppf(0.975)]`` of the Poisson
    law with mean equal to the compensator increment, both ends inclusive;
    a zero increment gives the band ``[0, 0]``.  Returns a value in [0, 1].
    Because both ends are inclusive and Poisson laws are discrete, the band
    covers more than 95% of each law, most at small means.  Under the true
    model, on width-1 windows of ``sample_pmbp`` draws with 0.8 events per
    window on average, the score reads 0.987-0.989, not 0.95.  Gross misfit
    drives it toward 0.
    """
    C = np.asarray(counts, dtype=float)
    inc = np.asarray(increments, dtype=float)
    if C.shape != inc.shape or C.ndim != 1:
        raise DomainError("counts and increments must be 1-d arrays of "
                          "matching length")
    if C.size == 0:
        raise InsufficientDataError("fit_score needs at least one window")
    if np.any(~np.isfinite(inc)) or np.any(inc < 0):
        raise DomainError("compensator increments must be finite and >= 0")
    from scipy import stats

    lo, hi = stats.poisson.ppf([[0.025], [0.975]], inc)
    inside = (C >= lo) & (C <= hi)
    return float(inside.mean())


@dataclass(frozen=True)
class GofReport:
    """Per-dimension goodness-of-fit summary for one dataset.

    Keys are 1-based dimension indices.  ``ks`` holds (statistic,
    p-value) pairs for dimensions with exact event times; ``normality``
    and ``fit_scores`` cover the interval-censored dimensions; data-poor
    dimensions land in ``skipped`` with the reason.
    """

    ks: Mapping[int, tuple[float, float]] = field(default_factory=dict)
    normality: Mapping[int, tuple[float, float]] = field(default_factory=dict)
    fit_scores: Mapping[int, float] = field(default_factory=dict)
    skipped: Mapping[int, str] = field(default_factory=dict)

    def to_dict(self) -> dict:
        out: dict = {"dimensions": {}}
        dims = set(self.ks) | set(self.normality) | set(self.fit_scores) \
            | set(self.skipped)
        for dim in sorted(dims):
            entry: dict = {}
            if dim in self.ks:
                stat, p = self.ks[dim]
                entry["ks_statistic"] = stat
                entry["ks_p_value"] = p
            if dim in self.normality:
                stat, p = self.normality[dim]
                entry["normality_statistic"] = stat
                entry["normality_p_value"] = p
            if dim in self.fit_scores:
                entry["fit_score"] = self.fit_scores[dim]
            if dim in self.skipped:
                entry["skipped"] = self.skipped[dim]
            out["dimensions"][str(dim)] = entry
        return out


def gof_report(params: ModelParams, dataset: Dataset) -> GofReport:
    """Run every applicable diagnostic on every dimension of a dataset.

    Censored dimensions get the normality test and the exact coverage
    score (:func:`fit_score`) on their window counts; dimensions with exact
    event times get the time-rescaling KS test.  Each test runs on its own:
    one that the data defeat (too few windows or events, or a zero
    increment for the normality test) is reported under ``skipped``
    instead of raising, and the other tests of that dimension still run.
    The report is a function of ``params`` and ``dataset`` alone.
    """
    d, e = params.d, params.e
    if dataset.d != d or dataset.e != e:
        raise DomainError(
            f"dataset shape ({dataset.e} censored / {dataset.d} total) does "
            f"not match the model ({e} censored / {d} total)")
    ev = PoiEvaluator(params, dataset.event_list())
    ks: dict[int, tuple[float, float]] = {}
    normality: dict[int, tuple[float, float]] = {}
    scores: dict[int, float] = {}
    skipped: dict[int, str] = {}

    def run(dim, store, test):
        try:
            store[dim] = test()
        except (InsufficientDataError, NumericalConsistencyError) as exc:
            skipped[dim] = str(exc)

    for dim in range(1, d + 1):
        if dim <= e:
            series = dataset.censored[dim - 1]
            inc = np.diff(ev.values(series.boundaries).Xi[:, dim - 1])
            run(dim, normality,
                lambda: gof_anscombe(series.counts, inc)[1:])
            run(dim, scores, lambda: fit_score(series.counts, inc))
        else:
            times = dataset.events[dim - 1 - e]
            run(dim, ks, lambda: gof_time_rescaling(
                times, lambda ts: ev.values(ts).Xi[:, dim - 1])[1:])
    return GofReport(ks=ks, normality=normality, fit_scores=scores,
                     skipped=skipped)
