"""Negative log-likelihood of partially interval-censored observations.

Censored dimensions contribute Poisson window terms on the compensator
increments, sum_k [DXi_k - C_k log DXi_k] (the count factorial is a constant
and is dropped); observed dimensions contribute point-process terms
-sum log xi(t_k) + Xi(T).  Dimension weights and an L1 penalty on the
baseline rates are configurable.  The objective is exact: an observed
event at zero intensity, or a window with a positive count and a zero
compensator increment, scores +inf.  Gradients
differentiate exactly the computed objective: its cotangents on xi and Xi
go through the evaluator's adjoint pass.

The data side of the objective is prepared once (`_Prepared`; a fit builds
it once and passes it to `nll_and_grad` in place of the datasets): the
evaluation plan of every dataset's query times (`pmbp.poi._plan`, the
same data path as `PoiEvaluator.values`), the rows of each dataset's
windows, events and T, and which dimensions need intensity.  Each call
does only parameter work.  It first rejects a dead dimension (nu_i = 0,
alpha[i, :] = 0) that carries an observation it cannot explain; then it
runs the plan's decay pass, scores the dimensions that the scan does not
reach, runs one layout's scan over every dataset, and scores the rest.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import (
    DimensionError,
    NumericalConsistencyError,
    ParameterError,
)
from .params import Dataset, ModelParams
from .paramvec import n_free
from .poi import _decay_values, _Layout, _plan, _scan_values, _vjp

_INCREMENT_SLACK = -1e-9  # tolerated negative compensator increment


@dataclasses.dataclass(frozen=True)
class LikelihoodConfig:
    """Objective weights: one multiplier per dimension (default 1) and an L1
    penalty weight on the baseline rates."""

    weights: np.ndarray | None = None
    w_nu: float = 0.0

    def dim_weights(self, d: int) -> np.ndarray:
        if self.weights is None:
            return np.ones(d)
        w = np.asarray(self.weights, dtype=float).reshape(-1)
        if w.shape != (d,):
            raise DimensionError(f"weights must have shape ({d},), got {w.shape}")
        if np.any(~np.isfinite(w)) or np.any(w < 0):
            raise ParameterError("weights must be finite and >= 0")
        return w


def _window_nll(Xi_bounds: np.ndarray, counts: np.ndarray):
    """Poisson window terms on compensator increments: the value and its
    derivative with respect to each increment.

    Raises NumericalConsistencyError if an increment is below -1e-9; smaller
    negatives are clipped to zero (and get a zero derivative).  A zero
    increment scores +inf under a positive count and 0 under a zero count.
    """
    inc = np.diff(Xi_bounds)
    if inc.size and inc.min() < _INCREMENT_SLACK:
        k = int(np.argmin(inc))
        raise NumericalConsistencyError(
            f"compensator increment {inc[k]:.3g} < {_INCREMENT_SLACK} on "
            f"window {k}"
        )
    clipped = inc < 0
    inc = np.clip(inc, 0.0, None)
    seen = counts > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        value = float(np.sum(inc - np.where(seen, counts * np.log(inc), 0.0)))
        dinc = np.where(seen, 1.0 - counts / inc, 1.0)
    dinc[clipped] = 0.0
    return value, dinc


def icll(Xi_bounds: np.ndarray, counts: np.ndarray) -> float:
    """Poisson window negative log-likelihood from compensator values at the
    observation boundaries (constant count factorials dropped).

    Raises NumericalConsistencyError if an increment is below -1e-9; smaller
    negatives are clipped to zero.  A window with a positive count and a zero
    increment scores +inf.
    """
    Xi_bounds = np.asarray(Xi_bounds, dtype=float)
    counts = np.asarray(counts, dtype=float)
    if Xi_bounds.size != counts.size + 1:
        raise DimensionError(
            f"need {counts.size + 1} boundary values for {counts.size} windows"
        )
    return _window_nll(Xi_bounds, counts)[0]


def ppll_nll(xi_events: np.ndarray, Xi_T: float) -> float:
    """Point-process negative log-likelihood -sum log xi(t_k) + Xi(T); +inf
    when some event has zero intensity."""
    xi_events = np.asarray(xi_events, dtype=float)
    with np.errstate(divide="ignore"):
        return float(Xi_T - np.sum(np.log(xi_events)))


def _as_datasets(data) -> list:
    if isinstance(data, Dataset):
        return [data]
    datasets = list(data)
    if not datasets:
        raise ParameterError("need at least one dataset")
    for ds in datasets:
        if not isinstance(ds, Dataset):
            raise ParameterError("expected Dataset instances")
    return datasets


def _check_compat(params: ModelParams, datasets) -> None:
    for ds in datasets:
        if ds.d != params.d or ds.e != params.e:
            raise DimensionError(
                f"dataset with (d={ds.d}, e={ds.e}) does not match the model "
                f"(d={params.d}, e={params.e})"
            )


def _query_times(ds: Dataset) -> np.ndarray:
    """Every time the objective reads: T, the window boundaries and the
    observed events, sorted and unique."""
    pieces = [np.array([ds.T])]
    pieces += [series.boundaries for series in ds.censored]
    pieces += [np.asarray(ts, dtype=float) for ts in ds.events]
    return np.unique(np.concatenate(pieces))


class _Prepared:
    """The data side of the objective over a list of datasets of one
    (d, e) split, built once; evaluations only read it.

    Each dataset's query times (T, the window boundaries and the events,
    sorted and unique) are one dataset of the evaluation plan.  Of dataset
    b's rows in the plan, windows[b], marks[b] and at_T[b] are those of its
    window boundaries, events and T.  Per dimension, `late` flags an event
    or a positive count in a window that starts after 0, and `seen` any
    event or positive count.
    """

    def __init__(self, datasets):
        self.datasets = datasets
        d, e = datasets[0].d, datasets[0].e
        times = [_query_times(ds) for ds in datasets]
        # the events are validated by Dataset
        self.plan = _plan([ds.event_list() for ds in datasets], times, e)
        self.windows, self.marks, self.at_T = [], [], []
        self.late = np.zeros(d, dtype=bool)
        self.seen = np.zeros(d, dtype=bool)
        for ds, t, rows in zip(datasets, times, self.plan.cuts):
            at = lambda x: rows.start + np.searchsorted(t, x)
            self.windows.append([at(series.boundaries) for series in ds.censored])
            self.marks.append([at(ts) for ts in ds.events])
            self.at_T.append(at(ds.T))
            for j, series in enumerate(ds.censored):
                self.late[j] |= np.any(series.counts[1:] > 0)
                self.seen[j] |= np.any(series.counts > 0)
            for j, ts in enumerate(ds.events, start=e):
                self.late[j] |= ts.size > 0
                self.seen[j] |= ts.size > 0


def _prepared(params: ModelParams, data) -> _Prepared:
    """`data` (a Dataset, a sequence of them or a _Prepared) as a _Prepared
    whose datasets match params' split."""
    if isinstance(data, _Prepared):
        _check_compat(params, data.datasets)
        return data
    datasets = _as_datasets(data)
    _check_compat(params, datasets)
    return _Prepared(datasets)


def _score(prep: _Prepared, b: int, out, w, dims, terms, g_xi, g_Xi):
    """Score the terms of dataset b on the dimensions flagged in dims into
    terms (weighted by w), and their cotangents on out.xi and out.Xi into
    g_xi and g_Xi.  Returns the first term that is not finite (the
    observations are impossible), else None."""
    ds = prep.datasets[b]
    for j, (series, pos) in enumerate(zip(ds.censored, prep.windows[b])):
        if not dims[j]:
            continue
        try:
            value, dinc = _window_nll(out.Xi[pos, j], series.counts)
        except NumericalConsistencyError as exc:
            raise NumericalConsistencyError(f"dimension {j + 1}: {exc}") from None
        terms[j] = w[j] * value
        if not np.isfinite(terms[j]):
            return terms[j]
        g_Xi[pos[1:], j] += w[j] * dinc
        g_Xi[pos[:-1], j] -= w[j] * dinc
    pos_T = prep.at_T[b]
    for j, pos in enumerate(prep.marks[b], start=ds.e):
        if not dims[j]:
            continue
        xi_ev = out.xi[pos, j]
        terms[j] = w[j] * ppll_nll(xi_ev, float(out.Xi[pos_T, j]))
        if not np.isfinite(terms[j]):
            return terms[j]
        g_xi[pos, j] -= w[j] * (1.0 / xi_ev)
        g_Xi[pos_T, j] += w[j]
    return None


def _accumulate(
    params: ModelParams,
    prep: _Prepared,
    config: LikelihoodConfig,
    need_grad: bool,
    include_gamma: bool,
):
    """Objective value and, if need_grad, its gradient; the gradient is NaN
    where the value is not finite.

    A dimension with nu_i = 0 and a zero row alpha[i, :] has xi_i = 0 and
    Xi_i = gamma_i 1{t > 0} exactly, so an event there, or a positive count
    in a window after 0 (any window when gamma_i = 0), scores +inf before
    any sum.  The scan adds to dimension i only through alpha[i, :e];
    where that row is zero, xi_i and Xi_i are final from the decay sums.
    Those dimensions are scored next, so an impossible observation there
    costs no scan.  The rest are scored after one joint scan of every
    dataset.
    """
    d, e = params.d, params.e
    w = config.dim_weights(d)
    lay = _Layout(params) if e > 0 else None

    def impossible(value):
        return value, np.full(n_free(d, include_gamma), np.nan) if need_grad else None

    dead = (w != 0) & (params.nu == 0) & ~np.any(params.alpha, axis=1)
    if np.any(dead & (prep.late | prep.seen & (params.gamma == 0))):
        return impossible(np.inf)
    out = _decay_values(params, prep.plan)
    g_xi, g_Xi = np.zeros_like(out.xi), np.zeros_like(out.Xi)
    scan_free = ~np.any(params.alpha[:, :e], axis=1)
    first, rest = (w != 0) & scan_free, (w != 0) & ~scan_free
    terms = np.zeros((len(prep.datasets), d))
    for b in range(len(prep.datasets)):
        bad = _score(prep, b, out, w, first, terms[b], g_xi, g_Xi)
        if bad is not None:
            return impossible(bad)
    if lay is not None:
        _scan_values(lay, out)
        for b in range(len(prep.datasets)):
            bad = _score(prep, b, out, w, rest, terms[b], g_xi, g_Xi)
            if bad is not None:
                return impossible(bad)
    # summed dataset by dataset, dimension by dimension
    total = config.w_nu * float(np.sum(np.abs(params.nu)))
    for term in terms.ravel():
        total += term
    if not np.isfinite(total):
        return impossible(total)
    if not need_grad:
        return total, None
    grad = np.zeros(n_free(d, include_gamma))
    if config.w_nu:
        grad[2 * d * d : 2 * d * d + d] += config.w_nu
    _vjp(params, lay, out, g_xi, g_Xi, grad, include_gamma)
    return total, grad


def total_nll(
    params: ModelParams,
    dataset: Dataset,
    config: LikelihoodConfig | None = None,
) -> float:
    """Weighted negative log-likelihood of one dataset."""
    return joint_nll(params, [dataset], config=config)


def joint_nll(
    params: ModelParams,
    datasets,
    config: LikelihoodConfig | None = None,
) -> float:
    """Weighted negative log-likelihood summed over datasets (the L1 baseline
    penalty is applied once)."""
    value, _ = _accumulate(
        params, _prepared(params, datasets), config or LikelihoodConfig(),
        False, False,
    )
    return value


def nll_and_grad(
    params: ModelParams,
    data,
    config: LikelihoodConfig | None = None,
    include_gamma: bool = False,
):
    """Objective value and its gradient in the canonical parameter layout.

    `data` is a Dataset or a sequence of them, or their `_Prepared` form.
    """
    return _accumulate(
        params, _prepared(params, data), config or LikelihoodConfig(), True,
        include_gamma,
    )
