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
it once and passes it in place of the datasets): the evaluation plan of
every dataset's query times (`pmbp.poi._plan`, the same data path as
`PoiEvaluator.values`), flat scoring tables of every dataset's windows,
events and T, and which dimensions need intensity.  Each evaluation does
only parameter work, for a batch of P parameter points at once
(`_evaluate`; `nll_and_grad` and `joint_nll` are the batch of one).  It
first rejects a dead dimension (nu_i = 0, alpha[i, :] = 0) that carries an
observation it cannot explain; then it runs one forward pass for all
points (`pmbp.poi._values`: the plan's decay pass on a leading points
axis, then one scan of every point over every dataset), scores every
dimension in one pass per dimension over all datasets and points, and
runs one adjoint pass (`pmbp.poi._vjp`) for the points that scored a
finite value.  Every point's value and gradient are bitwise those of its
evaluation alone: each term is the sum of its own segment, and the terms
and gradients are added in the same order.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import (
    DimensionError,
    NumericalConsistencyError,
    ParameterError,
    RegularityError,
)
from .params import Dataset, ModelParams
from .paramvec import n_free
from .poi import _Layout, _plan, _values, _vjp

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


def _negative_increment(inc: np.ndarray):
    """The NumericalConsistencyError for a window's increments inc, naming
    the window of the least, when that is below -1e-9; else None."""
    if inc.size and inc.min() < _INCREMENT_SLACK:
        k = int(np.argmin(inc))
        return NumericalConsistencyError(
            f"compensator increment {inc[k]:.3g} < {_INCREMENT_SLACK} on "
            f"window {k}"
        )
    return None


def _window_terms(inc: np.ndarray, counts: np.ndarray):
    """The Poisson window terms inc - C log inc on compensator increments
    inc (any shape; negatives are clipped to zero), and their derivatives
    with respect to each increment (zero where it was clipped).  A zero
    increment scores +inf under a positive count and 0 under a zero count.
    """
    clipped = inc < 0
    inc = np.clip(inc, 0.0, None)
    seen = counts > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        value = inc - np.where(seen, counts * np.log(inc), 0.0)
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
    inc = np.diff(Xi_bounds)
    exc = _negative_increment(inc)
    if exc is not None:
        raise exc
    return float(np.sum(_window_terms(inc, counts)[0]))


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
    pieces += ds.events
    return np.unique(np.concatenate(pieces))


def _cuts(pieces) -> list:
    """The slices of consecutive pieces in their concatenation."""
    bounds = np.cumsum([0] + [len(x) for x in pieces])
    return [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]


class _Prepared:
    """The data side of the objective over a list of datasets of one
    (d, e) split, built once; evaluations only read it.

    Each dataset's query times (T, the window boundaries and the events,
    sorted and unique) are one dataset of the evaluation plan.  The scoring
    tables are flat over all datasets, in dataset order, with rows into the
    plan: for censored dimension j, windows[j] holds the rows of every
    window's start and end, its count, and each dataset's slice of the
    windows; for observed dimension e + k, events[k] holds the rows of every
    event and each dataset's slice of them; at_T holds the row of each
    dataset's T.  Per dimension, `late` flags an event or a positive count
    in a window that starts after 0, and `seen` any event or positive
    count.  The plan's grid groups its steps by length when it is built
    (`pmbp.poi._grid`), so that no evaluation does.
    """

    def __init__(self, datasets):
        self.datasets = datasets
        d, e = datasets[0].d, datasets[0].e
        times = [_query_times(ds) for ds in datasets]
        # the events are validated by Dataset
        self.plan = _plan([ds.event_list() for ds in datasets], times, e)
        at_T = []
        bounds = [[] for _ in range(e)]
        events = [[] for _ in range(d - e)]
        self.late = np.zeros(d, dtype=bool)
        self.seen = np.zeros(d, dtype=bool)
        for ds, t, rows in zip(datasets, times, self.plan.cuts):
            at = lambda x: rows.start + np.searchsorted(t, x)
            at_T.append(at(ds.T))
            for j, series in enumerate(ds.censored):
                bounds[j].append(at(series.boundaries))
                self.late[j] |= np.any(series.counts[1:] > 0)
                self.seen[j] |= np.any(series.counts > 0)
            for k, ts in enumerate(ds.events):
                events[k].append(at(ts))
                self.late[e + k] |= ts.size > 0
                self.seen[e + k] |= ts.size > 0
        self.at_T = np.array(at_T)
        self.windows = []
        for j, pos in enumerate(bounds):
            counts = np.concatenate([ds.censored[j].counts for ds in datasets])
            self.windows.append((np.concatenate([x[:-1] for x in pos]),
                                 np.concatenate([x[1:] for x in pos]),
                                 counts, _cuts([x[1:] for x in pos])))
        self.events = [(np.concatenate(pos), _cuts(pos)) for pos in events]

    def dead_end(self, w, nu, alpha, gamma):
        """Whether a dimension i of weight w_i != 0 with nu_i = 0 and a zero
        row alpha[i, :] carries an observation it cannot explain, for each
        point of the parameter arrays' leading axes.  Such a dimension has
        xi_i = 0 and Xi_i = gamma_i 1{t > 0} exactly, so an event there, or
        a positive count in a window after 0 (any window when gamma_i = 0),
        scores +inf."""
        dead = (w != 0) & (nu == 0) & ~alpha.any(axis=-1)
        return (dead & (self.late | self.seen & (gamma == 0))).any(axis=-1)


def _prepared(params: ModelParams, data) -> _Prepared:
    """`data` (a Dataset, a sequence of them or a _Prepared) as a _Prepared
    whose datasets match params' split."""
    if isinstance(data, _Prepared):
        _check_compat(params, data.datasets)
        return data
    datasets = _as_datasets(data)
    _check_compat(params, datasets)
    return _Prepared(datasets)


def _score(prep: _Prepared, vals, w, terms, g_xi, g_Xi, fails):
    """Score the terms of every dataset on the dimensions of nonzero weight
    for each of P points into terms (P, B, d) (weighted by w), and their
    cotangents on vals.xi and vals.Xi into g_xi and g_Xi: one pass per
    dimension over all datasets and points.

    Each (point, dataset, dimension) term is the sum of its own contiguous
    segment, as in an evaluation of that point and dataset alone: the
    gathers index every axis by array, so that each point's rows are
    contiguous and summed in the same order whatever P is.  A term that
    cannot be scored goes into fails[(p, b, j)]: the
    NumericalConsistencyError of a negative increment, or else the term
    itself where it is not finite (the observations are impossible)."""
    e = len(prep.windows)
    at = np.arange(len(terms))[:, None]
    for j, (left, right, counts, cuts) in enumerate(prep.windows):
        if w[j] == 0:
            continue
        inc = vals.Xi[at, right, j] - vals.Xi[at, left, j]
        if (inc < _INCREMENT_SLACK).any():
            for p, row in enumerate(inc):
                for b, cut in enumerate(cuts):
                    exc = _negative_increment(row[cut])
                    if exc is not None:
                        fails[p, b, j] = NumericalConsistencyError(
                            f"dataset {b}, dimension {j + 1}: {exc}")
        value, dinc = _window_terms(inc, counts)
        # the cotangents of a point with an impossible term are dropped
        with np.errstate(invalid="ignore"):
            g_Xi[at, right, j] += w[j] * dinc
            g_Xi[at, left, j] -= w[j] * dinc
        for b, cut in enumerate(cuts):
            terms[:, b, j] = w[j] * value[:, cut].sum(axis=1)
    for j, (rows, cuts) in enumerate(prep.events, start=e):
        if w[j] == 0:
            continue
        xi_ev = vals.xi[at, rows, j]
        with np.errstate(divide="ignore"):
            logs = np.log(xi_ev)
            g_xi[at, rows, j] -= w[j] * (1.0 / xi_ev)
        Xi_T = vals.Xi[at, prep.at_T, j]
        for b, cut in enumerate(cuts):
            Xi_T[:, b] -= logs[:, cut].sum(axis=1)
        terms[:, :, j] = w[j] * Xi_T
        g_Xi[at, prep.at_T, j] += w[j]
    for p, b, j in zip(*np.nonzero((w != 0) & ~np.isfinite(terms))):
        fails.setdefault((p, b, j), terms[p, b, j])


def _evaluate(ps, prep: _Prepared, config: LikelihoodConfig, need_grad: bool,
              include_gamma: bool) -> list:
    """The objective at each of the points ps (a list of ModelParams of
    prep's split): per point, (value, gradient or None), or the
    RegularityError or NumericalConsistencyError its evaluation alone
    raises.  The gradient is NaN where the value is not finite.  Every
    point's outcome is bitwise that of its evaluation alone.

    The layout's regularity check comes first.  A dead dimension
    (`_Prepared.dead_end`) scores +inf before any sum.  The other points
    take one forward pass together (`pmbp.poi._values`: the decay sums and
    one scan of every dataset), and one scoring pass over every dimension.
    The first failure of a point, in order of dataset and then dimension,
    is its outcome, and the points that score a finite value take one
    adjoint pass together.
    """
    d, e = ps[0].d, ps[0].e
    B = len(prep.datasets)
    w = config.dim_weights(d)
    out = [None] * len(ps)
    lays = [None] * len(ps)
    if e > 0:
        for i, p in enumerate(ps):
            try:
                lays[i] = _Layout(p)
            except RegularityError as exc:
                out[i] = exc

    def impossible(i, value):
        n = n_free(d, include_gamma)
        out[i] = value, np.full(n, np.nan) if need_grad else None

    live = [i for i in range(len(ps)) if out[i] is None]
    if live:
        dead = prep.dead_end(w, *(np.array([getattr(ps[i], k) for i in live])
                                  for k in ("nu", "alpha", "gamma")))
        for i in np.array(live)[dead]:
            impossible(i, np.inf)
        live = [i for i, no in zip(live, dead) if not no]
    if not live:
        return out
    vals = _values([ps[i] for i in live], [lays[i] for i in live], prep.plan)
    g_xi, g_Xi = np.zeros_like(vals.xi), np.zeros_like(vals.Xi)
    terms = np.zeros((len(live), B, d))
    fails = {}
    _score(prep, vals, w, terms, g_xi, g_Xi, fails)
    ok = np.ones(len(live), dtype=bool)
    for (p, b, j), bad in sorted(fails.items()):
        if ok[p]:
            ok[p] = False
            if isinstance(bad, Exception):
                out[live[p]] = bad
            else:
                impossible(live[p], bad)
    for p, i in enumerate(live):
        if not ok[p]:
            continue
        # summed dataset by dataset, dimension by dimension
        total = config.w_nu * float(np.sum(np.abs(ps[i].nu)))
        for term in terms[p].ravel():
            total += term
        if np.isfinite(total):
            out[i] = total, None
        else:
            ok[p] = False
            impossible(i, total)
    if not need_grad or not ok.any():
        return out
    keep = np.flatnonzero(ok)
    grad = np.zeros((keep.size, n_free(d, include_gamma)))
    if config.w_nu:
        grad[:, 2 * d * d : 2 * d * d + d] += config.w_nu
    _vjp([ps[live[p]] for p in keep], [lays[live[p]] for p in keep], vals,
         keep, g_xi[keep], g_Xi[keep], grad, include_gamma)
    for p, g in zip(keep, grad):
        out[live[p]] = out[live[p]][0], g
    return out


def _one(params: ModelParams, data, config, need_grad: bool,
         include_gamma: bool):
    """The objective at one point: the batch of one."""
    (res,) = _evaluate([params], _prepared(params, data),
                       config or LikelihoodConfig(), need_grad, include_gamma)
    if isinstance(res, Exception):
        raise res
    return res


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
    return _one(params, datasets, config, False, False)[0]


def nll_and_grad(
    params: ModelParams,
    data,
    config: LikelihoodConfig | None = None,
    include_gamma: bool = False,
):
    """Objective value and its gradient in the canonical parameter layout.

    `data` is a Dataset or a sequence of them, or their `_Prepared` form.
    """
    return _one(params, data, config, True, include_gamma)
