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
from .poi import PoiEvaluator

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


def _accumulate(
    params: ModelParams,
    datasets,
    config: LikelihoodConfig,
    need_grad: bool,
    include_gamma: bool,
):
    """Objective value and, if need_grad, its gradient; the gradient is NaN
    where the value is not finite."""
    d, e = params.d, params.e
    w = config.dim_weights(d)
    total = config.w_nu * float(np.sum(np.abs(params.nu)))
    grad = np.zeros(n_free(d, include_gamma)) if need_grad else None
    if need_grad and config.w_nu:
        grad[2 * d * d : 2 * d * d + d] += config.w_nu
    for ds in datasets:
        pieces = [np.array([ds.T])]
        for series in ds.censored:
            pieces.append(series.boundaries)
        for ts in ds.events:
            pieces.append(np.asarray(ts, dtype=float))
        times = np.unique(np.concatenate(pieces))
        ev = PoiEvaluator(params, ds.event_list())
        out = ev.values(times)
        # cotangents of the objective on xi and Xi at each time
        g_xi = np.zeros_like(out.xi)
        g_Xi = np.zeros_like(out.Xi)
        for j, series in enumerate(ds.censored):
            if not w[j]:
                continue
            pos = np.searchsorted(times, series.boundaries)
            try:
                value, dinc = _window_nll(out.Xi[pos, j], series.counts)
            except NumericalConsistencyError as exc:
                raise NumericalConsistencyError(f"dimension {j + 1}: {exc}") from None
            total += w[j] * value
            if value == np.inf:
                break  # no gradient at an impossible point
            g_Xi[pos[1:], j] += w[j] * dinc
            g_Xi[pos[:-1], j] -= w[j] * dinc
        pos_T = np.searchsorted(times, ds.T)
        for jj, ts in enumerate(ds.events):
            j = e + jj
            if not w[j]:
                continue
            pos = np.searchsorted(times, np.asarray(ts, dtype=float))
            xi_ev = out.xi[pos, j]
            total += w[j] * ppll_nll(xi_ev, float(out.Xi[pos_T, j]))
            with np.errstate(divide="ignore"):
                g_xi[pos, j] -= w[j] * (1.0 / xi_ev)
            g_Xi[pos_T, j] += w[j]
        if not np.isfinite(total):
            return total, np.full_like(grad, np.nan) if need_grad else None
        if need_grad:
            grad += ev.vjp(out, g_xi, g_Xi, include_gamma)
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
    datasets = _as_datasets(datasets)
    _check_compat(params, datasets)
    value, _ = _accumulate(
        params, datasets, config or LikelihoodConfig(), False, False
    )
    return value


def nll_and_grad(
    params: ModelParams,
    data,
    config: LikelihoodConfig | None = None,
    include_gamma: bool = False,
):
    """Objective value and its gradient in the canonical parameter layout.

    `data` is a Dataset or a sequence of them.
    """
    datasets = _as_datasets(data)
    _check_compat(params, datasets)
    return _accumulate(
        params, datasets, config or LikelihoodConfig(), True, include_gamma
    )

