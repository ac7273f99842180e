"""Negative log-likelihood of partially interval-censored observations.

Censored dimensions contribute Poisson window terms on the compensator
increments, sum_k [DXi_k - C_k log DXi_k] (the count factorial is a constant
and is dropped); observed dimensions contribute point-process terms
-sum log xi(t_k) + Xi(T).  Dimension weights and an L1 penalty on the
baseline rates are configurable.  Gradients differentiate exactly the
computed objective: its cotangents on xi and Xi go through the evaluator's
adjoint pass.
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
    """Objective weights: one multiplier per dimension (default 1), an L1
    penalty weight on the baseline rates, and the floor used inside logs."""

    weights: np.ndarray | None = None
    w_nu: float = 0.0
    eps: float = 1e-10

    def dim_weights(self, d: int) -> np.ndarray:
        if self.weights is None:
            return np.ones(d)
        w = np.asarray(self.weights, dtype=float).reshape(-1)
        if w.shape != (d,):
            raise DimensionError(f"weights must have shape ({d},), got {w.shape}")
        if np.any(~np.isfinite(w)) or np.any(w < 0):
            raise ParameterError("weights must be finite and >= 0")
        return w


def _window_nll(Xi_bounds: np.ndarray, counts: np.ndarray, eps: float):
    """Poisson window terms on compensator increments: the value and its
    derivative with respect to each increment.

    Raises NumericalConsistencyError if an increment is below -1e-9; smaller
    negatives are clipped to zero (and get a zero derivative) before the eps
    floor inside the log.
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
    value = float(np.sum(inc - counts * np.log(np.maximum(inc, eps))))
    dinc = np.where(inc > eps, 1.0 - counts / np.maximum(inc, eps), 1.0)
    dinc[clipped] = 0.0
    return value, dinc


def icll(Xi_bounds: np.ndarray, counts: np.ndarray, eps: float = 1e-10) -> float:
    """Poisson window negative log-likelihood from compensator values at the
    observation boundaries (constant count factorials dropped).

    Raises NumericalConsistencyError if an increment is below -1e-9; smaller
    negatives are clipped to zero before the eps floor inside the log.
    """
    Xi_bounds = np.asarray(Xi_bounds, dtype=float)
    counts = np.asarray(counts, dtype=float)
    if Xi_bounds.size != counts.size + 1:
        raise DimensionError(
            f"need {counts.size + 1} boundary values for {counts.size} windows"
        )
    return _window_nll(Xi_bounds, counts, eps)[0]


def ppll_nll(xi_events: np.ndarray, Xi_T: float, eps: float = 1e-10) -> float:
    """Point-process negative log-likelihood -sum log xi(t_k) + Xi(T)."""
    xi_events = np.asarray(xi_events, dtype=float)
    return float(Xi_T - np.sum(np.log(np.maximum(xi_events, eps))))


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
    d, e = params.d, params.e
    eps = config.eps
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
            pos = np.searchsorted(times, series.boundaries)
            try:
                value, dinc = _window_nll(out.Xi[pos, j], series.counts, eps)
            except NumericalConsistencyError as exc:
                raise NumericalConsistencyError(f"dimension {j + 1}: {exc}") from None
            total += w[j] * value
            g_Xi[pos[1:], j] += w[j] * dinc
            g_Xi[pos[:-1], j] -= w[j] * dinc
        pos_T = np.searchsorted(times, ds.T)
        for jj, ts in enumerate(ds.events):
            j = e + jj
            pos = np.searchsorted(times, np.asarray(ts, dtype=float))
            xi_ev = out.xi[pos, j]
            total += w[j] * ppll_nll(xi_ev, float(out.Xi[pos_T, j]), eps)
            g_xi[pos, j] -= w[j] * np.where(
                xi_ev > eps, 1.0 / np.maximum(xi_ev, eps), 0.0
            )
            g_Xi[pos_T, j] += w[j]
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


def grad_nll(params: ModelParams, data, **kwargs) -> np.ndarray:
    """Gradient of the weighted negative log-likelihood."""
    return nll_and_grad(params, data, **kwargs)[1]
