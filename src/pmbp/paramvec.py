"""Canonical flattening of free parameters for gradients and fitting.

Layout: [alpha row-major (d*d), theta row-major (d*d), nu (d)], optionally
followed by gamma (d).  gamma is a fixed hyperparameter by default.
"""

from __future__ import annotations

import numpy as np

from .params import ModelParams


def n_free(d: int, include_gamma: bool = False) -> int:
    return 2 * d * d + d + (d if include_gamma else 0)


def pack(params: ModelParams, include_gamma: bool = False) -> np.ndarray:
    parts = [params.alpha.ravel(), params.theta.ravel(), params.nu]
    if include_gamma:
        parts.append(params.gamma)
    return np.concatenate(parts)


def unpack(template: ModelParams, vec: np.ndarray, include_gamma: bool = False) -> ModelParams:
    d = template.d
    vec = np.asarray(vec, dtype=float)
    if vec.size != n_free(d, include_gamma):
        raise ValueError(
            f"expected {n_free(d, include_gamma)} entries, got {vec.size}"
        )
    alpha = vec[: d * d].reshape(d, d)
    theta = vec[d * d : 2 * d * d].reshape(d, d)
    nu = vec[2 * d * d : 2 * d * d + d]
    gamma = vec[2 * d * d + d :] if include_gamma else template.gamma
    return ModelParams(d=d, e=template.e, theta=theta, alpha=alpha,
                       gamma=gamma, nu=nu)
