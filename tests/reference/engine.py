"""Conditional intensity of the partially censored process on a uniform grid.

Given observed events on the E^c dimensions, the censored-block expected
intensity xi solves a renewal-type equation whose solution is

    xi(t)  = nu + a(t) + h(t) gamma + (h * (nu + a))(t),
    Xi(t)  = gamma 1{t>0} + nu t + A(t) + H(t) gamma + (h * (nu t + A))(t),

where a/A sum the kernel (resp. kernel integral) over observed events, h is
the series sum_{n>=1} phi_E^(n) of auto-convolution powers of the kernel with
the E^c columns zeroed, and H(t) = int_0^t h.  All grid convolutions use the
quadrature sum_i [F(t - t_i) - F(t - t_{i+1})] g(t_i) with F an exact
antiderivative, which is exact for piecewise-constant g; on the uniform grid
this is a discrete sequence convolution and is evaluated by FFT.

This grid method is kept as the paper-faithful reference that the tests
compare the exact evaluator in `pmbp.poi` against.
"""

from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np

from pmbp.errors import (
    DomainError,
    ExplosionError,
    ParameterError,
    RegularityError,
)
from pmbp.params import EventHistory, ModelParams, spectral_radius, validate_events_for
from pmbp.poi import PoiEvaluator

from . import TruncationError

# ---------------------------------------------------------------------------
# Grid


@dataclasses.dataclass(frozen=True)
class ConvGrid:
    """Uniform partition of [0, T] with n cells of width dt (n+1 points)."""

    dt: float
    n: int

    def __post_init__(self):
        if not np.isfinite(self.dt) or self.dt <= 0:
            raise ParameterError(f"dt must be finite and > 0, got {self.dt}")
        if self.n < 1:
            raise ParameterError(f"need at least one cell, got n={self.n}")

    @property
    def T(self) -> float:
        return self.dt * self.n

    @property
    def points(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.n + 1)

    @classmethod
    def make(cls, T: float, step: float) -> "ConvGrid":
        """Grid over [0, T] with spacing snapped to T / ceil(T / step) so the
        partition is uniform and ends exactly at T."""
        if not np.isfinite(T) or T <= 0:
            raise ParameterError(f"T must be finite and > 0, got {T}")
        if not np.isfinite(step) or step <= 0:
            raise ParameterError(f"step must be finite and > 0, got {step}")
        n = max(1, int(np.ceil(T / step - 1e-9)))
        return cls(dt=T / n, n=n)


def default_step(params: ModelParams, T: float) -> float:
    """Default grid step: one percent of the fastest kernel timescale,
    clipped to [T/1e5, T/100]."""
    base = 0.01 / float(params.theta.max())
    return float(np.clip(base, T / 1e5, T / 100.0))


# ---------------------------------------------------------------------------
# FFT sequence convolution


def _fft_conv(D: np.ndarray, g: np.ndarray) -> np.ndarray:
    """out[p] = sum_{r<=p} D[r] @ g[p-r] for stacked matrices/vectors.

    D : (P+1, d, d) with D[0] = 0; g : (P+1, d) or (P+1, d, d).
    """
    import scipy.fft

    P1 = D.shape[0]
    nfft = scipy.fft.next_fast_len(2 * P1 - 1, real=True)
    FD = scipy.fft.rfft(D, nfft, axis=0)
    Fg = scipy.fft.rfft(g, nfft, axis=0)
    if g.ndim == 2:
        spec = np.einsum("fij,fj->fi", FD, Fg)
    else:
        spec = np.einsum("fij,fjk->fik", FD, Fg)
    out = scipy.fft.irfft(spec, nfft, axis=0)[:P1]
    return out


def _grid_diffs(samples: np.ndarray) -> np.ndarray:
    """Increment sequence D[r] = F(t_r) - F(t_{r-1}) with D[0] = 0."""
    D = np.zeros_like(samples)
    D[1:] = samples[1:] - samples[:-1]
    return D


# ---------------------------------------------------------------------------
# Kernel grid samples (censored columns only)


def _masked_kernel_samples(params: ModelParams, t: np.ndarray):
    """phi_E, Phi_E, and int Phi_E sampled on grid times t."""
    mask_E = np.zeros((params.d, params.d))
    mask_E[:, : params.e] = 1.0
    th = params.theta[None, :, :]
    al = params.alpha[None, :, :]
    u = t[:, None, None]
    decay = np.exp(-th * u)
    phi = al * th * decay * mask_E
    Phi = al * (1.0 - decay) * mask_E
    IPhi = al * (u - (1.0 - decay) / th) * mask_E
    return phi, Phi, IPhi


# ---------------------------------------------------------------------------
# Response tables


@dataclasses.dataclass(frozen=True)
class HTables:
    """Grid samples of the kernel-response series h and its integral H.

    k_star counts the series terms included; residual_max is the max-norm of
    the last term over the grid (below the truncation threshold on success).
    The E^c columns of both tables are identically zero.
    """

    grid: ConvGrid
    h: np.ndarray
    H: np.ndarray
    k_star: int
    residual_max: float


def compute_h(
    params: ModelParams,
    grid: ConvGrid,
    gamma_h: float = 1e-6,
    max_terms: int = 1000,
) -> HTables:
    """Accumulate the auto-convolution series of the censored-column kernel.

    Term n+1 is the quadrature convolution of the exact kernel integral
    increments with term n (kernel powers commute, so the exactly integrable
    factor can always be taken on the left).  Stops once the latest term's
    max-norm over the grid falls below gamma_h.

    Raises RegularityError if the censored block's branching radius is >= 1
    (the series would diverge) and TruncationError past max_terms terms.
    """
    if params.e > 0:
        rho_EE = spectral_radius(params.alpha[: params.e, : params.e])
        if rho_EE >= 1.0:
            raise RegularityError(
                f"censored-block branching radius {rho_EE:.6g} >= 1; "
                "the response series diverges"
            )
    t = grid.points
    phi, Phi, IPhi = _masked_kernel_samples(params, t)
    D_Phi = _grid_diffs(Phi)
    term = phi.copy()
    h = phi.copy()
    k_star = 1
    res = float(np.max(np.abs(term))) if term.size else 0.0
    while res >= gamma_h:
        if k_star >= max_terms:
            raise TruncationError(
                f"response series still at max-norm {res:.3g} >= {gamma_h} "
                f"after {max_terms} terms"
            )
        term = _fft_conv(D_Phi, term)
        h += term
        k_star += 1
        res = float(np.max(np.abs(term)))
    H = Phi + _fft_conv(_grid_diffs(IPhi), h)
    return HTables(grid=grid, h=h, H=H, k_star=k_star, residual_max=res)


# ---------------------------------------------------------------------------
# Observed-event input sums on the grid


def _observed_part(params: ModelParams, events, t: np.ndarray):
    """The process driven by the observed events alone, at times t: the e = 0
    evaluator with the censored dimensions' events emptied and no impulse, so
    that its xi is nu + a(t) and its Xi is nu t + A(t), with a/A the kernel
    and kernel-integral sums over the E^c events."""
    ev = validate_events_for(params, events)
    ev[: params.e] = [np.zeros(0)] * params.e
    return PoiEvaluator(params.replace(e=0, gamma=np.zeros(params.d)), ev).values(t)


def _check_events_horizon(params: ModelParams, events, T: float) -> None:
    for j in range(params.e, min(params.d, len(events))):
        ts = np.asarray(events[j], dtype=float)
        if ts.size and ts[-1] >= T:
            raise ParameterError(
                f"dimension {j + 1}: observed events must lie in [0, T={T})"
            )


def xi_eval(params: ModelParams, events, tables: HTables) -> np.ndarray:
    """Expected intensity of every dimension on the table grid: (P+1, d)."""
    grid = tables.grid
    _check_events_horizon(params, events, grid.T)
    t = grid.points
    s = _observed_part(params, events, t).xi
    xi = s
    if params.e > 0:
        if np.any(params.gamma):
            xi = xi + np.einsum("pij,j->pi", tables.h, params.gamma)
        xi = xi + _fft_conv(_grid_diffs(tables.H), s)
    return xi


def compensator_eval(params: ModelParams, events, tables: HTables) -> np.ndarray:
    """Expected cumulative counts on the table grid: (P+1, d), including the
    impulse jump at t=0+."""
    grid = tables.grid
    _check_events_horizon(params, events, grid.T)
    t = grid.points
    S = _observed_part(params, events, t).Xi
    Xi = S + params.gamma[None, :] * (t > 0)[:, None]
    if params.e > 0:
        if np.any(params.gamma):
            Xi = Xi + np.einsum("pij,j->pi", tables.H, params.gamma)
        Xi = Xi + _fft_conv(_grid_diffs(tables.H), S)
    return Xi


# ---------------------------------------------------------------------------
# Monte-Carlo reference for the expected intensity


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


def xi_monte_carlo(
    params: ModelParams,
    events,
    query_times,
    n_samples: int,
    seed: int,
):
    """Estimate the expected intensity by averaging full-process intensities
    over sampled censored-block completions.

    Returns (mean, stderr), each (m, d).  The impulse weight gamma is never
    realized as events by the sampler, so comparisons against the grid
    evaluator are only meaningful for gamma = 0 (a warning is emitted
    otherwise).
    """
    times = np.atleast_1d(np.asarray(query_times, dtype=float))
    if np.any(times < 0):
        raise DomainError("query times must be >= 0")
    if n_samples < 2:
        raise ParameterError("need at least two samples for a standard error")
    if np.any(params.gamma):
        warnings.warn(
            "gamma > 0: sampled completions omit the impulse response, so the "
            "Monte-Carlo mean is biased low",
            stacklevel=2,
        )
    T = float(times.max())
    if T <= 0:
        mean = np.tile(params.nu, (times.size, 1))
        return mean, np.zeros_like(mean)
    full = params.replace(e=0)
    children = np.random.SeedSequence(seed).spawn(n_samples)
    mean = np.zeros((times.size, params.d))
    m2 = np.zeros_like(mean)
    for k, child in enumerate(children):
        merged = sample_conditional_hawkes(params, events, T, child)
        lam = PoiEvaluator(full, merged.times).values(times).xi
        delta = lam - mean
        mean += delta / (k + 1)
        m2 += delta * (lam - mean)
    var = m2 / (n_samples - 1)
    stderr = np.sqrt(var / n_samples)
    return mean, stderr
