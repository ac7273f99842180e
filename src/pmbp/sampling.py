"""Thinning-based simulation of the partially censored process, and count
forecasts past a training horizon.

The conditional intensity given the observed-event history decomposes as

    xi(t) = [nu + h(t) gamma + H(t) nu] + sum_k [phi(t - t_k) + (h*phi)(t - t_k)]

with the bracketed deterministic part and the response-convolved kernel
(h*phi) precomputed on the grid once; each proposal then costs exponential
accumulator updates plus one table gather per past event.  Two rejection
bounds are available: a loose global one ("ub1": grid maximum of h against
worst-case inputs) and a tighter time-local one ("ub2": suffix maxima of h,
a non-increasing envelope of it, and its total mass).  Both freeze the
observed-event sums, which only decay until the next acceptance, so a bound
computed at a proposal time remains valid until an event is accepted.

Censored-block events never feed back into the intensity: those dimensions
are driven by the expected response, so their realized events are outputs
only.  The impulse weight gamma shapes the smooth intensity but its atom at
t=0 is not realized as events.
"""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np

from .engine import HTables, _fft_conv_right, _grid_diffs, compute_h, default_grid
from .errors import DomainError, ExplosionError, ParameterError
from .params import Dataset, EventHistory, ModelParams, phi_integral, validate_events_for
from .poi import PoiEvaluator

_INFLATE = 1.05  # safety factor covering inter-grid peaks of smooth curves


@dataclasses.dataclass(frozen=True)
class BoundContext:
    """Precomputed bound ingredients over one grid span.

    h_bar : inflated entrywise grid maximum of the response h;
    suffix_h : inflated running maxima of h from the right;
    H_hat : integral of the non-increasing envelope of h (flat at the maximum
    until its argmax, then following h);
    H_inf : total response mass, alpha_E (I - alpha_EE)^{-1} on the censored
    columns; X / G_hat : the convolution (h*phi) and an inflated per-cell
    envelope of its non-increasing majorant version; base : deterministic
    intensity part nu + h gamma + H nu on the grid."""

    params: ModelParams
    grid_dt: float
    T: float
    h_bar: np.ndarray
    suffix_h: np.ndarray
    H_hat: np.ndarray
    H_inf: np.ndarray
    X: np.ndarray
    G_hat: np.ndarray
    base: np.ndarray


def build_bound_context(
    params: ModelParams, tables: HTables | None, T: float | None = None
) -> BoundContext:
    """Assemble every grid-level quantity the sampler and bounds need."""
    d, e = params.d, params.e
    if e > 0 and tables is None:
        raise ParameterError("bound context with a censored block needs tables")
    if e == 0:
        T = float(T if T is not None else 0.0)
        if T <= 0:
            raise ParameterError("need a positive horizon when e = 0")
        zero = np.zeros((2, d, d))
        return BoundContext(
            params=params, grid_dt=T, T=T,
            h_bar=np.zeros((d, d)), suffix_h=zero, H_hat=zero.copy(),
            H_inf=np.zeros((d, d)), X=zero.copy(), G_hat=np.zeros((1, d, d)),
            base=np.tile(params.nu, (2, 1)),
        )
    grid = tables.grid
    T = float(T if T is not None else grid.T)
    if T > grid.T * (1 + 1e-12):
        raise ParameterError(f"horizon {T} exceeds the grid span {grid.T}")
    tg = grid.points
    h, H = tables.h, tables.H
    h_bar = _INFLATE * h.max(axis=0)
    suffix_h = _INFLATE * np.maximum.accumulate(h[::-1], axis=0)[::-1]
    # integral of the flat-then-decaying envelope of h, entrywise
    am = h.argmax(axis=0)
    u_am = tg[am]
    peak = _INFLATE * np.take_along_axis(h, am[None], axis=0)[0]
    H_am = np.take_along_axis(H, am[None], axis=0)[0]
    before = tg[:, None, None] < u_am[None]
    H_hat = np.where(
        before, peak[None] * tg[:, None, None], H + (peak * u_am - H_am)[None]
    )
    eye = np.eye(e)
    H_inf = np.zeros((d, d))
    H_inf[:, :e] = params.alpha[:, :e] @ np.linalg.inv(eye - params.alpha[:e, :e])
    D_Phi = _grid_diffs(phi_integral(params, tg))
    X = _fft_conv_right(h, D_Phi)
    h_hat = np.where(before, peak[None] / _INFLATE, h)
    X_hat = _fft_conv_right(h_hat, D_Phi)
    G_hat = _INFLATE * np.maximum(X_hat[:-1], X_hat[1:])
    base = (
        params.nu[None, :]
        + h[:, :, :e] @ params.gamma[:e]
        + H[:, :, :e] @ params.nu[:e]
    )
    return BoundContext(
        params=params, grid_dt=grid.dt, T=T, h_bar=h_bar, suffix_h=suffix_h,
        H_hat=H_hat, H_inf=H_inf, X=X, G_hat=G_hat, base=base,
    )


@dataclasses.dataclass
class BoundState:
    """Event-dependent inputs to the bound at one proposal time: exact kernel
    sums over past observed events, their counts per source dimension, and
    the event list for the response-convolution lookups."""

    phi_sums: np.ndarray
    counts: np.ndarray
    ev_t: np.ndarray
    ev_src: np.ndarray


def pmbp_upper_bound(
    ctx: BoundContext, params: ModelParams, state: BoundState, t: float,
    mode: str = "ub1",
) -> np.ndarray:
    """Componentwise intensity bound valid from t until the next acceptance."""
    d, e = params.d, params.e
    if mode not in ("ub1", "ub2"):
        raise ParameterError(f"bound mode must be 'ub1' or 'ub2', got {mode!r}")
    if e == 0:
        return params.nu + state.phi_sums
    if mode == "ub1":
        v = params.gamma + ctx.T * params.nu
        if state.counts.size:
            v = v + params.alpha[:, e:] @ state.counts
        return params.nu + ctx.h_bar[:, :e] @ v[:e] + state.phi_sums
    r = min(int(t / ctx.grid_dt), ctx.suffix_h.shape[0] - 1)
    out = params.nu + state.phi_sums
    out = out + ctx.suffix_h[r, :, :e] @ params.gamma[:e]
    out = out + ctx.H_inf[:, :e] @ params.nu[:e]
    if state.ev_t.size:
        u = t - state.ev_t
        cells = np.minimum(
            (u / ctx.grid_dt).astype(int), ctx.G_hat.shape[0] - 1
        )
        out = out + ctx.G_hat[cells, :, state.ev_src].sum(axis=0)
    # integral envelope applied to the frozen kernel sums
    rem = min(int(np.ceil((ctx.T - t) / ctx.grid_dt)), ctx.H_hat.shape[0] - 1)
    out = out + ctx.H_hat[rem, :, :e] @ state.phi_sums[:e]
    return out


class _ThinState:
    """Mutable sampler state: per-source exponential accumulators plus the
    accepted-event ledger for the convolution lookups."""

    def __init__(self, params: ModelParams, initial, t_start: float):
        d, e = params.d, params.e
        self.params = params
        self.R = np.zeros((d, max(d - e, 0)))
        self.counts = np.zeros(max(d - e, 0))
        self.t = float(t_start)
        ev_t, ev_src = [], []
        for j in range(e, d):
            ts = np.asarray(initial[j], dtype=float)
            if ts.size:
                if np.any(ts > t_start):
                    raise ParameterError(
                        "initial events must not lie past the start time"
                    )
                th = params.theta[:, j][:, None]
                self.R[:, j - e] = np.exp(-th * (t_start - ts)[None, :]).sum(1)
                self.counts[j - e] = ts.size
                ev_t.extend(ts.tolist())
                ev_src.extend([j] * ts.size)
        order = np.argsort(ev_t, kind="stable")
        self.ev_t = np.asarray(ev_t, dtype=float)[order]
        self.ev_src = np.asarray(ev_src, dtype=int)[order]

    def advance(self, t_new: float) -> None:
        if self.R.size:
            self.R *= np.exp(
                -self.params.theta[:, self.params.e :] * (t_new - self.t)
            )
        self.t = t_new

    def add_event(self, j: int) -> None:
        e = self.params.e
        self.R[:, j - e] += 1.0
        self.counts[j - e] += 1
        self.ev_t = np.append(self.ev_t, self.t)
        self.ev_src = np.append(self.ev_src, j)

    def phi_sums(self) -> np.ndarray:
        p = self.params
        if not self.R.size:
            return np.zeros(p.d)
        return (p.alpha[:, p.e :] * p.theta[:, p.e :] * self.R).sum(axis=1)

    def bound_state(self) -> BoundState:
        return BoundState(
            phi_sums=self.phi_sums(), counts=self.counts.copy(),
            ev_t=self.ev_t, ev_src=self.ev_src,
        )


def _interp_rows(table: np.ndarray, dt: float, u: float) -> np.ndarray:
    """Linear interpolation of a (P+1, ...) grid table at argument u."""
    x = u / dt
    i0 = min(int(x), table.shape[0] - 2)
    frac = x - i0
    return table[i0] + frac * (table[i0 + 1] - table[i0])


def _xi_rows(ctx: BoundContext, state: _ThinState, t: float) -> np.ndarray:
    """All d intensity components at t given the accepted history."""
    p = ctx.params
    if p.e == 0:
        return p.nu + state.phi_sums()
    out = _interp_rows(ctx.base, ctx.grid_dt, t) + state.phi_sums()
    if state.ev_t.size:
        u = (t - state.ev_t) / ctx.grid_dt
        i0 = np.minimum(u.astype(int), ctx.X.shape[0] - 2)
        frac = (u - i0)[:, None]
        lo = ctx.X[i0, :, state.ev_src]
        hi = ctx.X[i0 + 1, :, state.ev_src]
        out = out + (lo + frac * (hi - lo)).sum(axis=0)
    return out


@dataclasses.dataclass
class SampleStats:
    """Thinning telemetry: proposal/acceptance counts, bound violations, and
    the per-proposal record (time, summed bound, summed intensity)."""

    n_proposals: int = 0
    n_accepted: int = 0
    n_violations: int = 0
    trace: list = dataclasses.field(default_factory=list)

    @property
    def acceptance_ratio(self) -> float:
        return self.n_accepted / self.n_proposals if self.n_proposals else 0.0


def _thin(
    params: ModelParams,
    ctx: BoundContext,
    T: float,
    rng: np.random.Generator,
    bound_mode: str,
    initial,
    t_start: float,
    sample_dims,
    max_events: int,
    stats: SampleStats | None,
):
    d = params.d
    active = np.asarray(sorted(sample_dims), dtype=int)
    state = _ThinState(params, initial, t_start)
    new_times = [[] for _ in range(d)]
    n_new = 0
    t = t_start
    while True:
        B_vec = pmbp_upper_bound(ctx, params, state.bound_state(), t, bound_mode)
        B = float(B_vec[active].sum())
        if B <= 0:
            break
        w = rng.exponential() / B
        u2 = rng.uniform()
        t_next = t + w
        if t_next >= T:
            break
        state.advance(t_next)
        t = t_next
        lam = _xi_rows(ctx, state, t)[active]
        lam_sum = float(lam.sum())
        if stats is not None:
            stats.n_proposals += 1
            stats.trace.append((t, B, lam_sum))
            if lam_sum > B * (1 + 1e-9):
                stats.n_violations += 1
        target = u2 * B
        if target < lam_sum:
            k = int(np.searchsorted(np.cumsum(lam), target, side="right"))
            k = min(k, active.size - 1)
            j = int(active[k])
            new_times[j].append(t)
            n_new += 1
            if stats is not None:
                stats.n_accepted += 1
            if j >= params.e:
                state.add_event(j)
            if n_new > max_events:
                raise ExplosionError(
                    f"more than {max_events} events accepted before t={t:.4g}; "
                    "the configuration is likely supercritical"
                )
    merged = []
    for j in range(d):
        prev = np.asarray(initial[j], dtype=float)
        add = np.asarray(new_times[j], dtype=float)
        ts = np.concatenate([prev, add])
        # open-interval guard: identical adjacent stamps get nudged apart
        for k in range(1, ts.size):
            if ts[k] <= ts[k - 1]:
                ts[k] = np.nextafter(ts[k - 1], np.inf)
        merged.append(ts)
    return EventHistory(times=tuple(merged), T=T)


def sample_pmbp(
    params: ModelParams,
    T: float,
    seed,
    tables: HTables | None = None,
    grid=None,
    bound_mode: str = "ub1",
    max_events: int = 1_000_000,
    stats: SampleStats | None = None,
) -> EventHistory:
    """Draw one realization of all d dimensions on [0, T) by thinning.

    Censored-block dimensions are Cox streams driven by the expected
    intensity; observed-block acceptances feed back into it.  The impulse
    weight contributes to the smooth intensity but is not realized as events
    at t=0.  Deterministic for a fixed seed.
    """
    if not np.isfinite(T) or T <= 0:
        raise DomainError(f"T must be finite and > 0, got {T}")
    if params.e > 0 and tables is None:
        tables = compute_h(params, grid or default_grid(params, T))
    ctx = build_bound_context(params, tables, T)
    rng = np.random.default_rng(seed)
    initial = [np.zeros(0)] * params.d
    return _thin(
        params, ctx, T, rng, bound_mode, initial, 0.0, range(params.d),
        max_events, stats,
    )


@dataclasses.dataclass
class Prediction:
    """Forecast summary: interval boundaries, per-interval per-censored-dim
    mean and across-sample standard deviation, and the sample accounting."""

    boundaries: np.ndarray
    mean: np.ndarray
    sd: np.ndarray
    n_samples: int
    n_failed: int


def _forecast(
    params: ModelParams,
    dataset: Dataset,
    boundaries,
    n_samples: int,
    seed,
    tables: HTables | None,
    grid,
    bound_mode: str,
    max_events: int,
    sample_dims,
    measure,
) -> Prediction:
    """Validate a forecast request, continue the dataset past its horizon
    once per seeded sample (thinning `sample_dims`), and average
    measure(history, boundaries), an (intervals, e) array, over the samples
    that did not explode."""
    bnds = np.asarray(boundaries, dtype=float).reshape(-1)
    T_train = dataset.T
    if bnds.size < 2:
        raise ParameterError("need at least two prediction boundaries")
    if np.any(np.diff(bnds) <= 0):
        raise ParameterError("prediction boundaries must be strictly increasing")
    if bnds[0] < T_train * (1 - 1e-12):
        raise ParameterError(
            f"prediction starts at {bnds[0]} before the training horizon {T_train}"
        )
    if n_samples < 1:
        raise ParameterError("need at least one sample")
    d, e = params.d, params.e
    if dataset.d != d or dataset.e != e:
        raise ParameterError("dataset split does not match the model")
    T_test = float(bnds[-1])
    if e > 0 and tables is None:
        tables = compute_h(params, grid or default_grid(params, T_test))
    ctx = build_bound_context(params, tables, T_test)
    observed = validate_events_for(params, dataset.event_list())
    children = np.random.SeedSequence(seed).spawn(n_samples)
    K = bnds.size - 1
    mean = np.zeros((K, e))
    m2 = np.zeros((K, e))
    n_ok = 0
    n_failed = 0
    for child in children:
        rng = np.random.default_rng(child)
        try:
            hist = _thin(
                params, ctx, T_test, rng, bound_mode, observed, T_train,
                sample_dims, max_events, None,
            )
        except ExplosionError:
            n_failed += 1
            continue
        value = measure(hist, bnds)
        n_ok += 1
        delta = value - mean
        mean += delta / n_ok
        m2 += delta * (value - mean)
    if n_ok == 0:
        raise ExplosionError("every prediction sample exploded")
    if n_failed > 0.01 * n_samples:
        warnings.warn(
            f"{n_failed} of {n_samples} prediction samples exploded and were "
            "dropped",
            stacklevel=3,
        )
    sd = np.sqrt(m2 / (n_ok - 1)) if n_ok > 1 else np.zeros_like(m2)
    return Prediction(
        boundaries=bnds, mean=mean, sd=sd, n_samples=n_ok, n_failed=n_failed
    )


def predict_counts(
    params: ModelParams,
    dataset: Dataset,
    boundaries,
    n_samples: int,
    seed,
    tables: HTables | None = None,
    grid=None,
    bound_mode: str = "ub2",
    max_events: int = 1_000_000,
) -> Prediction:
    """Expected censored-block counts on a partition past the training data.

    For each sample, the observed dimensions are continued past the training
    horizon by conditional thinning; the censored-block count forecast for
    each interval is the compensator increment given that continuation, and
    samples are averaged.  Exploding continuations are dropped (with a
    warning once they exceed 1% of the requested samples).  The grid tables
    serve the thinning only; compensators are evaluated exactly.
    """
    e = params.e

    def increments(hist, bnds):
        ev = PoiEvaluator(params, list(hist.times))
        return np.diff(ev.values(bnds).Xi[:, :e], axis=0)

    return _forecast(
        params, dataset, boundaries, n_samples, seed, tables, grid,
        bound_mode, max_events, range(e, params.d), increments,
    )


def predict_counts_sampled(
    params: ModelParams,
    dataset: Dataset,
    boundaries,
    n_samples: int,
    seed,
    tables: HTables | None = None,
    grid=None,
    bound_mode: str = "ub2",
    max_events: int = 1_000_000,
) -> Prediction:
    """Reference forecast that samples the censored dimensions as events and
    averages realized interval counts (slower, higher variance; used to
    validate the compensator-based forecast)."""
    e = params.e

    def counts(hist, bnds):
        out = np.zeros((bnds.size - 1, e))
        for j in range(e):
            out[:, j] = np.histogram(hist.times[j], bnds)[0]
        return out

    return _forecast(
        params, dataset, boundaries, n_samples, seed, tables, grid,
        bound_mode, max_events, range(params.d), counts,
    )
