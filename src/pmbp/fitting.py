"""Box-constrained maximum-likelihood fitting with multi-start.

The solver is an in-repo projected quasi-Newton routine on the objective's
exact analytic gradient: limited-memory curvature pairs give a search
direction, iterates are projected onto the parameter box, and a backtracking
Armijo line search guarantees monotone accepted steps.  Starting points are
one heuristic guess plus seeded log-uniform draws inside the box.  Candidate
parameter sets whose response series diverges, whose evaluation breaks down
numerically, or under which an observation is impossible (an event at zero
intensity, a counted window with no compensator mass) score +inf and are
simply rejected by the line search.

The starts run in lockstep.  The solver is a coroutine that yields each
point it needs; each round answers at once the pending points that the data
alone show impossible, then evaluates the other pending points of all
starts in one batched objective pass (`pmbp.likelihood._evaluate`).  Every
start takes exactly the steps it takes alone, so a fit's result does not
depend on which starts share a round.

Subcriticality is reported, not enforced: fitted kernels may be
supercritical, and the result carries a stability report for the caller to
inspect.
"""

from __future__ import annotations

import dataclasses
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import ConvergenceError, ParameterError
from .hawkes import sample_hawkes
from .likelihood import (
    LikelihoodConfig,
    _as_datasets,
    _evaluate,
    _Prepared,
)
from .params import (
    Dataset,
    ModelParams,
    RegularityReport,
    censor_series,
    check_subcriticality,
    spectral_radius,
)
from .paramvec import unpack


@dataclasses.dataclass(frozen=True)
class FitConfig:
    """Solver settings: box bounds per parameter family, multi-start count,
    iteration limit and objective tolerance, and the objective weights.

    nu_max defaults to 1000x the empirical mean rate of the data; gamma is a
    fixed hyperparameter unless include_gamma is set.
    """

    alpha_max: float = 5.0
    theta_min: float = 1e-3
    theta_max: float = 1e3
    nu_max: float | None = None
    gamma_max: float = 1e3
    n_starts: int = 8
    max_iter: int = 500
    tol_f: float = 1e-7
    seed: int = 0
    include_gamma: bool = False
    gamma: np.ndarray | None = None
    likelihood: LikelihoodConfig = dataclasses.field(default_factory=LikelihoodConfig)

    def __post_init__(self):
        if self.n_starts < 1:
            raise ParameterError("n_starts must be >= 1")
        if not (0 < self.theta_min <= self.theta_max):
            raise ParameterError("need 0 < theta_min <= theta_max")
        if self.alpha_max <= 0:
            raise ParameterError("alpha_max must be > 0")


@dataclasses.dataclass
class StartRecord:
    """Outcome of one optimization start.  pg_norm is the max-norm of the
    projected gradient max|x - clip(x - g, lb, ub)| at the returned point
    (NaN when no finite objective was reached)."""

    start_index: int
    x0: np.ndarray
    nll: float
    n_iter: int
    reason: str
    pg_norm: float

    @property
    def converged(self) -> bool:
        return self.reason in ("projected_gradient", "f_converged")

    def to_dict(self) -> dict:
        nll = float(self.nll)
        return {
            "start_index": self.start_index,
            "x0": [float(v) for v in self.x0],
            "nll": nll if np.isfinite(nll) else None,
            "n_iter": self.n_iter,
            "reason": self.reason,
            "converged": self.converged,
            "pg_norm": float(self.pg_norm) if np.isfinite(self.pg_norm) else None,
        }


@dataclasses.dataclass
class FitResult:
    """Best parameters, objective value, per-start outcomes, stability report,
    and wall time."""

    params: ModelParams
    nll: float
    converged: bool
    starts: tuple
    regularity: RegularityReport
    wall_time_s: float
    include_gamma: bool = False

    def to_dict(self, with_wall_time: bool = True) -> dict:
        out = {
            "params": self.params.to_dict(),
            "nll": float(self.nll),
            "converged": self.converged,
            "include_gamma": self.include_gamma,
            "starts": [s.to_dict() for s in self.starts],
            "regularity": self.regularity.to_dict(),
        }
        if with_wall_time:
            out["wall_time_s"] = self.wall_time_s
        return out


# ---------------------------------------------------------------------------
# Projected limited-memory quasi-Newton

_MEMORY = 8  # curvature pairs kept
_TOL_PG = 1e-5  # projected-gradient stopping threshold


def _two_loop(g: np.ndarray, pairs) -> np.ndarray:
    """Limited-memory inverse-Hessian application (two-loop recursion)."""
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * s.dot(q)
        alphas.append(a)
        q -= a * y
    if pairs:
        s, y, _ = pairs[-1]
        q *= s.dot(y) / y.dot(y)
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        b = rho * y.dot(q)
        q += (a - b) * s
    return q


def _minimize_box(x0, lb, ub, max_iter, tol_f):
    """Minimize over a box, as a coroutine: it yields each point x at which
    it needs the objective and is sent (f, g) there, f = inf where the
    objective is not finite.  Returns (x, f, n_iter, reason, pg_norm), the
    last the max-norm of the projected gradient at x."""
    x = np.clip(x0, lb, ub)
    fx, gx = yield x
    if not np.isfinite(fx):
        return x, np.inf, 0, "infeasible_start", np.nan
    pairs = []
    reason = "max_iter"
    it = 0
    for it in range(1, max_iter + 1):
        pg = x - np.clip(x - gx, lb, ub)
        if np.max(np.abs(pg)) <= _TOL_PG:
            reason = "projected_gradient"
            it -= 1
            break
        tried_steepest = False
        direction = -_two_loop(gx, pairs)
        if direction.dot(gx) >= 0:
            direction = -gx
            tried_steepest = True
        accepted = False
        while True:
            t = 1.0
            for _ in range(50):
                xn = np.clip(x + t * direction, lb, ub)
                delta = xn - x
                if not np.any(delta):
                    break
                fn, gn = yield xn
                if np.isfinite(fn) and fn <= fx + 1e-4 * gx.dot(delta):
                    accepted = True
                    break
                t *= 0.5
            if accepted or tried_steepest:
                break
            direction = -gx
            tried_steepest = True
        if not accepted:
            reason = "line_search_failure"
            break
        s = xn - x
        y = gn - gx
        sy = s.dot(y)
        if sy > 1e-10 * np.linalg.norm(s) * np.linalg.norm(y):
            pairs.append((s, y, 1.0 / sy))
            if len(pairs) > _MEMORY:
                pairs.pop(0)
        f_prev = fx
        x, fx, gx = xn, fn, gn
        if abs(f_prev - fx) <= tol_f * max(1.0, abs(fx)):
            reason = "f_converged"
            break
    pg_norm = float(np.max(np.abs(x - np.clip(x - gx, lb, ub))))
    return x, fx, it, reason, pg_norm


def _lockstep(objective, starts, lb, ub, max_iter, tol_f) -> list:
    """Run `_minimize_box` from every start together; returns each start's
    result, in start order.

    Each round first answers every pending point that the objective shows
    impossible from the data alone (`_Objective.dead_end`, read off the
    point vector) with +inf, which lets that start move on within the
    round, then builds the parameters of the remaining pending points, one
    per start, and evaluates them in one batch.  A start's points and
    answers are those of its run alone."""
    runs = [_minimize_box(x0, lb, ub, max_iter, tol_f) for x0 in starts]
    ends = [None] * len(runs)
    pending = {k: next(run) for k, run in enumerate(runs)}

    def answer(k, fg):
        try:
            pending[k] = runs[k].send(fg)
        except StopIteration as stop:
            ends[k] = stop.value
            del pending[k]

    while pending:
        batch = {}
        for k in list(pending):
            while k in pending:
                if not objective.dead_end(pending[k]):
                    batch[k] = objective.params(pending[k])
                    break
                answer(k, (np.inf, None))
        for k, fg in zip(batch, objective.batch(list(batch.values()))):
            answer(k, fg)
    return ends


# ---------------------------------------------------------------------------
# Objective plumbing


def fd_gradient(f, x: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central finite-difference gradient of a scalar function of a vector."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        hi = x.copy()
        lo = x.copy()
        hi[i] += step
        lo[i] -= step
        g[i] = (f(hi) - f(lo)) / (2 * step)
    return g


class _Objective:
    """The fit objective over points x of the free parameters, on data
    prepared once: (f, g) at each point, and (inf, None) where the
    parameters make an observation impossible, the censored block is not
    subcritical or the evaluation breaks down numerically."""

    def __init__(self, template: ModelParams, datasets, cfg: FitConfig):
        self.template = template
        self.include_gamma = cfg.include_gamma
        self.config = cfg.likelihood
        self.prep = _Prepared(datasets)
        self.weights = cfg.likelihood.dim_weights(template.d)

    def params(self, x) -> ModelParams:
        return unpack(self.template, x, self.include_gamma)

    def dead_end(self, x) -> bool:
        """Whether the data alone make the point x impossible
        (`likelihood._Prepared.dead_end`), read off x's slices."""
        d = self.template.d
        nu = x[2 * d * d : 2 * d * d + d]
        # a dead dimension has nu_i = 0
        if nu.all():
            return False
        gamma = x[2 * d * d + d :] if self.include_gamma else self.template.gamma
        return bool(self.prep.dead_end(self.weights, nu,
                                       x[: d * d].reshape(d, d), gamma))

    def batch(self, ps) -> list:
        """(f, g) at each of the points ps (ModelParams), in one pass."""
        out = _evaluate(ps, self.prep, self.config, True, self.include_gamma)
        return [(np.inf, None) if isinstance(res, Exception)
                or not np.isfinite(res[0]) else res for res in out]

    def __call__(self, x):
        """(f, g) at one point x."""
        return self.batch([self.params(x)])[0]


def _empirical_rates(datasets) -> np.ndarray:
    d = datasets[0].d
    e = datasets[0].e
    counts = np.zeros(d)
    total_T = sum(ds.T for ds in datasets)
    for ds in datasets:
        for j, series in enumerate(ds.censored):
            counts[j] += series.total()
        for jj, ts in enumerate(ds.events):
            counts[e + jj] += len(ts)
    return counts / max(total_T, 1e-12)


def _bounds(cfg: FitConfig, d: int, emp_rate: np.ndarray):
    nu_max = cfg.nu_max
    if nu_max is None:
        nu_max = 1e3 * max(float(emp_rate.max()), 1e-3)
    lb = np.concatenate(
        [
            np.zeros(d * d),
            np.full(d * d, cfg.theta_min),
            np.zeros(d),
        ]
    )
    ub = np.concatenate(
        [
            np.full(d * d, cfg.alpha_max),
            np.full(d * d, cfg.theta_max),
            np.full(d, nu_max),
        ]
    )
    if cfg.include_gamma:
        lb = np.concatenate([lb, np.zeros(d)])
        ub = np.concatenate([ub, np.full(d, cfg.gamma_max)])
    return lb, ub


def _tame_censored_block(alpha: np.ndarray, e: int) -> np.ndarray:
    """Scale a start's jump matrix so the censored block is safely subcritical."""
    if e == 0:
        return alpha
    rho = spectral_radius(alpha[:e, :e])
    if rho >= 0.9:
        alpha = alpha * (0.85 / rho)
    return alpha


def _starts(cfg: FitConfig, d: int, e: int, emp_rate: np.ndarray, lb, ub):
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    nu0 = np.maximum(emp_rate, 1e-3)
    alpha0 = _tame_censored_block(np.full((d, d), 0.5), e)
    first = [alpha0.ravel(), np.ones(d * d), nu0]
    if cfg.include_gamma:
        first.append(np.full(d, 0.1))
    starts = [np.concatenate(first)]
    n_a = d * d
    for _ in range(cfg.n_starts - 1):
        a_lo, a_hi = 1e-2, max(min(2.0, cfg.alpha_max), 2e-2)
        alpha = np.exp(rng.uniform(np.log(a_lo), np.log(a_hi), size=(d, d)))
        alpha = _tame_censored_block(np.clip(alpha, lb[:n_a].reshape(d, d),
                                             ub[:n_a].reshape(d, d)), e)
        t_lo = max(cfg.theta_min, 1e-2)
        t_hi = min(cfg.theta_max, 1e2)
        theta = np.exp(rng.uniform(np.log(t_lo), np.log(t_hi), size=d * d))
        nu = nu0 * np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=d))
        parts = [alpha.ravel(), theta, nu]
        if cfg.include_gamma:
            parts.append(np.exp(rng.uniform(np.log(1e-2), np.log(1.0), size=d)))
        starts.append(np.clip(np.concatenate(parts), lb, ub))
    return starts


def fit(datasets, cfg: FitConfig | None = None) -> FitResult:
    """Maximum-likelihood fit over one or more datasets with a shared split.

    The objective is evaluated exactly (no discretization).  Returns the best
    start's parameters; raises ConvergenceError if every start failed to
    produce a finite objective.
    """
    t_start = time.perf_counter()
    datasets = _as_datasets(datasets)
    cfg = cfg or FitConfig()
    d, e = datasets[0].d, datasets[0].e
    for ds in datasets:
        if ds.d != d or ds.e != e:
            raise ParameterError("all datasets must share the same (d, e) split")
    gamma_fixed = np.zeros(d) if cfg.gamma is None else np.asarray(cfg.gamma, float)
    template = ModelParams(
        d=d, e=e, theta=np.ones((d, d)), alpha=np.zeros((d, d)),
        gamma=gamma_fixed, nu=np.ones(d),
    )
    emp = _empirical_rates(datasets)
    lb, ub = _bounds(cfg, d, emp)
    starts = _starts(cfg, d, e, emp, lb, ub)
    ends = _lockstep(_Objective(template, datasets, cfg), starts, lb, ub,
                     cfg.max_iter, cfg.tol_f)
    records = []
    best = None
    for k, (x0, end) in enumerate(zip(starts, ends)):
        x, fx, n_iter, reason, pg_norm = end
        records.append(StartRecord(k, x0, fx, n_iter, reason, pg_norm))
        if np.isfinite(fx) and (best is None or fx < best[1]):
            best = (x, fx, k)
    if best is None:
        reasons = ", ".join(f"start {r.start_index}: {r.reason}" for r in records)
        raise ConvergenceError(f"all optimization starts failed ({reasons})")
    params = unpack(template, best[0], cfg.include_gamma)
    return FitResult(
        params=params,
        nll=best[1],
        converged=records[best[2]].converged,
        starts=tuple(records),
        regularity=check_subcriticality(params),
        wall_time_s=time.perf_counter() - t_start,
        include_gamma=cfg.include_gamma,
    )


# ---------------------------------------------------------------------------
# Parameter-recovery experiment


def _param_names(d: int) -> list:
    names = [f"alpha_{i + 1}{j + 1}" for i in range(d) for j in range(d)]
    names += [f"theta_{i + 1}{j + 1}" for i in range(d) for j in range(d)]
    names += [f"nu_{i + 1}" for i in range(d)]
    names.append("rho_alpha")
    return names


def _param_values(params: ModelParams) -> list:
    vals = list(params.alpha.ravel()) + list(params.theta.ravel())
    vals += list(params.nu)
    vals.append(spectral_radius(params.alpha))
    return [float(v) for v in vals]


def recovery_experiment(
    true_params: ModelParams,
    n_sequences: int,
    group_size: int,
    censor_widths,
    seed: int,
    T: float = 60.0,
    fit_config: FitConfig | None = None,
    n_jobs: int = 1,
):
    """Simulate, group, and refit: how well do joint fits recover the truth?

    Draws n_sequences event realizations from the true parameters, partitions
    them into groups of group_size, and fits each group jointly (a) on the
    full event data and (b) with dimension 1 reduced to interval counts at
    each censor width.  Returns (rows, summary): per-group estimates of every
    parameter plus the jump-matrix spectral radius, and mean/median/IQR per
    (parameter, likelihood mode).

    Group fits are independent; n_jobs > 1 runs them on a thread pool.  Every
    fit owns a seed derived from its (mode, group) slot and results are
    assembled in task order, so the output is identical for any n_jobs.
    """
    if not check_subcriticality(true_params).subcritical:
        raise ParameterError("recovery requires subcritical true parameters")
    if n_sequences < 1 or group_size < 1:
        raise ParameterError("n_sequences and group_size must be >= 1")
    if n_jobs < 1:
        raise ParameterError("n_jobs must be >= 1")
    n_groups = n_sequences // group_size
    if n_groups < 1:
        raise ParameterError("group_size exceeds n_sequences")
    d = true_params.d
    base_cfg = fit_config or FitConfig(n_starts=2, max_iter=250, tol_f=1e-6)
    seqs = []
    children = np.random.SeedSequence(seed).spawn(n_sequences)
    for child in children:
        seqs.append(sample_hawkes(true_params, T, child))
    names = _param_names(d)
    true_vals = _param_values(true_params)

    tasks = []  # (mode, group_index, datasets, config)
    for gi in range(n_groups):
        group = seqs[gi * group_size : (gi + 1) * group_size]
        pp_data = [
            Dataset(T=T, censored=(), events=tuple(h.times)) for h in group
        ]
        cfg_pp = dataclasses.replace(base_cfg, seed=base_cfg.seed + 1000 + gi)
        tasks.append(("PP-PP", gi, pp_data, cfg_pp))
        for wi, w in enumerate(censor_widths):
            ic_data = [
                Dataset(
                    T=T,
                    censored=(censor_series(h.times[0], w, T),),
                    events=tuple(h.times[1:]),
                )
                for h in group
            ]
            cfg_ic = dataclasses.replace(
                base_cfg, seed=base_cfg.seed + 2000 + 1000 * wi + gi
            )
            tasks.append((f"IC-PP[{w:g}]", gi, ic_data, cfg_ic))

    def run(task):
        _, _, data, cfg = task
        return fit(data, cfg).params

    if n_jobs == 1:
        fitted = [run(t) for t in tasks]
    else:
        with ThreadPoolExecutor(max_workers=n_jobs) as pool:
            fitted = list(pool.map(run, tasks))

    rows = []
    estimates = {}
    for (mode, gi, _, _), params_hat in zip(tasks, fitted):
        vals = _param_values(params_hat)
        for name, tv, est in zip(names, true_vals, vals):
            rows.append(
                {
                    "param_name": name,
                    "true_value": tv,
                    "likelihood_mode": mode,
                    "group_index": gi,
                    "estimate": est,
                }
            )
            estimates.setdefault((name, mode), []).append(est)

    summary = []
    for (name, mode), vals in estimates.items():
        arr = np.asarray(vals)
        q25, q75 = np.percentile(arr, [25, 75])
        summary.append(
            {
                "param_name": name,
                "likelihood_mode": mode,
                "mean": float(arr.mean()),
                "median": float(np.median(arr)),
                "iqr": float(q75 - q25),
            }
        )
    return rows, summary
