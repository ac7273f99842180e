"""Exact evaluation of the expected intensity and compensator at any times.

With exponential kernels, the censored block's expected response given the
observed events solves a linear ODE that jumps only at observed events.  Its
state is

    y[i, j]  (j < e)           y_ij = phi_ij gamma_j + phi_ij * xi_j,
    w[j, k]  (j < e, k >= e)   w_jk(t) = sum_{t_m^k < t} phi_jk(t - t_m^k),
    I[i]                       int_0^t sum_j y_ij,
    1                          a constant that carries nu,

with dy_ij/dt = -theta_ij y_ij + alpha_ij theta_ij xi_j and
xi_j = nu_j + sum_k w_jk + sum_l y_jl for j < e.  Between knots (sorted query
and event times) the state moves by expm(M dt); an event of source k adds
alpha_jk theta_jk to w[:, k].  Then

    xi_i(t) = nu_i + a_i(t) + sum_j y_ij(t),
    Xi_i(t) = gamma_i 1{t>0} + nu_i t + A_i(t) + I_i(t),

where a/A are the observed-source sums from the decay accumulators.  With
e = 0 there is no scan and the evaluator is those sums alone: the intensity
and compensator of the plain multivariate Hawkes process (Ozaki 1979), so
`PoiEvaluator(params.replace(e=0), events)` evaluates the fully observed
process given every dimension's events.  The sampler (`pmbp.sampling`)
steps the same ODE on a wider state, with w[i, k] for every target i and
the integral of every xi_i, and runs `_scan` on it over the training
history.

M depends only on the parameters, so one scan serves any number of datasets
(the joint objective of `pmbp.likelihood`; a single dataset is the batch of
one).  Their knots are stacked on a batch axis, and the datasets with fewer
knots are padded at the end with dt = 0 steps.  Those steps are set to the
identity, not evaluated, and no query reads a padded knot.

An evaluation splits into a data side and parameter passes.  The data side
is a plan (`_plan`), built once for the query times of B datasets: the
stacked query rows, one decay stack of every observed source of every
dataset (`pmbp.decay._stack`) and the scan's knot grid (`_grid`: the step
lengths, the knot of every query row, the event counts and the real
steps).  The fit objective builds one plan per fit, and
`PoiEvaluator.values` one per call.  The parameter passes read it: the
decay sums (`_decay_values`), the scan (`_scan_values`: the steps, then one
loop over the knot axis on (B, s, 1) states) and the adjoint of both
(`_vjp`), whose scan part is one loop back.

Every step is expm(M dt) for the one generator M, so the steps of a scan
come from one set of powers of M: each interval's scaled step has norm at
most 1, and its Taylor polynomial is a combination of those powers,
evaluated for all intervals at once with no linear solve (`_Expm`).  The
intervals are taken in order of length, so each squaring is a slice.  The
sampler's Taylor table is the same powers.

The scan reaches dimension i only through alpha[i, :e].  Where that row is
zero, M's rows for y[i, :] hold only the decay -theta_ij on the diagonal,
and y_ij(0) = alpha_ij theta_ij gamma_j = 0.  Every power of M, and so every
step, keeps those rows diagonal, so y[i, :] and I[i] stay exactly 0.0, and
xi_i and Xi_i are exact from the decay sums alone (`_decay_values`).  The
objective scores these dimensions before it scans.

Gradients are vector-Jacobian products.  Given cotangents on xi and Xi, one
reverse (adjoint) pass gives the adjoint state at every knot of every
dataset.  The derivative of each step's expm is then a Frechet derivative of
expm(M dt) in a rank-one direction, summed over the real intervals of all
datasets in one call, whatever the parameter count.  The initial state is
shared, so its adjoint is the sum of the datasets' adjoints at knot 0.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from .decay import SourceDecay, _stack
from .errors import DomainError, RegularityError
from .params import ModelParams, spectral_radius, validate_events_for
from .paramvec import n_free

# intervals per batch of (chunk, s, s) expm temporaries: at most _CHUNK, and
# few enough that each temporary holds at most _CHUNK_FLOATS floats (1 MB),
# since wider batches of wide states leave the cache and run slower.  A batch
# of Frechet derivatives also holds three (chunk, s, K) factors, so it takes
# half as many
_CHUNK = 256
_CHUNK_FLOATS = 2**17
# degree of the Taylor polynomial of every scaled step A, ||A||_1 <= 1: the
# remainder of expm(A) is below 1/19! < 1e-17, and of its Frechet
# derivative below 1/18! < 1e-15 of the direction's norm
_TAYLOR_DEGREE = 18
_FACTORIALS = np.cumprod(np.r_[1.0, np.arange(1.0, _TAYLOR_DEGREE + 1)])
# _FRECHET[j, l] = 1 / (j + l + 1)! for j + l < _TAYLOR_DEGREE, else 0
_FRECHET = np.r_[1.0 / _FACTORIALS[1:], np.zeros(_TAYLOR_DEGREE - 1)][
    np.add.outer(np.arange(_TAYLOR_DEGREE), np.arange(_TAYLOR_DEGREE))]


@dataclasses.dataclass
class PoiValues:
    """xi/Xi rows (m, d) at the query times t of the plan, with what the
    gradient reuses: the plan, the decay sums (count, esum, wsum), one row
    block per observed source, and the scan."""

    xi: np.ndarray
    Xi: np.ndarray
    plan: "_Plan" = dataclasses.field(repr=False)
    sums: tuple = dataclasses.field(default=(), repr=False)
    scan: "_Scan | None" = dataclasses.field(default=None, repr=False)

    @property
    def t(self) -> np.ndarray:
        return self.plan.t


@dataclasses.dataclass
class _Grid:
    """The knots of B datasets on one batch axis: the data side of a scan.

    Dataset b fills knots 0 .. n_b - 1 of the knot axis; the shorter
    datasets are padded to the longest with dt = 0 steps, which no query
    reads.  The datasets' query rows, stacked in dataset order, read knot
    n of dataset b at flat row n * B + b of rows; dt[n, b] is the step from
    knot n to n+1, real marks the steps that are not padding, and
    counts[n, b, k] holds the events of source e + k at knot n.
    """

    rows: np.ndarray
    dt: np.ndarray
    real: np.ndarray
    counts: np.ndarray


@dataclasses.dataclass
class _Scan:
    """One forward pass of a layout's linear state over a grid, kept for
    the adjoint: E[n, b] steps dataset b's state from knot n to n+1 (the
    identity on padding), X[n, b] is the state just before knot n's jump
    and jumps[n, b] that jump."""

    grid: _Grid
    E: np.ndarray
    X: np.ndarray
    jumps: np.ndarray


class _Expm:
    """expm(M dt_n) for one generator M and a stack of step lengths dt_n,
    or the sum over n of the Frechet derivatives L(M dt_n, u_n v_n^T) in a
    stack of rank-one directions, by scaling and squaring with the Taylor
    polynomial of degree K = _TAYLOR_DEGREE.

    The powers P[k] = (M / ||M||_1)^k, k <= K, are computed once (none
    overflows).  Each step gets its own squaring count, the least sq_n with
    ||M||_1 dt_n 2^-sq_n <= 1, so its scaled step is a_n P[1] with a_n <= 1
    and its polynomial sum_k a_n^k / k! P[k] a combination of the shared
    powers: all steps are evaluated together, _CHUNK at a time, and no
    linear system is solved.  The polynomial's Frechet derivative in the
    direction u v^T is

        sum_{j + l < K} a^(j+l) / (j+l+1)! (P[j] u) (P[l]^T v)^T,

    an (s, K) by (K, K) by (K, s) product; each squaring R <- R R carries
    it as L <- R L + L R.
    """

    def __init__(self, M: np.ndarray):
        # every layout has decay entries -theta != 0, so the norm is > 0
        self.norm = float(np.abs(M).sum(axis=0).max())
        P = np.empty((_TAYLOR_DEGREE + 1,) + M.shape)
        P[0] = np.eye(M.shape[0])
        B = M / self.norm
        for k in range(1, _TAYLOR_DEGREE + 1):
            P[k] = P[k - 1] @ B
        self.P = P

    def __call__(self, dt, u=None, v=None):
        """The (n, s, s) stack expm(M dt_n), or with factors u and v of
        shape (n, s) the (s, s) sum over n of L(M dt_n, u_n v_n^T),
        accumulated chunk by chunk.

        The squaring count grows with dt, so the intervals are taken in
        order of length: in each chunk the intervals squared more than k
        times are a suffix, and each squaring is one slice."""
        dt = np.asarray(dt, dtype=float)
        s = self.P.shape[1]
        size = min(_CHUNK, max(1, _CHUNK_FLOATS // (s * s)))
        if u is not None:
            size = max(1, size // 2)
        order = np.argsort(dt, kind="stable")
        cuts = [order[lo : lo + size] for lo in range(0, dt.size, size)]
        if u is not None:
            return sum((self._chunk(dt[c], u[c], v[c]) for c in cuts),
                       np.zeros((s, s)))
        R = np.empty((dt.size, s, s))
        for c in cuts:
            R[c] = self._chunk(dt[c])
        return R

    def _chunk(self, dt, u=None, v=None):
        """One chunk of __call__, dt in increasing order: the steps, or the
        sum of their Frechet derivatives."""
        K, s = _TAYLOR_DEGREE, self.P.shape[1]
        norm = self.norm * dt
        with np.errstate(divide="ignore"):
            sq = np.maximum(np.ceil(np.log2(norm)), 0.0)
        scale = 2.0 ** -sq
        a = norm * scale  # the scaled step is a * P[1]
        pw = a[:, None] ** np.arange(K + 1)
        # the intervals squared more than k times start at first[k]; the
        # Frechet sum reads only the steps of those from lo on
        first = np.searchsorted(sq, np.arange(sq[-1]), side="right")
        lo = 0 if u is None else (first[0] if first.size else dt.size)
        # M leaves the integrals' columns zero, and so does every P[k],
        # k >= 1: those columns of R are exact unit columns, whose error
        # would otherwise double with every squaring
        R = ((pw[lo:] / _FACTORIALS) @ self.P.reshape(K + 1, -1)).reshape(-1, s, s)
        if u is None:
            for i in first:
                R[i:] = R[i:] @ R[i:]
            return R
        # U[i, n, j] = a^j (P[j] u)_i and V[i, n, l] = a^l (P[l]^T v)_i
        # times the direction's scaling 2^-sq, so L_n = U_n _FRECHET V_n^T
        # with U_n = U[:, n]
        Pj = self.P[:K]
        U = u @ Pj.transpose(1, 2, 0)
        V = v @ Pj.transpose(2, 1, 0)
        U *= pw[:, :K]
        V *= scale[:, None] * pw[:, :K]
        U = (U.reshape(-1, K) @ _FRECHET).reshape(s, -1, K)
        # the unsquared intervals need only the sum of their L, one
        # (s, nK) by (nK, s) product
        total = U[:, :lo].reshape(s, -1) @ V[:, :lo].reshape(s, -1).T
        if lo < dt.size:
            L = U[:, lo:].transpose(1, 0, 2) @ V[:, lo:].transpose(1, 2, 0)
            for i in first - lo:
                Ri, Li = R[i:], L[i:]
                L[i:] = Ri @ Li + Li @ Ri
                R[i:] = Ri @ Ri
            total += L.sum(axis=0)
        return total


class _Layout:
    """Index blocks of a linear state, its generator M and its event jumps.

    The scan (full=False) carries w[j, k] for the censored targets j < e and
    I[i] = int sum_j y_ij.  The sampler (full=True) carries w[i, k] for every
    target and I[i] = int xi_i, so that xi = R x exactly.

    Raises RegularityError when the censored block is not subcritical.
    """

    def __init__(self, p: ModelParams, full: bool = False):
        d, e = p.d, p.e
        if e > 0:
            rho_EE = spectral_radius(p.alpha[:e, :e])
            if rho_EE >= 1.0:
                raise RegularityError(
                    f"censored-block branching radius {rho_EE:.6g} >= 1; "
                    "the expected response diverges"
                )
        o = d - e
        nw = d if full else e
        self.Y = np.arange(d * e).reshape(d, e)
        self.W = d * e + np.arange(nw * o).reshape(nw, o)
        self.I = d * e + nw * o + np.arange(d)
        self.s = d * e + nw * o + d + 1
        c = p.alpha * p.theta
        # R[i] reads xi_i = nu_i + sum_k w_ik + sum_j y_ij off the state
        R = np.zeros((nw, self.s))
        R[:, -1] = p.nu[:nw]
        for i in range(nw):
            R[i, self.Y[i]] = 1.0
            R[i, self.W[i]] = 1.0
        M = np.zeros((self.s, self.s))
        for j in range(e):
            M[self.Y[:, j]] = c[:, j, None] * R[j]
        M[self.Y, self.Y] -= p.theta[:, :e]
        M[self.W, self.W] = -p.theta[:nw, e:]
        if full:
            M[self.I] = R
        else:
            for i in range(d):
                M[self.I[i], self.Y[i]] = 1.0
        self.M = M
        self.R = R
        self.x0 = np.zeros(self.s)
        self.x0[self.Y] = c[:, :e] * p.gamma[:e]
        self.x0[-1] = 1.0
        # jump of the state per event of each observed source
        self.J = np.zeros((o, self.s))
        for k in range(o):
            self.J[k, self.W[:, k]] = c[:nw, e + k]

    @functools.cached_property
    def expm(self) -> _Expm:
        """The steps' power table, built on first use: a caller that finds
        the observations impossible before scanning never builds it."""
        return _Expm(self.M)


@dataclasses.dataclass
class _Plan:
    """The data side of an evaluation at the query times of B datasets.

    t stacks the datasets' query times in dataset order; dataset b owns the
    rows cuts[b].  decay is the `pmbp.decay._stack` of every observed source
    of every dataset, source-major (source e + k of dataset b is entry
    k * B + b), each queried at its dataset's rows, or None at e = d; grid
    is the scan's, or None at e = 0 or with no query.
    """

    t: np.ndarray
    cuts: list
    decay: tuple | None
    grid: _Grid | None


def _plan(events, times, e: int) -> _Plan:
    """The plan of B datasets: events[b] holds dataset b's event times by
    absolute dimension (entries below e are ignored) and times[b] its query
    times, in any order."""
    d = len(events[0])
    t = np.concatenate(times)
    bounds = np.cumsum([0] + [tb.size for tb in times])
    cuts = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
    decay = None
    if e < d:
        decay = _stack([ev[j] for j in range(e, d) for ev in events],
                       list(times) * (d - e))
    grid = _grid(events, times, e) if e > 0 and t.size else None
    return _Plan(t=t, cuts=cuts, decay=decay, grid=grid)


def _grid(events, times, e: int) -> _Grid:
    """The knots of every dataset b: 0, its query times times[b] and the
    events of its observed sources (events[b] is indexed by absolute
    dimension; entries below e are ignored).  Events at or after a
    dataset's last query cannot affect any output and are left out."""
    B = len(events)
    knots, rows, hits = [], [], []
    for b, (ev, t) in enumerate(zip(events, times)):
        tq, inv = np.unique(t, return_inverse=True)
        sources = [np.asarray(ts, dtype=float) for ts in ev[e:]]
        sources = [ts[ts < tq[-1]] for ts in sources]
        kn = np.unique(np.concatenate([[0.0], tq, *sources]))
        knots.append(kn)
        rows.append(np.searchsorted(kn, tq)[inv] * B + b)
        hits.append([np.searchsorted(kn, ts) for ts in sources])
    N = max(kn.size for kn in knots)
    dt = np.zeros((N - 1, B))
    counts = np.zeros((N, B, len(hits[0])))
    for b, (kn, hit) in enumerate(zip(knots, hits)):
        dt[: kn.size - 1, b] = np.diff(kn)
        for k, pos in enumerate(hit):
            counts[pos, b, k] = 1.0
    # knots are distinct, so the padding steps are exactly those of zero
    # length
    return _Grid(rows=np.concatenate(rows), dt=dt, real=dt > 0,
                 counts=counts)


def _scan(lay: _Layout, grid: _Grid) -> _Scan:
    """Step the linear state of `lay` from x0 at 0 across the knots of
    every dataset of `grid` at once, jumping at the observed events."""
    dt, real = grid.dt, grid.real
    jumps = grid.counts @ lay.J
    # the padding steps are the identity, set here rather than evaluated
    if real.all():
        E = lay.expm(dt.ravel()).reshape(dt.shape + (lay.s, lay.s))
    else:
        E = np.empty(dt.shape + (lay.s, lay.s))
        E[~real] = np.eye(lay.s)
        E[real] = lay.expm(dt[real])
    # (B, s, 1) columns: each step is one batched matrix-vector product,
    # written into the next knot's rows
    N, B = grid.counts.shape[:2]
    X = np.empty((N, B, lay.s, 1))
    X[0] = lay.x0[:, None]
    for E_n, x, kick, nxt in zip(E, X, jumps[..., None], X[1:]):
        np.matmul(E_n, x + kick, out=nxt)
    return _Scan(grid=grid, E=E, X=X[..., 0], jumps=jumps)


def _decay_values(p: ModelParams, plan: _Plan) -> PoiValues:
    """xi and Xi at the plan's query rows from one decay pass over its
    stack: the whole evaluator at e = 0, and otherwise everything but the
    scan's part."""
    t, e = plan.t, p.e
    a = np.zeros((t.size, p.d))
    A = np.zeros((t.size, p.d))
    sums = ()
    if plan.decay is not None:
        times, gaps, located = plan.decay
        rates = np.repeat(p.theta[:, e:], len(plan.cuts), axis=1)
        cnt, esum, wsum = SourceDecay(times, rates, gaps)._sums(located)
        o = p.d - e
        sums = (cnt.reshape(o, t.size), esum.reshape(o, t.size, p.d),
                wsum.reshape(o, t.size, p.d))
    for src, (cnt, esum, wsum) in enumerate(zip(*sums), start=e):
        a += (p.alpha[:, src] * p.theta[:, src])[None, :] * esum
        A += p.alpha[:, src][None, :] * (cnt[:, None] - esum)
    xi = p.nu[None, :] + a
    Xi = p.gamma[None, :] * (t > 0)[:, None] + p.nu[None, :] * t[:, None] + A
    return PoiValues(xi=xi, Xi=Xi, plan=plan, sums=sums)


def _scan_values(lay: _Layout, vals: PoiValues) -> None:
    """One joint scan of the states of the datasets of vals' plan; adds its
    part of xi and Xi to vals in place and keeps the scan in vals.scan.  A
    dimension i whose row alpha[i, :e] is zero gets exactly 0.0."""
    grid = vals.plan.grid
    vals.scan = _scan(lay, grid)
    rows = vals.scan.X.reshape(-1, lay.s)[grid.rows]
    vals.xi += rows[:, lay.Y].sum(axis=2)
    vals.Xi += rows[:, lay.I]


def _vjp(p: ModelParams, lay: _Layout | None, vals: PoiValues, gxi, gXi,
         grad, include_gamma: bool) -> None:
    """Add to grad the gradient of sum(gxi * xi + gXi * Xi) over vals' rows.

    The decay sums, nu and gamma are summed over each dataset's rows in
    turn.  Then, if vals has a scan, one reverse pass over every dataset's
    knots, and one Frechet sum over all their real intervals."""
    d, e = p.d, p.e
    g_alpha = grad[: d * d].reshape(d, d)
    g_theta = grad[d * d : 2 * d * d].reshape(d, d)
    g_nu = grad[2 * d * d : 2 * d * d + d]
    t = vals.t
    parts = []  # (gradient column, its terms per row)
    for src, (cnt, esum, wsum) in enumerate(zip(*vals.sums), start=e):
        al, th = p.alpha[:, src], p.theta[:, src]
        parts.append((g_alpha[:, src],
                      gxi * th * esum + gXi * (cnt[:, None] - esum)))
        parts.append((g_theta[:, src],
                      al * (gxi * (esum - th * wsum) + gXi * wsum)))
    for rows in vals.plan.cuts:
        for g, terms in parts:
            g += np.sum(terms[rows], axis=0)
        g_nu += gxi[rows].sum(axis=0) + t[rows] @ gXi[rows]
        if include_gamma:
            grad[2 * d * d + d :] += (t[rows] > 0) @ gXi[rows]
    sc = vals.scan
    if sc is None:
        return
    grid = sc.grid
    N, B, s = sc.X.shape
    # cotangents on the state at each knot, then the reverse pass
    g = np.zeros((N * B, s))
    np.add.at(g, (grid.rows[:, None, None], lay.Y[None]), gxi[:, :, None])
    np.add.at(g, (grid.rows[:, None], lay.I[None]), gXi)
    g = g.reshape(N, B, s)
    # (B, 1, s) rows: each step back is one batched vector-matrix product,
    # summed into the previous knot's rows
    lam = np.empty((N, B, 1, s))
    g_rows = g[:, :, None]
    a = lam[-1] = g_rows[-1]
    for E_n, g_n, prev in zip(sc.E[::-1], g_rows[-2::-1], lam[-2::-1]):
        a = np.add(g_n, a @ E_n, out=prev)
    lam = lam[:, :, 0]
    mu = lam - g  # adjoint of the state just after each knot's jump

    # G = sum_n L(M^T dt_n, lam_{n+1} x_n^T dt_n), the expm Frechet
    # adjoints, as transposes of L(M dt_n, x_n lam_{n+1}^T dt_n) so that
    # every derivative is of expm(M dt) and uses its powers of M; padding
    # steps are left out
    real = grid.real
    u = (sc.X[:-1] + sc.jumps[:-1])[real]
    v = (lam[1:] * grid.dt[..., None])[real]
    G = lay.expm(grid.dt[real], u, v).T

    # generator entries
    R = np.zeros((d, e))
    for i in range(d):
        for j in range(e):
            r = lay.Y[i, j]
            R[i, j] = (
                G[r, lay.Y[j]].sum() + G[r, lay.W[j]].sum()
                + p.nu[j] * G[r, -1]
            )
    c = p.alpha * p.theta
    diag_Y = G[lay.Y, lay.Y]
    g_alpha[:, :e] += p.theta[:, :e] * R
    g_theta[:, :e] += p.alpha[:, :e] * R - diag_Y
    g_nu[:e] += np.sum(c[:, :e] * G[lay.Y, -1], axis=0)
    g_theta[:e, e:] -= G[lay.W, lay.W]
    # initial state y_ij(0) = alpha_ij theta_ij gamma_j, shared by every
    # dataset: its adjoint is the sum of theirs at knot 0
    lam_Y = lam[0].sum(axis=0)[lay.Y]
    g_alpha[:, :e] += p.theta[:, :e] * p.gamma[:e] * lam_Y
    g_theta[:, :e] += p.alpha[:, :e] * p.gamma[:e] * lam_Y
    if include_gamma:
        grad[2 * d * d + d : 2 * d * d + d + e] += np.sum(c[:, :e] * lam_Y, axis=0)
    # event jumps alpha_jk theta_jk on w[j, k]
    S = np.einsum("nbjk,nbk->jk", mu[:, :, lay.W], grid.counts)
    g_alpha[:e, e:] += p.theta[:e, e:] * S
    g_theta[:e, e:] += p.alpha[:e, e:] * S


class PoiEvaluator:
    """Evaluates xi(t), Xi(t) and gradients of functions of them, given the
    observed E^c events (censored-dimension entries are ignored).  At e = 0
    these are the Hawkes intensity (left limits: an event never counts at
    its own time) and compensator, including the impulse jump at zero.

    Raises RegularityError when the censored block is not subcritical.
    """

    def __init__(self, params: ModelParams, events):
        self.params = params
        self.events = validate_events_for(params, events)
        self.layout = _Layout(params) if params.e > 0 else None

    def values(self, times) -> PoiValues:
        t = np.atleast_1d(np.asarray(times, dtype=float))
        if np.any(~np.isfinite(t)) or np.any(t < 0):
            raise DomainError("query times must be finite and >= 0")
        vals = _decay_values(self.params, _plan([self.events], [t],
                                                self.params.e))
        if vals.plan.grid is not None:
            _scan_values(self.layout, vals)
        return vals

    def vjp(self, vals: PoiValues, gxi, gXi, include_gamma: bool = False):
        """Gradient of sum(gxi * vals.xi + gXi * vals.Xi) with respect to the
        free parameters, in the canonical layout; gxi and gXi have the shape
        of vals.xi."""
        p = self.params
        gxi = np.asarray(gxi, dtype=float)
        gXi = np.asarray(gXi, dtype=float)
        grad = np.zeros(n_free(p.d, include_gamma))
        _vjp(p, self.layout, vals, gxi, gXi, grad, include_gamma)
        return grad
