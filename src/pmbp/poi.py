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
lengths, the knot of every query row, the event counts, the real steps and
their schedule, grouped by length when the grid is built).  The fit
objective builds one plan per fit, and `PoiEvaluator.values` and the
sampler one per call.  The parameter passes read it: one forward pass
(`_values`: the decay sums, then the scan, its steps and one loop over the
knot axis) and one adjoint pass (`_vjp`: the decay sums' adjoint, then
one loop back).  Both run for P parameter points at once, with each
point's entries the same arithmetic as alone: the decay sums and their
adjoint on a leading points axis, and the scan and its reverse loop on (P,
B, s) states, one batched product per knot for every point and dataset.
Each point's steps, Frechet sum and generator entries are its own.  The
evaluator is the batch of one.

Every step is expm(M dt) for the one generator M, so the steps of a scan
come from one set of powers of M: each length's scaled step has norm at
most 1, and its Taylor polynomial is a combination of those powers,
evaluated for all lengths at once with no linear solve (`_Expm`).  Every
grid groups its steps by length when it is built, so each distinct length
is evaluated once and gathered into every interval of that length
(width-1 windows with no event share one), and the lengths are taken in
increasing order, so each squaring is a slice.  The sampler's
Taylor table is the same powers.

The scan reaches dimension i only through alpha[i, :e].  Where that row is
zero, M's rows for y[i, :] hold only the decay -theta_ij on the diagonal,
and y_ij(0) = alpha_ij theta_ij gamma_j = 0.  Every power of M, and so every
step, keeps those rows diagonal, so y[i, :] and I[i] stay exactly 0.0, and
xi_i and Xi_i are the decay sums alone, bitwise.  A dimension with nu_i = 0
and a zero row alpha[i, :] therefore has xi_i = 0 exactly, which the
objective reads off the parameters before any pass
(`pmbp.likelihood._Prepared.dead_end`).

Gradients are vector-Jacobian products.  Given cotangents on xi and Xi, one
reverse (adjoint) pass gives the adjoint state at every knot of every
dataset.  The derivative of each step's expm is then a Frechet derivative of
expm(M dt) in a rank-one direction, summed over the real intervals of all
datasets in one call, whatever the parameter count; the intervals of one
length have their derivatives summed before that length's squarings.  The
initial state is shared, so its adjoint is the sum of the datasets'
adjoints at knot 0.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from .decay import SourceDecay, _stack
from .errors import DomainError, RegularityError
from .params import ModelParams, _times, spectral_radius, validate_events_for
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
    block per observed source, and the scan.

    Inside the parameter passes the values are those of P points at once:
    xi and Xi are (P, m, d), and esum, wsum and the scan's states carry the
    same points axis.  `PoiEvaluator` evaluates the batch of one and returns
    that point's xi and Xi; the sums and the scan keep their points axis of
    one."""

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

    schedule groups the real steps by length (`_Schedule`), so that
    `_Expm` evaluates and squares each distinct length once.
    """

    rows: np.ndarray
    dt: np.ndarray
    real: np.ndarray
    counts: np.ndarray
    schedule: "_Schedule"


@dataclasses.dataclass
class _Scan:
    """One forward pass of the linear states of P points over a grid, on
    one (P, B) batch axis, kept for the adjoint: E[n, p, b] steps point p's
    state of dataset b from knot n to n+1 (the identity on padding), X[n,
    p, b] is that state just before knot n's jump and jumps[n, p, b] that
    jump."""

    grid: _Grid
    E: np.ndarray
    X: np.ndarray
    jumps: np.ndarray


class _Expm:
    """expm(M dt) for one generator M at increasing step lengths (`steps`:
    the distinct lengths of a grid's schedule, or the sampler's ladder), or
    the sum over the intervals n of a schedule of the Frechet derivatives
    L(M dt_n, u_n v_n^T) in a stack of rank-one directions (`frechet`), by
    scaling and squaring with the Taylor polynomial of degree K =
    _TAYLOR_DEGREE.

    The powers P[k] = (M / ||M||_1)^k, k <= K, are computed once (none
    overflows).  Each length gets its own squaring count, the least sq with
    ||M||_1 dt 2^-sq <= 1, so its scaled step is a P[1] with a <= 1 and its
    polynomial sum_k a^k / k! P[k] a combination of the shared powers: all
    lengths are evaluated together, _CHUNK at a time, and no linear system
    is solved.  The lengths are taken in increasing order, so in a chunk
    the lengths squared more than k times are a suffix and each squaring is
    one slice.  The polynomial's Frechet derivative in the direction u v^T
    is

        sum_{j + l < K} a^(j+l) / (j+l+1)! (P[j] u) (P[l]^T v)^T,

    an (s, K) by (K, K) by (K, s) product.  The derivative is linear in the
    direction, so the intervals of one length that is squared have their
    derivatives summed first; each squaring R <- R R then carries the sum
    as L <- R L + L R, once per distinct length.
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

    def _size(self) -> int:
        s = self.P.shape[1]
        return min(_CHUNK, max(1, _CHUNK_FLOATS // (s * s)))

    def steps(self, lengths, out) -> None:
        """Write expm(M dt) at increasing lengths into the (n, s, s) stack
        out, chunk by chunk."""
        size = self._size()
        for lo in range(0, lengths.size, size):
            sq, _, pw = self._scaled(lengths[lo : lo + size])
            R = self._polynomial(pw, out[lo : lo + size])
            for i in np.searchsorted(sq, np.arange(sq[-1]), side="right"):
                R[i:] = R[i:] @ R[i:]

    def frechet(self, sched: "_Schedule", u, v) -> np.ndarray:
        """The (s, s) sum over the intervals n of a schedule of L(M dt_n,
        u_n v_n^T), u and v in the schedule's interval order, accumulated
        over chunks of the intervals in order of length.  A chunk also
        holds three (chunk, s, K) factors, so it takes half as many."""
        s = self.P.shape[1]
        size = max(1, self._size() // 2)
        dt = sched.lengths[sched.index[sched.order]]
        total = np.zeros((s, s))
        for lo in range(0, dt.size, size):
            hi = lo + size
            c = sched.order[lo:hi]
            # the chunk's intervals of each length start at heads
            heads = sched.heads[np.searchsorted(sched.heads, lo, side="right")
                                : np.searchsorted(sched.heads, hi)] - lo
            total += self._frechet_chunk(dt[lo:hi], np.concatenate(([0], heads)),
                                         u[c], v[c])
        return total

    def _scaled(self, dt):
        """Squaring counts sq, scales 2^-sq and powers pw[n, k] = a_n^k, k <=
        K, of increasing lengths dt, each scaled step being a_n P[1]."""
        norm = self.norm * dt
        with np.errstate(divide="ignore"):
            sq = np.maximum(np.ceil(np.log2(norm)), 0.0)
        scale = 2.0 ** -sq
        pw = np.empty((_TAYLOR_DEGREE + 1, dt.size))
        pw[0] = 1.0
        pw[1:] = norm * scale
        # running products: a^k = a^(k-1) a
        return sq, scale, np.multiply.accumulate(pw, axis=0).T

    def _polynomial(self, pw, out=None) -> np.ndarray:
        """The Taylor polynomials sum_k pw[n, k] / k! P[k], in out when
        given.  M leaves the integrals' columns zero, and so does every
        P[k], k >= 1: those columns are exact unit columns, whose error
        would otherwise double with every squaring."""
        K, s = _TAYLOR_DEGREE, self.P.shape[1]
        if out is None:
            out = np.empty((len(pw), s, s))
        np.matmul(pw / _FACTORIALS, self.P.reshape(K + 1, -1),
                  out=out.reshape(len(pw), -1))
        return out

    def _frechet_chunk(self, dt, heads, u, v):
        """One chunk of frechet: dt increasing, and the intervals of each
        length starting at heads."""
        K, s = _TAYLOR_DEGREE, self.P.shape[1]
        sq, scale, pw = self._scaled(dt)
        # the intervals from lo on are squared at least once
        lo = np.searchsorted(sq, 0.0, side="right")
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
            # lo starts a length: one summed L and one R per length
            heads = heads[heads >= lo]
            L = U[:, lo:].transpose(1, 0, 2) @ V[:, lo:].transpose(1, 2, 0)
            if heads.size < L.shape[0]:
                L = np.add.reduceat(L, heads - lo, axis=0)
            R = self._polynomial(pw[heads])
            first = np.searchsorted(sq[heads], np.arange(sq[-1]), side="right")
            # the lengths squared more than k times start at first[k]; a
            # length's R is squared only while its L has a squaring left
            for k, i in enumerate(first):
                Ri, Li = R[i:], L[i:]
                L[i:] = Ri @ Li + Li @ Ri
                if k + 1 < first.size:
                    i = first[k + 1]
                    R[i:] = R[i:] @ R[i:]
            total += L.sum(axis=0)
        return total


@dataclasses.dataclass
class _Schedule:
    """Step lengths in the order _Expm takes them: lengths holds the
    distinct lengths in increasing order and index[n] the position in
    lengths of step n (for a grid, its real steps in the order of
    grid.dt[grid.real]); order lists the steps by increasing length
    (stably), and the steps of each length start at heads in that order."""

    lengths: np.ndarray
    index: np.ndarray
    order: np.ndarray
    heads: np.ndarray


def _schedule(dt) -> _Schedule:
    """The _Schedule of step lengths dt (1-D, any order)."""
    order = dt.argsort(kind="stable")
    ordered = dt[order]
    new = np.empty(dt.size, dtype=bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    heads = new.nonzero()[0]
    index = np.empty(dt.size, dtype=np.intp)
    index[order] = new.cumsum() - 1
    return _Schedule(lengths=ordered[heads], index=index, order=order,
                     heads=heads)


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
        sources = [ts[ts < tq[-1]] for ts in ev[e:]]
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
    real = dt > 0
    return _Grid(rows=np.concatenate(rows), dt=dt, real=real, counts=counts,
                 schedule=_schedule(dt[real]))


def _scan(lays, grid: _Grid) -> _Scan:
    """Step the linear states of the layouts lays (P points of one split)
    from x0 at 0 across the knots of every dataset of `grid`, all points
    and datasets at once, jumping at the observed events."""
    (N, B, _), P, s = grid.counts.shape, len(lays), lays[0].s
    sched = grid.schedule
    # each point's steps, one per distinct length after the identity (P[0])
    # that every padding step reads, set rather than evaluated, gathered
    # into the point's entry of the one step stack
    R = np.empty((sched.lengths.size + 1, s, s))
    R[0] = lays[0].expm.P[0]
    at = np.zeros(grid.real.shape, dtype=np.intp)
    at[grid.real] = sched.index + 1
    E = np.empty((N - 1, P, B, s, s))
    for p, lay in enumerate(lays):
        lay.expm.steps(sched.lengths, R[1:])
        np.take(R, at, axis=0, out=E[:, p], mode="clip")
    # at most one source jumps each entry, so every sum is exact
    jumps = grid.counts[:, None] @ np.array([lay.J for lay in lays])
    # (P B, s, 1) columns: each step is one batched matrix-vector product
    # over every point and dataset, written into the next knot's rows
    X = np.empty((N, P, B, s))
    X[0] = np.array([lay.x0 for lay in lays])[:, None]
    cols = X.reshape(N, P * B, s, 1)
    for E_n, x, kick, nxt in zip(E.reshape(N - 1, P * B, s, s), cols,
                                 jumps.reshape(N, P * B, s, 1), cols[1:]):
        np.matmul(E_n, x + kick, out=nxt)
    return _Scan(grid=grid, E=E, X=X, jumps=jumps)


def _stacked(ps) -> tuple:
    """(alpha, theta, nu, gamma) of a list of P points of one split, each
    with a leading points axis."""
    return tuple(np.array([getattr(p, k) for p in ps])
                 for k in ("alpha", "theta", "nu", "gamma"))


def _values(ps, lays, plan: _Plan) -> PoiValues:
    """xi and Xi (P, m, d) of P points of one split at the plan's m query
    rows (lays[p] is point p's layout, or None at e = 0): one decay pass
    over its stack, then, when the plan has a grid, one scan of every point
    over every dataset, kept in the values for the adjoint.  Each point's
    rows are the same arithmetic as its evaluation alone."""
    t, e, d = plan.t, ps[0].e, ps[0].d
    alpha, theta, nu, gamma = _stacked(ps)
    a = np.zeros((len(ps), t.size, d))
    A = np.zeros((len(ps), t.size, d))
    sums = ()
    if plan.decay is not None:
        times, gaps, located = plan.decay
        rates = np.repeat(theta[:, :, e:], len(plan.cuts), axis=2)
        cnt, esum, wsum = SourceDecay(times, rates, gaps)._sums(located)
        o = d - e
        shape = (len(ps), o, t.size, d)
        sums = (cnt.reshape(o, t.size), esum.reshape(shape),
                wsum.reshape(shape))
    for k, src in enumerate(range(e, d)):
        cnt, esum = sums[0][k], sums[1][:, k]
        a += (alpha[:, :, src] * theta[:, :, src])[:, None, :] * esum
        A += alpha[:, None, :, src] * (cnt[:, None] - esum)
    xi = nu[:, None, :] + a
    Xi = (gamma[:, None, :] * (t > 0)[:, None] + nu[:, None, :] * t[:, None]
          + A)
    scan = None
    if plan.grid is not None:
        scan = _scan(lays, plan.grid)
        rows = scan.X.swapaxes(0, 1).reshape(len(ps), -1, scan.X.shape[-1])
        rows = rows[:, plan.grid.rows]
        xi += rows[:, :, lays[0].Y].sum(axis=3)
        Xi += rows[:, :, lays[0].I]
    return PoiValues(xi=xi, Xi=Xi, plan=plan, sums=sums, scan=scan)


def _vjp(ps, lays, vals: PoiValues, pts, gxi, gXi, grad,
         include_gamma: bool) -> None:
    """Add to grad[i] the gradient of sum(gxi[i] * xi[q] + gXi[i] * Xi[q])
    over vals' rows, for the points ps at the positions q = pts[i] of vals'
    points axis (lays[i] is ps[i]'s layout, or None).

    The decay sums, nu and gamma are summed over each dataset's rows in
    turn, for all points at once.  Then, when vals has a scan, one reverse
    pass over every dataset's knots for every point of the scan (those not
    in pts carry zero cotangents), and for each point of pts one Frechet
    sum over all its real intervals."""
    d, e = ps[0].d, ps[0].e
    alpha, theta, _, _ = _stacked(ps)
    t = vals.t
    sums = vals.sums[:1] + tuple(x[pts] for x in vals.sums[1:])
    # the row terms of the alpha and theta columns of each observed source,
    # then those of nu's xi part, summed over each dataset at once
    terms = np.empty((2 * (d - e) + 1,) + gxi.shape)
    cols = (np.arange(e, d)[:, None, None] + np.array([0, d * d])[:, None]
            + d * np.arange(d)).ravel()
    for k, src in enumerate(range(e, d)):
        cnt, esum, wsum = sums[0][k], sums[1][:, k], sums[2][:, k]
        al, th = alpha[:, None, :, src], theta[:, None, :, src]
        np.add(gxi * th * esum, gXi * (cnt[:, None] - esum), out=terms[2 * k])
        np.multiply(al, gxi * (esum - th * wsum) + gXi * wsum,
                    out=terms[2 * k + 1])
    terms[-1] = gxi
    g_nu = grad[:, 2 * d * d : 2 * d * d + d]
    for rows in vals.plan.cuts:
        S = terms[:, :, rows].sum(axis=2)
        grad[:, cols] += S[:-1].transpose(1, 0, 2).reshape(len(ps), -1)
        g_nu += S[-1] + t[rows] @ gXi[:, rows]
        if include_gamma:
            grad[:, 2 * d * d + d :] += (t[rows] > 0) @ gXi[:, rows]
    sc = vals.scan
    if sc is None:
        return
    grid = sc.grid
    N, Q, B, s = sc.X.shape
    Y, W, I = lays[0].Y, lays[0].W, lays[0].I
    # cotangents on the states at each knot, on the scan's points axis
    g = np.zeros((N, Q, B, s))
    knot, b = np.divmod(grid.rows, B)
    at = (knot[:, None], np.asarray(pts)[:, None, None], b[:, None])
    np.add.at(g, (*(i[..., None] for i in at), Y), gxi[..., None])
    np.add.at(g, (*at, I), gXi)
    # (Q B, 1, s) rows: each step back is one batched vector-matrix
    # product, summed into the previous knot's rows
    lam = np.empty((N, Q * B, 1, s))
    g_rows = g.reshape(N, Q * B, 1, s)
    a = lam[-1] = g_rows[-1]
    for E_n, g_n, prev in zip(sc.E.reshape(N - 1, Q * B, s, s)[::-1],
                              g_rows[-2::-1], lam[-2::-1]):
        a = np.add(g_n, a @ E_n, out=prev)
    lam = lam.reshape(N, Q, B, s)
    mu = lam - g  # adjoint of the state just after each knot's jump
    # the states entering each real step and the adjoints of its end times
    # its length, (real steps, Q, s); padding steps are left out
    u = (sc.X[:-1] + sc.jumps[:-1]).swapaxes(1, 2)[grid.real]
    v = (lam[1:] * grid.dt[:, None, :, None]).swapaxes(1, 2)[grid.real]
    for p, lay, q, grad_p in zip(ps, lays, pts, grad):
        # G = sum_n L(M^T dt_n, lam_{n+1} x_n^T dt_n), the expm Frechet
        # adjoints, as transposes of L(M dt_n, x_n lam_{n+1}^T dt_n) so
        # that every derivative is of expm(M dt) and uses its powers of M
        G = lay.expm.frechet(grid.schedule, u[:, q], v[:, q]).T
        # the adjoint of c = alpha * theta: M's rows M[Y[:, j]] = c[:, j]
        # R[j], the initial state y_ij(0) = c_ij gamma_j shared by every
        # dataset (its adjoint is the sum of theirs at knot 0), and the
        # jumps c_jk on w[j, k] at the events of source k
        lam_Y = lam[0, q].sum(axis=0)[Y]
        dc = np.zeros((d, d))
        dc[:, :e] = np.einsum("ijs,js->ij", G[Y], lay.R) + p.gamma[:e] * lam_Y
        dc[:e, e:] = np.einsum("nbjk,nbk->jk", mu[:, q][..., W], grid.counts)
        g_alpha = grad_p[: d * d].reshape(d, d)
        g_theta = grad_p[d * d : 2 * d * d].reshape(d, d)
        # the decays -theta on M's diagonal, then c and nu_j in R[j]
        g_theta[:, :e] -= G[Y, Y]
        g_theta[:e, e:] -= G[W, W]
        g_alpha += p.theta * dc
        g_theta += p.alpha * dc
        c = p.alpha[:, :e] * p.theta[:, :e]
        grad_p[2 * d * d : 2 * d * d + e] += np.sum(c * G[Y, -1], axis=0)
        if include_gamma:
            grad_p[2 * d * d + d : 2 * d * d + d + e] += np.sum(c * lam_Y,
                                                                axis=0)


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
        # a scalar query is one time
        if np.isscalar(times) or getattr(times, "ndim", None) == 0:
            times = [times]
        t = _times(times, "query times", error=DomainError)
        vals = _values([self.params], [self.layout],
                       _plan([self.events], [t], self.params.e))
        # the batch of one: that point's xi and Xi, the rest as built
        vals.xi, vals.Xi = vals.xi[0], vals.Xi[0]
        return vals

    def vjp(self, vals: PoiValues, gxi, gXi, include_gamma: bool = False):
        """Gradient of sum(gxi * vals.xi + gXi * vals.Xi) with respect to the
        free parameters, in the canonical layout; gxi and gXi have the shape
        of vals.xi."""
        p = self.params
        gxi = np.asarray(gxi, dtype=float)
        gXi = np.asarray(gXi, dtype=float)
        grad = np.zeros((1, n_free(p.d, include_gamma)))
        _vjp([p], [self.layout], vals, [0], gxi[None], gXi[None], grad,
             include_gamma)
        return grad[0]
