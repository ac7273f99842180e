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

Every step is expm(M dt) for the one generator M, so the steps of a scan
come from one set of powers of M: each interval's scaling-and-squaring Pade
approximant is a combination of those powers, evaluated for all intervals
at once (`_Expm`).

Gradients are vector-Jacobian products.  Given cotangents on xi and Xi, one
reverse (adjoint) pass gives the adjoint state at every knot.  The derivative
of each step's expm is then a Frechet derivative of expm(M dt) in a rank-one
direction, summed over intervals, whatever the parameter count.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .decay import build_source_decays
from .errors import DomainError, RegularityError
from .params import ModelParams, spectral_radius, validate_events_for
from .paramvec import n_free

_CHUNK = 256  # intervals per batch of (chunk, s, s) expm temporaries

# Pade [13/13] coefficients and the largest ||A||_1 at which the approximant
# meets unit roundoff backward error, for expm (Higham 2005) and for its
# Frechet derivative (Al-Mohy & Higham 2009)
_PADE13 = np.array([
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0,
    670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
    16380.0, 182.0, 1.0,
])
_THETA13 = 5.371920351148152
_ELL13 = 4.74


@dataclasses.dataclass
class PoiValues:
    """xi/Xi rows (m, d) at the query times t, with what the gradient reuses:
    the decay sums (count, esum, wsum) per observed source and the scan."""

    t: np.ndarray
    xi: np.ndarray
    Xi: np.ndarray
    sums: dict = dataclasses.field(default_factory=dict, repr=False)
    scan: "_Scan | None" = dataclasses.field(default=None, repr=False)


@dataclasses.dataclass
class _Scan:
    """Forward pass of a layout's linear state, kept for the adjoint.

    inv maps query rows to unique query times, qidx those to knots; E[n]
    steps the state from knot n to n+1; X[n] is the state just before knot
    n's jump and counts[n, k] the events of source e + k at knot n.
    """

    inv: np.ndarray
    qidx: np.ndarray
    dt: np.ndarray
    E: np.ndarray
    X: np.ndarray
    jumps: np.ndarray
    counts: np.ndarray


class _Expm:
    """expm(M dt_n) for one generator M and a stack of step lengths dt_n,
    and optionally the Frechet derivatives L(M dt_n, E_n) in a stack of
    directions E_n, by scaling and squaring with the [13/13] Pade
    approximant.

    The powers M^0 .. M^13 (of M / ||M||_1, so that none overflows) are
    computed once.  Each step gets its own squaring count from
    ||M||_1 dt_n, and its scaled approximant's U and V are combinations of
    those powers, so all steps are evaluated together, _CHUNK at a time.
    """

    # C[r, k] * a**k weighs power k of the scaled step in row r of
    # U, V and, for the Frechet derivative, W = U / A, W1 and Z1
    # (the names of Al-Mohy & Higham 2009, Algorithm 6.4)
    _C = np.zeros((5, 14))
    _C[0, 1::2] = _PADE13[1::2]
    _C[1, 0::2] = _PADE13[0::2]
    _C[2, 0::2] = _PADE13[1::2]
    _C[3, [2, 4, 6]] = _PADE13[[9, 11, 13]]
    _C[4, [2, 4, 6]] = _PADE13[[8, 10, 12]]

    def __init__(self, M: np.ndarray):
        # every layout has decay entries -theta != 0, so the norm is > 0
        self.norm = float(np.abs(M).sum(axis=0).max())
        P = np.empty((14,) + M.shape)
        P[0] = np.eye(M.shape[0])
        B = M / self.norm
        for k in range(1, 14):
            P[k] = P[k - 1] @ B
        self.P = P

    def __call__(self, dt, E=None):
        """The (n, s, s) stack expm(M dt_n), and with directions E of shape
        (n, s, s) also the stack of L(M dt_n, E_n)."""
        dt = np.asarray(dt, dtype=float)
        R = np.empty((dt.size,) + self.P.shape[1:])
        L = None if E is None else np.empty_like(R)
        for lo in range(0, dt.size, _CHUNK):
            c = slice(lo, lo + _CHUNK)
            if E is None:
                R[c] = self._chunk(dt[c])
            else:
                R[c], L[c] = self._chunk(dt[c], E[c])
        return R if E is None else (R, L)

    def _chunk(self, dt, E=None):
        P, b = self.P, _PADE13
        norm = self.norm * dt
        with np.errstate(divide="ignore"):
            sq = np.ceil(np.log2(norm / (_THETA13 if E is None else _ELL13)))
        sq = np.maximum(sq, 0.0)
        scale = 2.0 ** -sq
        a = norm * scale  # the scaled step is a * P[1]
        rows = 2 if E is None else 5
        coef = self._C[:rows, None, :] * a[None, :, None] ** np.arange(14)
        U, V, *rest = np.tensordot(coef, P, 1)
        Q = V - U
        # (V - U)^-1 (V + U) as I + 2 (V - U)^-1 U keeps exact the columns
        # that A leaves zero, such as the integrals', whose unit diagonal
        # would otherwise gain an error that doubles with every squaring
        R = 2.0 * np.linalg.solve(Q, U) + P[0]
        L = None
        if E is not None:
            W, W1, Z1 = rest
            a = a[:, None, None]
            Es = E * scale[:, None, None]
            M2 = a * (P[1] @ Es + Es @ P[1])
            M4 = a**2 * (P[2] @ M2 + M2 @ P[2])
            M6 = a**4 * (P[4] @ M2) + a**2 * (M4 @ P[2])
            Lw = (a**6 * (P[6] @ (b[13] * M6 + b[11] * M4 + b[9] * M2))
                  + M6 @ W1 + b[7] * M6 + b[5] * M4 + b[3] * M2)
            Lu = a * (P[1] @ Lw) + Es @ W
            Lv = (a**6 * (P[6] @ (b[12] * M6 + b[10] * M4 + b[8] * M2))
                  + M6 @ Z1 + b[6] * M6 + b[4] * M4 + b[2] * M2)
            L = np.linalg.solve(Q, Lu + Lv + (Lu - Lv) @ R)
        for k in range(int(sq.max(initial=0.0))):
            i = np.flatnonzero(sq > k)
            Ri = R[i]
            if L is not None:
                L[i] = Ri @ L[i] + L[i] @ Ri
            R[i] = Ri @ Ri
        return R if E is None else (R, L)


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
        self.expm = _Expm(M)
        self.R = R
        self.x0 = np.zeros(self.s)
        self.x0[self.Y] = c[:, :e] * p.gamma[:e]
        self.x0[-1] = 1.0
        # jump of the state per event of each observed source
        self.J = np.zeros((o, self.s))
        for k in range(o):
            self.J[k, self.W[:, k]] = c[:nw, e + k]


def _scan(lay: _Layout, events, t: np.ndarray) -> _Scan:
    """Step the linear state of `lay` from x0 at 0 through the events of the
    observed sources (`events` is indexed by absolute dimension; entries
    below e are ignored) to the query times t.  Events at or after the last
    query cannot affect any output and are left out."""
    d, e = lay.Y.shape
    tq, inv = np.unique(t, return_inverse=True)
    sources = [np.asarray(events[k], dtype=float) for k in range(e, d)]
    sources = [ts[ts < tq[-1]] for ts in sources]
    knots = np.unique(np.concatenate([[0.0], tq, *sources]))
    counts = np.zeros((knots.size, d - e))
    for k, ts in enumerate(sources):
        counts[np.searchsorted(knots, ts), k] = 1.0
    jumps = counts @ lay.J
    dt = np.diff(knots)
    E = lay.expm(dt)
    X = np.empty((knots.size, lay.s))
    x = lay.x0
    for n in range(dt.size):
        X[n] = x
        x = E[n] @ (x + jumps[n])
    X[-1] = x
    return _Scan(inv=inv, qidx=np.searchsorted(knots, tq), dt=dt, E=E,
                 X=X, jumps=jumps, counts=counts)


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
        d, e = params.d, params.e
        self.decays = build_source_decays(
            self.events, params.theta, sources=range(e, d)
        )
        self.layout = _Layout(params) if e > 0 else None

    def values(self, times) -> PoiValues:
        t = np.atleast_1d(np.asarray(times, dtype=float))
        if np.any(~np.isfinite(t)) or np.any(t < 0):
            raise DomainError("query times must be finite and >= 0")
        p = self.params
        a = np.zeros((t.size, p.d))
        A = np.zeros((t.size, p.d))
        sums = {}
        for src, sd in self.decays.items():
            cnt, esum, wsum = sd.query(t)
            sums[src] = (cnt, esum, wsum)
            a += (p.alpha[:, src] * p.theta[:, src])[None, :] * esum
            A += p.alpha[:, src][None, :] * (cnt[:, None] - esum)
        xi = p.nu[None, :] + a
        Xi = p.gamma[None, :] * (t > 0)[:, None] + p.nu[None, :] * t[:, None] + A
        scan = None
        if self.layout is not None and t.size:
            scan = _scan(self.layout, self.events, t)
            lay = self.layout
            rows = scan.X[scan.qidx[scan.inv]]
            xi += rows[:, lay.Y].sum(axis=2)
            Xi += rows[:, lay.I]
        return PoiValues(t=t, xi=xi, Xi=Xi, sums=sums, scan=scan)

    def vjp(self, vals: PoiValues, gxi, gXi, include_gamma: bool = False):
        """Gradient of sum(gxi * vals.xi + gXi * vals.Xi) with respect to the
        free parameters, in the canonical layout; gxi and gXi have the shape
        of vals.xi."""
        p = self.params
        d, e = p.d, p.e
        t = vals.t
        gxi = np.asarray(gxi, dtype=float)
        gXi = np.asarray(gXi, dtype=float)
        grad = np.zeros(n_free(d, include_gamma))
        g_alpha = grad[: d * d].reshape(d, d)
        g_theta = grad[d * d : 2 * d * d].reshape(d, d)
        g_nu = grad[2 * d * d : 2 * d * d + d]
        for src, (cnt, esum, wsum) in vals.sums.items():
            al, th = p.alpha[:, src], p.theta[:, src]
            g_alpha[:, src] += np.sum(
                gxi * th * esum + gXi * (cnt[:, None] - esum), axis=0
            )
            g_theta[:, src] += np.sum(
                al * (gxi * (esum - th * wsum) + gXi * wsum), axis=0
            )
        g_nu += gxi.sum(axis=0) + t @ gXi
        if include_gamma:
            grad[2 * d * d + d :] += (t > 0) @ gXi
        if vals.scan is None:
            return grad

        lay, sc = self.layout, vals.scan
        N, s = sc.X.shape
        # cotangents on the state at each knot, then the reverse pass
        g = np.zeros((N, s))
        rows = sc.qidx[sc.inv]
        np.add.at(g, (rows[:, None, None], lay.Y[None]), gxi[:, :, None])
        np.add.at(g, (rows[:, None], lay.I[None]), gXi)
        lam = np.empty((N, s))
        a = lam[-1] = g[-1]
        for n in range(N - 2, -1, -1):
            a = lam[n] = g[n] + sc.E[n].T @ a
        mu = lam - g  # adjoint of the state just after each knot's jump

        # G = sum_n L(M^T dt_n, lam_{n+1} x_n^T dt_n), the expm Frechet
        # adjoints, as transposes of L(M dt_n, x_n lam_{n+1}^T dt_n) so that
        # every derivative is of expm(M dt) and uses its powers of M
        G = np.zeros((s, s))
        for lo in range(0, N - 1, _CHUNK):
            n = np.arange(lo, min(N - 1, lo + _CHUNK))
            dirs = ((sc.X[n] + sc.jumps[n])[:, :, None]
                    * (lam[n + 1] * sc.dt[n, None])[:, None, :])
            G += lay.expm(sc.dt[n], dirs)[1].sum(axis=0)
        G = G.T

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
        # initial state y_ij(0) = alpha_ij theta_ij gamma_j
        lam_Y = lam[0, lay.Y]
        g_alpha[:, :e] += p.theta[:, :e] * p.gamma[:e] * lam_Y
        g_theta[:, :e] += p.alpha[:, :e] * p.gamma[:e] * lam_Y
        if include_gamma:
            grad[2 * d * d + d : 2 * d * d + d + e] += np.sum(c[:, :e] * lam_Y, axis=0)
        # event jumps alpha_jk theta_jk on w[j, k]
        S = np.einsum("njk,nk->jk", mu[:, lay.W], sc.counts)
        g_alpha[:e, e:] += p.theta[:e, e:] * S
        g_theta[:e, e:] += p.alpha[:e, e:] * S
        return grad
