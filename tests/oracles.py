"""Independent reference implementations used by the test suite.

Everything here is written the slow, obvious way (direct double loops, plain
Riemann convolutions, fixed-point iteration) so that agreement with the
package is meaningful.  Nothing in this module imports the package's
numerical internals beyond the parameter container, except
exact_width_moments, which starts from the exact forecast's own training
state and generators on purpose.  The reference sampler step
(scipy_continue) reads the generator, readouts and jumps of a layout that
the caller builds.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm


# ---------------------------------------------------------------------------
# Kernels


def kernel(alpha, theta, u):
    """Causal exponential kernel value, elementwise over u >= 0."""
    u = np.asarray(u, dtype=float)
    return np.where(u >= 0, alpha * theta * np.exp(-theta * np.maximum(u, 0)), 0.0)


def kernel_integral(alpha, theta, u):
    u = np.asarray(u, dtype=float)
    return np.where(u >= 0, alpha * (1.0 - np.exp(-theta * np.maximum(u, 0))), 0.0)


# ---------------------------------------------------------------------------
# Hawkes quantities by direct summation


def naive_intensity(params, events, t):
    """lambda(t) rows by looping over every event (O(n) per query)."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    d = params.d
    out = np.tile(np.asarray(params.nu, dtype=float), (t.size, 1))
    for q, tq in enumerate(t):
        for j in range(min(d, len(events))):
            for tk in np.asarray(events[j]):
                if tk < tq:
                    for i in range(d):
                        out[q, i] += kernel(
                            params.alpha[i, j], params.theta[i, j], tq - tk
                        )
    return out


def naive_compensator(params, events, t):
    t = np.atleast_1d(np.asarray(t, dtype=float))
    d = params.d
    out = np.zeros((t.size, d))
    for q, tq in enumerate(t):
        for i in range(d):
            out[q, i] = params.nu[i] * tq + (params.gamma[i] if tq > 0 else 0.0)
        for j in range(min(d, len(events))):
            for tk in np.asarray(events[j]):
                if tk < tq:
                    for i in range(d):
                        out[q, i] += kernel_integral(
                            params.alpha[i, j], params.theta[i, j], tq - tk
                        )
    return out


def broadcast_intensity_compensator(params, events, t):
    """lambda(t) and Lambda(t) rows by the same direct sums as
    naive_intensity/naive_compensator, with each source's (query x event)
    kernel terms formed in one broadcast so that long grids stay cheap."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    d = params.d
    lam = np.tile(np.asarray(params.nu, dtype=float), (t.size, 1))
    Lam = np.outer(t, params.nu) + np.where(t > 0, 1.0, 0.0)[:, None] * params.gamma
    for j in range(min(d, len(events))):
        u = t[:, None] - np.asarray(events[j], dtype=float)[None, :]
        before = u > 0
        for i in range(d):
            a, th = params.alpha[i, j], params.theta[i, j]
            lam[:, i] += np.sum(np.where(before, kernel(a, th, u), 0.0), axis=1)
            Lam[:, i] += np.sum(
                np.where(before, kernel_integral(a, th, u), 0.0), axis=1
            )
    return lam, Lam


def naive_pp_loglik(params, events, T):
    ll = 0.0
    lam_T = naive_compensator(params, events, np.array([T]))[0]
    for j in range(params.d):
        ts = np.asarray(events[j])
        if ts.size:
            lam = naive_intensity(params, events, ts)[:, j]
            ll += float(np.sum(np.log(lam)))
        ll -= float(lam_T[j])
    return ll


def mean_field_intensity(params, t):
    """xi(t) and Xi(t) rows of the fully censored (mean-field) process.

    Integrates dy_ij/dt = -theta_ij y_ij + alpha_ij theta_ij xi_j with
    xi = nu + sum_j y_ij from y_ij(0) = alpha_ij theta_ij gamma_j, together
    with I_i = int_0^t sum_j y_ij, by an adaptive Runge-Kutta method at tight
    tolerances; Xi_i = gamma_i 1{t>0} + nu_i t + I_i.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    d = params.d
    alpha, theta = np.asarray(params.alpha), np.asarray(params.theta)
    nu, gamma = np.asarray(params.nu), np.asarray(params.gamma)

    def rhs(_, z):
        y = z[: d * d].reshape(d, d)
        xi = nu + y.sum(axis=1)
        dy = -theta * y + alpha * theta * xi[None, :]
        return np.concatenate([dy.ravel(), y.sum(axis=1)])

    z0 = np.concatenate([(alpha * theta * gamma[None, :]).ravel(), np.zeros(d)])
    tq, inv = np.unique(t, return_inverse=True)
    sol = solve_ivp(rhs, (0.0, tq[-1]), z0, method="DOP853", t_eval=tq,
                    rtol=1e-13, atol=1e-15)
    z = sol.y.T[inv]
    xi = nu + z[:, : d * d].reshape(-1, d, d).sum(axis=2)
    Xi = np.where(t > 0, 1.0, 0.0)[:, None] * gamma + np.outer(t, nu) + z[:, d * d :]
    return xi, Xi


# ---------------------------------------------------------------------------
# Dense-grid convolution machinery (plain left-Riemann sums)


def riemann_conv(f, g, dt):
    """(f*g)[p] = sum_{r<p} f[r] g[p-r] dt (left rule), matrix-valued samples.

    f : (P+1, d, d); g : (P+1, d, d) or (P+1, d).
    """
    P1 = f.shape[0]
    # a vector sample is a one-column matrix
    col = g if g.ndim == 3 else g[..., None]
    out = np.zeros((P1, f.shape[1], col.shape[2]))
    # lag r for every p > r at once: out[p] += f[r] g[p - r] dt, added in
    # the order of the sum over r
    for r in range(P1 - 1):
        out[r + 1:] += f[r] @ col[1:P1 - r] * dt
    return out if g.ndim == 3 else out[..., 0]


def dense_h(params, t_grid):
    """Fixed-point iteration h = phi_E + phi_E (*) h on a dense grid.

    Independent of the package's quadrature: uses plain left-Riemann products.
    """
    dt = t_grid[1] - t_grid[0]
    d, e = params.d, params.e
    phiE = np.zeros((t_grid.size, d, d))
    for i in range(d):
        for j in range(e):
            phiE[:, i, j] = kernel(params.alpha[i, j], params.theta[i, j], t_grid)
    h = phiE.copy()
    for _ in range(500):
        h_new = phiE + riemann_conv(phiE, h, dt)
        delta = np.max(np.abs(h_new - h))
        h = h_new
        if delta < 1e-12:
            break
    return h

def dense_xi(params, events, t_grid):
    """Expected intensity via the fixed-point h and Riemann convolutions."""
    d = params.d
    dt = t_grid[1] - t_grid[0]
    h = dense_h(params, t_grid)
    a = np.zeros((t_grid.size, d))
    for j in range(params.e, d):
        for tk in np.asarray(events[j]):
            for i in range(d):
                vals = kernel(params.alpha[i, j], params.theta[i, j], t_grid - tk)
                vals[t_grid <= tk] = 0.0
                a[:, i] += vals
    s = np.asarray(params.nu)[None, :] + a
    conv = riemann_conv(h, s, dt)
    return s + h @ np.asarray(params.gamma) + conv


# ---------------------------------------------------------------------------
# Scalar special cases


def mbp11_response(alpha, theta, t):
    """Response series of the fully censored 1-d model: alpha theta
    exp(-(1-alpha) theta t)."""
    t = np.asarray(t, dtype=float)
    return alpha * theta * np.exp(-(1.0 - alpha) * theta * t)


def poisson_window_nll(counts, increments):
    """sum_k [Lambda_k - C_k log Lambda_k]."""
    counts = np.asarray(counts, dtype=float)
    inc = np.asarray(increments, dtype=float)
    return float(np.sum(inc - counts * np.log(inc)))


# ---------------------------------------------------------------------------
# Finite differences


def central_fd(fun, x, step=1e-6):
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        hi = x.copy()
        lo = x.copy()
        hi[i] += step
        lo[i] -= step
        g[i] = (fun(hi) - fun(lo)) / (2 * step)
    return g


def fourth_order_fd(fun, x, step=1e-4, lower=None):
    """Fourth-order finite-difference gradient of a scalar function: the
    five-point central stencil (-f(x+2h) + 8f(x+h) - 8f(x-h) + f(x-2h)) /
    12h, or, for an entry within 2h of its lower bound lower[i], the
    one-sided (-25f(x) + 48f(x+h) - 36f(x+2h) + 16f(x+3h) - 3f(x+4h)) /
    12h, which never steps below it."""
    x = np.asarray(x, dtype=float)
    if lower is None:
        lower = np.full(x.size, -np.inf)
    g = np.zeros_like(x)

    def at(i, k):
        y = x.copy()
        y[i] += k * step
        return fun(y)

    for i in range(x.size):
        if x[i] - 2 * step < lower[i]:
            g[i] = (-25 * fun(x) + 48 * at(i, 1) - 36 * at(i, 2)
                    + 16 * at(i, 3) - 3 * at(i, 4)) / (12 * step)
        else:
            g[i] = (-at(i, 2) + 8 * at(i, 1) - 8 * at(i, -1)
                    + at(i, -2)) / (12 * step)
    return g


# ---------------------------------------------------------------------------
# Matrix exponential derivatives


def van_loan_frechet_sum(M, dt, lam, x):
    """sum_n L(M^T dt_n, lam_n x_n^T dt_n): Frechet derivatives of expm summed
    over steps, each the upper right block of the block-triangular
    expm([[M^T dt, lam x^T dt], [0, M^T dt]]) (Van Loan 1978)."""
    s = M.shape[0]
    G = np.zeros((s, s))
    for n, h in enumerate(np.asarray(dt, dtype=float)):
        blk = np.zeros((2 * s, 2 * s))
        blk[:s, :s] = blk[s:, s:] = M.T * h
        blk[:s, s:] = np.outer(lam[n], x[n]) * h
        G += expm(blk)[:s, s:]
    return G


# ---------------------------------------------------------------------------
# Forecast moments


def kron_moment_step(A, F, w):
    """expm(G w) of the dense (s + s^2)-square block generator
    [[A, 0], [F, A (x) I + I (x) A]] on (m, vec C), with vec row-major, split
    into the mean block E and the tensor T[c] that maps m_c into C."""
    s = A.shape[0]
    eye = np.eye(s)
    G = np.zeros((s + s * s, s + s * s))
    G[:s, :s] = A
    G[s:, :s] = np.asarray(F).reshape(s, s * s).T
    G[s:, s:] = np.kron(A, eye) + np.kron(eye, A)
    X = expm(G * w)
    return X[:s, :s], X[s:, :s].T.reshape(s, s, s)


def exact_width_moments(params, dataset, boundaries):
    """The exact forecast's per-window mean and sd of the censored
    compensator increments, each window stepped at its own width by
    kron_moment_step, from the sampler's training state."""
    from pmbp.sampling import _moment_generators, _start

    lay, m, bnds = _start(params, dataset, boundaries, 1)
    A, F = _moment_generators(lay)
    C = np.zeros((lay.s, lay.s))
    out = lay.I[: params.e]
    mean, var = [], []
    widths = np.diff(np.concatenate([[dataset.T], bnds]))
    for n, w in enumerate(widths):
        if w > 0:
            E, T = kron_moment_step(A, F, w)
            C = E @ C @ E.T + np.tensordot(m, T, axes=1)
            m = E @ m
        if n > 0:
            mean.append(m[out])
            var.append(np.diag(C)[out])
        m[lay.I] = 0.0
        C[lay.I, :] = 0.0
        C[:, lay.I] = 0.0
    return np.array(mean), np.sqrt(np.maximum(var, 0.0))


# ---------------------------------------------------------------------------
# Sampler


def decay_prefix_loop(times, rates):
    """The decayed prefix sums of pmbp.decay.SourceDecay by their recursion,
    one event at a time: B[i, k] = sum_{m <= k} exp(-r_i (t_k - t_m)) and
    C[i, k] = sum_{m <= k} (t_k - t_m) exp(-r_i (t_k - t_m))."""
    times = np.asarray(times, dtype=float)
    rates = np.asarray(rates, dtype=float)
    n, d = times.size, rates.size
    B = np.empty((d, n))
    C = np.empty((d, n))
    if n:
        B[:, 0] = 1.0
        C[:, 0] = 0.0
        dts = np.diff(times)
        for k in range(1, n):
            q = np.exp(-rates * dts[k - 1])
            B[:, k] = 1.0 + q * B[:, k - 1]
            C[:, k] = q * (C[:, k - 1] + dts[k - 1] * B[:, k - 1])
    return B, C


_NEWTON_TOL = 1e-10
_NEWTON_MAX_ITER = 60


def scipy_invert(lay, x, span, target, comp, rate_row):
    """The tau in (0, span) at which the compensator x[comp].sum(), run
    forward from x by scipy.linalg.expm(M tau) x, reaches target, and the
    state there; Newton's method inside a bisection bracket."""
    from pmbp.errors import NumericalConsistencyError

    lo, hi = 0.0, span
    rate = rate_row @ x
    tau = target / rate if rate * span > target else 0.5 * span
    for _ in range(_NEWTON_MAX_ITER):
        xt = expm(lay.M * tau) @ x
        f = xt[comp].sum() - target
        if abs(f) <= _NEWTON_TOL:
            return tau, xt
        if f < 0:
            lo = tau
        else:
            hi = tau
        rate = rate_row @ xt
        step = tau - f / rate if rate > 0 else hi
        tau = step if lo < step < hi else 0.5 * (lo + hi)
    raise NumericalConsistencyError(
        f"compensator inversion left a residual of {f:.3g} after "
        f"{_NEWTON_MAX_ITER} iterations"
    )


def scipy_continue(lay, x, t, stops, sample_dims, rng, max_events):
    """The exact sampler's continuation from state x at time t to
    stops[-1], drawing the events of sample_dims (pmbp.sampling._continue
    with end = stops[-1] when they are the observed dimensions), with one
    scipy.linalg.expm per trial step: the state at each stop, then the
    inversion of the compensator whenever it passes the Exp(1) target.
    The unused part of the draw carries past each stop, so the stops do not
    change the events.  Returns the new event times per dimension and a
    (len(stops), d) array whose row n integrates xi from the previous stop
    (from t for n = 0) to stops[n]."""
    from pmbp.errors import ExplosionError

    d, e = lay.Y.shape
    active = np.asarray(sample_dims, dtype=int)
    comp = lay.I[active]
    rates = lay.R[active]
    rate_row = rates.sum(axis=0)
    new_times = [[] for _ in range(d)]
    integrals = np.zeros((len(stops), d))
    n_new = 0
    target = rng.exponential()
    for n, b in enumerate(stops):
        while True:
            xb = expm(lay.M * (b - t)) @ x
            if xb[comp].sum() <= target:
                break
            tau, x = scipy_invert(lay, x, b - t, target, comp, rate_row)
            t += tau
            lam = rates @ x
            k = int(np.searchsorted(np.cumsum(lam), rng.uniform() * lam.sum(),
                                    side="right"))
            j = int(active[min(k, active.size - 1)])
            new_times[j].append(t)
            n_new += 1
            if n_new > max_events:
                raise ExplosionError(
                    f"more than {max_events} events accepted before t={t:.4g}; "
                    "the configuration is likely supercritical"
                )
            integrals[n] += x[lay.I]
            x[lay.I] = 0.0
            if j >= e:
                x += lay.J[j - e]
            target = rng.exponential()
        target -= xb[comp].sum()
        integrals[n] += xb[lay.I]
        x = xb
        x[lay.I] = 0.0
        t = float(b)
    return new_times, integrals
