"""Independent reference implementations used by the test suite.

Everything here is written the slow, obvious way (direct double loops, plain
Riemann convolutions, fixed-point iteration) so that agreement with the
package is meaningful.  Nothing in this module imports the package's
numerical internals beyond the parameter container.
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
    shape = (P1, f.shape[1], g.shape[2]) if g.ndim == 3 else (P1, f.shape[1])
    out = np.zeros(shape)
    for p in range(P1):
        for r in range(p):
            out[p] += f[r] @ g[p - r] * dt
    return out


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
