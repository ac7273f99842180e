"""Closed-form expected intensity for the (d=2, e=1) exponential model.

With one censored dimension (index 1 in math notation) and one observed
dimension (index 2), the response series of the censored column sums to
simple exponentials:

    h11(t) = a11 t11 exp(-b t),            b = (1 - a11) t11,
    h21(t) = phi21(t) + (phi21 * h11)(t),

and every term of xi = nu + a + h gamma + h * (nu + a) is a finite mixture of
exponential "atoms" A exp(-c (t - t0)) anchored either at zero or at an
observed event.  This module assembles those atoms and their integrals.

Requires a11 < 1 (otherwise the series diverges) and non-coincident decay
rates where a difference appears in a denominator; the single coincidence
t21 == t12 is handled by a dedicated branch with t exp(-c t) atoms.
"""

from __future__ import annotations

import numpy as np

from pmbp.errors import DimensionError, ParameterError, RegularityError
from pmbp.params import ModelParams


def _close(x: float, y: float, tol: float = 1e-12) -> bool:
    return abs(x - y) <= tol * max(abs(x), abs(y), 1.0)


class _AtomSet:
    """Exponential atoms amp*exp(-rate*u) (kind 'e') and amp*u*exp(-rate*u)
    (kind 'u') for one target component, split by anchor."""

    def __init__(self):
        self.const = 0.0
        self.zero = []   # atoms anchored at t0 = 0, active for t >= 0
        self.event = []  # atoms anchored at each event, active for u > 0

    def add_zero(self, amp, rate, kind="e"):
        if amp != 0.0:
            self.zero.append((float(amp), float(rate), kind))

    def add_event(self, amp, rate, kind="e"):
        if amp != 0.0:
            self.event.append((float(amp), float(rate), kind))

    def value(self, t: np.ndarray, ev: np.ndarray) -> np.ndarray:
        out = np.full(t.shape, self.const)
        for amp, rate, kind in self.zero:
            base = amp * np.exp(-rate * t)
            out += base * t if kind == "u" else base
        if ev.size and self.event:
            u = t[:, None] - ev[None, :]
            live = u > 0
            u_pos = np.where(live, u, 0.0)
            for amp, rate, kind in self.event:
                term = amp * np.exp(-rate * u_pos)
                if kind == "u":
                    term = term * u_pos
                out += np.sum(np.where(live, term, 0.0), axis=1)
        return out

    def integral(self, t: np.ndarray, ev: np.ndarray) -> np.ndarray:
        out = self.const * t
        for amp, rate, kind in self.zero:
            out += _atom_integral(amp, rate, kind, t)
        if ev.size and self.event:
            u = t[:, None] - ev[None, :]
            u_pos = np.maximum(u, 0.0)
            for amp, rate, kind in self.event:
                out += np.sum(_atom_integral(amp, rate, kind, u_pos), axis=1)
        return out


def _atom_integral(amp, rate, kind, u):
    """int_0^u of the atom; u may be an array clipped at zero."""
    if kind == "u":
        return amp * (1.0 - (1.0 + rate * u) * np.exp(-rate * u)) / rate**2
    return amp * (1.0 - np.exp(-rate * u)) / rate


def _two_exp_conv(ampf, ratef, ampg, rateg):
    """Atoms of (f * g)(u) for f = ampf e^{-ratef u}, g = ampg e^{-rateg u}.

    Returns a list of (amp, rate, kind); uses the u e^{-ru} form when the
    rates coincide exactly.
    """
    if _close(ratef, rateg):
        return [(ampf * ampg, ratef, "u")]
    c = ampf * ampg / (ratef - rateg)
    return [(c, rateg, "e"), (-c, ratef, "e")]


def closed_form_pmbp21(params: ModelParams, events, times):
    """Expected intensity and compensator of the (2, 1) model at `times`.

    events : the observed dimension's event array (or a length-2 sequence
    whose second entry is used).  Returns (xi, Xi), each (m, 2).
    """
    if params.d != 2 or params.e != 1:
        raise DimensionError("closed form requires d = 2, e = 1")
    if isinstance(events, (list, tuple)) and len(events) == 2:
        ev = np.asarray(events[1], dtype=float)
    else:
        ev = np.asarray(events, dtype=float)
    t = np.atleast_1d(np.asarray(times, dtype=float))
    if np.any(t < 0):
        raise ParameterError("query times must be >= 0")

    a11, a12 = params.alpha[0]
    a21, a22 = params.alpha[1]
    t11, t12 = params.theta[0]
    t21, t22 = params.theta[1]
    g1 = params.gamma[0]
    n1, n2 = params.nu

    if a11 >= 1.0:
        raise RegularityError(f"a11={a11} >= 1: the censored block is not subcritical")
    b = (1.0 - a11) * t11
    if _close(t12, b):
        raise ParameterError(
            "degenerate rates: t12 coincides with (1 - a11) t11"
        )
    if _close(t21, b):
        raise ParameterError(
            "degenerate rates: t21 coincides with (1 - a11) t11"
        )
    atilde = a11 / (1.0 - a11)
    h11 = (a11 * t11, b)  # amplitude, rate

    xi1, xi2 = _AtomSet(), _AtomSet()

    # --- component 1: nu1 + a1 + h11 g1 + h11*(nu1 + a1)
    xi1.const = n1 / (1.0 - a11)
    xi1.add_zero(-n1 * atilde, b)
    xi1.add_zero(g1 * h11[0], h11[1])
    xi1.add_event(a12 * t12, t12)  # phi12 per event
    for amp, rate, kind in _two_exp_conv(h11[0], h11[1], a12 * t12, t12):
        xi1.add_event(amp, rate, kind)  # h11 * phi12 per event

    # --- component 2: nu2 + a2 + h21 g1 + h21*(nu1 + a1), h21 = phi21 + phi21*h11
    K = a21 * t21 * h11[0] / (t21 - b)  # phi21*h11 = K (e^{-bt} - e^{-t21 t})
    xi2.const = n2 + n1 * a21 / (1.0 - a11)
    # h21 gamma1
    xi2.add_zero(g1 * a21 * t21, t21)
    xi2.add_zero(g1 * K, b)
    xi2.add_zero(-g1 * K, t21)
    # h21 * nu1 (exponential parts; the constant part is in const above)
    xi2.add_zero(-n1 * a21, t21)
    xi2.add_zero(-n1 * K / b, b)
    xi2.add_zero(n1 * K / t21, t21)
    # a2 per event
    xi2.add_event(a22 * t22, t22)
    # phi21 * phi12 per event
    for amp, rate, kind in _two_exp_conv(a21 * t21, t21, a12 * t12, t12):
        xi2.add_event(amp, rate, kind)
    # phi21 * h11 * phi12 per event: convolve phi21 against each atom of
    # h11 * phi12.  Those atoms have rates b and t12; b is distinct from both
    # t21 and t12 by the degeneracy checks, and t21 == t12 falls into the
    # equal-rate branch of the inner convolution.
    for amp, rate, _ in _two_exp_conv(h11[0], h11[1], a12 * t12, t12):
        for amp2, rate2, kind2 in _two_exp_conv(a21 * t21, t21, amp, rate):
            xi2.add_event(amp2, rate2, kind2)

    xi = np.stack([xi1.value(t, ev), xi2.value(t, ev)], axis=1)
    Xi = np.stack([xi1.integral(t, ev), xi2.integral(t, ev)], axis=1)
    Xi = Xi + params.gamma[None, :] * (t > 0)[:, None]
    return xi, Xi
