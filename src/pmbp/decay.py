"""Stable prefix accumulators for exponentially decayed event sums.

The observed-source sums of the evaluator (`pmbp.poi`) reduce to sums of the
form sum_{t_k < u} f(u - t_k) over the events of one source dimension, with f
an exponential or a linearly weighted exponential.  Computing these naively
per query costs O(n) per point; the classic prefix trick with exp(+r t_k)
overflows for r*t beyond ~700.  The recursions below reference each prefix
to its own last event, so every stored term lies in [0, n] and queries cost
O(log n).
"""

from __future__ import annotations

import numpy as np


class SourceDecay:
    """Decayed prefix sums over one source dimension's sorted event times.

    Parameters
    ----------
    times : (n,) array
        Strictly increasing event times of the source dimension.
    rates : (d,) array
        One positive decay rate per target dimension.

    For each query time u and rate r the accessors return
        count(u)  = #{k : t_k < u}
        esum(u)   = sum_{t_k < u} exp(-r (u - t_k))
        wsum(u)   = sum_{t_k < u} (u - t_k) exp(-r (u - t_k))
    Events exactly at u are excluded, so an event never contributes to the
    intensity at its own timestamp.
    """

    def __init__(self, times: np.ndarray, rates: np.ndarray):
        times = np.asarray(times, dtype=float)
        rates = np.asarray(rates, dtype=float)
        if times.ndim != 1 or rates.ndim != 1:
            raise ValueError("times and rates must be one-dimensional")
        self.times = times
        self.rates = rates
        n, d = times.size, rates.size
        # B[i, k] = sum_{m <= k} exp(-r_i (t_k - t_m));  C is its (t_k - t_m)-
        # weighted counterpart.  Both stay bounded by n and n*max(dt) resp.
        # After the pass at stride s each column holds the terms of its last
        # 2s events, each pass decaying the block s events back by
        # a = exp(-r (t_k - t_{k-s})) <= 1 (log-depth doubling of the
        # recursion B_k = 1 + q_k B_{k-1}, C_k = q_k (C_{k-1} + dt_k B_{k-1})).
        self._B = np.ones((d, n))
        self._C = np.zeros((d, n))
        s = 1
        while s < n:
            gap = times[s:] - times[:-s]
            a = np.exp(-rates[:, None] * gap)
            self._C[:, s:] += a * (self._C[:, :-s] + gap * self._B[:, :-s])
            self._B[:, s:] += a * self._B[:, :-s]
            s *= 2

    def query(self, u: np.ndarray):
        """Return (count, esum, wsum) at query times u (any order).

        count : (m,) int, esum/wsum : (m, d).
        """
        u = np.atleast_1d(np.asarray(u, dtype=float))
        m, d = u.size, self.rates.size
        count = np.searchsorted(self.times, u, side="left")
        esum = np.zeros((m, d))
        wsum = np.zeros((m, d))
        mask = count > 0
        if np.any(mask):
            idx = count[mask] - 1
            gap = u[mask] - self.times[idx]
            fade = np.exp(-gap[:, None] * self.rates[None, :])
            B = self._B[:, idx].T
            esum[mask] = fade * B
            wsum[mask] = fade * (self._C[:, idx].T + gap[:, None] * B)
        return count, esum, wsum


def build_source_decays(events, theta: np.ndarray, sources):
    """One SourceDecay, with rates theta[:, j], per source dimension j in
    `sources` that has at least one event in the per-dimension time arrays
    `events`."""
    out = {}
    for j in sources:
        ts = np.asarray(events[j], dtype=float)
        if ts.size:
            out[j] = SourceDecay(ts, theta[:, j])
    return out
