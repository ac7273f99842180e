"""Stable prefix accumulators for exponentially decayed event sums.

The observed-source sums of the evaluator (`pmbp.poi`) reduce to sums of the
form sum_{t_k < u} f(u - t_k) over the events of one source dimension, with f
an exponential or a linearly weighted exponential.  Computing these naively
per query costs O(n) per point; the classic prefix trick with exp(+r t_k)
overflows for r*t beyond ~700.  The recursions below reference each prefix
to its own last event, so every stored term lies in [0, n] and queries cost
O(log n).

Each sum splits into a data side, fixed by the event and query times, and a
rate side.  The data side (`_stack`) is built once for a stack of sources,
padded to one length: the stride gaps of the doubling pass and, per query,
the count of earlier events and the gap to the last of them.  The rate side
is every exp(-r gap) and the products with it: `SourceDecay` builds the
prefix sums from the gaps, and `SourceDecay._sums` reads them at the
located queries.  An evaluation plan (`pmbp.poi._plan`) holds the data side
of every observed source of every dataset it evaluates.  The rate side may
carry leading axes, one per parameter point of a batch: rates (P, d, S)
give sums (P, ...), and every entry is the same arithmetic as for that
point's (d, S) rates alone.
"""

from __future__ import annotations

import numpy as np


def _stride_gaps(times: np.ndarray) -> list:
    """The gaps t_k - t_{k-s} along the last axis of times, for the
    doubling pass's strides s = 1, 2, 4, ... < n."""
    gaps, s = [], 1
    while s < times.shape[-1]:
        gaps.append(times[..., s:] - times[..., :-s])
        s *= 2
    return gaps


def _stack(sources, queries):
    """The data side of a stack of S sources, sources[k] queried at
    queries[k] (any order): their event times as one (S, n) array, each
    padded at the end with its last time (padding gives finite sums that no
    query reads), its stride gaps, and the located queries of every source,
    concatenated.  A query u of source k is located by count(u) =
    #{t_k < u}, whether count > 0 and, where it is, the flat index of the
    last event before u and the gap to it (index k * n and gap 0 where it is
    not), and k."""
    n = max((ts.size for ts in sources), default=0)
    times = np.zeros((len(sources), n))
    located = []
    for k, (ts, u) in enumerate(zip(sources, queries)):
        times[k, : ts.size] = ts
        times[k, ts.size :] = ts[-1] if ts.size else 0.0
        count = np.searchsorted(ts, u, side="left")
        seen = count > 0
        last = np.maximum(count - 1, 0)
        gap = np.zeros(u.size)
        gap[seen] = u[seen] - ts[last[seen]]
        located.append((count, seen, k * n + last, gap, np.full(u.size, k)))
    located = tuple(np.concatenate(f) for f in zip(*located))
    return times, _stride_gaps(times), located


class SourceDecay:
    """Decayed prefix sums over a stack of S sources' sorted event times.

    Parameters
    ----------
    times : (S, n) array
        Strictly increasing event times of each source, padded as by
        `_stack`.
    rates : (..., d, S) array
        One positive decay rate per target dimension and source, with any
        leading axes (one per parameter point of a batch).
    gaps : list, optional
        `_stride_gaps(times)`, when the caller has it already.

    For each query time u and rate r the sums are
        count(u)  = #{k : t_k < u}
        esum(u)   = sum_{t_k < u} exp(-r (u - t_k))
        wsum(u)   = sum_{t_k < u} (u - t_k) exp(-r (u - t_k))
    Events exactly at u are excluded, so an event never contributes to the
    intensity at its own timestamp.
    """

    def __init__(self, times: np.ndarray, rates: np.ndarray, gaps=None):
        times = np.asarray(times, dtype=float)
        rates = np.asarray(rates, dtype=float)
        if times.ndim != 2 or rates.ndim < 2:
            raise ValueError("need times (S, n) and rates (..., d, S)")
        self.times = times
        self.rates = rates
        # B[i, k] = sum_{m <= k} exp(-r_i (t_k - t_m));  C is its (t_k - t_m)-
        # weighted counterpart.  Both stay bounded by n and n*max(dt) resp.
        # After the pass at stride s each column holds the terms of its last
        # 2s events, each pass decaying the block s events back by
        # a = exp(-r (t_k - t_{k-s})) <= 1 (log-depth doubling of the
        # recursion B_k = 1 + q_k B_{k-1}, C_k = q_k (C_{k-1} + dt_k B_{k-1})).
        # The factors of every stride come from one exp over all the gaps.
        self._B = np.ones(rates.shape + times.shape[-1:])
        self._C = np.zeros(self._B.shape)
        gaps = _stride_gaps(times) if gaps is None else gaps
        if gaps:
            fades = np.exp(-rates[..., None] * np.concatenate(gaps, axis=-1))
        s, lo = 1, 0
        for gap in gaps:
            a = fades[..., lo : lo + gap.shape[-1]]
            lo += gap.shape[-1]
            self._C[..., s:] += a * (self._C[..., :-s] + gap * self._B[..., :-s])
            self._B[..., s:] += a * self._B[..., :-s]
            s *= 2

    def _sums(self, located):
        """(count, esum, wsum) at the queries located by `_stack`: count
        (m,), and esum and wsum (..., m, d) with the rates' leading axes."""
        count, seen, idx, gap, seq = located
        lead, d = self.rates.shape[:-2], self.rates.shape[-2]
        if not self.times.shape[-1]:
            return (count, np.zeros(lead + (count.size, d)),
                    np.zeros(lead + (count.size, d)))
        # a query with no earlier event has a zero fade, so zero sums
        rates = np.take(np.swapaxes(self.rates, -1, -2), seq, axis=-2)
        fade = np.exp(-gap[:, None] * rates) * seen[:, None]
        B, C = (np.swapaxes(np.take(x.reshape(lead + (d, -1)), idx, axis=-1),
                            -1, -2) for x in (self._B, self._C))
        return count, fade * B, fade * (C + gap[:, None] * B)
