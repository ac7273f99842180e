"""The benchmark's workloads.

A workload builds a fixed pool of inputs from the seed when it is created,
then performs rounds of user-level calls into pmbp: `run_round(r)` returns,
for each step, the seconds of every call it made.  Every call passes only
the arguments a user passes (no grid, tables or bound mode), and every
output is checked outside the timed region.

Each workload has two timed steps, reported as `primary_s` and
`secondary_s`; STEPS names them.
"""

from __future__ import annotations

import itertools
import time

import numpy as np

import pmbp
from perfbench import inputs

T = 60.0


class Ledger:
    """Attempted and failed operations, with a note for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def op(self, n: int = 1) -> None:
        self.attempted += n

    def fail(self, note: str, n: int = 1) -> None:
        self.failed += n
        self.notes.append(note)

    def check(self, ok: bool, note: str) -> bool:
        if not ok:
            self.fail(note)
        return ok


def _template(d: int, e: int) -> pmbp.ModelParams:
    return pmbp.ModelParams(d=d, e=e, theta=np.ones((d, d)),
                            alpha=np.zeros((d, d)), gamma=np.zeros(d),
                            nu=np.ones(d))


class _FitWorkload:
    """Joint fits of pooled dataset groups, censored (IC) and uncensored (PP).

    Each group holds N_REALIZATIONS draws of MODEL viewed as an e=0
    process, with the event counts of each BANDED tuple of dimensions held
    near their stationary mean.
    """

    STEPS = ("fit_ic_s", "fit_pp_s")
    CONFIG: pmbp.FitConfig
    PP_BURST_S = 1.5
    NLL_SLACK = 0.0  # nats the fitted nll may exceed the reference by

    def __init__(self, seed: int, tracer, ledger: Ledger):
        self.tracer = tracer
        self.ledger = ledger
        self.pool = []
        for g in range(self.POOL):
            evs = inputs.realizations(self.MODEL, self.N_REALIZATIONS, T,
                                      [seed, g], self.BANDED, band=0.05)
            self.pool.append({
                "ic": [inputs.dataset(ev, self.MODEL.e, T) for ev in evs],
                "pp": [inputs.dataset(ev, 0, T) for ev in evs],
            })
        self.digest = inputs.digest([[g["ic"], g["pp"]] for g in self.pool])
        self._reference = {}
        self._pp_cycle = itertools.cycle(range(len(self.pool)))

    def _fit(self, key: str, data: list):
        """One timed fit; returns (seconds, result or None)."""
        self.ledger.op()
        t0 = time.perf_counter()
        try:
            with self.tracer.span("fitting"):
                res = pmbp.fit(data, self.CONFIG)
        except Exception as exc:  # a raised error is a failed operation
            self.ledger.fail(f"{key}: {type(exc).__name__}: {exc}")
            return time.perf_counter() - t0, None
        dt = time.perf_counter() - t0
        self.tracer.add("fitting.iterations", sum(s.n_iter for s in res.starts))
        return dt, res

    def _check(self, key: str, res, data: list) -> None:
        """The fitted nll is finite and no worse than the reference nll,
        which depends only on the dataset group, so it is computed once."""
        if res is None:
            return
        nll = float(res.nll)
        if not self.ledger.check(np.isfinite(nll), f"{key}: nll {nll} not finite"):
            return
        if key not in self._reference:
            self._reference[key] = self._reference_nll(res, data)
        ref = self._reference[key] + self.NLL_SLACK
        self.ledger.check(nll <= ref, f"{key}: nll {nll:.6g} > reference {ref:.6g}")

    def run_round(self, r: int, fixed: bool = False) -> dict:
        """The IC fit of pooled group r, then PP fits that cycle through the
        pool for PP_BURST_S seconds, or once through it if `fixed`.

        The machine's speed drifts over seconds, so short PP fits are spread
        over every round instead of being timed in one burst.
        """
        g = r % len(self.pool)
        t_ic, res = self._fit(f"round {r} IC", self.pool[g]["ic"])
        self._check(f"group {g} IC", res, self.pool[g]["ic"])
        t_pp = []
        end = time.perf_counter() + self.PP_BURST_S
        for k in range(len(self.pool)) if fixed else self._pp_cycle:
            t, res = self._fit(f"round {r} PP {k}", self.pool[k]["pp"])
            self._check(f"group {k} PP", res, self.pool[k]["pp"])
            t_pp.append(t)
            if not fixed and time.perf_counter() >= end:
                break
        return {"fit_ic_s": [t_ic], "fit_pp_s": t_pp}


class Recover(_FitWorkload):
    """One A7 recovery group: d=2, alpha=[[.3,.2],[.2,.3]], theta=1, nu=.4,
    fitted jointly in IC-PP mode (dim 1 as width-1 window counts) and in
    PP-PP mode (all events), 2 starts each at the default grid.

    Each start is capped at 6 iterations, so the fit makes 32-35 objective
    evaluations on every draw and its time follows the cost of one.  With
    10 iterations, one group in five took about 85, when a line search in
    the second start failed.
    """

    N_REALIZATIONS = 3
    POOL = 4
    BANDED = ((0,), (1,))
    CONFIG = pmbp.FitConfig(n_starts=2, max_iter=6, tol_f=1e-6)
    # A capped fit stops short of the optimum: over 12 draws the best of
    # its two starts ended 0.05 to 4.4 nats below the truth's nll (and up
    # to 0.95 above it at 5 iterations).  The start lies 85 to 250 nats
    # above, so a fit more than 2 nats above the truth has gone wrong.
    NLL_SLACK = 2.0
    MODEL = inputs.reference_model(1)

    def _reference_nll(self, res, data):
        """joint_nll at the generating parameters, in the data's (d, e) split."""
        return float(pmbp.joint_nll(inputs.reference_model(data[0].e), data))


class FitWide(_FitWorkload):
    """A fixed d=4, e=2 model (inputs.wide_model), two T=60 realizations
    with dims 1-2 as width-1 window counts; one fit with 1 start, plus the
    same fit of the uncensored events (e=0).

    The fit stops after its first step.  That step is the same on every
    draw: the start point, whose censored block sits near criticality
    (k_star about 63), then 11 line-search trials.  Later steps vary from
    draw to draw, in count (27-87 evaluations by iteration 15) and in cost,
    since a trial near criticality costs five times a typical one.
    """

    N_REALIZATIONS = 2
    POOL = 6
    BANDED = ((0, 1), (2, 3))
    CONFIG = pmbp.FitConfig(n_starts=1, max_iter=1)
    MODEL = inputs.wide_model()

    def _reference_nll(self, res, data):
        """joint_nll at the fit's starting point."""
        start = pmbp.unpack(_template(data[0].d, data[0].e), res.starts[0].x0)
        return float(pmbp.joint_nll(start, data))


class Forecast:
    """The d=2, e=1 reference model with no fit: sample_pmbp at T=600, and
    predict_counts with 200 samples over windows 60..70 after a T=60
    training dataset.  Each round draws with its own sampler seeds."""

    STEPS = ("predict_s", "sample_s")
    MODEL = inputs.reference_model(1)
    T_SAMPLE = 600.0
    N_SAMPLES = 200
    BOUNDARIES = np.arange(60.0, 71.0)
    SAMPLE_BAND = 0.35   # per-dimension count vs stationary mean * T
    FORECAST_BAND = 0.25  # last window's forecast mean vs stationary mean * width

    def __init__(self, seed: int, tracer, ledger: Ledger):
        # every layer this workload reaches is a wrapped name, so the
        # tracer needs no spans here
        self.ledger = ledger
        self.seed = seed
        self.rate = inputs.stationary_rate(self.MODEL)
        ev = inputs.realizations(self.MODEL, 1, T, [seed, 0], ((0,), (1,)),
                                 band=0.05)[0]
        self.train = inputs.dataset(ev, 1, T)
        self.digest = inputs.digest(self.MODEL, self.train, [seed])

    def _sample(self, r: int):
        self.ledger.op()
        t0 = time.perf_counter()
        try:
            hist = pmbp.sample_pmbp(self.MODEL, self.T_SAMPLE, [self.seed, r, 1])
        except Exception as exc:
            self.ledger.fail(f"round {r} sample: {type(exc).__name__}: {exc}")
            return time.perf_counter() - t0
        dt = time.perf_counter() - t0
        expect = self.rate * self.T_SAMPLE
        counts = hist.counts()
        self.ledger.check(
            bool(np.all(np.abs(counts / expect - 1.0) <= self.SAMPLE_BAND)),
            f"round {r} sample: counts {counts.tolist()} outside "
            f"+-{self.SAMPLE_BAND:.0%} of {expect.round(1).tolist()}")
        return dt

    def _predict(self, r: int):
        self.ledger.op(self.N_SAMPLES)
        t0 = time.perf_counter()
        try:
            pred = pmbp.predict_counts(self.MODEL, self.train, self.BOUNDARIES,
                                       self.N_SAMPLES, [self.seed, r, 2])
        except Exception as exc:
            self.ledger.fail(f"round {r} predict: {type(exc).__name__}: {exc}",
                             self.N_SAMPLES)
            return time.perf_counter() - t0
        dt = time.perf_counter() - t0
        if pred.n_failed:
            self.ledger.fail(f"round {r} predict: {pred.n_failed} samples exploded",
                             pred.n_failed)
        # The first windows follow the training data's recent events; by
        # the last one the conditional mean has relaxed to the stationary
        # rate (the excess decays as exp(-theta (1 - rho) t) = exp(-4.5)).
        expect = self.rate[0] * (self.BOUNDARIES[-1] - self.BOUNDARIES[-2])
        mean = pred.mean[:, 0]
        self.ledger.check(
            bool(np.all(np.isfinite(mean)) and np.all(mean >= 0)
                 and abs(mean[-1] / expect - 1.0) <= self.FORECAST_BAND),
            f"round {r} predict: means {mean.round(3).tolist()} not finite, "
            f"negative, or last one outside +-{self.FORECAST_BAND:.0%} of "
            f"{expect:.3g}")
        return dt

    def run_round(self, r: int, fixed: bool = False) -> dict:
        return {"sample_s": [self._sample(r)], "predict_s": [self._predict(r)]}


WORKLOADS = {"recover": Recover, "fit_wide": FitWide, "forecast": Forecast}
