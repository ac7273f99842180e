"""Model parameters, data containers, and regularity checks.

Conventions used throughout the package:

* Matrices are indexed ``[i, j]`` = (target, source): entry (i, j) describes
  the influence of source dimension j on target dimension i.
* The first ``e`` dimensions (indices 0..e-1 internally, labelled 1..e in
  files) are the interval-censored block E; the remaining ``d - e`` are the
  event-observed block E^c.
* Kernels are causal: phi(t) = 0 for t < 0.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Sequence

import numpy as np

from .errors import DimensionError, ParameterError


# ---------------------------------------------------------------------------
# Parameter container


@dataclasses.dataclass(frozen=True)
class ModelParams:
    """Parameters of a d-dimensional process with e censored dimensions.

    theta, alpha : (d, d) decay rates (> 0) and jump sizes (>= 0), row =
    target, column = source.  gamma, nu : (d,) impulse weights and baseline
    rates (>= 0).  The kernel is phi[i,j](t) = alpha[i,j] theta[i,j]
    exp(-theta[i,j] t) for t >= 0, with integral Phi[i,j](t) = alpha[i,j]
    (1 - exp(-theta[i,j] t)), so alpha is the branching matrix.
    """

    d: int
    e: int
    theta: np.ndarray
    alpha: np.ndarray
    gamma: np.ndarray
    nu: np.ndarray

    def __post_init__(self):
        d, e = self.d, self.e
        if not (isinstance(d, (int, np.integer)) and d >= 1):
            raise DimensionError(f"d must be a positive integer, got {d!r}")
        if not (isinstance(e, (int, np.integer)) and 0 <= e <= d):
            raise DimensionError(f"e must lie in [0, d]={[0, d]}, got {e!r}")
        theta = np.array(self.theta, dtype=float)
        alpha = np.array(self.alpha, dtype=float)
        gamma = np.array(self.gamma, dtype=float).reshape(-1)
        nu = np.array(self.nu, dtype=float).reshape(-1)
        if theta.shape != (d, d):
            raise DimensionError(f"theta must have shape {(d, d)}, got {theta.shape}")
        if alpha.shape != (d, d):
            raise DimensionError(f"alpha must have shape {(d, d)}, got {alpha.shape}")
        if gamma.shape != (d,):
            raise DimensionError(f"gamma must have length {d}, got {gamma.shape}")
        if nu.shape != (d,):
            raise DimensionError(f"nu must have length {d}, got {nu.shape}")
        # every fit evaluation builds one, and per-field checks on arrays
        # this small cost mostly call overhead: one check over all entries,
        # then the field checks only to name the field that failed
        values = np.concatenate((theta.ravel(), alpha.ravel(), gamma, nu))
        if not (np.isfinite(values).all() and values.min() >= 0
                and theta.min() > 0):
            if not np.isfinite(theta).all() or (theta <= 0).any():
                raise ParameterError("theta entries must be finite and > 0")
            if not np.isfinite(alpha).all() or (alpha < 0).any():
                raise ParameterError("alpha entries must be finite and >= 0")
            if not np.isfinite(gamma).all() or (gamma < 0).any():
                raise ParameterError("gamma entries must be finite and >= 0")
            raise ParameterError("nu entries must be finite and >= 0")
        for name, arr in (("theta", theta), ("alpha", alpha), ("gamma", gamma), ("nu", nu)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ModelParams):
            return NotImplemented
        return (
            self.d == other.d
            and self.e == other.e
            and np.array_equal(self.theta, other.theta)
            and np.array_equal(self.alpha, other.alpha)
            and np.array_equal(self.gamma, other.gamma)
            and np.array_equal(self.nu, other.nu)
        )

    __hash__ = None

    def to_dict(self) -> dict:
        return {
            "d": int(self.d),
            "e": int(self.e),
            "theta": self.theta.tolist(),
            "alpha": self.alpha.tolist(),
            "gamma": self.gamma.tolist(),
            "nu": self.nu.tolist(),
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "ModelParams":
        try:
            return cls(
                d=int(obj["d"]),
                e=int(obj["e"]),
                theta=obj["theta"],
                alpha=obj["alpha"],
                gamma=obj["gamma"],
                nu=obj["nu"],
            )
        except KeyError as exc:
            raise ParameterError(f"missing parameter field {exc}") from exc

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ModelParams":
        return cls.from_dict(json.loads(text))

    def replace(self, **kwargs) -> "ModelParams":
        fields = self.to_dict()
        fields.update(kwargs)
        return ModelParams(
            d=fields["d"], e=fields["e"], theta=fields["theta"],
            alpha=fields["alpha"], gamma=fields["gamma"], nu=fields["nu"],
        )


# ---------------------------------------------------------------------------
# Data containers


def _check_times(times: np.ndarray, T: float, what: str) -> np.ndarray:
    times = np.asarray(times, dtype=float).reshape(-1)
    if times.size:
        if not np.all(np.isfinite(times)):
            raise ParameterError(f"{what}: timestamps must be finite")
        if times[0] < 0:
            raise ParameterError(f"{what}: timestamps must be >= 0")
        if np.any(np.diff(times) <= 0):
            raise ParameterError(f"{what}: timestamps must be strictly increasing")
        if times[-1] >= T:
            raise ParameterError(f"{what}: timestamps must be < T={T}")
    times.setflags(write=False)
    return times


@dataclasses.dataclass(frozen=True)
class EventHistory:
    """Exact event times for every dimension on [0, T).

    times : one strictly increasing array per dimension; T : horizon.
    """

    times: tuple
    T: float

    def __post_init__(self):
        if not np.isfinite(self.T) or self.T <= 0:
            raise ParameterError(f"T must be finite and > 0, got {self.T}")
        checked = tuple(
            _check_times(ts, self.T, f"dimension {j + 1}")
            for j, ts in enumerate(self.times)
        )
        if not checked:
            raise DimensionError("EventHistory needs at least one dimension")
        object.__setattr__(self, "times", checked)
        object.__setattr__(self, "T", float(self.T))

    @property
    def d(self) -> int:
        return len(self.times)

    def counts(self) -> np.ndarray:
        return np.array([ts.size for ts in self.times])


@dataclasses.dataclass(frozen=True)
class CensoredSeries:
    """Interval counts for one censored dimension.

    boundaries : observation times o_0 = 0 < o_1 < ... < o_n; counts[k] =
    number of events in the half-open window [o_k, o_{k+1}).
    """

    boundaries: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        bounds = np.asarray(self.boundaries, dtype=float).reshape(-1)
        counts = np.asarray(self.counts, dtype=float).reshape(-1)
        if bounds.size < 2:
            raise ParameterError("need at least two observation boundaries")
        if bounds[0] != 0.0:
            raise ParameterError(f"first boundary must be 0, got {bounds[0]}")
        if not np.all(np.isfinite(bounds)) or np.any(np.diff(bounds) <= 0):
            raise ParameterError("boundaries must be finite and strictly increasing")
        if counts.shape != (bounds.size - 1,):
            raise DimensionError(
                f"counts must have length {bounds.size - 1}, got {counts.size}"
            )
        if np.any(~np.isfinite(counts)) or np.any(counts < 0):
            raise ParameterError("counts must be finite and >= 0")
        if np.any(counts != np.round(counts)):
            raise ParameterError("counts must be integers")
        bounds.setflags(write=False)
        counts.setflags(write=False)
        object.__setattr__(self, "boundaries", bounds)
        object.__setattr__(self, "counts", counts)

    @property
    def n_windows(self) -> int:
        return self.counts.size

    def total(self) -> float:
        return float(self.counts.sum())


def censor_series(times, width: float, T: float) -> CensoredSeries:
    """Aggregate event times into interval counts on fixed-width windows
    [0, w), [w, 2w), ... with the last window clipped at the horizon T."""
    if not np.isfinite(width) or width <= 0:
        raise ParameterError(f"censor width must be > 0, got {width}")
    if not np.isfinite(T) or T <= 0:
        raise ParameterError(f"horizon must be > 0, got {T}")
    n_full = int(np.ceil(T / width - 1e-12))
    bounds = np.minimum(width * np.arange(n_full + 1), T)
    ts = np.asarray(times, dtype=float)
    counts = np.histogram(ts, bounds)[0]
    return CensoredSeries(boundaries=bounds, counts=counts)


@dataclasses.dataclass(frozen=True)
class Dataset:
    """One observation window: counts on the censored block, events elsewhere.

    censored : one CensoredSeries per dimension 0..e-1; events : one time
    array per dimension e..d-1; T : horizon.  Every dimension appears in
    exactly one of the two groups.
    """

    T: float
    censored: tuple
    events: tuple

    def __post_init__(self):
        if not np.isfinite(self.T) or self.T <= 0:
            raise ParameterError(f"T must be finite and > 0, got {self.T}")
        censored = tuple(self.censored)
        for k, series in enumerate(censored):
            if not isinstance(series, CensoredSeries):
                raise ParameterError(f"censored[{k}] must be a CensoredSeries")
            if series.boundaries[-1] > self.T + 1e-12:
                raise ParameterError(
                    f"censored[{k}]: boundaries extend beyond T={self.T}"
                )
        events = tuple(
            _check_times(ts, self.T, f"dimension {self.e + j + 1}")
            for j, ts in enumerate(self.events)
        )
        if not censored and not events:
            raise DimensionError("Dataset needs at least one dimension")
        object.__setattr__(self, "censored", censored)
        object.__setattr__(self, "events", events)
        object.__setattr__(self, "T", float(self.T))

    @property
    def e(self) -> int:
        return len(self.censored)

    @property
    def d(self) -> int:
        return len(self.censored) + len(self.events)

    def event_list(self) -> list:
        """Per-dimension event arrays, empty for the censored block."""
        empty = np.zeros(0)
        return [empty] * self.e + [np.asarray(ts) for ts in self.events]

    def to_dict(self) -> dict:
        return {
            "T": float(self.T),
            "e_dims": [
                {
                    "dim": k + 1,
                    "boundaries": series.boundaries.tolist(),
                    "counts": [int(c) for c in series.counts],
                }
                for k, series in enumerate(self.censored)
            ],
            "ec_dims": [
                {"dim": self.e + j + 1, "events": ts.tolist()}
                for j, ts in enumerate(self.events)
            ],
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "Dataset":
        try:
            T = float(obj["T"])
            e_recs = sorted(obj.get("e_dims", []), key=lambda r: r["dim"])
            ec_recs = sorted(obj.get("ec_dims", []), key=lambda r: r["dim"])
        except (KeyError, TypeError) as exc:
            raise ParameterError(f"malformed dataset record: {exc}") from exc
        e = len(e_recs)
        for k, rec in enumerate(e_recs):
            if rec["dim"] != k + 1:
                raise ParameterError(
                    "censored dimensions must be labelled 1..e, got "
                    f"{[r['dim'] for r in e_recs]}"
                )
        for j, rec in enumerate(ec_recs):
            if rec["dim"] != e + j + 1:
                raise ParameterError(
                    "event dimensions must be labelled e+1..d, got "
                    f"{[r['dim'] for r in ec_recs]}"
                )
        censored = tuple(
            CensoredSeries(rec["boundaries"], rec["counts"]) for rec in e_recs
        )
        events = tuple(np.asarray(rec["events"], dtype=float) for rec in ec_recs)
        return cls(T=T, censored=censored, events=events)

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "Dataset":
        return cls.from_dict(json.loads(text))


@dataclasses.dataclass(frozen=True)
class RegularityReport:
    """Spectral radii of the three stability blocks and the overall verdict."""

    rho_EE: float
    rho_EcEc: float
    rho_cross: float
    subcritical: bool

    def to_dict(self) -> dict:
        return {
            "rho_EE": self.rho_EE,
            "rho_EcEc": self.rho_EcEc,
            "rho_cross": self.rho_cross,
            "subcritical": bool(self.subcritical),
        }


# ---------------------------------------------------------------------------
# Spectral radius and regularity


def spectral_radius(m: np.ndarray) -> float:
    """Spectral radius of a square non-negative matrix.

    Sizes 0/1/2 use exact formulas (the hot path of the e = 1 and e = 2
    fits); larger matrices take the largest eigenvalue modulus from
    ``np.linalg.eigvals``.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"matrix must be square, got shape {m.shape}")
    n = m.shape[0]
    if n == 0:
        return 0.0
    if n == 1:
        return abs(float(m[0, 0]))
    if n == 2:
        tr = m[0, 0] + m[1, 1]
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        disc = tr * tr - 4.0 * det
        if disc >= 0:
            root = np.sqrt(disc)
            return float(max(abs(tr + root), abs(tr - root)) / 2.0)
        return float(np.sqrt(det))
    return float(np.max(np.abs(np.linalg.eigvals(m))))


def check_subcriticality(params: ModelParams) -> RegularityReport:
    """Stability report for the (d, e) split of the branching matrix.

    The process is subcritical iff the censored block, the observed block,
    and the cross loop through the censored block all have spectral radius
    below one.  The cross radius is +inf when I - alpha_EE is singular.
    """
    e, d = params.e, params.d
    a = params.alpha
    a_EE = a[:e, :e]
    a_EcEc = a[e:, e:]
    rho_EE = spectral_radius(a_EE)
    rho_EcEc = spectral_radius(a_EcEc)
    if e == 0 or e == d:
        rho_cross = 0.0
    else:
        try:
            inner = np.linalg.solve(np.eye(e) - a_EE, a[:e, e:])
            cross = a[e:, :e] @ inner
        except np.linalg.LinAlgError:
            rho_cross = float("inf")
        else:
            if not np.all(np.isfinite(cross)):
                rho_cross = float("inf")
            else:
                rho_cross = spectral_radius(cross)
    subcritical = rho_EE < 1.0 and rho_EcEc < 1.0 and rho_cross < 1.0
    return RegularityReport(
        rho_EE=float(rho_EE),
        rho_EcEc=float(rho_EcEc),
        rho_cross=float(rho_cross),
        subcritical=bool(subcritical),
    )


def validate_events_for(params: ModelParams, events: Sequence) -> list:
    """Validate per-dimension event arrays, indexed by absolute dimension.

    Exactly d arrays are required (use empty arrays for dimensions without
    events, e.g. the censored block); anything shorter is ambiguous about
    which dimensions the arrays belong to, so it is rejected outright, as is
    an entry that is not one-dimensional.  An EventHistory stands for its
    per-dimension times.
    """
    if isinstance(events, EventHistory):
        events = events.times
    if len(events) != params.d:
        raise DimensionError(
            f"expected {params.d} per-dimension event arrays, got "
            f"{len(events)}; pass an empty array for each dimension without "
            "events (Dataset.event_list() does this for the censored block)"
        )
    out = []
    for j in range(params.d):
        try:
            ts = np.asarray(events[j], dtype=float)
        except (TypeError, ValueError) as exc:
            try:
                np.asarray(events[j])
            except ValueError:  # ragged nesting has no array shape
                raise DimensionError(
                    f"dimension {j + 1}: event times must be "
                    f"one-dimensional: {exc}"
                ) from exc
            raise ParameterError(
                f"dimension {j + 1}: event times must be numbers: {exc}"
            ) from exc
        if ts.ndim != 1:
            raise DimensionError(
                f"dimension {j + 1}: event times must be one-dimensional, "
                f"got shape {ts.shape}"
            )
        if ts.size and (np.any(~np.isfinite(ts)) or np.any(np.diff(ts) <= 0)
                        or ts[0] < 0):
            raise ParameterError(
                f"dimension {j + 1}: event times must be finite, non-negative "
                "and strictly increasing"
            )
        out.append(ts)
    return out
