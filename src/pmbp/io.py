"""File formats: event streams (JSONL), datasets (JSON), tables (CSV).

All formats round-trip losslessly:

* Event streams are JSON Lines — a header ``{"T": ..., "d": ...}``
  followed by one record ``{"dim": j, "t": ...}`` per event (1-based
  dimension), in global time order.
* Datasets (censored counts plus exact event times) are a single JSON
  object, the same shape as :meth:`Dataset.to_dict`.
* Tabular output is CSV with a header row, '.' decimal separator,
  newline-terminated rows, and floats at 17 significant digits so that
  values survive a write/read cycle bit-exactly.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionError, ParameterError
from .params import Dataset, EventHistory, censor_series

__all__ = [
    "write_events",
    "read_events",
    "write_dataset",
    "read_dataset",
    "censor",
    "format_float",
    "write_csv",
    "read_csv",
]


@contextmanager
def _open(path_or_fp, mode: str):
    if hasattr(path_or_fp, "write") or hasattr(path_or_fp, "read"):
        yield path_or_fp
    else:
        fp = open(Path(path_or_fp), mode, newline="")
        try:
            yield fp
        finally:
            fp.close()


# ---------------------------------------------------------------------------
# Event streams (JSONL)


def write_events(history: EventHistory, path_or_fp) -> None:
    """Write an event history as JSON Lines: header then time-ordered events.

    The header carries the horizon and dimension count; each subsequent
    line is one event with its 1-based dimension.  Ties in time are
    ordered by dimension so output is deterministic.
    """
    times = np.concatenate(history.times) if history.d else np.zeros(0)
    dims = np.concatenate(
        [np.full(ts.size, j + 1, dtype=int) for j, ts in enumerate(history.times)]
    ) if history.d else np.zeros(0, dtype=int)
    order = np.lexsort((dims, times))
    with _open(path_or_fp, "w") as fp:
        fp.write(json.dumps({"T": float(history.T), "d": int(history.d)}) + "\n")
        for k in order:
            fp.write(json.dumps({"dim": int(dims[k]), "t": float(times[k])}) + "\n")


def read_events(path_or_fp) -> EventHistory:
    """Read an event history written by :func:`write_events`."""
    with _open(path_or_fp, "r") as fp:
        lines = [ln for ln in fp.read().splitlines() if ln.strip()]
    if not lines:
        raise ParameterError("event stream is empty (missing header line)")
    try:
        header = json.loads(lines[0])
        T = float(header["T"])
        d = int(header["d"])
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise ParameterError(f"malformed event-stream header: {exc}") from exc
    per_dim: list[list[float]] = [[] for _ in range(d)]
    for ln in lines[1:]:
        try:
            rec = json.loads(ln)
            dim = int(rec["dim"])
            t = float(rec["t"])
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise ParameterError(f"malformed event record {ln!r}: {exc}") from exc
        if not 1 <= dim <= d:
            raise DimensionError(
                f"event record has dim={dim}, outside 1..{d}")
        per_dim[dim - 1].append(t)
    return EventHistory(times=tuple(per_dim), T=T)


# ---------------------------------------------------------------------------
# Datasets (JSON)


def write_dataset(dataset: Dataset, path_or_fp) -> None:
    with _open(path_or_fp, "w") as fp:
        fp.write(dataset.to_json(indent=2) + "\n")


def read_dataset(path_or_fp) -> Dataset:
    with _open(path_or_fp, "r") as fp:
        return Dataset.from_json(fp.read())


# ---------------------------------------------------------------------------
# Censoring


def censor(history: EventHistory, dims, width: float) -> Dataset:
    """Replace the chosen dimensions' timestamps by fixed-width counts.

    ``dims`` holds 1-based dimension indices and must form a leading
    block {1, .., k}: the package's model convention places censored
    dimensions first, so censoring any other set would silently reorder
    the dimensions.  Counts use half-open windows [0,w), [w,2w), ... with
    the final window clipped at the horizon; total counts are conserved.
    """
    dim_set = {int(j) for j in dims}
    k = len(dim_set)
    if dim_set and dim_set != set(range(1, k + 1)):
        raise DimensionError(
            f"censored dimensions must form a leading block 1..{k}, got "
            f"{sorted(dim_set)}; reorder dimensions so the censored ones "
            "come first")
    if k > history.d:
        raise DimensionError(
            f"cannot censor {k} of {history.d} dimensions")
    censored = tuple(
        censor_series(history.times[j], width, history.T) for j in range(k)
    )
    return Dataset(T=history.T, censored=censored, events=history.times[k:])


# ---------------------------------------------------------------------------
# CSV


def format_float(x) -> str:
    """17 significant digits: lossless for binary64, stable across runs."""
    return f"{float(x):.17g}"


def _format_cell(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format_float(x)


def write_csv(path_or_fp, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write rows as CSV with a header, '\\n' newlines, 17-digit floats."""
    with _open(path_or_fp, "w") as fp:
        fp.write(",".join(header) + "\n")
        for row in rows:
            fp.write(",".join(_format_cell(x) for x in row) + "\n")


def read_csv(path_or_fp) -> tuple[list[str], list[list[str]]]:
    """Read a CSV written by :func:`write_csv`; cells stay as strings."""
    with _open(path_or_fp, "r") as fp:
        lines = fp.read().splitlines()
    if not lines:
        raise ParameterError("CSV file is empty (missing header)")
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:] if ln]
