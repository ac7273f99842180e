"""Command-line front door: sampling, censoring, fitting, evaluation,
prediction, recovery experiments, and goodness-of-fit diagnostics.

Conventions shared by every subcommand:

* ``--config FILE`` supplies option defaults from a JSON object; explicit
  flags override config entries, which override built-in defaults.
* Model parameters travel as a JSON object (``--params FILE`` or the
  ``"params"`` config key) with keys d, e, theta, alpha, nu, gamma.
* Machine output goes to stdout or ``--out``; logs go to stderr.
* Every command is deterministic given its inputs and ``--seed``.
* The exit code is 0 only on full success.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import os
import sys
from contextlib import contextmanager
from pathlib import Path

import click
import numpy as np

from .errors import PMBPError
from .fitting import (
    FitConfig,
    _param_names,
    _tame_censored_block,
    fd_gradient,
    fit,
    recovery_experiment,
)
from .gof import gof_report
from .hawkes import sample_hawkes
from .io import (
    censor,
    format_float,
    read_dataset,
    read_events,
    write_csv,
    write_dataset,
    write_events,
)
from .likelihood import LikelihoodConfig, nll_and_grad
from .params import Dataset, ModelParams, check_subcriticality
from .paramvec import n_free, pack, unpack
from .poi import PoiEvaluator
from .sampling import predict_counts, sample_pmbp

log = logging.getLogger("pmbp")


# ---------------------------------------------------------------------------
# Shared helpers


def _fail(exc: Exception) -> click.ClickException:
    return click.ClickException(f"{type(exc).__name__}: {exc}")


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        obj = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise click.ClickException(f"cannot read config {path}: {exc}")
    if not isinstance(obj, dict):
        raise click.ClickException(f"config {path} must hold a JSON object")
    return obj


def _opt(config: dict, key: str, flag, default):
    """Flag beats config beats default; flags use None for 'not given'."""
    if flag is not None:
        return flag
    return config.get(key, default)


def _load_params(params_path: str | None, config: dict) -> ModelParams:
    try:
        if params_path:
            return ModelParams.from_json(Path(params_path).read_text())
        if "params" in config:
            return ModelParams.from_dict(config["params"])
    except (OSError, json.JSONDecodeError, PMBPError) as exc:
        raise _fail(exc)
    raise click.UsageError(
        "model parameters required: pass --params FILE or a 'params' "
        "object in --config")


@contextmanager
def _output(out: str | None):
    if out in (None, "-"):
        yield sys.stdout
    else:
        fp = open(out, "w", newline="")
        try:
            yield fp
        finally:
            fp.close()


def _emit_json(obj: dict, out: str | None) -> None:
    with _output(out) as fp:
        fp.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _comma_floats(text: str) -> list[float]:
    try:
        return [float(tok) for tok in str(text).split(",") if tok.strip()]
    except ValueError as exc:
        raise click.ClickException(f"expected comma-separated numbers: {exc}")


# ---------------------------------------------------------------------------
# Group


@click.group()
@click.option("-v", "--verbose", count=True,
              help="Log more (-v info, -vv debug); logs go to stderr.")
def main(verbose: int) -> None:
    """Multivariate temporal point processes with partially interval-censored
    dimensions: simulate, fit, forecast, and diagnose."""
    level = [logging.WARNING, logging.INFO, logging.DEBUG][min(verbose, 2)]
    logging.basicConfig(
        stream=sys.stderr, level=level, format="%(levelname)s %(message)s"
    )


# ---------------------------------------------------------------------------
# Sampling


@main.command("sample-hawkes")
@click.option("--config", "config_path", type=click.Path(exists=True))
@click.option("--params", "params_path", type=click.Path(exists=True),
              help="Model parameter JSON file.")
@click.option("--t-end", type=float, help="Simulation horizon.")
@click.option("--seed", type=int, help="RNG seed (default 0).")
@click.option("--out", type=click.Path(), help="Output JSONL (default stdout).")
def cmd_sample_hawkes(config_path, params_path, t_end, seed, out):
    """Simulate a self-exciting process by thinning; emit events as JSONL."""
    config = _load_config(config_path)
    params = _load_params(params_path, config)
    T = _opt(config, "t_end", t_end, None)
    if T is None:
        raise click.UsageError("--t-end is required")
    seed = int(_opt(config, "seed", seed, 0))
    try:
        hist = sample_hawkes(params, float(T), seed)
    except PMBPError as exc:
        raise _fail(exc)
    log.info("sampled %s events on [0, %g]",
             [len(t) for t in hist.times], float(T))
    with _output(_opt(config, "out", out, None)) as fp:
        write_events(hist, fp)


@main.command("sample-pmbp")
@click.option("--config", "config_path", type=click.Path(exists=True))
@click.option("--params", "params_path", type=click.Path(exists=True))
@click.option("--t-end", type=float, help="Simulation horizon.")
@click.option("--seed", type=int, help="RNG seed (default 0).")
@click.option("--out", type=click.Path())
def cmd_sample_pmbp(config_path, params_path, t_end, seed, out):
    """Simulate the partially-censored model exactly; emit JSONL events.

    Censored-block dimensions get materialized timestamps too (draws from
    the expected intensity); censor them afterwards if counts are wanted.
    """
    config = _load_config(config_path)
    params = _load_params(params_path, config)
    T = _opt(config, "t_end", t_end, None)
    if T is None:
        raise click.UsageError("--t-end is required")
    T = float(T)
    seed = int(_opt(config, "seed", seed, 0))
    try:
        hist = sample_pmbp(params, T, seed)
    except PMBPError as exc:
        raise _fail(exc)
    log.info("sampled %s events on [0, %g]",
             [len(t) for t in hist.times], T)
    with _output(_opt(config, "out", out, None)) as fp:
        write_events(hist, fp)


@main.command("censor")
@click.option("--config", "config_path", type=click.Path(exists=True))
@click.option("--events", "events_path", type=click.Path(exists=True),
              help="Input events JSONL (default stdin).")
@click.option("--dims", type=str,
              help="Comma-separated 1-based dimensions to censor, e.g. '1'.")
@click.option("--width", type=float, help="Censoring window width.")
@click.option("--out", type=click.Path())
def cmd_censor(config_path, events_path, dims, width, out):
    """Replace chosen dimensions' timestamps by interval counts."""
    config = _load_config(config_path)
    dims = _opt(config, "dims", dims, None)
    width = _opt(config, "width", width, None)
    if dims is None or width is None:
        raise click.UsageError("--dims and --width are required")
    if isinstance(dims, str):
        dim_list = [int(float(tok)) for tok in dims.split(",") if tok.strip()]
    else:
        dim_list = [int(v) for v in dims]
    events_path = _opt(config, "events", events_path, None)
    try:
        hist = read_events(events_path if events_path else sys.stdin)
        ds = censor(hist, dim_list, float(width))
    except PMBPError as exc:
        raise _fail(exc)
    log.info("censored dims %s at width %g: counts %s", dim_list, width,
             [int(s.counts.sum()) for s in ds.censored])
    with _output(_opt(config, "out", out, None)) as fp:
        write_dataset(ds, fp)


# ---------------------------------------------------------------------------
# Fitting


@main.command("fit")
@click.option("--config", "config_path", type=click.Path(exists=True))
@click.option("--data", "data_paths", type=click.Path(exists=True),
              multiple=True, help="Dataset JSON; repeat for a joint fit.")
@click.option("--n-starts", type=int)
@click.option("--max-iter", type=int)
@click.option("--tol-f", type=float)
@click.option("--seed", type=int)
@click.option("--include-gamma/--no-include-gamma", default=None,
              help="Estimate the impulse weights instead of fixing them.")
@click.option("--w-nu", type=float, help="L1 penalty weight on backgrounds.")
@click.option("--out", type=click.Path())
def cmd_fit(config_path, data_paths, n_starts, max_iter, tol_f,
            seed, include_gamma, w_nu, out):
    """Maximum-likelihood fit of one or more datasets; JSON result."""
    config = _load_config(config_path)
    paths = list(data_paths) or list(config.get("data", []))
    if not paths:
        raise click.UsageError("at least one --data dataset is required")
    try:
        datasets = [read_dataset(p) for p in paths]
    except (OSError, PMBPError) as exc:
        raise _fail(exc)
    cfg = FitConfig(
        n_starts=int(_opt(config, "n_starts", n_starts, 8)),
        max_iter=int(_opt(config, "max_iter", max_iter, 500)),
        tol_f=float(_opt(config, "tol_f", tol_f, 1e-7)),
        seed=int(_opt(config, "seed", seed, 0)),
        include_gamma=bool(_opt(config, "include_gamma", include_gamma, False)),
        gamma=config.get("gamma"),
        likelihood=LikelihoodConfig(
            w_nu=float(_opt(config, "w_nu", w_nu, 0.0)),
            weights=config.get("weights"),
        ),
    )
    try:
        result = fit(datasets, cfg)
    except PMBPError as exc:
        raise _fail(exc)
    log.info("fit finished in %.2fs: nll=%.6f converged=%s",
             result.wall_time_s, result.nll, result.converged)
    _emit_json(result.to_dict(with_wall_time=False),
               _opt(config, "out", out, None))


# ---------------------------------------------------------------------------
# Evaluation


@main.command("evaluate")
@click.option("--config", "config_path", type=click.Path(exists=True))
@click.option("--params", "params_path", type=click.Path(exists=True))
@click.option("--data", "data_path", type=click.Path(exists=True),
              help="Dataset JSON providing the conditioning events.")
@click.option("--step", type=float, help="Output time spacing (default 0.1).")
@click.option("--t-end", type=float,
              help="Evaluation horizon (default: dataset horizon).")
@click.option("--out", type=click.Path())
def cmd_evaluate(config_path, params_path, data_path, step, t_end, out):
    """Expected intensity and compensator on a time grid; CSV output."""
    config = _load_config(config_path)
    params = _load_params(params_path, config)
    data_path = _opt(config, "data", data_path, None)
    try:
        if data_path:
            ds = read_dataset(data_path)
            if ds.d != params.d or ds.e != params.e:
                raise click.ClickException(
                    f"dataset split ({ds.e}/{ds.d}) does not match the model "
                    f"({params.e}/{params.d})")
            events = ds.event_list()
            T_default = ds.T
        else:
            events = [np.zeros(0)] * params.d
            T_default = None
        T = float(_opt(config, "t_end", t_end, T_default) or 0.0)
        if T <= 0:
            raise click.UsageError("--t-end (or a dataset) is required")
        dt_out = float(_opt(config, "step", step, 0.1))
        if dt_out <= 0:
            raise click.ClickException("--step must be > 0")
        n_out = max(1, int(round(T / dt_out)))
        times = np.linspace(0.0, n_out * dt_out, n_out + 1)
        times = times[times <= T * (1 + 1e-12)]
        values = PoiEvaluator(params, events).values(times)
    except PMBPError as exc:
        raise _fail(exc)
    d = params.d
    header = (["t"] + [f"xi_{j + 1}" for j in range(d)]
              + [f"Xi_{j + 1}" for j in range(d)])
    rows = (
        [t] + list(values.xi[i]) + list(values.Xi[i])
        for i, t in enumerate(values.t)
    )
    with _output(_opt(config, "out", out, None)) as fp:
        write_csv(fp, header, rows)


# ---------------------------------------------------------------------------
# Prediction


@main.command("predict")
@click.option("--config", "config_path", type=click.Path(exists=True))
@click.option("--params", "params_path", type=click.Path(exists=True))
@click.option("--data", "data_path", type=click.Path(exists=True),
              help="Training dataset JSON (history up to its horizon).")
@click.option("--horizon", type=float, help="Forecast length past the data.")
@click.option("--width", type=float, help="Forecast interval width.")
@click.option("--n-samples", type=int, help="Continuation samples (default 500).")
@click.option("--seed", type=int)
@click.option("--out", type=click.Path())
def cmd_predict(config_path, params_path, data_path, horizon, width,
                n_samples, seed, out):
    """Forecast censored-dimension counts on future intervals; CSV output.

    Samples observed-dimension continuations and averages the censored
    block's compensator increments over them.
    """
    config = _load_config(config_path)
    params = _load_params(params_path, config)
    data_path = _opt(config, "data", data_path, None)
    if not data_path:
        raise click.UsageError("--data is required")
    horizon = _opt(config, "horizon", horizon, None)
    if horizon is None:
        raise click.UsageError("--horizon is required")
    horizon = float(horizon)
    if horizon <= 0:
        raise click.ClickException("--horizon must be > 0")
    w = float(_opt(config, "width", width, 1.0))
    if w <= 0:
        raise click.ClickException("--width must be > 0")
    n_samples = int(_opt(config, "n_samples", n_samples, 500))
    seed = int(_opt(config, "seed", seed, 0))
    try:
        ds = read_dataset(data_path)
        n_iv = int(np.ceil(horizon / w - 1e-12))
        bnds = ds.T + np.minimum(w * np.arange(n_iv + 1), horizon)
        pred = predict_counts(params, ds, bnds, n_samples, seed)
    except PMBPError as exc:
        raise _fail(exc)
    if pred.n_failed:
        log.warning("%d/%d continuation samples failed and were dropped",
                    pred.n_failed, n_samples)
    header = ["interval_start", "interval_end", "dim", "mean", "sd"]
    rows = (
        [pred.boundaries[k], pred.boundaries[k + 1], j + 1,
         pred.mean[k, j], pred.sd[k, j]]
        for k in range(len(pred.boundaries) - 1)
        for j in range(params.e)
    )
    with _output(_opt(config, "out", out, None)) as fp:
        write_csv(fp, header, rows)


# ---------------------------------------------------------------------------
# Recovery experiment


@main.command("recover")
@click.option("--config", "config_path", type=click.Path(exists=True))
@click.option("--params", "params_path", type=click.Path(exists=True),
              help="True model parameters JSON.")
@click.option("--n-sequences", type=int)
@click.option("--group-size", type=int)
@click.option("--censor-widths", type=str,
              help="Comma-separated widths, e.g. '1' or '0.5,1,2'.")
@click.option("--t-end", type=float)
@click.option("--seed", type=int)
@click.option("--n-starts", type=int)
@click.option("--max-iter", type=int)
@click.option("--threads", type=int,
              help="Parallel fit workers (default: available cores).")
@click.option("--out-rows", type=click.Path(),
              help="Per-group estimates CSV (default stdout).")
@click.option("--out-summary", type=click.Path(),
              help="Mean/median/IQR CSV (omitted unless given).")
def cmd_recover(config_path, params_path, n_sequences, group_size,
                censor_widths, t_end, seed, n_starts, max_iter,
                threads, out_rows, out_summary):
    """Simulate from known parameters, refit in groups, tabulate estimates.

    Emits one row per (parameter, likelihood mode, group): full-event fits
    are labelled PP-PP; fits with dimension 1 censored at width w are
    labelled IC-PP[w].
    """
    config = _load_config(config_path)
    params = _load_params(params_path, config)
    n_sequences = int(_opt(config, "n_sequences", n_sequences, 50))
    group_size = int(_opt(config, "group_size", group_size, 10))
    widths_raw = _opt(config, "censor_widths", censor_widths, "1")
    widths = (_comma_floats(widths_raw) if isinstance(widths_raw, str)
              else [float(v) for v in widths_raw])
    T = float(_opt(config, "t_end", t_end, 60.0))
    seed = int(_opt(config, "seed", seed, 0))
    threads = int(_opt(config, "threads", threads, os.cpu_count() or 1))
    fit_cfg = FitConfig(
        n_starts=int(_opt(config, "n_starts", n_starts, 2)),
        max_iter=int(_opt(config, "max_iter", max_iter, 250)),
        tol_f=1e-6,
    )
    try:
        rows, summary = recovery_experiment(
            params, n_sequences, group_size, widths, seed, T=T,
            fit_config=fit_cfg, n_jobs=threads,
        )
    except PMBPError as exc:
        raise _fail(exc)
    log.info("recovery: %d rows over %d groups x %d modes",
             len(rows), n_sequences // group_size, 1 + len(widths))
    row_header = ["param_name", "true_value", "likelihood_mode",
                  "group_index", "estimate"]
    with _output(_opt(config, "out_rows", out_rows, None)) as fp:
        write_csv(fp, row_header,
                  ([r[k] for k in row_header] for r in rows))
    out_summary = _opt(config, "out_summary", out_summary, None)
    if out_summary:
        s_header = ["param_name", "likelihood_mode", "mean", "median", "iqr"]
        with _output(out_summary) as fp:
            write_csv(fp, s_header,
                      ([s[k] for k in s_header] for s in summary))


# ---------------------------------------------------------------------------
# Goodness of fit


@main.command("gof")
@click.option("--config", "config_path", type=click.Path(exists=True))
@click.option("--params", "params_path", type=click.Path(exists=True))
@click.option("--data", "data_path", type=click.Path(exists=True))
@click.option("--n-draws", type=int, help="Poisson band draws (default 2000).")
@click.option("--seed", type=int)
@click.option("--out", type=click.Path())
def cmd_gof(config_path, params_path, data_path, n_draws, seed, out):
    """Goodness-of-fit diagnostics for a fitted model on a dataset; JSON."""
    config = _load_config(config_path)
    params = _load_params(params_path, config)
    data_path = _opt(config, "data", data_path, None)
    if not data_path:
        raise click.UsageError("--data is required")
    try:
        ds = read_dataset(data_path)
        report = gof_report(
            params, ds,
            n_draws=int(_opt(config, "n_draws", n_draws, 2000)),
            seed=int(_opt(config, "seed", seed, 0)),
        )
    except PMBPError as exc:
        raise _fail(exc)
    _emit_json(report.to_dict(), _opt(config, "out", out, None))


# ---------------------------------------------------------------------------
# Gradient check


@main.command("grad-check")
@click.option("--config", "config_path", type=click.Path(exists=True))
@click.option("--params", "params_path", type=click.Path(exists=True),
              help="Center of the random parameter draws.")
@click.option("--data", "data_path", type=click.Path(exists=True))
@click.option("--n-points", type=int, help="Random test points (default 5).")
@click.option("--seed", type=int)
@click.option("--tolerance", type=float,
              help="Relative mismatch allowed (default 1e-3).")
@click.option("--out", type=click.Path())
def cmd_grad_check(config_path, params_path, data_path, n_points, seed,
                   tolerance, out):
    """Compare analytic likelihood gradients with finite differences; JSON.

    Draws parameter points around --params (log-normal jitter, kept inside
    the stable region), reports the worst relative mismatch per parameter,
    and exits nonzero if any exceeds the tolerance.
    """
    config = _load_config(config_path)
    params = _load_params(params_path, config)
    data_path = _opt(config, "data", data_path, None)
    if not data_path:
        raise click.UsageError("--data is required")
    n_points = int(_opt(config, "n_points", n_points, 5))
    seed = int(_opt(config, "seed", seed, 0))
    tol = float(_opt(config, "tolerance", tolerance, 1e-3))
    try:
        ds = read_dataset(data_path)
        names = _param_names(params.d)[:-1]  # flat layout, minus the radius
        rng = np.random.default_rng(seed)
        worst = np.zeros(n_free(params.d, False))
        for _ in range(n_points):
            point = _jitter_params(params, rng)
            x = pack(point, False)

            def f(vec):
                return nll_and_grad(unpack(point, vec, False), ds)[0]

            _, g = nll_and_grad(point, ds)
            g_fd = fd_gradient(f, x)
            rel = np.abs(g - g_fd) / np.maximum(np.abs(g_fd), 1e-6)
            worst = np.maximum(worst, rel)
    except PMBPError as exc:
        raise _fail(exc)
    report = {
        "n_points": n_points,
        "tolerance": tol,
        "max_relative_error": float(worst.max()),
        "per_parameter": {nm: float(v) for nm, v in zip(names, worst)},
        "passed": bool(worst.max() <= tol),
    }
    _emit_json(report, _opt(config, "out", out, None))
    if not report["passed"]:
        raise click.ClickException(
            f"gradient mismatch {worst.max():.3e} exceeds tolerance {tol:g}")


def _jitter_params(params: ModelParams, rng: np.random.Generator) -> ModelParams:
    """Log-normal jitter of every positive parameter, tamed to keep the
    censored-block spectral radius below 0.9."""
    jit = lambda m, s: np.asarray(m) * np.exp(s * rng.standard_normal(np.shape(m)))
    alpha = jit(np.maximum(params.alpha, 0.05), 0.25)
    theta = np.clip(jit(params.theta, 0.25), 1e-3, 1e3)
    nu = np.maximum(jit(np.maximum(params.nu, 0.05), 0.25), 1e-4)
    alpha = _tame_censored_block(alpha, params.e)
    return params.replace(alpha=alpha, theta=theta, nu=nu)


if __name__ == "__main__":
    main()
