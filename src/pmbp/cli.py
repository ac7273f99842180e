"""Command-line front door: sampling, censoring, fitting, evaluation,
prediction, recovery experiments, and goodness-of-fit diagnostics.

Conventions shared by every subcommand:

* ``--config FILE`` supplies option defaults from a JSON object; explicit
  flags override config entries, which override built-in defaults.  A
  config key is the option's name in snake_case (``--t-end`` is
  ``t_end``); a JSON ``null`` counts as absent.  ``params``, ``gamma`` and
  ``weights`` are config-only keys.
* Model parameters travel as a JSON object (``--params FILE`` or the
  ``"params"`` config key) with keys d, e, theta, alpha, nu, gamma.
* Machine output goes to stdout or ``--out``; logs go to stderr.
* Every command is deterministic given its inputs and its ``--seed``, if any.
* The exit code is 0 only on full success: usage errors (a missing or
  invalid option) exit 2, library and file errors exit 1.
"""

from __future__ import annotations

import json
import logging
import os
import sys
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
    _open,
    censor,
    read_dataset,
    read_events,
    write_csv,
    write_dataset,
    write_events,
)
from .likelihood import LikelihoodConfig, _Prepared, joint_nll, nll_and_grad
from .params import ModelParams
from .paramvec import n_free, pack, unpack
from .poi import PoiEvaluator
from .sampling import predict_counts, sample_pmbp

log = logging.getLogger("pmbp")


# ---------------------------------------------------------------------------
# Shared helpers


def _read_config(ctx: click.Context, param, path: str | None) -> None:
    """Load ``--config`` into the command's default map, so that click
    resolves every option as flag > config entry > built-in default."""
    if path is None:
        return
    obj = json.loads(Path(path).read_text())
    if not isinstance(obj, dict):
        raise click.ClickException(f"config {path} must hold a JSON object")
    # 'params_path' names --params' parameter, not a config key; click
    # splits a default-map string only for nargs > 1, so a lone string for a
    # repeatable option (fit's 'data') is one item
    multiple = {p.name for p in ctx.command.params
                if getattr(p, "multiple", False)}
    ctx.default_map = {
        k: [v] if k in multiple and isinstance(v, str) else v
        for k, v in obj.items() if v is not None and k != "params_path"
    }


_config = click.option(
    "--config", type=click.Path(exists=True), is_eager=True,
    expose_value=False, callback=_read_config,
    help="JSON object of option defaults; flags override it.")


def _config_entry(key: str):
    """A config-only entry (``params``, ``gamma``, ``weights``) or None."""
    return (click.get_current_context().default_map or {}).get(key)


def _load_params(params_path: str | None) -> ModelParams:
    if params_path:
        return ModelParams.from_json(Path(params_path).read_text())
    config_params = _config_entry("params")
    if config_params is not None:
        return ModelParams.from_dict(config_params)
    raise click.UsageError(
        "model parameters required: pass --params FILE or a 'params' "
        "object in --config")


def _output(out: str | None):
    return _open(sys.stdout if out in (None, "-") else out, "w")


def _emit_json(obj: dict, out: str | None) -> None:
    with _output(out) as fp:
        fp.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


class _NumberList(click.ParamType):
    """A comma-separated string ('1' or '0.5,1,2') or a list, as a config
    file gives it."""

    name = "list"

    def __init__(self, number: type) -> None:
        self.number = number

    def convert(self, value, param, ctx):
        items = value.split(",") if isinstance(value, str) else value
        try:
            nums = [float(v) for v in items if str(v).strip()]
        except (TypeError, ValueError) as exc:
            self.fail(f"expected comma-separated numbers: {exc}", param, ctx)
        if self.number is int and not all(x.is_integer() for x in nums):
            self.fail(f"expected comma-separated integers, got {value!r}",
                      param, ctx)
        return [self.number(x) for x in nums]


class _Finite(click.FloatRange):
    """A FloatRange that also refuses NaN and inf, which FloatRange admits."""

    def convert(self, value, param, ctx):
        x = super().convert(value, param, ctx)
        if not np.isfinite(x):
            self.fail(f"{x} is not a finite number.", param, ctx)
        return x


_POSITIVE = _Finite(min=0, min_open=True)


# ---------------------------------------------------------------------------
# Group


class _Group(click.Group):
    """Reports library and file errors as one line on stderr, exit code 1."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (PMBPError, OSError, json.JSONDecodeError) as exc:
            raise click.ClickException(f"{type(exc).__name__}: {exc}") from exc


@click.group(cls=_Group)
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
@_config
@click.option("--params", "params_path", type=click.Path(exists=True),
              help="Model parameter JSON file.")
@click.option("--t-end", type=float, required=True, help="Simulation horizon.")
@click.option("--seed", type=click.IntRange(min=0), default=0,
              help="RNG seed (default 0).")
@click.option("--out", type=click.Path(), help="Output JSONL (default stdout).")
def cmd_sample_hawkes(params_path, t_end, seed, out):
    """Simulate a self-exciting process by thinning; emit events as JSONL."""
    params = _load_params(params_path)
    hist = sample_hawkes(params, t_end, seed)
    log.info("sampled %s events on [0, %g]",
             [len(t) for t in hist.times], t_end)
    with _output(out) as fp:
        write_events(hist, fp)


@main.command("sample-pmbp")
@_config
@click.option("--params", "params_path", type=click.Path(exists=True))
@click.option("--t-end", type=float, required=True, help="Simulation horizon.")
@click.option("--seed", type=click.IntRange(min=0), default=0,
              help="RNG seed (default 0).")
@click.option("--out", type=click.Path())
def cmd_sample_pmbp(params_path, t_end, seed, out):
    """Simulate the partially-censored model exactly; emit JSONL events.

    Censored-block dimensions get materialized timestamps too (draws from
    the expected intensity); censor them afterwards if counts are wanted.
    """
    params = _load_params(params_path)
    hist = sample_pmbp(params, t_end, seed)
    log.info("sampled %s events on [0, %g]",
             [len(t) for t in hist.times], t_end)
    with _output(out) as fp:
        write_events(hist, fp)


@main.command("censor")
@_config
@click.option("--events", type=click.Path(exists=True),
              help="Input events JSONL (default stdin).")
@click.option("--dims", type=_NumberList(int), required=True,
              help="Comma-separated 1-based dimensions to censor, e.g. '1'.")
@click.option("--width", type=_POSITIVE, required=True,
              help="Censoring window width.")
@click.option("--out", type=click.Path())
def cmd_censor(events, dims, width, out):
    """Replace chosen dimensions' timestamps by interval counts."""
    hist = read_events(events or sys.stdin)
    ds = censor(hist, dims, width)
    log.info("censored dims %s at width %g: counts %s", dims, width,
             [int(s.counts.sum()) for s in ds.censored])
    with _output(out) as fp:
        write_dataset(ds, fp)


# ---------------------------------------------------------------------------
# Fitting


@main.command("fit")
@_config
@click.option("--data", type=click.Path(exists=True), multiple=True,
              required=True, help="Dataset JSON; repeat for a joint fit.")
@click.option("--n-starts", type=int, default=8)
@click.option("--max-iter", type=int, default=500)
@click.option("--tol-f", type=float, default=1e-7)
@click.option("--seed", type=int, default=0)
@click.option("--include-gamma/--no-include-gamma", default=False,
              help="Estimate the impulse weights instead of fixing them.")
@click.option("--w-nu", type=float, default=0.0,
              help="L1 penalty weight on backgrounds.")
@click.option("--out", type=click.Path())
def cmd_fit(data, n_starts, max_iter, tol_f, seed, include_gamma, w_nu, out):
    """Maximum-likelihood fit of one or more datasets; JSON result."""
    datasets = [read_dataset(p) for p in data]
    cfg = FitConfig(
        n_starts=n_starts,
        max_iter=max_iter,
        tol_f=tol_f,
        seed=seed,
        include_gamma=include_gamma,
        gamma=_config_entry("gamma"),
        likelihood=LikelihoodConfig(w_nu=w_nu,
                                    weights=_config_entry("weights")),
    )
    result = fit(datasets, cfg)
    log.info("fit finished in %.2fs: nll=%.6f converged=%s",
             result.wall_time_s, result.nll, result.converged)
    _emit_json(result.to_dict(with_wall_time=False), out)


# ---------------------------------------------------------------------------
# Evaluation


@main.command("evaluate")
@_config
@click.option("--params", "params_path", type=click.Path(exists=True))
@click.option("--data", type=click.Path(exists=True),
              help="Dataset JSON providing the conditioning events.")
@click.option("--step", type=_POSITIVE, default=0.1,
              help="Output time spacing (default 0.1).")
@click.option("--t-end", type=float,
              help="Evaluation horizon (default: dataset horizon).")
@click.option("--out", type=click.Path())
def cmd_evaluate(params_path, data, step, t_end, out):
    """Expected intensity and compensator on a time grid; CSV output."""
    params = _load_params(params_path)
    if data:
        ds = read_dataset(data)
        if ds.d != params.d or ds.e != params.e:
            raise click.ClickException(
                f"dataset split ({ds.e}/{ds.d}) does not match the model "
                f"({params.e}/{params.d})")
        events = ds.event_list()
        T_default = ds.T
    else:
        events = [np.zeros(0)] * params.d
        T_default = None
    if t_end is not None and not np.isfinite(t_end):
        raise click.BadParameter("must be finite", param_hint="'--t-end'")
    T = float((T_default if t_end is None else t_end) or 0.0)
    if T <= 0:
        raise click.UsageError("--t-end (or a dataset) is required")
    n_out = max(1, int(round(T / step)))
    times = np.linspace(0.0, n_out * step, n_out + 1)
    times = times[times <= T * (1 + 1e-12)]
    values = PoiEvaluator(params, events).values(times)
    d = params.d
    header = (["t"] + [f"xi_{j + 1}" for j in range(d)]
              + [f"Xi_{j + 1}" for j in range(d)])
    rows = (
        [t] + list(values.xi[i]) + list(values.Xi[i])
        for i, t in enumerate(values.t)
    )
    with _output(out) as fp:
        write_csv(fp, header, rows)


# ---------------------------------------------------------------------------
# Prediction


@main.command("predict")
@_config
@click.option("--params", "params_path", type=click.Path(exists=True))
@click.option("--data", type=click.Path(exists=True), required=True,
              help="Training dataset JSON (history up to its horizon).")
@click.option("--horizon", type=_POSITIVE, required=True,
              help="Forecast length past the data.")
@click.option("--width", type=_POSITIVE, default=1.0,
              help="Forecast interval width.")
@click.option("--out", type=click.Path())
def cmd_predict(params_path, data, horizon, width, out):
    """Forecast censored-dimension counts on future intervals; CSV output.

    Gives the exact mean and sd of the censored block's compensator
    increment per interval, over the observed dimensions' continuations.
    """
    params = _load_params(params_path)
    ds = read_dataset(data)
    n_iv = int(np.ceil(horizon / width - 1e-12))
    bnds = ds.T + np.minimum(width * np.arange(n_iv + 1), horizon)
    pred = predict_counts(params, ds, bnds, 1, 0)  # both unused: exact
    header = ["interval_start", "interval_end", "dim", "mean", "sd"]
    rows = (
        [pred.boundaries[k], pred.boundaries[k + 1], j + 1,
         pred.mean[k, j], pred.sd[k, j]]
        for k in range(len(pred.boundaries) - 1)
        for j in range(params.e)
    )
    with _output(out) as fp:
        write_csv(fp, header, rows)


# ---------------------------------------------------------------------------
# Recovery experiment


@main.command("recover")
@_config
@click.option("--params", "params_path", type=click.Path(exists=True),
              help="True model parameters JSON.")
@click.option("--n-sequences", type=int, default=50)
@click.option("--group-size", type=int, default=10)
@click.option("--censor-widths", type=_NumberList(float), default="1",
              help="Comma-separated widths, e.g. '1' or '0.5,1,2'.")
@click.option("--t-end", type=float, default=60.0)
@click.option("--seed", type=click.IntRange(min=0), default=0)
@click.option("--n-starts", type=int, default=2)
@click.option("--max-iter", type=int, default=250)
@click.option("--threads", type=int, default=lambda: os.cpu_count() or 1,
              help="Parallel fit workers (default: available cores).")
@click.option("--out-rows", type=click.Path(),
              help="Per-group estimates CSV (default stdout).")
@click.option("--out-summary", type=click.Path(),
              help="Mean/median/IQR CSV (omitted unless given).")
def cmd_recover(params_path, n_sequences, group_size, censor_widths, t_end,
                seed, n_starts, max_iter, threads, out_rows, out_summary):
    """Simulate from known parameters, refit in groups, tabulate estimates.

    Emits one row per (parameter, likelihood mode, group): full-event fits
    are labelled PP-PP; fits with dimension 1 censored at width w are
    labelled IC-PP[w].
    """
    params = _load_params(params_path)
    fit_cfg = FitConfig(n_starts=n_starts, max_iter=max_iter, tol_f=1e-6)
    rows, summary = recovery_experiment(
        params, n_sequences, group_size, censor_widths, seed, T=t_end,
        fit_config=fit_cfg, n_jobs=threads,
    )
    log.info("recovery: %d rows over %d groups x %d modes",
             len(rows), n_sequences // group_size, 1 + len(censor_widths))
    row_header = ["param_name", "true_value", "likelihood_mode",
                  "group_index", "estimate"]
    with _output(out_rows) as fp:
        write_csv(fp, row_header,
                  ([r[k] for k in row_header] for r in rows))
    if out_summary:
        s_header = ["param_name", "likelihood_mode", "mean", "median", "iqr"]
        with _output(out_summary) as fp:
            write_csv(fp, s_header,
                      ([s[k] for k in s_header] for s in summary))


# ---------------------------------------------------------------------------
# Goodness of fit


@main.command("gof")
@_config
@click.option("--params", "params_path", type=click.Path(exists=True))
@click.option("--data", type=click.Path(exists=True), required=True)
@click.option("--out", type=click.Path())
def cmd_gof(params_path, data, out):
    """Goodness-of-fit diagnostics for a fitted model on a dataset; JSON."""
    params = _load_params(params_path)
    report = gof_report(params, read_dataset(data))
    _emit_json(report.to_dict(), out)


# ---------------------------------------------------------------------------
# Gradient check


@main.command("grad-check")
@_config
@click.option("--params", "params_path", type=click.Path(exists=True),
              help="Center of the random parameter draws.")
@click.option("--data", type=click.Path(exists=True), required=True)
@click.option("--n-points", type=click.IntRange(min=1), default=5,
              help="Random test points (default 5).")
@click.option("--seed", type=click.IntRange(min=0), default=0)
@click.option("--tolerance", type=_Finite(min=0), default=1e-3,
              help="Relative mismatch allowed (default 1e-3).")
@click.option("--out", type=click.Path())
def cmd_grad_check(params_path, data, n_points, seed, tolerance, out):
    """Compare analytic likelihood gradients with finite differences; JSON.

    Draws parameter points around --params (log-normal jitter, kept inside
    the stable region), reports the worst relative mismatch per parameter,
    and exits nonzero if any exceeds the tolerance.
    """
    params = _load_params(params_path)
    prep = _Prepared([read_dataset(data)])
    names = _param_names(params.d)[:-1]  # flat layout, minus the radius
    rng = np.random.default_rng(seed)
    worst = np.zeros(n_free(params.d, False))
    for _ in range(n_points):
        point = _jitter_params(params, rng)
        x = pack(point, False)

        def f(vec):
            return joint_nll(unpack(point, vec, False), prep)

        _, g = nll_and_grad(point, prep)
        g_fd = fd_gradient(f, x)
        rel = np.abs(g - g_fd) / np.maximum(np.abs(g_fd), 1e-6)
        worst = np.maximum(worst, rel)
    report = {
        "n_points": n_points,
        "tolerance": tolerance,
        "max_relative_error": float(worst.max()),
        "per_parameter": {nm: float(v) for nm, v in zip(names, worst)},
        "passed": bool(worst.max() <= tolerance),
    }
    _emit_json(report, out)
    if not report["passed"]:
        raise click.ClickException(
            f"gradient mismatch {worst.max():.3e} exceeds tolerance "
            f"{tolerance:g}")


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
