"""Serialization helpers and the command-line interface."""

import io
import json

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from pmbp import (
    DimensionError,
    censor,
    format_float,
    read_csv,
    read_dataset,
    read_events,
    sample_hawkes,
    write_csv,
    write_dataset,
    write_events,
)
from pmbp.cli import main


# ---------------------------------------------------------------------------
# event and dataset files


def test_event_round_trip_and_byte_stability(hawkes2):
    hist = sample_hawkes(hawkes2, 30.0, seed=5)
    buf1, buf2 = io.StringIO(), io.StringIO()
    write_events(hist, buf1)
    back = read_events(io.StringIO(buf1.getvalue()))
    assert back.T == hist.T
    assert all(np.array_equal(a, b) for a, b in zip(back.times, hist.times))
    write_events(back, buf2)
    assert buf1.getvalue() == buf2.getvalue()


def test_event_lines_are_time_ordered(hawkes2):
    hist = sample_hawkes(hawkes2, 30.0, seed=5)
    buf = io.StringIO()
    write_events(hist, buf)
    lines = buf.getvalue().strip().split("\n")
    times = [json.loads(line)["t"] for line in lines[1:]]
    assert times == sorted(times)


def test_dataset_round_trip(hawkes2):
    hist = sample_hawkes(hawkes2, 25.0, seed=6)
    ds = censor(hist, dims=[1], width=2.0)
    buf = io.StringIO()
    write_dataset(ds, buf)
    back = read_dataset(io.StringIO(buf.getvalue()))
    assert back.T == ds.T and back.d == ds.d and back.e == ds.e
    assert np.array_equal(back.censored[0].counts, ds.censored[0].counts)
    assert np.array_equal(back.censored[0].boundaries, ds.censored[0].boundaries)
    assert np.array_equal(back.events[0], ds.events[0])


def test_censor_conserves_counts_and_checks_dims(hawkes2):
    hist = sample_hawkes(hawkes2, 25.0, seed=6)
    ds = censor(hist, dims=[1], width=2.0)
    assert ds.censored[0].counts.sum() == hist.times[0].size
    assert np.array_equal(ds.events[0], hist.times[1])
    with pytest.raises(DimensionError):
        censor(hist, dims=[2], width=2.0)  # censored block must be leading


@given(st.floats(allow_nan=False, allow_infinity=False))
@settings(max_examples=200, deadline=None)
def test_format_float_round_trips(x):
    assert float(format_float(x)) == x


def test_csv_round_trip():
    header = ["name", "value", "flag"]
    rows = [["a", 1.25, True], ["b", -3.0e-17, False]]
    buf = io.StringIO()
    write_csv(buf, header, rows)
    text = buf.getvalue()
    assert "\r" not in text
    hdr, parsed = read_csv(io.StringIO(text))
    assert hdr == header
    assert float(parsed[1][1]) == -3.0e-17


# ---------------------------------------------------------------------------
# CLI


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def workdir(tmp_path, hawkes2, pmbp21_sub):
    (tmp_path / "hawkes.json").write_text(hawkes2.to_json())
    (tmp_path / "pmbp.json").write_text(pmbp21_sub.to_json())
    return tmp_path


def _run(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result


def _run_twice_identical(runner, args, out_path):
    _run(runner, args)
    first = out_path.read_bytes()
    _run(runner, args)
    assert out_path.read_bytes() == first
    return first


def test_cli_sample_hawkes(runner, workdir):
    out = workdir / "ev.jsonl"
    args = ["sample-hawkes", "--params", str(workdir / "hawkes.json"),
            "--t-end", "20", "--seed", "3", "--out", str(out)]
    _run_twice_identical(runner, args, out)
    with open(out) as fp:
        hist = read_events(fp)
    assert hist.T == 20.0
    assert hist.counts().sum() > 0


def test_cli_sample_pmbp_censor_evaluate(runner, workdir):
    ev = workdir / "ev.jsonl"
    _run(runner, ["sample-pmbp", "--params", str(workdir / "pmbp.json"),
                  "--t-end", "15", "--seed", "4", "--out", str(ev)])
    ds_path = workdir / "ds.json"
    _run_twice_identical(
        runner,
        ["censor", "--events", str(ev), "--dims", "1", "--width", "3",
         "--out", str(ds_path)],
        ds_path,
    )
    with open(ds_path) as fp:
        ds = read_dataset(fp)
    assert ds.e == 1 and ds.T == 15.0

    table = workdir / "vals.csv"
    _run_twice_identical(
        runner,
        ["evaluate", "--params", str(workdir / "pmbp.json"),
         "--data", str(ds_path), "--step", "0.5", "--out", str(table)],
        table,
    )
    with open(table) as fp:
        hdr, rows = read_csv(fp)
    assert hdr == ["t", "xi_1", "xi_2", "Xi_1", "Xi_2"]
    t = np.array([float(r[0]) for r in rows])
    Xi1 = np.array([float(r[3]) for r in rows])
    assert t[0] == 0.0 and t[-1] == 15.0
    assert np.all(np.diff(Xi1) >= -1e-9)


def test_cli_fit_predict_gof(runner, workdir):
    ev = workdir / "ev.jsonl"
    ds_path = workdir / "ds.json"
    _run(runner, ["sample-pmbp", "--params", str(workdir / "pmbp.json"),
                  "--t-end", "12", "--seed", "8", "--out", str(ev)])
    _run(runner, ["censor", "--events", str(ev), "--dims", "1",
                  "--width", "2", "--out", str(ds_path)])

    fit_out = workdir / "fit.json"
    fit_args = ["fit", "--data", str(ds_path),
                "--n-starts", "1", "--max-iter", "15", "--seed", "2",
                "--out", str(fit_out)]
    _run_twice_identical(runner, fit_args, fit_out)
    doc = json.loads(fit_out.read_text())
    assert {"params", "nll", "converged", "starts"} <= set(doc)
    assert "wall_time_s" not in doc
    # every start reports the projected gradient where it stopped
    for start in doc["starts"]:
        assert isinstance(start["pg_norm"], float) and start["pg_norm"] >= 0.0

    pred = workdir / "pred.csv"
    _run_twice_identical(
        runner,
        ["predict", "--params", str(workdir / "pmbp.json"),
         "--data", str(ds_path), "--horizon", "4", "--width", "2",
         "--out", str(pred)],
        pred,
    )
    with open(pred) as fp:
        hdr, rows = read_csv(fp)
    assert hdr == ["interval_start", "interval_end", "dim", "mean", "sd"]
    assert [r[0] for r in rows] == ["12", "14"]
    assert all(r[2] == "1" for r in rows)

    gof_out = workdir / "gof.json"
    _run_twice_identical(
        runner,
        ["gof", "--params", str(workdir / "pmbp.json"),
         "--data", str(ds_path), "--out", str(gof_out)],
        gof_out,
    )
    doc = json.loads(gof_out.read_text())
    assert "dimensions" in doc


def test_cli_grad_check(runner, workdir):
    ev = workdir / "ev.jsonl"
    ds_path = workdir / "ds.json"
    _run(runner, ["sample-pmbp", "--params", str(workdir / "pmbp.json"),
                  "--t-end", "10", "--seed", "8", "--out", str(ev)])
    _run(runner, ["censor", "--events", str(ev), "--dims", "1",
                  "--width", "2", "--out", str(ds_path)])
    out = workdir / "gc.json"
    _run(runner, ["grad-check", "--params", str(workdir / "pmbp.json"),
                  "--data", str(ds_path), "--n-points", "2", "--seed", "6",
                  "--out", str(out)])
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    assert doc["max_relative_error"] < 1e-3


def test_cli_recover_schema_and_thread_invariance(runner, workdir):
    rows_p, sum_p = workdir / "rows.csv", workdir / "summary.csv"
    base = ["recover", "--params", str(workdir / "hawkes.json"),
            "--n-sequences", "2", "--group-size", "1", "--t-end", "12",
            "--censor-widths", "2", "--seed", "3",
            "--n-starts", "1", "--max-iter", "10",
            "--out-rows", str(rows_p), "--out-summary", str(sum_p)]
    _run(runner, base + ["--threads", "1"])
    rows1, sum1 = rows_p.read_bytes(), sum_p.read_bytes()
    _run(runner, base + ["--threads", "3"])
    assert rows_p.read_bytes() == rows1
    assert sum_p.read_bytes() == sum1
    with open(rows_p) as fp:
        hdr, rows = read_csv(fp)
    assert hdr == ["param_name", "true_value", "likelihood_mode",
                   "group_index", "estimate"]
    assert {r[2] for r in rows} == {"PP-PP", "IC-PP[2]"}
    with open(sum_p) as fp:
        hdr, _ = read_csv(fp)
    assert hdr == ["param_name", "likelihood_mode", "mean", "median", "iqr"]


def test_cli_config_file_and_flag_precedence(runner, workdir, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "params": json.loads((workdir / "hawkes.json").read_text()),
        "t_end": 10.0,
        "seed": 1,
    }))
    out_a, out_b = workdir / "a.jsonl", workdir / "b.jsonl"
    _run(runner, ["sample-hawkes", "--config", str(cfg), "--out", str(out_a)])
    with open(out_a) as fp:
        assert read_events(fp).T == 10.0
    # a flag overrides the same key in the config file
    _run(runner, ["sample-hawkes", "--config", str(cfg), "--t-end", "5",
                  "--out", str(out_b)])
    with open(out_b) as fp:
        assert read_events(fp).T == 5.0


def test_cli_error_exits(runner, workdir):
    res = runner.invoke(main, ["sample-hawkes", "--params", "/no/such.json",
                               "--t-end", "5"])
    assert res.exit_code != 0
    bad = workdir / "bad.json"
    bad.write_text("{not json")
    res = runner.invoke(main, ["sample-hawkes", "--params", str(bad),
                               "--t-end", "5"])
    assert res.exit_code != 0
    # t-end missing entirely
    res = runner.invoke(main, ["sample-hawkes",
                               "--params", str(workdir / "hawkes.json")])
    assert res.exit_code != 0


def test_cli_config_lists_match_flags(runner, workdir, tmp_path):
    # list-valued config entries give the same bytes as the equivalent flags
    def cfg(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return ["--config", str(path)]

    ev = workdir / "ev.jsonl"
    _run(runner, ["sample-pmbp", "--params", str(workdir / "pmbp.json"),
                  "--t-end", "12", "--seed", "8", "--out", str(ev)])
    ds_flag, ds_cfg = workdir / "ds_flag.json", workdir / "ds_cfg.json"
    _run(runner, ["censor", "--events", str(ev), "--dims", "1",
                  "--width", "2", "--out", str(ds_flag)])
    _run(runner, ["censor"] + cfg("censor.json", {
        "events": str(ev), "dims": [1], "width": 2, "out": str(ds_cfg)}))
    assert ds_cfg.read_bytes() == ds_flag.read_bytes()

    fit_flag, fit_cfg = workdir / "fit_flag.json", workdir / "fit_cfg.json"
    _run(runner, ["fit", "--data", str(ds_flag), "--data", str(ds_cfg),
                  "--n-starts", "1", "--max-iter", "8", "--seed", "2",
                  "--out", str(fit_flag)])
    _run(runner, ["fit"] + cfg("fit.json", {
        "data": [str(ds_flag), str(ds_cfg)], "weights": [1.0, 1.0],
        "n_starts": 1, "max_iter": 8, "seed": 2, "out": str(fit_cfg)}))
    assert fit_cfg.read_bytes() == fit_flag.read_bytes()

    rows_flag, rows_cfg = workdir / "rows_flag.csv", workdir / "rows_cfg.csv"
    recover = ["--n-sequences", "1", "--group-size", "1", "--t-end", "10",
               "--seed", "3", "--n-starts", "1", "--max-iter", "5",
               "--threads", "1"]
    _run(runner, ["recover", "--params", str(workdir / "hawkes.json"),
                  "--censor-widths", "1,2", "--out-rows", str(rows_flag)]
         + recover)
    _run(runner, ["recover"] + recover + cfg("recover.json", {
        "params": json.loads((workdir / "hawkes.json").read_text()),
        "censor_widths": [1, 2], "out_rows": str(rows_cfg)}))
    assert rows_cfg.read_bytes() == rows_flag.read_bytes()
    with open(rows_cfg) as fp:
        _, rows = read_csv(fp)
    assert {r[2] for r in rows} == {"PP-PP", "IC-PP[1]", "IC-PP[2]"}


def test_cli_config_lone_string_for_repeated_option(runner, workdir, tmp_path):
    # a config 'data' entry may be one path rather than a list of paths
    ev, ds = workdir / "ev1.jsonl", workdir / "ds1.json"
    _run(runner, ["sample-pmbp", "--params", str(workdir / "pmbp.json"),
                  "--t-end", "12", "--seed", "8", "--out", str(ev)])
    _run(runner, ["censor", "--events", str(ev), "--dims", "1",
                  "--width", "2", "--out", str(ds)])
    fit_flag, fit_cfg = workdir / "fit1_flag.json", workdir / "fit1_cfg.json"
    common = ["--n-starts", "1", "--max-iter", "3", "--seed", "2"]
    _run(runner, ["fit", "--data", str(ds), "--out", str(fit_flag)] + common)
    cfg = tmp_path / "fit.json"
    cfg.write_text(json.dumps({"data": str(ds), "out": str(fit_cfg)}))
    _run(runner, ["fit", "--config", str(cfg)] + common)
    assert fit_cfg.read_bytes() == fit_flag.read_bytes()


def test_cli_exact_commands_take_no_sampling_knobs(runner, workdir, tmp_path):
    # gof and predict are exact: their removed sampling flags are usage
    # errors, and stale config keys of the same names are ignored
    ev, ds = workdir / "ev2.jsonl", workdir / "ds2.json"
    _run(runner, ["sample-pmbp", "--params", str(workdir / "pmbp.json"),
                  "--t-end", "12", "--seed", "8", "--out", str(ev)])
    _run(runner, ["censor", "--events", str(ev), "--dims", "1",
                  "--width", "2", "--out", str(ds)])
    common = ["--params", str(workdir / "pmbp.json"), "--data", str(ds)]
    commands = {"gof": common,
                "predict": common + ["--horizon", "4", "--width", "2"]}
    for name, flag in [("gof", "--n-draws"), ("gof", "--seed"),
                       ("predict", "--n-samples"), ("predict", "--seed")]:
        res = runner.invoke(main, [name] + commands[name] + [flag, "5"])
        assert res.exit_code == 2, (name, flag)
        assert "No such option" in res.output
    for name, args in commands.items():
        by_flag, by_cfg = workdir / f"{name}_flag", workdir / f"{name}_cfg"
        _run(runner, [name] + args + ["--out", str(by_flag)])
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps({"n_draws": 5, "n_samples": 5, "seed": 5,
                                   "out": str(by_cfg)}))
        _run(runner, [name, "--config", str(cfg)] + args)
        assert by_cfg.read_bytes() == by_flag.read_bytes()


@pytest.mark.parametrize("dims", ["1.5", "0.9"])
def test_cli_dims_must_be_integers(runner, workdir, dims):
    # a fractional dimension is a usage error, not truncated to an integer
    ev = workdir / "ev3.jsonl"
    _run(runner, ["sample-pmbp", "--params", str(workdir / "pmbp.json"),
                  "--t-end", "12", "--seed", "8", "--out", str(ev)])
    res = runner.invoke(main, ["censor", "--events", str(ev), "--dims", dims,
                               "--width", "2"])
    assert res.exit_code == 2
    assert "expected comma-separated integers" in res.output


@pytest.mark.parametrize("args", [["censor", "--dims", "x", "--width", "1"],
                                  ["censor", "--dims", "1", "--width", "0"]],
                         ids=["dims", "width"])
def test_cli_invalid_flag_value_is_a_usage_error(runner, workdir, args):
    res = runner.invoke(main, args)
    assert res.exit_code == 2
    assert not isinstance(res.exception, ValueError)
    assert "Traceback" not in res.output


@pytest.mark.parametrize("name", sorted(main.commands))
def test_cli_help_lists_config(runner, name):
    res = runner.invoke(main, [name, "--help"])
    assert res.exit_code == 0
    assert "--config" in res.output
