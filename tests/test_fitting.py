"""Maximum-likelihood fitting and the parameter-recovery experiment."""

import json

import numpy as np
import pytest

from pmbp import (
    CensoredSeries,
    Dataset,
    FitConfig,
    ModelParams,
    ParameterError,
    fd_gradient,
    fit,
    pack,
    recovery_experiment,
    sample_hawkes,
)
from pmbp.fitting import (
    _bounds,
    _empirical_rates,
    _minimize_box,
    _Objective,
    _starts,
)
from pmbp.paramvec import unpack


def _poisson_events_dataset(rate=2.0, T=60.0, seed=1):
    rng = np.random.default_rng(seed)
    n = rng.poisson(rate * T)
    times = np.sort(rng.uniform(0.0, T, size=n))
    return Dataset(T=T, censored=(), events=(times,)), n / T


def test_fd_gradient_on_quadratic():
    A = np.array([[2.0, 0.5], [0.5, 1.0]])
    b = np.array([1.0, -2.0])
    f = lambda x: 0.5 * x @ A @ x + b @ x
    x0 = np.array([0.3, -0.7])
    g = fd_gradient(f, x0)
    assert np.allclose(g, A @ x0 + b, rtol=1e-7, atol=1e-9)


def test_poisson_rate_mle_events():
    # with the jump matrix pinned to ~0 the model is homogeneous Poisson and
    # the rate estimate must land on events/T
    ds, rate_hat = _poisson_events_dataset()
    cfg = FitConfig(alpha_max=1e-9, n_starts=2, max_iter=200, seed=3)
    res = fit([ds], cfg)
    assert res.params.nu[0] == pytest.approx(rate_hat, abs=2e-3)
    assert res.converged


def test_poisson_rate_mle_window_counts():
    rng = np.random.default_rng(7)
    T, width = 40.0, 1.0
    counts = rng.poisson(1.8, size=int(T / width))
    bounds = width * np.arange(int(T / width) + 1)
    ds = Dataset(T=T, censored=(CensoredSeries(bounds, counts),), events=())
    cfg = FitConfig(alpha_max=1e-9, n_starts=2, max_iter=200, seed=3)
    res = fit([ds], cfg)
    assert res.params.nu[0] == pytest.approx(counts.sum() / T, abs=5e-3)


def test_hawkes_1d_recovery():
    truth = ModelParams(d=1, e=0, theta=[[1.3]], alpha=[[0.5]],
                        gamma=[0.0], nu=[0.7])
    data = [
        Dataset(T=80.0, censored=(), events=tuple(sample_hawkes(truth, 80.0, s).times))
        for s in range(101, 109)
    ]
    res = fit(data, FitConfig(n_starts=3, max_iter=300, seed=5))
    assert res.params.alpha[0, 0] == pytest.approx(0.5, abs=0.15)
    assert res.params.nu[0] == pytest.approx(0.7, abs=0.25)
    assert res.regularity.subcritical


def test_fit_is_deterministic():
    ds, _ = _poisson_events_dataset(T=20.0)
    cfg = FitConfig(n_starts=2, max_iter=60, seed=11)
    r1 = fit([ds], cfg)
    r2 = fit([ds], cfg)
    assert json.dumps(r1.to_dict(with_wall_time=False), sort_keys=True) == \
        json.dumps(r2.to_dict(with_wall_time=False), sort_keys=True)


def test_fit_result_serialization_round_trip():
    ds, _ = _poisson_events_dataset(T=20.0)
    res = fit([ds], FitConfig(n_starts=1, max_iter=40))
    doc = res.to_dict()
    assert set(doc) == {"params", "nll", "converged", "include_gamma",
                        "starts", "regularity", "wall_time_s"}
    rebuilt = ModelParams.from_dict(doc["params"])
    assert rebuilt == res.params
    json.dumps(doc)  # must be JSON-serializable as-is


def test_start_records_report_the_projected_gradient():
    # pg_norm is the max-norm of x - clip(x - g, lb, ub) at each start's
    # returned point, recomputed here from the exact gradient there
    ds, _ = _poisson_events_dataset(T=20.0)
    cfg = FitConfig(n_starts=2, max_iter=40, seed=5)
    res = fit([ds], cfg)
    lb, ub = _bounds(cfg, 1, _empirical_rates([ds]))
    f_and_g = _Objective(res.params, [ds], cfg)
    best = min(res.starts, key=lambda s: s.nll)
    x = pack(res.params)
    g = f_and_g(x)[1]
    assert best.pg_norm == np.max(np.abs(x - np.clip(x - g, lb, ub)))
    for start in res.starts:
        assert start.to_dict()["pg_norm"] == start.pg_norm
        if start.reason == "projected_gradient":
            assert start.pg_norm <= 1e-5


def _sequential_fit(datasets, cfg):
    """fit's starts run one after another, each optimizer alone on
    single-point evaluations: (StartRecord fields and returned x per start,
    the template)."""
    d, e = datasets[0].d, datasets[0].e
    template = ModelParams(d=d, e=e, theta=np.ones((d, d)),
                           alpha=np.zeros((d, d)), gamma=np.zeros(d),
                           nu=np.ones(d))
    emp = _empirical_rates(datasets)
    lb, ub = _bounds(cfg, d, emp)
    objective = _Objective(template, datasets, cfg)
    runs = []
    for k, x0 in enumerate(_starts(cfg, d, e, emp, lb, ub)):
        run = _minimize_box(x0, lb, ub, cfg.max_iter, cfg.tol_f)
        try:
            x = next(run)
            while True:
                x = run.send(objective(x))
        except StopIteration as stop:
            x, fx, n_iter, reason, pg_norm = stop.value
        runs.append(((k, x0, fx, n_iter, reason, pg_norm), x))
    return runs, template


def _bits(value):
    return np.asarray(value, dtype=float).tobytes()


@pytest.mark.parametrize("e", [0, 1])
@pytest.mark.parametrize("n_starts", [1, 2, 8])
def test_lockstep_starts_match_sequential_runs(e, n_starts):
    # fit advances all starts together and evaluates each round's points
    # in one batch; every start takes the steps it takes alone
    truth = ModelParams(d=2, e=0, theta=np.ones((2, 2)),
                        alpha=[[0.3, 0.2], [0.2, 0.3]], gamma=np.zeros(2),
                        nu=[0.4, 0.4])
    datasets = []
    for seed in (3, 4):
        times = sample_hawkes(truth, 30.0, seed).times
        censored = ()
        if e:
            bounds = np.arange(31.0)
            censored = (CensoredSeries(bounds, np.histogram(times[0],
                                                            bounds)[0]),)
        datasets.append(Dataset(T=30.0, censored=censored,
                                events=tuple(times[e:])))
    cfg = FitConfig(n_starts=n_starts, max_iter=8, seed=n_starts + e)
    res = fit(datasets, cfg)
    runs, template = _sequential_fit(datasets, cfg)
    assert len(res.starts) == n_starts
    best = None
    for rec, ((k, x0, fx, n_iter, reason, pg_norm), x) in zip(res.starts, runs):
        assert (rec.start_index, rec.n_iter, rec.reason) == (k, n_iter, reason)
        assert _bits(rec.x0) == _bits(x0)
        assert _bits(rec.nll) == _bits(fx)
        assert _bits(rec.pg_norm) == _bits(pg_norm)
        if np.isfinite(fx) and (best is None or fx < best[1]):
            best = (x, fx, k)
    assert res.params == unpack(template, best[0])
    assert _bits(res.nll) == _bits(best[1])
    assert res.converged == res.starts[best[2]].converged


def test_fit_rejects_mixed_splits():
    ds1, _ = _poisson_events_dataset(T=20.0)
    counts = np.array([1.0, 2.0])
    ds2 = Dataset(T=2.0, censored=(CensoredSeries([0.0, 1.0, 2.0], counts),),
                  events=())
    with pytest.raises(ParameterError):
        fit([ds1, ds2], FitConfig(n_starts=1))


def test_supercritical_censored_block_scores_inf():
    ds = Dataset(T=4.0, censored=(CensoredSeries([0.0, 1.0, 2.0, 3.0, 4.0],
                                                [1.0, 0.0, 2.0, 1.0]),),
                 events=(np.array([0.5, 2.5]),))
    template = ModelParams(d=2, e=1, theta=np.ones((2, 2)),
                           alpha=np.zeros((2, 2)), gamma=np.zeros(2),
                           nu=np.ones(2))
    x = pack(template.replace(alpha=np.array([[1.5, 0.2], [0.2, 0.3]])))
    f_and_g = _Objective(template, [ds], FitConfig())
    assert f_and_g(x) == (np.inf, None)


def test_config_validation():
    for kwargs in [
        dict(n_starts=0), dict(theta_min=0.0), dict(alpha_max=-1.0),
        # values that the fit cannot use, refused when the config is built
        dict(alpha_max=np.nan), dict(nu_max=-1.0), dict(nu_max=np.inf),
        dict(gamma_max=np.nan, include_gamma=True), dict(max_iter=-3),
        dict(tol_f=-1.0), dict(tol_f=np.nan), dict(theta_max=np.inf),
        dict(seed=-1),
    ]:
        with pytest.raises(ParameterError):
            FitConfig(**kwargs)


# ---------------------------------------------------------------------------
# recovery experiment


@pytest.fixture(scope="module")
def tiny_recovery(hawkes2):
    cfg = FitConfig(n_starts=1, max_iter=40, tol_f=1e-5)
    return dict(
        true_params=hawkes2, n_sequences=4, group_size=2,
        censor_widths=[2.0], seed=19, T=30.0, fit_config=cfg,
    )


def test_recovery_rows_and_summary_schema(tiny_recovery, hawkes2):
    rows, summary = recovery_experiment(**tiny_recovery)
    modes = {r["likelihood_mode"] for r in rows}
    assert modes == {"PP-PP", "IC-PP[2]"}
    names = {r["param_name"] for r in rows}
    assert "rho_alpha" in names and "alpha_12" in names and "nu_2" in names
    # 2 groups x 2 modes x (2*4 kernel + 2 baseline + 1 radius) entries
    assert len(rows) == 2 * 2 * 11
    assert len(summary) == 2 * 11
    for r in rows:
        if r["param_name"] == "alpha_11":
            assert r["true_value"] == pytest.approx(hawkes2.alpha[0, 0])
    for s in summary:
        assert set(s) == {"param_name", "likelihood_mode", "mean", "median", "iqr"}


def test_recovery_thread_count_invariance(tiny_recovery):
    rows1, sum1 = recovery_experiment(**tiny_recovery, n_jobs=1)
    rows3, sum3 = recovery_experiment(**tiny_recovery, n_jobs=3)
    assert json.dumps(rows1, sort_keys=True) == json.dumps(rows3, sort_keys=True)
    assert json.dumps(sum1, sort_keys=True) == json.dumps(sum3, sort_keys=True)


def test_recovery_input_validation(hawkes2):
    bad = hawkes2.replace(alpha=np.full((2, 2), 0.9))
    with pytest.raises(ParameterError):
        recovery_experiment(bad, 4, 2, [1.0], seed=0)
    with pytest.raises(ParameterError):
        recovery_experiment(hawkes2, 2, 5, [1.0], seed=0)
    with pytest.raises(ParameterError):
        recovery_experiment(hawkes2, 4, 2, [1.0], seed=0, n_jobs=0)
