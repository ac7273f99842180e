"""Parameter containers, validation, stability checks, censoring."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmbp import (
    CensoredSeries,
    Dataset,
    DimensionError,
    EventHistory,
    DomainError,
    ModelParams,
    ParameterError,
    PoiEvaluator,
    censor_series,
    check_subcriticality,
    pack,
    predict_counts,
    spectral_radius,
    unpack,
)
from pmbp.params import validate_events_for


def make_params(d=2, e=1, **kw):
    base = dict(
        d=d, e=e,
        theta=np.full((d, d), 1.0),
        alpha=np.full((d, d), 0.2),
        gamma=np.zeros(d),
        nu=np.full(d, 0.5),
    )
    base.update(kw)
    return ModelParams(**base)


# ---------------------------------------------------------------------------
# Construction and validation


def test_valid_construction_roundtrip():
    p = make_params()
    q = ModelParams.from_dict(p.to_dict())
    assert q == p


def test_e_out_of_range_rejected():
    with pytest.raises(DimensionError):
        make_params(e=3)
    with pytest.raises(DimensionError):
        make_params(e=-1)


def test_negative_alpha_rejected():
    with pytest.raises(ParameterError):
        make_params(alpha=[[0.2, -0.1], [0.2, 0.2]])


def test_nonpositive_theta_rejected():
    with pytest.raises(ParameterError):
        make_params(theta=[[1.0, 0.0], [1.0, 1.0]])


def test_negative_nu_and_gamma_rejected():
    with pytest.raises(ParameterError):
        make_params(nu=[-0.5, 0.5])
    with pytest.raises(ParameterError):
        make_params(gamma=[-1.0, 0.0])


_MESSAGES = {
    "theta": "theta entries must be finite and > 0",
    "alpha": "alpha entries must be finite and >= 0",
    "gamma": "gamma entries must be finite and >= 0",
    "nu": "nu entries must be finite and >= 0",
}


@pytest.mark.parametrize("field", sorted(_MESSAGES))
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.5, 0.0],
                         ids=["nan", "inf", "-inf", "negative", "zero"])
def test_invalid_entries_raise_the_field_message(field, bad):
    # one bad entry in one field raises ParameterError naming that field;
    # zero is invalid only for theta
    base = make_params()
    value = np.array(getattr(base, field))
    value.flat[-1] = bad
    if bad == 0.0 and field != "theta":
        assert np.array_equal(getattr(make_params(**{field: value}), field),
                              value)
        return
    with pytest.raises(ParameterError) as info:
        make_params(**{field: value})
    assert type(info.value) is ParameterError
    assert str(info.value) == _MESSAGES[field]


def test_shape_mismatch_rejected():
    with pytest.raises((DimensionError, ParameterError)):
        make_params(alpha=np.full((3, 3), 0.2))


def test_replace_updates_one_field():
    p = make_params()
    q = p.replace(nu=[1.0, 2.0])
    assert np.allclose(q.nu, [1.0, 2.0])
    assert np.allclose(q.alpha, p.alpha)


@pytest.mark.parametrize("include_gamma", [False, True])
def test_unpack_inverts_pack(include_gamma):
    p = make_params(d=3, e=1, theta=np.arange(1.0, 10.0).reshape(3, 3),
                    alpha=np.full((3, 3), 0.1), gamma=[0.1, 0.2, 0.3],
                    nu=[0.4, 0.5, 0.6])
    # the template gives d, e and, unless it is free, gamma
    template = make_params(d=3, e=1, gamma=p.gamma)
    vec = pack(p, include_gamma)
    q = unpack(template, vec, include_gamma)
    assert q == p
    vec[:] = 7.0  # the parameters own their arrays
    assert q == p
    d = 3
    for pos, value in ((0, -0.1), (d * d, 0.0), (2 * d * d, np.nan)):
        bad = pack(p, include_gamma)
        bad[pos] = value
        with pytest.raises(ParameterError):
            unpack(template, bad, include_gamma)
    if include_gamma:
        bad = pack(p, True)
        bad[-1] = -1.0
        with pytest.raises(ParameterError):
            unpack(template, bad, True)


# ---------------------------------------------------------------------------
# Spectral radius


def test_spectral_radius_matches_eig_small():
    rng = np.random.default_rng(0)
    for _ in range(25):
        n = rng.integers(1, 5)
        m = rng.uniform(0, 1, (n, n))
        want = float(np.max(np.abs(np.linalg.eigvals(m))))
        got = spectral_radius(m)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-10)


def test_spectral_radius_zero_matrix():
    assert spectral_radius(np.zeros((3, 3))) == 0.0


@settings(max_examples=40, deadline=None)
@given(
    scale=st.floats(0.1, 10.0),
    seed=st.integers(0, 10_000),
)
def test_spectral_radius_scales_linearly(scale, seed):
    rng = np.random.default_rng(seed)
    m = rng.uniform(0, 1, (3, 3))
    base = spectral_radius(m)
    assert spectral_radius(scale * m) == pytest.approx(scale * base,
                                                       rel=1e-7, abs=1e-9)


def test_subcriticality_report():
    p = make_params(alpha=[[0.3, 0.2], [0.2, 0.3]])
    rep = check_subcriticality(p)
    assert rep.subcritical
    assert rep.rho_EE == pytest.approx(0.3)
    assert 0.0 <= rep.rho_cross
    bad = make_params(alpha=[[1.2, 0.2], [0.2, 1.2]])
    assert not check_subcriticality(bad).subcritical
    d = rep.to_dict()
    assert set(d) >= {"rho_EE", "subcritical"}


# ---------------------------------------------------------------------------
# Event containers


def test_event_history_validation():
    h = EventHistory(times=(np.array([0.5, 1.0]), np.array([0.2])), T=2.0)
    assert h.d == 2
    assert np.array_equal(h.counts(), [2, 1])
    with pytest.raises(ParameterError):
        EventHistory(times=(np.array([1.0, 0.5]),), T=2.0)  # unsorted
    with pytest.raises(ParameterError):
        EventHistory(times=(np.array([-0.1]),), T=2.0)  # negative
    with pytest.raises(ParameterError):
        EventHistory(times=(np.array([3.0]),), T=2.0)  # past horizon


def test_censored_series_validation():
    s = CensoredSeries(boundaries=[0.0, 1.0, 2.0], counts=[3, 0])
    assert s.n_windows == 2
    with pytest.raises(ParameterError):
        CensoredSeries(boundaries=[0.5, 1.0], counts=[1])  # must start at 0
    with pytest.raises(ParameterError):
        CensoredSeries(boundaries=[0.0, 1.0, 1.0], counts=[1, 1])  # flat edge
    with pytest.raises(ParameterError):
        CensoredSeries(boundaries=[0.0, 1.0], counts=[-1])  # negative count


def test_dataset_shape_and_roundtrip():
    ds = Dataset(
        T=4.0,
        censored=(CensoredSeries([0.0, 2.0, 4.0], [1, 2]),),
        events=(np.array([0.5, 3.0]),),
    )
    assert (ds.d, ds.e) == (2, 1)
    lst = ds.event_list()
    assert len(lst) == 2 and lst[0].size == 0 and lst[1].size == 2
    back = Dataset.from_dict(ds.to_dict())
    assert back.T == ds.T
    assert np.array_equal(back.censored[0].counts, ds.censored[0].counts)
    assert np.array_equal(back.events[0], ds.events[0])


def test_validate_events_requires_full_length():
    p = make_params()  # d=2
    ok = validate_events_for(p, [np.zeros(0), np.array([1.0, 2.0])])
    assert len(ok) == 2
    with pytest.raises(DimensionError):
        validate_events_for(p, [np.array([1.0])])  # ambiguous short form
    with pytest.raises(ParameterError):
        validate_events_for(p, [np.array([2.0, 1.0]), np.zeros(0)])


def test_validate_events_accepts_event_history():
    p = make_params()  # d=2
    hist = EventHistory(times=(np.array([0.5]), np.array([1.0, 2.0])), T=3.0)
    got = validate_events_for(p, hist)
    assert all(np.array_equal(a, b) for a, b in zip(got, hist.times))
    assert np.array_equal(
        PoiEvaluator(p.replace(e=0), hist).values([1.5, 2.5]).xi,
        PoiEvaluator(p.replace(e=0), list(hist.times)).values([1.5, 2.5]).xi,
    )
    with pytest.raises(DimensionError):
        validate_events_for(p, EventHistory(times=(np.array([0.5]),), T=3.0))


@pytest.mark.parametrize("times", [[0.5, np.nan, 2.0], [np.nan], [1.0, np.inf]],
                         ids=["nan-inside", "nan-alone", "inf"])
def test_validate_events_rejects_non_finite_times(times):
    # NaN compares False against every ordering and sign check
    p = make_params()  # d=2, e=1
    with pytest.raises(ParameterError):
        validate_events_for(p, [np.zeros(0), np.array(times)])
    with pytest.raises(ParameterError):
        PoiEvaluator(p, [[], times]).values([1.0, 3.0])


@pytest.mark.parametrize("entry",
                         [[[1.0, 2.0]], [[1.0], [2.0]], 1.5, [[1.0], [2.0, 3.0]]],
                         ids=["row", "column", "scalar", "ragged"])
def test_validate_events_rejects_non_1d_entries(entry):
    # NumPy would otherwise fail later, with an error that is no PMBPError
    p = make_params()  # d=2, e=1
    with pytest.raises(DimensionError):
        validate_events_for(p, [[], entry])
    with pytest.raises(DimensionError):
        PoiEvaluator(p, [[], entry]).values([3.0])


@pytest.mark.parametrize("entry", [["a"], [1.0, {}]],
                         ids=["string", "object"])
def test_validate_events_rejects_non_numeric_entries(entry):
    # NumPy's own conversion error is no PMBPError
    p = make_params()  # d=2, e=1
    with pytest.raises(ParameterError):
        validate_events_for(p, [[], entry])
    with pytest.raises(ParameterError):
        PoiEvaluator(p, [[], entry]).values([3.0])


def _forecast_dataset():
    return Dataset(T=4.0, censored=(CensoredSeries([0.0, 2.0, 4.0], [1, 0]),),
                   events=(np.array([0.5, 3.0]),))


# entry point: (call on a time array, a valid array a < b < c, whether the
# order matters, whether the times are bounded by T = 4, the error for bad
# values)
_TIME_ENTRIES = {
    "EventHistory": (lambda ts: EventHistory(times=(ts,), T=4.0),
                     (0.5, 1.0, 2.0), True, True, ParameterError),
    "Dataset": (lambda ts: Dataset(T=4.0, censored=(), events=(ts,)),
                (0.5, 1.0, 2.0), True, True, ParameterError),
    "CensoredSeries": (lambda ts: CensoredSeries(ts, [1, 0]),
                       (0.0, 1.0, 2.0), True, False, ParameterError),
    "censor_series": (lambda ts: censor_series(ts, 1.0, 4.0),
                      (2.0, 0.5, 1.0), False, True, ParameterError),
    "PoiEvaluator-events": (lambda ts: PoiEvaluator(make_params(), [[], ts]),
                            (0.5, 1.0, 2.0), True, False, ParameterError),
    "PoiEvaluator-queries": (
        lambda ts: PoiEvaluator(make_params(), [[], [0.5]]).values(ts),
        (2.0, 0.5, 1.0), False, False, DomainError),
    "predict_counts": (
        lambda ts: predict_counts(make_params(), _forecast_dataset(), ts,
                                  n_samples=1, seed=0),
        (4.0, 5.0, 6.0), True, False, ParameterError),
}

# malformed input: (built from the valid a, b, c, what it breaks)
_MALFORMED_TIMES = {
    "2-d": (lambda a, b, c: [[a], [b], [c]], "shape"),
    "ragged": (lambda a, b, c: [[a], [b, c]], "shape"),
    "non-numeric": (lambda a, b, c: [a, "x", c], "value"),
    "nan": (lambda a, b, c: [a, np.nan, c], "value"),
    "negative": (lambda a, b, c: [-1.0, b, c], "value"),
    "out-of-order": (lambda a, b, c: [a, c, b], "order"),
    "at-T": (lambda a, b, c: [a, b, 4.0], "bound"),
    "past-T": (lambda a, b, c: [a, b, 5.0], "bound"),
}


@pytest.mark.parametrize(
    "entry,bad",
    [(entry, bad) for entry, spec in _TIME_ENTRIES.items()
     for bad, (_, kind) in _MALFORMED_TIMES.items()
     if (kind != "order" or spec[2]) and (kind != "bound" or spec[3])])
def test_malformed_times_raise_typed_errors(entry, bad):
    # every array of times takes one check: DimensionError for its shape,
    # the entry point's own error for its values
    call, valid, _, _, value_error = _TIME_ENTRIES[entry]
    make, kind = _MALFORMED_TIMES[bad]
    call(list(valid))
    with pytest.raises(DimensionError if kind == "shape" else value_error):
        call(make(*valid))


def test_times_stay_writable_for_their_caller():
    # the containers hold read-only arrays, not the caller's own
    ts = np.array([0.5, 1.0])
    h = EventHistory(times=(ts,), T=2.0)
    assert not h.times[0].flags.writeable
    ts[0] = 0.25
    assert ts.flags.writeable


def test_scalar_query_is_one_time():
    ev = PoiEvaluator(make_params(), [[], [0.5]])
    want = ev.values([1.5]).Xi
    for t in (1.5, np.float64(1.5), np.array(1.5)):
        assert np.array_equal(ev.values(t).Xi, want)


def test_public_names_resolve():
    # a stale export fails here rather than at a user's import
    import pmbp

    missing = [name for name in pmbp.__all__ if not hasattr(pmbp, name)]
    assert missing == []
    assert len(set(pmbp.__all__)) == len(pmbp.__all__)


# ---------------------------------------------------------------------------
# Censoring


def test_censor_series_example():
    s = censor_series([0.5, 1.5], 1.0, 2.0)
    assert np.array_equal(s.counts, [1, 1])
    assert np.allclose(s.boundaries, [0.0, 1.0, 2.0])


def test_censor_series_wide_window():
    s = censor_series([0.5, 1.5, 1.9], 5.0, 2.0)
    assert np.array_equal(s.counts, [3])
    assert np.allclose(s.boundaries, [0.0, 2.0])


def test_censor_series_clips_last_edge():
    s = censor_series([2.4], 1.0, 2.5)
    assert np.allclose(s.boundaries, [0.0, 1.0, 2.0, 2.5])
    assert s.counts.sum() == 1


@settings(max_examples=60, deadline=None)
@given(
    times=st.lists(st.floats(0.0, 9.99), max_size=40),
    width=st.floats(0.05, 12.0),
)
def test_censor_series_conserves_counts(times, width):
    T = 10.0
    s = censor_series(np.sort(times), width, T)
    assert int(s.counts.sum()) == len(times)
    assert s.boundaries[0] == 0.0
    assert s.boundaries[-1] == pytest.approx(T)
    assert np.all(np.diff(s.boundaries) > 0)


@pytest.mark.parametrize("times", [[-1.0, 0.5, 1.5], [0.5, 2.0], [0.5, 5.0],
                                   [np.nan, 0.5], [0.5, np.inf]],
                         ids=["negative", "at-T", "after-T", "nan", "inf"])
def test_censor_series_rejects_times_outside_the_horizon(times):
    # a time outside [0, T): NaN, inf and times before 0 or after T would
    # be left out of the counts
    with pytest.raises(ParameterError):
        censor_series(times, 1.0, 2.0)


def test_censor_series_rejects_bad_width():
    with pytest.raises(ParameterError):
        censor_series([1.0], 0.0, 2.0)
    with pytest.raises(ParameterError):
        censor_series([1.0], -1.0, 2.0)
