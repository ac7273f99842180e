"""Multivariate temporal point processes with partially interval-censored
dimensions: simulation, likelihood fitting, forecasting, and diagnostics.

The model family interpolates between a fully observed self-exciting
(Hawkes) process and a fully mean-field counting process: the first e of
d dimensions enter the dynamics through their expected intensity (so only
interval counts of them are needed), while the remaining dimensions
contribute through their exact event times.
"""

from .errors import (
    ConvergenceError,
    DimensionError,
    DomainError,
    ExplosionError,
    InsufficientDataError,
    NumericalConsistencyError,
    ParameterError,
    PMBPError,
    RegularityError,
)
from .fitting import (
    FitConfig,
    FitResult,
    StartRecord,
    fd_gradient,
    fit,
    recovery_experiment,
)
from .gof import GofReport, fit_score, gof_anscombe, gof_report, gof_time_rescaling
from .hawkes import sample_hawkes
from .io import (
    censor,
    format_float,
    read_csv,
    read_dataset,
    read_events,
    write_csv,
    write_dataset,
    write_events,
)
from .likelihood import (
    LikelihoodConfig,
    icll,
    joint_nll,
    nll_and_grad,
    ppll_nll,
    total_nll,
)
from .params import (
    CensoredSeries,
    Dataset,
    EventHistory,
    ModelParams,
    RegularityReport,
    censor_series,
    check_subcriticality,
    spectral_radius,
)
from .paramvec import n_free, pack, unpack
from .poi import PoiEvaluator, PoiValues
from .sampling import (
    Prediction,
    predict_counts,
    predict_counts_sampled,
    sample_pmbp,
)

__version__ = "0.1.0"

__all__ = [
    "CensoredSeries",
    "ConvergenceError",
    "Dataset",
    "DimensionError",
    "DomainError",
    "EventHistory",
    "ExplosionError",
    "FitConfig",
    "FitResult",
    "GofReport",
    "InsufficientDataError",
    "LikelihoodConfig",
    "ModelParams",
    "NumericalConsistencyError",
    "PMBPError",
    "ParameterError",
    "PoiEvaluator",
    "PoiValues",
    "Prediction",
    "RegularityError",
    "RegularityReport",
    "StartRecord",
    "censor",
    "censor_series",
    "check_subcriticality",
    "fd_gradient",
    "fit",
    "fit_score",
    "format_float",
    "gof_anscombe",
    "gof_report",
    "gof_time_rescaling",
    "icll",
    "joint_nll",
    "n_free",
    "nll_and_grad",
    "pack",
    "ppll_nll",
    "predict_counts",
    "predict_counts_sampled",
    "read_csv",
    "read_dataset",
    "read_events",
    "recovery_experiment",
    "sample_hawkes",
    "sample_pmbp",
    "spectral_radius",
    "total_nll",
    "unpack",
    "write_csv",
    "write_dataset",
    "write_events",
]
