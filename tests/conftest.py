"""Shared fixtures: small standard configurations and cached artifacts.

Session-scoped fixtures hold the expensive pieces (response tables,
sampled paths) so individual tests stay fast and deterministic.
"""

from __future__ import annotations

import numpy as np
import pytest

from pmbp import ModelParams, sample_hawkes
from reference.engine import ConvGrid, compute_h


@pytest.fixture(scope="session")
def hawkes2():
    """Subcritical 2-d fully observed model."""
    return ModelParams(
        d=2, e=0,
        theta=[[1.0, 1.0], [0.2, 0.5]],
        alpha=[[0.3, 0.2], [0.2, 0.3]],
        gamma=[0.0, 0.0],
        nu=[0.4, 0.4],
    )


@pytest.fixture(scope="session")
def pmbp21():
    """2-d model with dimension 1 censored; the closed-form test config."""
    return ModelParams(
        d=2, e=1,
        theta=[[1.0, 1.0], [0.2, 0.5]],
        alpha=[[0.5, 0.5], [0.5, 0.5]],
        gamma=[0.0, 0.0],
        nu=[1.0, 1.0],
    )


@pytest.fixture(scope="session")
def pmbp21_sub():
    """2-d model with dimension 1 censored and overall spectral radius 0.5."""
    return ModelParams(
        d=2, e=1,
        theta=np.ones((2, 2)),
        alpha=[[0.3, 0.2], [0.2, 0.3]],
        gamma=[0.0, 0.0],
        nu=[0.4, 0.4],
    )


@pytest.fixture(scope="session")
def mbp11():
    """1-d fully censored model."""
    return ModelParams(d=1, e=1, theta=[[2.0]], alpha=[[0.6]],
                       gamma=[0.5], nu=[0.8])


@pytest.fixture(scope="session")
def events21():
    """The standing dimension-2 event set for the censored 2-d configs."""
    return [np.zeros(0), np.array([2.5, 5.0, 15.0])]


@pytest.fixture(scope="session")
def tables21(pmbp21):
    return compute_h(pmbp21, ConvGrid.make(30.0, 0.01))


@pytest.fixture(scope="session")
def tables21_sub(pmbp21_sub):
    return compute_h(pmbp21_sub, ConvGrid.make(30.0, 0.01))


@pytest.fixture(scope="session")
def hawkes_path(hawkes2):
    """One medium-length sampled path from the 2-d observed model."""
    return sample_hawkes(hawkes2, 120.0, 20260823)
