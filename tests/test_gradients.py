"""The finite-difference gradient helper that gradient checks rely on."""

import numpy as np

from pmbp import fd_gradient


def test_fd_gradient_on_quadratic():
    A = np.array([[2.0, 0.5], [0.5, 1.0]])
    b = np.array([1.0, -2.0])
    f = lambda x: 0.5 * x @ A @ x + b @ x
    x0 = np.array([0.3, -0.7])
    g = fd_gradient(f, x0)
    assert np.allclose(g, A @ x0 + b, rtol=1e-7, atol=1e-9)
