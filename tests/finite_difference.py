"""Central-difference gradients: the oracle the analytic gradients of the
autodiff tape are checked against."""

from typing import Callable

import numpy as np

from mgam.errors import UsageError


def finite_difference_grad(f: Callable[[np.ndarray], float], x: np.ndarray,
                           h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient (f(x+he_i) - f(x-he_i)) / 2h per coordinate.

    `f` must recompute from the array it is handed on every call; the
    array is perturbed in place and restored afterwards.
    """
    if h <= 0:
        raise UsageError("finite difference step h must be positive")
    x = np.asarray(x, dtype=np.float64, order="C")
    grad = np.zeros_like(x)
    flat_x = x.ravel()
    flat_g = grad.ravel()
    for i in range(flat_x.size):
        orig = flat_x[i]
        flat_x[i] = orig + h
        fp = float(f(x))
        flat_x[i] = orig - h
        fm = float(f(x))
        flat_x[i] = orig
        flat_g[i] = (fp - fm) / (2.0 * h)
    return grad
