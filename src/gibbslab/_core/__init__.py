"""Hot numerical kernels: the |v|^p reductions and the J0/J1 wrappers.

J0 and J1 come from scipy.special; the wrappers only add the argument check.
"""
import numpy as np
from scipy import special

BACKEND = "numpy"


def _abs_power(v, p):
    """|v|^p; an even integer p is multiplied out (v*v chained) instead of
    going through the generic power."""
    ip = int(round(p))
    if not (ip == p and ip % 2 == 0 and ip >= 2):
        return np.abs(v) ** p
    w = v * v
    out = w
    for _ in range(ip // 2 - 1):
        out = out * w
    return out


def abs_power_mean(values, p):
    """Mean of |v|^p along the last axis (even integer p short-circuits)."""
    return _abs_power(np.asarray(values, dtype=float), p).mean(axis=-1)


def weighted_abs_power_sum(values, weights, p):
    """Sum of weights[q]*|v[..., q]|^p along the last axis."""
    return _abs_power(np.asarray(values, dtype=float), p) \
        @ np.asarray(weights, dtype=float)


def _bessel_arg(x):
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x) & (x >= 0.0)):
        raise ValueError("Bessel kernels are defined for finite x >= 0")
    return x


def j0_array(x):
    """J0 of an array of finite nonnegative arguments."""
    return special.j0(_bessel_arg(x))


def j1_array(x):
    """J1 of an array of finite nonnegative arguments."""
    return special.j1(_bessel_arg(x))


def j01_arrays(x):
    """(J0(x), J1(x)); nothing in the package calls it, but the benchmark's
    tracer binds it by name, so it stays until that tracer drops it."""
    x = _bessel_arg(x)
    return special.j0(x), special.j1(x)
