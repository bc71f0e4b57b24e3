"""Hot numerical kernels.

J0 and J1 come from scipy.special for every backend; the wrappers here only
add the argument check. The |v|^p reductions have a compiled core and a
pure-NumPy fallback: if the Cython extension was not built (or if
GIBBSLAB_PURE_PYTHON=1 is set) the NumPy versions are used, and BACKEND
names the one in use. The benchmark script under benchmarks/ compares them.
"""
import os

import numpy as np
from scipy import special

from . import _kernels_py

BACKEND = "numpy"
_impl = _kernels_py

if os.environ.get("GIBBSLAB_PURE_PYTHON", "") != "1":
    try:
        from . import _kernels as _compiled

        _impl = _compiled
        BACKEND = "cython"
    except ImportError:
        pass

abs_power_mean = _impl.abs_power_mean
weighted_abs_power_sum = _impl.weighted_abs_power_sum


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
    """(J0(x), J1(x)); kept as a public name that callers and the
    benchmark's tracer bind to."""
    x = _bessel_arg(x)
    return special.j0(x), special.j1(x)
