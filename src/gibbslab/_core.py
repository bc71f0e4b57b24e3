"""Hot numerical kernels: the |v|^p reductions and the J0/J1 wrappers.

J0 and J1 come from scipy.special, imported on the first call so that the
1D paths never load it; the wrappers only add the argument check.
"""
import numpy as np

BACKEND = "numpy"


def _abs_power(v, p, out=None):
    """|v|^p; an even integer p is multiplied out left to right,
    ((w*w)*w)... with w = v*v, instead of going through the generic power.
    After the first product the chain multiplies in place, so p=4 needs one
    temporary and any larger p two; v itself is never written.

    With out, an array of v's shape, |v|^p is left in out and nothing is
    allocated; for an even p >= 6, v (then a float64 array) is overwritten
    with w, which the chain reads after out holds w*w."""
    ip = int(round(p))
    if not (ip == p and ip % 2 == 0 and ip >= 2):
        if out is None:
            return np.abs(v) ** p
        return np.power(np.abs(v, out=out), p, out=out)
    if ip <= 4:
        w = np.multiply(v, v, out=out)
        return w if ip == 2 else np.multiply(w, w, out=w)
    w = v * v if out is None else np.multiply(v, v, out=v)
    out = np.multiply(w, w, out=out)
    for _ in range(ip // 2 - 2):
        np.multiply(out, w, out=out)
    return out


def abs_power_mean(values, p, out=None):
    """Mean of |v|^p along the last axis (even integer p short-circuits);
    out is the optional buffer of _abs_power."""
    return _abs_power(np.asarray(values, dtype=float), p, out).mean(axis=-1)


def weighted_abs_power_sum(values, weights, p, out=None):
    """Sum of weights[q]*|v[..., q]|^p along the last axis; out is the
    optional buffer of _abs_power."""
    return _abs_power(np.asarray(values, dtype=float), p, out) \
        @ np.asarray(weights, dtype=float)


def _bessel_arg(x):
    x = np.asarray(x, dtype=float)
    # NaN fails x >= 0, and then x is finite if its largest value is; one
    # boolean temporary instead of three
    if not (np.all(x >= 0.0) and np.isfinite(np.max(x, initial=0.0))):
        raise ValueError("Bessel kernels are defined for finite x >= 0")
    return x


def j0_array(x, out=None):
    """J0 of an array of finite nonnegative arguments, into out if given
    (which may be x itself)."""
    from scipy.special import j0

    return j0(_bessel_arg(x), out=out)


def j1_array(x):
    """J1 of an array of finite nonnegative arguments."""
    from scipy.special import j1

    return j1(_bessel_arg(x))


def j01_arrays(x):
    """(J0(x), J1(x)); nothing in the package calls it, but the benchmark's
    tracer binds it by name, so it stays until that tracer drops it."""
    from scipy.special import j0, j1

    x = _bessel_arg(x)
    return j0(x), j1(x)
