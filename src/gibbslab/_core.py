"""Hot numerical kernels (the |v|^p reductions, the J0/J1 wrappers) and the
package's one set of argument checks (_is_integer, _is_real, _check_p).

J0 and J1 come from scipy.special, imported on the first call so that the
1D paths never load it; the wrappers only add the argument check.
"""
import math
import numbers

import numpy as np

BACKEND = "numpy"


def _even_integer(p):
    """The integer p, if it is an even integer >= 2, else None."""
    ip = int(round(p))
    return ip if ip == p and ip % 2 == 0 and ip >= 2 else None


def _abs_power(v, p, out=None):
    """|v|^p; an even integer p is multiplied out left to right,
    ((w*w)*w)... with w = v*v, instead of going through the generic power.
    After the first product the chain multiplies in place, so p=4 needs one
    temporary and any larger p two; v itself is never written.

    With out, an array of v's shape, |v|^p is left in out and nothing is
    allocated; for an even p >= 6, v (then a float64 array) is overwritten
    with w, which the chain reads after out holds w*w, so out may be v
    itself only where power_in_place(p)."""
    ip = _even_integer(p)
    if ip is None:
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


def power_in_place(p) -> bool:
    """Whether _abs_power(v, p, out=v) is |v|^p: for every p but an even
    integer p >= 6, whose chain reads w = v*v after writing out."""
    ip = _even_integer(p)
    return ip is None or ip <= 4


def abs_power_mean(values, p, out=None):
    """Mean of |v|^p along the last axis (even integer p short-circuits);
    out is the optional buffer of _abs_power."""
    return _abs_power(np.asarray(values, dtype=float), p, out).mean(axis=-1)


def weighted_abs_power_sum(values, weights, p, out=None):
    """Sum of weights[q]*|v[..., q]|^p along the last axis; out is the
    optional buffer of _abs_power."""
    return _abs_power(np.asarray(values, dtype=float), p, out) \
        @ np.asarray(weights, dtype=float)


def _is_integer(value) -> bool:
    """An integer of Python or numpy, not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """A real number of Python or numpy, not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _real_floats(values, what) -> list[float]:
    """values as floats, refused unless each is a real number by _is_real:
    float() would turn True into the level 1.0 and "2" into 2.0."""
    values = list(values)
    for value in values:
        if not _is_real(value):
            raise ValueError(f"{what} must be numbers, got {value!r}")
    return [float(value) for value in values]


def _check_integers(**values):
    """Refuse each of values, by name, unless _is_integer."""
    for name, value in values.items():
        if not _is_integer(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_p(p):
    """Refuse p unless it is a number (_is_real), finite and at least 1."""
    if not _is_real(p):
        raise ValueError(f"p must be a number, got {p!r}")
    if not 1 <= p < math.inf:
        raise ValueError(f"p must be finite and >= 1, got {p!r}")


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
