"""NumPy implementations of the |v|^p reductions (the fallback for the
compiled core).
"""
import numpy as np


def abs_power_mean(values, p):
    """Mean of |v|^p along the last axis (even integer p short-circuits)."""
    v = np.asarray(values, dtype=float)
    ip = int(round(p))
    if ip == p and ip % 2 == 0 and ip >= 2:
        w = v * v
        out = w
        for _ in range(ip // 2 - 1):
            out = out * w
        return out.mean(axis=-1)
    return (np.abs(v) ** p).mean(axis=-1)


def weighted_abs_power_sum(values, weights, p):
    """Sum of weights[q]*|v[..., q]|^p along the last axis."""
    v = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    ip = int(round(p))
    if ip == p and ip % 2 == 0 and ip >= 2:
        vv = v * v
        out = vv
        for _ in range(ip // 2 - 1):
            out = out * vv
        return out @ w
    return (np.abs(v) ** p) @ w
