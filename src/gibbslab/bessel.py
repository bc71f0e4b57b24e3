"""Zero-order Bessel machinery: J0 evaluation and certified J0 zeros.

J0 and J1 are scipy.special's, and the zeros come from
scipy.special.jn_zeros, imported when a table is first built. Every table is
certified against the table invariants before it is returned:
|J0(z_n)| < 1e-12, spacing within 0.3 of pi, and J1 alternating in sign at
consecutive zeros.
"""
import numbers
from dataclasses import dataclass

import numpy as np

from ._core import j0_array, j1_array

ZERO_RESIDUAL_TOL = 1e-12


def bessel_j0(x):
    """J0 at a scalar or array argument, x >= 0."""
    out = j0_array(np.asarray(x, dtype=float))
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(np.ravel(out)[0])
    return out


@dataclass(frozen=True)
class BesselTable:
    """First `count` positive zeros of J0 with J1 evaluated there."""

    zeros: np.ndarray
    j1_at_zeros: np.ndarray

    @property
    def count(self) -> int:
        return len(self.zeros)

    def validate(self) -> None:
        res = np.abs(j0_array(self.zeros))
        if res.max() >= ZERO_RESIDUAL_TOL:
            raise RuntimeError(
                f"zero residual {res.max():.3e} exceeds {ZERO_RESIDUAL_TOL}")
        gaps = np.diff(self.zeros)
        if gaps.size and (gaps.min() <= np.pi - 0.3 or gaps.max() >= np.pi + 0.3):
            raise RuntimeError("zero spacing left the (pi-0.3, pi+0.3) band")
        if np.any(self.j1_at_zeros == 0.0):
            raise RuntimeError("vanishing J1 at a J0 zero")
        signs = np.sign(self.j1_at_zeros)
        if np.any(signs[1:] * signs[:-1] != -1.0):
            raise RuntimeError("J1 signs at consecutive zeros do not alternate")


def bessel_zeros(count: int) -> BesselTable:
    """First `count` positive zeros of J0, certified by validate()."""
    if not isinstance(count, numbers.Integral) or isinstance(count, bool):
        raise ValueError(f"count must be an integer, got {count!r}")
    if count < 1:
        raise ValueError("count must be >= 1")
    from scipy.special import jn_zeros

    zs = jn_zeros(0, count)
    table = BesselTable(zeros=zs, j1_at_zeros=j1_array(zs))
    table.validate()
    return table
