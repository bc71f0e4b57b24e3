"""Independent numerical oracles used by the test suite, one copy of each.

These deliberately avoid the package's own code paths (test_oracles.py
checks it): rk4_standard_ground_state_2d, a fixed-step RK4 shooting solve of
the standard-normalized 2D equation, cached so that a session runs it once;
series_j0 and bisect_series_zero, a bisection root finder on a locally
coded J0 power series; and bump_corpus, the random Gaussian bumps of the
GNS minimality checks. The whole-batch Monte Carlo rows at the end read
ensembles on purpose: the row-slicing estimators are held to them.
"""
import functools
import math

import numpy as np


@functools.lru_cache(maxsize=None)
def rk4_standard_ground_state_2d(h=2.5e-4, r_end=12.0):
    """Solve Lap(psi) - psi + psi^3 = 0 radially; return (psi0, mass_sq)."""
    steps = int(r_end / h)

    def rhs(r, f, fp):
        return fp, (f - f ** 3) - (fp / r if r > 1e-12 else 0.0)

    def classify(s):
        f, fp, r = s, 0.0, 1e-9
        for _ in range(steps):
            k1f, k1p = rhs(r, f, fp)
            k2f, k2p = rhs(r + h / 2, f + h / 2 * k1f, fp + h / 2 * k1p)
            k3f, k3p = rhs(r + h / 2, f + h / 2 * k2f, fp + h / 2 * k2p)
            k4f, k4p = rhs(r + h, f + h * k3f, fp + h * k3p)
            f += h / 6 * (k1f + 2 * k2f + 2 * k3f + k4f)
            fp += h / 6 * (k1p + 2 * k2p + 2 * k3p + k4p)
            r += h
            if f < 0.0:
                return "cross"
            if fp > 0.0:
                return "turn"
        return "decay"

    lo, hi = 2.0, 2.5
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        if classify(mid) == "cross":
            hi = mid
        else:
            lo = mid
    s = 0.5 * (lo + hi)

    f, fp, r = s, 0.0, 1e-9
    vals = [f * f * r]
    for _ in range(steps):
        k1f, k1p = rhs(r, f, fp)
        k2f, k2p = rhs(r + h / 2, f + h / 2 * k1f, fp + h / 2 * k1p)
        k3f, k3p = rhs(r + h / 2, f + h / 2 * k2f, fp + h / 2 * k2p)
        k4f, k4p = rhs(r + h, f + h * k3f, fp + h * k3p)
        f += h / 6 * (k1f + 2 * k2f + 2 * k3f + k4f)
        fp += h / 6 * (k1p + 2 * k2p + 2 * k3p + k4p)
        r += h
        if f < 1e-9:
            f = 0.0
        vals.append(f * f * r)
    vals = np.asarray(vals)
    if len(vals) % 2 == 0:
        vals = vals[:-1]
    mass_sq = 2 * math.pi * (h / 3) * (vals[0] + vals[-1]
                                       + 4 * vals[1:-1:2].sum()
                                       + 2 * vals[2:-1:2].sum())
    return s, mass_sq


def series_j0(x):
    """J0 from its direct power series, enough terms for x <= 8."""
    total, term = 1.0, 1.0
    for j in range(1, 40):
        term *= -(x * x / 4.0) / (j * j)
        total += term
    return total


def bisect_series_zero(lo, hi):
    """The zero of series_j0 in [lo, hi], which must change its sign."""
    flo = series_j0(lo)
    assert flo * series_j0(hi) < 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if flo * series_j0(mid) <= 0:
            hi = mid
        else:
            lo, flo = mid, series_j0(mid)
    return 0.5 * (lo + hi)


def bump_corpus(rng, grid, dim):
    """One to three random Gaussian bumps on grid, damped at its edge."""
    f = np.zeros_like(grid)
    for _ in range(rng.integers(1, 4)):
        c = rng.uniform(0.0, 4.0) if dim == 2 else rng.uniform(-4.0, 4.0)
        f += (rng.uniform(0.2, 2.0) * rng.choice([-1.0, 1.0])
              * np.exp(-((grid - c) / rng.uniform(0.4, 2.5)) ** 2))
    f *= np.exp(-(grid / 9.0) ** 6)
    if np.max(np.abs(f)) < 1e-3:
        f += np.exp(-grid ** 2)
    return f


# ------------------------------------------------ whole-batch Monte Carlo rows
#
# The partition and tail estimators read each batch through row slices of
# one random stream. These are the whole-batch forms they replaced: a batch
# drawn at once, its mixture proposal made in one array, and its rows
# synthesized in the slices of rng.row_slices. They read only the ensemble's
# fixed data (cfg, weights, width, grid_arrays, row_floor, theta, inv_z,
# matrix_t, area_w) and the package's numerical kernels, and the tests hold
# the estimators to them.

def draw_batch(ens, gen, b):
    """A batch of b rows of Gaussians drawn whole from gen."""
    cfg = ens.cfg
    shape = (b, cfg.n_modes, 2) if cfg.dim == 1 else (b, cfg.n_modes)
    return gen.standard_normal(shape)


def apply_proposal(ens, g):
    """The half/half mixture of the batch g as a new array, with its log
    importance weights (w <= 2)."""
    from gibbslab.gibbs import TILT_MODES, TILT_SCALE

    cfg = ens.cfg
    b = g.shape[0]
    half = b // 2
    if cfg.sampler == "plain":
        return g, np.zeros(b)
    g = g.copy()
    if cfg.sampler == "soliton":
        g[half:] += ens.theta
        dot = np.tensordot(g, ens.theta, axes=(tuple(range(1, g.ndim)),
                                               tuple(range(ens.theta.ndim))))
        log_rho = dot - 0.5 * float(np.sum(ens.theta * ens.theta))
        return g, math.log(2.0) - np.logaddexp(0.0, log_rho)
    k = min(TILT_MODES, cfg.n_modes)
    sig = TILT_SCALE
    g[half:, :k] *= sig
    flat = g[:, :k].reshape(b, -1)
    log_rho = 0.5 * (1.0 - 1.0 / (sig * sig)) * np.sum(flat * flat, axis=1) \
        - flat.shape[1] * math.log(sig)
    return g, math.log(2.0) - np.logaddexp(0.0, log_rho)


def _synthesize_slice(ens, g, ksq):
    """(int |u|^p, ||u||_2^2) of rows of Gaussians, int |u|^p NaN above
    ksq: 1D rows are packed, a 2D slice is synthesized whole or not at
    all."""
    from gibbslab._core import abs_power_mean, weighted_abs_power_sum
    from gibbslab.spectral1d import evaluate_coeff_rows, gaussian_coeffs

    if ens.cfg.dim == 1:
        coeffs = gaussian_coeffs(g, ens.weights)
        modsq = np.abs(coeffs)
        np.multiply(modsq, modsq, out=modsq)
        l2sq = 2.0 * np.sum(modsq, axis=1)
        keep = l2sq <= ksq
        power = np.full(len(g), math.nan)
        if keep.any():
            rows = coeffs if keep.all() else coeffs[keep]
            power[keep] = abs_power_mean(
                evaluate_coeff_rows(rows, ens.width), ens.cfg.p)
        return power, l2sq
    coeffs = g * ens.inv_z
    l2sq = np.sum(coeffs * coeffs, axis=1)
    if not np.any(l2sq <= ksq):
        return np.full(len(g), math.nan), l2sq
    vals = coeffs @ ens.matrix_t
    return weighted_abs_power_sum(vals, ens.area_w, ens.cfg.p), l2sq


def synthesize(ens, g, ksq=math.inf):
    """(int |u|^p, ||u||_2^2) per row of the batch g, synthesized in the
    slices of rng.row_slices and joined."""
    from gibbslab import rng

    parts = [_synthesize_slice(ens, g[lo:hi], ksq)
             for lo, hi in rng.row_slices(len(g), ens.width,
                                          ens.grid_arrays, ens.row_floor)]
    return tuple(np.concatenate(col) for col in zip(*parts))
