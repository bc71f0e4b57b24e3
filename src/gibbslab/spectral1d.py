"""Truncated mean-zero Gaussian loops on the circle [0, 1].

A field is stored through its positive-frequency coefficients c_n, n = 1..N;
negative frequencies are the conjugates (the field is real). Sampling draws
c_n = w_n * g_n with independent standard complex Gaussians g_n and the
free-field (gff) weight w_n = 1/(2 pi n): the Dirichlet energy int |u'|^2 is
then exactly the sum of squares of the 2N underlying standard normals, which
the sampler stores alongside the coefficients.

Dyadic windows are indexed so that consecutive low/high projections tile the
spectrum exactly: low(k) keeps 1 <= |n| <= 2^k, high(k) keeps |n| > 2^(k-1),
and block(k) = low(k) minus low(k-1) (block 0 is the single frequency 1).
"""
import math
from dataclasses import dataclass

import numpy as np

from ._core import abs_power_mean
from .rng import BATCH_SIZE, batches


def spectral_weights(n_modes: int) -> np.ndarray:
    """The gff weights w_n = 1/(2 pi n), n = 1..N."""
    return 1.0 / (2.0 * np.pi * np.arange(1, n_modes + 1, dtype=float))


@dataclass(frozen=True)
class SpectralField1D:
    """Fourier data of real mean-zero loops, one row per field; one field is
    a stack of one. Row entries are c_n for frequencies n = 1..N."""

    coeffs_pos: np.ndarray          # (fields, N); c_{-n} = conj(c_n)
    gaussians: np.ndarray | None = None   # (fields, N, 2), sampled fields

    def __post_init__(self):
        if self.coeffs_pos.ndim != 2 or self.coeffs_pos.shape[1] < 1:
            raise ValueError("coefficients must be (fields, n_modes) with "
                             "n_modes >= 1")
        if not np.all(np.isfinite(self.coeffs_pos.view(float))):
            raise ValueError("non-finite coefficient")


def gaussian_coeffs(g: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """c_n = w_n (g_n0 + i g_n1) / sqrt(2) for normals of shape (..., N, 2)."""
    return weights * (g[..., 0] + 1j * g[..., 1]) / math.sqrt(2.0)


def sample_loops(seed: int, n_fields: int, n_modes: int) -> SpectralField1D:
    """n_fields loops through rng.batches: BATCH_SIZE fields per stream, the
    Gaussian rows a plain estimate of n_fields samples draws."""
    w = spectral_weights(n_modes)
    g = np.empty((n_fields, n_modes, 2))
    coeffs = np.empty((n_fields, n_modes), dtype=complex)

    def batch(rng, start, b):       # in place: no corpus-sized temporaries
        rng.standard_normal(out=g[start:start + b])
        coeffs[start:start + b] = gaussian_coeffs(g[start:start + b], w)

    batches(seed, n_fields, BATCH_SIZE, batch)
    return SpectralField1D(coeffs, gaussians=g)


def _window(kind: str, k: int, n_modes: int) -> np.ndarray:
    """Boolean keep-mask over frequencies 1..N for a dyadic window."""
    if k < 0:
        raise ValueError("k must be >= 0")
    n = np.arange(1, n_modes + 1)
    if kind == "low":
        return n <= 2 ** k
    if kind == "high":
        return n > 2 ** (k - 1) if k >= 1 else np.ones(n_modes, dtype=bool)
    if kind == "block":
        if k == 0:
            return n == 1
        return (n > 2 ** (k - 1)) & (n <= 2 ** k)
    raise ValueError(f"unknown projection kind {kind!r}")


def dyadic_project(field: SpectralField1D, kind: str, k: int) -> SpectralField1D:
    """Littlewood-Paley style projection; zeroed modes drop their Gaussians."""
    keep = _window(kind, k, field.coeffs_pos.shape[-1])
    coeffs = np.where(keep, field.coeffs_pos, 0.0j)
    g = None
    if field.gaussians is not None:
        g = np.where(keep[:, None], field.gaussians, 0.0)
    return SpectralField1D(coeffs, g)


def evaluate_coeff_rows(coeff_rows: np.ndarray, grid_size: int) -> np.ndarray:
    """Field values on the uniform M-point grid x_m = m/M by the inverse FFT:
    rows of c_n (n=1..N) -> rows of field values."""
    n_modes = coeff_rows.shape[-1]
    if grid_size < 4 * n_modes:
        raise ValueError(
            f"grid_size {grid_size} < 4*n_modes = {4 * n_modes}: aliasing")
    spec = np.zeros(coeff_rows.shape[:-1] + (grid_size // 2 + 1,),
                    dtype=complex)
    spec[..., 1:n_modes + 1] = coeff_rows
    vals = np.fft.irfft(spec, n=grid_size, axis=-1)
    vals *= grid_size
    return vals


def lp_norm(values: np.ndarray, p: float) -> np.ndarray:
    """Rectangle-rule L^p norm on the unit circle of each row of uniform
    grid values."""
    if p < 1:
        raise ValueError("p must be >= 1")
    return abs_power_mean(values, p) ** (1.0 / p)


def l2_norm_spectral(field: SpectralField1D) -> np.ndarray:
    """Parseval L^2 norm of each field."""
    return np.sqrt(2.0 * np.sum(np.abs(field.coeffs_pos) ** 2, axis=-1))


def h1_seminorm_sq(field: SpectralField1D) -> np.ndarray:
    """Squared Dirichlet energy int_0^1 |u'|^2 of each field.

    For sampled fields this is taken directly from the stored standard
    normals, making the chi-square law exact in floating point; otherwise the
    spectral formula sum (2 pi n)^2 |c_n|^2 over both signs is used.
    """
    if field.gaussians is not None:
        return np.sum(field.gaussians * field.gaussians, axis=(-2, -1))
    n = np.arange(1, field.coeffs_pos.shape[-1] + 1, dtype=float)
    return 2.0 * np.sum((2.0 * np.pi * n) ** 2
                        * np.abs(field.coeffs_pos) ** 2, axis=-1)
