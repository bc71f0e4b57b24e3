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


def gaussian_coeffs(g: np.ndarray, weights: np.ndarray,
                    out: np.ndarray | None = None) -> np.ndarray:
    """c_n = w_n (g_n0 + i g_n1) / sqrt(2) for normals of shape (..., N, 2),
    into out (complex, of shape (..., N)) if given. out may be a strided
    view whose rows are contiguous, such as columns 1.. of the spectrum
    buffer that evaluate_coeff_rows then reads in place.

    Computed in real arithmetic on the (..., 2N) view of g: a multiply by
    each weight twice over, then by 1/sqrt(2), viewed as complex. This is
    bit for bit the complex expression w_n * (g_n0 + 1j * g_n1) / sqrt(2):
    the zero parts of w_n + 0j and of 1j only add zeros to the products,
    and numpy divides a complex a by b + 0j as a * (1 / b).
    """
    shape = g.shape[:-2] + (2 * g.shape[-2],)
    c = np.multiply(g.reshape(shape), np.repeat(weights, 2),
                    out=None if out is None else out.view(float))
    c *= 1.0 / math.sqrt(2.0)
    return c.view(complex)


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


def evaluate_coeff_rows(coeff_rows: np.ndarray, grid_size: int,
                        spectrum: np.ndarray | None = None,
                        out: np.ndarray | None = None) -> np.ndarray:
    """Field values on the uniform M-point grid x_m = m/M by the inverse FFT:
    rows of c_n (n=1..N) -> rows of field values.

    The transform reads the spectrum c_0 = 0, c_1..c_N and pads it with
    zeros to M/2 + 1 frequencies itself. spectrum, complex of shape
    (..., N + 1), and out, float of shape (..., M), are optional buffers
    for the spectrum and the values; out is returned. coeff_rows may be
    spectrum[..., 1:] itself, which saves the copy.

    The values are M times the backward transform, whose last pass
    multiplies by 1/M. For M a power of two that product and the multiply
    by M are exact, so the transform skips both (norm="forward"); the bits
    are the same, except that a value below about 1e-304 in magnitude,
    whose product with 1/M is subnormal, comes out exact instead of
    rounded. Other M keep the two passes."""
    n_modes = coeff_rows.shape[-1]
    if grid_size < 4 * n_modes:
        raise ValueError(
            f"grid_size {grid_size} < 4*n_modes = {4 * n_modes}: aliasing")
    if spectrum is None:
        spectrum = np.empty(coeff_rows.shape[:-1] + (n_modes + 1,),
                            dtype=complex)
    spectrum[..., 0] = 0.0
    spectrum[..., 1:] = coeff_rows
    if grid_size & (grid_size - 1) == 0:
        return np.fft.irfft(spectrum, n=grid_size, axis=-1, norm="forward",
                            out=out)
    vals = np.fft.irfft(spectrum, n=grid_size, axis=-1, out=out)
    vals *= grid_size
    return vals


def lp_norm(values: np.ndarray, p: float, out=None) -> np.ndarray:
    """Rectangle-rule L^p norm on the unit circle of each row of uniform
    grid values; out is the optional buffer of abs_power_mean."""
    if p < 1:
        raise ValueError("p must be >= 1")
    return abs_power_mean(values, p, out) ** (1.0 / p)


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
