"""Truncated radial Gaussian fields on the unit disc.

Modes are the L2-normalized Dirichlet eigenfunctions

    e_n(r) = J0(z_n r) / (sqrt(pi) |J1(z_n)|),

with z_n the J0 zeros, so that a coefficient vector a gives
||v||_2^2 = sum a_n^2 and ||grad v||_2^2 = sum (z_n a_n)^2 exactly.
Fields and samplers take no table: they read z_1..z_N from bessel_zeros(N),
whose entries are the first N of any longer table bit for bit. Sampling
draws a_n = g_n / z_n with independent standard real Gaussians, and stores
the g_n so the Dirichlet energy of a sampled field is literally the sum of
squares of its Gaussians.

Radial integrals use Gauss-Legendre nodes on [0, 1] (scipy's
roots_legendre) with the area measure 2 pi r dr applied through the weights.
"""
from dataclasses import dataclass

import numpy as np

from ._core import (_check_integers, _check_p, j0_array, j1_array,
                    weighted_abs_power_sum)
from .bessel import BesselTable, bessel_zeros
from .rng import BATCH_SIZE, batches, slices
from .spectral1d import _window


@dataclass(frozen=True)
class DiscQuadrature:
    """Gauss-Legendre rule on [0, 1] for radial profiles."""

    nodes: np.ndarray
    weights: np.ndarray

    @property
    def count(self) -> int:
        return len(self.nodes)

    @property
    def area_weights(self) -> np.ndarray:
        """Weights for integrals over the disc: 2 pi w_q r_q."""
        return 2.0 * np.pi * self.weights * self.nodes


def disc_quadrature(n_nodes: int) -> DiscQuadrature:
    from scipy.special import roots_legendre

    x, w = roots_legendre(n_nodes)
    return DiscQuadrature(nodes=0.5 * (x + 1.0), weights=0.5 * w)


def default_node_count(table: BesselTable, n_modes: int) -> int:
    """About pi nodes per half wavelength of the top mode, at least 64;
    always above the 2 z_N / pi nodes that resolve its oscillation."""
    return max(64, int(np.ceil(table.zeros[n_modes - 1])) + 33)


@dataclass(frozen=True)
class RadialBasis:
    """Mode values on a quadrature grid, ready for batched evaluation."""

    table: BesselTable
    n_modes: int
    quad: DiscQuadrature
    matrix: np.ndarray              # (Q, N): e_n(r_q)

    def derivative_matrix(self) -> np.ndarray:
        """(Q, N) radial derivatives e_n'(r_q) = -z_n J1(z_n r)/norm."""
        z = self.table.zeros[:self.n_modes]
        arg = np.outer(self.quad.nodes, z)
        scale = _mode_scales(self.table, self.n_modes)
        return -j1_array(arg) * z[None, :] * scale[None, :]

    def project(self, values_at_nodes: np.ndarray) -> np.ndarray:
        """L2(disc) projection of a radial profile onto the modes."""
        return self.matrix.T @ (self.quad.area_weights * values_at_nodes)


def _mode_scales(table: BesselTable, n_modes: int):
    """The L2 norms' inverses 1/(sqrt(pi) |J1(z_n)|)."""
    return 1.0 / (np.sqrt(np.pi) * np.abs(table.j1_at_zeros[:n_modes]))


def radial_basis(table: BesselTable, n_modes: int) -> RadialBasis:
    """The first n_modes modes on default_node_count Gauss-Legendre nodes;
    the matrix is built in place in the array of its arguments z_n r_q."""
    _check_integers(n_modes=n_modes)
    if n_modes < 1:
        raise ValueError(f"n_modes must be >= 1, got {n_modes}")
    if table.count < n_modes:
        raise ValueError("Bessel table too short for requested n_modes")
    quad = disc_quadrature(default_node_count(table, n_modes))
    matrix = np.outer(quad.nodes, table.zeros[:n_modes])
    j0_array(matrix, out=matrix)
    matrix *= _mode_scales(table, n_modes)
    return RadialBasis(table, n_modes, quad, matrix)


@dataclass(frozen=True)
class RadialField2D:
    """Coefficients against the normalized disc modes, one row per field;
    one field is a stack of one."""

    coeffs: np.ndarray              # (fields, N)
    gaussians: np.ndarray | None = None

    def __post_init__(self):
        if self.coeffs.ndim != 2 or self.coeffs.shape[1] < 1:
            raise ValueError("coefficients must be (fields, n_modes) with "
                             "n_modes >= 1")
        if not np.all(np.isfinite(self.coeffs)):
            raise ValueError("non-finite coefficient")


def sample_radials(seed: int, n_fields: int, n_modes: int) -> RadialField2D:
    """a_n = g_n / z_n with standard real Gaussians g_n, n_fields rows through
    rng.batches: BATCH_SIZE fields per stream, the rows a plain estimate of
    n_fields samples draws."""
    _check_integers(n_fields=n_fields, n_modes=n_modes)
    if n_modes < 1:
        raise ValueError(f"n_modes must be >= 1, got {n_modes}")
    g = np.empty((n_fields, n_modes))
    batches(seed, n_fields, BATCH_SIZE,
            lambda rng, start, b: rng.standard_normal(out=g[start:start + b]))
    return RadialField2D(g / bessel_zeros(n_modes).zeros, gaussians=g)


def evaluate_radial(field: RadialField2D, basis: RadialBasis) -> np.ndarray:
    """Field values at the quadrature nodes, one row per field."""
    n_modes = field.coeffs.shape[1]
    if basis.n_modes < n_modes:
        raise ValueError("basis holds fewer modes than the field")
    return field.coeffs @ basis.matrix[:, :n_modes].T


def radial_lp_norm(field: RadialField2D, p: float,
                   basis: RadialBasis) -> np.ndarray:
    """L^p norm of each field over the disc by Gauss-Legendre quadrature."""
    _check_p(p)
    v = evaluate_radial(field, basis)
    return weighted_abs_power_sum(v, basis.quad.area_weights, p) ** (1.0 / p)


def grad_l2_spectral_sq(field: RadialField2D) -> np.ndarray:
    """Dirichlet energy of each field; for sampled fields exactly the sum of
    its Gaussian squares."""
    if field.gaussians is not None:
        return np.sum(field.gaussians * field.gaussians, axis=-1)
    za = bessel_zeros(field.coeffs.shape[1]).zeros * field.coeffs
    return np.sum(za * za, axis=-1)


def _disc_l4_norms(keep: np.ndarray, n_samples: int, seed: int) -> np.ndarray:
    """||v||_{L^4(disc)} of sampled fields a_n = g_n / z_n kept to the modes
    where keep is true, one per sample in stream order."""
    n_modes = len(keep)
    basis = radial_basis(bessel_zeros(n_modes), n_modes)
    z = basis.table.zeros
    aw = basis.quad.area_weights

    def batch(rng, start, b):
        norms = np.empty(b)
        for _, lo, hi, g in slices(rng, b, [((n_modes,), basis.quad.count)]):
            v = np.where(keep, g / z, 0.0) @ basis.matrix.T
            norms[lo:hi] = weighted_abs_power_sum(v, aw, 4.0) ** 0.25
        return norms

    return np.concatenate(batches(seed, n_samples, 2048, batch))


def block_l4_expectation(j: int, n_samples: int, seed: int = 0):
    """Monte Carlo estimate of E ||v_j||_{L^4(disc)} with its standard error."""
    _check_integers(j=j, n_samples=n_samples)
    if j < 1:
        raise ValueError("block index must be >= 1")
    if n_samples == 1:              # below 1, rng.batches rejects it
        raise ValueError("a standard error needs n_samples >= 2, got 1")
    norms = _disc_l4_norms(_window("block", j, 2 ** j), n_samples, seed)
    mean = float(norms.mean())
    stderr = float(norms.std(ddof=1) / np.sqrt(n_samples))
    return mean, stderr
