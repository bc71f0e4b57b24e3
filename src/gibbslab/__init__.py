"""gibbslab: desk-scale laboratory for mass-cutoff Gibbs ensembles of
Gaussian Fourier (circle) and Bessel (disc) series.

The package samples the truncated free fields, solves the ground-state
problems that set the critical cutoff mass, verifies the concentration
inequalities that control the ensembles, and runs the truncation divergence
scans for the partition functions.

Every name below is imported with the package except the concentration
inequality laboratory's (tails), which loads on the first access to one of
them: the scans and estimates do not run it. verify, which uses it, is not
imported here either.
"""
from ._core import BACKEND
from .bessel import BesselTable, bessel_j0, bessel_zeros
from .gibbs import (DivergenceVerdict, EnsembleConfig, EstimatorReport,
                    LayerCakeResult, constrained_tail, divergence_scan,
                    estimate_partition, layer_cake, tail_curve)
from .groundstate import (GroundState, disc_gns_check, gns_functional,
                          profile_function, solve_ground_state)
from .radial2d import (DiscQuadrature, RadialBasis, RadialField2D,
                       block_l4_expectation, disc_quadrature, evaluate_radial,
                       grad_l2_spectral_sq, radial_basis, radial_lp_norm,
                       sample_radials)
from .rng import rng_for
from .spectral1d import (SpectralField1D, dyadic_project, evaluate_coeff_rows,
                         h1_seminorm_sq, l2_norm_spectral, lp_norm,
                         sample_loops)

__version__ = "0.1.0"

_TAILS = ("DyadicSchedule", "FerniqueProbe", "TailCurve", "bernstein_probe",
          "block_norm_samples_2d", "block_tail_2d", "block_tail_empirical_2d",
          "chi2_tail_bound", "chi2_tail_empirical", "dyadic_schedule",
          "fernique_probe", "gaussian_mgf", "gaussian_mgf_mc",
          "gaussian_mgf_quadrature", "high_freq_empirical_1d",
          "high_freq_tail_bound")


def __getattr__(name):
    """The tails names, read from their module on each access (PEP 562)."""
    if name in _TAILS:
        from . import tails

        return getattr(tails, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted([*globals(), *_TAILS])
