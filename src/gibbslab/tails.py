"""Concentration-inequality laboratory.

Every bound is a pair (value, valid): the number, and whether the
derivation's precondition holds there. A bound is evaluated even where its
precondition fails, and the flag says so. Every Monte Carlo curve reports
resolvability: a level whose empirical probability cannot be distinguished
from zero at the given sample count is marked unresolvable rather than
counted as a confirmation.

Unspecified constants are treated as measurable artifacts: the Bernstein
constant (bernstein_probe, a float) and the Fernique rate (the c_hat of
fernique_probe) come from probes, and geometric-tail prefactors are
evaluated by explicit summation rather than quoted. A level so large that
its square overflows gets the smallest bound exp(-745), not an undefined
one; a level that is not positive, NaN among them, is refused.

The samplers read their streams through rng.slices, as the estimators of
gibbs do, all but the Bernstein probe, whose two whole 512-row draws fix its
stream. The samplers and the bounds check their arguments with _core's
checks, and the curves their levels (_levels) and bounds, before any
sampling.
"""
import math
from dataclasses import dataclass

import numpy as np

from ._core import (_check_integers, _check_p, _is_integer, _is_real,
                    _real_floats)
from .radial2d import BesselTable, _disc_l4_norms, block_l4_expectation
from .rng import Workspace, batches, row_slices, slices
from .spectral1d import (evaluate_coeff_rows, gaussian_coeffs, lp_norm,
                         spectral_weights, _window)


@dataclass(frozen=True)
class TailCurve:
    """Empirical tail probabilities with matched theoretical bounds."""

    levels: np.ndarray
    empirical: np.ndarray
    err: np.ndarray
    theoretical: np.ndarray          # the matched bound at each level
    valid: np.ndarray                # bound validity flags
    samples: int                     # Monte Carlo samples behind empirical

    def __post_init__(self):
        _levels(self.levels)
        if np.any((self.empirical < 0) | (self.empirical > 1)):
            raise ValueError("empirical probabilities outside [0, 1]")


def _levels(levels) -> np.ndarray:
    """levels as a float array, refused unless they are numbers (not bools)
    in strictly increasing order; the curves call it before any draw."""
    levels = np.asarray(_real_floats(levels, "levels"))
    if np.any(np.isnan(levels)):
        raise ValueError("levels must be numbers, got NaN")
    if np.any(np.diff(levels) <= 0):
        raise ValueError("levels must be strictly increasing")
    return levels


# ------------------------------------------------------------ chi-square tail

def chi2_tail_bound(m_dof: int, level: float):
    """Bound exp(-R^2/4) for P(chi2_M >= R^2), valid once R >= 3 sqrt(M)."""
    _check_integers(M=m_dof)
    if m_dof < 1 or not level > 0:
        raise ValueError(f"need M >= 1 and R > 0, not NaN, got M={m_dof!r} "
                         f"and R={level}")
    return math.exp(-level * level / 4.0), level >= 3.0 * math.sqrt(m_dof)


def chi2_tail_empirical(m_dof: int, levels, n_samples: int,
                        seed: int = 0) -> TailCurve:
    """Monte Carlo tail of a chi-square with the matching analytic bound."""
    _check_integers(M=m_dof, n_samples=n_samples)
    levels = _levels(levels)
    bounds = [chi2_tail_bound(m_dof, r) for r in levels]

    def batch(rng, start, b):
        s = _square_sums(rng, b, (m_dof,))
        return (s[:, None] >= levels[None, :] ** 2).sum(axis=0)

    counts = sum(batches(seed, n_samples, 1 << 16, batch))
    return _curve(levels, bounds, counts, n_samples)


def _curve(levels, bounds, counts, n_samples: int) -> TailCurve:
    """The TailCurve of counts[i] hits of levels[i] among n_samples samples,
    with its binomial error, against bounds[i] = (value, valid) capped at 1."""
    p = counts / n_samples
    err = np.sqrt(np.maximum(p * (1 - p), 1.0 / n_samples) / n_samples)
    theo = np.minimum([value for value, _ in bounds], 1.0)
    valid = np.array([ok for _, ok in bounds], dtype=bool)
    return TailCurve(levels, p, err, theo, valid, n_samples)


def resolvable(curve: TailCurve) -> np.ndarray:
    """Levels whose empirical count, 25 hits or more, is large enough to test
    against a bound."""
    return curve.empirical * curve.samples >= 25


# ------------------------------------------------------------------- MGF

def _check_mgf_args(c: float, m_dof: int) -> None:
    """The boundary check of the three MGF helpers."""
    if not _is_real(c):
        raise ValueError(f"c must be a number, got {c!r}")
    if math.isnan(c):
        raise ValueError("c must be a number, got NaN")
    if not _is_integer(m_dof) or m_dof < 1:
        raise ValueError(f"M must be an integer >= 1, got {m_dof!r}")


def gaussian_mgf(c: float, m_dof: int) -> float:
    """E exp(c chi2_M) = (1-2c)^(-M/2); +inf signals the divergence regime."""
    _check_mgf_args(c, m_dof)
    if c >= 0.5:
        return math.inf
    return (1.0 - 2.0 * c) ** (-m_dof / 2.0)


def gaussian_mgf_quadrature(c: float, m_dof: int) -> float:
    """Independent quadrature of the same Gaussian integral.

    The exp-sinh rule of Takahasi and Mori (Publ. RIMS 9, 1974) over the
    chi-square(M) log density: t = exp(pi/2 sinh x), dt = pi/2 cosh x t dx,
    and the trapezoid rule in x on [-5, 5] with step 1/32, 321 nodes that
    reach t from 2e-51 to 4e50. Against (1-2c)^(-M/2) its relative error is
    at most 3e-13 over c in {0.1, 0.25, 0.3, 0.49} and M in {1, 2, 4, 8}
    (the largest at c = 0.49, M = 8, whose mass sits near t = 300), and
    3e-10 at c = 0.49, M = 16; with step 1/16 it is 5e-6 at c = 0.49, M = 8.
    For c down to -1e4 it is within 4e-16; below that the mass moves towards
    the smallest node and digits go (2e-9 at c = -1e6, M = 8).
    """
    from scipy.special import gammaln, xlogy

    _check_mgf_args(c, m_dof)
    if c >= 0.5:
        return math.inf
    x = np.arange(-160, 161) / 32.0
    t = np.exp(np.pi / 2 * np.sinh(x))
    # the chi-square(M) log density, written as scipy.stats.chi2 does
    logpdf = (xlogy(m_dof / 2. - 1, t) - t / 2. - gammaln(m_dof / 2.)
              - (np.log(2) * m_dof) / 2.)
    # a c t past the float range is -inf, whose term is 0
    with np.errstate(over="ignore"):
        f = np.exp(c * t + logpdf)
    return float(np.sum(f * (np.pi / 2 * np.cosh(x) * t)) / 32.0)


def _square_sums(rng, rows: int, shape, weights=None) -> np.ndarray:
    """The sum over each row g of g * g, or of weights * g * g, for the next
    rows rows of standard normals of the given row shape from rng, read in
    the row slices of slices(); each row is reduced on its own, so the sums
    are bit for bit those of one whole draw."""
    axes = tuple(range(1, len(shape) + 1))
    sums = np.empty(rows)
    for _, lo, hi, g in slices(rng, rows, [(shape, math.prod(shape))]):
        if weights is None:
            g *= g
        else:
            g = weights * g * g
        np.sum(g, axis=axes, out=sums[lo:hi])
    return sums


def gaussian_mgf_mc(c: float, m_dof: int, n_samples: int, seed: int = 0):
    """Monte Carlo mean of exp(c chi2_M) with its empirical standard error."""
    _check_mgf_args(c, m_dof)
    _check_integers(n_samples=n_samples)

    def batch(rng, start, b):
        w = np.exp(c * _square_sums(rng, b, (m_dof,)))
        return w.sum(), (w * w).sum()

    total = 0.0
    total2 = 0.0
    for s1, s2 in batches(seed, n_samples, 1 << 16, batch):
        total += s1
        total2 += s2
    mean = total / n_samples
    var = max(total2 / n_samples - mean * mean, 0.0)
    return mean, math.sqrt(var / n_samples)


# ------------------------------------------------------------- Bernstein probe

def bernstein_probe(j: int, p: float, trials: int, seed: int = 0) -> float:
    """Empirical Bernstein constant: max norm ratio over random block fields.

    Half of the corpus are Gaussian block draws, half are flat-amplitude
    random-phase wave packets (random center, aligned phases): the packets are
    the near-extremal family of the inequality, so the probed constant is
    uniform in the block index rather than an artifact of Gaussian typicality.
    """
    _check_integers(j=j, trials=trials)
    _check_p(p)
    if j < 1:
        raise ValueError("block index must be >= 1")
    n_modes = 2 ** j
    grid_size = max(4, int(p) + 2) * n_modes
    keep = _window("block", j, n_modes)
    w = spectral_weights(n_modes)
    freqs = np.arange(1, n_modes + 1)
    size = 512

    def batch(rng, start, b):
        # draw the full batch regardless of b so a smaller corpus is a prefix
        g = rng.standard_normal((size, n_modes, 2))[:b]
        coeffs = np.where(keep, gaussian_coeffs(g, w), 0.0j)
        centers = rng.random(size)[:b]
        packets = np.where(keep,
                           np.exp(-2j * np.pi * np.outer(centers, freqs)),
                           0.0j)
        coeffs[1::2] = packets[1::2]     # parity split keeps prefixes nested
        ratio = 0.0
        for lo, hi in row_slices(b, grid_size):     # each row on its own
            c = coeffs[lo:hi]
            nums = lp_norm(evaluate_coeff_rows(c, grid_size), p)
            l2 = np.sqrt(2.0 * np.sum(np.abs(c) ** 2, axis=1))
            ratio = max(ratio, float(np.max(
                nums / (2.0 ** (j * (0.5 - 1.0 / p)) * l2))))
        return ratio

    return max(batches(seed, trials, size, batch))


# ------------------------------------------------------------ dyadic schedule

@dataclass(frozen=True)
class DyadicSchedule:
    lam: float
    k: int
    r: float
    values: np.ndarray           # lambda_j for j = k .. k + 47
    valid: np.ndarray            # per-j applicability of the chi-square step

    def partial_sum_defect(self) -> float:
        """|closed-form tail sum - lam| for the listed plus remaining terms."""
        j0 = self.k + len(self.values)
        tail = self.lam * (1 - 2.0 ** -self.r) * 2.0 ** (self.k * self.r) \
            * 2.0 ** (-j0 * self.r) / (1 - 2.0 ** -self.r)
        return abs(float(self.values.sum()) + tail - self.lam)


def dyadic_schedule(lam: float, k: int, r: float, p: float,
                    bernstein_c: float = 1.0) -> DyadicSchedule:
    """Geometric level split lambda_j = lam (1-2^-r) 2^(kr) 2^(-jr) at the 48
    levels j = k .. k + 47."""
    _check_integers(k=k)
    if not lam > 0:
        raise ValueError(f"lam must be > 0 and not NaN, got {lam}")
    if not 0.0 < r < 1.0 / p:
        raise ValueError("r must lie in (0, 1/p)")
    if not bernstein_c > 0:
        raise ValueError(f"bernstein_c must be positive, got {bernstein_c}")
    j = np.arange(k, k + 48)
    vals = lam * (1 - 2.0 ** -r) * 2.0 ** (k * r) * 2.0 ** (-j * r)
    # chi-square step needs lambda_j 2^(j/p) >= (3/2) C; lhs increases in j,
    # and past the float range it is inf, which meets it
    with np.errstate(over="ignore"):
        valid = vals * 2.0 ** (j / p) >= 1.5 * bernstein_c
    return DyadicSchedule(lam, k, r, vals, valid)


def high_freq_tail_bound(k: int, lam: float, r: float, p: float,
                         bernstein_c: float) -> tuple[float, bool]:
    """(value, valid): the sum of per-block chi-square bounds over blocks
    j >= k for P(||u_(>k-ish)||_p > lam), the closure exp(-a) of its
    leading term times the geometric-tail sum, and whether the level split
    clears the chi-square step's applicability condition, which at desk
    levels can demand a large k.
    """
    valid = bool(dyadic_schedule(lam, k, r, p, bernstein_c).valid[0])
    # a Python float, whose square past the float range is inf, silently
    lam = float(lam)
    a = lam * lam * (1 - 2.0 ** -r) ** 2 * 2.0 ** ((1 + 2.0 / p) * k) \
        / (4.0 * bernstein_c ** 2)
    rho = 2.0 ** (1 + 2.0 / p - 2 * r)
    pref = 1.0                  # the i = 0 term, exactly, even at a = inf
    for i in range(1, 200):
        t = math.exp(-min(a * (rho ** i - 1.0), 745.0))
        pref += t
        if t < 1e-18:
            break
    return math.exp(-min(a, 745.0)) * pref, valid


def _high_window(k: int, n_modes: int) -> np.ndarray:
    """The keep-mask of the modes above block k - 1; an empty one would
    sample the zero field, which sits under every bound."""
    keep = _window("high", k, n_modes)
    if not keep.any():
        raise ValueError(f"the high window of k={k} holds no mode at "
                         f"n_modes={n_modes}")
    return keep


def high_freq_empirical_1d(k: int, lams, n_modes: int, n_samples: int,
                           bernstein_c: float, p: float = 6.0,
                           seed: int = 0) -> TailCurve:
    """Empirical P(||u_(high k)||_p > lam) against the summed dyadic bound,
    whose level split has the rate r = 1/(2p), halfway into (0, 1/p)."""
    _check_integers(k=k, n_modes=n_modes, n_samples=n_samples)
    _check_p(p)
    lams = _levels(lams)
    r = 0.5 / p
    keep = _high_window(k, n_modes)
    w = spectral_weights(n_modes)
    grid_size = 4 * n_modes
    bounds = [high_freq_tail_bound(k, lam, r, p, bernstein_c) for lam in lams]
    ws = Workspace()

    def batch(rng, start, b):
        counts = 0
        for _, lo, hi, g in slices(rng, b, [((n_modes, 2), grid_size)]):
            coeffs = np.where(keep, gaussian_coeffs(g, w), 0.0j)
            v = evaluate_coeff_rows(coeffs, grid_size,
                                    out=ws("vals", (hi - lo, grid_size)))
            norms = lp_norm(v, p, out=ws("powers", v.shape))
            counts = counts + (norms[:, None] > lams[None, :]).sum(axis=0)
        return counts

    counts = sum(batches(seed, n_samples, 2048, batch))
    return _curve(lams, bounds, counts, n_samples)


# ----------------------------------------------------------------- Fernique

@dataclass(frozen=True)
class FerniqueProbe:
    empirical: np.ndarray
    c_hat: float                 # largest admissible rate; inf if all zero


def fernique_probe(norm_samples, ts) -> FerniqueProbe:
    """Empirical P(||X|| >= t E||X||) and the largest rate c with
    empirical <= exp(-c t^2) across the resolvable grid points."""
    x = np.asarray(norm_samples, dtype=float)
    if len(x) < 1000:
        raise ValueError("need at least 1e3 norm samples")
    ts = np.asarray(ts, dtype=float)
    if not np.all(ts > 1.0):
        raise ValueError(f"every t must exceed 1 and not be NaN, got {ts}")
    mean = x.mean()
    if not mean > 0:
        raise ValueError(f"the mean norm must be positive, got {mean}")
    if not math.isfinite(mean):
        raise ValueError(f"norm samples must be finite, got a mean of {mean}")
    emp = np.array([(x >= t * mean).mean() for t in ts])
    with np.errstate(divide="ignore"):
        rates = np.where(emp > 0, -np.log(np.maximum(emp, 1e-300)) / ts ** 2,
                         np.inf)
    return FerniqueProbe(emp, float(np.min(rates)))


def block_norm_samples_2d(j: int, n_samples: int, table: BesselTable,
                          seed: int = 0) -> np.ndarray:
    """L4 norms of dyadic block fields on the disc, for Fernique probes."""
    _check_integers(j=j, n_samples=n_samples)
    return _disc_l4_norms(_window("block", j, 2 ** j), n_samples, table, seed)


# dyadic blocks whose L4 expectation sets the 2D tail constant C4; block j
# spans modes 2^(j-1)+1 .. 2^j, so the table must hold 2^5 zeros
_C4_BLOCKS = (3, 4, 5)


def disc_tail_constants(table: BesselTable, seed: int) -> tuple[float, float]:
    """(c_prime, c4) of block_tail_2d, measured: the Fernique rate of 3000
    block-4 L4 norms (stream seed) at t = 1.5, 2, 3, and the largest
    E||v_j||_4 2^(j/2) over the blocks j of _C4_BLOCKS, each from 2000
    samples (stream seed + 1)."""
    norms = block_norm_samples_2d(4, 3000, table, seed=seed)
    c_prime = fernique_probe(norms, [1.5, 2.0, 3.0]).c_hat
    c4 = max(block_l4_expectation(j, 2000, table, seed=seed + 1)[0]
             * 2 ** (j / 2) for j in _C4_BLOCKS)
    return c_prime, c4


def block_tail_2d(k: int, lam: float, c_prime: float,
                  c4: float) -> tuple[float, bool]:
    """(value, valid) of the chained disc tail bound: split lam over the 60
    blocks j = k .. k + 59 with the geometric weights
    eps_j = (1-2^-s) 2^(ks) 2^(-js), s = 1/4, apply the Fernique rate to
    each block and sum, capped at 1; valid if every block's tail level
    exceeds 1."""
    _check_integers(k=k)
    if not lam > 0:
        raise ValueError(f"lam must be > 0 and not NaN, got {lam}")
    if not (c_prime > 0 and c4 > 0):
        raise ValueError(f"c_prime and c4 must be positive, got {c_prime} "
                         f"and {c4}")
    s = 0.25
    j = np.arange(k, k + 60)
    eps = (1 - 2.0 ** -s) * 2.0 ** (k * s) * 2.0 ** (-j * s)
    total = 0.0
    valid = True
    # a tail level or its square past the float range is inf, and its term
    # exp(-745); the square stays the scalar power, which x * x would move
    # by an ulp now and then
    with np.errstate(over="ignore"):
        for i, e in enumerate(eps):
            tail_level = e * lam / (c4 * 2.0 ** (-(k + i) / 2.0))
            if tail_level <= 1.0:
                valid = False
            total += math.exp(-min(c_prime * tail_level ** 2, 745.0))
    return min(total, 1.0), valid


def block_tail_empirical_2d(k: int, lams, n_modes: int, n_samples: int,
                            table: BesselTable, c_prime: float, c4: float,
                            seed: int = 0) -> TailCurve:
    """Empirical P(||v_(high k)||_4 >= lam) against the chained bound."""
    _check_integers(k=k, n_modes=n_modes, n_samples=n_samples)
    lams = _levels(lams)
    bounds = [block_tail_2d(k, lam, c_prime, c4) for lam in lams]
    norms = _disc_l4_norms(_high_window(k, n_modes), n_samples, table, seed)
    return _curve(lams, bounds, (norms[:, None] >= lams[None, :]).sum(axis=0),
                  n_samples)
