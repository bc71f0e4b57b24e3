"""Concentration-inequality laboratory.

Every bound carries its validity condition and every Monte Carlo probe
reports resolvability: a level whose empirical probability cannot be
distinguished from zero at the given sample count is marked unresolvable
rather than counted as a confirmation.

Unspecified constants are treated as measurable artifacts: the Bernstein
constant and the Fernique rate come from probes, and geometric-tail
prefactors are evaluated by explicit summation rather than quoted.
"""
import math
from dataclasses import dataclass, field

import numpy as np

from .radial2d import BesselTable, _disc_l4_norms
from .rng import batches, row_slices
from .spectral1d import (SpectralField1D, evaluate_coeff_rows,
                         gaussian_coeffs, lp_norm, spectral_weights, _window)


@dataclass(frozen=True)
class TailCurve:
    """Empirical tail probabilities with matched theoretical bounds."""

    levels: np.ndarray
    empirical: np.ndarray
    err: np.ndarray
    theoretical: np.ndarray          # NaN where no bound is defined
    valid: np.ndarray                # bound validity flags
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if np.any(np.diff(self.levels) <= 0):
            raise ValueError("levels must be strictly increasing")
        if np.any((self.empirical < 0) | (self.empirical > 1)):
            raise ValueError("empirical probabilities outside [0, 1]")

    def to_csv(self, path) -> None:
        import csv

        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["level", "empirical", "err", "theoretical",
                        "valid_flag"])
            for i in range(len(self.levels)):
                t = self.theoretical[i]
                w.writerow([f"{self.levels[i]:.12g}",
                            f"{self.empirical[i]:.12g}",
                            f"{self.err[i]:.12g}",
                            "" if math.isnan(t) else f"{t:.12g}",
                            int(self.valid[i])])


# ------------------------------------------------------------ chi-square tail

def chi2_tail_bound(m_dof: int, level: float):
    """Bound exp(-R^2/4) for P(chi2_M >= R^2), valid once R >= 3 sqrt(M)."""
    if m_dof < 1 or level <= 0:
        raise ValueError("need M >= 1 and R > 0")
    return math.exp(-level * level / 4.0), level >= 3.0 * math.sqrt(m_dof)


def chi2_tail_empirical(m_dof: int, levels, n_samples: int,
                        seed: int = 0) -> TailCurve:
    """Monte Carlo tail of a chi-square with the matching analytic bound."""
    levels = np.asarray(levels, dtype=float)

    def batch(rng, start, b):
        z = rng.standard_normal((b, m_dof))
        s = np.sum(z * z, axis=1)
        return (s[:, None] >= levels[None, :] ** 2).sum(axis=0)

    counts = sum(batches(seed, n_samples, 1 << 16, batch))
    p = counts / n_samples
    err = np.sqrt(np.maximum(p * (1 - p), 1.0 / n_samples) / n_samples)
    theo = np.array([chi2_tail_bound(m_dof, r)[0] for r in levels])
    valid = np.array([chi2_tail_bound(m_dof, r)[1] for r in levels])
    return TailCurve(levels, p, err, theo, valid,
                     {"kind": "chi2", "M": m_dof, "samples": n_samples,
                      "seed": seed})


def resolvable(curve: TailCurve) -> np.ndarray:
    """Levels whose empirical count, 25 hits or more, is large enough to test
    against a bound."""
    return curve.empirical * curve.metadata.get("samples", 0) >= 25


# ------------------------------------------------------------------- MGF

def gaussian_mgf(c: float, m_dof: int) -> float:
    """E exp(c chi2_M) = (1-2c)^(-M/2); +inf signals the divergence regime."""
    if m_dof < 1:
        raise ValueError("M must be >= 1")
    if c >= 0.5:
        return math.inf
    return (1.0 - 2.0 * c) ** (-m_dof / 2.0)


def gaussian_mgf_quadrature(c: float, m_dof: int) -> float:
    """Independent quadrature of the same Gaussian integral."""
    from scipy.integrate import quad
    from scipy.special import gammaln, xlogy

    if c >= 0.5:
        return math.inf

    def integrand(t):
        # the chi-square(M) log density, written as scipy.stats.chi2 does
        logpdf = (xlogy(m_dof / 2. - 1, t) - t / 2. - gammaln(m_dof / 2.)
                  - (np.log(2) * m_dof) / 2.)
        return math.exp(c * t + logpdf)

    val, _ = quad(integrand, 0.0, np.inf, limit=400)
    return val


def gaussian_mgf_mc(c: float, m_dof: int, n_samples: int, seed: int = 0):
    """Monte Carlo mean of exp(c chi2_M) with its empirical standard error."""
    def batch(rng, start, b):
        z = rng.standard_normal((b, m_dof))
        w = np.exp(c * np.sum(z * z, axis=1))
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

@dataclass(frozen=True)
class BernsteinProbe:
    c_hat: float
    best_field: SpectralField1D
    block: int
    p: float
    trials: int


def bernstein_probe(j: int, p: float, trials: int, seed: int = 0) -> BernsteinProbe:
    """Empirical Bernstein constant: max norm ratio over random block fields.

    Half of the corpus are Gaussian block draws, half are flat-amplitude
    random-phase wave packets (random center, aligned phases): the packets are
    the near-extremal family of the inequality, so the probed constant is
    uniform in the block index rather than an artifact of Gaussian typicality.
    """
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
        vals = evaluate_coeff_rows(coeffs, grid_size)
        nums = lp_norm(vals, p)
        l2 = np.sqrt(2.0 * np.sum(np.abs(coeffs) ** 2, axis=1))
        ratios = nums / (2.0 ** (j * (0.5 - 1.0 / p)) * l2)
        i = int(np.argmax(ratios))
        return float(ratios[i]), coeffs[i].copy()   # not a view of the batch

    best = -math.inf
    best_coeffs = None
    for ratio, coeffs in batches(seed, trials, size, batch):
        if ratio > best:
            best, best_coeffs = ratio, coeffs
    return BernsteinProbe(best, SpectralField1D(best_coeffs[None]), j, p,
                          trials)


# ------------------------------------------------------------ dyadic schedule

@dataclass(frozen=True)
class DyadicSchedule:
    lam: float
    k: int
    r: float
    p: float
    bernstein_c: float
    values: np.ndarray           # lambda_j for j = k .. k + 47
    valid: np.ndarray            # per-j applicability of the chi-square step
    minimal_valid_k: int

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
    if lam <= 0:
        raise ValueError("lam must be positive")
    if not 0.0 < r < 1.0 / p:
        raise ValueError("r must lie in (0, 1/p)")
    j = np.arange(k, k + 48)
    vals = lam * (1 - 2.0 ** -r) * 2.0 ** (k * r) * 2.0 ** (-j * r)
    # chi-square step needs lambda_j 2^(j/p) >= (3/2) C; lhs increases in j
    valid = vals * 2.0 ** (j / p) >= 1.5 * bernstein_c
    kmin = math.ceil(p * math.log2(1.5 * bernstein_c
                                   / (lam * (1 - 2.0 ** -r))))
    return DyadicSchedule(lam, k, r, p, bernstein_c, vals, valid,
                          max(0, kmin))


@dataclass(frozen=True)
class HighFreqBound:
    """Summed dyadic tail bound for P(||u_(>k-ish)||_p > lam)."""

    k: int
    lam: float
    r: float
    p: float
    bernstein_c: float
    value: float                 # explicit sum over blocks
    closed_form: float           # leading-term closure
    prefactor: float             # value / closed_form, the geometric-tail sum
    valid: bool


def high_freq_tail_bound(k: int, lam: float, r: float, p: float,
                         bernstein_c: float,
                         require_valid: bool = True) -> HighFreqBound:
    """Sum of per-block chi-square bounds over blocks j >= k.

    The chi-square step is only justified once the level split clears the
    applicability condition, which at desk levels can demand a large k; with
    require_valid=False the formula is still evaluated and the flag records
    that the derivation's precondition failed (the curves report it as-is).
    """
    sched = dyadic_schedule(lam, k, r, p, bernstein_c)
    valid = bool(sched.valid[0])
    if require_valid and not valid:
        raise ValueError(
            f"schedule invalid at k={k}; minimal valid k is "
            f"{sched.minimal_valid_k}")
    a = lam * lam * (1 - 2.0 ** -r) ** 2 * 2.0 ** ((1 + 2.0 / p) * k) \
        / (4.0 * bernstein_c ** 2)
    rho = 2.0 ** (1 + 2.0 / p - 2 * r)
    pref = 0.0
    for i in range(200):
        t = math.exp(-min(a * (rho ** i - 1.0), 745.0))
        pref += t
        if t < 1e-18:
            break
    closed = math.exp(-min(a, 745.0))
    return HighFreqBound(k, lam, r, p, bernstein_c,
                         value=closed * pref, closed_form=closed,
                         prefactor=pref, valid=valid)


def high_freq_empirical_1d(k: int, lams, n_modes: int, n_samples: int,
                           p: float = 6.0, seed: int = 0,
                           bernstein_c: float | None = None) -> TailCurve:
    """Empirical P(||u_(high k)||_p > lam) against the summed dyadic bound,
    whose level split has the rate r = 1/(2p), halfway into (0, 1/p)."""
    lams = np.asarray(lams, dtype=float)
    r = 0.5 / p
    keep = _window("high", k, n_modes)
    w = spectral_weights(n_modes)
    grid_size = 4 * n_modes

    def batch(rng, start, b):
        g = rng.standard_normal((b, n_modes, 2))
        counts = 0
        for lo, hi in row_slices(b, grid_size):     # each row on its own
            coeffs = np.where(keep, gaussian_coeffs(g[lo:hi], w), 0.0j)
            norms = lp_norm(evaluate_coeff_rows(coeffs, grid_size), p)
            counts = counts + (norms[:, None] > lams[None, :]).sum(axis=0)
        return counts

    counts = sum(batches(seed, n_samples, 2048, batch))
    emp = counts / n_samples
    err = np.sqrt(np.maximum(emp * (1 - emp), 1.0 / n_samples) / n_samples)
    cb = 1.0 if bernstein_c is None else bernstein_c
    theo = np.empty(len(lams))
    valid = np.zeros(len(lams), dtype=bool)
    for i, lam in enumerate(lams):
        hb = high_freq_tail_bound(k, lam, r, p, cb, require_valid=False)
        theo[i], valid[i] = min(hb.value, 1.0), hb.valid
    return TailCurve(lams, emp, err, theo, valid,
                     {"kind": "high-freq-1d", "k": k, "p": p,
                      "n_modes": n_modes, "samples": n_samples, "seed": seed,
                      "bernstein_c": cb, "r": r})


# ----------------------------------------------------------------- Fernique

@dataclass(frozen=True)
class FerniqueProbe:
    ts: np.ndarray
    empirical: np.ndarray
    err: np.ndarray
    c_hat: float                 # largest admissible rate; inf if all zero


def fernique_probe(norm_samples, ts) -> FerniqueProbe:
    """Empirical P(||X|| >= t E||X||) and the largest rate c with
    empirical <= exp(-c t^2) across the resolvable grid points."""
    x = np.asarray(norm_samples, dtype=float)
    if len(x) < 1000:
        raise ValueError("need at least 1e3 norm samples")
    ts = np.asarray(ts, dtype=float)
    if np.any(ts <= 1.0):
        raise ValueError("t must exceed 1")
    mean = x.mean()
    n = len(x)
    emp = np.array([(x >= t * mean).mean() for t in ts])
    err = np.sqrt(np.maximum(emp * (1 - emp), 1.0 / n) / n)
    with np.errstate(divide="ignore"):
        rates = np.where(emp > 0, -np.log(np.maximum(emp, 1e-300)) / ts ** 2,
                         np.inf)
    return FerniqueProbe(ts, emp, err, float(np.min(rates)))


def block_norm_samples_2d(j: int, n_samples: int, table: BesselTable,
                          seed: int = 0) -> np.ndarray:
    """L4 norms of dyadic block fields on the disc, for Fernique probes."""
    return _disc_l4_norms(_window("block", j, 2 ** j), n_samples, table, seed)


@dataclass(frozen=True)
class Block2DBound:
    k: int
    lam: float
    s: float
    c_prime: float
    c4: float
    value: float                 # explicit sum over blocks j >= k
    closed_form: float           # C'' closure exp(-c'' lam^2 2^k)
    prefactor: float
    c_double_prime: float
    valid: bool                  # every summed term had t_j > 1


def block_tail_2d(k: int, lam: float, c_prime: float,
                  c4: float) -> Block2DBound:
    """Chained disc tail bound: split lam over the 60 blocks j = k .. k + 59
    with the geometric weights eps_j = (1-2^-s) 2^(ks) 2^(-js), s = 1/4,
    apply the Fernique rate to each block, and close the geometric sum."""
    s = 0.25
    j = np.arange(k, k + 60)
    eps = (1 - 2.0 ** -s) * 2.0 ** (k * s) * 2.0 ** (-j * s)
    total = 0.0
    valid = True
    for i, e in enumerate(eps):
        jj = k + i
        tail_level = e * lam / (c4 * 2.0 ** (-jj / 2.0))
        if tail_level <= 1.0:
            valid = False
        total += math.exp(-min(c_prime * tail_level ** 2, 745.0))
    cdd = c_prime * (1 - 2.0 ** -s) ** 2 / (c4 * c4)
    closed = math.exp(-min(cdd * lam * lam * 2.0 ** k, 745.0))
    pref = total / closed if closed > 0 else math.inf
    return Block2DBound(k, lam, s, c_prime, c4, value=min(total, 1.0),
                        closed_form=closed, prefactor=pref,
                        c_double_prime=cdd, valid=valid)


def block_tail_empirical_2d(k: int, lams, n_modes: int, n_samples: int,
                            table: BesselTable, seed: int = 0,
                            c_prime: float | None = None,
                            c4: float | None = None) -> TailCurve:
    """Empirical P(||v_(high k)||_4 >= lam) against the chained bound."""
    lams = np.asarray(lams, dtype=float)
    norms = _disc_l4_norms(_window("high", k, n_modes), n_samples, table, seed)
    emp = (norms[:, None] >= lams[None, :]).sum(axis=0) / n_samples
    err = np.sqrt(np.maximum(emp * (1 - emp), 1.0 / n_samples) / n_samples)
    theo = np.full(len(lams), math.nan)
    valid = np.zeros(len(lams), dtype=bool)
    if c_prime is not None and c4 is not None:
        for i, lam in enumerate(lams):
            bb = block_tail_2d(k, lam, c_prime, c4)
            theo[i], valid[i] = bb.value, bb.valid
    return TailCurve(lams, emp, err, theo, valid,
                     {"kind": "block-tail-2d", "k": k, "n_modes": n_modes,
                      "samples": n_samples, "seed": seed})
