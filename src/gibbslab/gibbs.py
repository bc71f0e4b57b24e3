"""Monte Carlo estimation of the cutoff partition functions

    Z = E[ exp((1/p) int |u|^p) 1{ ||u||_2 <= K } ]

for the 1D loop and 2D disc ensembles, with constrained tail curves, the
layer-cake cross-check, and the truncation divergence scan.

All accumulation is in log space with an associative (max, sum-exp) merge in
stream order, so reports are bit-identical for a given config regardless of
worker count. Three proposal modes are available:

  plain    -- direct sampling of the Gaussian ensemble;
  tilted   -- half/half mixture with the lowest four modes variance-inflated;
  soliton  -- half/half mixture with the means shifted onto a near-cutoff-mass
              concentration profile (the extremal family of the interpolation
              inequality) whose width shrinks with the truncation level.

The soliton proposal exists because the divergent region of configuration
space is exponentially rare under the plain ensemble: the mixture keeps the
weights bounded by two while letting the estimator actually visit the
concentration channel whose growth with the truncation level is the
observable signature of a divergent partition function.

Each batch is drawn whole (one stream, BATCH_SIZE rows) but synthesized in
row slices of about SYNTH_BUDGET grid values, so that the spectrum, the grid
and the |u|^p chain of a slice stay in cache; a batch that fits the budget
goes through whole. Every row is reduced on its own, so slicing changes no
result bit. The rows of a slice are a power of two, at least 64: OpenBLAS
computes the last rows of a 2D matrix product whose row count is not a
multiple of its 4-row kernel with another kernel that rounds differently
(slices of 7 or 626 rows moved power_mean by up to 4e-15 relative), and with
power-of-two slices those rows are the same ones as in the whole batch.
"""
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from ._core import abs_power_mean, weighted_abs_power_sum
from .bessel import bessel_zeros
from .groundstate import profile_function, solve_ground_state
from .radial2d import RadialBasis, radial_basis
from . import rng
from .rng import BATCH_SIZE
from .spectral1d import (GFF, evaluate_coeff_rows, gaussian_coeffs,
                         spectral_weights)
from .tails import TailCurve

SAMPLERS = ("plain", "tilted", "soliton")
_LOG_HUGE = 700.0
SYNTH_BUDGET = 1 << 19         # grid values per synthesis slice (4 MB)
TILT_SCALE = 2.0               # tilted: standard deviation of the tilted modes
TILT_MODES = 4                 # tilted: how many of the lowest modes
SOLITON_MASS_FRACTION = 0.95   # soliton: shift mass as a fraction of K


@dataclass(frozen=True)
class EnsembleConfig:
    dim: int
    p: float
    cutoff: float                  # L2 cutoff K; may be math.inf
    n_modes: int
    n_samples: int
    seed: int = 0
    sampler: str = "plain"
    normalization: str = GFF       # 1D spectral weight convention
    grid_size: int | None = None   # 1D; defaults to 4 * n_modes
    calibration: bool = False      # replace the Gibbs exponent by 0

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError("dim must be 1 or 2")
        if not 1 <= self.p < math.inf:
            raise ValueError(f"p must be finite and >= 1, got {self.p!r}")
        if not self.cutoff >= 0:
            raise ValueError(
                f"cutoff must be nonnegative, got {self.cutoff!r}")
        if self.n_modes < 1 or self.n_samples < 1:
            raise ValueError("n_modes and n_samples must be positive")
        if self.sampler not in SAMPLERS:
            raise ValueError(f"sampler must be one of {SAMPLERS}")
        if self.sampler == "soliton" and math.isinf(self.cutoff):
            # its shift is scaled to a fraction of the cutoff mass
            raise ValueError("the soliton sampler needs a finite cutoff, "
                             f"got cutoff={self.cutoff!r}")

    def resolved_grid_size(self) -> int:
        g = self.grid_size if self.grid_size is not None else 4 * self.n_modes
        if g < 4 * self.n_modes:
            raise ValueError(
                f"grid_size {g} below the anti-aliasing floor "
                f"{4 * self.n_modes}")
        return g

    def to_dict(self) -> dict:
        d = {k: getattr(self, k) for k in self.__dataclass_fields__}
        d["cutoff"] = repr(self.cutoff) if math.isinf(self.cutoff) \
            else self.cutoff
        return d


@dataclass(frozen=True)
class EstimatorReport:
    estimate: float
    log_estimate: float
    standard_error: float
    log_std_error: float           # relative (delta-method) error of the mean
    effective_sample_size: float
    fraction_inside_cutoff: float
    n_modes: int
    n_samples: int
    seed: int
    config: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.estimate < 0 or self.standard_error < 0:
            raise ValueError("negative estimate or error")
        if not 0.0 <= self.fraction_inside_cutoff <= 1.0:
            raise ValueError("fraction_inside_cutoff outside [0, 1]")

    def to_json(self) -> str:
        def enc(v):
            if isinstance(v, float) and (math.isinf(v) or math.isnan(v)):
                return repr(v)
            return v

        d = {k: enc(getattr(self, k)) for k in self.__dataclass_fields__
             if k != "config"}
        d["config"] = self.config
        return json.dumps(d, indent=2)


@dataclass(frozen=True)
class DivergenceVerdict:
    n_schedule: tuple
    log_estimates: tuple
    log_errors: tuple
    fractions_inside: tuple
    slope: float
    slope_error: float
    verdict: str                   # stable | diverging | inconclusive

    def scan_rows(self):
        return list(zip(self.n_schedule, self.log_estimates, self.log_errors,
                        self.fractions_inside))


# ------------------------------------------------------------- tilt profiles

def _sech_shift_1d(n_modes: int, cutoff: float, frac: float,
                   normalization: str) -> np.ndarray:
    """Mean shift, in standard-normal coordinates, onto a mass frac*cutoff
    concentration bump of width ~ 4/n_modes (mean-zero, wrapped)."""
    w = max(4.0 / n_modes, 0.001)
    m_grid = 8 * n_modes
    x = np.arange(m_grid) / m_grid
    prof = 1.0 / np.sqrt(np.cosh((x - 0.5) / w))
    prof -= prof.mean()
    ch = np.fft.rfft(prof) / m_grid
    c = ch[1:n_modes + 1]
    mass = math.sqrt(2.0 * float(np.sum(np.abs(c) ** 2)))
    c = c * (frac * cutoff / mass)
    wn = spectral_weights(n_modes, normalization)
    g_target = np.sqrt(2.0) * c / wn
    return np.stack([g_target.real, g_target.imag], axis=-1)


def _disc_shift_2d(n_modes: int, p: float, cutoff: float, frac: float,
                   basis: RadialBasis) -> np.ndarray:
    """Mean shift onto a mass frac*cutoff dilated exponent-p ground-state
    profile of width ~ 8/z_N projected onto the disc modes."""
    if not float(p).is_integer():
        raise ValueError(f"the 2D soliton shift needs an integer p, got {p!r}")
    gs = solve_ground_state(2, int(p))
    phi = profile_function(gs)
    z = basis.table.zeros[:n_modes]
    w = 8.0 / z[-1]
    r = basis.quad.nodes
    target = (frac * cutoff / gs.mass) * phi(r / w) / w
    a = basis.project(target)[:n_modes]
    mass = math.sqrt(float(np.sum(a * a)))
    if mass > 0:
        a *= min(1.0, frac * cutoff / mass)
    return z * a


# ------------------------------------------------------------- batch machinery

class _Ensemble1D:
    def __init__(self, cfg: EnsembleConfig):
        self.cfg = cfg
        self.weights = spectral_weights(cfg.n_modes, cfg.normalization)
        self.width = cfg.resolved_grid_size()       # grid points per row
        self.theta = None
        if cfg.sampler == "soliton":
            self.theta = _sech_shift_1d(cfg.n_modes, cfg.cutoff,
                                        SOLITON_MASS_FRACTION,
                                        cfg.normalization)

    def draw(self, gen, b):
        return gen.standard_normal((b, self.cfg.n_modes, 2))

    def synthesize(self, g):
        """(int |u|^p, ||u||_2^2) per row of Gaussians."""
        coeffs = gaussian_coeffs(g, self.weights)
        vals = evaluate_coeff_rows(coeffs, self.width)
        return (abs_power_mean(vals, self.cfg.p),
                2.0 * np.sum(np.abs(coeffs) ** 2, axis=1))


class _Ensemble2D:
    def __init__(self, cfg: EnsembleConfig, basis: RadialBasis | None):
        self.cfg = cfg
        if basis is None:
            basis = radial_basis(bessel_zeros(cfg.n_modes), cfg.n_modes)
        if basis.n_modes < cfg.n_modes:
            raise ValueError(f"basis holds {basis.n_modes} modes, fewer than "
                             f"n_modes={cfg.n_modes}")
        self.matrix_t = basis.matrix[:, :cfg.n_modes].T
        self.inv_z = 1.0 / basis.table.zeros[:cfg.n_modes]
        self.area_w = basis.quad.area_weights
        self.width = basis.quad.count               # quadrature nodes per row
        self.theta = None
        if cfg.sampler == "soliton":
            self.theta = _disc_shift_2d(cfg.n_modes, cfg.p, cfg.cutoff,
                                        SOLITON_MASS_FRACTION, basis)

    def draw(self, gen, b):
        return gen.standard_normal((b, self.cfg.n_modes))

    def synthesize(self, g):
        """(int |v|^p, ||v||_2^2) per row of Gaussians."""
        coeffs = g * self.inv_z
        vals = coeffs @ self.matrix_t
        return (weighted_abs_power_sum(vals, self.area_w, self.cfg.p),
                np.sum(coeffs * coeffs, axis=1))


def _synthesize(ens, g):
    """ens.synthesize(g) run over row slices of about SYNTH_BUDGET grid
    values and joined per row; bit-identical to the whole batch at once."""
    if len(g) * ens.width <= SYNTH_BUDGET:
        return ens.synthesize(g)
    rows = max(SYNTH_BUDGET // ens.width, 64)
    rows = 1 << (rows.bit_length() - 1)        # a power of two, see above
    parts = [ens.synthesize(g[i:i + rows]) for i in range(0, len(g), rows)]
    return tuple(np.concatenate(col) for col in zip(*parts))


def _make_ensemble(cfg, basis=None):
    return _Ensemble1D(cfg) if cfg.dim == 1 else _Ensemble2D(cfg, basis)


def _apply_proposal(ens, g):
    """Stratified half/half mixture; returns (g, log_weight) with w <= 2."""
    cfg = ens.cfg
    b = g.shape[0]
    half = b // 2
    if cfg.sampler == "plain":
        return g, np.zeros(b)
    if cfg.sampler == "tilted":
        k = min(TILT_MODES, cfg.n_modes)
        sig = TILT_SCALE
        g = g.copy()
        g[half:, :k] *= sig
        flat = g[:, :k].reshape(b, -1)
        # per-coordinate density ratio of N(0, sig^2) to N(0, 1)
        log_rho = 0.5 * (1.0 - 1.0 / (sig * sig)) * np.sum(flat * flat, axis=1) \
            - flat.shape[1] * math.log(sig)
    else:
        theta = ens.theta
        g = g.copy()
        g[half:] += theta
        dot = np.tensordot(g, theta, axes=(tuple(range(1, g.ndim)),
                                           tuple(range(theta.ndim))))
        log_rho = dot - 0.5 * float(np.sum(theta * theta))
    log_w = math.log(2.0) - np.logaddexp(0.0, log_rho)
    return g, log_w


def _batched(cfg, ens, fn, stream_offset=0):
    # Kept as a separate module-level name with this signature because the
    # benchmark's tracer (perfbench/spans.py) rebinds it to time the pool.
    return rng.batches(cfg.seed, cfg.n_samples, BATCH_SIZE, fn, stream_offset)


def _combine_lse(partials):
    """Associative merge of (max, sum_exp, sum_exp_sq, n_inside) partials."""
    m = -math.inf
    for pm, *_ in partials:
        m = max(m, pm)
    s1 = s2 = 0.0
    inside = 0
    for pm, ps1, ps2, pin in partials:
        if math.isfinite(pm):
            s1 += ps1 * math.exp(pm - m)
            s2 += ps2 * math.exp(2.0 * (pm - m))
        inside += pin
    return m, s1, s2, inside


def estimate_partition(cfg: EnsembleConfig,
                       basis: RadialBasis | None = None) -> EstimatorReport:
    """Importance-weighted mean of the cutoff Gibbs weight."""
    ens = _make_ensemble(cfg, basis)
    ksq = cfg.cutoff * cfg.cutoff

    def batch(gen, start, b):
        g = ens.draw(gen, b)
        g, log_w = _apply_proposal(ens, g)
        power_mean, l2sq = _synthesize(ens, g)
        inside = l2sq <= ksq
        expo = log_w if cfg.calibration else log_w + power_mean / cfg.p
        lw = np.where(inside, expo, -math.inf)
        m = float(np.max(lw)) if len(lw) else -math.inf
        if not math.isfinite(m):
            return (-math.inf, 0.0, 0.0, int(inside.sum()))
        e = np.exp(lw - m)
        return (m, float(e.sum()), float((e * e).sum()), int(inside.sum()))

    m, s1, s2, inside = _combine_lse(_batched(cfg, ens, batch))
    n = cfg.n_samples
    if s1 <= 0.0 or not math.isfinite(m):
        return EstimatorReport(0.0, -math.inf, 0.0, 0.0, 0.0, inside / n,
                               cfg.n_modes, n, cfg.seed, cfg.to_dict())
    log_mean = m + math.log(s1) - math.log(n)
    log_mean2 = 2 * m + math.log(s2) - math.log(n)
    ess = s1 * s1 / s2
    rel = math.sqrt(max(math.exp(min(log_mean2 - 2 * log_mean, _LOG_HUGE))
                        / n - 1.0 / n, 0.0))
    estimate = math.exp(log_mean) if log_mean < _LOG_HUGE else math.inf
    se = rel * estimate if math.isfinite(estimate) else math.inf
    return EstimatorReport(estimate, log_mean, se, rel, ess, inside / n,
                           cfg.n_modes, n, cfg.seed, cfg.to_dict())


def constrained_tail(cfg: EnsembleConfig, lam: float,
                     basis: RadialBasis | None = None,
                     stream_offset: int = 0) -> EstimatorReport:
    """P(||u||_p > lam, ||u||_2 <= K) with its sampling error."""
    return constrained_tails(cfg, [lam], basis, stream_offset)[0]


def constrained_tails(cfg: EnsembleConfig, lams,
                      basis: RadialBasis | None = None,
                      stream_offset: int = 0) -> list[EstimatorReport]:
    """constrained_tail at every level of lams from one pass over the draws.

    The levels share their draws, so their errors are correlated; each
    report is bit-identical to the single-level call.
    """
    lams = [float(lam) for lam in lams]
    for lam in lams:
        if not lam >= 0:
            raise ValueError(f"lam must be >= 0, got {lam!r}")
    ens = _make_ensemble(cfg, basis)
    ksq = cfg.cutoff * cfg.cutoff

    def batch(gen, start, b):
        g = ens.draw(gen, b)
        g, log_w = _apply_proposal(ens, g)
        power_mean, l2sq = _synthesize(ens, g)
        lp = power_mean ** (1.0 / cfg.p)
        inside = l2sq <= ksq
        weight = np.exp(log_w)
        sums = []
        for lam in lams:
            # a 1-D sum per level: summing a (b, levels) array along axis 0
            # adds in another order and changes the bits
            w = np.where(inside & (lp > lam), weight, 0.0)
            sums.append((float(w.sum()), float((w * w).sum())))
        return int(inside.sum()), sums

    parts = _batched(cfg, ens, batch, stream_offset=stream_offset)
    inside = sum(count for count, _ in parts)
    n = cfg.n_samples
    reports = []
    for per_batch in zip(*(sums for _, sums in parts)):     # level by level
        sw = sum(s1 for s1, _ in per_batch)
        sw2 = sum(s2 for _, s2 in per_batch)
        mean = sw / n
        var = max(sw2 / n - mean * mean, 0.0)
        se = math.sqrt(var / n)
        ess = sw * sw / sw2 if sw2 > 0 else 0.0
        reports.append(EstimatorReport(
            mean, math.log(mean) if mean > 0 else -math.inf, se,
            se / mean if mean > 0 else 0.0, ess, inside / n, cfg.n_modes, n,
            cfg.seed, cfg.to_dict()))
    return reports


def tail_curve(cfg: EnsembleConfig, lams,
               basis: RadialBasis | None = None) -> TailCurve:
    """Constrained tail probabilities on a level grid.

    Each level consumes its own block of streams, so the per-level errors are
    independent and combine in quadrature downstream.
    """
    lams = np.asarray(lams, dtype=float)
    n_batches = (cfg.n_samples + BATCH_SIZE - 1) // BATCH_SIZE
    emp = np.empty(len(lams))
    err = np.empty(len(lams))
    frac = np.empty(len(lams))
    for i, lam in enumerate(lams):
        rep = constrained_tail(cfg, float(lam), basis,
                               stream_offset=i * n_batches)
        emp[i], err[i], frac[i] = rep.estimate, rep.standard_error, \
            rep.fraction_inside_cutoff
    return TailCurve(lams, emp, err, np.full(len(lams), math.nan),
                     np.zeros(len(lams), dtype=bool),
                     {"kind": "constrained-tail", "independent_levels": True,
                      "fraction_inside": float(frac[0]),
                      "config": cfg.to_dict(), "samples": cfg.n_samples})


@dataclass(frozen=True)
class LayerCakeResult:
    estimate: float
    stderr: float
    inconclusive: bool


def layer_cake_reconstruct(curve: TailCurve, p: float) -> LayerCakeResult:
    """Rebuild the partition estimate from a constrained tail curve:
    P(A) + int lam^(p-1) exp(lam^p / p) P(||u||_p > lam, A) d lam."""
    lam = curve.levels
    if lam[0] != 0.0:
        raise ValueError("curve must start at level 0 (giving P(A))")
    g_fac = lam ** (p - 1) * np.exp(lam ** p / p)
    integrand = g_fac * curve.empirical
    dl = np.diff(lam)
    trap_w = np.zeros(len(lam))
    trap_w[:-1] += dl / 2.0
    trap_w[1:] += dl / 2.0
    integral = float(np.sum(trap_w * integrand))
    estimate = float(curve.empirical[0]) + integral
    per_level = trap_w * g_fac * curve.err
    if curve.metadata.get("independent_levels"):
        var = float(curve.err[0] ** 2 + np.sum(per_level ** 2))
        stderr = math.sqrt(var)
    else:
        stderr = float(curve.err[0] + np.sum(per_level))
    # truncated too early if the last bin still carries weight in the integral
    last = float(integrand[-1] * dl[-1]) if len(dl) else 0.0
    inconclusive = last > 1e-2 * max(integral, 1e-300) and integral > 0.0
    return LayerCakeResult(estimate, stderr, inconclusive)


def divergence_scan(cfg: EnsembleConfig, n_schedule) -> DivergenceVerdict:
    """Partition estimates along a truncation schedule with matched seeds,
    classified by the pre-registered drift-slope rule."""
    n_schedule = [int(n) for n in n_schedule]
    if any(b <= a for a, b in zip(n_schedule, n_schedule[1:])):
        raise ValueError("schedule must be increasing")
    basis = None
    if cfg.dim == 2:
        basis = radial_basis(bessel_zeros(max(n_schedule)), max(n_schedule))
    logs, errs, fracs = [], [], []
    for n in n_schedule:
        cfg_n = replace(cfg, n_modes=n, grid_size=None)
        rep = estimate_partition(cfg_n, basis)
        logs.append(rep.log_estimate)
        errs.append(max(rep.log_std_error, 1e-9))
        fracs.append(rep.fraction_inside_cutoff)
    slope, slope_err = _drift_slope(n_schedule, logs, errs)
    verdict = _classify(slope, slope_err)
    return DivergenceVerdict(tuple(n_schedule), tuple(logs), tuple(errs),
                             tuple(fracs), slope, slope_err, verdict)


def _drift_slope(ns, logs, errs):
    """Weighted LS slope of log-estimate against log N over the top half."""
    pts = [(math.log(n), y, e) for n, y, e in zip(ns, logs, errs)
           if math.isfinite(y)]
    top = pts[len(pts) // 2:] if len(pts) >= 4 else pts
    if len(top) < 2:
        return math.nan, math.nan
    x = np.array([t[0] for t in top])
    y = np.array([t[1] for t in top])
    w = np.array([1.0 / t[2] ** 2 for t in top])
    xb = np.sum(w * x) / np.sum(w)
    yb = np.sum(w * y) / np.sum(w)
    sxx = np.sum(w * (x - xb) ** 2)
    slope = float(np.sum(w * (x - xb) * (y - yb)) / sxx)
    return slope, float(1.0 / math.sqrt(sxx))


def _classify(slope, slope_err):
    """Pre-registered rule: announced before any run, never tuned after."""
    if not math.isfinite(slope):
        return "inconclusive"
    if slope > 0.5 and slope - 2.0 * slope_err > 0.0:
        return "diverging"
    if abs(slope) < 0.1 and abs(slope) <= 2.0 * slope_err:
        return "stable"
    return "inconclusive"
