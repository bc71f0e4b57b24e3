"""Monte Carlo estimation of the cutoff partition functions

    Z = E[ exp((1/p) int |u|^p) 1{ ||u||_2 <= K } ]

for the 1D loop and 2D disc ensembles, with constrained tail probabilities,
the layer-cake cross-check, and the truncation divergence scan.

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
the row slices of rng.row_slices, which change no result bit.

A threshold scan asks for the same estimate at several cutoffs with the same
seed, so estimate_partitions scores them all from one pass over the draws:
each batch is drawn once, and the plain and tilted proposals, which do not
depend on the cutoff, are synthesized once, leaving each cutoff its inside
test and log-sum-exp partial. The soliton shift scales with the cutoff, so
only the synthesis slices wholly in the unshifted bottom half of a batch are
shared and the others are redone per cutoff. divergence_scan runs every
cutoff of a scan this way at each truncation level, and every report is
bit-identical to its own estimate_partition call.

The layer-cake cross-check rebuilds the partition estimate from the tail
probabilities P(||u||_p > lam, ||u||_2 <= K) at a grid of levels. It too
makes one pass over the draws: each sample adds its own contribution to the
whole quadrature sum, so the levels cost a search per sample rather than a
pass each, and the sample variance of those contributions is the exact error
of the rebuilt estimate.
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
from .spectral1d import evaluate_coeff_rows, gaussian_coeffs, spectral_weights
from .tails import TailCurve

SAMPLERS = ("plain", "tilted", "soliton")
_LOG_HUGE = 700.0
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

def _sech_shift_1d(n_modes: int, cutoff: float, frac: float) -> np.ndarray:
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
    wn = spectral_weights(n_modes)
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
        self.weights = spectral_weights(cfg.n_modes)
        self.width = cfg.resolved_grid_size()       # grid points per row
        self.theta = None
        if cfg.sampler == "soliton":
            self.theta = _sech_shift_1d(cfg.n_modes, cfg.cutoff,
                                        SOLITON_MASS_FRACTION)

    def draw(self, gen, b):
        return gen.standard_normal((b, self.cfg.n_modes, 2))

    def synthesize(self, g):
        """(int |u|^p, ||u||_2^2) per row of Gaussians."""
        coeffs = gaussian_coeffs(g, self.weights)
        vals = evaluate_coeff_rows(coeffs, self.width)
        modsq = np.abs(coeffs)
        np.multiply(modsq, modsq, out=modsq)
        return (abs_power_mean(vals, self.cfg.p),
                2.0 * np.sum(modsq, axis=1))


class _Ensemble2D:
    def __init__(self, cfg: EnsembleConfig, basis: RadialBasis):
        self.cfg = cfg
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
    """ens.synthesize(g) run over the rows of rng.row_slices and joined per
    row; bit-identical to the whole batch at once."""
    return _join([ens.synthesize(g[lo:hi])
                  for lo, hi in rng.row_slices(len(g), ens.width)])


def _join(parts):
    """Per-row outputs of consecutive synthesis slices, joined."""
    return tuple(np.concatenate(col) for col in zip(*parts))


def _make_ensembles(cfgs, basis=None):
    """One ensemble per config; in 2D all on one basis, by default the one
    of the first config's n_modes."""
    if cfgs[0].dim == 1:
        return [_Ensemble1D(c) for c in cfgs]
    if basis is None:
        basis = radial_basis(bessel_zeros(cfgs[0].n_modes), cfgs[0].n_modes)
    return [_Ensemble2D(c, basis) for c in cfgs]


def _apply_proposal(ens, g):
    """Stratified half/half mixture; returns (g, log_weight) with w <= 2."""
    cfg = ens.cfg
    b = g.shape[0]
    half = b // 2
    if cfg.sampler == "plain":
        return g, np.zeros(b)
    if cfg.sampler == "soliton":
        return _soliton_shift(ens.theta, g[half:], g.copy())
    k = min(TILT_MODES, cfg.n_modes)
    sig = TILT_SCALE
    g = g.copy()
    g[half:, :k] *= sig
    flat = g[:, :k].reshape(b, -1)
    # per-coordinate density ratio of N(0, sig^2) to N(0, 1)
    log_rho = 0.5 * (1.0 - 1.0 / (sig * sig)) * np.sum(flat * flat, axis=1) \
        - flat.shape[1] * math.log(sig)
    return g, math.log(2.0) - np.logaddexp(0.0, log_rho)


def _soliton_shift(theta, top, g):
    """The soliton mixture made in place in the batch g: its top half is set
    to the unshifted rows top plus theta. Returns (g, log_weight), w <= 2."""
    np.add(top, theta, out=g[len(g) // 2:])
    dot = np.tensordot(g, theta, axes=(tuple(range(1, g.ndim)),
                                       tuple(range(theta.ndim))))
    log_rho = dot - 0.5 * float(np.sum(theta * theta))
    return g, math.log(2.0) - np.logaddexp(0.0, log_rho)


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


def _shifted_rows(g, lo, hi, theta):
    """Rows lo:hi of the soliton mixture of the batch g, as a new array."""
    rows = g[lo:hi].copy()
    rows[max(len(g) // 2 - lo, 0):] += theta
    return rows


def _lse_partial(expo, inside):
    """One batch's (max, sum_exp, sum_exp_sq, n_inside) of the log-weights
    expo over the rows inside the cutoff."""
    lw = np.where(inside, expo, -math.inf)
    m = float(np.max(lw)) if len(lw) else -math.inf
    if not math.isfinite(m):
        return (-math.inf, 0.0, 0.0, int(inside.sum()))
    e = np.exp(lw - m)
    return (m, float(e.sum()), float((e * e).sum()), int(inside.sum()))


def _check_family(cfgs, free=("cutoff",)):
    """Reject an empty list and configs that differ outside the free fields."""
    if not cfgs:
        raise ValueError("need at least one config")
    for name in EnsembleConfig.__dataclass_fields__:
        if name not in free and len({getattr(c, name) for c in cfgs}) > 1:
            raise ValueError("configs must differ only in cutoff, got "
                             f"different values of {name}")


def estimate_partition(cfg: EnsembleConfig,
                       basis: RadialBasis | None = None) -> EstimatorReport:
    """Importance-weighted mean of the cutoff Gibbs weight."""
    return estimate_partitions([cfg], basis)[0]


def estimate_partitions(cfgs, basis: RadialBasis | None = None
                        ) -> list[EstimatorReport]:
    """estimate_partition for configs that differ only in cutoff, from one
    pass over the draws (see the module docstring).

    The cutoffs share their draws, so their errors are correlated; each
    report is bit-identical to the single-config call.
    """
    _check_family(cfgs)
    cfg = cfgs[0]
    ensembles = _make_ensembles(cfgs, basis)
    ens = ensembles[0]
    ksqs = [c.cutoff * c.cutoff for c in cfgs]

    def exponent(log_w, power_mean):
        return log_w if cfg.calibration else log_w + power_mean / cfg.p

    def batch(gen, start, b):
        g = ens.draw(gen, b)
        if cfg.sampler != "soliton":            # one proposal for all cutoffs
            g, log_w = _apply_proposal(ens, g)
            power_mean, l2sq = _synthesize(ens, g)
            expo = exponent(log_w, power_mean)
            return [_lse_partial(expo, l2sq <= ksq) for ksq in ksqs]
        half = b // 2
        bounds = rng.row_slices(b, ens.width)
        n_low = sum(hi <= half for _, hi in bounds)     # unshifted slices
        low = [ens.synthesize(g[lo:hi]) for lo, hi in bounds[:n_low]]
        # each cutoff's log-weights shift g itself and its drawn top half is
        # put back; the synthesis then shifts one slice at a time, so that
        # no full proposal copy is held (it raised the 2D peak RSS)
        top = g[half:].copy()
        log_ws = [_soliton_shift(each.theta, top, g)[1] for each in ensembles]
        g[half:] = top
        del top
        partials = []
        for each, log_w, ksq in zip(ensembles, log_ws, ksqs):
            power_mean, l2sq = _join(
                low + [ens.synthesize(_shifted_rows(g, lo, hi, each.theta))
                       for lo, hi in bounds[n_low:]])
            partials.append(_lse_partial(exponent(log_w, power_mean),
                                         l2sq <= ksq))
        return partials

    parts = _batched(cfg, ens, batch)
    return [_report(c, _combine_lse(col)) for c, col in zip(cfgs, zip(*parts))]


def _report(cfg, merged):
    """The EstimatorReport of a config from its merged partials."""
    m, s1, s2, inside = merged
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


def _tail_rows(ens, gen, b):
    """(||u||_p, inside the cutoff, importance weight) of a batch's rows."""
    cfg = ens.cfg
    g, log_w = _apply_proposal(ens, ens.draw(gen, b))
    power_mean, l2sq = _synthesize(ens, g)
    return (power_mean ** (1.0 / cfg.p), l2sq <= cfg.cutoff * cfg.cutoff,
            np.exp(log_w))


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
    ens, = _make_ensembles([cfg], basis)

    def batch(gen, start, b):
        lp, inside, weight = _tail_rows(ens, gen, b)
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
    """Constrained tail probabilities on a level grid, each level from its
    own block of streams.

    Only the benchmark's tracer (perfbench/spans.py, which binds it by name)
    and tests/test_streams.py still reach it; layer_cake scores the levels
    in one pass. The next change to the benchmark deletes it.
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
                     {"kind": "constrained-tail",
                      "fraction_inside": float(frac[0]),
                      "config": cfg.to_dict(), "samples": cfg.n_samples})


@dataclass(frozen=True)
class LayerCakeResult:
    estimate: float
    stderr: float
    inconclusive: bool


def layer_cake(cfg: EnsembleConfig, lams,
               basis: RadialBasis | None = None) -> LayerCakeResult:
    """The partition function rebuilt from its constrained tail,

        Z = P(A) + int lam^(p-1) exp(lam^p / p) P(||u||_p > lam, A) d lam,

    A the event ||u||_2 <= K (Lieb & Loss, Analysis, Thm 1.13), with the
    integral the trapezoid rule on the levels lams, which start at 0 and
    end where the integral is cut; from one pass over the draws.

    Sample j scores h_j = w_j 1{A} (1{||u||_p > 0}
    + sum_i c_i 1{||u||_p > lam_i}) with c_i = t_i lam_i^(p-1)
    exp(lam_i^p / p), t_i the trapezoid weights, so the estimate is mean(h)
    and its error sd(h) / sqrt(n) is exact however the levels correlate.
    inconclusive flags a cut while the last bin still carries more than 1%
    of the integral.
    """
    lams = np.asarray(lams, dtype=float)
    if len(lams) < 2:
        raise ValueError(f"layer cake needs at least two levels, "
                         f"got {len(lams)}")
    if not np.all(np.isfinite(lams)):
        raise ValueError(f"layer cake levels must be finite, got "
                         f"{float(lams[~np.isfinite(lams)][0])!r}")
    if lams[0] != 0.0:
        raise ValueError(f"layer cake levels must start at 0.0 (giving "
                         f"P(A)), got {float(lams[0])!r}")
    if np.any(np.diff(lams) <= 0):
        raise ValueError("layer cake levels must be strictly increasing")
    p = cfg.p
    with np.errstate(over="ignore"):
        g_fac = lams ** (p - 1) * np.exp(lams ** p / p)
    if not np.all(np.isfinite(g_fac)):
        raise ValueError(f"lam^(p-1) exp(lam^p/p) overflows at level "
                         f"{float(lams[~np.isfinite(g_fac)][0])!r} "
                         f"for p={p!r}")
    dl = np.diff(lams)
    trap_w = np.zeros(len(lams))
    trap_w[:-1] += dl / 2.0
    trap_w[1:] += dl / 2.0
    # a sample above exactly the first k levels scores w * score[k]
    score = np.concatenate([[0.0], 1.0 + np.cumsum(trap_w * g_fac)])
    ens, = _make_ensembles([cfg], basis)

    def batch(gen, start, b):
        lp, inside, weight = _tail_rows(ens, gen, b)
        k = np.searchsorted(lams, lp)        # levels strictly below ||u||_p
        w = np.where(inside, weight, 0.0)
        h = w * score[k]
        return (float(h.sum()), float((h * h).sum()),
                float(w[k > 0].sum()), float(w[k == len(lams)].sum()))

    parts = _batched(cfg, ens, batch)
    n = cfg.n_samples
    sh, sh2, head, last = (sum(col) / n for col in zip(*parts))
    stderr = math.sqrt(max(sh2 - sh * sh, 0.0) / n)
    # truncated too early if the last bin still carries weight in the integral
    integral = sh - head
    cut = float(g_fac[-1] * dl[-1]) * last
    inconclusive = cut > 1e-2 * max(integral, 1e-300) and integral > 0.0
    return LayerCakeResult(sh, stderr, inconclusive)


def divergence_scan(cfgs, n_schedule) -> list[DivergenceVerdict]:
    """Partition estimates along a truncation schedule with matched seeds,
    classified by the pre-registered drift-slope rule: one verdict per config
    of cfgs, which differ only in cutoff (their n_modes is the schedule's).
    At each N every cutoff is scored from one pass over the draws."""
    n_schedule = [int(n) for n in n_schedule]
    if any(b <= a for a, b in zip(n_schedule, n_schedule[1:])):
        raise ValueError("schedule must be increasing")
    for c in cfgs:
        if c.grid_size is not None:
            raise ValueError("divergence_scan puts 4 N grid points at each N "
                             f"of the schedule, got grid_size={c.grid_size}")
    _check_family(cfgs, free=("cutoff", "n_modes"))
    basis = None
    if cfgs[0].dim == 2:
        basis = radial_basis(bessel_zeros(max(n_schedule)), max(n_schedule))
    by_n = [estimate_partitions([replace(c, n_modes=n) for c in cfgs], basis)
            for n in n_schedule]
    return [_verdict(n_schedule, [reps[i] for reps in by_n])
            for i in range(len(cfgs))]


def _verdict(n_schedule, reps):
    """The DivergenceVerdict of one cutoff's reports along the schedule."""
    logs = [rep.log_estimate for rep in reps]
    errs = [max(rep.log_std_error, 1e-9) for rep in reps]
    fracs = [rep.fraction_inside_cutoff for rep in reps]
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
