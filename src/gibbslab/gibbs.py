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
              concentration profile whose width shrinks with the truncation
              level: the disc ground state of p in 2D, sech^(1/2) in 1D at
              every p (the interpolation extremal at p=6 only; see shift).

The soliton proposal exists because the divergent region of configuration
space is exponentially rare under the plain ensemble: the mixture keeps the
weights bounded by two while letting the estimator actually visit the
concentration channel whose growth with the truncation level is the
observable signature of a divergent partition function.

Each batch is read once, front to back, from its stream through
rng.slices, and every slice-sized array comes from the pass's rng.Workspace,
a set per worker thread; none of this changes a result bit (see rng). What
a batch holds whole is what its sums read, since they run over each row
vector in one piece: a partition estimate folds each slice at once into one
Gibbs exponent and one inside flag per row and cutoff, and a tail estimate
into the norm ||u||_p, the inside flag and the importance weight of each
row.

The indicator gives a row outside every cutoff no weight, so the partition
estimators compute each slice's ||u||_2^2 first and synthesize int |u|^p
only on the rows at or below the largest cutoff that reads them, and on no
row under calibration, whose exponent is the proposal weight alone. In 1D
those rows are packed together, since each row's inverse FFT and grid mean
are its own; in 2D a matrix product rounds its last rows by the row count
(see rng), so a slice is synthesized whole, or not at all when none of its
rows is needed. The tail estimators synthesize every row.

A threshold scan asks for the same estimate at several cutoffs and
truncation levels with the same seed. A batch at one level is a prefix of
its stream at every larger one (see rng), so divergence_scan makes one pass
over the draws for the whole schedule: each batch is read once, and every
level and every cutoff scores its row slices in the order of their first
value on the stream. The cutoffs of a level share the synthesis of the
slices whose proposal rows are the same (see _batch_slices): all but the
soliton's slices that reach its shifted half, as the shift scales with the
cutoff. estimate_partitions is the pass of one level, and every report is
bit-identical to its own estimate_partition call. A DivergenceVerdict holds
those reports, one per N, with the drift slope fitted to them; the fit
weighs an error below 1e-9 as 1e-9, and the reports keep their own.

A weight that overflows is not a weight of zero: a NaN or +inf Gibbs
exponent on a sample inside the cutoff raises, and a soliton shift whose
energy is not finite, or a config field that _core's checks refuse, fails
before any sampling.

The layer-cake cross-check rebuilds the partition estimate from the tail
probabilities P(||u||_p > lam, ||u||_2 <= K) at a grid of levels. It too
makes one pass over the draws: each sample adds its own contribution to the
whole quadrature sum, so the levels cost a search per sample rather than a
pass each, and the sample variance of those contributions is the exact error
of the rebuilt estimate.
"""
import math
from dataclasses import dataclass, replace

import numpy as np

from ._core import (_check_integers, _check_p, _is_integer, _is_real,
                    _real_floats, abs_power_mean, power_in_place,
                    weighted_abs_power_sum)
from .bessel import bessel_zeros
from .groundstate import profile_function, solve_ground_state
from .radial2d import RadialBasis, radial_basis
from . import rng
from .rng import BATCH_SIZE
from .spectral1d import evaluate_coeff_rows, gaussian_coeffs, spectral_weights

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
    grid_size: int | None = None   # 1D only; defaults to 4 * n_modes
    calibration: bool = False      # replace the Gibbs exponent by 0

    def __post_init__(self):
        if not _is_integer(self.dim) or self.dim not in (1, 2):
            raise ValueError("dim must be 1 or 2")
        _check_p(self.p)
        if not _is_real(self.cutoff):
            raise ValueError(f"cutoff must be a number, got {self.cutoff!r}")
        if not self.cutoff >= 0:
            raise ValueError(
                f"cutoff must be nonnegative, got {self.cutoff!r}")
        _check_integers(n_modes=self.n_modes, n_samples=self.n_samples,
                        seed=self.seed)
        if self.n_modes < 1 or self.n_samples < 1:
            raise ValueError("n_modes and n_samples must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed!r}")
        if self.grid_size is not None and not _is_integer(self.grid_size):
            raise ValueError(f"grid_size must be an integer or None, got "
                             f"{self.grid_size!r}")
        if not isinstance(self.calibration, (bool, np.bool_)):
            # a truthy string such as "no" would turn it on
            raise ValueError(f"calibration must be True or False, got "
                             f"{self.calibration!r}")
        if self.sampler not in SAMPLERS:
            raise ValueError(f"sampler must be one of {SAMPLERS}")
        if self.dim == 2 and self.grid_size is not None:
            # the disc's quadrature nodes follow from n_modes alone
            raise ValueError("grid_size sets the 1D grid and has no meaning "
                             f"with dim=2, got grid_size={self.grid_size!r}")
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

    def __post_init__(self):
        if self.estimate < 0 or self.standard_error < 0:
            raise ValueError("negative estimate or error")
        if not 0.0 <= self.fraction_inside_cutoff <= 1.0:
            raise ValueError("fraction_inside_cutoff outside [0, 1]")


@dataclass(frozen=True)
class DivergenceVerdict:
    reports: tuple                 # one EstimatorReport per N of the schedule
    slope: float
    slope_error: float
    verdict: str                   # stable | diverging | inconclusive


# ------------------------------------------------------------- batch machinery

class _Ensemble:
    """The proposal of cfg.sampler, set once: theta, the soliton's mean shift
    or None, and tilt_modes, the low modes that the tilt inflates or 0."""

    def __init__(self, cfg: EnsembleConfig):
        self.cfg = cfg
        self.theta, self.tilt_modes = None, 0
        match cfg.sampler:
            case "tilted":
                self.tilt_modes = min(TILT_MODES, cfg.n_modes)
            case "soliton":
                with np.errstate(over="ignore", invalid="ignore"):
                    theta = self.shift(SOLITON_MASS_FRACTION * cfg.cutoff)
                    energy = 0.5 * float(np.sum(theta * theta))
                if not math.isfinite(energy):
                    raise ValueError(f"the soliton shift at the cutoff "
                                     f"{cfg.cutoff!r} has energy {energy}, "
                                     f"not a finite number")
                self.theta, self.theta_energy = theta, energy


class _Ensemble1D(_Ensemble):
    # each row is synthesized on its own, and the soliton's matrix-vector
    # product keeps its bits from 4-row slices up (see rng)
    row_floor = 16

    def __init__(self, cfg: EnsembleConfig):
        self.weights = spectral_weights(cfg.n_modes)
        self.width = cfg.resolved_grid_size()       # grid points per row
        self.row_shape = (cfg.n_modes, 2)           # normals per row
        self.grid_arrays = 2                        # the grid and |u|^p
        super().__init__(cfg)           # last: the shift reads the above

    def shift(self, mass):
        """The mean shift, in standard-normal coordinates, onto a wrapped,
        mean-zero bump of L2 mass `mass` and width max(4/N, 0.001): sech^(1/2)
        at every cfg.p, the interpolation extremal at p=6 only (p=4: sech)."""
        n_modes = self.cfg.n_modes
        w = max(4.0 / n_modes, 0.001)
        m_grid = 8 * n_modes
        prof = 1.0 / np.sqrt(np.cosh((np.arange(m_grid) / m_grid - 0.5) / w))
        prof -= prof.mean()
        c = (np.fft.rfft(prof) / m_grid)[1:n_modes + 1]
        norm = math.sqrt(2.0 * float(np.sum(np.abs(c) ** 2)))
        g_target = np.sqrt(2.0) * (c * (mass / norm)) / self.weights
        return np.stack([g_target.real, g_target.imag], axis=-1)

    def synthesize(self, g, ksq, ws, power, l2sq):
        """Fill l2sq with ||u||_2^2 of each row of Gaussians g, and power
        with int |u|^p on the rows with ||u||_2^2 <= ksq and NaN on the
        others. Those rows are packed together: each row's transform and
        mean are its own.

        The coefficients are written straight into columns 1.. of the
        slice's spectrum, column 0 holding the zero mode 0, and packing
        takes whole spectrum rows, so the transform reads the coefficients
        where they are. Writing into that strided view is slower than into
        a contiguous array, so |c|^2 is taken over whole spectrum rows, in
        the grid values' buffer, which is free until the transform."""
        rows, n_modes = g.shape[:-1]
        spectrum = ws("spectrum", (rows, n_modes + 1), complex)
        spectrum[:, 0] = 0.0
        gaussian_coeffs(g, self.weights, out=spectrum[:, 1:])
        # summed from column 1, each row adds the same values in the same
        # order as over the coefficients alone
        modsq = np.abs(spectrum, out=ws("vals", spectrum.shape))
        np.multiply(modsq, modsq, out=modsq)
        np.sum(modsq[:, 1:], axis=1, out=l2sq)
        l2sq *= 2.0
        keep = l2sq <= ksq
        kept = int(np.count_nonzero(keep))
        power.fill(math.nan)
        if kept == 0:
            return
        if kept < rows:
            spectrum = np.take(spectrum, np.flatnonzero(keep), axis=0,
                               out=ws("packed", (kept, n_modes + 1), complex),
                               mode="clip")
        vals = evaluate_coeff_rows(spectrum[:, 1:], self.width,
                                   spectrum=spectrum,
                                   out=ws("vals", (kept, self.width)))
        power[keep] = abs_power_mean(vals, self.cfg.p,
                                     out=ws("power", vals.shape))


class _Ensemble2D(_Ensemble):
    row_floor = rng.ROW_FLOOR       # for the matrix product (see rng)

    def __init__(self, cfg: EnsembleConfig, basis: RadialBasis):
        if basis.n_modes < cfg.n_modes:
            raise ValueError(f"basis holds {basis.n_modes} modes, fewer than "
                             f"n_modes={cfg.n_modes}")
        self.matrix_t = basis.matrix[:, :cfg.n_modes].T
        self.inv_z = 1.0 / basis.table.zeros[:cfg.n_modes]
        self.area_w = basis.quad.area_weights
        self.width = basis.quad.count               # quadrature nodes per row
        self.row_shape = (cfg.n_modes,)             # normals per row
        # |v|^p overwrites the grid values, but for an even p >= 6
        self.grid_arrays = 1 if power_in_place(cfg.p) else 2
        self.basis = basis
        super().__init__(cfg)           # last: the shift reads the above

    def shift(self, mass):
        """The mean shift onto the disc ground state of cfg.p, of L2 mass
        `mass` and width 8/z_N, projected onto the modes; it is scaled back
        to `mass` where the projection's quadrature error gains mass."""
        p, n_modes, basis = self.cfg.p, self.cfg.n_modes, self.basis
        if not float(p).is_integer():
            raise ValueError(f"the 2D soliton shift needs an integer p, got "
                             f"{p!r}")
        gs = solve_ground_state(2, int(p))
        phi = profile_function(gs)
        z = basis.table.zeros[:n_modes]
        w = 8.0 / z[-1]
        target = (mass / gs.mass) * phi(basis.quad.nodes / w) / w
        a = basis.project(target)[:n_modes]
        norm = math.sqrt(float(np.sum(a * a)))
        if 0 < norm < math.inf:     # an overflowed norm leaves the shift as is
            a *= min(1.0, mass / norm)
        return z * a

    def synthesize(self, g, ksq, ws, power, l2sq):
        """Fill l2sq with ||v||_2^2 of each row of Gaussians g, and power
        with int |v|^p, NaN on every row when no row has ||v||_2^2 <= ksq.
        Rows are never dropped from the product: its last rows round by the
        row count (rng.py). |a|^2 is taken in the grid values' buffer, which
        is free until the product, and |v|^p over the grid values."""
        coeffs = np.multiply(g, self.inv_z, out=ws("coeffs", g.shape))
        np.sum(np.multiply(coeffs, coeffs, out=ws("vals", g.shape)), axis=1,
               out=l2sq)
        if not np.any(l2sq <= ksq):
            power.fill(math.nan)
            return
        vals = np.matmul(coeffs, self.matrix_t,
                         out=ws("vals", (len(g), self.width)))
        out = vals if self.grid_arrays == 1 else ws("power", vals.shape)
        power[:] = weighted_abs_power_sum(vals, self.area_w, self.cfg.p,
                                          out=out)


def _make_ensembles(cfgs, basis=None):
    """One ensemble per config; in 2D all on one basis, by default the one
    of the first config's n_modes."""
    if cfgs[0].dim == 1:
        return [_Ensemble1D(c) for c in cfgs]
    if basis is None:
        basis = radial_basis(bessel_zeros(cfgs[0].n_modes), cfgs[0].n_modes)
    return [_Ensemble2D(c, basis) for c in cfgs]


def _proposal_rows(ens, g, lo, half, ws):
    """Rows lo: of the stratified half/half mixture of a batch, made from its
    drawn rows g: the rows from half on are tilted or shifted onto the
    soliton as they are written into a workspace copy, and a slice below
    half is g itself."""
    top = max(half - lo, 0)             # the first row of g in the top half
    if (ens.theta is None and not ens.tilt_modes) or top >= len(g):
        return g
    rows = ws("rows", g.shape)
    rows[:top] = g[:top]
    if ens.theta is not None:
        np.add(g[top:], ens.theta, out=rows[top:])
    else:
        k = ens.tilt_modes
        np.multiply(g[top:, :k], TILT_SCALE, out=rows[top:, :k])
        rows[top:, k:] = g[top:, k:]
    return rows


def _log_weights(ens, rows):
    """Log importance weights of rows of the mixture, each at most log 2."""
    if ens.theta is not None:
        # one matrix-vector product per slice: with slices of at least 4
        # rows each row gets the bits of one product over the batch (rng)
        log_rho = rows.reshape(len(rows), -1) @ ens.theta.reshape(-1) \
            - ens.theta_energy
    elif ens.tilt_modes:
        flat = rows[:, :ens.tilt_modes].reshape(len(rows), -1)
        # per-coordinate density ratio of N(0, TILT_SCALE^2) to N(0, 1)
        log_rho = 0.5 * (1.0 - 1.0 / (TILT_SCALE * TILT_SCALE)) \
            * np.sum(flat * flat, axis=1) \
            - flat.shape[1] * math.log(TILT_SCALE)
    else:
        return np.zeros(len(rows))
    return math.log(2.0) - np.logaddexp(0.0, log_rho)


def _batch_slices(levels, gen, b, bounds, ws):
    """(i, c, lo, hi, log_w, power, l2sq) for every row slice lo:hi of a
    batch of b rows drawn from gen and every cutoff c of every level i: the
    slice's log weights, int |u|^p and ||u||_2^2, the last two in arrays of
    the pass's rng.Workspace ws that are valid until the next slice.
    levels[i] holds the ensembles of a level, one per cutoff, and bounds[i]
    the squared L2 norm up to which each needs int |u|^p (NaN above it).

    Cutoffs whose proposal rows are the same share their synthesis, up to
    the largest bound: always under the plain and tilted proposals, and
    under the soliton on the slices wholly in the unshifted bottom half.
    """
    half = b // 2
    for i, lo, hi, g in rng.slices(
            gen, b, [(ens[0].row_shape, ens[0].width, ens[0].grid_arrays,
                      ens[0].row_floor) for ens in levels]):
        ensembles = levels[i]
        power = ws("row_power", (hi - lo,))
        l2sq = ws("row_l2sq", (hi - lo,))
        if ensembles[0].theta is None or hi <= half:
            rows = _proposal_rows(ensembles[0], g, lo, half, ws)
            ensembles[0].synthesize(rows, max(bounds[i]), ws, power, l2sq)
            for c, ens in enumerate(ensembles):
                yield i, c, lo, hi, _log_weights(ens, rows), power, l2sq
            continue
        for c, (ens, ksq) in enumerate(zip(ensembles, bounds[i])):
            rows = _proposal_rows(ens, g, lo, half, ws)
            ens.synthesize(rows, ksq, ws, power, l2sq)
            yield i, c, lo, hi, _log_weights(ens, rows), power, l2sq


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


def _lse_partial(expo, inside, cutoff):
    """One batch's (max, sum_exp, sum_exp_sq, n_inside) of the log-weights
    expo over the rows inside the cutoff. A NaN or +inf among them is a
    weight that overflowed, not a weight of zero, and raises."""
    lw = np.where(inside, expo, -math.inf)
    m = float(np.max(lw)) if len(lw) else -math.inf
    if m == -math.inf:
        return (-math.inf, 0.0, 0.0, int(inside.sum()))
    if not math.isfinite(m):
        raise ValueError(f"a sample inside the cutoff {cutoff!r} has the "
                         f"Gibbs exponent {m}, not a finite number")
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
    return _estimate_levels([cfgs], basis)[0]


def _estimate_levels(levels, basis=None):
    """The reports of every config of levels, lists of configs that differ
    only in cutoff within a list and only in n_modes between lists, from one
    pass over the draws; in 2D every level runs on basis."""
    ensembles = [_make_ensembles(cfgs, basis) for cfgs in levels]
    # the squared norm up to which rows need int |u|^p: none under
    # calibration, whose exponent does not read it
    bounds = [[-math.inf if c.calibration else c.cutoff * c.cutoff
               for c in cfgs] for cfgs in levels]
    ws = rng.Workspace()

    def batch(gen, start, b):
        expo = [np.empty((len(cfgs), b)) for cfgs in levels]
        inside = [np.empty((len(cfgs), b), dtype=bool) for cfgs in levels]
        # a value that overflows is inf or NaN, and _lse_partial raises on
        # it inside a cutoff; outside every cutoff a row carries no weight
        with np.errstate(over="ignore", invalid="ignore"):
            for i, c, lo, hi, log_w, power, l2sq in _batch_slices(
                    ensembles, gen, b, bounds, ws):
                cfg = levels[i][c]
                # the exponent of the Gibbs weight; calibration keeps the
                # proposal weight alone
                expo[i][c, lo:hi] = log_w if cfg.calibration \
                    else log_w + power / cfg.p
                inside[i][c, lo:hi] = l2sq <= cfg.cutoff * cfg.cutoff
            return [[_lse_partial(e, ins, c.cutoff)
                     for c, e, ins in zip(cfgs, level_expo, level_inside)]
                    for cfgs, level_expo, level_inside
                    in zip(levels, expo, inside)]

    parts = _batched(levels[0][0], ensembles[0][0], batch)
    return [[_report(c, _combine_lse(col))
             for c, col in zip(cfgs, zip(*per_batch))]
            for cfgs, per_batch in zip(levels, zip(*parts))]


def _report(cfg, merged):
    """The EstimatorReport of a config from its merged partials."""
    m, s1, s2, inside = merged
    n = cfg.n_samples
    if s1 <= 0.0 or not math.isfinite(m):
        return EstimatorReport(0.0, -math.inf, 0.0, 0.0, 0.0, inside / n,
                               cfg.n_modes, n, cfg.seed)
    log_mean = m + math.log(s1) - math.log(n)
    log_mean2 = 2 * m + math.log(s2) - math.log(n)
    ess = s1 * s1 / s2
    rel = math.sqrt(max(math.exp(min(log_mean2 - 2 * log_mean, _LOG_HUGE))
                        / n - 1.0 / n, 0.0))
    estimate = math.exp(log_mean) if log_mean < _LOG_HUGE else math.inf
    se = rel * estimate if math.isfinite(estimate) else math.inf
    return EstimatorReport(estimate, log_mean, se, rel, ess, inside / n,
                           cfg.n_modes, n, cfg.seed)


def _tail_rows(ens, gen, b, ws):
    """(||u||_p, inside the cutoff, importance weight) of a batch's rows,
    every row synthesized in the pass's rng.Workspace ws."""
    cfg = ens.cfg
    lp, weight = np.empty(b), np.empty(b)
    inside = np.empty(b, dtype=bool)
    for *_, lo, hi, log_w, power, l2sq in _batch_slices(
            [[ens]], gen, b, [[math.inf]], ws):
        lp[lo:hi] = power ** (1.0 / cfg.p)
        inside[lo:hi] = l2sq <= cfg.cutoff * cfg.cutoff
        weight[lo:hi] = np.exp(log_w)
    return lp, inside, weight


def _tail_levels(lams) -> list[float]:
    """The tail levels lams as floats, refused unless there is one and each
    is a number >= 0."""
    lams = _real_floats(lams, "constrained_tails levels")
    if not lams:
        raise ValueError("constrained_tails needs at least one level, got "
                         "none")
    for lam in lams:
        if not lam >= 0:
            raise ValueError(f"lam must be >= 0, got {lam!r}")
    return lams


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
    report is bit-identical to the single-level call. A tail probability
    has no Gibbs exponent for calibration to replace, so a calibration
    config is refused.
    """
    if cfg.calibration:
        raise ValueError("constrained_tails has no calibration mode, got "
                         "calibration=True")
    lams = _tail_levels(lams)
    ens, = _make_ensembles([cfg], basis)
    ws = rng.Workspace()

    def batch(gen, start, b):
        lp, inside, weight = _tail_rows(ens, gen, b, ws)
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
            cfg.seed))
    return reports


def tail_curve(cfg: EnsembleConfig, lams) -> list[EstimatorReport]:
    """The constrained_tail report of each level of lams, each level from
    its own block of streams; every level is checked before the first
    draw.

    Only the benchmark's tracer (perfbench/spans.py, which binds it by name)
    and tests/test_streams.py still reach it; layer_cake scores the levels
    in one pass. The next change to the benchmark deletes it.
    """
    lams = _tail_levels(lams)
    n_batches = (cfg.n_samples + BATCH_SIZE - 1) // BATCH_SIZE
    return [constrained_tail(cfg, lam, stream_offset=i * n_batches)
            for i, lam in enumerate(lams)]


@dataclass(frozen=True)
class LayerCakeResult:
    estimate: float
    stderr: float
    inconclusive: bool


def layer_cake(cfg: EnsembleConfig, lams) -> LayerCakeResult:
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
    of the integral. Calibration, which replaces the Gibbs exponent of
    estimate_partition, is refused.
    """
    if cfg.calibration:
        raise ValueError("layer_cake has no calibration mode, got "
                         "calibration=True")
    lams = np.asarray(_real_floats(lams, "layer cake levels"))
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
    ens, = _make_ensembles([cfg])
    ws = rng.Workspace()

    def batch(gen, start, b):
        lp, inside, weight = _tail_rows(ens, gen, b, ws)
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
    n_schedule = list(n_schedule)
    for n in n_schedule:
        if not _is_integer(n):
            raise ValueError(f"the schedule n_schedule holds {n!r}, which is "
                             f"not an integer")
    n_schedule = [int(n) for n in n_schedule]
    if not n_schedule:
        raise ValueError("the schedule n_schedule is empty; it needs an N")
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
    by_n = _estimate_levels([[replace(c, n_modes=n) for c in cfgs]
                             for n in n_schedule], basis)
    return [_verdict([reps[i] for reps in by_n]) for i in range(len(cfgs))]


def _verdict(reps):
    """The DivergenceVerdict of one cutoff's reports along the schedule."""
    slope, slope_err = _drift_slope(reps)
    return DivergenceVerdict(tuple(reps), slope, slope_err,
                             _classify(slope, slope_err))


def _drift_slope(reps):
    """Weighted LS slope of log-estimate against log N over the top half;
    an error below 1e-9 weighs as 1e-9."""
    pts = [(math.log(rep.n_modes), rep.log_estimate,
            max(rep.log_std_error, 1e-9))
           for rep in reps if math.isfinite(rep.log_estimate)]
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
