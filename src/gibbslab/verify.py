"""One-shot invariant suite at pinned desk-scale parameters.

Each check is small enough that the whole suite runs in about two seconds
on two workers; the heavier statistical versions of the same statements
live in the test suite. No check holds a corpus it only reduces, nor a
whole batch: the chi-square law sums the squares of each batch's normals a
row slice at a time (_dirichlet_energies), bit for bit the energies of
sample_loops, and the tail checks' samplers read their streams through
rng.slices as the estimators do. The suite loads scipy.special and
scipy.linalg only.
The optional fault injection strips the 1/|J1(z_n)| normalization from the
disc modes' derivatives, which must break the gradient-Parseval check: a
verify run that still passes under the injected fault would indicate a
vacuous check.
"""
import math
import time
from dataclasses import dataclass

import numpy as np

from . import gibbs, tails
from ._core import abs_power_mean
from .bessel import bessel_zeros
from .groundstate import (disc_gns_check, gns_functional, profile_function,
                          solve_ground_state)
from .radial2d import grad_l2_spectral_sq, radial_basis, sample_radials
from .rng import BATCH_SIZE, batches, rng_for
from .spectral1d import (dyadic_project, evaluate_coeff_rows,
                         l2_norm_spectral, lp_norm, sample_loops)

FAULTS = ("j1-normalization",)


def normal_two_sided_tail(x):
    """P(|Z| > x) for a standard normal Z: the oracle of the tail checks."""
    from scipy.special import ndtr

    return 2 * (1 - ndtr(x))


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: str
    seconds: float


def _check(name, fn, results):
    t0 = time.time()
    try:
        passed, measured = fn()
    except Exception as exc:                  # a crash is a failure, not an abort
        passed, measured = False, f"raised {type(exc).__name__}: {exc}"
    results.append(CheckResult(name, bool(passed), measured,
                               time.time() - t0))


def run_all(inject_fault: str | None = None) -> list[CheckResult]:
    if inject_fault is not None and inject_fault not in FAULTS:
        raise ValueError(f"unknown fault {inject_fault!r}; known: {FAULTS}")
    results: list[CheckResult] = []

    def realness():
        f = sample_loops(101, 20, 48)
        spec = np.zeros((20, 256), dtype=complex)
        spec[:, 1:49] = f.coeffs_pos
        spec[:, -48:] = np.conj(f.coeffs_pos[:, ::-1])
        vals = 256 * np.fft.ifft(spec, axis=-1)
        worst = float(np.max(np.abs(vals.imag)))
        return worst < 1e-12, f"max imaginary part {worst:.2e}"

    def parseval():
        worst = 0.0
        for n_modes in (16, 64, 256):
            f = sample_loops(102, 10, n_modes)
            a = l2_norm_spectral(f) ** 2
            b = lp_norm(evaluate_coeff_rows(f.coeffs_pos, 4 * n_modes), 2) ** 2
            worst = max(worst, float(np.max(np.abs(a - b) / (1.0 + a))))
        return worst < 1e-10, f"max relative defect {worst:.2e}"

    def projection_algebra():
        f = sample_loops(103, 4, 100)
        worst = 0.0
        for k in (1, 2, 4, 6):
            lo = dyadic_project(f, "low", k)
            hi = dyadic_project(f, "high", k + 1)
            worst = max(worst, float(np.max(np.abs(
                lo.coeffs_pos + hi.coeffs_pos - f.coeffs_pos))))
        return worst == 0.0, f"max coefficient defect {worst:.2e}"

    def lp_monotone():
        g = evaluate_coeff_rows(sample_loops(104, 100, 32).coeffs_pos, 256)
        ns = np.array([lp_norm(g, p) for p in (1.0, 2.0, 3.0, 4.0, 6.0)])
        bad = int(np.sum(np.any(ns[1:] < ns[:-1] * (1 - 1e-12), axis=0)))
        return bad == 0, f"{bad} monotonicity violations in 100 fields"

    def chi_square_law():
        n, n_modes = 20000, 64
        vals = _dirichlet_energies(105, n, n_modes)
        dof = 2 * n_modes
        mean_tol = 3 * math.sqrt(2 * dof / n)
        m_ok = abs(vals.mean() - dof) < mean_tol
        var = vals.var(ddof=1)
        var_tol = 3 * (2 * dof) * math.sqrt((2 / (n - 1)) + 12 / (dof * n))
        v_ok = abs(var - 2 * dof) < var_tol
        return m_ok and v_ok, (f"mean {vals.mean():.2f} (exp {dof}), "
                               f"var {var:.1f} (exp {2 * dof})")

    def bessel_table():
        t = bessel_zeros(100)
        t.validate()
        z1 = abs(t.zeros[0] - 2.404825557695773)
        z2 = abs(t.zeros[1] - 5.520078110286311)
        return z1 < 1e-12 and z2 < 1e-12, (
            f"|dz1|={z1:.1e} |dz2|={z2:.1e}, residuals certified")

    def orthonormality():
        t = bessel_zeros(100)
        basis = radial_basis(t, 100)
        gram = basis.matrix.T * basis.quad.area_weights @ basis.matrix
        diag = np.max(np.abs(np.diag(gram) - 1.0))
        off = np.max(np.abs(gram[:30, :30] - np.diag(np.diag(gram))[:30, :30]))
        return diag < 1e-10 and off < 1e-8, (
            f"norm defect {diag:.2e}, max off-diag {off:.2e}")

    def gradient_parseval_2d():
        t = bessel_zeros(64)
        basis = radial_basis(t, 64)
        dmat = basis.derivative_matrix()
        if inject_fault == "j1-normalization":
            dmat = dmat * np.abs(t.j1_at_zeros[:64])
        aw = basis.quad.area_weights
        f = sample_radials(106, 300, 64, t)
        spec = grad_l2_spectral_sq(f)
        exact = np.array_equal(spec, np.sum(f.gaussians ** 2, axis=-1))
        dv = f.coeffs @ dmat.T
        quad = np.sum(aw * dv * dv, axis=-1)
        worst_rel = float(np.max(np.abs(quad - spec) / spec))
        return exact and worst_rel < 1e-6, (
            f"stored-Gaussian identity {'exact' if exact else 'BROKEN'}, "
            f"max quadrature mismatch {worst_rel:.2e}")

    def ground_state_1d():
        t0 = time.time()
        gs = solve_ground_state(1, 6)
        dt = time.time() - t0
        m_err = abs(gs.mass ** 2 - math.sqrt(3) * math.pi) / (math.sqrt(3) * math.pi)
        ident = abs(gs.gns_constant * gs.mass ** (gs.p - 2) - gs.p / 2.0)
        ok = m_err < 1e-8 and ident < 1e-12 and gs.residual_max < 1e-8
        return ok, (f"mass^2 rel err {m_err:.1e}, identity defect {ident:.1e}, "
                    f"residual {gs.residual_max:.1e}, {dt:.2f}s")

    def ground_state_2d():
        gs = solve_ground_state(2, 4)
        ident = abs(gs.gns_constant - 2.0 / gs.mass ** 2)
        jref = gns_functional(gs.grid, gs.profile, 2, 4)
        jerr = abs(jref - gs.j_min) / gs.j_min
        ok = (gs.residual_max < 1e-8 and gs.mass_error_bar < 1e-8
              and ident < 1e-12 and jerr < 1e-6)
        return ok, (f"residual {gs.residual_max:.1e}, mass bar "
                    f"{gs.mass_error_bar:.1e}, J cross-check {jerr:.1e}")

    def gns_minimality():
        rng = rng_for(107, 0)
        bad = 0
        for dim, p in ((1, 6), (2, 4)):
            gs = solve_ground_state(dim, p)
            if dim == 1:
                grid = np.linspace(-12.0, 12.0, 4801)
            else:
                grid = np.linspace(0.0, 12.0, 4801)
            for _ in range(100):
                f = _random_bump(rng, grid, dim)
                if gns_functional(grid, f, dim, p) < gs.j_min - 1e-9:
                    bad += 1
            phi = profile_function(gs)
            for lam in (0.5, 1.0, 2.0):
                scaled = phi(lam * np.abs(grid))
                jv = gns_functional(grid, scaled, dim, p)
                if abs(jv - gs.j_min) / gs.j_min > 1e-6:
                    bad += 1
        return bad == 0, f"{bad} violations (corpus and rescalings)"

    def disc_saturation():
        t = bessel_zeros(64)
        basis = radial_basis(t, 64)
        gs = solve_ground_state(2, 4)
        worst = float(np.max(disc_gns_check(sample_radials(108, 100, 64, t),
                                            basis, gs.sharp_constant)))
        return worst <= 1.0 + 1e-9, f"max saturation ratio {worst:.6f}"

    def mgf_identity():
        for c, m in ((0.1, 1), (0.1, 8), (0.2, 4)):
            mc, se = tails.gaussian_mgf_mc(c, m, 200000, seed=109)
            exact = tails.gaussian_mgf(c, m)
            if abs(mc - exact) > 3 * se:
                return False, f"c={c} M={m}: {mc:.4f} vs {exact:.4f} (3se={3*se:.4f})"
        q = tails.gaussian_mgf_quadrature(0.3, 1)
        qd = abs(q - tails.gaussian_mgf(0.3, 1))
        return qd < 1e-10, f"MC within 3 sigma; quadrature defect {qd:.1e}"

    def chi2_lemma():
        curve = tails.chi2_tail_empirical(1, [3.0, 3.5], 10 ** 6, seed=110)
        oracle = normal_two_sided_tail(3.0)
        dev = abs(curve.empirical[0] - oracle) / curve.err[0]
        dominated = np.all(curve.empirical <= curve.theoretical + 3 * curve.err)
        return dominated and dev < 3, (
            f"P(X^2>9)={curve.empirical[0]:.2e} vs oracle {oracle:.2e} "
            f"({dev:.1f} sigma), bound {curve.theoretical[0]:.2e}")

    def schedule_exactness():
        s1 = tails.dyadic_schedule(1.0, 3, 1.0 / 12, 6.0)
        s2 = tails.dyadic_schedule(2.0, 3, 1.0 / 12, 6.0)
        d = s1.partial_sum_defect()
        lin = np.max(np.abs(s2.values - 2 * s1.values))
        return d < 1e-12 and lin < 1e-12, (
            f"sum defect {d:.1e}, doubling defect {lin:.1e}")

    def high_freq_domination():
        c_hat = max(tails.bernstein_probe(j, 6.0, 2000, seed=111)
                    for j in (3, 4, 5))
        for k in (3, 4):
            curve = tails.high_freq_empirical_1d(
                k, [1.0, 2.0], 128, 10 ** 4, seed=112, bernstein_c=c_hat)
            ok = curve.empirical <= curve.theoretical + 3 * curve.err
            if not np.all(ok[curve.valid]):
                return False, f"violation at k={k}"
        return True, f"empirical under bound for k in (3,4), C_hat={c_hat:.3f}"

    def block_tail_domination():
        t = bessel_zeros(64)
        c_prime, c4 = tails.disc_tail_constants(t, 113)
        c_prime = min(c_prime, 5.0)
        curve = tails.block_tail_empirical_2d(
            3, [1.0, 2.0], 64, 10 ** 4, t, seed=115, c_prime=c_prime, c4=c4)
        ok = np.all(curve.empirical <= curve.theoretical + 3 * curve.err)
        return bool(ok), (f"c'={c_prime:.3f}, C4={c4:.3f}, "
                          f"bounds {np.array2string(curve.theoretical, precision=3)}")

    def fernique_normal():
        x = np.abs(rng_for(116, 0).standard_normal(200000))
        ts = np.array([1.5, 2.0, 3.0])
        fp = tails.fernique_probe(x, ts)
        mean = math.sqrt(2 / math.pi)
        oracle = normal_two_sided_tail(ts * mean)
        err = np.sqrt(oracle * (1 - oracle) / len(x))
        dev = np.max(np.abs(fp.empirical - oracle) / err)
        return dev < 3 and fp.c_hat > 0, f"max deviation {dev:.2f} sigma"

    def estimator_calibration():
        cutoff = 0.30
        cfg = gibbs.EnsembleConfig(dim=1, p=6, cutoff=cutoff, n_modes=32,
                                   n_samples=50000, seed=117, calibration=True)
        rep = gibbs.estimate_partition(cfg)
        if abs(rep.estimate - rep.fraction_inside_cutoff) > 1e-12:
            return False, "calibration estimate is not the inside fraction"
        # direct simulation of the cutoff event from the weighted chi-squares
        n = 50000
        w = 1.0 / (2 * np.pi * np.arange(1, 33)) ** 2

        def batch(rng, start, b):
            l2 = tails._square_sums(rng, b, (32, 2), w[:, None])
            return int(np.sum(l2 <= cutoff ** 2))

        direct = sum(batches(118, n, 10000, batch)) / n
        se = math.sqrt(direct * (1 - direct) / n
                       + rep.estimate * (1 - rep.estimate) / cfg.n_samples)
        dev = abs(direct - rep.estimate) / se
        return dev < 3, f"fraction {rep.estimate:.4f} vs direct {direct:.4f} ({dev:.1f} sigma)"

    def estimator_determinism():
        cfg = gibbs.EnsembleConfig(dim=1, p=6, cutoff=1.0, n_modes=32,
                                   n_samples=20000, seed=119)
        a = gibbs.estimate_partition(cfg)
        b = gibbs.estimate_partition(cfg)
        same = (a.estimate == b.estimate and a.log_estimate == b.log_estimate
                and a.standard_error == b.standard_error)
        return same, "two runs bit-identical" if same else "reports differ"

    def estimator_monotone_in_cutoff():
        ests = [rep.estimate for rep in gibbs.estimate_partitions(
            [gibbs.EnsembleConfig(dim=1, p=6, cutoff=cutoff, n_modes=32,
                                  n_samples=20000, seed=120)
             for cutoff in (0.2, 0.3, 0.5, 1.0, math.inf)])]
        ok = all(b >= a for a, b in zip(ests, ests[1:]))
        return ok, f"estimates {['%.5f' % e for e in ests]}"

    def importance_consistency():
        gs = solve_ground_state(1, 6)
        reps = []
        for sampler, seed in (("plain", 121), ("tilted", 122)):
            cfg = gibbs.EnsembleConfig(dim=1, p=6, cutoff=0.5 * gs.mass,
                                       n_modes=32, n_samples=50000, seed=seed,
                                       sampler=sampler)
            reps.append(gibbs.estimate_partition(cfg))
        if min(r.effective_sample_size for r in reps) <= 100:
            return False, "effective sample size too small to compare"
        dev = abs(reps[0].estimate - reps[1].estimate) / math.hypot(
            reps[0].standard_error, reps[1].standard_error)
        return dev < 3, f"plain vs tilted deviation {dev:.2f} sigma"

    def layer_cake():
        # five times the direct side's samples keeps the reconstruction's
        # error below 1.44e-5, the level this check was set at
        gsig = gibbs.EnsembleConfig(dim=1, p=4, cutoff=1.0, n_modes=16,
                                    n_samples=300000, seed=123)
        lams = np.concatenate([[0.0], np.linspace(0.05, 1.6, 32)])
        rec = gibbs.layer_cake(gsig, lams)
        direct = gibbs.estimate_partition(
            gibbs.EnsembleConfig(dim=1, p=4, cutoff=1.0, n_modes=16,
                                 n_samples=60000, seed=124))
        dev = abs(rec.estimate - direct.estimate) / math.hypot(
            rec.stderr, direct.standard_error)
        return dev < 3 and not rec.inconclusive, (
            f"reconstruction {rec.estimate:.5f} +- {rec.stderr:.2g} vs "
            f"direct {direct.estimate:.5f} +- {direct.standard_error:.2g} "
            f"({dev:.1f} sigma)")

    def kernel_parity():
        v = rng_for(125, 0).standard_normal((64, 257))
        dp = np.max(np.abs(abs_power_mean(v, 6.0)
                           - (np.abs(v) ** 6.0).mean(axis=-1)))
        return dp < 1e-12, f"even-power chain vs generic power {dp:.1e}"

    _check("spectral-realness", realness, results)
    _check("spectral-parseval", parseval, results)
    _check("projection-algebra", projection_algebra, results)
    _check("lp-monotone-in-p", lp_monotone, results)
    _check("dirichlet-chi-square-law", chi_square_law, results)
    _check("bessel-table-invariants", bessel_table, results)
    _check("disc-mode-orthonormality", orthonormality, results)
    _check("gradient-parseval-2d", gradient_parseval_2d, results)
    _check("ground-state-1d", ground_state_1d, results)
    _check("ground-state-2d", ground_state_2d, results)
    _check("gns-minimality", gns_minimality, results)
    _check("disc-gns-saturation", disc_saturation, results)
    _check("mgf-identity", mgf_identity, results)
    _check("chi-square-tail-lemma", chi2_lemma, results)
    _check("dyadic-schedule-exactness", schedule_exactness, results)
    _check("high-freq-tail-domination", high_freq_domination, results)
    _check("block-tail-2d-domination", block_tail_domination, results)
    _check("fernique-normal-oracle", fernique_normal, results)
    _check("estimator-calibration", estimator_calibration, results)
    _check("estimator-determinism", estimator_determinism, results)
    _check("estimator-monotone-in-cutoff", estimator_monotone_in_cutoff,
           results)
    _check("importance-consistency", importance_consistency, results)
    _check("layer-cake-consistency", layer_cake, results)
    _check("kernel-backend-parity", kernel_parity, results)
    return results


def _dirichlet_energies(seed: int, n_fields: int, n_modes: int) -> np.ndarray:
    """h1_seminorm_sq(sample_loops(seed, n_fields, n_modes)), bit for bit,
    from the same streams but without the corpus: each batch's normals are
    squared and summed a slice at a time."""
    return np.concatenate(batches(
        seed, n_fields, BATCH_SIZE,
        lambda rng, start, b: tails._square_sums(rng, b, (n_modes, 2))))


def _random_bump(rng, grid, dim):
    """Random smooth decaying test function for the minimality corpus."""
    f = np.zeros_like(grid)
    for _ in range(rng.integers(1, 4)):
        center = rng.uniform(0.0, 3.0) if dim == 2 else rng.uniform(-3.0, 3.0)
        width = rng.uniform(0.3, 2.0)
        amp = rng.uniform(0.2, 2.0) * rng.choice([-1.0, 1.0])
        f += amp * np.exp(-((grid - center) / width) ** 2)
    if dim == 2:
        f = f - f[-1]
        f *= np.exp(-(grid / 8.0) ** 4)
    return f

