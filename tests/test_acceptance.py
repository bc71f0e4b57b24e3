"""Acceptance suite: every exit criterion at its pinned tolerance.

Each test prints one PASS line with the measured values; a failure of any
assert is the corresponding FAIL. Criteria with runtime limits measure wall
time.
"""
import math
import time

import numpy as np
from scipy.stats import norm as normal_dist

import _oracles
from _oracles import bump_corpus as _corpus
from gibbslab import verify
from gibbslab.bessel import bessel_zeros
from gibbslab.gibbs import (EnsembleConfig, divergence_scan,
                            estimate_partition, layer_cake)
from gibbslab.groundstate import (gns_functional, profile_function,
                                  solve_ground_state)
from gibbslab.radial2d import (block_l4_expectation, grad_l2_spectral_sq,
                               radial_basis, sample_radials)
from gibbslab.rng import rng_for
from gibbslab.tails import (bernstein_probe, block_norm_samples_2d,
                            block_tail_empirical_2d, chi2_tail_empirical,
                            fernique_probe, gaussian_mgf, gaussian_mgf_mc,
                            gaussian_mgf_quadrature, high_freq_empirical_1d,
                            resolvable)

SQRT3PI = math.sqrt(3.0) * math.pi


def _report(k, text):
    print(f"\nACCEPTANCE {k} PASS: {text}")


def test_acceptance_01_critical_mass_1d():
    t0 = time.perf_counter()
    solve_ground_state.cache_clear()
    gs = solve_ground_state(1, 6)
    dt = time.perf_counter() - t0
    rel = abs(gs.mass ** 2 - SQRT3PI) / SQRT3PI
    ident = abs(gs.gns_constant - (gs.p / 2.0) * gs.mass ** (2 - gs.p))
    assert rel < 1e-8
    assert ident < 1e-12
    assert dt < 1.0
    _report(1, f"mass^2 rel err {rel:.2e}, identity defect {ident:.1e}, "
               f"{dt * 1000:.0f} ms")


def test_acceptance_02_critical_mass_2d():
    t0 = time.perf_counter()
    solve_ground_state.cache_clear()
    gs = solve_ground_state(2, 4)
    dt = time.perf_counter() - t0
    _, townes_mass_sq = _oracles.rk4_standard_ground_state_2d()
    oracle = 2.0 * townes_mass_sq       # dilation of the solved equation
    rel = abs(gs.mass ** 2 - oracle) / oracle
    assert rel < 1e-6
    assert gs.residual_max < 1e-8
    assert dt < 10.0
    _report(2, f"mass^2 rel err vs independent shooting {rel:.2e}, "
               f"residual {gs.residual_max:.1e}, solve {dt:.2f} s")


def test_acceptance_03_gns_minimality():
    rng = rng_for(2024, 0)
    worst_gap = math.inf
    for dim, p in ((1, 6), (2, 4)):
        gs = solve_ground_state(dim, p)
        grid = (np.linspace(-14.0, 14.0, 2401) if dim == 1
                else np.linspace(0.0, 14.0, 2401))
        for _ in range(1000):
            f = _corpus(rng, grid, dim)
            j = gns_functional(grid, f, dim, p)
            worst_gap = min(worst_gap, j - gs.j_min)
            assert j >= gs.j_min - 1e-9
        phi = profile_function(gs)
        edge = gs.grid[-1]
        for lam in (0.5, 1.0, 2.0):
            span = edge / lam
            g2 = (np.linspace(-span, span, 6001) if dim == 1
                  else np.linspace(0.0, span, 6001))
            j = gns_functional(g2, phi(lam * np.abs(g2)), dim, p)
            assert abs(j - gs.j_min) / gs.j_min < 1e-6
    _report(3, f"2000 corpus functions all above the minimum "
               f"(smallest gap {worst_gap:.3f}); rescaled profiles within "
               f"1e-6")


def test_acceptance_04_gradient_parseval_2d(table64):
    basis = radial_basis(table64, 64)
    dmat = basis.derivative_matrix()
    aw = basis.quad.area_weights
    f = sample_radials(313, 1000, 64)
    spec = grad_l2_spectral_sq(f)
    # exact identity
    assert np.array_equal(spec, np.sum(f.gaussians ** 2, axis=-1))
    dv = f.coeffs @ dmat.T
    quad = np.sum(aw * dv * dv, axis=-1)
    worst = float(np.max(np.abs(quad - spec) / spec))
    assert worst < 1e-6
    _report(4, f"1000 fields: spectral energy == sum of Gaussian squares "
               f"exactly; max quadrature mismatch {worst:.2e}")


def test_acceptance_05_chi_square_tail_lemma():
    t0 = time.perf_counter()
    n = 10 ** 7
    curve = chi2_tail_empirical(1, [3.0], n, seed=41)
    oracle = 2.0 * (1.0 - normal_dist.cdf(3.0))
    dev = abs(curve.empirical[0] - oracle) / curve.err[0]
    assert curve.empirical[0] <= math.exp(-9.0 / 4.0)
    assert dev < 3.0
    checked = 0
    for m_dof in (1, 2, 4):
        rs = 3.0 * math.sqrt(m_dof) * np.array([1.0, 1.1, 1.2])
        grid_curve = chi2_tail_empirical(m_dof, rs, n, seed=42 + m_dof)
        ok = resolvable(grid_curve)
        for i in range(len(rs)):
            if ok[i]:
                checked += 1
                assert grid_curve.empirical[i] <= (grid_curve.theoretical[i]
                                                   + 3 * grid_curve.err[i])
    dt = time.perf_counter() - t0
    assert dt < 60.0
    _report(5, f"P(X^2 >= 9) = {curve.empirical[0]:.3e} <= e^-9/4, matches "
               f"normal oracle at {dev:.2f} sigma; {checked} resolvable grid "
               f"points dominated; {dt:.1f} s")


def test_acceptance_06_mgf_product():
    for c in (0.1, 0.25, 0.3):
        for m_dof in (1, 2, 4, 8):
            exact = gaussian_mgf(c, m_dof)
            mc, se = gaussian_mgf_mc(c, m_dof, 10 ** 6, seed=57)
            assert abs(mc - exact) <= 3 * se, (c, m_dof)
            quad = gaussian_mgf_quadrature(c, m_dof)
            assert abs(quad - exact) <= 1e-10 * exact
    _report(6, "12 (c, M) pairs within 3 sigma of (1-2c)^(-M/2); quadrature "
               "identity to 1e-10 everywhere (including M=1)")


def test_acceptance_07_high_frequency_tails():
    c_hat = max(bernstein_probe(j, 6.0, 5000, seed=61)
                for j in (3, 4, 5))
    for k in (3, 4, 5):
        curve = high_freq_empirical_1d(k, [1.0], 128, 10 ** 5, seed=62,
                                       bernstein_c=c_hat)
        assert curve.empirical[0] <= curve.theoretical[0]
    norms = block_norm_samples_2d(4, 5000, seed=63)
    c_prime = fernique_probe(norms, [1.5, 2.0, 3.0]).c_hat
    c4 = max(block_l4_expectation(j, 3000, seed=64)[0] * 2 ** (j / 2)
             for j in (3, 4, 5))
    for k in (3, 4):
        curve = block_tail_empirical_2d(k, [1.0, 2.0], 64, 10 ** 5,
                                        seed=65, c_prime=c_prime, c4=c4)
        assert np.all(curve.empirical <= curve.theoretical)
    _report(7, f"1D summed dyadic bound dominates at k in (3,4,5) "
               f"(Bernstein C = {c_hat:.3f}); 2D chained bound dominates at "
               f"k in (3,4), levels 1 and 2")


def test_acceptance_08_threshold_scan_1d():
    t0 = time.perf_counter()
    gs = solve_ground_state(1, 6)
    schedule = [16, 32, 64, 128, 256, 512]
    ratios = (0.5, 1.5)
    cfgs = [EnsembleConfig(dim=1, p=6, cutoff=ratio * gs.mass, n_modes=16,
                           n_samples=10 ** 5, seed=71, sampler="soliton")
            for ratio in ratios]
    verdicts = dict(zip(ratios, divergence_scan(cfgs, schedule)))
    dt = time.perf_counter() - t0
    assert verdicts[0.5].verdict == "stable"
    assert verdicts[1.5].verdict == "diverging"
    assert dt < 1800.0
    _report(8, f"1D p=6: stable at 0.5 (slope {verdicts[0.5].slope:+.3g}), "
               f"diverging at 1.5 (slope {verdicts[1.5].slope:.3g}); "
               f"{dt:.0f} s")


def test_acceptance_09_threshold_scan_2d():
    t0 = time.perf_counter()
    gs = solve_ground_state(2, 4)
    schedule = [16, 32, 64, 128, 256, 512]
    ratios = (0.5, 1.5)
    cfgs = [EnsembleConfig(dim=2, p=4, cutoff=ratio * gs.mass, n_modes=16,
                           n_samples=10 ** 5, seed=72, sampler="soliton")
            for ratio in ratios]
    verdicts = dict(zip(ratios, divergence_scan(cfgs, schedule)))
    dt = time.perf_counter() - t0
    assert verdicts[0.5].verdict == "stable"
    assert verdicts[1.5].verdict == "diverging"
    assert dt < 3600.0
    _report(9, f"2D p=4: stable at 0.5 (slope {verdicts[0.5].slope:+.3g}), "
               f"diverging at 1.5 (slope {verdicts[1.5].slope:.3g}); "
               f"{dt:.0f} s")


def test_acceptance_10_layer_cake_consistency():
    # five times the direct side's samples keeps the reconstruction's
    # error below 1.12e-5, the level this criterion was set at
    cfg = EnsembleConfig(dim=1, p=4, cutoff=1.0, n_modes=16,
                         n_samples=5 * 10 ** 5, seed=81)
    lams = np.concatenate([[0.0], np.linspace(0.05, 1.7, 34)])
    rec = layer_cake(cfg, lams)
    direct = estimate_partition(
        EnsembleConfig(dim=1, p=4, cutoff=1.0, n_modes=16, n_samples=10 ** 5,
                       seed=82))
    combined = math.hypot(rec.stderr, direct.standard_error)
    dev = abs(rec.estimate - direct.estimate) / combined
    assert dev <= 3.0
    assert not rec.inconclusive
    _report(10, f"reconstruction {rec.estimate:.6f} vs direct "
                f"{direct.estimate:.6f}: {dev:.2f} combined sigma")


def test_acceptance_11_bessel_table():
    table = bessel_zeros(100)
    from gibbslab.bessel import bessel_j0

    residuals = np.abs([bessel_j0(z) for z in table.zeros])
    assert residuals.max() < 1e-12
    z1 = _oracles.bisect_series_zero(2.0, 3.0)
    z2 = _oracles.bisect_series_zero(5.0, 6.0)
    assert abs(table.zeros[0] - z1) < 1e-12
    assert abs(table.zeros[1] - z2) < 1e-12
    _report(11, f"100 zeros with max |J0(z_n)| = {residuals.max():.1e}; "
                f"z1, z2 match the series-bisection oracle to 1e-12")


def test_acceptance_12_verify_command():
    t0 = time.perf_counter()
    results = verify.run_all()
    dt = time.perf_counter() - t0
    failures = [r.name for r in results if not r.passed]
    assert failures == []
    assert dt < 900.0
    mutated = verify.run_all(inject_fault="j1-normalization")
    broken = [r.name for r in mutated if not r.passed]
    assert "gradient-parseval-2d" in broken
    _report(12, f"{len(results)} checks green in {dt:.0f} s; J1 mutation "
                f"breaks {broken}")
