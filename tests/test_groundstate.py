"""Ground states, the interpolation functional, and the sharp constants.

Oracles here are independent of the package code paths: the 1D mass comes
from scaling algebra done inline (a, b, and the sech integrals), and the 2D
mass from a locally coded fixed-step RK4 shooting solve of the
standard-normalized equation, rescaled.
"""
import math

import numpy as np
import pytest

from gibbslab.groundstate import (disc_gns_check, gns_functional,
                                  profile_function, solve_ground_state)
from gibbslab.radial2d import RadialField2D, radial_basis, sample_radials
from gibbslab.rng import rng_for

SQRT3PI = math.sqrt(3.0) * math.pi


# ---------------------------------------------------------------- 1D oracles

def test_mass_1d_p6_closed_form():
    # phi = a Q(bx), a = (p+2)^(1/(p-2)), b = sqrt((p+2)/(p-2));
    # for p=6: mass^2 = (a^2/b) * int Q^2 = 2 * (sqrt(3) pi / 2) = sqrt(3) pi
    gs = solve_ground_state(1, 6)
    assert abs(gs.mass ** 2 - SQRT3PI) < 1e-8 * SQRT3PI


def test_residual_1d_closed_form_grid():
    gs = solve_ground_state(1, 6)
    assert len(gs.grid) >= 1000
    assert gs.residual_max < 1e-10


def test_profile_invariants_1d():
    gs = solve_ground_state(1, 6)
    assert gs.profile[0] > 0
    assert np.all(np.diff(gs.profile) < 0)
    assert gs.profile[-1] < 1e-8 * gs.profile[0]


def _rk4_townes_mass_sq():
    """Independent shooting solve of Lap(psi) - psi + psi^3 = 0 in 2D."""
    h = 2.5e-4
    r_end = 12.0
    steps = int(r_end / h)

    def rhs(r, f, fp):
        lap = f - f ** 3
        return fp, lap - (fp / r if r > 1e-12 else 0.0)

    def shoot(s):
        f, fp = s, 0.0
        r = 1e-9
        for _ in range(steps):
            k1f, k1p = rhs(r, f, fp)
            k2f, k2p = rhs(r + h / 2, f + h / 2 * k1f, fp + h / 2 * k1p)
            k3f, k3p = rhs(r + h / 2, f + h / 2 * k2f, fp + h / 2 * k2p)
            k4f, k4p = rhs(r + h, f + h * k3f, fp + h * k3p)
            f += h / 6 * (k1f + 2 * k2f + 2 * k3f + k4f)
            fp += h / 6 * (k1p + 2 * k2p + 2 * k3p + k4p)
            r += h
            if f < 0.0:
                return "cross", None, None
            if fp > 0.0:
                return "turn", None, None
        return "decay", None, None

    lo, hi = 2.0, 2.5
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        out, _, _ = shoot(mid)
        if out == "cross":
            hi = mid
        else:
            lo = mid
    s = 0.5 * (lo + hi)

    # final pass accumulating the mass integral on the fly (Simpson)
    f, fp = s, 0.0
    r = 1e-9
    vals = [f * f * r]
    for _ in range(steps):
        k1f, k1p = rhs(r, f, fp)
        k2f, k2p = rhs(r + h / 2, f + h / 2 * k1f, fp + h / 2 * k1p)
        k3f, k3p = rhs(r + h / 2, f + h / 2 * k2f, fp + h / 2 * k2p)
        k4f, k4p = rhs(r + h, f + h * k3f, fp + h * k3p)
        f += h / 6 * (k1f + 2 * k2f + 2 * k3f + k4f)
        fp += h / 6 * (k1p + 2 * k2p + 2 * k3p + k4p)
        r += h
        if f < 1e-9:
            f = 0.0
        vals.append(f * f * r)
    vals = np.array(vals)
    if len(vals) % 2 == 0:
        vals = vals[:-1]
    integral = h / 3 * (vals[0] + vals[-1] + 4 * vals[1:-1:2].sum()
                        + 2 * vals[2:-1:2].sum())
    return s, 2 * math.pi * integral


def test_mass_2d_p4_against_independent_shooting():
    s, townes_mass_sq = _rk4_townes_mass_sq()
    assert abs(s - 2.2062008647) < 1e-6
    gs = solve_ground_state(2, 4)
    # the solved equation is a dilation of the standard one doubling mass^2
    oracle = 2.0 * townes_mass_sq
    assert abs(gs.mass ** 2 - oracle) < 1e-6 * oracle
    assert gs.residual_max < 1e-8


def test_ground_state_2d_p4_pinned():
    # the oracle above checks the mass to 1e-6; these pin the discrete
    # solution of the FD system itself
    gs = solve_ground_state(2, 4)
    assert abs(gs.mass - 4.837539979069467) < 1e-12 * 4.837539979069467
    assert abs(gs.profile[0] - 5.40406639343504) < 1e-10


def test_profile_invariants_2d():
    gs = solve_ground_state(2, 4)
    assert gs.profile[0] > 0
    assert np.min(gs.profile[:-2]) > -1e-12
    assert gs.profile[-3] < 1e-8 * gs.profile[0]
    assert gs.mass_error_bar < 1e-8


def test_bad_dim_p_combinations():
    for dim, p in ((1, 5), (1, 8), (2, 6), (3, 4), (1, 2)):
        with pytest.raises(ValueError):
            solve_ground_state(dim, p)


# ---------------------------------------------------------------- constants

def test_gns_constant_1d_p6_value():
    gs = solve_ground_state(1, 6)
    assert abs(gs.gns_constant - 1.0 / math.pi ** 2) < 1e-10


def test_gns_constant_identity_exact():
    for dim, p in ((1, 4), (1, 6), (2, 4)):
        gs = solve_ground_state(dim, p)
        assert abs(gs.gns_constant * gs.mass ** (p - 2) - p / 2.0) < 1e-12


def test_gns_constant_2d_form():
    gs = solve_ground_state(2, 4)
    assert abs(gs.gns_constant - 2.0 / gs.mass ** 2) < 1e-15


def test_j_min_1d_p6_closed_form():
    gs = solve_ground_state(1, 6)
    assert abs(gs.j_min - math.pi ** 2 / 4.0) < 1e-10


# ---------------------------------------------------------------- functional

def _grids(dim, n=4801):
    if dim == 1:
        return np.linspace(-14.0, 14.0, n)
    return np.linspace(0.0, 14.0, n)


def test_scale_invariance_of_functional():
    # the grid tracks the dilation so the tail is never truncated and the
    # sampling stays fine relative to the profile width
    for dim, p in ((1, 6), (2, 4)):
        gs = solve_ground_state(dim, p)
        phi = profile_function(gs)
        edge = gs.grid[-1]
        for lam in (0.25, 0.5, 1.0, 2.0, 4.0):
            span = edge / lam
            if dim == 1:
                grid = np.linspace(-span, span, 6001)
            else:
                grid = np.linspace(0.0, span, 6001)
            vals = phi(lam * np.abs(grid))
            j = gns_functional(grid, vals, dim, p)
            assert abs(j - gs.j_min) / gs.j_min < 1e-6, (dim, lam)


def test_gaussian_bump_above_minimum():
    grid = _grids(1)
    f = np.exp(-grid ** 2)
    gs = solve_ground_state(1, 6)
    assert gns_functional(grid, f, 1, 6) >= gs.j_min


def test_perturbed_minimizer_above_minimum():
    gs = solve_ground_state(1, 6)
    grid = _grids(1)
    phi = profile_function(gs)(np.abs(grid))
    pert = phi + 0.1 * np.exp(-((grid - 1.0) / 0.7) ** 2)
    j = gns_functional(grid, pert, 1, 6)
    assert j > gs.j_min
    assert j - gs.j_min > 1e-4            # genuine gap, not roundoff


def test_minimality_over_random_corpus():
    rng = rng_for(55, 0)
    for dim, p in ((1, 6), (2, 4)):
        gs = solve_ground_state(dim, p)
        grid = _grids(dim, 2401)
        for _ in range(1000):
            f = _corpus_function(rng, grid, dim)
            assert gns_functional(grid, f, dim, p) >= gs.j_min - 1e-9


def _corpus_function(rng, grid, dim):
    f = np.zeros_like(grid)
    for _ in range(rng.integers(1, 4)):
        c = rng.uniform(0.0, 4.0) if dim == 2 else rng.uniform(-4.0, 4.0)
        f += (rng.uniform(0.2, 2.0) * rng.choice([-1.0, 1.0])
              * np.exp(-((grid - c) / rng.uniform(0.4, 2.5)) ** 2))
    f *= np.exp(-(grid / 9.0) ** 6)
    if np.max(np.abs(f)) < 1e-3:
        f += np.exp(-grid ** 2)
    return f


def test_functional_rejects_vanishing_input():
    grid = _grids(1)
    with pytest.raises(ValueError):
        gns_functional(grid, np.zeros_like(grid), 1, 6)


# ---------------------------------------------------------------- disc check

def test_disc_check_single_mode(table64):
    gs = solve_ground_state(2, 4)
    basis = radial_basis(table64, 16)
    coeffs = np.zeros((1, 16))
    coeffs[0, 0] = 1.0
    r = disc_gns_check(RadialField2D(coeffs, table64), basis,
                       gs.sharp_constant)[0]
    assert 0.0 < r < 1.0


def test_disc_check_random_sweep(table64):
    gs = solve_ground_state(2, 4)
    basis = radial_basis(table64, 64)
    ratios = disc_gns_check(sample_radials(91, 1000, 64, table64), basis,
                            gs.sharp_constant)
    assert np.max(ratios) <= 1.0 + 1e-9


def test_disc_check_stack_matches_single_fields(table64):
    # a stack goes through one matrix product, whose rounding may differ
    # from a one-row product in the last bits
    gs = solve_ground_state(2, 4)
    basis = radial_basis(table64, 64)
    f = sample_radials(92, 7, 64, table64)
    ratios = disc_gns_check(f, basis, gs.sharp_constant)
    for i in range(7):
        one = RadialField2D(f.coeffs[i:i + 1], table64, f.gaussians[i:i + 1])
        single = disc_gns_check(one, basis, gs.sharp_constant)[0]
        assert abs(single - ratios[i]) <= 1e-13 * ratios[i]


def test_disc_check_near_saturation(table200):
    # a concentrated rescaled ground state projected onto the modes nearly
    # saturates the disc inequality
    gs = solve_ground_state(2, 4)
    basis = radial_basis(table200, 200)
    phi = profile_function(gs)
    w = 0.02
    target = phi(basis.quad.nodes / w) / w
    coeffs = basis.project(target)
    r = disc_gns_check(RadialField2D(coeffs[None], table200), basis,
                       gs.sharp_constant)[0]
    assert r > 0.9
    assert r <= 1.0 + 1e-9


def test_disc_check_rejects_zero_field(table64):
    gs = solve_ground_state(2, 4)
    basis = radial_basis(table64, 16)
    coeffs = np.zeros((2, 16))
    coeffs[0, 0] = 1.0               # one zero field in the stack is enough
    f = RadialField2D(coeffs, table64)
    with pytest.raises(ValueError):
        disc_gns_check(f, basis, gs.sharp_constant)
