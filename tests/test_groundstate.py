"""Ground states, the interpolation functional, and the sharp constants.

Oracles here are independent of the package code paths: the 1D mass comes
from scaling algebra done inline (a, b, and the sech integrals), and the 2D
mass from the fixed-step RK4 shooting solve of the standard-normalized
equation in _oracles.py, rescaled.
"""
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import simpson
from scipy.interpolate import CubicSpline

import _oracles
from gibbslab.groundstate import (_BETA_HALF, _clamped_spline, _simpson,
                                  _validate_dim_p, disc_gns_check,
                                  gns_functional, profile_function,
                                  solve_ground_state)
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


# float.hex goldens taken while _solve_1d called scipy.special.beta; the
# table of scipy's values that replaces the call must reproduce every bit
GROUND_STATE_1D_GOLDEN = {
    4: {"mass": "0x1.dc783d76af359p+1", "grad_norm": "0x1.dc783d76af35bp+1",
        "gns_constant": "0x1.279a74590331dp-3",
        "j_min": "0x1.bb67ae8584cacp+0",
        "residual_max": "0x1.8000000000000p-46",
        "mass_error_bar": "0x1.4f4925fa23061p-45"},
    6: {"mass": "0x1.2a9545e765aebp+1", "grad_norm": "0x1.2a9545e765aebp+1",
        "gns_constant": "0x1.9f02f6222c729p-4",
        "j_min": "0x1.3bd3cc9be45d9p+1",
        "residual_max": "0x1.c000000000000p-45",
        "mass_error_bar": "0x1.a437e5f557de0p-46"},
}
PROFILE_1D_SHA256 = {
    4: "164b8f8a245a531f22f855322eb84f8d408d93b457d45c8243dd7afbfc8e2623",
    6: "d7ad1d43e59115c6aa7274c593089c997b2a2c416e44c2bf35d7cd2d97e5587e",
}


@pytest.mark.parametrize("p", sorted(GROUND_STATE_1D_GOLDEN))
def test_ground_state_1d_golden(p):
    gs = solve_ground_state(1, p)
    assert {k: float(getattr(gs, k)).hex()
            for k in GROUND_STATE_1D_GOLDEN[p]} == GROUND_STATE_1D_GOLDEN[p]
    assert hashlib.sha256(gs.profile.tobytes()).hexdigest() \
        == PROFILE_1D_SHA256[p]


def test_beta_table_matches_scipy_bit_for_bit():
    from scipy.special import beta

    def accepted(p):
        try:
            _validate_dim_p(1, p)
        except ValueError:
            return False
        return True

    ps = [p for p in range(3, 40) if accepted(p)]
    assert ps == [4, 6]
    for p in ps:
        s = 2.0 / (p - 2)            # the two arguments _solve_1d asks for
        for a in (s, p * s / 2.0):
            assert float(_BETA_HALF[a]).hex() == float(beta(a, 0.5)).hex()


def test_mass_2d_p4_against_independent_shooting():
    s, townes_mass_sq = _oracles.rk4_standard_ground_state_2d()
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


# float.hex goldens taken while the 2D path ran scipy.integrate.simpson and
# scipy.interpolate.CubicSpline; the NumPy Simpson rule and clamped spline
# that replace them must reproduce every bit
GROUND_STATE_2D_GOLDEN = {
    "mass": "0x1.359a4148cc93ep+2",
    "grad_norm": "0x1.0c1fa98ca03a2p+3",
    "j_min": "0x1.766dbe8f25743p+2",
    "residual_max": "0x1.106a000000000p-31",
    "mass_error_bar": "0x1.0111fd999999ap-28",
}
GNS_FUNCTIONAL_2D_GOLDEN = "0x1.766dbe856e483p+2"
# profile_function at x[0], x[1], x[2000], x[-1], the midpoint of the first
# interval, 1.2345, -1.2345, x[-1] - 1e-3 and x[-1] + 0.5, x the stored grid
PROFILE_FUNCTION_GOLDEN = {
    (1, 4): ["0x1.bb67ae8584caap+1", "0x1.bb6583a8b8eebp+1",
             "0x1.f283da7371853p-16", "0x1.183cc0adadf69p-33",
             "0x1.bb6723cdc12b3p+1", "0x1.9c5dc23bfbc2bp-1",
             "0x1.9c5dc23bfbc2bp-1", "0x1.18720968685f1p-33", "0x0.0p+0"],
    (1, 6): ["0x1.1b4f819c2ff81p+1", "0x1.1b4cd052301cdp+1",
             "0x1.0bd83a81de2bfp-16", "0x1.661c84b5c3686p-34",
             "0x1.1b4ed547c6d47p+1", "0x1.17871c57c35cdp-1",
             "0x1.17871c57c35cdp-1", "0x1.664b9e2e47d3ap-34", "0x0.0p+0"],
    (2, 4): ["0x1.59dc394a4dd6cp+2", "0x1.59d93a986a813p+2",
             "0x1.2f0e7112bd970p-16", "-0x1.0000000000000p-96",
             "0x1.59db799c5f64cp+2", "0x1.5048d4de9331bp-1",
             "0x1.5048d4de9331bp-1", "-0x1.7010b8fbabfa8p-49", "0x0.0p+0"],
}


def test_ground_state_2d_p4_golden():
    gs = solve_ground_state(2, 4)
    assert {k: float(getattr(gs, k)).hex()
            for k in GROUND_STATE_2D_GOLDEN} == GROUND_STATE_2D_GOLDEN
    j = gns_functional(gs.grid, gs.profile, 2, 4)
    assert float(j).hex() == GNS_FUNCTIONAL_2D_GOLDEN


@pytest.mark.parametrize("dim, p", sorted(PROFILE_FUNCTION_GOLDEN))
def test_profile_function_golden(dim, p):
    gs = solve_ground_state(dim, p)
    x = gs.grid
    pts = np.array([x[0], x[1], x[2000], x[-1], 0.5 * (x[0] + x[1]), 1.2345,
                    -1.2345, x[-1] - 1e-3, x[-1] + 0.5])
    values = profile_function(gs)(pts)
    assert [float(v).hex() for v in values] == PROFILE_FUNCTION_GOLDEN[dim, p]


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
            f = _oracles.bump_corpus(rng, grid, dim)
            assert gns_functional(grid, f, dim, p) >= gs.j_min - 1e-9


def test_functional_rejects_vanishing_input():
    grid = _grids(1)
    with pytest.raises(ValueError):
        gns_functional(grid, np.zeros_like(grid), 1, 6)


# ------------------------------------------- Simpson and spline against scipy

_FINITE = st.floats(-1e6, 1e6, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(st.lists(_FINITE, min_size=3, max_size=301), st.floats(1e-6, 1e3))
def test_simpson_matches_scipy_bit_for_bit(values, dx):
    y = np.array(values[:len(values) - 1 + len(values) % 2])   # odd count
    assert float(_simpson(y, dx)).hex() == float(simpson(y, dx=dx)).hex()


@pytest.mark.parametrize("n", [0, 1, 2, 4, 4400])
def test_simpson_rejects_even_or_short_counts(n):
    with pytest.raises(ValueError) as exc:
        _simpson(np.ones(n), 0.1)
    assert str(exc.value) == \
        f"Simpson's rule needs an odd point count >= 3, got {n}"


@settings(max_examples=200, deadline=None)
@given(st.floats(-100.0, 100.0),
       st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=40),
       st.data())
def test_clamped_spline_matches_scipy_bit_for_bit(start, gaps, data):
    x = start + np.cumsum([0.0] + gaps)
    y = np.array(data.draw(st.lists(_FINITE, min_size=len(x),
                                    max_size=len(x))))
    fractions = data.draw(st.lists(st.floats(0.0, 1.0), max_size=20))
    q = np.concatenate([x, [x[0] - 1.0, x[-1] + 1.0, np.nan],
                        x[0] + np.array(fractions) * (x[-1] - x[0])])
    ours = _clamped_spline(x, y)(q)
    theirs = CubicSpline(x, y, bc_type=((1, 0.0), (1, 0.0)))(q)
    assert np.array_equal(np.isnan(ours), np.isnan(q))
    assert np.array_equal(np.isnan(theirs), np.isnan(q))
    finite = ~np.isnan(q)
    assert np.array_equal(ours[finite].view(np.int64),
                          theirs[finite].view(np.int64))


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
