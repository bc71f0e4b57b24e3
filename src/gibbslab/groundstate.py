"""Ground states of (p-2) Lap(phi) - (p+2) phi + phi^(p-1) = 0 and the
associated Gagliardo-Nirenberg machinery.

In one dimension the equation reduces by scaling to Q'' - Q + Q^(p-1) = 0,
whose sech-power solution is known in closed form; the profile, its mass and
all functionals are then analytic. In two dimensions the radial profile is
one damped Newton solve of a fourth-order finite-difference discretization,
started from the 1D closed-form profile of the same p (the 2D equation only
adds the (p-2) phi'/r term); its converged max-norm residual certifies the
profile. Masses are Richardson-extrapolated from two grids.

Integrals are the composite Simpson rule and profile_function is a clamped
cubic spline, both written here in scipy.integrate.simpson's and
scipy.interpolate.CubicSpline's own order of operations, so they agree with
scipy bit for bit without loading those subpackages (each pulls in
scipy.optimize). The 1D closed form takes its four Beta values from a table
of scipy.special.beta's own results, so it loads no scipy at all; the module
needs only scipy.linalg.solve_banded, for the 2D Newton steps and the
spline's slopes, imported when first called.

Two constants are exposed per ground state:

  gns_constant  -- the bookkeeping identity (p/2) * mass^(2-p), enforced
                   exactly on the GroundState record;
  j_min         -- the attained minimum of the interpolation functional
                   J(f) = |grad f|^(n(p-2)/2) |f|^(2+(p-2)(2-n)/2) / |f|_p^p,
                   i.e. J evaluated at the solved profile.  1/j_min is the
                   sharp constant of the interpolation inequality and is the
                   quantity every minimality and saturation check uses.
"""
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .radial2d import (RadialBasis, RadialField2D, grad_l2_spectral_sq,
                       radial_lp_norm)

RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class GroundState:
    dim: int
    p: int
    grid: np.ndarray
    profile: np.ndarray
    mass: float                 # ||phi||_{L2(R^n)}
    grad_norm: float            # ||grad phi||_{L2}
    gns_constant: float         # (p/2) mass^(2-p), enforced identity
    j_min: float                # attained minimum of the J functional
    residual_max: float
    mass_error_bar: float

    @property
    def sharp_constant(self) -> float:
        """Sharp constant of the interpolation inequality, 1 / j_min."""
        return 1.0 / self.j_min


def _validate_dim_p(dim: int, p: int) -> None:
    if dim not in (1, 2):
        raise ValueError("dim must be 1 or 2")
    if p % 2 or p <= 2:
        raise ValueError("p must be an even integer greater than 2")
    if dim == 1 and p > 6:
        raise ValueError("1D range is p <= 6")
    if dim == 2 and p > 4:
        raise ValueError("2D range is p <= 4")


@lru_cache(maxsize=8)
def solve_ground_state(dim: int, p: int) -> GroundState:
    _validate_dim_p(dim, p)
    return _solve_1d(p) if dim == 1 else _solve_2d(p)


# ---------------------------------------------------------------- 1D, closed form

# beta(a, 1/2) at the four a that _solve_1d asks for in the 1D range p in
# {4, 6}, as scipy.special.beta computes them. The exact values pi, 2, pi/2
# and 4/3 differ from three of these in the last bit, which would move the
# critical mass and every cutoff scaled from it.
_BETA_HALF = {
    0.5: float.fromhex("0x1.921fb54442d17p+1"),
    1.0: float.fromhex("0x1.fffffffffffffp+0"),
    1.5: float.fromhex("0x1.921fb54442d17p+0"),
    2.0: float.fromhex("0x1.5555555555555p+0"),
}

def _solve_1d(p: int) -> GroundState:
    s = 2.0 / (p - 2)         # sech power of the unit-normalized profile
    c = (p - 2) / 2.0
    a = (p + 2) ** (1.0 / (p - 2))
    b = math.sqrt((p + 2) / (p - 2))
    amp = (p / 2.0) ** (1.0 / (p - 2))

    # closed-form line integrals of Q(y) = amp * sech^s(c y)
    int_q2 = amp ** 2 * _BETA_HALF[s] / c
    int_qp = amp ** p * _BETA_HALF[p * s / 2.0] / c
    int_dq2 = int_qp - int_q2             # from the equation, multiply by Q

    mass_sq = a * a / b * int_q2
    grad_sq = a * a * b * int_dq2
    lp_p = a ** p / b * int_qp

    length = (math.log(1e10) + s * math.log(2.0) + 1.0) / b
    grid = np.linspace(0.0, length, 4001)
    y = b * grid
    q = amp / np.cosh(c * y) ** s
    profile = a * q

    # analytic residual: phi'' = a b^2 (Q - Q^(p-1)) along the solution family
    phi_pp = a * b * b * (q - q ** (p - 1))
    residual = (p - 2) * phi_pp - (p + 2) * profile + profile ** (p - 1)

    mass = math.sqrt(mass_sq)
    grad = math.sqrt(grad_sq)
    j_min = _j_value(1, p, grad, mass, lp_p)
    return GroundState(
        dim=1, p=p, grid=grid, profile=profile, mass=mass, grad_norm=grad,
        gns_constant=(p / 2.0) * mass ** (2 - p), j_min=j_min,
        residual_max=float(np.max(np.abs(residual))),
        mass_error_bar=1e-14 * mass)


def _j_value(dim, p, grad, mass, lp_p):
    e_grad = dim * (p - 2) / 2.0
    e_mass = 2.0 + (p - 2) * (2.0 - dim) / 2.0
    return grad ** e_grad * mass ** e_mass / lp_p


# ---------------------------------------------------------------- 2D, Newton

def _newton_2d(p: int, r_max: float, n_cells: int, guess):
    """Newton solve of the 5-point FD discretization on r_i = i h.

    Rows 0..n-3 impose the equation (with the even extension across r = 0);
    the last two values are clamped to zero. Returns (grid, profile, residual).
    """
    from scipy.linalg import solve_banded

    h = r_max / n_cells
    n = n_cells + 1
    r = np.arange(n) * h
    phi = np.asarray(guess(r), dtype=float)
    phi[-2:] = 0.0
    h2 = 12.0 * h * h

    def fd_ops(f):
        d2 = np.zeros_like(f)
        i = np.arange(2, n - 2)
        d2[i] = (-f[i - 2] + 16 * f[i - 1] - 30 * f[i] + 16 * f[i + 1]
                 - f[i + 2]) / h2
        # even extension through r=0: f[-k] = f[k]
        d2[0] = (-2 * f[2] + 32 * f[1] - 30 * f[0]) / h2
        d2[1] = (16 * f[0] - 31 * f[1] + 16 * f[2] - f[3]) / h2
        # the residual reads d1 on rows 1..n-3 only
        return d2, _fd_derivative(f, h)

    def residual_vec(f):
        d2, d1 = fd_ops(f)
        res = (p - 2) * d2 - (p + 2) * f + f ** (p - 1)
        res[1:n - 2] += (p - 2) * d1[1:n - 2] / r[1:n - 2]
        res[0] = 2 * (p - 2) * d2[0] - (p + 2) * f[0] + f[0] ** (p - 1)
        res[n - 2] = f[n - 2]
        res[n - 1] = f[n - 1]
        return res

    # banded Jacobian, bandwidth 2: entry (row, col) sits at ab[2 + row - col, col]
    def jacobian(f):
        ab = np.zeros((5, n))
        lap2 = (p - 2) / h2
        adv = (p - 2) / (12.0 * h)
        ab[2, 0] = 2 * (-30.0) * lap2 - (p + 2) + (p - 1) * f[0] ** (p - 2)
        ab[1, 1] = 2 * 32.0 * lap2
        ab[0, 2] = 2 * (-2.0) * lap2
        r1 = r[1]
        ab[3, 0] = 16 * lap2 + (-8.0) * adv / r1
        ab[2, 1] = (-31 * lap2 + 1.0 * adv / r1 - (p + 2)
                    + (p - 1) * f[1] ** (p - 2))
        ab[1, 2] = 16 * lap2 + 8.0 * adv / r1
        ab[0, 3] = -1 * lap2 - 1.0 * adv / r1
        ri = r[2:n - 2]
        ab[4, :n - 4] = -lap2 + adv / ri
        ab[3, 1:n - 3] = 16 * lap2 - 8 * adv / ri
        ab[2, 2:n - 2] = -30 * lap2 - (p + 2) + (p - 1) * f[2:n - 2] ** (p - 2)
        ab[1, 3:n - 1] = 16 * lap2 + 8 * adv / ri
        ab[0, 4:] = -lap2 - adv / ri
        ab[2, n - 2:] = 1.0
        return ab

    # rounding floor of the stencil evaluation; can't resolve residuals below it
    floor = 4.0 * 62.0 * (p - 2) * max(1.0, abs(phi[0])) \
        * np.finfo(float).eps / (12.0 * h * h)
    for _ in range(60):
        res = residual_vec(phi)
        base = np.max(np.abs(res))
        if base < 2.0 * floor:
            break
        delta = solve_banded((2, 2), jacobian(phi), res)
        step = 1.0
        while step > 1e-4:
            trial = phi - step * delta
            if np.max(np.abs(residual_vec(trial))) < base:
                phi = trial
                break
            step *= 0.5
        else:
            if base < 0.5 * RESIDUAL_TOL:
                break               # stalled at the rounding floor; good enough
            raise RuntimeError("Newton solve stalled on the FD system")
    res = residual_vec(phi)
    return r, phi, float(np.max(np.abs(res[:n - 2])))


def _fd_derivative(f, h):
    d = np.empty_like(f)
    i = np.arange(2, len(f) - 2)
    d[i] = (f[i - 2] - 8 * f[i - 1] + 8 * f[i + 1] - f[i + 2]) / (12 * h)
    d[0] = 0.0                   # even profile
    d[1] = (f[1] - 8 * f[0] + 8 * f[2] - f[3]) / (12 * h)
    d[-2] = (f[-4] - 8 * f[-3] + 8 * f[-1] - 0.0) / (12 * h)
    d[-1] = 0.0
    return d


def _solve_2d(p: int) -> GroundState:
    mu = math.sqrt((p + 2) / (p - 2))
    r_max = (math.log(1e10) + 3.0) / mu
    # the 2D equation adds only the (p-2) phi'/r term to the 1D one, so the
    # 1D closed form is a close enough start for the damped Newton solve
    guess = profile_function(_solve_1d(p))

    n_cells = 2200
    masses = {}
    results = {}
    for cells in (n_cells, 2 * n_cells):
        grid, prof, res = _newton_2d(p, r_max, cells, guess)
        h = grid[1] - grid[0]
        masses[cells] = math.sqrt(2 * math.pi * _simpson(prof * prof * grid,
                                                         h))
        results[cells] = (grid, prof, res, h)
    m_h, m_h2 = masses[n_cells], masses[2 * n_cells]
    mass = (16 * m_h2 - m_h) / 15.0
    bar = abs(m_h2 - m_h) / 15.0

    grid, prof, res, h = results[2 * n_cells]
    if res >= RESIDUAL_TOL:
        raise RuntimeError(f"2D residual {res:.2e} above {RESIDUAL_TOL}")
    if prof[0] <= 0 or np.min(prof[:-2]) < -1e-12 \
            or np.any(np.diff(prof[:-1]) > 1e-12):
        raise RuntimeError("2D profile is not positive decreasing")

    dprof = _fd_derivative(prof, h)
    grad = math.sqrt(2 * math.pi * _simpson(dprof * dprof * grid, h))
    lp_p = 2 * math.pi * _simpson(prof ** p * grid, h)
    j_min = _j_value(2, p, grad, mass, lp_p)
    return GroundState(
        dim=2, p=p, grid=grid, profile=prof, mass=mass, grad_norm=grad,
        gns_constant=(p / 2.0) * mass ** (2 - p), j_min=j_min,
        residual_max=res, mass_error_bar=bar)


# ---------------------------------------------------------------- functionals

def _simpson(y: np.ndarray, dx: float) -> float:
    """Composite Simpson rule on an odd number of points spaced dx apart, as
    scipy.integrate.simpson(y, dx=dx) sums it."""
    if len(y) < 3 or len(y) % 2 == 0:
        raise ValueError(f"Simpson's rule needs an odd point count >= 3, "
                         f"got {len(y)}")
    r = np.sum(y[0:-2:2] + 4.0 * y[1:-1:2] + y[2::2])
    r *= dx / 3.0
    return r


def _clamped_spline(x: np.ndarray, y: np.ndarray):
    """Cubic spline through (x, y) with zero end slopes, built and evaluated
    as scipy.interpolate.CubicSpline(x, y, bc_type=((1, 0.0), (1, 0.0))) and
    its PPoly do it; beyond [x[0], x[-1]] it extends the end cubics."""
    from scipy.linalg import solve_banded

    n = len(x)
    dx = np.diff(x)
    slope = np.diff(y) / dx
    # knot slopes s: rows 1..n-2 make the second derivative continuous,
    # rows 0 and n-1 clamp s to zero
    ab = np.zeros((3, n))
    ab[1, 1:-1] = 2 * (dx[:-1] + dx[1:])
    ab[0, 2:] = dx[:-1]
    ab[-1, :-2] = dx[1:]
    ab[1, 0] = ab[1, -1] = 1
    b = np.zeros(n)
    b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    s = solve_banded((1, 1), ab, b, overwrite_ab=True, overwrite_b=True,
                     check_finite=False)
    # Hermite coefficients of u^3, u^2, u, 1 on each interval
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    c0, c1, c2, c3 = t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]

    def spline(q):
        q = np.asarray(q, dtype=float)
        i = np.clip(np.searchsorted(x, q, side="right") - 1, 0, n - 2)
        u = q - x[i]
        uu = u * u
        # PPoly's summation order, from 0.0 up through ascending powers
        return (0.0 + c3[i]) + c2[i] * u + c1[i] * uu + c0[i] * (uu * u)

    return spline


def profile_function(gs: GroundState):
    """Cubic-spline evaluator phi(|x|), zero beyond the stored grid."""
    spline = _clamped_spline(gs.grid, gs.profile)
    edge = gs.grid[-1]

    def phi(x):
        r = np.abs(np.asarray(x, dtype=float))
        out = spline(np.clip(r, 0.0, edge))
        return np.where(r > edge, 0.0, out)

    return phi


def _fd4(values: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order first derivative on a uniform grid."""
    f = values
    d = np.empty_like(f)
    i = np.arange(2, len(f) - 2)
    d[i] = (f[i - 2] - 8 * f[i - 1] + 8 * f[i + 1] - f[i + 2]) / (12 * h)
    d[0] = (-25 * f[0] + 48 * f[1] - 36 * f[2] + 16 * f[3] - 3 * f[4]) / (12 * h)
    d[1] = (-3 * f[0] - 10 * f[1] + 18 * f[2] - 6 * f[3] + f[4]) / (12 * h)
    d[-2] = -(-3 * f[-1] - 10 * f[-2] + 18 * f[-3] - 6 * f[-4] + f[-5]) / (12 * h)
    d[-1] = -(-25 * f[-1] + 48 * f[-2] - 36 * f[-3] + 16 * f[-4] - 3 * f[-5]) / (12 * h)
    return d


def gns_functional(grid: np.ndarray, values: np.ndarray, dim: int,
                   p: float) -> float:
    """J(f) for a gridded profile (full line for dim=1, radial for dim=2)."""
    grid = np.asarray(grid, dtype=float)
    values = np.asarray(values, dtype=float)
    h = grid[1] - grid[0]
    if not np.allclose(np.diff(grid), h):
        raise ValueError("uniform grid required")
    d = _fd4(values, h)
    if dim == 1:
        w = np.ones_like(grid)
    elif dim == 2:
        w = 2.0 * np.pi * grid
    else:
        raise ValueError("dim must be 1 or 2")
    lp_p = float(_simpson(np.abs(values) ** p * w, h))
    if lp_p <= 0.0:
        raise ValueError("function vanishes in L^p")
    l2 = math.sqrt(float(_simpson(values * values * w, h)))
    gr = math.sqrt(float(_simpson(d * d * w, h)))
    return _j_value(dim, p, gr, l2, lp_p)


def disc_gns_check(field: RadialField2D, basis: RadialBasis,
                   sharp_constant: float) -> np.ndarray:
    """Saturation ratio |v|_4^4 / (C |grad v|^2 |v|^2) on the disc of each
    field; <= 1."""
    l2sq = np.sum(field.coeffs ** 2, axis=-1)
    if np.any(l2sq == 0.0):
        raise ValueError("zero field")
    num = radial_lp_norm(field, 4.0, basis) ** 4
    return num / (sharp_constant * grad_l2_spectral_sq(field) * l2sq)
