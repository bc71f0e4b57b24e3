"""Bessel evaluation and the certified zero table.

The zero oracle here is deliberately independent of the package path: the
bisection on a power series in _oracles.py for the small zeros, and scipy's
J0 sign changes for the deep table.
"""
import math

import numpy as np
import pytest
import scipy.special as sp

import _oracles
from gibbslab.bessel import BesselTable, bessel_j0, bessel_zeros
from gibbslab.cli import main


def test_j0_at_zero_is_one():
    assert bessel_j0(0.0) == 1.0


def test_first_zero_matches_series_bisection():
    z = _oracles.bisect_series_zero(2.0, 3.0)
    assert abs(z - 2.404825557695773) < 1e-12
    assert abs(bessel_j0(z)) < 1e-12


def test_first_two_zeros_against_oracle(table200):
    z1 = _oracles.bisect_series_zero(2.0, 3.0)
    z2 = _oracles.bisect_series_zero(5.0, 6.0)
    assert abs(table200.zeros[0] - z1) < 1e-12
    assert abs(table200.zeros[1] - z2) < 1e-12


def test_table_invariants_hold(table200):
    table200.validate()
    assert np.max(np.abs(sp.j0(table200.zeros))) < 1e-12
    gaps = np.diff(table200.zeros)
    assert gaps.min() > math.pi - 0.3 and gaps.max() < math.pi + 0.3


def test_spacing_approaches_pi(table200):
    gap50 = table200.zeros[50] - table200.zeros[49]
    assert abs(gap50 - math.pi) < 0.002


def test_deep_zeros_against_scipy_brackets(table200):
    # every tabulated zero sits inside a sign change of scipy's J0
    z = table200.zeros
    eps = 1e-9
    left = sp.j0(z - eps)
    right = sp.j0(z + eps)
    assert np.all(left * right < 0)


def test_j0_accuracy_to_deep_argument(table200):
    x = np.linspace(0.0, table200.zeros[-1], 30001)
    assert np.max(np.abs(bessel_j0(x) - sp.j0(x))) < 1e-12


def test_bad_count_rejected():
    with pytest.raises(ValueError):
        bessel_zeros(0)


def test_non_integer_count_rejected():
    for count in (2.5, True, np.float64(3.0), "3"):
        with pytest.raises(ValueError, match="integer"):
            bessel_zeros(count)


def test_csv_export(tmp_path):
    out = tmp_path / "bt"
    assert main(["bessel-table", "--count", "5", "--out-dir", str(out)]) == 0
    lines = (out / "bessel_zeros.csv").read_text().strip().splitlines()
    assert lines[0] == "n,z_n,j1_at_z_n"
    assert len(lines) == 6
    n, z, j1 = lines[1].split(",")
    assert n == "1"
    assert abs(float(z) - 2.404825557695773) < 1e-14
    assert len(z.replace(".", "").replace("-", "").lstrip("0")) >= 15


def test_corrupt_table_fails_validation(table200):
    bad = BesselTable(zeros=table200.zeros[:10] + 1e-3,
                      j1_at_zeros=table200.j1_at_zeros[:10])
    with pytest.raises(RuntimeError):
        bad.validate()
