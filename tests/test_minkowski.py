import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hypframe import MinkVec, Quadric, membership_residual, mink_dot, wedge3
from hypframe.errors import InvalidInputError

from oracles import cofactor_det4

E0 = MinkVec(1, 0, 0, 0)
E1 = MinkVec(0, 1, 0, 0)
E2 = MinkVec(0, 0, 1, 0)
E3 = MinkVec(0, 0, 0, 1)

coords = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
vecs = st.builds(MinkVec, coords, coords, coords, coords)


def test_dot_signature_examples():
    assert mink_dot(E0, E0) == -1.0
    assert mink_dot(E1, E2) == 0.0
    assert mink_dot(MinkVec(1, 2, 0, 0), MinkVec(3, 1, 0, 0)) == -1.0


@given(vecs, vecs)
def test_dot_symmetric(x, y):
    assert mink_dot(x, y) == mink_dot(y, x)


@given(vecs, vecs, vecs, coords, coords)
def test_dot_bilinear(x, y, z, a, b):
    lhs = mink_dot(a * x + b * y, z)
    rhs = a * mink_dot(x, z) + b * mink_dot(y, z)
    scale = (abs(a) + abs(b)) * (x.max_abs() + y.max_abs()) * max(z.max_abs(), 1.0)
    assert abs(lhs - rhs) <= 1e-12 * (1.0 + scale)


def test_wedge_basis_examples():
    assert wedge3(E1, E2, E3) == MinkVec(-1, 0, 0, 0)
    assert wedge3(E0, E1, E2) == MinkVec(0, 0, 0, -1)


def test_wedge_alternating():
    rng = np.random.default_rng(7)
    for _ in range(25):
        x = MinkVec.from_array(rng.uniform(-2, 2, 4))
        y = MinkVec.from_array(rng.uniform(-2, 2, 4))
        mags = (1.0 + x.max_abs() + y.max_abs()) ** 3
        assert wedge3(x, x, y).max_abs() <= 1e-15 * mags
        assert wedge3(x, y, x).max_abs() <= 1e-15 * mags
        # repeated minor rows cancel exactly
        assert wedge3(y, x, x).max_abs() == 0.0
        # swapping two arguments flips the sign exactly
        assert (wedge3(x, y, x + y) + wedge3(y, x, x + y)).max_abs() <= 1e-15 * mags


def test_wedge_determinant_identity_random():
    rng = np.random.default_rng(42)
    for _ in range(500):
        x0, x1, x2, x3 = (MinkVec.from_array(v) for v in rng.uniform(-3, 3, (4, 4)))
        w = wedge3(x1, x2, x3)
        det = cofactor_det4([list(x0), list(x1), list(x2), list(x3)])
        mags = max(v.max_abs() for v in (x0, x1, x2, x3)) ** 4
        assert abs(mink_dot(x0, w) - det) <= 1e-10 * (1.0 + mags)
        for xi in (x1, x2, x3):
            assert abs(mink_dot(xi, w)) <= 1e-10 * (1.0 + mags)


def test_membership_residuals():
    assert membership_residual(E0, Quadric.H3) == 0.0
    assert membership_residual(E1, Quadric.S31) == 0.0
    p = MinkVec(math.cosh(1.0), 0.0, 0.0, math.sinh(1.0))
    assert abs(membership_residual(p, Quadric.H3)) < 1e-15


def test_minkvec_rejects_nonfinite():
    with pytest.raises(InvalidInputError):
        MinkVec(float("nan"), 0, 0, 0)
    with pytest.raises(InvalidInputError):
        MinkVec(float("inf"), 0, 0, 0)
