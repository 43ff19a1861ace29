"""Linear algebra of Minkowski 4-space with signature (-,+,+,+).

Provides the pseudo scalar product, the triple wedge product and
membership residuals for the two unit quadrics (hyperbolic 3-space H3
and de Sitter 3-space S31).  All values are immutable and every
operation is pure.
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple

import numpy as np

from .errors import InvalidInputError

#: Gram matrix of the pseudo scalar product in the canonical basis.
METRIC = np.diag([-1.0, 1.0, 1.0, 1.0])


class Quadric(enum.Enum):
    H3 = "H3"    # <x,x> = -1
    S31 = "S31"  # <x,x> = +1


class MinkVec(namedtuple("MinkVec", "x0 x1 x2 x3")):
    """A 4-vector in the canonical basis e0..e3; components must be finite."""

    __slots__ = ()
    # NumPy scalars defer to the operators below instead of taking the
    # vector for a sequence: np.float64(2.0) * v is a MinkVec
    __array_ufunc__ = None

    def __new__(cls, x0, x1, x2, x3):
        xs = []
        for x in (x0, x1, x2, x3):
            c = float(x)
            if not math.isfinite(c):
                raise InvalidInputError(f"non-finite component in MinkVec: {c!r}")
            xs.append(c)
        return tuple.__new__(cls, xs)

    @classmethod
    def from_array(cls, arr) -> "MinkVec":
        return cls(*np.asarray(arr, dtype=float).reshape(4))

    def as_array(self) -> np.ndarray:
        return np.array(self)

    def __add__(self, other: "MinkVec") -> "MinkVec":
        return MinkVec(self.x0 + other.x0, self.x1 + other.x1,
                       self.x2 + other.x2, self.x3 + other.x3)

    def __sub__(self, other: "MinkVec") -> "MinkVec":
        return MinkVec(self.x0 - other.x0, self.x1 - other.x1,
                       self.x2 - other.x2, self.x3 - other.x3)

    def __mul__(self, s: float) -> "MinkVec":
        return MinkVec(self.x0 * s, self.x1 * s, self.x2 * s, self.x3 * s)

    __rmul__ = __mul__

    def __neg__(self) -> "MinkVec":
        return MinkVec(-self.x0, -self.x1, -self.x2, -self.x3)

    def max_abs(self) -> float:
        return max(abs(self.x0), abs(self.x1), abs(self.x2), abs(self.x3))


# MinkVec's fields as the columns of an (n, 4) array, so that mink_dot and
# membership_residual run on every row at once, with the same operations
Columns = namedtuple("Columns", "x0 x1 x2 x3")

E0 = MinkVec(1.0, 0.0, 0.0, 0.0)
E1 = MinkVec(0.0, 1.0, 0.0, 0.0)
E2 = MinkVec(0.0, 0.0, 1.0, 0.0)
E3 = MinkVec(0.0, 0.0, 0.0, 1.0)


def mink_dot(x: MinkVec, y: MinkVec) -> float:
    """Pseudo scalar product: -x0*y0 + x1*y1 + x2*y2 + x3*y3."""
    return -x.x0 * y.x0 + x.x1 * y.x1 + x.x2 * y.x2 + x.x3 * y.x3


def wedge3(x1: MinkVec, x2: MinkVec, x3: MinkVec) -> MinkVec:
    """Triple wedge product: the unique w with <x0,w> = det(x0,x1,x2,x3)."""
    return MinkVec(*wedge_rows(x1, x2, x3))


def wedge_rows(a, b, c):
    """wedge3 of the components a[i], b[i], c[i], floats or arrays of one
    shape (a stack of triples): cofactor expansion of the determinant with
    first row (-e0, e1, e2, e3), deterministic and branch-free."""
    # 2x2 minors of rows (b, c)
    m01 = b[0] * c[1] - b[1] * c[0]
    m02 = b[0] * c[2] - b[2] * c[0]
    m03 = b[0] * c[3] - b[3] * c[0]
    m12 = b[1] * c[2] - b[2] * c[1]
    m13 = b[1] * c[3] - b[3] * c[1]
    m23 = b[2] * c[3] - b[3] * c[2]
    return np.array([
        -(a[1] * m23 - a[2] * m13 + a[3] * m12),
        -(a[0] * m23 - a[2] * m03 + a[3] * m02),
        a[0] * m13 - a[1] * m03 + a[3] * m01,
        -(a[0] * m12 - a[1] * m02 + a[2] * m01),
    ])


# the largest |membership_residual| of a point taken to lie on its quadric
ON_QUADRIC = 1e-6


def membership_residual(x: MinkVec, target: Quadric) -> float:
    """<x,x> + 1 for H3, <x,x> - 1 for S31; zero iff on the quadric."""
    q = mink_dot(x, x)
    if target is Quadric.H3:
        return q + 1.0
    if target is Quadric.S31:
        return q - 1.0
    raise InvalidInputError(f"unknown quadric {target!r}")

