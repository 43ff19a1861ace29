"""Hyperbolic framed curves from curvature data.

A curve in H3 together with two unit spacelike normals is reconstructed
from its curvature quartet (m, n, a, b) by integrating the frame ODE
F' = C(t) F with the structure-preserving kernel, and converted to the
Frenet type frame (M, N, A, B=0) whose derivatives feed every
classification criterion downstream.  All Frenet quantities are built
symbolically from the quartet so zero tests see rounding noise only.

Orientation note: frames here satisfy det(gamma, v1, v2, mu) = +1, the
orientation of the standard frame (e0, e1, e2, e3); equivalently
mu = -(gamma ^ v1 ^ v2).  The closed-form discriminants downstream are
determinant identities and hold in exactly this orientation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import propagation as _kernel
from .errors import (FrameDegenerateError, IntegrationFailureError,
                     InvalidInputError, NumericError)
from .minkowski import METRIC, MinkVec, wedge3
from .symexpr import (ZERO, Expr, add, compile, div, eval_expr, fun,
                      mul, neg, parse_expr, pow_, sub, vectorized)
from .symexpr import diff_expr as _d
from .tolerances import DEFAULT, Tolerances


def propagation_backend() -> str:
    """The propagation kernel in use: always the NumPy one, 'python'."""
    return "python"


# ---------------------------------------------------------------------------
# Curvature data


@dataclass(frozen=True)
class CurvatureQuartet:
    """The four curvature functions of the frame ODE, as expression trees."""

    m: Expr
    n: Expr
    a: Expr
    b: Expr

    @classmethod
    def from_strings(cls, m: str, n: str, a: str, b: str) -> "CurvatureQuartet":
        return cls(parse_expr(m), parse_expr(n), parse_expr(a), parse_expr(b))

    def __iter__(self):
        return iter((self.m, self.n, self.a, self.b))

    def eval(self, t: float):
        return tuple(eval_expr(e, t) for e in self)


@dataclass(frozen=True)
class ScalarInvariants:
    f: Expr
    g: Expr
    h: Expr
    sigma: Expr


def scalar_invariants(q: CurvatureQuartet) -> ScalarInvariants:
    """Symbolic (f, g, h, sigma) of the quartet.

    f = a b' - a' b + n (a^2 + b^2),  g = m b' - m' b + m a n,
    h = m a' - m' a - m b n,          sigma = f^2 - g^2 - h^2.
    """
    m, n, a, b = q.m, q.n, q.a, q.b
    ab2 = add(pow_(a, 2), pow_(b, 2))
    f = add(sub(mul(a, _d(b)), mul(_d(a), b)), mul(n, ab2))
    g = add(sub(mul(m, _d(b)), mul(_d(m), b)), mul(mul(m, a), n))
    h = sub(sub(mul(m, _d(a)), mul(_d(m), a)), mul(mul(m, b), n))
    sigma = sub(sub(pow_(f, 2), pow_(g, 2)), pow_(h, 2))
    return ScalarInvariants(f, g, h, sigma)


def coefficient_matrix(q: CurvatureQuartet, t: float) -> np.ndarray:
    """The frame ODE generator C(t), rows/columns ordered (gamma, v1, v2, mu).

    Satisfies C G + G C^T = 0 exactly with G = diag(-1, 1, 1, 1).
    """
    m, n, a, b = q.eval(t)
    return _kernel.coefficient_matrix_values(m, n, a, b)


# ---------------------------------------------------------------------------
# Frame samples


@dataclass(frozen=True)
class FrameSample:
    """Frame at one parameter value; rows on their quadrics, mutually orthogonal."""

    t: float
    gamma: MinkVec
    v1: MinkVec
    v2: MinkVec
    mu: MinkVec

    @classmethod
    def standard(cls, t: float = 0.0) -> "FrameSample":
        return cls(t, MinkVec(1, 0, 0, 0), MinkVec(0, 1, 0, 0),
                   MinkVec(0, 0, 1, 0), MinkVec(0, 0, 0, 1))

    @classmethod
    def from_matrix(cls, t: float, f) -> "FrameSample":
        f = np.asarray(f, dtype=float)
        return cls(t, *(MinkVec.from_array(row) for row in f))

    def matrix(self) -> np.ndarray:
        return np.array([list(self.gamma), list(self.v1), list(self.v2), list(self.mu)])

    def pairing_residual(self) -> float:
        """max deviation of the ten pseudo-orthonormality pairings (absolute)."""
        return _kernel.gram_residual(self.matrix())

    def wedge_residual(self) -> float:
        """Relative deviation of mu from -(gamma ^ v1 ^ v2).

        Normalized by the product of row magnitudes: the wedge is cubic in
        the entries, so an absolute test is meaningless for large frames.
        """
        w = wedge3(self.gamma, self.v1, self.v2)
        scale = 1.0 + (self.gamma.max_abs() * self.v1.max_abs() * self.v2.max_abs())
        return (self.mu + w).max_abs() / scale

    def residual(self) -> float:
        return max(self.pairing_residual(), self.wedge_residual())


# ---------------------------------------------------------------------------
# Symbolic Frenet machinery


def _sq(e: Expr) -> Expr:
    return pow_(e, 2)


def _derivative(name: str, order: int = 1) -> cached_property:
    """Lazily built order-th derivative of the expression attribute `name`."""
    return cached_property(lambda self: _d(getattr(self, name), order))


def _program(*names: str) -> cached_property:
    """Lazily compiled program of the expression attributes `names`, in order."""
    return cached_property(lambda self: compile([getattr(self, n) for n in names]))


class FrenetExprs:
    """Expressions of the Frenet quantities of a quartet, built lazily.

    W denotes the Wronskian-type combination M A' - M' A; Dh and Dd are
    A N sqrt(A^2 - M^2) and A N sqrt(M^2 - A^2).

    Each `*_program` attribute compiles a group of roots that one query
    reads together, in the order it reads them, so a domain error
    surfaces at the same root and node as evaluating the roots one by one.
    """

    def __init__(self, quartet: CurvatureQuartet):
        self.quartet = quartet

    @cached_property
    def invariants(self) -> ScalarInvariants:
        return scalar_invariants(self.quartet)

    @cached_property
    def ab2(self) -> Expr:
        return add(_sq(self.quartet.a), _sq(self.quartet.b))

    @cached_property
    def M(self) -> Expr:
        return self.quartet.m

    @cached_property
    def N(self) -> Expr:
        return div(self.invariants.f, self.ab2)

    @cached_property
    def A(self) -> Expr:
        return fun("sqrt", self.ab2)

    @cached_property
    def disc_h(self) -> Expr:
        # A^2 - M^2 built from a^2+b^2 directly, not through sqrt()^2
        return sub(self.ab2, _sq(self.M))

    @cached_property
    def disc_d(self) -> Expr:
        return sub(_sq(self.M), self.ab2)

    @cached_property
    def W(self) -> Expr:
        return sub(mul(self.M, _d(self.A)), mul(_d(self.M), self.A))

    @cached_property
    def sigma_f(self) -> Expr:
        return sub(mul(mul(self.ab2, _sq(self.N)), self.disc_h), _sq(self.W))

    @cached_property
    def dh(self) -> Expr:
        return mul(mul(self.A, self.N), fun("sqrt", self.disc_h))

    @cached_property
    def dd(self) -> Expr:
        return mul(mul(self.A, self.N), fun("sqrt", self.disc_d))

    # -- theta(t) branches and the two epsilon code paths -------------------

    @cached_property
    def theta_h(self) -> Expr:
        return fun("artanh", div(self.W, self.dh))

    @cached_property
    def theta_d(self) -> Expr:
        return fun("atan", div(self.W, self.dd))

    def _eps_path(self, theta: Expr, disc: Expr) -> Expr:
        # theta' - M N / sqrt(disc), theta differentiated symbolically
        return sub(_d(theta), div(mul(self.M, self.N), fun("sqrt", disc)))

    def _eps_closed(self, d: Expr, den: Expr, disc: Expr) -> Expr:
        # quotient form of the cuspidal edge test for the dual of the
        # evolute; den is sigma_F, or -sigma_F written from M^2 - A^2
        numer = sub(mul(d, _d(self.W)), mul(_d(d), self.W))
        return sub(div(numer, den), div(mul(self.M, self.N), fun("sqrt", disc)))

    eps_h_path = cached_property(lambda self: self._eps_path(self.theta_h, self.disc_h))
    eps_d_path = cached_property(lambda self: self._eps_path(self.theta_d, self.disc_d))
    eps_h_closed = cached_property(
        lambda self: self._eps_closed(self.dh, self.sigma_f, self.disc_h))
    eps_d_closed = cached_property(lambda self: self._eps_closed(
        self.dd, add(_sq(self.W), mul(mul(self.ab2, _sq(self.N)), self.disc_d)), self.disc_d))

    # -- evolute coefficients in the Frenet frame basis ---------------------

    def frame_coeff_derivative(self, coeffs) -> tuple:
        """Derivative of c0*gamma + c1*n1 + c2*n2 + c3*mu in frame coordinates."""
        c0, c1, c2, c3 = coeffs
        m, n, a = self.M, self.N, self.A
        return (
            add(_d(c0), mul(m, c3)),
            sub(_d(c1), add(mul(n, c2), mul(a, c3))),
            add(_d(c2), mul(n, c1)),
            add(_d(c3), add(mul(m, c0), mul(a, c1))),
        )

    def _evolute_chain(self, sigma: Expr) -> list:
        """(coeffs of E, E', E'', E''') of the evolute
        (A^2 N gamma - M A N n1 + W n2) / sqrt(sigma)."""
        root = fun("sqrt", sigma)
        chain = [(div(mul(self.ab2, self.N), root),
                  neg(div(mul(mul(self.M, self.A), self.N), root)),
                  div(self.W, root),
                  ZERO)]
        for _ in range(3):
            chain.append(self.frame_coeff_derivative(chain[-1]))
        return chain

    # sigma_F > 0 on the hyperbolic side, -sigma_F > 0 on the de Sitter one
    evolute_h_chain = cached_property(lambda self: self._evolute_chain(self.sigma_f))
    evolute_d_chain = cached_property(lambda self: self._evolute_chain(neg(self.sigma_f)))

    # -- derivatives and the compiled groups -------------------------------

    M1 = _derivative("M")
    N1 = _derivative("N")
    A1 = _derivative("A")
    W1 = _derivative("W")
    W2 = _derivative("W", 2)
    Dh1 = _derivative("dh")
    Dh2 = _derivative("dh", 2)
    Dd1 = _derivative("dd")
    Dd2 = _derivative("dd", 2)
    eps_h_path1 = _derivative("eps_h_path")
    eps_d_path1 = _derivative("eps_d_path")
    eps_h_closed1 = _derivative("eps_h_closed")
    eps_d_closed1 = _derivative("eps_d_closed")

    # FrenetData columns, evaluated once a^2 + b^2 has passed its check
    base_program = _program("disc_h", "M", "N", "M1", "N1", "A1",
                            "W", "W1", "W2", "sigma_f")
    dh_program = _program("dh", "Dh1", "Dh2")
    dd_program = _program("dd", "Dd1", "Dd2")
    # (epsilon, epsilon') along the theta branch and in closed form
    eps_h_path_program = _program("eps_h_path", "eps_h_path1")
    eps_d_path_program = _program("eps_d_path", "eps_d_path1")
    eps_h_closed_program = _program("eps_h_closed", "eps_h_closed1")
    eps_d_closed_program = _program("eps_d_closed", "eps_d_closed1")

    # the 16 frame coefficients of each evolute chain, in order
    evolute_h_program = cached_property(
        lambda self: compile([c for coeffs in self.evolute_h_chain for c in coeffs]))
    evolute_d_program = cached_property(
        lambda self: compile([c for coeffs in self.evolute_d_chain for c in coeffs]))


@dataclass(frozen=True)
class FrenetData:
    """Frenet quantities and derivatives at one parameter value.

    Dh/Dd and their derivatives are present only on the side where the
    corresponding discriminant A^2 - M^2 (resp. M^2 - A^2) is positive.
    """

    t: float
    M: float
    N: float
    A: float
    B: float
    M1: float
    N1: float
    A1: float
    W: float
    W1: float
    W2: float
    sigma_f: float
    disc_h: float
    disc_d: float
    Dh: float | None = None
    Dh1: float | None = None
    Dh2: float | None = None
    Dd: float | None = None
    Dd1: float | None = None
    Dd2: float | None = None


# ---------------------------------------------------------------------------
# The integrated model


class FramedCurveModel:
    """Integrated frame samples plus the symbolic Frenet cache.

    Immutable once constructed; per-parameter queries are pure.  Dense
    output between stored samples is cubic interpolation of the frame
    entries followed by re-orthonormalization (approximate, but any
    re-orthonormalized frame satisfies the pairing identities exactly,
    so isotropy and duality residuals are insensitive to it).
    """

    def __init__(self, quartet, ts, frames, initial, step, stats, tol):
        self.quartet = quartet
        self.ts = ts
        self.frames = frames
        self.initial = initial
        self.step = step
        self.corrections = stats[0]
        self.max_drift_raw = stats[1]
        self.max_drift = stats[2]
        self.max_drift_t = stats[3]
        self.tol = tol
        self.frenet = FrenetExprs(quartet)
        self._last_frenet = None  # (key of t, FrenetData) of the last query

    @property
    def t0(self) -> float:
        return float(self.ts[0])

    @property
    def t1(self) -> float:
        return float(self.ts[-1])

    def __len__(self):
        return len(self.ts)

    def sample(self, i: int) -> FrameSample:
        return FrameSample.from_matrix(float(self.ts[i]), self.frames[i])

    def samples(self):
        return [self.sample(i) for i in range(len(self.ts))]

    def frame_at(self, t: float) -> np.ndarray:
        """Frame matrix at t: stored sample or interpolated + re-orthonormalized."""
        ts = self.ts
        span = max(abs(self.t0), abs(self.t1), 1.0)
        if t < self.t0 - 1e-12 * span or t > self.t1 + 1e-12 * span:
            raise InvalidInputError(
                f"t={t!r} outside the integrated domain [{self.t0}, {self.t1}]")
        i = int(np.searchsorted(ts, t))
        if i < len(ts) and abs(ts[i] - t) <= 1e-13 * span:
            return self.frames[i].copy()
        if i > 0 and abs(ts[i - 1] - t) <= 1e-13 * span:
            return self.frames[i - 1].copy()
        lo = max(0, min(i - 2, len(ts) - 4))
        hi = min(len(ts), lo + 4)
        xs = ts[lo:hi]
        f = np.zeros((4, 4))
        for k in range(len(xs)):
            w = 1.0
            for j in range(len(xs)):
                if j != k:
                    w *= (t - xs[j]) / (xs[k] - xs[j])
            f += w * self.frames[lo + k]
        return _kernel.pseudo_orthonormalize(f)

    def sample_at(self, t: float) -> FrameSample:
        return FrameSample.from_matrix(t, self.frame_at(t))

    def frenet_frame_at(self, t: float) -> np.ndarray:
        """Rows (gamma, n1, n2, mu): the normals rotated to the Frenet pair."""
        a = eval_expr(self.quartet.a, t)
        b = eval_expr(self.quartet.b, t)
        r2 = a * a + b * b
        if r2 <= self.tol.zero:
            raise FrameDegenerateError(
                f"a^2+b^2 = {r2!r} at t={t!r}: Frenet type frame undefined")
        r = math.sqrt(r2)
        f = self.frame_at(t)
        out = np.empty((4, 4))
        out[0] = f[0]
        out[1] = (a * f[1] + b * f[2]) / r
        out[2] = (-b * f[1] + a * f[2]) / r
        out[3] = f[3]
        return out

    def frenet_data_at(self, t: float) -> FrenetData:
        # queries arrive in runs at the same t: keep the last answer
        key = (type(t), t, math.copysign(1.0, t))
        if self._last_frenet is not None and self._last_frenet[0] == key:
            return self._last_frenet[1]
        fe = self.frenet
        ab2 = eval_expr(fe.ab2, t)
        if ab2 <= self.tol.zero:
            raise FrameDegenerateError(
                f"a^2+b^2 = {ab2!r} at t={t!r}: Frenet type frame undefined")
        disc_h, M, N, M1, N1, A1, W, W1, W2, sigma_f = eval_expr(fe.base_program, t)
        disc_d = -disc_h
        data = dict(t=t, M=M, N=N, A=math.sqrt(ab2), B=0.0, M1=M1, N1=N1, A1=A1,
                    W=W, W1=W1, W2=W2, sigma_f=sigma_f, disc_h=disc_h, disc_d=disc_d)
        if disc_h > self.tol.zero:
            data.update(zip(("Dh", "Dh1", "Dh2"), eval_expr(fe.dh_program, t)))
        if disc_d > self.tol.zero:
            data.update(zip(("Dd", "Dd1", "Dd2"), eval_expr(fe.dd_program, t)))
        out = FrenetData(**data)
        self._last_frenet = (key, out)
        return out


def frenet_convert(model: FramedCurveModel, t: float):
    """Rotated normals (n1, n2) and the FrenetData package at t."""
    data = model.frenet_data_at(t)
    f = model.frenet_frame_at(t)
    return MinkVec.from_array(f[1]), MinkVec.from_array(f[2]), data


# ---------------------------------------------------------------------------
# Integration driver


def _validate_initial(initial: FrameSample, tol_abs=1e-12):
    if initial.pairing_residual() > tol_abs:
        raise InvalidInputError(
            f"initial frame pairing residual {initial.pairing_residual():.3e} "
            f"exceeds {tol_abs:g}")
    if initial.wedge_residual() > tol_abs:
        raise InvalidInputError(
            "initial frame orientation must satisfy mu = -(gamma ^ v1 ^ v2) "
            "(det = +1, the orientation of the standard frame)")


def integrate_frame(quartet: CurvatureQuartet, domain, initial=None,
                    step=None, tol: Tolerances = DEFAULT) -> FramedCurveModel:
    """Integrate the frame ODE over domain = (t0, t1, samples).

    Returns a model holding the frame at each of the `samples` grid
    points; each sample interval is covered by CF4 substeps no longer
    than `step`.  Drift in F G F^T - G is monitored at every sample and
    re-orthonormalization applied above tol.frame / 10; drift surviving
    correction beyond tol.frame raises IntegrationFailureError.
    """
    t0, t1, nsamples = float(domain[0]), float(domain[1]), int(domain[2])
    if nsamples < 2:
        raise InvalidInputError("domain needs at least 2 samples")
    if not t1 > t0:
        raise InvalidInputError("domain must satisfy t1 > t0")
    if initial is None:
        initial = FrameSample.standard(t0)
    elif not isinstance(initial, FrameSample):
        initial = FrameSample.from_matrix(t0, initial)
    _validate_initial(initial)
    dt = (t1 - t0) / (nsamples - 1)
    if step is None:
        step = min(2e-3, dt)
    step = float(step)
    if step <= 0:
        raise InvalidInputError("step must be positive")

    nsub = max(1, int(math.ceil(dt / step - 1e-12)))
    ts = t0 + dt * np.arange(nsamples)
    ts[-1] = t1
    hs = np.full(nsamples - 1, dt / nsub)
    substeps = np.full(nsamples - 1, nsub, dtype=np.int64)

    # curvature at the Gauss nodes of every substep, vectorized
    starts = (ts[:-1][:, None] + hs[:, None] * np.arange(nsub)[None, :]).ravel()
    node_ts = np.empty((len(starts), 2))
    node_ts[:, 0] = starts + _kernel.GAUSS_C1 * np.repeat(hs, nsub)
    node_ts[:, 1] = starts + _kernel.GAUSS_C2 * np.repeat(hs, nsub)
    node_vals = np.empty((len(starts), 2, 4))
    for j, e in enumerate(quartet):
        vals = vectorized(e)(node_ts)
        if not np.all(np.isfinite(vals)):
            bad = np.argwhere(~np.isfinite(vals))[0]
            t_bad = float(node_ts[bad[0], bad[1]])
            eval_expr(e, t_bad)  # raises a located ExprDomainError if genuine
            raise NumericError(
                f"curvature function {j} not finite at t={t_bad!r}")
        node_vals[:, :, j] = vals

    frames, corrections, max_raw, max_final, worst = _kernel.propagate(
        node_vals, hs, substeps, initial.matrix(), tol.frame / 10.0)
    worst_t = float(ts[(worst + 1) // nsub])
    if max_final > tol.frame:
        raise IntegrationFailureError(
            f"frame drift {max_final:.3e} survives re-orthonormalization "
            f"near t={worst_t!r}", worst_t=worst_t)
    stats = (int(corrections), float(max_raw), float(max_final), worst_t)
    return FramedCurveModel(quartet, ts, frames, initial, step, stats, tol)


# ---------------------------------------------------------------------------
# Congruence


def congruence_residual(model_a: FramedCurveModel, model_b: FramedCurveModel,
                        motion) -> float:
    """max componentwise distance between the moved model A and model B.

    Compares (R gamma_A, R v1_A, R v2_A) against (gamma_B, v1_B, v2_B) on
    the shared grid; `motion` must be Lorentz (R^T G R = G within 1e-10).
    Translations are not accepted: a curve constrained to the quadric
    admits none.
    """
    motion = np.asarray(motion, dtype=float)
    if motion.shape != (4, 4):
        raise InvalidInputError("motion must be a 4x4 matrix")
    if np.abs(motion.T @ METRIC @ motion - METRIC).max() > 1e-10:
        raise InvalidInputError("motion is not in the Lorentz group (A^T G A != G)")
    if len(model_a.ts) != len(model_b.ts) or np.abs(model_a.ts - model_b.ts).max() > 1e-12:
        raise InvalidInputError("models must be sampled on the same t grid")
    moved = np.einsum("ij,skj->ski", motion, model_a.frames[:, :3, :])
    return float(np.abs(moved - model_b.frames[:, :3, :]).max())
