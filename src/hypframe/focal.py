"""Focal surfaces of a hyperbolic framed curve and their singularities.

The hyperbolic focal surface lives in H3 over the parameter strip where
A^2 > M^2, the de Sitter one in S31 where M^2 > A^2.  Their discriminants
lambda vanish exactly on the singular loci, which are extracted per grid
point and classified by the explicit cuspidal-edge / swallowtail /
cuspidal-beaks criteria.  Every quantity a decision compared against
zero is exported in the record diagnostics.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, SurfaceUndefinedError
from .framedcurve import FramedCurveModel, FrenetData
from .minkowski import MinkVec
from .symexpr import ExprDomainError, eval_expr
from .tolerances import is_zero


class SingularityType(enum.Enum):
    REGULAR = "Regular"
    CUSPIDAL_EDGE = "CuspidalEdge"
    SWALLOWTAIL = "Swallowtail"
    CUSPIDAL_BEAKS = "CuspidalBeaks"
    CUSPIDAL_LIPS = "CuspidalLips"
    CUSPIDAL_CROSS_CAP = "CuspidalCrossCap"
    DEGENERATE_UNCLASSIFIED = "DegenerateUnclassified"


@dataclass(frozen=True)
class SurfaceParam:
    t: float
    theta: float


@dataclass
class SingularPointRecord:
    """A located singular point with its classification diagnostics."""

    surface: str
    param: SurfaceParam
    lam: float
    sigma_f: float
    type: SingularityType = SingularityType.DEGENERATE_UNCLASSIFIED
    nondegenerate: bool = False
    whole_fiber: bool = False
    diagnostics: dict = field(default_factory=dict)


def _scale(data: FrenetData) -> float:
    """Local magnitude entering every zero threshold at this t."""
    vals = [data.M, data.N, data.A, data.M1, data.N1, data.A1,
            data.W, data.W1, data.W2]
    for v in (data.Dh, data.Dh1, data.Dh2, data.Dd, data.Dd1, data.Dd2):
        if v is not None:
            vals.append(v)
    return max(abs(v) for v in vals)


def _require_h(data: FrenetData, model: FramedCurveModel) -> None:
    if data.disc_h <= model.tol.zero:
        raise SurfaceUndefinedError(
            f"A^2 - M^2 = {data.disc_h!r} at t={data.t!r}: "
            "hyperbolic focal surface undefined")


def _require_d(data: FrenetData, model: FramedCurveModel) -> None:
    if data.disc_d <= model.tol.zero:
        raise SurfaceUndefinedError(
            f"M^2 - A^2 = {data.disc_d!r} at t={data.t!r}: "
            "de Sitter focal surface undefined")


# ---------------------------------------------------------------------------
# Points, partials, discriminants


def focal_h_point(model: FramedCurveModel, t: float, theta: float) -> MinkVec:
    """cosh(theta)/sqrt(A^2-M^2) * (A gamma - M n1) + sinh(theta) n2, in H3."""
    data = model.frenet_data_at(t)
    _require_h(data, model)
    f = model.frenet_frame_at(t)
    r = math.sqrt(data.disc_h)
    row = (math.cosh(theta) / r) * (data.A * f[0] - data.M * f[1]) \
        + math.sinh(theta) * f[2]
    return MinkVec.from_array(row)


def focal_h_partials(model: FramedCurveModel, t: float, theta: float):
    """(dF/dt, dF/dtheta) of the hyperbolic focal surface, frame-exact."""
    data = model.frenet_data_at(t)
    _require_h(data, model)
    f = model.frenet_frame_at(t)
    r = math.sqrt(data.disc_h)
    ch, sh = math.cosh(theta), math.sinh(theta)
    ft = (-ch * data.M * data.W / r ** 3) * f[0] \
        + (ch * data.A * data.W / r ** 3 - sh * data.N) * f[1] \
        + (-ch * data.M * data.N / r) * f[2]
    fth = (sh * data.A / r) * f[0] + (-sh * data.M / r) * f[1] + ch * f[2]
    return MinkVec.from_array(ft), MinkVec.from_array(fth)


def focal_d_point(model: FramedCurveModel, t: float, theta: float) -> MinkVec:
    """cos(theta)/sqrt(M^2-A^2) * (A gamma - M n1) + sin(theta) n2, in S31."""
    data = model.frenet_data_at(t)
    _require_d(data, model)
    f = model.frenet_frame_at(t)
    r = math.sqrt(data.disc_d)
    row = (math.cos(theta) / r) * (data.A * f[0] - data.M * f[1]) \
        + math.sin(theta) * f[2]
    return MinkVec.from_array(row)


def focal_d_partials(model: FramedCurveModel, t: float, theta: float):
    data = model.frenet_data_at(t)
    _require_d(data, model)
    f = model.frenet_frame_at(t)
    r = math.sqrt(data.disc_d)
    co, si = math.cos(theta), math.sin(theta)
    ft = (co * data.M * data.W / r ** 3) * f[0] \
        + (-co * data.A * data.W / r ** 3 - si * data.N) * f[1] \
        + (-co * data.M * data.N / r) * f[2]
    fth = (-si * data.A / r) * f[0] + (si * data.M / r) * f[1] + co * f[2]
    return MinkVec.from_array(ft), MinkVec.from_array(fth)


def lambda_h(model: FramedCurveModel, t: float, theta: float) -> float:
    """[cosh(theta) W - sinh(theta) A N sqrt(A^2-M^2)] / (A^2-M^2)."""
    data = model.frenet_data_at(t)
    _require_h(data, model)
    return (math.cosh(theta) * data.W - math.sinh(theta) * data.Dh) / data.disc_h


def lambda_d(model: FramedCurveModel, t: float, theta: float) -> float:
    data = model.frenet_data_at(t)
    _require_d(data, model)
    return (math.cos(theta) * data.W - math.sin(theta) * data.Dd) / data.disc_d


def constraint_residuals(model: FramedCurveModel, t: float, point: MinkVec,
                         surface: str) -> dict:
    """Residuals of the defining constraint set, in original-frame coordinates.

    The focal point written as u1 gamma + u2 v1 + u3 v2 + u4 mu must have
    u4 = 0, m u1 + a u2 + b u3 = 0 and u1^2 - u2^2 - u3^2 = 1 (hyperbolic)
    or -u1^2 + u2^2 + u3^2 = 1 (de Sitter).
    """
    f = model.frame_at(t)
    p = point.as_array()
    u1 = -float(np.dot(p * np.array([-1.0, 1, 1, 1]), f[0]))
    u2 = float(np.dot(p * np.array([-1.0, 1, 1, 1]), f[1]))
    u3 = float(np.dot(p * np.array([-1.0, 1, 1, 1]), f[2]))
    u4 = float(np.dot(p * np.array([-1.0, 1, 1, 1]), f[3]))
    m, _, a, b = model.quartet.eval(t)
    if surface == "focal_h":
        quadric = u1 * u1 - u2 * u2 - u3 * u3 - 1.0
    elif surface == "focal_d":
        quadric = -u1 * u1 + u2 * u2 + u3 * u3 - 1.0
    else:
        raise InvalidInputError(f"unknown surface {surface!r}")
    return {"linear": m * u1 + a * u2 + b * u3, "quadric": quadric,
            "mu_component": u4}


# ---------------------------------------------------------------------------
# Singular loci


def _whole_fiber_records(model, data, surface, thetas):
    recs = []
    for theta in thetas:
        if surface == "focal_h":
            lam = (math.cosh(theta) * data.W - math.sinh(theta) * data.Dh) / data.disc_h
        else:
            lam = (math.cos(theta) * data.W - math.sin(theta) * data.Dd) / data.disc_d
        recs.append(SingularPointRecord(
            surface=surface, param=SurfaceParam(data.t, float(theta)),
            lam=lam, sigma_f=data.sigma_f, whole_fiber=True,
            diagnostics={"lambda_at_root": lam}))
    return recs


def singular_locus_h(model: FramedCurveModel, ts=None,
                     fiber_window=(-3.0, 3.0), fiber_count=13):
    """Singular points of the hyperbolic focal surface over the grid.

    Per grid t: a whole-fiber family when (W, Dh) vanishes, the unique
    root theta = artanh(W / Dh) when sigma_F > 0, nothing otherwise.
    """
    if ts is None:
        ts = model.ts
    records = []
    for t in ts:
        t = float(t)
        data = model.frenet_data_at(t)
        _require_h(data, model)
        s = _scale(data)
        if is_zero(data.W, s, model.tol.sing) and is_zero(data.Dh, s, model.tol.sing):
            thetas = np.linspace(fiber_window[0], fiber_window[1], fiber_count)
            records.extend(_whole_fiber_records(model, data, "focal_h", thetas))
            continue
        sigma_scale = abs(data.A * data.N) ** 2 * abs(data.disc_h) + data.W ** 2
        if data.sigma_f > model.tol.sing * (1.0 + sigma_scale):
            theta = math.atanh(data.W / data.Dh)
            lam = (math.cosh(theta) * data.W - math.sinh(theta) * data.Dh) / data.disc_h
            records.append(SingularPointRecord(
                surface="focal_h", param=SurfaceParam(t, theta),
                lam=lam, sigma_f=data.sigma_f,
                diagnostics={"lambda_at_root": lam, "sigma_f": data.sigma_f}))
    return records


def _circ_gap(x, y):
    d = abs(x - y) % (2.0 * math.pi)
    return min(d, 2.0 * math.pi - d)


def _norm_circle(x):
    """Reduce to [0, 2pi), snapping rounding-level wrap back to 0."""
    y = x % (2.0 * math.pi)
    if 2.0 * math.pi - y <= 1e-9:
        return 0.0
    return y


def singular_locus_d(model: FramedCurveModel, ts=None,
                     fiber_count=13, _depth=6):
    """Singular points of the de Sitter focal surface over the grid.

    The circle fiber always meets the singular set when (W, Dd) does not
    vanish: the two roots of tan(theta) = W / Dd, normalized to [0, 2pi).
    Neighboring roots jumping by more than pi/2 trigger grid refinement,
    keeping the reported branch continuous in t.
    """
    if ts is None:
        ts = model.ts
    entries = []
    for t in ts:
        t = float(t)
        data = model.frenet_data_at(t)
        _require_d(data, model)
        s = _scale(data)
        if is_zero(data.W, s, model.tol.sing) and is_zero(data.Dd, s, model.tol.sing):
            thetas = np.linspace(0.0, 2.0 * math.pi, fiber_count, endpoint=False)
            entries.append((t, None, data, thetas))
        else:
            theta = _norm_circle(math.atan2(data.W, data.Dd))
            entries.append((t, theta, data, None))

    # refine where the principal branch jumps
    refined = []
    for i, entry in enumerate(entries):
        refined.append(entry)
        if i + 1 >= len(entries):
            continue
        t_a, th_a = entry[0], entry[1]
        t_b, th_b = entries[i + 1][0], entries[i + 1][1]
        if th_a is None or th_b is None:
            continue
        depth = 0
        stack = [(t_a, th_a, t_b, th_b, depth)]
        while stack:
            ta, tha, tb, thb, depth = stack.pop()
            if _circ_gap(tha, thb) <= 0.5 * math.pi or depth >= _depth:
                continue
            tm = 0.5 * (ta + tb)
            data_m = model.frenet_data_at(tm)
            if data_m.disc_d <= model.tol.zero:
                continue  # the pair straddles a gap where the surface is undefined
            thm = _norm_circle(math.atan2(data_m.W, data_m.Dd))
            refined.append((tm, thm, data_m, None))
            stack.append((ta, tha, tm, thm, depth + 1))
            stack.append((tm, thm, tb, thb, depth + 1))
    refined.sort(key=lambda e: e[0])

    records = []
    for t, theta, data, fiber in refined:
        if fiber is not None:
            records.extend(_whole_fiber_records(model, data, "focal_d", fiber))
            continue
        for th in sorted((theta, _norm_circle(theta + math.pi))):
            lam = (math.cos(th) * data.W - math.sin(th) * data.Dd) / data.disc_d
            records.append(SingularPointRecord(
                surface="focal_d", param=SurfaceParam(t, th),
                lam=lam, sigma_f=data.sigma_f,
                diagnostics={"lambda_at_root": lam, "sigma_f": data.sigma_f}))
    return records


# ---------------------------------------------------------------------------
# Classification


def _eps_values(model, t, side):
    """(epsilon, epsilon') via the symbolically differentiated theta branch.

    Falls back to the algebraically equivalent closed form where the
    branch expression hits an exact pole (Dh or Dd exactly zero).
    """
    fe = model.frenet
    if side == "h":
        path, closed = fe.eps_h_path_program, fe.eps_h_closed_program
    else:
        path, closed = fe.eps_d_path_program, fe.eps_d_closed_program
    try:
        eps, eps1 = eval_expr(path, t)
        fallback = not (math.isfinite(eps) and math.isfinite(eps1))
    except ExprDomainError:
        fallback = True
    if fallback:
        eps, eps1 = eval_expr(closed, t)
    return eps, eps1, fallback


def _classify_generic(model, record, side) -> SingularityType:
    t0 = record.param.t
    theta0 = record.param.theta
    data = model.frenet_data_at(t0)
    if side == "h":
        _require_h(data, model)
        root = math.sqrt(data.disc_h)
        cs, sn = math.cosh(theta0), math.sinh(theta0)
        d1, d2 = data.Dh1, data.Dh2
        c3_sign = 1.0
        c2 = sn * data.W1 - cs * d1
    else:
        _require_d(data, model)
        root = math.sqrt(data.disc_d)
        cs, sn = math.cos(theta0), math.sin(theta0)
        d1, d2 = data.Dd1, data.Dd2
        c3_sign = -1.0
        c2 = sn * data.W1 + cs * d1
    s = _scale(data)
    tol = model.tol.sing
    diag = record.diagnostics
    diag["scale"] = s
    diag["W"] = data.W
    diag["N"] = data.N

    branch_a = not (is_zero(data.W, s, tol) and is_zero(data.N, s, tol))
    diag["branch"] = "a" if branch_a else "b"

    if branch_a:
        eps, eps1, fallback = _eps_values(model, t0, side)
        diag["epsilon"] = eps
        diag["epsilon_prime"] = eps1
        if fallback:
            diag["epsilon_via_closed_form"] = True
        eps_scale = s + abs(data.M * data.N / root)
        if not is_zero(eps, eps_scale, tol):
            return SingularityType.CUSPIDAL_EDGE
        if not is_zero(eps1, eps_scale, tol):
            return SingularityType.SWALLOWTAIL
        return SingularityType.DEGENERATE_UNCLASSIFIED

    c1 = cs * data.W1 - sn * d1
    c3 = (cs * data.W2 - sn * d2) * root \
        + c3_sign * 2.0 * data.M * data.N * c2
    diag["c1_nondegeneracy"] = c1
    diag["c2_mixed_derivative"] = c2
    diag["c3_second_order"] = c3
    if not is_zero(c1, s, tol):
        return SingularityType.CUSPIDAL_EDGE
    if not is_zero(c2, s, tol) and not is_zero(c3, s * (1 + root + abs(data.M * data.N)), tol):
        return SingularityType.CUSPIDAL_BEAKS
    return SingularityType.DEGENERATE_UNCLASSIFIED


def _finalize(model, record, side) -> SingularityType:
    ty = _classify_generic(model, record, side)
    record.type = ty
    data = model.frenet_data_at(record.param.t)
    theta0 = record.param.theta
    if side == "h":
        lam_t = (math.cosh(theta0) * data.W1 - math.sinh(theta0) * data.Dh1) / data.disc_h
        lam_th = (math.sinh(theta0) * data.W - math.cosh(theta0) * data.Dh) / data.disc_h
    else:
        lam_t = (math.cos(theta0) * data.W1 - math.sin(theta0) * data.Dd1) / data.disc_d
        lam_th = (-math.sin(theta0) * data.W - math.cos(theta0) * data.Dd) / data.disc_d
    record.diagnostics["lambda_t"] = lam_t
    record.diagnostics["lambda_theta"] = lam_th
    record.nondegenerate = not is_zero(
        max(abs(lam_t), abs(lam_th)), _scale(data), model.tol.sing)
    return ty


def classify_h(model: FramedCurveModel, record: SingularPointRecord) -> SingularityType:
    """Classify a singular point of the hyperbolic focal surface.

    Branch on (W, N)(t0) = (0,0) or not; branch (a) decides cuspidal edge
    versus swallowtail through theta'(t) - M N / sqrt(A^2 - M^2), branch
    (b) cuspidal edge versus cuspidal beaks through the derivative data of
    (W, Dh).  Cross caps and lips never occur on this surface.
    """
    return _finalize(model, record, "h")


def classify_d(model: FramedCurveModel, record: SingularPointRecord) -> SingularityType:
    """De Sitter analogue of classify_h (cos/sin in place of cosh/sinh)."""
    return _finalize(model, record, "d")


def classify_point(model: FramedCurveModel, surface: str, t: float,
                   theta: float) -> SingularPointRecord:
    """Convenience: build a record at (t, theta) and classify it.

    Returns a REGULAR-typed record when lambda is away from zero.
    """
    data = model.frenet_data_at(t)
    if surface == "focal_h":
        lam = lambda_h(model, t, theta)
    elif surface == "focal_d":
        lam = lambda_d(model, t, theta)
    else:
        raise InvalidInputError(f"unknown surface {surface!r}")
    rec = SingularPointRecord(surface=surface, param=SurfaceParam(t, theta),
                              lam=lam, sigma_f=data.sigma_f)
    if not is_zero(lam, _scale(data), model.tol.sing):
        rec.type = SingularityType.REGULAR
        rec.diagnostics["lambda"] = lam
        return rec
    if surface == "focal_h":
        classify_h(model, rec)
    else:
        classify_d(model, rec)
    return rec


# ---------------------------------------------------------------------------
# Grid evaluation


def surface_grid(model: FramedCurveModel, which: str, ts, thetas) -> np.ndarray:
    """Row-major grid of surface points, shape (len(ts), len(thetas), 4)."""
    if which == "focal_h":
        pointfn = focal_h_point
    elif which == "focal_d":
        pointfn = focal_d_point
    else:
        raise InvalidInputError(f"unknown surface {which!r}")
    ts = np.asarray(ts, dtype=float)
    thetas = np.asarray(thetas, dtype=float)
    out = np.empty((len(ts), len(thetas), 4))
    for i, t in enumerate(ts):
        for j, th in enumerate(thetas):
            try:
                out[i, j] = pointfn(model, float(t), float(th)).as_array()
            except SurfaceUndefinedError as exc:
                raise SurfaceUndefinedError(
                    f"grid point (i={i}, j={j}): {exc}") from exc
    return out
