"""Evolutes of a hyperbolic framed curve, their dual surfaces, and the
singular-correspondence checks.

The hyperbolic evolute exists where sigma_F > 0, the de Sitter evolute
where sigma_F < 0 and M^2 > A^2; both are traced by the non-degenerate
singular values of the matching focal surface.  Their dual surfaces carry
the discriminants lambda_{E} whose zero sets are the theta = 0 (and pi)
fibers; cuspidal edge versus cuspidal cross cap there is decided by the
scalar epsilon and its derivative, computed along two independent code
paths (the differentiated theta branch and the closed quotient form).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EvoluteUndefinedError, FrameDegenerateError
from .focal import (D, H, Side, SingularityType, SingularPointRecord,
                    SurfaceParam, _eps_values, _scale, classify_d, classify_h,
                    focal_d_point, focal_h_point)
from .framedcurve import FramedCurveModel
from .minkowski import MinkVec
from .symexpr import eval_expr
from .tolerances import is_zero

DualSurfaceRecord = SingularPointRecord


class EvolutePointType(enum.Enum):
    REGULAR_POINT = "RegularPoint"
    CUSP_234 = "Cusp234"
    DEGENERATE_UNCLASSIFIED = "DegenerateUnclassified"


@dataclass
class EvoluteSample:
    """Evolute point with derivatives and the epsilon regularity data."""

    t: float
    point: MinkVec
    derivative1: MinkVec
    derivative2: MinkVec
    derivative3: MinkVec
    point_type: EvolutePointType
    epsilon: float
    epsilon_prime: float
    diagnostics: dict = field(default_factory=dict)


def _sigma_scale(data):
    return (data.A * data.N) ** 2 * abs(data.disc_h) + data.W ** 2


def _require_evolute(side: Side, data, model) -> float:
    """The side's discriminant; raises where its evolute is undefined
    (kappa sigma_F not positive, or the focal discriminant not positive)."""
    if side.kappa * data.sigma_f <= model.tol.sing * (1.0 + _sigma_scale(data)):
        raise EvoluteUndefinedError(
            f"sigma_F = {data.sigma_f!r} at t={data.t!r} is not {side.sigma_text}: "
            f"{side.label} evolute undefined")
    disc = side.columns(data)[0]
    if disc <= model.tol.zero:
        raise EvoluteUndefinedError(
            f"{side.disc_text} = {disc!r} at t={data.t!r}: "
            f"{side.label} evolute undefined")
    return disc


def _evolute_sample(model, t, side: Side) -> EvoluteSample:
    data = model.frenet_data_at(t)
    _require_evolute(side, data, model)
    f = model.frenet_frame_at(t)
    coeffs = eval_expr(side.evolute_program(model.frenet), t)
    vecs = [MinkVec.from_array(np.array(coeffs[k:k + 4]) @ f) for k in range(0, 16, 4)]
    eps, eps1, fallback = _eps_values(model, t, side)
    s = _scale(data)
    if not is_zero(eps, s, model.tol.sing):
        ptype = EvolutePointType.REGULAR_POINT
    elif not is_zero(eps1, s, model.tol.sing):
        ptype = EvolutePointType.CUSP_234
    else:
        ptype = EvolutePointType.DEGENERATE_UNCLASSIFIED
    d2, d3 = vecs[2].as_array(), vecs[3].as_array()
    sv = np.linalg.svd(np.array([d2, d3]), compute_uv=False)
    diag = {"sigma_f": data.sigma_f, "rank23_singular_values": (float(sv[0]), float(sv[1]))}
    if fallback:
        diag["epsilon_via_closed_form"] = True
    return EvoluteSample(t=t, point=vecs[0], derivative1=vecs[1],
                         derivative2=vecs[2], derivative3=vecs[3],
                         point_type=ptype, epsilon=eps, epsilon_prime=eps1,
                         diagnostics=diag)


def evolute_h(model: FramedCurveModel, t: float) -> EvoluteSample:
    """(A^2 N gamma - M A N n1 + W n2) / sqrt(sigma_F), on H3 (sigma_F > 0)."""
    return _evolute_sample(model, t, H)


def evolute_d(model: FramedCurveModel, t: float) -> EvoluteSample:
    """(A^2 N gamma - M A N n1 + W n2) / sqrt(-sigma_F), on S31 (sigma_F < 0)."""
    return _evolute_sample(model, t, D)


# ---------------------------------------------------------------------------
# Dual surfaces of the evolutes
#
# The dual of the evolute is c mu + s (-M gamma + A n1) / sqrt(disc) over
# the side's dual fiber pair (c, s), for which c' = -kappa s.


def _dual_point(side: Side, model, t, theta) -> MinkVec:
    data = model.frenet_data_at(t)
    disc = _require_evolute(side, data, model)
    f = model.frenet_frame_at(t)
    r = math.sqrt(disc)
    row = side.dual_c(theta) * f[3] \
        + (side.dual_s(theta) / r) * (-data.M * f[0] + data.A * f[1])
    return MinkVec.from_array(row)


def _dual_partials(side: Side, model, t, theta):
    data = model.frenet_data_at(t)
    disc = _require_evolute(side, data, model)
    f = model.frenet_frame_at(t)
    r = math.sqrt(disc)
    k, c, s = side.kappa, side.dual_c(theta), side.dual_s(theta)
    ft = (c * data.M + k * s * data.A * data.W / r ** 3) * f[0] \
        + (-c * data.A - k * s * data.M * data.W / r ** 3) * f[1] \
        + (s * data.A * data.N / r) * f[2] \
        + (k * s * r) * f[3]
    fth = (c / r) * (-data.M * f[0] + data.A * f[1]) - k * s * f[3]
    return MinkVec.from_array(ft), MinkVec.from_array(fth)


def _lambda_dual(side: Side, model, t, theta) -> float:
    data = model.frenet_data_at(t)
    disc = _require_evolute(side, data, model)
    return side.kappa * side.dual_s(theta) * math.sqrt(side.kappa * data.sigma_f) / disc


def dual_of_evolute_h(model: FramedCurveModel, t: float, theta: float) -> MinkVec:
    """cos(theta) mu + sin(theta) (-M gamma + A n1)/sqrt(A^2-M^2), in S31."""
    return _dual_point(H, model, t, theta)


def dual_of_evolute_h_partials(model, t, theta):
    return _dual_partials(H, model, t, theta)


def lambda_dual_h(model: FramedCurveModel, t: float, theta: float) -> float:
    """sin(theta) sqrt(sigma_F) / (A^2 - M^2); zero set theta in {0, pi}.

    This is det(F, F_t, F_theta, E) in the det=+1 frame orientation used
    throughout; the sign is fixed by the determinant identity, which the
    three sibling discriminants also satisfy in this orientation.
    """
    return _lambda_dual(H, model, t, theta)


def dual_of_evolute_d(model: FramedCurveModel, t: float, theta: float) -> MinkVec:
    """cosh(theta) mu + sinh(theta) (-M gamma + A n1)/sqrt(M^2-A^2), in S31."""
    return _dual_point(D, model, t, theta)


def dual_of_evolute_d_partials(model, t, theta):
    return _dual_partials(D, model, t, theta)


def lambda_dual_d(model: FramedCurveModel, t: float, theta: float) -> float:
    """-sinh(theta) sqrt(-sigma_F) / (M^2 - A^2); zero set theta = 0."""
    return _lambda_dual(D, model, t, theta)


def _classify_dual(model, t0, side: Side, theta0) -> DualSurfaceRecord:
    data = model.frenet_data_at(t0)
    _require_evolute(side, data, model)
    lam = _lambda_dual(side, model, t0, theta0)
    eps, eps1 = eval_expr(side.eps_closed(model.frenet), t0)
    s = _scale(data)
    if not is_zero(eps, s, model.tol.sing):
        ty = SingularityType.CUSPIDAL_EDGE
    elif not is_zero(eps1, s, model.tol.sing):
        ty = SingularityType.CUSPIDAL_CROSS_CAP
    else:
        ty = SingularityType.DEGENERATE_UNCLASSIFIED
    return DualSurfaceRecord(
        surface=side.dual, param=SurfaceParam(t0, theta0), lam=lam,
        sigma_f=data.sigma_f, type=ty, nondegenerate=True,
        diagnostics={"epsilon": eps, "epsilon_prime": eps1, "scale": s})


def classify_dual_h(model: FramedCurveModel, t0: float,
                    theta0: float = 0.0) -> DualSurfaceRecord:
    """Classify the dual of the hyperbolic evolute on its singular fiber.

    The singular set is {sin(theta) = 0}; the record is reported at
    theta0 = 0 by default (the theta0 = pi point carries the same type).
    Cuspidal edge iff epsilon != 0, cuspidal cross cap iff epsilon = 0
    and epsilon' != 0, with epsilon in its closed quotient form.
    """
    return _classify_dual(model, t0, H, theta0)


def classify_dual_d(model: FramedCurveModel, t0: float,
                    theta0: float = 0.0) -> DualSurfaceRecord:
    """De Sitter analogue of classify_dual_h; singular set is theta = 0."""
    return _classify_dual(model, t0, D, theta0)


def psi_probe(model: FramedCurveModel, t0: float, side: str = "h",
              delta: float = 1e-3, count: int = 4) -> dict:
    """Limit-based cross check of the cross-cap test on a deleted neighborhood.

    Samples psi = -epsilon^2 / |epsilon| = -|epsilon| on both sides of t0
    and reports the one-sided values and slopes; psi tends to zero exactly
    when epsilon does, with slope magnitude |epsilon'|.  side is "h" or "d".
    """
    side = {"h": H, "d": D}[side]
    left = [t0 - delta * (j + 1) / count for j in range(count)]
    right = [t0 + delta * (j + 1) / count for j in range(count)]

    def psi(t):
        eps = _eps_values(model, t, side)[0]
        return -abs(eps)

    psi_l = [psi(t) for t in left]
    psi_r = [psi(t) for t in right]
    eps0, eps10, _ = _eps_values(model, t0, side)
    data = model.frenet_data_at(t0)
    h = delta / count
    return {
        "t0": t0,
        "psi_left": psi_l,
        "psi_right": psi_r,
        "slope_left": (psi_l[0] - psi_l[1]) / h,
        "slope_right": (psi_r[1] - psi_r[0]) / h,
        "epsilon_at_t0": eps0,
        "epsilon_prime_at_t0": eps10,
        "vanishes_at_t0": is_zero(eps0, _scale(data), model.tol.sing),
    }


# ---------------------------------------------------------------------------
# Correspondence report


@dataclass
class LegReport:
    status: str                      # "checked" or "skipped"
    reason: str | None = None
    points: int = 0
    max_image_distance: float | None = None
    agreements: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    events: list = field(default_factory=list)


@dataclass
class CorrespondenceReport:
    hyperbolic: LegReport
    desitter: LegReport

    def all_agree(self) -> bool:
        out = True
        for leg in (self.hyperbolic, self.desitter):
            if leg.status == "checked":
                out = out and all(leg.agreements.values())
        return out


def _bisect_eps_zero(model, side, ta, tb, ea, eb, iters=80):
    for _ in range(iters):
        tm = 0.5 * (ta + tb)
        em = _eps_values(model, tm, side)[0]
        if em == 0.0:
            return tm
        if (ea < 0) != (em < 0):
            tb, eb = tm, em
        else:
            ta, ea = tm, em
        if tb - ta <= 1e-14 * max(1.0, abs(ta), abs(tb)):
            break
    return 0.5 * (ta + tb)


def _leg(model, ts, side: Side, bindings) -> LegReport:
    """Correspondence checks on one side; bindings are that side's public
    (focal point, classify, evolute, classify_dual) functions, passed in
    so that a rebound module attribute (a profiler's wrapper) is called."""
    focal_point, classify, evolute, classify_dual = bindings
    usable = []  # (grid index, t)
    skip_reason = None
    for i, t in enumerate(ts):
        t = float(t)
        try:
            _require_evolute(side, model.frenet_data_at(t), model)
        except (FrameDegenerateError, EvoluteUndefinedError) as exc:
            skip_reason = str(exc)
            continue
        usable.append((i, t))
    if not usable:
        return LegReport(status="skipped",
                         reason=skip_reason or "evolute undefined on the whole grid")

    def at(t):
        """Focal record, evolute sample, dual record and the distance from
        the focal point to the evolute point, on the singular curve at t."""
        data = model.frenet_data_at(t)
        theta = side.root(data.W, side.columns(data)[1])
        rec = SingularPointRecord(surface=side.focal, param=SurfaceParam(t, theta),
                                  lam=0.0, sigma_f=data.sigma_f)
        classify(model, rec)
        es = evolute(model, t)
        dist = (focal_point(model, t, theta) - es.point).max_abs()
        return rec, es, classify_dual(model, t), dist

    leg = LegReport(status="checked", points=len(usable))
    agreements = {}
    max_dist = 0.0
    eps_trace = []
    for i, t in usable:
        rec, es, dual, dist = at(t)
        max_dist = max(max_dist, dist)
        regular = es.point_type is EvolutePointType.REGULAR_POINT
        cusp = es.point_type is EvolutePointType.CUSP_234
        checks = {
            "focal_ce_iff_evolute_regular":
                (rec.type is SingularityType.CUSPIDAL_EDGE) == regular,
            "focal_sw_iff_evolute_cusp":
                (rec.type is SingularityType.SWALLOWTAIL) == cusp,
            "dual_ce_iff_evolute_regular":
                (dual.type is SingularityType.CUSPIDAL_EDGE) == regular,
            "dual_ccr_iff_evolute_cusp":
                (dual.type is SingularityType.CUSPIDAL_CROSS_CAP) == cusp,
            "focal_sw_iff_dual_ccr":
                (rec.type is SingularityType.SWALLOWTAIL)
                == (dual.type is SingularityType.CUSPIDAL_CROSS_CAP),
        }
        for name, ok in checks.items():
            agreements[name] = agreements.get(name, True) and ok
            if not ok:
                leg.failures.append({"t": t, "check": name,
                                     "focal": rec.type.value,
                                     "evolute": es.point_type.value,
                                     "dual": dual.type.value})
        eps_trace.append((i, t, es.epsilon))

    # epsilon sign changes between grid neighbours of one defined run:
    # locate the crossing and classify there
    crossing_ts = [t for _, t, e in eps_trace if e == 0.0]
    for (ia, ta, ea), (ib, tb, eb) in zip(eps_trace, eps_trace[1:]):
        if ib != ia + 1 or ea == 0.0 or eb == 0.0 or (ea < 0) == (eb < 0):
            continue
        crossing_ts.append(_bisect_eps_zero(model, side, ta, tb, ea, eb))
    for t_star in sorted(crossing_ts):
        rec, es, dual, dist = at(t_star)
        max_dist = max(max_dist, dist)
        event = {
            "t": t_star,
            "focal_type": rec.type.value,
            "evolute_type": es.point_type.value,
            "dual_type": dual.type.value,
            "sw_iff_cusp": (rec.type is SingularityType.SWALLOWTAIL)
                           == (es.point_type is EvolutePointType.CUSP_234),
            "sw_iff_ccr": (rec.type is SingularityType.SWALLOWTAIL)
                          == (dual.type is SingularityType.CUSPIDAL_CROSS_CAP),
        }
        leg.events.append(event)
        if not event["sw_iff_cusp"]:
            agreements["focal_sw_iff_evolute_cusp"] = False
        if not event["sw_iff_ccr"]:
            agreements["focal_sw_iff_dual_ccr"] = False

    leg.agreements = agreements
    leg.max_image_distance = max_dist
    return leg


def correspondence_check(model: FramedCurveModel, ts=None) -> CorrespondenceReport:
    """Certify the singular correspondences between the focal surfaces,
    the evolutes, and the dual surfaces of the evolutes.

    Per grid point on each defined leg: image-coincidence distance between
    the focal surface along its singular curve and the evolute, and the
    type agreements (cuspidal edge <-> regular, swallowtail <-> cusp <->
    cuspidal cross cap).  Epsilon sign changes between grid neighbours
    are located by bisection and the three classifications compared at
    the crossing.  Undefined legs are reported as skipped with the reason.
    """
    if ts is None:
        ts = model.ts
    # each side's public bindings, looked up per call (see _leg)
    return CorrespondenceReport(
        hyperbolic=_leg(model, ts, H, (focal_h_point, classify_h, evolute_h,
                                       classify_dual_h)),
        desitter=_leg(model, ts, D, (focal_d_point, classify_d, evolute_d,
                                     classify_dual_d)))


__all__ = [
    "EvolutePointType", "EvoluteSample", "DualSurfaceRecord",
    "evolute_h", "evolute_d",
    "dual_of_evolute_h", "dual_of_evolute_h_partials", "lambda_dual_h",
    "dual_of_evolute_d", "dual_of_evolute_d_partials", "lambda_dual_d",
    "classify_dual_h", "classify_dual_d", "psi_probe",
    "correspondence_check", "CorrespondenceReport", "LegReport",
]
