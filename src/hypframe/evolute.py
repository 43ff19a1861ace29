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
from itertools import chain

import numpy as np

from .focal import (D, H, Side, SingularityType, SingularPointRecord, SurfaceParam,
                    _batch, _by_epsilon, _columns, _decide, _eps_values, _fiber, _partials,
                    _point, _require, _scale, _undefined_at,
                    classify_d, classify_h, defined_runs, focal_d_point, focal_h_point)
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


def _evolute_sample(model, t, side: Side) -> EvoluteSample:
    data = model.frenet_data_at(t)
    _require(side, data, model, evolute=True)
    f = model.frenet_frame_at(t)
    program = side.evolute_program(model.frenet)
    coeffs = model.grid_values(program, t) or eval_expr(program, t)
    vecs = [MinkVec.from_array(np.array(coeffs[k:k + 4]) @ f) for k in range(0, 16, 4)]
    eps, eps1, fallback = _eps_values(model, t, side)
    ptype = _point_type(eps, eps1, _scale(data), model.tol.sing)
    sv = np.linalg.svd(np.array([vecs[2].as_array(), vecs[3].as_array()]), compute_uv=False)
    diag = {"sigma_f": data.sigma_f, "rank23_singular_values": (float(sv[0]), float(sv[1]))}
    if fallback:
        diag["epsilon_via_closed_form"] = True
    return EvoluteSample(t=t, point=vecs[0], derivative1=vecs[1], derivative2=vecs[2],
                         derivative3=vecs[3], point_type=ptype, epsilon=eps,
                         epsilon_prime=eps1, diagnostics=diag)


# regular point iff epsilon != 0, (2,3,4)-cusp iff epsilon = 0 and epsilon' != 0
_point_type = _by_epsilon((EvolutePointType.REGULAR_POINT, EvolutePointType.CUSP_234,
                           EvolutePointType.DEGENERATE_UNCLASSIFIED))
# cuspidal edge iff epsilon != 0, cuspidal cross cap iff epsilon = 0 and epsilon' != 0
_dual_type = _by_epsilon((SingularityType.CUSPIDAL_EDGE, SingularityType.CUSPIDAL_CROSS_CAP,
                          SingularityType.DEGENERATE_UNCLASSIFIED))


def _evolute_columns(side: Side, model, ts, f) -> tuple:
    """_evolute_sample's evaluations at each of the array ts against the
    Frenet frames f (m, 4, 4): the (m, 4) rows of E, E', E'', E''', and
    the (m, 1) columns of epsilon and epsilon' along the theta branch."""
    coeffs = model.program_columns(side.evolute_program(model.frenet), ts)
    # a stacked matmul rounds each row as the one-sample product does
    vecs = [(np.hstack(coeffs[k:k + 4])[:, None, :] @ f)[:, 0] for k in range(0, 16, 4)]
    return vecs, model.program_columns(side.eps_path(model.frenet), ts)


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


def _lambda_dual(side: Side, model, t, theta) -> float:
    data = model.frenet_data_at(t)
    disc = _require(side, data, model, evolute=True)[0]
    return side.kappa * side.dual_s(theta) * math.sqrt(side.kappa * data.sigma_f) / disc


def dual_of_evolute_h(model: FramedCurveModel, t: float, theta: float) -> MinkVec:
    """cos(theta) mu + sin(theta) (-M gamma + A n1)/sqrt(A^2-M^2), in S31."""
    return _point(H, model, t, theta, dual=True)


def dual_of_evolute_h_partials(model, t, theta):
    return _partials(H, model, t, theta, dual=True)


def lambda_dual_h(model: FramedCurveModel, t: float, theta: float) -> float:
    """sin(theta) sqrt(sigma_F) / (A^2 - M^2); zero set theta in {0, pi}.

    This is det(F, F_t, F_theta, E) in the det=+1 frame orientation used
    throughout; the sign is fixed by the determinant identity, which the
    three sibling discriminants also satisfy in this orientation.
    """
    return _lambda_dual(H, model, t, theta)


def dual_of_evolute_d(model: FramedCurveModel, t: float, theta: float) -> MinkVec:
    """cosh(theta) mu + sinh(theta) (-M gamma + A n1)/sqrt(M^2-A^2), in S31."""
    return _point(D, model, t, theta, dual=True)


def dual_of_evolute_d_partials(model, t, theta):
    return _partials(D, model, t, theta, dual=True)


def lambda_dual_d(model: FramedCurveModel, t: float, theta: float) -> float:
    """-sinh(theta) sqrt(-sigma_F) / (M^2 - A^2); zero set theta = 0."""
    return _lambda_dual(D, model, t, theta)


def _classify_dual(model, t0, side: Side, theta0):
    """classify_dual_h/_d on the side; a non-finite closed epsilon replays eval_expr."""
    one = not np.ndim(t0)
    tl = [t0] if one else np.asarray(t0, dtype=float).tolist()
    thetas = [theta0] if one else np.broadcast_to(theta0, len(tl)).tolist()
    program = side.eps_closed(model.frenet)
    data, (eps, eps1) = _batch(side, model, tl, True, program,
                               lambda _, i: eval_expr(program, tl[i]))
    k, s = side.kappa, _fiber(side, thetas, dual=True)[1][:, None]
    with np.errstate(all="ignore"):
        scale = _scale(data)
        cols = (k * s * np.sqrt(k * data.sigma_f) / side.columns(data)[0], data.sigma_f,
                _dual_type(eps, eps1, scale, model.tol.sing), eps, eps1, scale)
    records = [DualSurfaceRecord(
        surface=side.dual, param=SurfaceParam(t, th), lam=lm, sigma_f=sg, type=ty,
        nondegenerate=True, diagnostics={"epsilon": e, "epsilon_prime": e1, "scale": sc})
        for t, th, (lm, sg, ty, e, e1, sc) in zip(tl, thetas, zip(*(
            c[:, 0].tolist() for c in cols)))]
    return records[0] if one else records


def classify_dual_h(model: FramedCurveModel, t0: float,
                    theta0: float = 0.0) -> DualSurfaceRecord:
    """Classify the dual of the hyperbolic evolute on its singular fiber.

    The singular set is {sin(theta) = 0}; the record is reported at
    theta0 = 0 by default (the theta0 = pi point carries the same type).
    Cuspidal edge iff epsilon != 0, cuspidal cross cap iff epsilon = 0 and
    epsilon' != 0, with epsilon in its closed quotient form.  An array t0
    (theta0 an array or a float) gives the list of records, as one batch.
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
    psi_l, psi_r = ([-abs(_eps_values(model, t, side)[0]) for t in ts] for ts in (left, right))
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
        return all(all(leg.agreements.values())
                   for leg in (self.hyperbolic, self.desitter) if leg.status == "checked")


BISECT_ITERS = 80


def _bisect_eps_zero(model, side, ta, tb, ea, eb):
    for _ in range(BISECT_ITERS):
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


def _each(fn, *cols) -> np.ndarray:
    """The (m, 1) column of fn over the rows of the (m, 1) columns, taken
    through the scalar function; NaN where it raises."""
    out = []
    for args in zip(*(np.ravel(c).tolist() for c in cols)):
        try:
            out.append(fn(*args))
        except (ArithmeticError, ValueError):
            out.append(math.nan)
    return np.array(out).reshape(-1, 1)


def _leg_columns(model, ts, side: Side, focal_point) -> tuple:
    """_leg's `at` at each of the grid points ts as columns: per row, the
    focal, evolute and dual types, epsilon, the image distance, and whether
    `at` must replay it, where a value is not finite or the evolute undefined."""
    frames, data, _, replay = _columns(side, model, ts, dual=True)
    tol = model.tol.sing
    with np.errstate(all="ignore"):
        theta = _each(side.root, data.W, side.columns(data)[1])
        cs, sn = _each(side.c, theta), _each(side.s, theta)
        (e, *vecs), (eps, eps1) = _evolute_columns(side, model, ts, frames)
        closed, closed1 = model.program_columns(side.eps_closed(model.frenet), ts)
        dist = focal_point(model, ts, theta[:, 0]) - e
        replay |= ~np.isfinite(np.hstack([theta, cs, sn, e, *vecs, eps, eps1, closed,
                                          closed1, dist])).all(axis=1)
        focal, _, s, _ = _decide(side, data, cs, sn, eps, eps1, tol)
        point, dual = _point_type(eps, eps1, s, tol), _dual_type(closed, closed1, s, tol)
    types = zip(focal[:, 0].tolist(), point[:, 0].tolist(), dual[:, 0].tolist())
    return list(types), eps[:, 0].tolist(), np.abs(dist).max(axis=1).tolist(), replay.tolist()


def _leg(model, ts, runs, side: Side, bindings) -> LegReport:
    """Correspondence checks on one side, over the index runs of ts where
    its evolute is defined; bindings are that side's public (focal point,
    classify, evolute, classify_dual) functions, passed in so that a
    rebound module attribute (a profiler's wrapper) is called.  The grid
    points are checked as columns (_leg_columns); each row it marks, and
    each epsilon crossing, is checked by `at`, one point at a time."""
    focal_point, classify, evolute, classify_dual = bindings
    if not runs:
        reason = _undefined_at(model, float(ts[-1]), side, evolute=True) if len(ts) else None
        return LegReport(status="skipped",
                         reason=reason or "evolute undefined on the whole grid")

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

    leg = LegReport(status="checked", points=sum(map(len, runs)))
    agreements, max_dist, eps = {}, 0.0, {}  # eps: grid index -> epsilon
    index = list(chain.from_iterable(runs))
    for i, types, e, dist, replay in zip(index, *_leg_columns(model, ts[index], side,
                                                             focal_point)):
        t = float(ts[i])
        if replay:
            rec, es, dual, dist = at(t)
            types, e = (rec.type, es.point_type, dual.type), es.epsilon
        focal, point, dual = types
        max_dist = max(max_dist, dist)
        regular = point is EvolutePointType.REGULAR_POINT
        cusp = point is EvolutePointType.CUSP_234
        checks = {
            "focal_ce_iff_evolute_regular":
                (focal is SingularityType.CUSPIDAL_EDGE) == regular,
            "focal_sw_iff_evolute_cusp":
                (focal is SingularityType.SWALLOWTAIL) == cusp,
            "dual_ce_iff_evolute_regular":
                (dual is SingularityType.CUSPIDAL_EDGE) == regular,
            "dual_ccr_iff_evolute_cusp":
                (dual is SingularityType.CUSPIDAL_CROSS_CAP) == cusp,
            "focal_sw_iff_dual_ccr":
                (focal is SingularityType.SWALLOWTAIL)
                == (dual is SingularityType.CUSPIDAL_CROSS_CAP),
        }
        for name, ok in checks.items():
            agreements[name] = agreements.get(name, True) and ok
            if not ok:
                leg.failures.append({"t": t, "check": name, "focal": focal.value,
                                     "evolute": point.value, "dual": dual.value})
        eps[i] = e

    # epsilon sign changes between grid neighbours of one defined run:
    # locate the crossing and classify there
    crossing_ts = [float(ts[i]) for i, e in eps.items() if e == 0.0]
    for run in runs:
        for ia, ib in zip(run, run[1:]):
            ea, eb = eps[ia], eps[ib]
            if ea != 0.0 and eb != 0.0 and (ea < 0) != (eb < 0):
                crossing_ts.append(_bisect_eps_zero(model, side, float(ts[ia]),
                                                    float(ts[ib]), ea, eb))
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


def correspondence_check(model: FramedCurveModel, runs=None) -> CorrespondenceReport:
    """Certify the singular correspondences between the focal surfaces,
    the evolutes, and the dual surfaces of the evolutes.

    Per grid point on each defined leg: image-coincidence distance between
    the focal surface along its singular curve and the evolute, and the
    type agreements (cuspidal edge <-> regular, swallowtail <-> cusp <->
    cuspidal cross cap).  Epsilon sign changes between grid neighbours of
    one defined run are located by bisection and the three classifications
    compared there.  Undefined legs are reported as skipped with the reason.
    `runs` are defined_runs(model), which runs here when they are not given.
    """
    if runs is None:
        runs = defined_runs(model)
    ts = model.ts
    # each side's public bindings, looked up per call (see _leg)
    return CorrespondenceReport(
        hyperbolic=_leg(model, ts, runs[H.evolute], H,
                        (focal_h_point, classify_h, evolute_h, classify_dual_h)),
        desitter=_leg(model, ts, runs[D.evolute], D,
                      (focal_d_point, classify_d, evolute_d, classify_dual_d)))


__all__ = [
    "EvolutePointType", "EvoluteSample", "DualSurfaceRecord",
    "evolute_h", "evolute_d",
    "dual_of_evolute_h", "dual_of_evolute_h_partials", "lambda_dual_h",
    "dual_of_evolute_d", "dual_of_evolute_d_partials", "lambda_dual_d",
    "classify_dual_h", "classify_dual_d", "psi_probe",
    "correspondence_check", "CorrespondenceReport", "LegReport",
]
