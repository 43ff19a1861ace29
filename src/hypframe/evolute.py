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

from .focal import (D, H, Side, SingularityType, SingularPointRecord, SurfaceParam, _batch,
                    _by_epsilon, _columns, _decide, _eps_columns, _eps_values, _fiber, _finite,
                    _point, _raise_rows, _replayed, _rule, _scale, _undefined_at,
                    defined_runs, focal_d_point, focal_h_point)
from .framedcurve import FramedCurveModel
from .minkowski import MinkVec
from .symexpr import _fun_cols, eval_expr  # eval_expr: perfbench's tracer wraps it here

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


# regular point iff epsilon != 0, (2,3,4)-cusp iff epsilon = 0 and epsilon' != 0
_point_type = _by_epsilon((EvolutePointType.REGULAR_POINT, EvolutePointType.CUSP_234,
                           EvolutePointType.DEGENERATE_UNCLASSIFIED))
# cuspidal edge iff epsilon != 0, cuspidal cross cap iff epsilon = 0 and epsilon' != 0
_dual_type = _by_epsilon((SingularityType.CUSPIDAL_EDGE, SingularityType.CUSPIDAL_CROSS_CAP,
                          SingularityType.DEGENERATE_UNCLASSIFIED))


def _evolute_columns(side: Side, model, ts, frames) -> tuple:
    """The evolute at each of the array ts against its (m, 4, 4) Frenet
    frames: the (m, 4) rows of E and its three derivatives, (eps, eps1,
    fallback) of _eps_columns, and the checks of the evolute's own
    evaluations, which follow its definedness rule, in order."""
    program = side.frenet(model).evolute_program
    coeffs = model.program_columns(program, ts)
    # a stacked matmul rounds each row as the one-sample product does
    vecs = [(np.hstack(coeffs[k:k + 4])[:, None, :] @ frames)[:, 0] for k in range(0, 16, 4)]
    *eps, closed = _eps_columns(side, model, ts)
    return vecs, eps, [_replayed(program, coeffs), _finite(*vecs), closed]


def _samples(side: Side, model, ts) -> tuple:
    """(data, vecs, (eps, eps1, fallback), types): the FrenetData columns, the
    columns of _evolute_columns and the point types of the side's evolute at
    the ts, raising at the first row where evolute_h / evolute_d raise."""
    frames, data, _, suspect = _columns(side, model, ts)
    with np.errstate(all="ignore"):
        vecs, (eps, eps1, fallback), checks = _evolute_columns(side, model, data.t[:, 0], frames)
        types = _point_type(eps, eps1, _scale(data), model.tol.sing)
    _raise_rows(model, data, suspect, [_rule(side, model, data, True), *checks])
    return data, vecs, (eps, eps1, fallback), types


def _sample(side: Side, model, t) -> EvoluteSample:
    """The EvoluteSample at t: row 0 of a length-1 batch of _samples."""
    data, vecs, (eps, eps1, fallback), types = _samples(side, model, [t])
    sv = np.linalg.svd(np.array([vecs[2][0], vecs[3][0]]), compute_uv=False)
    diag = {"sigma_f": data.row(0).sigma_f, "rank23_singular_values": tuple(sv.tolist())}
    if fallback[0]:
        diag["epsilon_via_closed_form"] = True
    return EvoluteSample(t, *(MinkVec.from_array(v[0]) for v in vecs), types[0, 0],
                         float(eps[0, 0]), float(eps1[0, 0]), diag)


def evolute_h(model: FramedCurveModel, t: float) -> EvoluteSample:
    """(A^2 N gamma - M A N n1 + W n2) / sqrt(sigma_F), on H3 (sigma_F > 0)."""
    return _sample(H, model, t)


def evolute_d(model: FramedCurveModel, t: float) -> EvoluteSample:
    """(A^2 N gamma - M A N n1 + W n2) / sqrt(-sigma_F), on S31 (sigma_F < 0)."""
    return _sample(D, model, t)


# ---------------------------------------------------------------------------
# Dual surfaces of the evolutes
#
# The dual of the evolute is c mu + s (-M gamma + A n1) / sqrt(disc) over
# the side's dual fiber pair (c, s), for which c' = -kappa s.


def _lam_dual(side: Side, data, s):
    """lambda of the dual of the evolute at the dual fiber values s, per row
    of FrenetData columns."""
    return side.kappa * s * np.sqrt(side.kappa * data.sigma_f) / side.columns(data)[0]


def _lambda_dual(side: Side, model, t, theta) -> float:
    data = _batch(side, model, [t], evolute=True)[1]
    return float(_lam_dual(side, data, _fiber(side, [theta], dual=True)[1][:, None])[0, 0])


def dual_of_evolute_h(model: FramedCurveModel, t: float, theta: float) -> MinkVec:
    """cos(theta) mu + sin(theta) (-M gamma + A n1)/sqrt(A^2-M^2), in S31."""
    return _point(H, model, t, theta, dual=True)


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


def lambda_dual_d(model: FramedCurveModel, t: float, theta: float) -> float:
    """-sinh(theta) sqrt(-sigma_F) / (M^2 - A^2); zero set theta = 0."""
    return _lambda_dual(D, model, t, theta)


def _classify_dual(model, t0, side: Side, theta0):
    """classify_dual_h/_d on the side, as one batch."""
    one = not np.ndim(t0)
    tl = [t0] if one else np.asarray(t0, dtype=float).tolist()
    thetas = [theta0] if one else np.broadcast_to(theta0, len(tl)).tolist()
    _, data, _, suspect = _columns(side, model, tl, frames=False)
    program = side.frenet(model).eps_closed_program
    eps, eps1 = model.program_columns(program, data.t[:, 0])
    _raise_rows(model, data, suspect, [_rule(side, model, data, True),
                                       _replayed(program, (eps, eps1))])
    s = _fiber(side, thetas, dual=True)[1][:, None]
    with np.errstate(all="ignore"):
        scale = _scale(data)
        cols = (_lam_dual(side, data, s), data.sigma_f,
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


# The singular correspondences of the paper, each the agreement of two
# (position, type) tests over the (focal, evolute, dual) types of a point;
# an epsilon crossing reports the two of _EVENT_KEYS under its own keys
_CORRESPONDENCES = {
    "focal_ce_iff_evolute_regular": ((0, SingularityType.CUSPIDAL_EDGE),
                                     (1, EvolutePointType.REGULAR_POINT)),
    "focal_sw_iff_evolute_cusp": ((0, SingularityType.SWALLOWTAIL), (1, EvolutePointType.CUSP_234)),
    "dual_ce_iff_evolute_regular": ((2, SingularityType.CUSPIDAL_EDGE),
                                    (1, EvolutePointType.REGULAR_POINT)),
    "dual_ccr_iff_evolute_cusp": ((2, SingularityType.CUSPIDAL_CROSS_CAP),
                                  (1, EvolutePointType.CUSP_234)),
    "focal_sw_iff_dual_ccr": ((0, SingularityType.SWALLOWTAIL),
                              (2, SingularityType.CUSPIDAL_CROSS_CAP)),
}
_EVENT_KEYS = {"sw_iff_cusp": "focal_sw_iff_evolute_cusp", "sw_iff_ccr": "focal_sw_iff_dual_ccr"}


def _agreements(*types) -> dict:
    """Each name of _CORRESPONDENCES -> whether its tests agree on the types."""
    return {name: (types[i] is a) == (types[j] is b)
            for name, ((i, a), (j, b)) in _CORRESPONDENCES.items()}


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
    """The correspondence on the singular curve at each of the array ts, as
    columns: per row, the focal, evolute and dual types, epsilon and the
    distance from the focal point to the evolute point.  A flagged row
    raises through _raise_rows what the per-point queries raised there:
    the focal record, the evolute's rule, the root theta, the rest of the
    evolute sample, the focal point and the dual record, in that order."""
    frames, data, _, suspect = _columns(side, model, ts)
    tol, closed = model.tol.sing, side.frenet(model).eps_closed_program
    with np.errstate(all="ignore"):
        theta = _each(side.root, data.W, side.columns(data)[1])
        cs, sn = _fun_cols(side.c, theta), _fun_cols(side.s, theta)
        (e, *_), (eps, eps1, fallback), checks = _evolute_columns(side, model, ts, frames)
        dual_eps = model.program_columns(closed, ts)
        p = focal_point(model, ts, theta[:, 0])
        dist = p - e
        focal, b, s, _ = _decide(side, data, cs, sn, eps, eps1, tol)
        point, dual = _point_type(eps, eps1, s, tol), _dual_type(*dual_eps, s, tol)
    _raise_rows(model, data, suspect, [
        _rule(side, model, data), _replayed(closed, (eps, eps1), fallback & ~b[:, 0]),
        _rule(side, model, data, True),
        (lambda row, i: side.root(row.W, side.columns(row)[1]), ~np.isfinite(theta[:, 0])),
        *checks, _finite(p, dist), _replayed(closed, dual_eps)])
    types = zip(focal[:, 0].tolist(), point[:, 0].tolist(), dual[:, 0].tolist())
    return list(types), eps[:, 0].tolist(), np.abs(dist).max(axis=1).tolist()


def _leg(model, ts, runs, side: Side, focal_point) -> LegReport:
    """Correspondence checks on one side, over the index runs of ts where
    its evolute is defined, and at each epsilon crossing, as columns
    (_leg_columns); focal_point is that side's public focal point function,
    passed in so that a rebound module attribute (a profiler's wrapper) is
    called."""
    if not runs:
        reason = _undefined_at(model, float(ts[-1]), side, evolute=True) if len(ts) else None
        return LegReport(status="skipped",
                         reason=reason or "evolute undefined on the whole grid")

    leg = LegReport(status="checked", points=sum(map(len, runs)))
    agreements, max_dist, eps = {}, 0.0, {}  # eps: grid index -> epsilon
    index = list(chain.from_iterable(runs))
    for i, (focal, point, dual), e, dist in zip(index, *_leg_columns(model, ts[index], side,
                                                                    focal_point)):
        max_dist = max(max_dist, dist)
        for name, ok in _agreements(focal, point, dual).items():
            agreements[name] = agreements.get(name, True) and ok
            if not ok:
                leg.failures.append({"t": float(ts[i]), "check": name, "focal": focal.value,
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
    crossing_ts.sort()
    for t_star, (focal, point, dual), _, dist in zip(crossing_ts, *_leg_columns(
            model, np.array(crossing_ts), side, focal_point) if crossing_ts else ()):
        max_dist = max(max_dist, dist)
        checks = _agreements(focal, point, dual)
        leg.events.append({"t": t_star, "focal_type": focal.value, "evolute_type": point.value,
                           "dual_type": dual.value,
                           **{key: checks[name] for key, name in _EVENT_KEYS.items()}})
        for name in _EVENT_KEYS.values():
            agreements[name] = agreements[name] and checks[name]

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
    # each side's public focal point, looked up per call (see _leg)
    return CorrespondenceReport(hyperbolic=_leg(model, ts, runs[H.evolute], H, focal_h_point),
                                desitter=_leg(model, ts, runs[D.evolute], D, focal_d_point))


__all__ = [
    "EvolutePointType", "EvoluteSample", "DualSurfaceRecord",
    "evolute_h", "evolute_d",
    "dual_of_evolute_h", "lambda_dual_h",
    "dual_of_evolute_d", "lambda_dual_d",
    "classify_dual_h", "classify_dual_d",
    "correspondence_check", "CorrespondenceReport", "LegReport",
]
