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
from collections import namedtuple
from typing import NamedTuple

import numpy as np

from .focal import (D, H, Side, _batch, _by_epsilon, _columns, _decide, _eps_columns, _fiber,
                    _finite, _point, _raise_rows, _replayed, _rule, _scale, _undefined_at,
                    defined_runs, focal_d_point, focal_h_point)
from .framedcurve import FramedCurveModel
from .loci import TYPES, LociTable, SingularityType, SingularPointRecord, _code, _MutableRecord
from .minkowski import MinkVec
from .symexpr import ExprDomainError, _fun_cols, eval_expr

DualSurfaceRecord = SingularPointRecord


class EvolutePointType(enum.Enum):
    REGULAR_POINT = "RegularPoint"
    CUSP_234 = "Cusp234"
    DEGENERATE_UNCLASSIFIED = "DegenerateUnclassified"


POINT_TYPES = tuple(EvolutePointType)  # a point type code indexes it


class EvoluteSample(namedtuple("EvoluteSample", "t point derivative1 point_type epsilon "
                                                "epsilon_prime diagnostics")):
    """Evolute point with its derivative and the epsilon regularity data."""

    __slots__ = ()

    def __new__(cls, t: float, point: MinkVec, derivative1: MinkVec,
                point_type: EvolutePointType, epsilon: float, epsilon_prime: float,
                diagnostics: dict | None = None):
        return tuple.__new__(cls, (t, point, derivative1, point_type, epsilon, epsilon_prime,
                                   {} if diagnostics is None else diagnostics))


# regular point iff epsilon != 0, (2,3,4)-cusp iff epsilon = 0 and epsilon' != 0
_point_type = _by_epsilon((EvolutePointType.REGULAR_POINT, EvolutePointType.CUSP_234,
                           EvolutePointType.DEGENERATE_UNCLASSIFIED))
# cuspidal edge iff epsilon != 0, cuspidal cross cap iff epsilon = 0 and epsilon' != 0
_dual_type = _by_epsilon((SingularityType.CUSPIDAL_EDGE, SingularityType.CUSPIDAL_CROSS_CAP,
                          SingularityType.DEGENERATE_UNCLASSIFIED))


def _evolute_columns(side: Side, model, ts, frames) -> tuple:
    """The evolute at each of the array ts against its (m, 4, 4) Frenet
    frames: the (m, 4) rows of E and E', (eps, eps1, fallback) of
    _eps_columns, and the checks of the evolute's own evaluations, which
    follow its definedness rule, in order."""
    program = side.frenet(model).evolute_program
    coeffs = model.program_columns(program, ts)
    # a stacked matmul rounds each row as the one-sample product does
    vecs = [(np.hstack(coeffs[k:k + 4])[:, None, :] @ frames)[:, 0] for k in (0, 4)]
    *eps, closed = _eps_columns(side, model, ts)
    return vecs, eps, [_replayed(program, coeffs), _finite(*vecs), closed]


def _samples(side: Side, model, ts) -> tuple:
    """(data, vecs, (eps, eps1, fallback), types): the FrenetData columns, the
    columns of _evolute_columns and the point type codes of the side's evolute at
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
    diag = {"sigma_f": data.row(0).sigma_f}
    if fallback[0]:
        diag["epsilon_via_closed_form"] = True
    return EvoluteSample(t, *(MinkVec.from_array(v[0]) for v in vecs), POINT_TYPES[types[0, 0]],
                         float(eps[0, 0]), float(eps1[0, 0]), diag)


def evolute_h(model: FramedCurveModel, t: float) -> EvoluteSample:
    """(A^2 N gamma - M A N n1 + W n2) / sqrt(sigma_F), on H3 (sigma_F > 0)."""
    return _sample(H, model, t)


def evolute_d(model: FramedCurveModel, t: float) -> EvoluteSample:
    """(A^2 N gamma - M A N n1 + W n2) / sqrt(-sigma_F), on S31 (sigma_F < 0)."""
    return _sample(D, model, t)


def evolute_rows(model: FramedCurveModel, runs) -> list:
    """(t, side, epsilon, epsilon', point type) at each grid point of the
    evolute runs (from defined_runs), in grid order, as evolute_h /
    evolute_d give them: read from the columns of a run at a time, which
    raise as those do."""
    rows = []
    for run, side in sorted(((run, side) for side in (H, D) for run in runs[side.evolute]),
                            key=lambda e: e[0].start):
        ts = model.ts[run.start:run.stop]
        _, _, (eps, eps1, _), types = _samples(side, model, ts)
        rows += [(t, side.evolute[-1], *row, POINT_TYPES[ty].value) for t, *row, ty in zip(
            ts.tolist(), *(c[:, 0].tolist() for c in (eps, eps1, types)))]
    return rows


# ---------------------------------------------------------------------------
# Dual surfaces of the evolutes
#
# The dual of the evolute is c mu + s (-M gamma + A n1) / sqrt(disc) over
# the side's dual fiber pair (c, s), for which c' = -kappa s.


def _lam_dual(side: Side, sigma_f, disc, s):
    """lambda of the dual of the evolute at the dual fiber values s, from
    sigma_F and the side's disc, per element."""
    return side.kappa * s * np.sqrt(side.kappa * sigma_f) / disc


def _lambda_dual(side: Side, model, t, theta) -> float:
    data = _batch(side, model, [t], evolute=True)[1]
    return float(_lam_dual(side, data.sigma_f, side.columns(data)[0],
                           _fiber(side, [theta], dual=True)[1][:, None])[0, 0])


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
    """classify_dual_h/_d on the side, as one batch: each column is read
    once per element of t0, and a row made per element of the broadcast of
    t0 and theta0, in row-major order."""
    t, theta = np.asarray(t0, dtype=float), np.asarray(theta0, dtype=float)
    _, data, _, suspect = _columns(side, model, t.ravel(), frames=False)
    program = side.frenet(model).eps_closed_program
    eps, eps1 = model.program_columns(program, data.t[:, 0])
    _raise_rows(model, data, suspect, [_rule(side, model, data, True),
                                       _replayed(program, (eps, eps1))])
    with np.errstate(all="ignore"):
        scale = _scale(data)
        cols = [c.reshape(t.shape) for c in (data.sigma_f, side.columns(data)[0], eps, eps1,
                                             scale, _dual_type(eps, eps1, scale, model.tol.sing))]
        lam = _lam_dual(side, *cols[:2], _fiber(side, theta, dual=True)[1])
    t, theta, sigma, _, eps, eps1, scale, kind = (np.broadcast_to(c, lam.shape).ravel()
                                                  for c in (t, theta, *cols))
    table = LociTable(side.dual, t, theta, lam.ravel(), sigma, np.zeros(len(t), dtype=bool))
    table.type, table.nondegenerate = kind, np.ones(len(t), dtype=bool)
    table.diagnostics = [(0, {"epsilon": eps, "epsilon_prime": eps1, "scale": scale})]
    return table if np.ndim(t0) else table[0]


def classify_dual_h(model: FramedCurveModel, t0: float,
                    theta0: float = 0.0) -> DualSurfaceRecord:
    """Classify the dual of the hyperbolic evolute on its singular fiber.

    The singular set is {sin(theta) = 0}; the record is reported at
    theta0 = 0 by default (the theta0 = pi point carries the same type).
    Cuspidal edge iff epsilon != 0, cuspidal cross cap iff epsilon = 0 and
    epsilon' != 0, with epsilon in its closed quotient form.  An array t0
    gives a loci table, as one batch, with a row per element of the
    broadcast of t0 and theta0: a column of t0 against a row of theta0
    makes the rows (t, theta) in t order, then theta order.
    """
    return _classify_dual(model, t0, H, theta0)


def classify_dual_d(model: FramedCurveModel, t0: float,
                    theta0: float = 0.0) -> DualSurfaceRecord:
    """De Sitter analogue of classify_dual_h; singular set is theta = 0."""
    return _classify_dual(model, t0, D, theta0)


# ---------------------------------------------------------------------------
# Correspondence report


class LegReport(_MutableRecord):
    """The correspondence checks of one side; _leg fills it in."""

    def __init__(self, status: str, reason: str | None = None, points: int = 0,
                 max_image_distance: float | None = None, agreements: dict | None = None,
                 failures: list | None = None, events: list | None = None):
        self.status = status  # "checked" or "skipped"
        self.reason, self.points, self.max_image_distance = reason, points, max_image_distance
        self.agreements = {} if agreements is None else agreements
        self.failures = [] if failures is None else failures
        self.events = [] if events is None else events


class CorrespondenceReport(NamedTuple):
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


def _agreements(types) -> dict:
    """Each name of _CORRESPONDENCES -> whether its tests agree, per row of
    the (focal, evolute, dual) type code columns."""
    return {name: (types[i] == _code(a)) == (types[j] == _code(b))
            for name, ((i, a), (j, b)) in _CORRESPONDENCES.items()}


def _type_values(types, k) -> tuple:
    """The (focal, evolute, dual) type values of row k of the code columns."""
    return TYPES[types[0][k]].value, POINT_TYPES[types[1][k]].value, TYPES[types[2][k]].value


BISECT_ITERS = 80
BISECT_DEPTH = 4  # the fewest levels of bisection midpoints that one replay evaluates
BISECT_ROWS = 255  # the midpoints of one replay, split over the live brackets


def _depth(live: int) -> int:
    """Levels of midpoints per bracket in a replay for `live` brackets: as
    many as fit BISECT_ROWS, and at least BISECT_DEPTH."""
    return max(BISECT_DEPTH, (BISECT_ROWS // live + 1).bit_length() - 1)


def _midpoints(ta, tb, depth) -> np.ndarray:
    """The midpoints 0.5 (a + b) of the first `depth` levels of bisection of
    [ta, tb], a level at a time."""
    edges, out = np.array([ta, tb]), []
    for _ in range(depth):
        out.append(0.5 * (edges[:-1] + edges[1:]))
        both = np.empty(2 * len(edges) - 1)  # the edges of the next level, in order
        both[::2], both[1::2] = edges, out[-1]
        edges = both
    return np.concatenate(out)


def _bisection(ta, tb, ea, eb, check):
    """Bisect an epsilon sign change on [ta, tb], as a generator: it yields
    the bracket whose next midpoints it needs and is sent {t: (epsilon,
    bad)} over them; check(t) raises where bad.  It returns the zero."""
    eps = {}
    for _ in range(BISECT_ITERS):
        tm = 0.5 * (ta + tb)
        if tm not in eps:
            eps = yield ta, tb
        em, bad = eps[tm]
        if bad:
            check(tm)
        if em == 0.0:
            return tm
        if (ea < 0) != (em < 0):
            tb, eb = tm, em
        else:
            ta, ea = tm, em
        if tb - ta <= 1e-14 * max(1.0, abs(ta), abs(tb)):
            break
    return 0.5 * (ta + tb)


def _eps_crossings(model, side: Side, brackets) -> list:
    """The zero of each bracket (ta, tb, eps(ta), eps(tb)) by _bisection,
    with one replay (_eps_columns) of the next _depth levels of midpoints of
    every bracket still bisected.  A midpoint reached raises the located
    error of the closed form there, the first bracket's first, as bisecting
    one bracket after another would."""
    closed = side.frenet(model).eps_closed_program
    runs = [_bisection(*b, lambda t: eval_expr(closed, t, name_t=True)) for b in brackets]
    asked, zeros, error = dict(enumerate(map(next, runs))), [None] * len(runs), None
    while asked:
        depth = _depth(len(asked))
        ts = np.concatenate([_midpoints(ta, tb, depth) for ta, tb in asked.values()])
        eps, _, _, (_, bad) = _eps_columns(side, model, ts)
        values = dict(zip(ts.tolist(), zip(eps[:, 0].tolist(), bad.tolist())))
        for k in list(asked):
            try:
                asked[k] = runs[k].send(values)
            except StopIteration as stop:
                zeros[k] = stop.value
                del asked[k]
            except ExprDomainError as exc:
                error, asked = exc, {j: asked[j] for j in asked if j < k}
                break  # a later bracket would raise after this one
    if error is not None:
        raise error
    return zeros


def _leg_columns(model, ts, side: Side, focal_point) -> tuple:
    """The correspondence on the singular curve at each of the array ts, as
    columns: the (focal, evolute, dual) type codes, epsilon and the distance
    from the focal point to the evolute point.  A flagged row raises
    through _raise_rows what the per-point queries raised there: the focal
    record, the evolute's rule, the rest of the evolute sample, the focal
    point and the dual record, in that order."""
    frames, data, _, suspect = _columns(side, model, ts)
    tol, closed = model.tol.sing, side.frenet(model).eps_closed_program
    with np.errstate(all="ignore"):
        theta = side.root(data.W, side.columns(data)[1])
        cs, sn = _fun_cols(side.c, theta), _fun_cols(side.s, theta)
        (e, _), (eps, eps1, fallback), checks = _evolute_columns(side, model, ts, frames)
        dual_eps = model.program_columns(closed, ts)
        p = focal_point(model, ts, theta[:, 0])
        dist = p - e
        focal, b, s, _ = _decide(side, data, cs, sn, eps, eps1, tol)
        point, dual = _point_type(eps, eps1, s, tol), _dual_type(*dual_eps, s, tol)
    _raise_rows(model, data, suspect, [
        _rule(side, model, data), _replayed(closed, (eps, eps1), fallback & ~b[:, 0]),
        _rule(side, model, data, True), *checks, _finite(p, dist), _replayed(closed, dual_eps)])
    return (focal[:, 0], point[:, 0], dual[:, 0]), eps[:, 0], np.abs(dist).max(axis=1)


def _leg(model, ts, runs, side: Side, focal_point) -> LegReport:
    """Correspondence checks on one side, over the index runs of ts where
    its evolute is defined, and at each epsilon crossing, as columns
    (_leg_columns): each agreement is one column over the run, and a
    failure is built for each row where it fails.  focal_point is that
    side's public focal point function, passed in so that a rebound module
    attribute (a profiler's wrapper) is called."""
    if not runs:
        reason = _undefined_at(model, float(ts[-1]), side, evolute=True) if len(ts) else None
        return LegReport(status="skipped",
                         reason=reason or "evolute undefined on the whole grid")

    leg = LegReport(status="checked", points=sum(map(len, runs)))
    index = np.concatenate([np.arange(run.start, run.stop) for run in runs])
    types, eps, dist = _leg_columns(model, ts[index], side, focal_point)
    agree = _agreements(types)
    leg.agreements = {name: bool(ok.all()) for name, ok in agree.items()}
    # one failure per failed agreement, by grid point, then in table order
    for k in np.flatnonzero(~np.logical_and.reduce(list(agree.values()))).tolist():
        focal, point, dual = _type_values(types, k)
        leg.failures += [{"t": float(ts[index[k]]), "check": name, "focal": focal,
                          "evolute": point, "dual": dual} for name, ok in agree.items() if not ok[k]]
    leg.max_image_distance = max(0.0, float(dist.max()))

    # epsilon sign changes between grid neighbours of one defined run:
    # locate the crossing and classify there
    same_run = np.ones(len(index) - 1, dtype=bool)
    same_run[np.cumsum(list(map(len, runs)))[:-1] - 1] = False
    ea, eb = eps[:-1], eps[1:]
    at = np.flatnonzero(same_run & (ea != 0.0) & (eb != 0.0) & ((ea < 0) != (eb < 0)))
    brackets = zip(*(c.tolist() for c in (ts[index[at]], ts[index[at + 1]], ea[at], eb[at])))
    crossing_ts = sorted(ts[index[eps == 0.0]].tolist()
                         + _eps_crossings(model, side, list(brackets)))
    if crossing_ts:
        types, _, dist = _leg_columns(model, np.array(crossing_ts), side, focal_point)
        agree = _agreements(types)
        for k, t_star in enumerate(crossing_ts):
            focal, point, dual = _type_values(types, k)
            leg.events.append({"t": t_star, "focal_type": focal, "evolute_type": point,
                               "dual_type": dual,
                               **{key: bool(agree[name][k]) for key, name in _EVENT_KEYS.items()}})
        for name in _EVENT_KEYS.values():
            leg.agreements[name] = leg.agreements[name] and bool(agree[name].all())
        leg.max_image_distance = max(leg.max_image_distance, float(dist.max()))
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
    "correspondence_check", "CorrespondenceReport", "LegReport", "evolute_rows",
]
