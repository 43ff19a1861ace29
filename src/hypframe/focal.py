"""Focal surfaces of a hyperbolic framed curve and their singularities.

The hyperbolic focal surface lives in H3 over the parameter strip where
A^2 > M^2, the de Sitter one in S31 where M^2 > A^2.  Their discriminants
lambda vanish exactly on the singular loci, which are extracted per grid
point and classified by the explicit cuspidal-edge / swallowtail /
cuspidal-beaks criteria.  Every quantity a decision compared against
zero is exported in the record diagnostics.

Both sides are one Legendrian-duality construction (the Delta1 and Delta5
pairings): a `Side` record holds what tells them apart, each construction
is written once against it, and the public `_h` / `_d` names bind it to
`H` or `D`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable

import numpy as np

from .errors import (EvoluteUndefinedError, FrameDegenerateError, InvalidInputError,
                     NumericError, SurfaceUndefinedError)
from .framedcurve import FramedCurveModel, FrenetData
from .minkowski import ON_QUADRIC, Columns, MinkVec, Quadric, membership_residual
from .symexpr import ExprDomainError, eval_expr, power
from .tolerances import is_zero


class SingularityType(enum.Enum):
    REGULAR = "Regular"
    CUSPIDAL_EDGE = "CuspidalEdge"
    SWALLOWTAIL = "Swallowtail"
    CUSPIDAL_BEAKS = "CuspidalBeaks"
    CUSPIDAL_LIPS = "CuspidalLips"
    CUSPIDAL_CROSS_CAP = "CuspidalCrossCap"
    DEGENERATE_UNCLASSIFIED = "DegenerateUnclassified"


class Fibration(enum.Enum):
    DELTA1 = "Delta1"  # H3 x S31
    DELTA5 = "Delta5"  # S31 x S31


@dataclass(frozen=True)
class Side:
    """What tells the hyperbolic constructions from the de Sitter ones.

    The focal fiber pair (c, s) satisfies c' = kappa s and s' = c, so
    kappa is +1.0 for (cosh, sinh) and -1.0 for (cos, sin); the dual of
    the evolute runs on the other pair.  Every sign that differs between
    the sides is a multiplication by kappa, which is exact.
    """

    kappa: float
    c: Callable[[float], float]
    s: Callable[[float], float]
    dual_c: Callable[[float], float]
    dual_s: Callable[[float], float]
    dual_zeros: tuple               # zeros of dual_s on its fiber
    root: Callable[[float, float], float]  # theta with lambda = 0, from (W, D)
    columns: attrgetter             # FrenetData -> (disc, D, D', D'')
    eps_path: attrgetter            # FrenetExprs -> the (epsilon, epsilon') programs
    eps_closed: attrgetter
    evolute_program: attrgetter
    focal: str                      # surface names
    evolute: str
    dual: str
    label: str                      # for error texts
    disc_text: str
    sigma_text: str
    fibration: Fibration
    evolute_first: bool             # the evolute is the first leg of its pair


def _artanh_ratio(w: float, d: float) -> float:
    return math.atanh(w / d)


H = Side(kappa=1.0, c=math.cosh, s=math.sinh, dual_c=math.cos,
         dual_s=math.sin, dual_zeros=(0.0, math.pi), root=_artanh_ratio,
         columns=attrgetter("disc_h", "Dh", "Dh1", "Dh2"),
         eps_path=attrgetter("eps_h_path_program"),
         eps_closed=attrgetter("eps_h_closed_program"),
         evolute_program=attrgetter("evolute_h_program"),
         focal="focal_h", evolute="evolute_h", dual="dual_eh",
         label="hyperbolic", disc_text="A^2 - M^2", sigma_text="positive",
         fibration=Fibration.DELTA1, evolute_first=True)
D = Side(kappa=-1.0, c=math.cos, s=math.sin, dual_c=math.cosh,
         dual_s=math.sinh, dual_zeros=(0.0,), root=math.atan2,
         columns=attrgetter("disc_d", "Dd", "Dd1", "Dd2"),
         eps_path=attrgetter("eps_d_path_program"),
         eps_closed=attrgetter("eps_d_closed_program"),
         evolute_program=attrgetter("evolute_d_program"),
         focal="focal_d", evolute="evolute_d", dual="dual_ed",
         label="de Sitter", disc_text="M^2 - A^2", sigma_text="negative",
         fibration=Fibration.DELTA5, evolute_first=False)


def _focal_side(surface: str) -> Side:
    for side in (H, D):
        if surface == side.focal:
            return side
    raise InvalidInputError(f"unknown surface {surface!r}")


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


def _scale(data: FrenetData):
    """Local magnitude entering every zero threshold at this t; over
    FrenetData columns, the column of it, each D counted only where its
    discriminant is positive, as frenet_data_at sets it only there."""
    vals = (data.M, data.N, data.A, data.M1, data.N1, data.A1, data.W, data.W1, data.W2)
    d = (data.Dh, data.Dh1, data.Dh2, data.Dd, data.Dd1, data.Dd2)
    if isinstance(data.M, np.ndarray):
        discs = [data.disc_h] * 3 + [data.disc_d] * 3
        vals += tuple(np.where(disc > 0.0, v, 0.0) for disc, v in zip(discs, d))
        return np.max(np.abs(vals), axis=0)
    return max([abs(v) for v in (*vals, *d) if v is not None])


# ---------------------------------------------------------------------------
# Where each surface is defined


def _failing(side: Side, data: FrenetData, tol, evolute: bool = False) -> tuple:
    """The two tests of the definedness rule, (sigma_F fails, disc fails),
    on one FrenetData or on the columns of a batch; the sigma_F test only
    applies with `evolute`."""
    sigma = False
    if evolute:
        sigma_scale = power(data.A * data.N, 2) * abs(data.disc_h) + power(data.W, 2)
        sigma = side.kappa * data.sigma_f <= tol.sing * (1.0 + sigma_scale)
    return sigma, side.columns(data)[0] <= tol.zero


def _undefined(side: Side, data: FrenetData, tol, evolute: bool = False):
    """The definedness rule: why the side's focal surface (with `evolute`,
    its evolute and the dual of that) is undefined at data.t; None where it
    is defined.  frenet_data_at has already required a^2 + b^2 > tol.zero."""
    sigma, disc = _failing(side, data, tol, evolute)
    if sigma:
        return (f"sigma_F = {data.sigma_f!r} at t={data.t!r} is not "
                f"{side.sigma_text}: {side.label} evolute undefined")
    if disc:
        what = "evolute" if evolute else "focal surface"
        return (f"{side.disc_text} = {side.columns(data)[0]!r} at t={data.t!r}: "
                f"{side.label} {what} undefined")
    return None


def _undefined_at(model: FramedCurveModel, t: float, side: Side, evolute: bool = False):
    """_undefined at t, where a^2 + b^2 may vanish too."""
    try:
        data = model.frenet_data_at(t)
    except FrameDegenerateError as exc:
        return str(exc)
    return _undefined(side, data, model.tol, evolute)


def _require(side: Side, data: FrenetData, model: FramedCurveModel,
             evolute: bool = False) -> tuple:
    """The side's (disc, D, D', D''); raises where _undefined gives a reason."""
    why = _undefined(side, data, model.tol, evolute)
    if why:
        raise (EvoluteUndefinedError if evolute else SurfaceUndefinedError)(why)
    return side.columns(data)


# surface name -> (its side, whether the evolute's condition applies), in report order
SURFACES = {H.focal: (H, False), D.focal: (D, False), H.evolute: (H, True),
            D.evolute: (D, True), H.dual: (H, True), D.dual: (D, True)}


def defined_runs(model: FramedCurveModel) -> dict:
    """Each name of SURFACES -> the maximal index ranges of the model's
    grid on which that surface is defined: the rule on the columns of the
    grid table, and on each of its suspect rows, in order, _undefined_at."""
    grid = model.grid
    with np.errstate(all="ignore"):
        ok = np.hstack([~np.logical_or(*_failing(side, grid.data, model.tol, evolute))
                        for side, evolute in SURFACES.values()])
    for i in np.flatnonzero(grid.suspect):
        ok[i] = [_undefined_at(model, float(model.ts[i]), *rule) is None
                 for rule in SURFACES.values()]
    runs = {}
    for k, name in enumerate(SURFACES):
        # a run starts, and the next stops, where the column changes value
        edges = np.flatnonzero(np.diff([False, *ok[:, k].tolist(), False])).tolist()
        runs[name] = [range(a, b) for a, b in zip(edges[::2], edges[1::2])]
    return runs


# ---------------------------------------------------------------------------
# Points, partials, discriminants


def _frame_data(side: Side, model: FramedCurveModel, t: float, dual: bool = False):
    """(data, Frenet frame, sqrt(disc)) at t; raises where _undefined gives a reason."""
    data = model.frenet_data_at(t)
    r = math.sqrt(_require(side, data, model, evolute=dual)[0])
    return data, model.frenet_frame_at(t), r


def _fiber_points(side: Side, model, t: float, c, s, dual: bool = False) -> np.ndarray:
    """The side's focal surface (with `dual`, the dual of its evolute) at t,
    one row per entry of the fiber arrays c and s."""
    data, f, r = _frame_data(side, model, t, dual)
    return _points(data, f, r, c[:, None], s[:, None], dual)


# The surfaces and their partials as array functions: the fiber values c
# and s are (k, 1) columns, and either the frame f is one (4, 4) Frenet
# frame with data and r = sqrt(disc) floats, or f is a (k, 4, 4) stack with
# data and r (k, 1) columns.  One row per fiber value, in both cases.


def _points(data, f, r, c, s, dual: bool = False) -> np.ndarray:
    f0, f1, f2, f3 = np.moveaxis(f, -2, 0)
    if dual:
        return c * f3 + (s / r) * (-data.M * f0 + data.A * f1)
    return (c / r) * (data.A * f0 - data.M * f1) + s * f2


def _focal_partials(side: Side, data, f, r, c, s) -> tuple:
    k, r3 = side.kappa, power(r, 3)
    f0, f1, f2, _ = np.moveaxis(f, -2, 0)
    ft = (-k * c * data.M * data.W / r3) * f0 \
        + (k * c * data.A * data.W / r3 - s * data.N) * f1 \
        + (-c * data.M * data.N / r) * f2
    fth = (k * s * data.A / r) * f0 + (-k * s * data.M / r) * f1 + c * f2
    return ft, fth


def _dual_partials(side: Side, data, f, r, c, s) -> tuple:
    """(dF/dt, dF/dtheta) of the dual of the side's evolute, frame-exact;
    its fiber pair satisfies c' = -kappa s."""
    k, r3 = side.kappa, power(r, 3)
    f0, f1, f2, f3 = np.moveaxis(f, -2, 0)
    ft = (c * data.M + k * s * data.A * data.W / r3) * f0 \
        + (-c * data.A - k * s * data.M * data.W / r3) * f1 \
        + (s * data.A * data.N / r) * f2 \
        + (k * s * r) * f3
    fth = (c / r) * (-data.M * f0 + data.A * f1) - k * s * f3
    return ft, fth


def _fiber(side: Side, thetas, dual: bool = False):
    """The fiber pair (c, s) of the focal surface (with `dual`, of the dual of
    the evolute) at each of thetas, as arrays of the side's libm values."""
    fns = (side.dual_c, side.dual_s) if dual else (side.c, side.s)
    return [np.array([fn(th) for th in thetas]) for fn in fns]


def _columns(side: Side, model, ts, dual: bool = False) -> tuple:
    """(frames, data, r, replay) at the array ts: frenet_columns, r = sqrt(disc)
    and the rows to replay one point at a time, where frenet_columns marks
    them or the surface (with `dual`, the side's evolute) is undefined."""
    frames, data, replay = model.frenet_columns(ts)
    with np.errstate(all="ignore"):
        replay |= np.logical_or(*_failing(side, data, model.tol, dual))[:, 0]
        return frames, data, np.sqrt(side.columns(data)[0]), replay


def _point(side: Side, model, t, theta, dual: bool = False):
    """The point at (t, theta), a MinkVec; for arrays t and theta, the (m, 4)
    rows of the points at each (t[i], theta[i]), unchecked: a row that is not
    finite, or where the surface is undefined, is the caller's to replay."""
    if np.ndim(t):
        frames, data, r, _ = _columns(side, model, np.asarray(t, dtype=float), dual)
        with np.errstate(all="ignore"):
            return _points(data, frames, r, *(x[:, None] for x in _fiber(side, theta, dual)),
                           dual)
    return MinkVec.from_array(_fiber_points(side, model, t, *_fiber(side, [theta], dual), dual))


def _partials(side: Side, model: FramedCurveModel, t: float, theta: float, dual=False):
    """_focal_partials (with `dual`, _dual_partials) at one (t, theta), as MinkVecs."""
    data, f, r = _frame_data(side, model, t, dual)
    c, s = (x[:, None] for x in _fiber(side, [theta], dual))
    partials = _dual_partials if dual else _focal_partials
    return tuple(MinkVec.from_array(v) for v in partials(side, data, f, r, c, s))


def _lam(side: Side, data: FrenetData, cols: tuple, theta: float) -> float:
    return (side.c(theta) * data.W - side.s(theta) * cols[1]) / cols[0]


def _lambda(side: Side, model: FramedCurveModel, t: float, theta: float) -> float:
    data = model.frenet_data_at(t)
    return _lam(side, data, _require(side, data, model), theta)


def focal_h_point(model: FramedCurveModel, t, theta):
    """cosh(theta)/sqrt(A^2-M^2) * (A gamma - M n1) + sinh(theta) n2, in H3;
    for arrays t and theta, the unchecked rows of _point."""
    return _point(H, model, t, theta)


def focal_h_partials(model: FramedCurveModel, t: float, theta: float):
    """(dF/dt, dF/dtheta) of the hyperbolic focal surface, frame-exact."""
    return _partials(H, model, t, theta)


def focal_d_point(model: FramedCurveModel, t, theta):
    """cos(theta)/sqrt(M^2-A^2) * (A gamma - M n1) + sin(theta) n2, in S31;
    for arrays t and theta, the unchecked rows of _point."""
    return _point(D, model, t, theta)


def focal_d_partials(model: FramedCurveModel, t: float, theta: float):
    return _partials(D, model, t, theta)


def lambda_h(model: FramedCurveModel, t: float, theta: float) -> float:
    """[cosh(theta) W - sinh(theta) A N sqrt(A^2-M^2)] / (A^2-M^2)."""
    return _lambda(H, model, t, theta)


def lambda_d(model: FramedCurveModel, t: float, theta: float) -> float:
    return _lambda(D, model, t, theta)


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
    quadric = _focal_side(surface).kappa * (u1 * u1 - u2 * u2 - u3 * u3) - 1.0
    return {"linear": m * u1 + a * u2 + b * u3, "quadric": quadric,
            "mu_component": u4}


# ---------------------------------------------------------------------------
# Singular loci


def _root_record(side: Side, t: float, data: FrenetData, theta: float,
                 whole_fiber: bool = False) -> SingularPointRecord:
    lam = _lam(side, data, side.columns(data), theta)
    diag = {"lambda_at_root": lam}
    if not whole_fiber:
        diag["sigma_f"] = data.sigma_f
    return SingularPointRecord(
        surface=side.focal, param=SurfaceParam(t, theta), lam=lam,
        sigma_f=data.sigma_f, whole_fiber=whole_fiber, diagnostics=diag)


# a whole-fiber record holds FIBER_COUNT thetas, over FIBER_WINDOW on a line fiber
FIBER_WINDOW = (-3.0, 3.0)
FIBER_COUNT = 13
REFINE_DEPTH = 6  # halvings of a grid step where the d-locus branch jumps


def singular_locus_h(model: FramedCurveModel, ts=None):
    """Singular points of the hyperbolic focal surface over the grid.

    Per grid t: a whole-fiber family when (W, Dh) vanishes, the unique
    root theta = artanh(W / Dh) where the evolute is defined, nothing else.
    """
    if ts is None:
        ts = model.ts
    records = []
    for t in ts:
        t = float(t)
        data = model.frenet_data_at(t)
        _require(H, data, model)
        s = _scale(data)
        if is_zero(data.W, s, model.tol.sing) and is_zero(data.Dh, s, model.tol.sing):
            thetas = np.linspace(FIBER_WINDOW[0], FIBER_WINDOW[1], FIBER_COUNT)
            records.extend(_root_record(H, t, data, float(th), whole_fiber=True) for th in thetas)
            continue
        if not _undefined(H, data, model.tol, evolute=True):
            records.append(_root_record(H, t, data, math.atanh(data.W / data.Dh)))
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


def singular_locus_d(model: FramedCurveModel, ts=None):
    """Singular points of the de Sitter focal surface over the grid.

    The circle fiber always meets the singular set when (W, Dd) does not
    vanish: the two roots of tan(theta) = W / Dd, normalized to [0, 2pi).
    Neighboring roots jumping by more than pi/2 trigger grid refinement,
    keeping the reported branch continuous in t; a midpoint where the
    surface is undefined is skipped.
    """
    if ts is None:
        ts = model.ts
    entries = []
    for t in ts:
        t = float(t)
        data = model.frenet_data_at(t)
        _require(D, data, model)
        s = _scale(data)
        if is_zero(data.W, s, model.tol.sing) and is_zero(data.Dd, s, model.tol.sing):
            thetas = np.linspace(0.0, 2.0 * math.pi, FIBER_COUNT, endpoint=False)
            entries.append((t, None, data, thetas))
        else:
            theta = _norm_circle(math.atan2(data.W, data.Dd))
            entries.append((t, theta, data, None))

    # refine where the principal branch jumps
    refined = list(entries)
    for (t_a, th_a, *_), (t_b, th_b, *_) in zip(entries, entries[1:]):
        if th_a is None or th_b is None:
            continue
        stack = [(t_a, th_a, t_b, th_b, 0)]
        while stack:
            ta, tha, tb, thb, depth = stack.pop()
            if _circ_gap(tha, thb) <= 0.5 * math.pi or depth >= REFINE_DEPTH:
                continue
            tm = 0.5 * (ta + tb)
            if _undefined_at(model, tm, D):
                continue
            data_m = model.frenet_data_at(tm)
            thm = _norm_circle(math.atan2(data_m.W, data_m.Dd))
            refined.append((tm, thm, data_m, None))
            stack.append((ta, tha, tm, thm, depth + 1))
            stack.append((tm, thm, tb, thb, depth + 1))
    refined.sort(key=lambda e: e[0])

    records = []
    for t, theta, data, fiber in refined:
        if fiber is not None:
            records.extend(_root_record(D, t, data, float(th), whole_fiber=True) for th in fiber)
            continue
        for th in sorted((theta, _norm_circle(theta + math.pi))):
            records.append(_root_record(D, t, data, th))
    return records


# ---------------------------------------------------------------------------
# Classification


def _eps_values(model, t, side: Side):
    """(epsilon, epsilon') via the symbolically differentiated theta branch.

    Falls back to the algebraically equivalent closed form where the
    branch expression hits an exact pole (Dh or Dd exactly zero).  At a
    grid t, the values come from the grid table where they are finite.
    """
    program = side.eps_path(model.frenet)
    try:
        eps, eps1 = model.grid_values(program, t) or eval_expr(program, t)
        fallback = not (math.isfinite(eps) and math.isfinite(eps1))
    except ExprDomainError:
        fallback = True
    if fallback:
        eps, eps1 = eval_expr(side.eps_closed(model.frenet), t)
    return eps, eps1, fallback


def _first(cases, default):
    """The type of the first (condition, type) of the cases whose condition
    holds, else `default`: at one point, or per row of columns."""
    if isinstance(cases[0][0], np.ndarray):
        return np.select([cond for cond, _ in cases], [ty for _, ty in cases], default)
    for cond, ty in cases:
        if cond:
            return ty
    return default


def _nonzero(value, scale, tol):
    """not is_zero, at one point or per row of columns (NaN is not zero)."""
    zero = is_zero(value, scale, tol)
    return ~zero if isinstance(zero, np.ndarray) else not zero


def _edge_or_swallowtail(eps, eps1, scale, tol):
    """Branch (a) of the classification, by epsilon and epsilon'."""
    return _first([(_nonzero(eps, scale, tol), SingularityType.CUSPIDAL_EDGE),
                   (_nonzero(eps1, scale, tol), SingularityType.SWALLOWTAIL)],
                  SingularityType.DEGENERATE_UNCLASSIFIED)


def _edge_or_beaks(c1, c2, c3, s, root, mn, tol):
    """Branch (b) of the classification, by the derivative data of (W, D)."""
    beaks = _nonzero(c2, s, tol) & _nonzero(c3, s * (1 + root + abs(mn)), tol)
    return _first([(_nonzero(c1, s, tol), SingularityType.CUSPIDAL_EDGE),
                   (beaks, SingularityType.CUSPIDAL_BEAKS)],
                  SingularityType.DEGENERATE_UNCLASSIFIED)


def _classify_generic(model, record, side: Side) -> SingularityType:
    t0 = record.param.t
    theta0 = record.param.theta
    data = model.frenet_data_at(t0)
    disc, _, d1, d2 = _require(side, data, model)
    root = math.sqrt(disc)
    k, cs, sn = side.kappa, side.c(theta0), side.s(theta0)
    c2 = sn * data.W1 - k * cs * d1
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
        return _edge_or_swallowtail(eps, eps1, s + abs(data.M * data.N / root), tol)

    c1 = cs * data.W1 - sn * d1
    c3 = (cs * data.W2 - sn * d2) * root \
        + k * 2.0 * data.M * data.N * c2
    diag["c1_nondegeneracy"] = c1
    diag["c2_mixed_derivative"] = c2
    diag["c3_second_order"] = c3
    return _edge_or_beaks(c1, c2, c3, s, root, data.M * data.N, tol)


def _finalize(model, record, side: Side) -> SingularityType:
    ty = _classify_generic(model, record, side)
    record.type = ty
    data = model.frenet_data_at(record.param.t)
    theta0 = record.param.theta
    disc, d0, d1, _ = side.columns(data)
    cs, sn = side.c(theta0), side.s(theta0)
    lam_t = (cs * data.W1 - sn * d1) / disc
    lam_th = (side.kappa * sn * data.W - cs * d0) / disc
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
    return _finalize(model, record, H)


def classify_d(model: FramedCurveModel, record: SingularPointRecord) -> SingularityType:
    """De Sitter analogue of classify_h (cos/sin in place of cosh/sinh)."""
    return _finalize(model, record, D)


def classify_point(model: FramedCurveModel, surface: str, t: float,
                   theta: float) -> SingularPointRecord:
    """Convenience: build a record at (t, theta) and classify it.

    Returns a REGULAR-typed record when lambda is away from zero.
    """
    side = _focal_side(surface)
    data = model.frenet_data_at(t)
    lam = _lambda(side, model, t, theta)
    rec = SingularPointRecord(surface=surface, param=SurfaceParam(t, theta),
                              lam=lam, sigma_f=data.sigma_f)
    if not is_zero(lam, _scale(data), model.tol.sing):
        rec.type = SingularityType.REGULAR
        rec.diagnostics["lambda"] = lam
        return rec
    _finalize(model, rec, side)
    return rec


# ---------------------------------------------------------------------------
# Grid evaluation


def surface_grid(model: FramedCurveModel, which: str, ts, thetas) -> np.ndarray:
    """Row-major grid of surface points, shape (len(ts), len(thetas), 4).

    which names a focal surface ("focal_h", "focal_d") or the dual of an
    evolute ("dual_eh", "dual_ed").  The grid is one broadcast of _points
    over frenet_columns(ts) (rows of the grid table at grid ts) and the
    theta row; a row that frenet_columns marks suspect, or where the
    surface is undefined, is replayed by _fiber_points, in order.  A point
    that is not finite, or is off its quadric, raises.
    """
    if which not in (H.focal, D.focal, H.dual, D.dual):
        raise InvalidInputError(f"unknown surface {which!r}")
    side, dual = SURFACES[which]
    ts = np.asarray(ts, dtype=float)
    thetas = np.asarray(thetas, dtype=float).tolist()
    out = np.empty((len(ts), len(thetas), 4))
    if not out.size:
        return out
    c, s = _fiber(side, thetas, dual)
    frames, data, r, replay = _columns(side, model, ts, dual)
    with np.errstate(all="ignore"):
        out[:] = _points(data.rows(np.s_[:, :, None]), frames[:, None], r[:, :, None],
                         c[:, None], s[:, None], dual)
    for i in np.flatnonzero(replay):
        try:
            out[i] = _fiber_points(side, model, float(ts[i]), c, s, dual)
        except SurfaceUndefinedError as exc:
            raise SurfaceUndefinedError(f"grid point (i={i}, j=0): {exc}") from exc
    if not np.isfinite(out).all():
        raise InvalidInputError(
            f"non-finite component in MinkVec: {float(out[~np.isfinite(out)][0])!r}")
    quadric = Quadric.H3 if which == H.focal else Quadric.S31
    with np.errstate(all="ignore"):
        off = np.abs(membership_residual(Columns(*np.moveaxis(out, -1, 0)), quadric)) > ON_QUADRIC
    if off.any():
        i, j = np.argwhere(off)[0].tolist()
        raise NumericError(f"grid point (i={i}, j={j}) at t={float(ts[i])!r}: {which} point "
                           f"{MinkVec.from_array(out[i, j])} is not on {quadric.value}")
    return out
