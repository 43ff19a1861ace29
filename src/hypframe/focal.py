"""Focal surfaces of a hyperbolic framed curve and their singularities.

The hyperbolic focal surface lives in H3 over the parameter strip where
A^2 > M^2, the de Sitter one in S31 where M^2 > A^2.  Their discriminants
lambda vanish exactly on the singular loci, which are extracted from the
grid's columns into a loci table (loci.py) and classified, all its rows
at once, by the explicit cuspidal-edge / swallowtail / cuspidal-beaks
criteria.  Every quantity a decision compared against zero is in the
diagnostics of a row.

Both sides are one Legendrian-duality construction (the Delta1 and Delta5
pairings): a `Side` record holds what tells them apart, each construction
is written once against it, and the public `_h` / `_d` names bind it to
`H` or `D`.
"""

from __future__ import annotations

import enum
import math
from operator import attrgetter
from typing import Callable, NamedTuple

import numpy as np

from .errors import (EvoluteUndefinedError, FrameDegenerateError, InvalidInputError,
                     NumericError, SurfaceUndefinedError)
from .framedcurve import FramedCurveModel, FrenetData
from .loci import SurfaceParam  # noqa: F401 - a name of focal's, as before loci.py
from .loci import TYPES, LociTable, SingularityType, SingularPointRecord, _code, _diagnostics
from .minkowski import ON_QUADRIC, Columns, MinkVec, Quadric, membership_residual
from .symexpr import _fun_cols, eval_expr, power
from .tolerances import is_zero


class Fibration(enum.Enum):
    DELTA1 = "Delta1"  # H3 x S31
    DELTA5 = "Delta5"  # S31 x S31


class Side(NamedTuple):
    """What tells the hyperbolic constructions from the de Sitter ones.

    The focal fiber pair (c, s), named as DSL functions, satisfies c' = kappa s
    and s' = c, so kappa is +1.0 for (cosh, sinh) and -1.0 for (cos, sin); the
    dual of the evolute runs on the other pair.  Every sign that differs
    between the sides is a multiplication by kappa, which is exact, and
    every expression that differs is on the side's FrenetSide, `frenet`.
    """

    kappa: float
    c: str
    s: str
    dual_c: str
    dual_s: str
    dual_zeros: tuple               # zeros of dual_s on its fiber
    root: Callable                  # theta with lambda = 0, per element of (W, D); NaN where none
    columns: attrgetter             # FrenetData -> (disc, D, D', D'')
    frenet: attrgetter              # FramedCurveModel -> its FrenetSide
    focal: str                      # surface names
    evolute: str
    dual: str
    label: str                      # for error texts
    disc_text: str
    sigma_text: str
    fibration: Fibration
    evolute_first: bool             # the evolute is the first leg of its pair


H = Side(kappa=1.0, c="cosh", s="sinh", dual_c="cos",
         dual_s="sin", dual_zeros=(0.0, math.pi),
         root=lambda w, d: _fun_cols("artanh", w / d),
         columns=attrgetter("disc_h", "Dh", "Dh1", "Dh2"),
         frenet=attrgetter("frenet.h"),
         focal="focal_h", evolute="evolute_h", dual="dual_eh",
         label="hyperbolic", disc_text="A^2 - M^2", sigma_text="positive",
         fibration=Fibration.DELTA1, evolute_first=True)
D = Side(kappa=-1.0, c="cos", s="sin", dual_c="cosh",
         dual_s="sinh", dual_zeros=(0.0,), root=np.arctan2,
         columns=attrgetter("disc_d", "Dd", "Dd1", "Dd2"),
         frenet=attrgetter("frenet.d"),
         focal="focal_d", evolute="evolute_d", dual="dual_ed",
         label="de Sitter", disc_text="M^2 - A^2", sigma_text="negative",
         fibration=Fibration.DELTA5, evolute_first=False)


def _scale(data: FrenetData):
    """Local magnitude entering every zero threshold, per row of FrenetData
    columns: each D counted only where its discriminant is positive, as
    frenet_data_at sets it only there."""
    vals = (data.M, data.N, data.A, data.M1, data.N1, data.A1, data.W, data.W1, data.W2)
    discs = [data.disc_h] * 3 + [data.disc_d] * 3
    d = (data.Dh, data.Dh1, data.Dh2, data.Dd, data.Dd1, data.Dd2)
    vals += tuple(np.where(disc > 0.0, v, 0.0) for disc, v in zip(discs, d))
    out = np.abs(vals[0])
    for v in vals[1:]:  # max |v| over vals, two columns held at a time
        out = np.max((out, np.abs(v)), axis=0)
    return out


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
# The columns of a batch of ts, the errors of their flagged rows, and the
# points, partials and discriminants over them
#
# The surfaces and their partials are array functions: the fiber values c
# and s, the FrenetData and r = sqrt(disc) are columns and f is a stack of
# Frenet frames, broadcast against each other; one row per row of them.


def _columns(side: Side, model, ts, frames: bool = True) -> tuple:
    """(frames, data, r, suspect): frenet_columns at the ts (with `frames`),
    and r = sqrt(disc) of the side."""
    frames, data, suspect = model.frenet_columns(np.asarray(ts, dtype=float), frames)
    with np.errstate(all="ignore"):
        return frames, data, np.sqrt(side.columns(data)[0]), suspect


def _raise_rows(model, data, suspect, checks, skip=()) -> np.ndarray:
    """Raise what the per-point path raised at the first flagged row, one
    that is suspect or in the rows of a (check, rows) of checks: the error
    of frenet_data_at, then of each check(row, i) in turn, row being row i
    as frenet_data_at gives it.  A row raising an error of `skip` is left
    out instead: the mask of those rows.  A flagged row that raises nothing
    keeps its column values, the per-point values bit for bit."""
    out = np.zeros(len(suspect), dtype=bool)
    for i in np.flatnonzero(np.logical_or.reduce([suspect, *(c[1] for c in checks)])).tolist():
        try:
            row = model.frenet_data_at(float(data.t[i, 0])) if suspect[i] else data.row(i)
            for check, _ in checks:
                check(row, i)
        except skip:
            out[i] = True
    return out


def _rule(side: Side, model, data, evolute: bool = False) -> tuple:
    """The check of the definedness rule (_require), and its failing rows."""
    with np.errstate(all="ignore"):
        undefined = np.logical_or(*_failing(side, data, model.tol, evolute))[:, 0]
    return lambda row, i: _require(side, row, model, evolute), undefined


def _finite(*legs) -> tuple:
    """The check of MinkVec's non-finite component on the (m, 4) legs, in
    order, and their non-finite rows."""
    return (lambda row, i: [MinkVec.from_array(leg[i]) for leg in legs],
            ~np.isfinite(np.hstack(legs)).all(axis=1))


def _replayed(program, values, where=True) -> tuple:
    """The check of the program's ExprDomainError at the row's t, naming it,
    on the rows (where `where`) whose (m, 1) values are not finite."""
    bad = where & ~np.isfinite(np.hstack(values)).all(axis=1)
    return lambda row, i: bad[i] and eval_expr(program, row.t, name_t=True), bad


def _batch(side: Side, model, tl, evolute: bool = False, frames: bool = False) -> tuple:
    """(frames, data, r) of _columns at the ts tl (with `frames`), raised from
    where the side's focal surface (with `evolute`, its evolute) is undefined."""
    frames, data, r, suspect = _columns(side, model, tl, frames)
    _raise_rows(model, data, suspect, [_rule(side, model, data, evolute)])
    return frames, data, r


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
    the evolute) at each of thetas, as arrays of the replay's values."""
    names = (side.dual_c, side.dual_s) if dual else (side.c, side.s)
    return [_fun_cols(name, np.asarray(thetas, dtype=float)) for name in names]


def _point(side: Side, model, t, theta, dual: bool = False):
    """The point at (t, theta), a MinkVec; for arrays t and theta, the (m, 4)
    rows of the points at each (t[i], theta[i]), unchecked: a row that is not
    finite, or where the surface is undefined, is the caller's to raise from."""
    if np.ndim(t):
        frames, data, r, _ = _columns(side, model, t)
        with np.errstate(all="ignore"):
            return _points(data, frames, r, *(x[:, None] for x in _fiber(side, theta, dual)),
                           dual)
    c, s = (x[:, None] for x in _fiber(side, [theta], dual))
    frames, data, r = _batch(side, model, [t], dual, frames=True)
    return MinkVec.from_array(_points(data, frames, r, c, s, dual))


def focal_h_point(model: FramedCurveModel, t, theta):
    """cosh(theta)/sqrt(A^2-M^2) * (A gamma - M n1) + sinh(theta) n2, in H3;
    for arrays t and theta, the unchecked rows of _point."""
    return _point(H, model, t, theta)


def focal_d_point(model: FramedCurveModel, t, theta):
    """cos(theta)/sqrt(M^2-A^2) * (A gamma - M n1) + sin(theta) n2, in S31;
    for arrays t and theta, the unchecked rows of _point."""
    return _point(D, model, t, theta)


def _entries(side: Side, data) -> tuple:
    """(W, D, disc, sigma_F) of the side, of FrenetData: what a locus row reads."""
    disc, d0 = side.columns(data)[:2]
    return data.W, d0, disc, data.sigma_f


def _lambda(side: Side, model, t, theta) -> float:
    c, s = (x[:, None] for x in _fiber(side, [theta]))
    w, d0, disc, _ = _entries(side, _batch(side, model, [t])[1])
    return float(((c * w - s * d0) / disc)[0, 0])


def lambda_h(model: FramedCurveModel, t: float, theta: float) -> float:
    """[cosh(theta) W - sinh(theta) A N sqrt(A^2-M^2)] / (A^2-M^2)."""
    return _lambda(H, model, t, theta)


def lambda_d(model: FramedCurveModel, t: float, theta: float) -> float:
    return _lambda(D, model, t, theta)


# ---------------------------------------------------------------------------
# Singular loci and their classification, as columns: a row per grid t or per point


def _locus_rows(side: Side, model, ts) -> tuple:
    """(ts, data, whole) of a locus at the grid ts: the FrenetData columns,
    and where (W, D) vanishes, so that the whole fiber is singular."""
    ts = model.ts if ts is None else np.asarray(ts, dtype=float)
    data = _batch(side, model, ts)[1]
    s, tol = _scale(data), model.tol.sing
    whole = is_zero(data.W, s, tol) & is_zero(side.columns(data)[1], s, tol)
    return ts, data, whole[:, 0]


# a whole-fiber record holds FIBER_COUNT thetas, over FIBER_WINDOW on a line fiber
FIBER_WINDOW = (-3.0, 3.0)
FIBER_COUNT = 13
REFINE_DEPTH = 6  # halvings of a grid step where the d-locus branch jumps


def _locus_table(side: Side, ts, cols, whole, count, roots, fiber) -> LociTable:
    """The locus table of the entries ts, with _entries columns `cols`: at an
    entry, the thetas of the fiber where whole, else its `count` thetas of
    `roots`, the roots of all entries in order."""
    rows = np.repeat(np.arange(len(ts)), np.where(whole, FIBER_COUNT, count))
    w = whole[rows]
    theta = np.empty(len(rows))
    theta[w], theta[~w] = np.tile(fiber, int(whole.sum())), roots
    (c, s), (w_, d0, disc, sigma) = _fiber(side, theta), (col[rows] for col in cols)
    return LociTable(side.focal, ts[rows], theta, (c * w_ - s * d0) / disc, sigma, w)


def singular_locus_h(model: FramedCurveModel, ts=None) -> LociTable:
    """Singular points of the hyperbolic focal surface over the grid.

    Per grid t: a whole-fiber family when (W, Dh) vanishes, the unique
    root theta = artanh(W / Dh) where the evolute is defined, nothing else.
    """
    ts, data, whole = _locus_rows(H, model, ts)
    cols = [c[:, 0] for c in _entries(H, data)]
    with np.errstate(all="ignore"):
        root = ~whole & ~_failing(H, data, model.tol, evolute=True)[0][:, 0]
        theta = H.root(cols[0][root], cols[1][root])
    return _locus_table(H, ts, cols, whole, root, theta, np.linspace(*FIBER_WINDOW, FIBER_COUNT))


def _circ_gap(x, y):
    """The distance of x and y on the circle, at one point or per element."""
    d = np.abs(x - y) % (2.0 * math.pi)
    return np.minimum(d, 2.0 * math.pi - d)


def _norm_circle(x):
    """Reduce to [0, 2pi), snapping rounding-level wrap back to 0; a float,
    or per element of an array."""
    y = x % (2.0 * math.pi)
    wrap = 2.0 * math.pi - y <= 1e-9
    return np.where(wrap, 0.0, y) if np.ndim(y) else (0.0 if wrap else y)


def singular_locus_d(model: FramedCurveModel, ts=None) -> LociTable:
    """Singular points of the de Sitter focal surface over the grid.

    The circle fiber always meets the singular set when (W, Dd) does not
    vanish: the two roots of tan(theta) = W / Dd, normalized to [0, 2pi).
    Neighboring roots jumping by more than pi/2 trigger grid refinement,
    keeping the reported branch continuous in t; a midpoint where the
    surface is undefined is skipped.
    """
    ts, data, whole = _locus_rows(D, model, ts)
    cols = [c[:, 0] for c in _entries(D, data)]
    theta = np.where(whole, math.nan, _norm_circle(D.root(cols[0], cols[1])))
    refined = []
    # refine, one midpoint at a time, where the principal branch jumps
    for j in np.flatnonzero(_circ_gap(theta[:-1], theta[1:]) > 0.5 * math.pi).tolist():
        stack = [(*ts[j:j + 2].tolist(), *theta[j:j + 2].tolist(), 0)]
        while stack:
            ta, tb, tha, thb, depth = stack.pop()
            if _circ_gap(tha, thb) <= 0.5 * math.pi or depth >= REFINE_DEPTH:
                continue
            tm = 0.5 * (ta + tb)
            if _undefined_at(model, tm, D):
                continue
            data_m = model.frenet_data_at(tm)
            thm = _norm_circle(float(D.root(data_m.W, data_m.Dd)))
            refined.append((tm, thm, False, *_entries(D, data_m)))
            stack += [(ta, tm, tha, thm, depth + 1), (tm, tb, thm, thb, depth + 1)]
    if refined or np.any(ts[1:] < ts[:-1]):
        # the midpoints after the grid's entries, then all in t order (stable)
        entries = [np.concatenate([a, b]).astype(a.dtype) for a, b in zip(
            (ts, theta, whole, *cols), np.reshape(refined, (-1, 7)).T)]
        order = np.argsort(entries[0], kind="stable")
        ts, theta, whole, *cols = (c[order] for c in entries)
    pair = _norm_circle(theta + math.pi)
    lo, hi = np.where(pair < theta, pair, theta), np.where(pair < theta, theta, pair)
    return _locus_table(D, ts, cols, whole, 2, np.column_stack([lo, hi])[~whole].ravel(),
                        np.linspace(0.0, 2.0 * math.pi, FIBER_COUNT, endpoint=False))


def _eps_columns(side: Side, model, ts, rows=True) -> tuple:
    """(eps, eps1, fallback, check): (epsilon, epsilon') at the array ts as
    (m, 1) columns along the differentiated theta branch, else, on the rows
    of the mask `rows` (fallback), in closed form, where the branch is not
    finite (an exact pole); and the _replayed check of the closed form."""
    closed = side.frenet(model).eps_closed_program
    eps = [np.array(c) for c in model.program_columns(side.frenet(model).eps_path_program, ts)]
    fallback = rows & ~np.isfinite(np.hstack(eps)).all(axis=1)
    if fallback.any():
        eps[0][fallback], eps[1][fallback] = model.program_columns(closed, ts[fallback])
    return *eps, fallback, _replayed(closed, eps, fallback)


def _nonzero(value, scale, tol):
    """not is_zero, per row of columns (NaN is not zero)."""
    return ~is_zero(value, scale, tol)


def _by_epsilon(types):
    """f(eps, eps1, scale, tol): the code (_code) of types[0] iff epsilon != 0,
    of types[1] iff epsilon = 0 and epsilon' != 0, else of types[2]; per row
    of columns."""
    codes = [_code(ty) for ty in types]
    return lambda eps, eps1, scale, tol: np.select(
        [_nonzero(eps, scale, tol), _nonzero(eps1, scale, tol)], codes[:2], codes[2])


# branch (a) of the classification: cuspidal edge, else swallowtail
_edge_or_swallowtail = _by_epsilon((SingularityType.CUSPIDAL_EDGE, SingularityType.SWALLOWTAIL,
                                    SingularityType.DEGENERATE_UNCLASSIFIED))


def _edge_or_beaks(c1, c2, c3, s, root, mn, tol):
    """Branch (b) of the classification, by the derivative data of (W, D): type codes."""
    beaks = _nonzero(c2, s, tol) & _nonzero(c3, s * (1 + root + abs(mn)), tol)
    return np.select([_nonzero(c1, s, tol), beaks],
                     [_code(SingularityType.CUSPIDAL_EDGE), _code(SingularityType.CUSPIDAL_BEAKS)],
                     _code(SingularityType.DEGENERATE_UNCLASSIFIED))


def _branch_b(data: FrenetData, tol):
    """The rows of the columns where (W, N) vanishes, and their scale."""
    s = _scale(data)
    return is_zero(data.W, s, tol) & is_zero(data.N, s, tol), s


def _decide(side: Side, data: FrenetData, c, s, eps, eps1, tol) -> tuple:
    """(type codes, branch-b mask, scale, (c1, c2, c3)) of the side's focal surface
    at the rows of the columns and the fiber values (c, s) of their thetas:
    branch (b) where (W, N) vanishes, else branch (a) by (eps, eps1)."""
    disc, _, d1, d2 = side.columns(data)
    root, k, mn = np.sqrt(disc), side.kappa, data.M * data.N
    b, scale = _branch_b(data, tol)
    c1 = c * data.W1 - s * d1
    c2 = s * data.W1 - k * c * d1
    c3 = (c * data.W2 - s * d2) * root + k * 2.0 * data.M * data.N * c2
    types = np.where(b, _edge_or_beaks(c1, c2, c3, scale, root, mn, tol),
                     _edge_or_swallowtail(eps, eps1, scale + abs(mn / root), tol))
    return types, b, scale, (c1, c2, c3)


def _classify(side: Side, model, loci):
    """Classify a record in place, and return its type; or classify the rows
    of a loci table in place, as one batch.  Epsilon is taken by
    _eps_columns on the branch (a) rows."""
    one = isinstance(loci, SingularPointRecord)
    ts, thetas = ((np.array([loci.param.t], dtype=float), np.array([loci.param.theta], dtype=float))
                  if one else (loci.t, loci.theta))
    if not len(ts):  # no epsilon program to compile
        return None
    tol = model.tol.sing
    _, data, _, suspect = _columns(side, model, ts, frames=False)
    eps, eps1, fallback, closed = _eps_columns(side, model, ts, ~_branch_b(data, tol)[0][:, 0])
    _raise_rows(model, data, suspect, [_rule(side, model, data), closed])
    c, s = (x[:, None] for x in _fiber(side, thetas))
    with np.errstate(all="ignore"):
        types, b, scale, (c1, c2, c3) = _decide(side, data, c, s, eps, eps1, tol)
        disc, d0 = side.columns(data)[:2]
        lam_t, lam_th = c1 / disc, (side.kappa * s * data.W - c * d0) / disc
        nondegenerate = ~is_zero(np.maximum(np.abs(lam_t), np.abs(lam_th)), scale, tol)
    cols = dict(scale=scale, W=data.W, N=data.N, branch=b, c1_nondegeneracy=c1,
                c2_mixed_derivative=c2, c3_second_order=c3, epsilon=eps, epsilon_prime=eps1,
                epsilon_via_closed_form=fallback[:, None], lambda_t=lam_t, lambda_theta=lam_th)
    cols = {k: v[:, 0] for k, v in cols.items()}
    if not one:
        loci.type, loci.nondegenerate, loci.diagnostics = types[:, 0], nondegenerate[:, 0], [(0, cols)]
        return None
    loci.type, loci.nondegenerate = TYPES[types[0, 0]], bool(nondegenerate[0, 0])
    loci.diagnostics.update(_diagnostics(cols, 0))
    return loci.type


def classify_h(model: FramedCurveModel, loci) -> SingularityType:
    """Classify a singular point of the hyperbolic focal surface.

    Branch on (W, N)(t0) = (0,0) or not; branch (a) decides cuspidal edge
    versus swallowtail through theta'(t) - M N / sqrt(A^2 - M^2), branch
    (b) cuspidal edge versus cuspidal beaks through the derivative data of
    (W, Dh).  Cross caps and lips never occur on this surface.  A record is
    filled in place and its type returned; a loci table (singular_locus_h)
    is filled in place, as one batch.
    """
    return _classify(H, model, loci)


def classify_d(model: FramedCurveModel, loci) -> SingularityType:
    """De Sitter analogue of classify_h (cos/sin in place of cosh/sinh)."""
    return _classify(D, model, loci)


# ---------------------------------------------------------------------------
# Grid evaluation


def surface_grid(model: FramedCurveModel, which: str, ts, thetas) -> np.ndarray:
    """Row-major grid of surface points, shape (len(ts), len(thetas), 4).

    which names a focal surface ("focal_h", "focal_d") or the dual of an
    evolute ("dual_eh", "dual_ed").  The grid is one broadcast of _points
    over frenet_columns(ts) (rows of the grid table at grid ts) and the
    theta row; _raise_rows checks each row that frenet_columns marks
    suspect, or where the surface is undefined.  A point off its quadric
    or not finite raises NumericError, which names its grid index and t.
    """
    if which not in (H.focal, D.focal, H.dual, D.dual):
        raise InvalidInputError(f"unknown surface {which!r}")
    side, dual = SURFACES[which]
    ts = np.asarray(ts, dtype=float)
    out = np.empty((len(ts), len(thetas), 4))
    if not out.size:
        return out
    c, s = _fiber(side, thetas, dual)
    frames, data, r, suspect = _columns(side, model, ts)
    rule, undefined = _rule(side, model, data, dual)

    def wrapped(row, i):
        try:
            rule(row, i)
        except SurfaceUndefinedError as exc:
            raise SurfaceUndefinedError(f"grid point (i={i}, j=0): {exc}") from exc

    _raise_rows(model, data, suspect, [(wrapped, undefined)])
    quadric = Quadric.H3 if which == H.focal else Quadric.S31
    with np.errstate(all="ignore"):
        out[:] = _points(data.rows(np.s_[:, :, None]), frames[:, None], r[:, :, None],
                         c[:, None], s[:, None], dual)
        # a point that is not finite has a NaN or infinite residual: off
        on = np.abs(membership_residual(Columns(*np.moveaxis(out, -1, 0)), quadric)) <= ON_QUADRIC
    if not on.all():
        i, j = np.argwhere(~on)[0].tolist()
        point = ", ".join(f"x{k}={v!r}" for k, v in enumerate(out[i, j].tolist()))
        raise NumericError(f"grid point (i={i}, j={j}) at t={float(ts[i])!r}: {which} point "
                           f"MinkVec({point}) is not on {quadric.value}")
    return out
