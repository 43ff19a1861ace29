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
import weakref
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from . import propagation as _kernel
from .errors import (FrameDegenerateError, IntegrationFailureError,
                     InvalidInputError, NumericError)
from .minkowski import wedge_rows
from .symexpr import (ZERO, Expr, ExprDomainError, add, compile, div, eval_expr,
                      fun, mul, neg, parse_expr, pow_, sub, vectorized)
from .symexpr import diff_expr as _d
from .tolerances import DEFAULT, Tolerances


def propagation_backend() -> str:
    """The propagation kernel in use: always the NumPy one, 'python'."""
    return "python"


# ---------------------------------------------------------------------------
# Curvature data


class CurvatureQuartet(NamedTuple):
    """The four curvature functions of the frame ODE, as expression trees."""

    m: Expr
    n: Expr
    a: Expr
    b: Expr

    @classmethod
    def from_strings(cls, m: str, n: str, a: str, b: str) -> "CurvatureQuartet":
        return cls(parse_expr(m), parse_expr(n), parse_expr(a), parse_expr(b))


class ScalarInvariants(NamedTuple):
    f: Expr
    g: Expr
    h: Expr
    sigma: Expr


def scalar_invariants(q: CurvatureQuartet) -> ScalarInvariants:
    """Symbolic (f, g, h, sigma) of the quartet.

    f = a b' - a' b + n (a^2 + b^2),  g = m b' - m' b + m a n,
    h = m a' - m' a - m b n,          sigma = f^2 - g^2 - h^2.
    """
    m, n, a, b = q
    ab2 = add(pow_(a, 2), pow_(b, 2))
    f = add(sub(mul(a, _d(b)), mul(_d(a), b)), mul(n, ab2))
    g = add(sub(mul(m, _d(b)), mul(_d(m), b)), mul(mul(m, a), n))
    h = sub(sub(mul(m, _d(a)), mul(_d(m), a)), mul(mul(m, b), n))
    sigma = sub(sub(pow_(f, 2), pow_(g, 2)), pow_(h, 2))
    return ScalarInvariants(f, g, h, sigma)


# ---------------------------------------------------------------------------
# Frames: (4, 4) arrays with rows (gamma, v1, v2, mu)


def require_finite(f):
    """Raise MinkVec's InvalidInputError at the first entry of the array f,
    in row-major order, that is not finite."""
    bad = ~np.isfinite(f)
    if bad.any():
        raise InvalidInputError(f"non-finite component in MinkVec: {float(f[bad][0])!r}")


def wedge_residual(f):
    """Relative deviation of mu from -(gamma ^ v1 ^ v2) in the frame f, or in
    each frame of an (n, 4, 4) stack.

    Normalized by the product of row magnitudes: the wedge is cubic in
    the entries, so an absolute test is meaningless for large frames.
    """
    g, v1, v2 = np.abs(f[..., :3, :]).max(axis=-1).T
    mu = f[..., 3, :] + wedge_rows(*(f[..., r, :].T for r in range(3))).T
    return np.abs(mu).max(axis=-1) / (1.0 + g * v1 * v2)


# ---------------------------------------------------------------------------
# Symbolic Frenet machinery


def _sq(e: Expr) -> Expr:
    return pow_(e, 2)


def _derivative(name: str, order: int = 1, lazy=cached_property):
    """Lazily built order-th derivative of the expression attribute `name`."""
    return lazy(lambda self: _d(getattr(self, name), order))


def _program(*names: str, lazy=cached_property):
    """Lazily compiled program of the expression attributes `names`, in order."""
    return lazy(lambda self: compile([getattr(self, n) for n in names]))


class _member(cached_property):
    """A cached_property kept in the `built` field, where a walk over the fields reaches it."""

    def __get__(self, side, owner=None):
        if side is None:
            return self
        if self.attrname not in side.built:
            side.built[self.attrname] = self.func(side)
        return side.built[self.attrname]


@dataclass(eq=False)
class FrenetSide:
    """The Frenet expressions of one side, each built on first read.

    Four pieces of data make the side: its discriminant from (a^2 + b^2,
    M^2), not through sqrt()^2; the DSL function of its theta branch; the
    closed form's denominator from (P, W^2), P = A^2 N^2 disc, which is
    sigma_F = P - W^2, or W^2 + P (it rounds unlike -sigma_F); and the
    evolute's radicand from sigma_F.  D is A N sqrt(disc).
    """

    fe: FrenetExprs
    disc_of: Callable
    arc: str
    den_of: Callable
    radicand_of: Callable
    built: dict = field(default_factory=dict)

    disc = _member(lambda self: self.disc_of(self.fe.ab2, _sq(self.fe.M)))
    D = _member(lambda self: mul(mul(self.fe.A, self.fe.N), fun("sqrt", self.disc)))
    theta = _member(lambda self: fun(self.arc, div(self.fe.W, self.D)))

    def _eps(self, lead: Expr) -> Expr:
        return sub(lead, div(mul(self.fe.M, self.fe.N), fun("sqrt", self.disc)))

    # theta' - M N / sqrt(disc), theta differentiated symbolically
    eps_path = _member(lambda self: self._eps(_d(self.theta)))

    @_member
    def eps_closed(self) -> Expr:
        # quotient form of the cuspidal edge test for the dual of the evolute
        fe = self.fe
        numer = sub(mul(self.D, _d(fe.W)), mul(_d(self.D), fe.W))
        den = self.den_of(mul(mul(fe.ab2, _sq(fe.N)), self.disc), _sq(fe.W))
        return self._eps(div(numer, den))

    @_member
    def evolute_chain(self) -> list:
        # coeffs of E and E' for E = (A^2 N gamma - M A N n1 + W n2) / sqrt(radicand)
        fe = self.fe
        root = fun("sqrt", self.radicand_of(fe.sigma_f))
        e = (div(mul(fe.ab2, fe.N), root), neg(div(mul(mul(fe.M, fe.A), fe.N), root)),
             div(fe.W, root), ZERO)
        return [e, fe.frame_coeff_derivative(e)]

    D1 = _derivative("D", lazy=_member)
    D2 = _derivative("D", 2, lazy=_member)
    eps_path1 = _derivative("eps_path", lazy=_member)
    eps_closed1 = _derivative("eps_closed", lazy=_member)

    D_program = _program("D", "D1", "D2", lazy=_member)
    # (epsilon, epsilon') along the theta branch and in closed form
    eps_path_program = _program("eps_path", "eps_path1", lazy=_member)
    eps_closed_program = _program("eps_closed", "eps_closed1", lazy=_member)
    # the 8 frame coefficients of the evolute chain, in order
    evolute_program = _member(
        lambda self: compile([c for coeffs in self.evolute_chain for c in coeffs]))


class FrenetExprs:
    """Expressions of the Frenet quantities of a quartet, built lazily.

    W is the Wronskian-type combination M A' - M' A.  `h` and `d`, the
    hyperbolic and de Sitter FrenetSide, refer back to it by a weak proxy.

    Each `*_program` attribute, here or on a side, compiles a group of roots
    that one query reads together, in the order it reads them, so a domain
    error surfaces at the same root and node as evaluating them one by one.
    """

    def __init__(self, quartet: CurvatureQuartet):
        self.quartet = quartet
        self.h = FrenetSide(weakref.proxy(self), sub, "artanh", sub, lambda sigma: sigma)
        self.d = FrenetSide(weakref.proxy(self), lambda ab2, m2: sub(m2, ab2), "atan",
                            lambda p, w2: add(w2, p), neg)

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
    def W(self) -> Expr:
        return sub(mul(self.M, _d(self.A)), mul(_d(self.M), self.A))

    @cached_property
    def sigma_f(self) -> Expr:
        return sub(mul(mul(self.ab2, _sq(self.N)), self.h.disc), _sq(self.W))

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

    M1 = _derivative("M")
    N1 = _derivative("N")
    A1 = _derivative("A")
    W1 = _derivative("W")
    W2 = _derivative("W", 2)

    # FrenetData columns, evaluated once a^2 + b^2 has passed its check
    base_program = cached_property(lambda self: compile([
        self.h.disc, self.M, self.N, self.M1, self.N1, self.A1,
        self.W, self.W1, self.W2, self.sigma_f]))

    # (a, b, a^2 + b^2) for the Frenet frame and frenet_columns; the first
    # error of a^2 + b^2 is the first of all three
    ab_columns = cached_property(
        lambda self: compile([self.quartet.a, self.quartet.b, self.ab2]))


class FrenetData(NamedTuple):
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

    def rows(self, index) -> "FrenetData":
        """Of FrenetData columns, each column indexed by `index`."""
        return FrenetData(*(v[index] if isinstance(v, np.ndarray) else v for v in self))

    def row(self, i) -> "FrenetData":
        """Of FrenetData columns, row i as frenet_data_at gives it: floats,
        and None for the D values whose discriminant is not positive."""
        row = {k: float(v[i, 0]) if isinstance(v, np.ndarray) else v
               for k, v in self._asdict().items()}
        for disc, names in (("disc_h", ("Dh", "Dh1", "Dh2")), ("disc_d", ("Dd", "Dd1", "Dd2"))):
            if not row[disc] > 0.0:
                row.update(dict.fromkeys(names))
        return FrenetData(**row)


# ---------------------------------------------------------------------------
# The integrated model


PROGRAM_ROWS = 4096  # grid rows per replay of a program over the grid table


class GridTable:
    """The Frenet quantities of a model over its whole grid, evaluated once.

    `frames`, `data` and `suspect` are frenet_columns of the grid, and
    `program` evaluates a Frenet program over it on first use; the model's
    column queries read their rows at its grid points.  Each value is the
    per-point query's at its grid t, bit for bit: on a row that is not
    suspect, and for a program, wherever it is finite.
    """

    def __init__(self, model):
        self.ts = model.ts
        self.frames, self.data, self.suspect = model.frenet_columns(model.ts)
        self._programs = {}

    def lookup(self, ts) -> tuple:
        """(rows, on): the row of each of the array ts, and whether it is that
        row's grid point: the same float, sign bit included (-0.0 is not 0.0)."""
        i = np.minimum(np.searchsorted(self.ts, ts), len(self.ts) - 1)
        g = self.ts[i]
        return i, (g == ts) & (np.signbit(g) == np.signbit(ts))

    def program(self, program) -> tuple:
        """eval_expr of the program over the (n, 1) column of the grid, one
        PROGRAM_ROWS rows at a time: the replay holds the values of a chunk."""
        if program not in self._programs:
            t = self.ts[:, None]
            parts = [eval_expr(program, t[k:k + PROGRAM_ROWS])
                     for k in range(0, len(t), PROGRAM_ROWS)]
            self._programs[program] = parts[0] if len(parts) == 1 else tuple(
                np.concatenate(c) for c in zip(*parts))
        return self._programs[program]


class FramedCurveModel:
    """The integrated frames (`frames[i]` at `ts[i]`) plus the symbolic Frenet cache.

    Per-parameter queries are pure.  The column queries (frenet_columns,
    program_columns, and frenet_data_at through them) read the grid table
    (`grid`) once it is built, where every t is one of its grid points.
    Dense output between stored samples (frames_at) continues the
    integration on the group from the nearest sample, so it stays on the
    Lorentz group up to rounding and as close to the flow as the samples.
    """

    def __init__(self, quartet, ts, frames, step, stats, tol):
        self.quartet = quartet
        self.ts = ts
        self.frames = frames
        self.step = step
        self.corrections, self.max_drift_raw, self.max_drift, self.max_drift_t = stats
        self.tol = tol
        self.frenet = FrenetExprs(quartet)

    @cached_property
    def grid(self) -> GridTable:
        """The grid table, built on first use."""
        return GridTable(self)

    def _read(self, ts, table, fresh):
        """table(grid, rows) of the grid table's rows where it is built and
        every t of the array ts is one of its grid points, as a slice where
        the rows are consecutive; else fresh(ts)."""
        grid = self.__dict__.get("grid")
        rows, on = grid.lookup(ts) if grid is not None else (None, False)
        if not np.all(on):
            return fresh(ts)
        if len(rows) and np.array_equal(rows, np.arange(rows[0], rows[0] + len(rows))):
            rows = slice(rows[0], rows[0] + len(rows))  # consecutive rows: read views
        return table(grid, rows)

    def program_columns(self, program, ts) -> tuple:
        """eval_expr(program) over the column ts[:, None]; see _read."""
        return self._read(ts, lambda grid, rows: tuple(c[rows] for c in grid.program(program)),
                          lambda ts: eval_expr(program, ts[:, None]))

    @property
    def t0(self) -> float:
        return float(self.ts[0])

    @property
    def t1(self) -> float:
        return float(self.ts[-1])

    def __len__(self):
        return len(self.ts)

    def frame_at(self, t: float) -> np.ndarray:
        """frames_at of the one t."""
        return self.frames_at(np.array([t], dtype=float))[0]

    def frames_at(self, ts) -> np.ndarray:
        """Frame matrices at each of the array ts, shape (len(ts), 4, 4).

        Within 1e-13 * span of its nearest grid point, that stored sample;
        elsewhere dense output on the group: from the nearest stored sample
        to t (backward where t lies before it), as many CF4 substeps as
        take half a sample interval in substeps no longer than `step`.
        Their count is the model's, so each t gets the bits it gets alone.
        """
        grid = self.ts
        span = max(abs(self.t0), abs(self.t1), 1.0)
        outside = (ts < self.t0 - 1e-12 * span) | (ts > self.t1 + 1e-12 * span)
        if outside.any():
            raise InvalidInputError(f"t={float(ts[outside][0])!r} outside the "
                                    f"integrated domain [{self.t0}, {self.t1}]")
        i = np.clip(np.searchsorted(grid, ts), 1, len(grid) - 1)
        i -= ts - grid[i - 1] < grid[i] - ts  # the nearest grid point
        f = self.frames[i]
        off = np.abs(ts - grid[i]) > 1e-13 * span
        if off.any():
            i, d = i[off], ts[off] - grid[i[off]]
            k = max(1, math.ceil((grid[1] - grid[0]) / (2.0 * self.step) - 1e-12))
            nodes = _GaussNodes(self.quartet, grid[i], d / k, k, ts[off])
            props = np.concatenate([p for _, p in _kernel.chunk_propagators(nodes, d / k, k)])
            f[off] = props @ f[off]
        return f

    def _require_frenet(self, t: float):
        """Raise where the Frenet type frame is undefined at t: the located
        ExprDomainError of a, b or a^2 + b^2, or a vanishing a^2 + b^2."""
        ab2 = eval_expr(self.frenet.ab_columns, t, name_t=True)[2]
        if ab2 <= self.tol.zero:
            raise FrameDegenerateError(
                f"a^2+b^2 = {ab2!r} at t={t!r}: Frenet type frame undefined")

    def frenet_frame_at(self, t: float) -> np.ndarray:
        """Rows (gamma, n1, n2, mu): the normals rotated to the Frenet pair,
        as frenet_columns gives them (a copy, never a view of the grid table)."""
        self._require_frenet(t)
        return self.frenet_columns(np.array([t], dtype=float))[0][0].copy()

    def frenet_data_at(self, t: float) -> FrenetData:
        """The row of frenet_columns at t (FrenetData.row).  Where it is
        suspect, the query raises first what evaluating its programs one at
        a time raises there: a vanishing a^2 + b^2, an ExprDomainError at t."""
        _, data, suspect = self.frenet_columns(np.array([t], dtype=float), frames=False)
        if suspect[0]:
            self._require_frenet(t)
            fe = self.frenet
            disc_h = eval_expr(fe.base_program, t, name_t=True)[0]
            for side, disc in ((fe.h, disc_h), (fe.d, -disc_h)):
                if disc > 0.0:
                    eval_expr(side.D_program, t, name_t=True)
        return data.row(0)

    def frenet_columns(self, ts, frames: bool = True) -> tuple:
        """frenet_frame_at and frenet_data_at at each of the array ts, as
        (frames, data, suspect): an (m, 4, 4) stack of Frenet frames, a
        FrenetData whose fields are (m, 1) columns, and a mask that is true
        where either query would raise or gives a value that is not finite.
        Elsewhere each value is bitwise the query's.  See _read; without
        `frames`, evaluated columns hold zero frames, so that no t is
        outside the domain."""
        return self._read(ts, lambda grid, rows: (grid.frames[rows], grid.data.rows(rows),
                                                  grid.suspect[rows]),
                          lambda ts: self._frenet_columns(ts, frames))

    def _frenet_columns(self, ts, frames: bool) -> tuple:
        fe, t, zero = self.frenet, ts[:, None], self.tol.zero
        a, b, ab2 = eval_expr(fe.ab_columns, t)
        base = eval_expr(fe.base_program, t)
        disc_h, M, N, *rest = base
        dh, dd = eval_expr(fe.h.D_program, t), eval_expr(fe.d.D_program, t)
        r2 = a * a + b * b
        f = self.frames_at(ts) if frames else np.zeros((len(ts), 4, 4))
        with np.errstate(all="ignore"):
            r = np.sqrt(r2)
            f[:, 1], f[:, 2] = (a * f[:, 1] + b * f[:, 2]) / r, (-b * f[:, 1] + a * f[:, 2]) / r
            suspect = np.hstack([~((r2 > zero) & (ab2 > zero)),
                                 ~np.isfinite(np.hstack([a, b, ab2, *base])),
                                 (disc_h > 0.0) & ~np.isfinite(np.hstack(dh)),
                                 (-disc_h > 0.0) & ~np.isfinite(np.hstack(dd)),
                                 ~np.isfinite(f.reshape(len(ts), 16))])
            data = FrenetData(t, M, N, np.sqrt(ab2), 0.0, *rest, disc_h, -disc_h, *dh, *dd)
        return f, data, suspect.any(axis=1)


# ---------------------------------------------------------------------------
# Integration driver


# the pairing and orientation residuals an initial frame may carry
INITIAL_FRAME_TOL = 1e-12


def validate_initial_frame(f):
    """Raise InvalidInputError unless the (4, 4) frame f is finite and meets
    INITIAL_FRAME_TOL."""
    require_finite(f)
    if _kernel.gram_residual(f) > INITIAL_FRAME_TOL:
        raise InvalidInputError(
            f"initial frame pairing residual {_kernel.gram_residual(f):.3e} "
            f"exceeds {INITIAL_FRAME_TOL:g}")
    if wedge_residual(f) > INITIAL_FRAME_TOL:
        raise InvalidInputError(
            "initial frame orientation must satisfy mu = -(gamma ^ v1 ^ v2) "
            "(det = +1, the orientation of the standard frame)")


class _GaussNodes:
    """The quartet at the two Gauss nodes of each of the nsub substeps of
    h[i] from starts[i], for each i, as a node source of
    propagation.propagate: a slice replays one program of the four roots at
    its own substeps' nodes (`times`) only, with the bits of all at once,
    which are eval_expr's."""

    def __init__(self, quartet, starts, h, nsub, samples):
        self.quartet, self.starts, self.h, self.nsub, self.samples = quartet, starts, h, nsub, samples
        self.shape = (len(starts) * nsub, 2, 4)
        self.program = compile(quartet)

    def times(self, lo, hi) -> np.ndarray:
        i, k = np.divmod(np.arange(lo, hi), self.nsub)
        h = self.h[i, None]
        return (self.starts[i, None] + h * k[:, None]
                + h * np.array([_kernel.GAUSS_C1, _kernel.GAUSS_C2])).ravel()

    def __getitem__(self, rows: slice) -> np.ndarray:
        t = self.times(*rows.indices(self.shape[0])[:2])
        vals = np.stack([c.reshape(-1, 2) for c in eval_expr(self.program, t)], axis=2)
        if not np.isfinite(vals).all():
            self.check()
        return vals

    def check(self):
        """Raise NumericError for the first curvature function not finite at
        some node or sample, at its first such node, else sample."""
        check_ts = np.concatenate([self.times(0, self.shape[0]), self.samples])
        for j, e in enumerate(self.quartet):
            vals = vectorized(e)(check_ts)
            if not np.all(np.isfinite(vals)):
                t_bad = float(check_ts[np.argmin(np.isfinite(vals))])
                try:
                    eval_expr(e, t_bad)  # raises a located ExprDomainError if genuine
                except ExprDomainError as exc:
                    raise NumericError(f"curvature function {j} at t={t_bad!r}: {exc}") from exc
                raise NumericError(f"curvature function {j} not finite at t={t_bad!r}")


def substep_count(domain, step=None) -> tuple:
    """(substeps per sample interval, step) by which integrate_frame covers
    domain = (t0, t1, samples): the fewest substeps no longer than `step`,
    which defaults to the sample spacing or 2e-3, whichever is shorter."""
    t0, t1, nsamples = float(domain[0]), float(domain[1]), int(domain[2])
    dt = (t1 - t0) / (nsamples - 1)
    step = float(min(2e-3, dt) if step is None else step)
    if step <= 0:
        raise InvalidInputError("step must be positive")
    if not (t1 - t0) / step < 2.0 ** 62:  # the substeps are indexed by int64
        raise InvalidInputError("domain needs over 2**62 substeps")
    return max(1, int(math.ceil(dt / step - 1e-12))), step


def integrate_frame(quartet: CurvatureQuartet, domain, initial=None,
                    step=None, tol: Tolerances = DEFAULT) -> FramedCurveModel:
    """Integrate the frame ODE over domain = (t0, t1, samples) from the
    initial frame: a (4, 4) array, its 16 reals row-major, or None for the
    standard frame.

    Returns a model holding the frame at each of the `samples` grid points;
    each sample interval is covered by CF4 substeps no longer than `step`.
    Integration holds one kernel chunk of their Gauss-node values (_GaussNodes).
    Drift in F G F^T - G is corrected above tol.frame / 10 as propagate does.
    IntegrationFailureError is raised near the worst sample of a relative
    drift beyond tol.frame, and at the first frame that is not finite.
    """
    t0, t1, nsamples = float(domain[0]), float(domain[1]), int(domain[2])
    if nsamples < 2:
        raise InvalidInputError("domain needs at least 2 samples")
    if not t1 > t0:
        raise InvalidInputError("domain must satisfy t1 > t0")
    initial = np.eye(4) if initial is None else np.asarray(initial, dtype=float).reshape(4, 4)
    validate_initial_frame(initial)
    nsub, step = substep_count(domain, step)
    dt = (t1 - t0) / (nsamples - 1)
    ts = t0 + dt * np.arange(nsamples)
    ts[-1] = t1
    hs = np.full(nsamples - 1, dt / nsub)
    substeps = np.full(nsamples - 1, nsub, dtype=np.int64)

    nodes = _GaussNodes(quartet, ts[:-1], hs, nsub, ts)
    if not all(np.isfinite(vectorized(e)(ts)).all() for e in quartet):
        nodes.check()  # check() picks the error, so checking samples first changes none
    frames, corrections, max_raw, max_final, worst = _kernel.propagate(
        nodes, hs, substeps, initial, tol.frame / 10.0)
    worst_t = float(ts[(worst + 1) // nsub])
    if not max_final <= tol.frame:
        what = (f"frame drift {max_final:.3e} survives re-orthonormalization near"
                if math.isfinite(max_final) else "frame not finite at")
        raise IntegrationFailureError(f"{what} t={worst_t!r}", worst_t=worst_t)
    stats = (int(corrections), float(max_raw), float(max_final), worst_t)
    return FramedCurveModel(quartet, ts, frames, step, stats, tol)
