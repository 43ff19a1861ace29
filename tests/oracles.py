"""Independent oracles used to derive expected values.

These deliberately avoid the engine's own code paths: the determinant is
a hand-rolled cofactor expansion, derivatives come from central
differences, reference integrations from half-step Richardson comparison
or scipy, expressions are evaluated in scalar arithmetic with their own
domain checks, by walking the tree recursively or one compiled op at a
time, epsilon crossings are bisected one midpoint at a time,
frames are propagated one substep at a time with a scalar exponential,
or one sample at a time with each Gram residual taken alone, interval
propagators are multiplied out with no product reused, and continued to an off-grid t one t and one substep at a time, surface meshes are evaluated and
written one point (or one row) at a time, loci tables are written
through csv.writer, duality samples are built and judged one at a
time, and the definedness scan, the singular loci, their
classification and the correspondence check take one grid point (or one
record) at a time, on the per-point queries as they were before they
became length-1 column batches.
"""

import csv
import math
from itertools import chain

import numpy as np

from hypframe.duality import (PAIR_NAMES, PAIR_SURFACES, DualPairSample, FrontVerdict,
                              isotropy_residuals, pair_theta_range)
from hypframe.errors import (FrameDegenerateError, InvalidInputError, NumericError,
                             SurfaceUndefinedError)
from hypframe.evolute import (BISECT_ITERS, CorrespondenceReport, DualSurfaceRecord,
                              EvolutePointType, EvoluteSample, LegReport)
from hypframe.focal import (FIBER_COUNT, FIBER_WINDOW, REFINE_DEPTH, SURFACES, D, H,
                            SingularityType, SingularPointRecord, SurfaceParam, _circ_gap,
                            _fiber, _norm_circle, _require, _undefined)
from hypframe.framedcurve import FrenetData
from hypframe.minkowski import ON_QUADRIC, MinkVec, Quadric, membership_residual
from hypframe.pipeline import project_hollow_ball, project_poincare
from hypframe import propagation as kernel
from hypframe.propagation import (_CF4_A, _CF4_B, FLOOR_MARGIN, GAUSS_C1, GAUSS_C2,
                                  _substep_propagators, _tree_product, chunk_propagators,
                                  coefficient_matrix_values, expm_generator, gram_drift,
                                  gram_residual, pseudo_orthonormalize)
from hypframe.symexpr import Expr, ExprDomainError, Program
from hypframe.tolerances import is_zero

# each DSL function: its NumPy ufunc, taken here on one np.float64, and,
# where it has one, the test of the arguments off its domain and the error
# text there
DSL_FUNCTIONS = {
    "sin": (np.sin,), "cos": (np.cos,), "tan": (np.tan,),
    "sinh": (np.sinh,), "cosh": (np.cosh,), "tanh": (np.tanh,),
    "exp": (np.exp,), "atan": (np.arctan,),
    "log": (np.log, lambda x: x <= 0.0, "log of non-positive value {!r}"),
    "sqrt": (np.sqrt, lambda x: x < 0.0, "sqrt of negative value {!r}"),
    "artanh": (np.arctanh, lambda x: abs(x) >= 1.0, "artanh of value {!r} outside (-1, 1)"),
}


def fun_value(name, x, node=None):
    """The DSL function `name` at the float x, the ufunc's value on one
    np.float64, raising an ExprDomainError against node off its domain."""
    ufunc, *domain = DSL_FUNCTIONS[name]
    if domain and domain[0](x):
        raise ExprDomainError(domain[1].format(x), node)
    with np.errstate(all="ignore"):
        return float(ufunc(np.float64(x)))


def atan2(y, x):
    """The angle of (x, y), np.arctan2's value on one np.float64 pair."""
    return float(np.arctan2(np.float64(y), np.float64(x)))


def checked_den(y, node):
    """The denominator y of the division node, which must not be zero."""
    if y == 0.0:
        raise ExprDomainError("division by zero", node)
    return y


def pow_value(b, k, node):
    """b ** k in np.float64 arithmetic, raising an ExprDomainError against
    node for zero to a negative power: the product of the squares b, b^2,
    b^4, ... that the bits of |k| select, lowest bit first, then one
    reciprocal for a negative k."""
    if b == 0.0 and k < 0:
        raise ExprDomainError("zero raised to a negative power", node)
    square, out = np.float64(b), np.float64(1.0)
    with np.errstate(all="ignore"):
        for bit in reversed(bin(abs(k))[2:]):
            if bit == "1":
                out = out * square
            square = square * square
        return float(out if k >= 0 else 1.0 / out)


def tree_eval(e, t):
    """Scalar value of e at t by a recursive walk of the tree (operands left
    to right, a division's denominator first), with domain checks and IEEE
    overflow rules of its own."""
    match e:
        case Expr("num", v):
            return v
        case Expr("var"):
            return float(t)
        case Expr("neg", u):
            return -tree_eval(u, t)
        case Expr("add", x, y):
            return tree_eval(x, t) + tree_eval(y, t)
        case Expr("sub", x, y):
            return tree_eval(x, t) - tree_eval(y, t)
        case Expr("mul", x, y):
            return tree_eval(x, t) * tree_eval(y, t)
        case Expr("div", x, y):
            den = checked_den(tree_eval(y, t), e)
            return tree_eval(x, t) / den
        case Expr("pow", u, k):
            return pow_value(tree_eval(u, t), k, e)
        case Expr("fun", u, name):
            return fun_value(name, tree_eval(u, t), e)
    raise TypeError(f"not an Expr: {e!r}")


# tree_eval's rule for each kind of op of a compiled program, (v, t, node,
# a, b) -> value, as symexpr.Program lays ops out: a den op checks the
# denominator of its div before the numerator is evaluated
OP_RULES = {
    "num": lambda v, t, node, a, b: node.a,
    "var": lambda v, t, node, a, b: float(t),
    "neg": lambda v, t, node, a, b: -v[a],
    "add": lambda v, t, node, a, b: v[a] + v[b],
    "sub": lambda v, t, node, a, b: v[a] - v[b],
    "mul": lambda v, t, node, a, b: v[a] * v[b],
    "den": lambda v, t, node, a, b: checked_den(v[a], node),
    "div": lambda v, t, node, a, b: v[a] / v[b],
    "pow": lambda v, t, node, a, b: pow_value(v[a], b, node),
    "fun": lambda v, t, node, a, b: fun_value(b, v[a], node),
}


def replay(program, t):
    """The values of a compiled program's roots at the float t, its ops
    taken one at a time by tree_eval's rules, so that the walk of each
    shared node is done once."""
    v = []
    for kind, node, a, b in program.ops:
        v.append(OP_RULES[kind](v, t, node, a, b))
    return tuple(v[i] for i in program.outputs)


def expm4(x):
    """exp of one 4x4 matrix: scale below 1/32, 12-term Taylor, square back."""
    nrm = float(np.abs(x).sum(axis=1).max())
    s = 0
    while nrm > 0.03125:
        nrm *= 0.5
        s += 1
    y = x / (2.0 ** s)
    e = np.eye(4)
    term = np.eye(4)
    for k in range(1, 13):
        term = term @ y / k
        e = e + term
    for _ in range(s):
        e = e @ e
    return e


def propagate_loop(node_vals, hs, substeps, f0, tol_correct):
    """The CF4 kernel one substep at a time, checking drift at each substep.

    Same inputs and 5-tuple as `hypframe.propagation.propagate`, except that
    corrections and drifts are counted per substep and the worst index is
    the substep itself.
    """
    nint = len(hs)
    frames = np.empty((nint + 1, 4, 4))
    f = np.array(f0, dtype=float)
    frames[0] = f
    corrections = 0
    max_raw = 0.0
    max_final = 0.0
    worst = 0
    pos = 0
    for i in range(nint):
        h = hs[i]
        for _ in range(int(substeps[i])):
            a1 = coefficient_matrix_values(*node_vals[pos, 0])
            a2 = coefficient_matrix_values(*node_vals[pos, 1])
            e1 = expm4(h * (_CF4_A * a1 + _CF4_B * a2))
            e2 = expm4(h * (_CF4_B * a1 + _CF4_A * a2))
            f = e2 @ (e1 @ f)
            drift = gram_drift(f)
            if drift > max_raw:
                max_raw = drift
            if gram_residual(f) > tol_correct:
                f = pseudo_orthonormalize(f)
                corrections += 1
                drift = gram_drift(f)
            if drift > max_final:
                max_final = drift
                worst = pos
            pos += 1
        frames[i + 1] = f
    return frames, corrections, max_raw, max_final, worst


def gram_one(f):
    """(residual, drift) of the one frame f: max |F G F^T - G|, and that over
    (1 + max row norm^2), from one 2-D product, as floats."""
    g = (f * np.array([-1.0, 1.0, 1.0, 1.0])) @ f.T
    g[0, 0] += 1.0
    g[1, 1] -= 1.0
    g[2, 2] -= 1.0
    g[3, 3] -= 1.0
    residual = float(np.abs(g).max())
    return residual, residual / (1.0 + float((f * f).sum(axis=1).max()))


def chunk_propagators_without_reuse(node_vals, hs, nsub):
    """The propagators of `kernel.chunk_propagators`, as one chunk, with every
    substep exponentiated and no product reused: each interval's substeps
    multiplied by the kernel's tree product, or, for an interval longer than
    kernel.CHUNK_SUBSTEPS, each segment of that many in time order."""
    seg, props = min(nsub, kernel.CHUNK_SUBSTEPS), []
    for i, h in enumerate(hs):
        p = None
        for lo in range(i * nsub, (i + 1) * nsub, seg):
            vals = node_vals[lo:min(lo + seg, (i + 1) * nsub)]
            w1, w2 = vals[:, 0], vals[:, 1]
            steps = (expm_generator(h * (_CF4_B * w1 + _CF4_A * w2))
                     @ expm_generator(h * (_CF4_A * w1 + _CF4_B * w2)))
            q = _tree_product(steps[None])[0]
            p = q if nsub <= seg else q @ (np.eye(4) if p is None else p)
        props.append(p)
    yield 0, np.array(props)


def propagate_per_sample(node_vals, hs, substeps, f0, tol_correct):
    """`kernel.propagate` one sample at a time: each frame chained, checked
    alone (gram_one) and corrected where its floor lets a correction reach
    tol_correct, stopping at the first frame whose drift is not finite."""
    nsub = int(substeps[0])
    frames = np.full((len(hs) + 1, 4, 4), np.nan)
    f = frames[0] = f0
    corrections, max_raw, max_final, worst = 0, 0.0, 0.0, nsub - 1
    floor = FLOOR_MARGIN * np.finfo(float).eps
    chunks = chunk_propagators(node_vals, hs, nsub)
    with np.errstate(over="ignore", invalid="ignore"):
        for i, p in chain.from_iterable(enumerate(props, first) for first, props in chunks):
            f = p @ f
            residual, drift = gram_one(f)
            max_raw = max(max_raw, drift)
            if tol_correct < residual and floor * residual < tol_correct * drift:
                f = pseudo_orthonormalize(f)
                corrections += 1
                drift = gram_one(f)[1]
            frames[i + 1] = f
            if not drift <= max_final:
                max_final, worst = drift, (i + 1) * nsub - 1
                if not math.isfinite(drift):
                    break
    return frames, corrections, max_raw, max_final, worst


def constraint_residuals(model, t, point, side):
    """Residuals of a focal point's defining constraints at t, in the
    coordinates of the stored frame.

    The point written as u1 gamma + u2 v1 + u3 v2 + u4 mu must have u4 = 0,
    m u1 + a u2 + b u3 = 0 and kappa (u1^2 - u2^2 - u3^2) = 1, with the
    side's kappa (+1 on H3, -1 on de Sitter space).
    """
    g = point.as_array() * np.array([-1.0, 1, 1, 1])
    u1, u2, u3, u4 = (float(np.dot(g, row)) for row in model.frame_at(t))
    u1 = -u1
    m, _, a, b = (tree_eval(e, t) for e in model.quartet)
    return {"linear": m * u1 + a * u2 + b * u3, "mu_component": u4,
            "quadric": side.kappa * (u1 * u1 - u2 * u2 - u3 * u3) - 1.0}


def cofactor_det4(rows):
    """4x4 determinant by cofactor expansion along the first row."""
    m = [[float(v) for v in row] for row in rows]

    def det3(a):
        return (a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
                - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
                + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0]))

    total = 0.0
    sign = 1.0
    for j in range(4):
        minor = [[m[i][k] for k in range(4) if k != j] for i in range(1, 4)]
        total += sign * m[0][j] * det3(minor)
        sign = -sign
    return total


def central_diff(f, x, h=1e-6):
    """Central first difference of a scalar- or vector-valued callable."""
    return (np.asarray(f(x + h)) - np.asarray(f(x - h))) / (2.0 * h)


def fd_partials(pointfn, t, theta, h=1e-5):
    """(d/dt, d/dtheta) of a surface map by central differences."""
    ft = (np.asarray(pointfn(t + h, theta)) - np.asarray(pointfn(t - h, theta))) / (2 * h)
    fth = (np.asarray(pointfn(t, theta + h)) - np.asarray(pointfn(t, theta - h))) / (2 * h)
    return ft, fth


def bisect_sign_change(f, a, b, iters=80):
    """Root of f by bisection; f(a) and f(b) must have opposite signs."""
    fa, fb = f(a), f(b)
    assert fa * fb < 0, "no sign change in bracket"
    for _ in range(iters):
        m = 0.5 * (a + b)
        fm = f(m)
        if fm == 0.0:
            return m
        if (fa < 0) != (fm < 0):
            b, fb = m, fm
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


def random_mink_vectors(rng, n, scale=2.0):
    """Deterministic batch of random 4-vectors."""
    return rng.uniform(-scale, scale, size=(n, 4))


# ---------------------------------------------------------------------------
# The per-point queries, as they were before they became length-1 column
# batches: one program at a time in scalar arithmetic.  The grid stages'
# oracles below are built on them.


def fiber(name, theta):
    """A fiber function, named as a DSL function, at the float theta."""
    return fun_value(name, theta)


def located(e, t):
    """The value of the Expr e (tree_eval), or the values of the compiled
    program e (replay), at the float t, its ExprDomainError naming t, as
    the per-point queries raise it."""
    try:
        return replay(e, t) if isinstance(e, Program) else tree_eval(e, t)
    except ExprDomainError as exc:
        raise ExprDomainError(exc.message, exc.subexpr, t) from exc


def eps_values(model, t, side):
    """(epsilon, epsilon', fallback) at the float t: along the symbolically
    differentiated theta branch, else, where that raises or is not finite,
    in the closed form, which raises located."""
    try:
        eps, eps1 = replay(side.frenet(model).eps_path_program, t)
        fallback = not (math.isfinite(eps) and math.isfinite(eps1))
    except ExprDomainError:
        fallback = True
    if fallback:
        eps, eps1 = located(side.frenet(model).eps_closed_program, t)
    return eps, eps1, fallback


def bisect_eps_zero(model, side, ta, tb, ea, eb):
    """The epsilon zero between ta and tb, where eps_values changes sign
    from ea to eb, one midpoint at a time, as `hypframe.evolute` locates it."""
    for _ in range(BISECT_ITERS):
        tm = 0.5 * (ta + tb)
        em = eps_values(model, tm, side)[0]
        if em == 0.0:
            return tm
        if (ea < 0) != (em < 0):
            tb, eb = tm, em
        else:
            ta, ea = tm, em
        if tb - ta <= 1e-14 * max(1.0, abs(ta), abs(tb)):
            break
    return 0.5 * (ta + tb)


def frenet_data(model, t):
    """`FramedCurveModel.frenet_data_at` one program at a time at the float t."""
    fe = model.frenet
    ab2 = located(fe.ab2, t)
    if ab2 <= model.tol.zero:
        raise FrameDegenerateError(
            f"a^2+b^2 = {ab2!r} at t={t!r}: Frenet type frame undefined")
    disc_h, M, N, M1, N1, A1, W, W1, W2, sigma_f = located(fe.base_program, t)
    data = dict(t=t, M=M, N=N, A=math.sqrt(ab2), B=0.0, M1=M1, N1=N1, A1=A1,
                W=W, W1=W1, W2=W2, sigma_f=sigma_f, disc_h=disc_h, disc_d=-disc_h)
    if disc_h > 0.0:
        data.update(zip(("Dh", "Dh1", "Dh2"), located(fe.h.D_program, t)))
    if -disc_h > 0.0:
        data.update(zip(("Dd", "Dd1", "Dd2"), located(fe.d.D_program, t)))
    return FrenetData(**data)


def undefined_at(model, t, side, evolute=False):
    """`hypframe.focal._undefined_at` on frenet_data."""
    try:
        data = frenet_data(model, t)
    except FrameDegenerateError as exc:
        return str(exc)
    return _undefined(side, data, model.tol, evolute)


def scale(data):
    """`hypframe.focal._scale` of one FrenetData: the largest magnitude of its
    values, each D counted where frenet_data sets it."""
    vals = (data.M, data.N, data.A, data.M1, data.N1, data.A1, data.W, data.W1, data.W2,
            data.Dh, data.Dh1, data.Dh2, data.Dd, data.Dd1, data.Dd2)
    return max(abs(v) for v in vals if v is not None)


def by_epsilon(eps, eps1, s, tol, types):
    """types[0] iff epsilon != 0, types[1] iff epsilon = 0 and epsilon' != 0,
    else types[2], at one point (NaN is not zero)."""
    if not is_zero(eps, s, tol):
        return types[0]
    if not is_zero(eps1, s, tol):
        return types[1]
    return types[2]


POINT_TYPES = (EvolutePointType.REGULAR_POINT, EvolutePointType.CUSP_234,
               EvolutePointType.DEGENERATE_UNCLASSIFIED)
DUAL_TYPES = (SingularityType.CUSPIDAL_EDGE, SingularityType.CUSPIDAL_CROSS_CAP,
              SingularityType.DEGENERATE_UNCLASSIFIED)
EDGE_OR_SWALLOWTAIL = (SingularityType.CUSPIDAL_EDGE, SingularityType.SWALLOWTAIL,
                       SingularityType.DEGENERATE_UNCLASSIFIED)


def edge_or_beaks(c1, c2, c3, s, root, mn, tol):
    """Branch (b) of the focal classification at one point."""
    if not is_zero(c1, s, tol):
        return SingularityType.CUSPIDAL_EDGE
    if not is_zero(c2, s, tol) and not is_zero(c3, s * (1 + root + abs(mn)), tol):
        return SingularityType.CUSPIDAL_BEAKS
    return SingularityType.DEGENERATE_UNCLASSIFIED


def agreements(focal, evolute, dual):
    """The five correspondences that `hypframe.evolute._leg` checks at a
    point with these focal, evolute and dual types, each written out."""
    regular = evolute is EvolutePointType.REGULAR_POINT
    cusp = evolute is EvolutePointType.CUSP_234
    return {
        "focal_ce_iff_evolute_regular": (focal is SingularityType.CUSPIDAL_EDGE) == regular,
        "focal_sw_iff_evolute_cusp": (focal is SingularityType.SWALLOWTAIL) == cusp,
        "dual_ce_iff_evolute_regular": (dual is SingularityType.CUSPIDAL_EDGE) == regular,
        "dual_ccr_iff_evolute_cusp": (dual is SingularityType.CUSPIDAL_CROSS_CAP) == cusp,
        "focal_sw_iff_dual_ccr":
            (focal is SingularityType.SWALLOWTAIL) == (dual is SingularityType.CUSPIDAL_CROSS_CAP),
    }


def fiber_points(side, model, t, c, s, dual=False):
    """The side's focal surface (with `dual`, the dual of its evolute) at the
    float t, one row per entry of the fiber arrays c and s: the Frenet
    queries, the definedness rule, then the rows against the Frenet frame."""
    data = frenet_data(model, t)
    r = math.sqrt(_require(side, data, model, evolute=dual)[0])
    f0, f1, f2, f3 = model.frenet_frame_at(t)
    c, s = c[:, None], s[:, None]
    if dual:
        return c * f3 + (s / r) * (-data.M * f0 + data.A * f1)
    return (c / r) * (data.A * f0 - data.M * f1) + s * f2


def point_loop(model, side, t, theta, dual=False):
    """`hypframe.focal.focal_h_point` and its siblings at one (t, theta)."""
    return MinkVec.from_array(fiber_points(side, model, t, *_fiber(side, [theta], dual), dual))


def partials_loop(model, side, t, theta, dual=False):
    """(dF/dt, dF/dtheta) of the side's focal surface (with `dual`, of the
    dual of its evolute) at one (t, theta), in scalar arithmetic."""
    data = frenet_data(model, t)
    r = math.sqrt(_require(side, data, model, evolute=dual)[0])
    f = frenet_frame(model, t)
    k, r3 = side.kappa, pow_value(r, 3, None)
    if dual:
        c, s = fiber(side.dual_c, theta), fiber(side.dual_s, theta)
        ft = (c * data.M + k * s * data.A * data.W / r3) * f[0] \
            + (-c * data.A - k * s * data.M * data.W / r3) * f[1] \
            + (s * data.A * data.N / r) * f[2] \
            + (k * s * r) * f[3]
        fth = (c / r) * (-data.M * f[0] + data.A * f[1]) - k * s * f[3]
    else:
        c, s = fiber(side.c, theta), fiber(side.s, theta)
        ft = (-k * c * data.M * data.W / r3) * f[0] \
            + (k * c * data.A * data.W / r3 - s * data.N) * f[1] \
            + (-c * data.M * data.N / r) * f[2]
        fth = (k * s * data.A / r) * f[0] + (-k * s * data.M / r) * f[1] + c * f[2]
    return MinkVec.from_array(ft), MinkVec.from_array(fth)


def lambda_loop(model, side, t, theta):
    """`hypframe.focal.lambda_h` (side H) or `_d` (side D) at one (t, theta)."""
    data = frenet_data(model, t)
    disc, d0 = _require(side, data, model)[:2]
    return (fiber(side.c, theta) * data.W - fiber(side.s, theta) * d0) / disc


def lambda_dual_loop(model, side, t, theta):
    """`hypframe.evolute.lambda_dual_h` (side H) or `_d` (side D) at one (t, theta)."""
    data = frenet_data(model, t)
    disc = _require(side, data, model, evolute=True)[0]
    return side.kappa * fiber(side.dual_s, theta) * math.sqrt(side.kappa * data.sigma_f) / disc


def evolute_sample(model, t, side):
    """`hypframe.evolute.evolute_h` (side H) or `_d` (side D) at the float t:
    the Frenet queries, the definedness rule, the 8 frame coefficients of
    E and E' against the Frenet frame, then epsilon by eps_values."""
    data = frenet_data(model, t)
    _require(side, data, model, evolute=True)
    f = model.frenet_frame_at(t)
    coeffs = located(side.frenet(model).evolute_program, t)
    e, e1 = [MinkVec.from_array(np.array(coeffs[k:k + 4]) @ f) for k in (0, 4)]
    eps, eps1, fallback = eps_values(model, t, side)
    ptype = by_epsilon(eps, eps1, scale(data), model.tol.sing, POINT_TYPES)
    diag = {"sigma_f": data.sigma_f}
    if fallback:
        diag["epsilon_via_closed_form"] = True
    return EvoluteSample(t=t, point=e, derivative1=e1, point_type=ptype, epsilon=eps,
                         epsilon_prime=eps1, diagnostics=diag)


# ---------------------------------------------------------------------------
# Surface meshes one point at a time


def frame_at_loop(model, t):
    """`FramedCurveModel.frame_at` one t at a time: the stored sample within
    1e-13 * span of the nearest grid point, else as many CF4 substeps as
    take half a sample interval in substeps no longer than model.step, from
    that sample to t, exponentiated from their scalar node values (each row
    of the kernel's exponential depends on that row alone) and multiplied
    by the kernel's pairwise tree product."""
    ts = model.ts
    span = max(abs(model.t0), abs(model.t1), 1.0)
    if t < model.t0 - 1e-12 * span or t > model.t1 + 1e-12 * span:
        raise InvalidInputError(
            f"t={t!r} outside the integrated domain [{model.t0}, {model.t1}]")
    i = min(max(int(np.searchsorted(ts, t)), 1), len(ts) - 1)
    if t - ts[i - 1] < ts[i] - t:
        i -= 1
    if abs(t - ts[i]) <= 1e-13 * span:
        return model.frames[i].copy()
    k = max(1, math.ceil((ts[1] - ts[0]) / (2.0 * model.step) - 1e-12))
    h = (t - ts[i]) / k
    nodes = [[[tree_eval(e, ts[i] + h * s + h * c) for e in model.quartet]
              for c in (GAUSS_C1, GAUSS_C2)] for s in range(k)]
    steps = _substep_propagators(np.array(nodes), np.full(k, h))
    return _tree_product(steps[None])[0] @ model.frames[i]


def frenet_frame(model, t):
    """The Frenet-type frame at t computed afresh, with no memo: the model's
    frame (frame_at_loop) with its normals rotated by (a, b) / sqrt(a^2 + b^2)."""
    a, b = tree_eval(model.quartet.a, t), tree_eval(model.quartet.b, t)
    r = math.sqrt(a * a + b * b)
    f = frame_at_loop(model, t)
    return np.array([f[0], (a * f[1] + b * f[2]) / r, (-b * f[1] + a * f[2]) / r, f[3]])


# mesh surface -> (its side, whether it is the dual of the side's evolute)
MESH_SURFACES = {H.focal: (H, False), D.focal: (D, False), H.dual: (H, True), D.dual: (D, True)}


def surface_row(model, which, t, theta):
    """One point of a focal surface, (c/r)(A f0 - M f1) + s f2, or of the
    dual of an evolute, c f3 + (s/r)(-M f0 + A f1), as scalar arithmetic,
    unchecked: an array of its four components."""
    side, dual = MESH_SURFACES[which]
    data = frenet_data(model, t)
    disc = _require(side, data, model, evolute=dual)[0]
    f = frenet_frame(model, t)
    r = math.sqrt(disc)
    if dual:
        return fiber(side.dual_c, theta) * f[3] \
            + (fiber(side.dual_s, theta) / r) * (-data.M * f[0] + data.A * f[1])
    return (fiber(side.c, theta) / r) * (data.A * f[0] - data.M * f[1]) \
        + fiber(side.s, theta) * f[2]


def surface_point(model, which, t, theta):
    """surface_row as a MinkVec, which must be finite."""
    return MinkVec.from_array(surface_row(model, which, t, theta))


def surface_grid_loop(model, which, ts, thetas):
    """`hypframe.focal.surface_grid` one point at a time: each point built,
    raising where its surface is undefined, then each checked in turn for
    lying on its quadric, where a point that is not finite does not."""
    if which not in MESH_SURFACES:
        raise InvalidInputError(f"unknown surface {which!r}")
    ts = np.asarray(ts, dtype=float)
    thetas = np.asarray(thetas, dtype=float)
    out = np.empty((len(ts), len(thetas), 4))
    for i, t in enumerate(ts):
        for j, th in enumerate(thetas):
            try:
                out[i, j] = surface_row(model, which, float(t), float(th))
            except SurfaceUndefinedError as exc:
                raise SurfaceUndefinedError(
                    f"grid point (i={i}, j={j}): {exc}") from exc
    return on_quadric_loop(which, ts, out)


def on_quadric_loop(which, ts, out):
    """The grid out of surface `which` over ts, each point checked in turn
    for lying on its quadric, where a point that is not finite does not."""
    quadric = Quadric.H3 if which == H.focal else Quadric.S31
    for i, j in np.ndindex(*out.shape[:2]):
        x = out[i, j].tolist()
        residual = -x[0] * x[0] + x[1] * x[1] + x[2] * x[2] + x[3] * x[3] \
            + (1.0 if quadric is Quadric.H3 else -1.0)
        if not abs(residual) <= ON_QUADRIC:
            point = ", ".join(f"x{k}={v!r}" for k, v in enumerate(x))
            raise NumericError(f"grid point (i={i}, j={j}) at t={float(ts[i])!r}: {which} "
                               f"point MinkVec({point}) is not on {quadric.value}")
    return out


def poincare_point(x):
    """Poincare-ball chart of H3 at one point, in scalar arithmetic."""
    if abs(membership_residual(x, Quadric.H3)) > 1e-6:
        raise InvalidInputError(f"point {x} is not on H3")
    d = 1.0 + x.x0
    return (x.x1 / d, x.x2 / d, x.x3 / d)


def hollow_ball_point(x):
    """Hollow-ball chart of S31 at one point, in scalar arithmetic."""
    if abs(membership_residual(x, Quadric.S31)) > 1e-6:
        raise InvalidInputError(f"point {x} is not on S31")
    d = 1.0 + math.sqrt(1.0 + x.x0 * x.x0)
    return (x.x1 / d, x.x2 / d, x.x3 / d)


POINT_CHARTS = {project_poincare: poincare_point, project_hollow_ball: hollow_ball_point}


def export_obj_loop(grids, projection, path):
    """`hypframe.pipeline.export_obj` one vertex and one face at a time, with
    the scalar chart that stands for projection."""
    projection = POINT_CHARTS[projection]
    if isinstance(grids, np.ndarray):
        grids = [grids]
    lines = ["# hypframe surface mesh"]
    offset = 0
    for grid in grids:
        grid = np.asarray(grid, dtype=float)
        if not grid.size:
            continue
        rows, cols = grid.shape[0], grid.shape[1]
        lines.append(f"# grid {rows} x {cols}")
        for i in range(rows):
            for j in range(cols):
                y = projection(MinkVec.from_array(grid[i, j]))
                lines.append(f"v {float(y[0])!r} {float(y[1])!r} {float(y[2])!r}")
        for i in range(rows - 1):
            for j in range(cols - 1):
                a = offset + i * cols + j + 1
                lines.append(f"f {a} {a + 1} {a + cols + 1} {a + cols}")
        offset += rows * cols
    with open(path, "wb") as fh:
        fh.write(("\n".join(lines) + "\n").encode("utf-8"))


def export_loci_csv_writer(records, path):
    """`hypframe.pipeline.export_loci_csv` through csv.writer, one record of
    a loci table at a time, each float as its repr."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["surface", "t", "theta", "lambda", "sigma_F",
                         "type", "nondegenerate"])
        for r in records:
            writer.writerow([r.surface, repr(float(r.param.t)), repr(float(r.param.theta)),
                             repr(float(r.lam)), repr(float(r.sigma_f)), r.type.value,
                             "true" if r.nondegenerate else "false"])


def export_evolute_csv_writer(rows, path):
    """The evolute CSV of `hypframe evolute --out` through csv.writer, one
    row of evolute.evolute_rows at a time, each float as its repr."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "side", "epsilon", "epsilon_prime", "point_type"])
        for t, side, eps, eps1, ptype in rows:
            writer.writerow([repr(float(t)), side, repr(float(eps)), repr(float(eps1)), ptype])


# ---------------------------------------------------------------------------
# Duality samples one at a time


def pair_sample_loop(model, pair, t, theta):
    """One sample of a dual pair as `hypframe.duality.pair_sample` built it
    before it took batches: the Frenet queries, the definedness rule, then
    each leg and partial in scalar arithmetic against frenet_frame, raising
    where that path raised and in its order."""
    side, surface = PAIR_SURFACES[pair]
    dual = surface == side.dual
    model.frenet_frame_at(t)
    data = frenet_data(model, t)
    _require(side, data, model, evolute=dual)
    f = frenet_frame(model, t)
    zero = MinkVec(0.0, 0.0, 0.0, 0.0)
    p = surface_point(model, surface, t, theta)
    pt, pth = partials_loop(model, side, t, theta, dual)
    if not dual:
        g = MinkVec.from_array(f[3])
        gt = MinkVec.from_array(data.M * f[0] - data.A * f[1])
        return DualPairSample(p, g, pt, pth, gt, zero, side.fibration)
    coeffs = located(side.frenet(model).evolute_program, t)
    e, e1 = [MinkVec.from_array(np.array(coeffs[j:j + 4]) @ f) for j in (0, 4)]
    eps_values(model, t, side)  # the evolute evaluated epsilon, and could raise there
    legs = ((e, e1, zero), (p, pt, pth))
    (f0, f0t, f0th), (g, gt, gth) = legs if side.evolute_first else legs[::-1]
    return DualPairSample(f0, g, f0t, f0th, gt, gth, side.fibration)


def front_verdict_loop(samples, tol):
    """`hypframe.duality.front_verdict` one sample and one SVD at a time."""
    immersion = True
    for s in samples:
        if max(abs(r) for r in isotropy_residuals(s)) > tol.dual:
            return FrontVerdict.NOT_ISOTROPIC
        col_u = np.concatenate([s.df_du.as_array(), s.dg_du.as_array()])
        col_v = np.concatenate([s.df_dv.as_array(), s.dg_dv.as_array()])
        sv = np.linalg.svd(np.stack([col_u, col_v], axis=1), compute_uv=False)
        if sv[1] <= tol.rank_rtol * sv[0]:
            immersion = False
    return FrontVerdict.FRONT if immersion else FrontVerdict.FRONTAL


def duality_draws(rng, spans, count, theta_range):
    """(t, theta) draws of the duality summary, one at a time: t uniform on
    the union of the spans, theta uniform on theta_range."""
    total = sum(hi - lo for lo, hi in spans)
    th_lo, th_hi = theta_range
    draws = []
    for _ in range(count):
        x = total * rng.random()
        for lo, hi in spans:
            if x <= hi - lo:
                break
            x -= hi - lo
        draws.append((lo + x, th_lo + (th_hi - th_lo) * rng.random()))
    return draws


def duality_summary_loop(model, runs):
    """`hypframe.pipeline.duality_summary` one sample at a time: at each grid
    index i of the pair's runs, t = ts[i] and theta at ((i + 1/2) phi) mod 1
    of the pair's window, phi the golden-ratio conjugate."""
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    out = {}
    for pair in PAIR_NAMES:
        index = list(chain.from_iterable(runs[PAIR_SURFACES[pair][1]]))
        if not index:
            out[pair] = {"status": "skipped", "reason": "surface not defined"}
            continue
        lo, hi = pair_theta_range(pair)
        samples = [pair_sample_loop(model, pair, float(model.ts[i]),
                                    lo + (hi - lo) * ((i + 0.5) * phi % 1.0)) for i in index]
        worst = max(max(abs(r) for r in isotropy_residuals(s)) for s in samples)
        out[pair] = {"status": "checked", "samples": len(samples), "max_residual": worst,
                     "verdict": front_verdict_loop(samples, model.tol).value,
                     "pass": worst <= model.tol.dual}
    return out


# ---------------------------------------------------------------------------
# Grid stages one grid point at a time.  Run them on a model whose grid
# table is never built, so that every query takes the per-point path.


def defined_runs_loop(model):
    """`hypframe.focal.defined_runs` one grid t at a time: the definedness
    rule through `undefined_at` at each t in order, then the index runs."""
    ok = [[undefined_at(model, float(t), *rule) is None for rule in SURFACES.values()]
          for t in model.ts]
    runs = {}
    for k, name in enumerate(SURFACES):
        edges = np.flatnonzero(np.diff([False, *(row[k] for row in ok), False])).tolist()
        runs[name] = [range(a, b) for a, b in zip(edges[::2], edges[1::2])]
    return runs


def surface_grid_rows(model, which, ts, thetas):
    """`hypframe.focal.surface_grid` one row at a time, as `fiber_points`
    over the whole theta row, before it became one broadcast, then
    on_quadric_loop."""
    if which not in MESH_SURFACES:
        raise InvalidInputError(f"unknown surface {which!r}")
    side, dual = MESH_SURFACES[which]
    ts = np.asarray(ts, dtype=float).tolist()
    thetas = np.asarray(thetas, dtype=float).tolist()
    out = np.empty((len(ts), len(thetas), 4))
    if not thetas:
        return out
    c, s = _fiber(side, thetas, dual)
    for i, t in enumerate(ts):
        try:
            out[i] = fiber_points(side, model, t, c, s, dual)
        except SurfaceUndefinedError as exc:
            raise SurfaceUndefinedError(f"grid point (i={i}, j=0): {exc}") from exc
    return on_quadric_loop(which, ts, out)


def root_record(side, t, data, theta, whole_fiber=False):
    """A locus record at (t, theta) from the FrenetData at t."""
    disc, d0 = side.columns(data)[:2]
    lam = (fiber(side.c, theta) * data.W - fiber(side.s, theta) * d0) / disc
    diag = {"lambda_at_root": lam}
    if not whole_fiber:
        diag["sigma_f"] = data.sigma_f
    return SingularPointRecord(surface=side.focal, param=SurfaceParam(t, theta), lam=lam,
                               sigma_f=data.sigma_f, whole_fiber=whole_fiber,
                               diagnostics=diag)


def singular_locus_loop(model, ts, side):
    """`hypframe.focal.singular_locus_h` (side H) or `_d` (side D) one grid t
    at a time: each t's FrenetData, its whole fiber where (W, D) vanishes,
    else its roots; on the de Sitter side, refinement where neighbouring
    roots jump by more than pi/2."""
    entries = []
    for t in ts:
        t = float(t)
        data = frenet_data(model, t)
        d0 = _require(side, data, model)[1]
        s = scale(data)
        if is_zero(data.W, s, model.tol.sing) and is_zero(d0, s, model.tol.sing):
            entries.append((t, None, data))
        elif side is D:
            entries.append((t, _norm_circle(atan2(data.W, d0)), data))
        elif not _undefined(H, data, model.tol, evolute=True):
            entries.append((t, fun_value("artanh", data.W / d0), data))
    if side is D:
        refined = list(entries)
        for (t_a, th_a, _), (t_b, th_b, _) in zip(entries, entries[1:]):
            if th_a is None or th_b is None:
                continue
            stack = [(t_a, th_a, t_b, th_b, 0)]
            while stack:
                ta, tha, tb, thb, depth = stack.pop()
                if _circ_gap(tha, thb) <= 0.5 * math.pi or depth >= REFINE_DEPTH:
                    continue
                tm = 0.5 * (ta + tb)
                if undefined_at(model, tm, D):
                    continue
                data_m = frenet_data(model, tm)
                thm = _norm_circle(atan2(data_m.W, data_m.Dd))
                refined.append((tm, thm, data_m))
                stack.append((ta, tha, tm, thm, depth + 1))
                stack.append((tm, thm, tb, thb, depth + 1))
        entries = sorted(refined, key=lambda e: e[0])
    fiber = (np.linspace(FIBER_WINDOW[0], FIBER_WINDOW[1], FIBER_COUNT) if side is H
             else np.linspace(0.0, 2.0 * math.pi, FIBER_COUNT, endpoint=False))
    records = []
    for t, theta, data in entries:
        if theta is None:
            records.extend(root_record(side, t, data, float(th), True) for th in fiber)
        elif side is D:
            records.extend(root_record(side, t, data, th)
                           for th in sorted((theta, _norm_circle(theta + math.pi))))
        else:
            records.append(root_record(side, t, data, theta))
    return records


def classify_record(model, record, side):
    """`hypframe.focal.classify_h` (side H) or `_d` (side D) of one record in
    scalar arithmetic: branch (a) by epsilon, branch (b) by the derivative
    data of (W, D), then lambda_t, lambda_theta and nondegenerate."""
    t0, theta0 = record.param.t, record.param.theta
    data = frenet_data(model, t0)
    disc, d0, d1, d2 = _require(side, data, model)
    root = math.sqrt(disc)
    k, cs, sn = side.kappa, fiber(side.c, theta0), fiber(side.s, theta0)
    c2 = sn * data.W1 - k * cs * d1
    s = scale(data)
    tol = model.tol.sing
    diag = record.diagnostics
    diag["scale"] = s
    diag["W"] = data.W
    diag["N"] = data.N
    branch_a = not (is_zero(data.W, s, tol) and is_zero(data.N, s, tol))
    diag["branch"] = "a" if branch_a else "b"
    if branch_a:
        eps, eps1, fallback = eps_values(model, t0, side)
        diag["epsilon"] = eps
        diag["epsilon_prime"] = eps1
        if fallback:
            diag["epsilon_via_closed_form"] = True
        ty = by_epsilon(eps, eps1, s + abs(data.M * data.N / root), tol, EDGE_OR_SWALLOWTAIL)
    else:
        c1 = cs * data.W1 - sn * d1
        c3 = (cs * data.W2 - sn * d2) * root + k * 2.0 * data.M * data.N * c2
        diag["c1_nondegeneracy"] = c1
        diag["c2_mixed_derivative"] = c2
        diag["c3_second_order"] = c3
        ty = edge_or_beaks(c1, c2, c3, s, root, data.M * data.N, tol)
    record.type = ty
    lam_t = (cs * data.W1 - sn * d1) / disc
    lam_th = (k * sn * data.W - cs * d0) / disc
    diag["lambda_t"] = lam_t
    diag["lambda_theta"] = lam_th
    record.nondegenerate = not is_zero(max(abs(lam_t), abs(lam_th)), s, tol)
    return ty


def classify_dual_record(model, t0, side, theta0=0.0):
    """`hypframe.evolute.classify_dual_h` (side H) or `_d` (side D) at one
    (t0, theta0), with epsilon in its closed form."""
    data = frenet_data(model, t0)
    _require(side, data, model, evolute=True)
    lam = lambda_dual_loop(model, side, t0, theta0)
    eps, eps1 = located(side.frenet(model).eps_closed_program, t0)
    s = scale(data)
    return DualSurfaceRecord(
        surface=side.dual, param=SurfaceParam(t0, theta0), lam=lam, sigma_f=data.sigma_f,
        type=by_epsilon(eps, eps1, s, model.tol.sing, DUAL_TYPES), nondegenerate=True,
        diagnostics={"epsilon": eps, "epsilon_prime": eps1, "scale": s})


def classified_loci_loop(model, runs):
    """`hypframe.pipeline.classified_loci` one record at a time: per side,
    the locus of each focal run with each of its records classified, then
    the dual record at each grid point of the dual runs and each zero of
    the dual fiber."""
    records = []
    for side in (H, D):
        for run in runs[side.focal]:
            recs = singular_locus_loop(model, model.ts[run.start:run.stop], side)
            for r in recs:
                classify_record(model, r, side)
            records.extend(recs)
        for i in chain.from_iterable(runs[side.dual]):
            records.extend(classify_dual_record(model, float(model.ts[i]), side, theta)
                           for theta in side.dual_zeros)
    return records


def leg_loop(model, ts, runs, side):
    """`hypframe.evolute._leg` one grid point at a time: at each grid point
    of the runs, the focal record, the evolute sample and the dual record
    through the per-point oracles, then the epsilon crossings."""
    def classify(model, rec):
        return classify_record(model, rec, side)

    def classify_dual(model, t):
        return classify_dual_record(model, t, side)

    if not runs:
        reason = undefined_at(model, float(ts[-1]), side, evolute=True) if len(ts) else None
        return LegReport(status="skipped",
                         reason=reason or "evolute undefined on the whole grid")

    def at(t):
        data = frenet_data(model, t)
        w, d = data.W, side.columns(data)[1]
        try:
            theta = fun_value("artanh", w / d) if side is H else atan2(w, d)
        except (ArithmeticError, ExprDomainError):
            theta = math.nan  # the focal point is not finite there
        rec = SingularPointRecord(surface=side.focal, param=SurfaceParam(t, theta),
                                  lam=0.0, sigma_f=data.sigma_f)
        classify(model, rec)
        _require(side, data, model, evolute=True)
        es = evolute_sample(model, t, side)
        dist = (point_loop(model, side, t, theta) - es.point).max_abs()
        return rec, es, classify_dual(model, t), dist

    leg = LegReport(status="checked", points=sum(map(len, runs)))
    agreed = {}
    max_dist = 0.0
    eps = {}
    for i in chain.from_iterable(runs):
        t = float(ts[i])
        rec, es, dual, dist = at(t)
        max_dist = max(max_dist, dist)
        checks = agreements(rec.type, es.point_type, dual.type)
        for name, ok in checks.items():
            agreed[name] = agreed.get(name, True) and ok
            if not ok:
                leg.failures.append({"t": t, "check": name,
                                     "focal": rec.type.value,
                                     "evolute": es.point_type.value,
                                     "dual": dual.type.value})
        eps[i] = es.epsilon

    crossing_ts = [float(ts[i]) for i, e in eps.items() if e == 0.0]
    for run in runs:
        for ia, ib in zip(run, run[1:]):
            ea, eb = eps[ia], eps[ib]
            if ea != 0.0 and eb != 0.0 and (ea < 0) != (eb < 0):
                crossing_ts.append(bisect_eps_zero(model, side, float(ts[ia]),
                                                   float(ts[ib]), ea, eb))
    for t_star in sorted(crossing_ts):
        rec, es, dual, dist = at(t_star)
        max_dist = max(max_dist, dist)
        checks = agreements(rec.type, es.point_type, dual.type)
        event = {
            "t": t_star,
            "focal_type": rec.type.value,
            "evolute_type": es.point_type.value,
            "dual_type": dual.type.value,
            "sw_iff_cusp": checks["focal_sw_iff_evolute_cusp"],
            "sw_iff_ccr": checks["focal_sw_iff_dual_ccr"],
        }
        leg.events.append(event)
        if not event["sw_iff_cusp"]:
            agreed["focal_sw_iff_evolute_cusp"] = False
        if not event["sw_iff_ccr"]:
            agreed["focal_sw_iff_dual_ccr"] = False

    leg.agreements = agreed
    leg.max_image_distance = max_dist
    return leg


def correspondence_check_loop(model, runs):
    """`hypframe.evolute.correspondence_check` one grid point at a time."""
    return CorrespondenceReport(hyperbolic=leg_loop(model, model.ts, runs[H.evolute], H),
                                desitter=leg_loop(model, model.ts, runs[D.evolute], D))


def evolute_rows_loop(model, runs):
    """`hypframe.evolute.evolute_rows` one grid point at a time: an
    EvoluteSample at each grid point of the evolute runs, in grid order,
    h before d."""
    defined = {side: set(chain.from_iterable(runs["evolute_" + side])) for side in "hd"}
    rows = []
    for i, t in enumerate(model.ts):
        for side, fn in (("h", H), ("d", D)):
            if i in defined[side]:
                es = evolute_sample(model, float(t), fn)
                rows.append((float(t), side, es.epsilon, es.epsilon_prime,
                             es.point_type.value))
    return rows
