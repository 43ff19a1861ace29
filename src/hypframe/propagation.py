"""Frame-propagation kernel, batched in NumPy.

The frame ODE F' = C(t) F is stepped with the 4th-order commutator-free
Lie-group scheme (Celledoni, Marthinsen & Owren, FGCS 19, 2003):

* one substep is F <- exp(h*(b*A1 + a*A2)) @ exp(h*(a*A1 + b*A2)) @ F
  with Gauss nodes c = 1/2 -+ sqrt(3)/6 and a = 1/4 + sqrt(3)/6,
  b = 1/4 - sqrt(3)/6,
* each exponential is the 12-term Taylor sum of the generator Y = C(w),
  halved until small and squared back (the squaring count depends only
  on the norm).  Y^4 = p Y^2 + q I (Cayley-Hamilton), so every power of
  Y, and with them the truncated sum, is exactly c0 I + c1 Y + c2 Y^2 +
  c3 Y^3 with scalar coefficients: Y^2 and one product with Y are its only
  matrix products (Moler & Van Loan, SIAM Review 45, 2003, "polynomial
  methods").

Both exponentials of a substep depend only on the curvature at its Gauss
nodes, never on F.  So the kernel takes them for a whole chunk of
substeps at once, multiplies the substeps of each sample interval in time
order by a pairwise tree product (a log-depth scan: Blelloch, "Prefix sums
and their applications", CMU-CS-90-190), and chains the interval
propagators, a chunk's frames in place, and checks the Lorentz-Gram drift
of a chunk's samples as one stack (gram_check).  The product stays on the
Lorentz group up to rounding (Iserles et al., Acta Numerica 9, 2000), so
pseudo Gram-Schmidt, with mu rebuilt from the wedge product, corrects a
sample only where it can reach its target; from the first such sample, or
one that is not finite, the chunk goes one sample at a time.

One rule reuses products, those of whole pieces: a piece is an interval,
or a segment of CHUNK_SUBSTEPS substeps of a longer one, whose last
segment may be shorter.  A piece whose node values and h have the bits of
the last piece of its length before it takes that piece's product; every
substep of a piece that is computed is exponentiated.  One (node bits, h
bits, product) per piece length, a local of chunk_propagators, is the only
state that crosses a chunk, so a constant quartet multiplies out one
interval per integration, or the first and the shorter last segment of
its first interval.  Bits, not values, are compared, so -0.0 and 0.0 stay
apart; each row of expm_generator and of the tree product depends only
on that row, so a copied product is bit for bit what it replaces.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidInputError
from .minkowski import wedge_rows

GAUSS_C1 = 0.5 - np.sqrt(3.0) / 6.0
GAUSS_C2 = 0.5 + np.sqrt(3.0) / 6.0
_CF4_A = 0.25 + np.sqrt(3.0) / 6.0
_CF4_B = 0.25 - np.sqrt(3.0) / 6.0

_METRIC_SIGNS = np.array([-1.0, 1.0, 1.0, 1.0])

# Substeps batched per chunk of whole intervals: bounds the temporaries
# (about 1 kB per substep) whatever the length of the domain.
CHUNK_SUBSTEPS = 2048

# A sample is re-orthonormalized only where its rounding floor eps * (1 +
# max row norm^2) lies this factor below the correction threshold: above
# it Gram-Schmidt cannot reach the threshold, and on the quartet (1, 1, 2,
# 0) on [0, 40] its 129 passes there moved the frames off expm(t C) F0 by
# 1.08 (relative), where with none they stay within 2e-12.
FLOOR_MARGIN = 100.0


def coefficient_matrix_values(m, n, a, b) -> np.ndarray:
    """Frame ODE generator for curvature values (m, n, a, b).

    Scalars give one 4x4 matrix; arrays of one shape give a stack of them.
    """
    c = np.zeros(np.shape(m) + (4, 4))
    c[..., 0, 3] = m
    c[..., 1, 2] = n
    c[..., 1, 3] = a
    c[..., 2, 1] = -n
    c[..., 2, 3] = b
    c[..., 3, 0] = m
    c[..., 3, 1] = -a
    c[..., 3, 2] = -b
    return c


def expm_generator(w: np.ndarray) -> np.ndarray:
    """exp(C(w)) for each row (m, n, a, b) of a (k, 4) array: C(w) halved
    until its row-sum norm is at most 1/32, summed to 12 Taylor terms in
    the basis {I, Y, Y^2, Y^3} of the halved Y = C(y), and squared back.
    With p = m^2 - n^2 - a^2 - b^2 and q = (m n)^2 of y, Y^4 = p Y^2 + q I,
    so Y^2j = u I + v Y^2 and Y^(2j+1) = u Y + v Y^3, (u, v) <- (q v, u + p v).
    """
    m, n, a, b = np.abs(w).T  # the row sums of C(w): m, n + a, n + b, m + a + b
    nrm = np.maximum(np.maximum(m, n + a), np.maximum(n + b, m + a + b))
    mant, ex = np.frexp(nrm)  # the least s >= 0 with nrm / 2**s <= 1/32
    s = np.where(nrm > 0.03125, ex + 5 - (mant == 0.5), 0)
    y = w / (2.0 ** s)[:, None]
    p, q = y[:, 0] ** 2 - y[:, 1] ** 2 - y[:, 2] ** 2 - y[:, 3] ** 2, (y[:, 0] * y[:, 1]) ** 2
    u, v = np.ones(len(w)), np.zeros(len(w))
    c = [u, u, v, v]  # the coefficients of I, Y, Y^2, Y^3 after Y^0 and Y^1
    for k in range(2, 13):
        if k % 2 == 0:
            u, v = q * v, u + p * v
        c[k % 2] = c[k % 2] + u / math.factorial(k)
        c[k % 2 + 2] = c[k % 2 + 2] + v / math.factorial(k)
    y = coefficient_matrix_values(*y.T)
    y2 = y @ y
    odd = c[3][:, None, None] * y2
    odd.reshape(-1, 16)[:, ::5] += c[1][:, None]  # + c1 I, on a view of the diagonals
    e = y @ odd
    del y, odd  # each (k, 4, 4) temporary goes once read: they set integration's peak
    e += c[2][:, None, None] * y2
    del y2
    e.reshape(-1, 16)[:, ::5] += c[0][:, None]
    for r in range(int(s.max(initial=0))):
        sel = s > r
        e[sel] = e[sel] @ e[sel]
    return e


def _substep_propagators(node_vals: np.ndarray, h: np.ndarray) -> np.ndarray:
    """E2 @ E1 for each substep; node_vals (k, 2, 4), h (k,)."""
    w1, w2, h = node_vals[:, 0], node_vals[:, 1], h[:, None]
    return (expm_generator(h * (_CF4_B * w1 + _CF4_A * w2))
            @ expm_generator(h * (_CF4_A * w1 + _CF4_B * w2)))


def _tree_product(m: np.ndarray) -> np.ndarray:
    """m[i, n-1] @ ... @ m[i, 0] for each i of an (nint, n, 4, 4) stack."""
    while m.shape[1] > 1:
        even = m.shape[1] - m.shape[1] % 2
        pairs = m[:, 1:even:2] @ m[:, 0:even:2]
        m = pairs if even == m.shape[1] else np.concatenate([pairs, m[:, even:]], axis=1)
    return m[:, 0]


def _products(node_vals: np.ndarray, h: np.ndarray, carried: dict) -> np.ndarray:
    """The products of the len(h) equal pieces of node_vals, one per h.  A
    piece whose node values and h have the bits of the one before it takes
    its product; before the first stands carried[n], the (node bits, h bits,
    product) of the last piece of n substeps, and the last piece takes its place."""
    vals, hbits = node_vals.reshape(len(h), -1, 4), h.view(np.int64)
    bits, n = vals.view(np.int64), vals.shape[1] // 2
    last = carried.get(n)
    new = np.concatenate([[last is None or hbits[0] != last[1] or (bits[0] != last[0]).any()],
                          (bits[1:] != bits[:-1]).any(axis=(1, 2)) | (hbits[1:] != hbits[:-1])])
    if not new.any():
        return np.broadcast_to(last[2], (len(h), 4, 4))
    sel = slice(None) if new.all() else new  # a gathered chunk of node values costs 128 kB of peak
    props = _tree_product(_substep_propagators(vals[sel].reshape(-1, 2, 4), np.repeat(h[sel], n))
                          .reshape(-1, n, 4, 4))
    if sel is new:  # each piece takes the product of the last computed one; index 0 is carried's
        props = np.concatenate([props[:1] if new[0] else last[2][None], props])[np.cumsum(new)]
    carried[n] = (bits[-1].copy(), hbits[-1], props[-1].copy())  # copies: the chunk goes once read
    return props


def chunk_propagators(node_vals, hs: np.ndarray, nsub: int):
    """(first, propagators of intervals first, first + 1, ...) of the intervals
    of hs, nsub substeps each, one chunk of CHUNK_SUBSTEPS substeps at a
    time, or one longer interval in segments of that many, each sliced from
    node_vals once and multiplied out by _products."""
    per, carried = max(1, CHUNK_SUBSTEPS // nsub), {}
    for first in range(0, len(hs), per):
        h, lo, hi = hs[first:first + per], first * nsub, min(first + per, len(hs)) * nsub
        props = np.eye(4)
        for seg in range(lo, hi, CHUNK_SUBSTEPS):  # the chunk, or one interval's segments in order
            p = _products(node_vals[seg:min(seg + CHUNK_SUBSTEPS, hi)], h, carried)
            props = p if nsub <= CHUNK_SUBSTEPS else p @ props
        yield first, props


def gram_check(f: np.ndarray) -> tuple:
    """(residual, drift) of each frame of an (n, 4, 4) stack: max |F G F^T - G|
    over all entries, and that relative to the frame's size.  Pairings of
    rows with Euclidean norm R carry a rounding floor of order eps * R^2, so
    the drift the integrator controls is the residual / (1 + max row norm^2)."""
    g = (f * _METRIC_SIGNS) @ f.swapaxes(1, 2)
    g.reshape(-1, 16)[:, ::5] -= _METRIC_SIGNS  # G's diagonal is the signs
    residual = np.abs(g).max(axis=(1, 2))
    return residual, residual / (1.0 + (f * f).sum(axis=2).max(axis=1))


def gram_residual(f: np.ndarray) -> float:
    """The residual of the one frame f, gram_check's."""
    return float(gram_check(f[None])[0][0])


def gram_drift(f: np.ndarray) -> float:
    """The drift of the one frame f, gram_check's."""
    return float(gram_check(f[None])[1][0])


def _mdot(x, y):
    return -x[0] * y[0] + x[1] * y[1] + x[2] * y[2] + x[3] * y[3]


def pseudo_orthonormalize(f: np.ndarray) -> np.ndarray:
    """Restore the pseudo-orthonormal frame: rows (gamma, v1, v2, mu).

    gamma is normalized first (timelike), v1 and v2 are projected and
    normalized, and mu is rebuilt as -(gamma ^ v1 ^ v2) (the orientation
    of the det=+1 standard frame) and then projected itself: the wedge
    alone carries an eps * |F|^3 rounding floor on boosted frames.
    """
    f0, f1, f2 = f[0], f[1], f[2]
    g = f0 / np.sqrt(-_mdot(f0, f0))
    v1 = f1 + _mdot(f1, g) * g
    v1 = v1 / np.sqrt(_mdot(v1, v1))
    v2 = f2 + _mdot(f2, g) * g - _mdot(f2, v1) * v1
    v2 = v2 / np.sqrt(_mdot(v2, v2))
    mu = -wedge_rows(g, v1, v2)
    mu = mu + _mdot(mu, g) * g - _mdot(mu, v1) * v1 - _mdot(mu, v2) * v2
    mu = mu / np.sqrt(_mdot(mu, mu))
    return np.array([g, v1, v2, mu])


def propagate(node_vals, hs: np.ndarray, substeps: np.ndarray,
              f0: np.ndarray, tol_correct: float):
    """Advance the frame across every sample interval.

    node_vals : (total_substeps, 2, 4) curvature (m,n,a,b) at the two
                Gauss nodes of each substep, concatenated over intervals: an
                array, or a source with that `shape` read by slices of one chunk.
    hs        : (nintervals,) substep size per interval.
    substeps  : (nintervals,) substep count per interval, all equal.
    f0        : (4,4) initial frame, rows (gamma, v1, v2, mu).
    tol_correct : absolute Gram residual above which a sample is corrected.

    Returns (frames, corrections, max_drift_raw, max_drift_final, worst_flat_index)
    where frames has shape (nintervals + 1, 4, 4).  Drift is measured,
    and corrected, at the sample points: corrections counts corrected
    samples and worst_flat_index is the last substep index of the
    interval ending at the sample with the largest post-correction drift.

    A sample is corrected where its absolute Gram residual exceeds
    tol_correct while its rounding floor, eps * (1 + max row norm^2), lies
    FLOOR_MARGIN below it.  The reported drift is the magnitude-relative
    measure, which is what failure is judged on.  Propagation stops at the
    first sample whose drift is not finite, the worst; later frames are NaN.
    """
    nint = len(hs)
    substeps = np.asarray(substeps)
    nsub = int(substeps[0])
    if nsub < 1 or np.any(substeps != nsub):
        raise InvalidInputError("propagate needs the same positive substep "
                                "count on every interval")
    if node_vals.shape != (nint * nsub, 2, 4):
        raise InvalidInputError(
            f"node_vals has shape {node_vals.shape}, expected {(nint * nsub, 2, 4)}")
    frames = np.empty((nint + 1, 4, 4))
    frames[0] = f0
    corrections, max_raw, max_final, worst = 0, 0.0, 0.0, nsub - 1
    floor = FLOOR_MARGIN * np.finfo(float).eps
    with np.errstate(over="ignore", invalid="ignore"):  # a frame that overflows stops below
        for first, props in chunk_propagators(node_vals, hs, nsub):
            for p, f, out in zip(props, frames[first:], frames[first + 1:]):
                np.matmul(p, f, out=out)  # chained in place, then checked as one stack
            residual, drift = gram_check(frames[first + 1:first + len(props) + 1])
            # the floor is floor * scale, and scale = residual / drift
            fix = (tol_correct < residual) & (floor * residual < tol_correct * drift)
            k = int(np.argmin(np.append(np.isfinite(drift) & ~fix, False)))
            if k:  # the first largest drift; argmin, as argmax is a kernel loaded for it alone
                top = drift[:k].max()
                max_raw = max(max_raw, float(top))
                if top > max_final:
                    j = int(np.argmin(drift[:k] < top))
                    max_final, worst = float(top), (first + j + 1) * nsub - 1
            # one frame at a time from the first that takes a correction or is not finite
            f = frames[first + k]
            for i, p in enumerate(props[k:], start=first + k):
                f = p @ f
                residual, drift = (float(x[0]) for x in gram_check(f[None]))
                max_raw = max(max_raw, drift)  # a drift that is not finite is not kept
                if tol_correct < residual and floor * residual < tol_correct * drift:
                    f = pseudo_orthonormalize(f)
                    corrections += 1
                    drift = gram_drift(f)
                frames[i + 1] = f
                if not drift <= max_final:  # a larger drift, or one that is not finite
                    max_final, worst = drift, (i + 1) * nsub - 1
                    if not math.isfinite(drift):
                        frames[i + 2:] = np.nan
                        return frames, corrections, max_raw, max_final, worst
    return frames, corrections, max_raw, max_final, worst
