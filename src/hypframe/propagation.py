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
propagators.  At every sample point the Lorentz-Gram drift is measured.
The product stays on the Lorentz group up to rounding (Iserles et al.,
Acta Numerica 9, 2000), so pseudo Gram-Schmidt, with mu rebuilt from the
wedge product, corrects a sample only where it can reach its target.

A substep whose node values and h have the bits of the previous substep's
has the same product, so only the first substep of each such run is
exponentiated, and a run carries over from one chunk to the next: a
constant quartet takes one product per integration.  Bits, not
values, are compared, so -0.0 and 0.0 stay apart.  Each row of
expm_generator depends only on that row, so the product copied to the rest
of a run is bit for bit what each of its substeps would have computed.
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
    """E2 @ E1 for each substep; node_vals (k, 2, 4), h (k,).

    Only the first substep of each run of bit-identical (node values, h) is
    computed; with no run, w1, w2 and h stay views and nothing is gathered.
    """
    bits, hbits = node_vals.view(np.int64), h.view(np.int64)
    new = np.ones(len(h), dtype=bool)
    new[1:] = (bits[1:] != bits[:-1]).any(axis=(1, 2)) | (hbits[1:] != hbits[:-1])
    first = slice(None) if new.all() else new
    w1, w2, h = node_vals[first, 0], node_vals[first, 1], h[first, None]
    steps = (expm_generator(h * (_CF4_B * w1 + _CF4_A * w2))
             @ expm_generator(h * (_CF4_A * w1 + _CF4_B * w2)))
    return steps[np.cumsum(new) - 1] if first is new else steps


def _tree_product(m: np.ndarray) -> np.ndarray:
    """m[i, n-1] @ ... @ m[i, 0] for each i of an (nint, n, 4, 4) stack."""
    while m.shape[1] > 1:
        even = m.shape[1] - m.shape[1] % 2
        pairs = m[:, 1:even:2] @ m[:, 0:even:2]
        m = pairs if even == m.shape[1] else np.concatenate([pairs, m[:, even:]], axis=1)
    return m[:, 0]


def _carried(node_vals, h: np.ndarray, carry) -> tuple:
    """(_substep_propagators of the substeps, their carry).  The carry of a
    run of substeps is its last substep's (node values, h, product); the
    leading substeps with its bits continue its run of repeats and take its
    product, so a constant quartet exponentiates one substep in all."""
    k = 0
    if carry is not None:
        same = ((node_vals.view(np.int64) == carry[0].view(np.int64)).all(axis=(1, 2))
                & (h.view(np.int64) == carry[1].view(np.int64)))
        k = len(h) if same.all() else int(np.argmin(same))
    steps = _substep_propagators(node_vals[k:], h[k:]) if k < len(h) else np.empty((0, 4, 4))
    if k:
        steps = np.concatenate([np.broadcast_to(carry[2], (k, 4, 4)), steps])
    # copies, so that the chunk's arrays go once read
    return steps, (node_vals[-1].copy(), h[-1:].copy(), steps[-1].copy())


def _interval_propagators(node_vals, lo: int, hs: np.ndarray, nsub: int, carry) -> tuple:
    """(propagator of each interval, one per h of hs, from substep lo of
    node_vals on; the carry of the last substep), continuing `carry`."""
    if nsub <= CHUNK_SUBSTEPS:
        steps, carry = _carried(node_vals[lo:lo + len(hs) * nsub], np.repeat(hs, nsub), carry)
        return _tree_product(steps.reshape(len(hs), nsub, 4, 4)), carry
    # a single interval longer than a chunk: its segments, in time order
    p = np.eye(4)
    for seg in range(lo, lo + nsub, CHUNK_SUBSTEPS):
        vals = node_vals[seg:min(seg + CHUNK_SUBSTEPS, lo + nsub)]
        steps, carry = _carried(vals, np.full(len(vals), hs[0]), carry)
        p = _tree_product(steps[None])[0] @ p
    return p[None], carry


def chunk_propagators(node_vals, hs: np.ndarray, nsub: int):
    """(first, propagators of intervals first, first + 1, ...) of the intervals
    of hs, nsub substeps each, one chunk of CHUNK_SUBSTEPS substeps at a time;
    each chunk continues the previous chunk's carry (_carried)."""
    per, carry = max(1, CHUNK_SUBSTEPS // nsub), None
    for first in range(0, len(hs), per):
        props, carry = _interval_propagators(node_vals, first * nsub, hs[first:first + per],
                                             nsub, carry)
        yield first, props


def gram_residual(f: np.ndarray) -> float:
    """max |F G F^T - G| over all entries (absolute)."""
    g = (f * _METRIC_SIGNS) @ f.T
    g[0, 0] += 1.0
    g[1, 1] -= 1.0
    g[2, 2] -= 1.0
    g[3, 3] -= 1.0
    return float(np.abs(g).max())


def gram_drift(f: np.ndarray, residual: float | None = None) -> float:
    """Gram residual relative to the frame magnitude.

    Pairings of rows with Euclidean norm R carry a float64 rounding floor
    of order eps * R^2, so the drift the integrator controls is the
    residual (gram_residual(f) unless given) divided by (1 + max row norm^2).
    """
    scale = 1.0 + float((f * f).sum(axis=1).max())
    return (gram_residual(f) if residual is None else residual) / scale


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
    frames = np.full((nint + 1, 4, 4), np.nan)
    f = np.array(f0, dtype=float)
    frames[0] = f
    corrections = 0
    max_raw = 0.0
    max_final = 0.0
    worst = nsub - 1
    floor = FLOOR_MARGIN * np.finfo(float).eps
    with np.errstate(over="ignore", invalid="ignore"):  # a frame that overflows stops below
        for first, props in chunk_propagators(node_vals, hs, nsub):
            for i, p in enumerate(props, start=first):
                f = p @ f
                residual = gram_residual(f)
                drift = gram_drift(f, residual)
                if drift > max_raw:
                    max_raw = drift
                # the floor is floor * scale, and scale = residual / drift
                if tol_correct < residual and floor * residual < tol_correct * drift:
                    f = pseudo_orthonormalize(f)
                    corrections += 1
                    drift = gram_drift(f)
                frames[i + 1] = f
                if not drift <= max_final:  # a larger drift, or one that is not finite
                    max_final, worst = drift, (i + 1) * nsub - 1
                    if not math.isfinite(drift):
                        return frames, corrections, max_raw, max_final, worst
    return frames, corrections, max_raw, max_final, worst
