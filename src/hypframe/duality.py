"""Numeric Legendrian-duality verification.

A dual pair sample carries the two legs of a candidate isotropic lift
and their first partials; the five residuals are the pairing of the legs
and the four contact-form pullback coefficients.  A grid of samples gets
a frontal / front / not-isotropic verdict, with the immersion test done
through closed-form singular values of the stacked derivative matrix.
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple

import numpy as np

from . import evolute as _evolute
from . import focal as _focal
from .errors import FrameDegenerateError, InvalidInputError, SurfaceUndefinedError
from .focal import D, H, Fibration
from .framedcurve import FramedCurveModel
from .minkowski import Columns, MinkVec, Quadric, membership_residual, mink_dot
from .tolerances import DEFAULT, Tolerances


class FrontVerdict(enum.Enum):
    FRONTAL = "Frontal"
    FRONT = "Front"
    NOT_ISOTROPIC = "NotIsotropic"


class DualPairSample(NamedTuple):
    """One sample, its legs MinkVecs, or a batch of samples, its legs
    (m, 4) arrays with one row per sample."""

    f: MinkVec | np.ndarray
    g: MinkVec | np.ndarray
    df_du: MinkVec | np.ndarray
    df_dv: MinkVec | np.ndarray
    dg_du: MinkVec | np.ndarray
    dg_dv: MinkVec | np.ndarray
    fibration: Fibration

    def membership_residuals(self):
        first = Quadric.H3 if self.fibration is Fibration.DELTA1 else Quadric.S31
        return (membership_residual(self.f, first),
                membership_residual(self.g, Quadric.S31))


LEGS = ("f", "g", "df_du", "df_dv", "dg_du", "dg_dv")


def isotropy_residuals(sample: DualPairSample):
    """(r0, r1, r2, r3, r4): leg pairing and the four pullback coefficients,
    as floats of one sample or arrays over a batch."""
    f, g, f_u, f_v, g_u, g_v = (v if isinstance(v, MinkVec) else Columns(*v.T)
                                for v in (getattr(sample, leg) for leg in LEGS))
    return (mink_dot(f, g),
            mink_dot(f_u, g),
            mink_dot(f_v, g),
            mink_dot(f, g_u),
            mink_dot(f, g_v))


def front_verdict(samples, tol: Tolerances = DEFAULT) -> FrontVerdict:
    """Judge a sampled lift, a batch or a list of samples: NotIsotropic,
    Front, or Frontal.

    Front requires the 8x2 joint derivative matrix of (f, g) to have numeric
    rank 2 at every sample: sigma_min > tol.rank_rtol * sigma_max, in closed form.
    """
    if not isinstance(samples, DualPairSample) and samples:
        samples = DualPairSample(*(np.array([getattr(s, leg).as_array() for s in samples])
                                   for leg in LEGS), samples[0].fibration)
    if not samples or not len(samples.f):
        raise InvalidInputError("front_verdict needs at least one sample")
    if (np.abs(isotropy_residuals(samples)).max(axis=0) > tol.dual).any():
        return FrontVerdict.NOT_ISOTROPIC
    cols = [np.concatenate([samples.df_du, samples.dg_du], axis=1),
            np.concatenate([samples.df_dv, samples.dg_dv], axis=1)]
    sv = _singular_values(np.stack(cols, axis=2))
    if (sv[:, 1] <= tol.rank_rtol * sv[:, 0]).any():
        return FrontVerdict.FRONTAL
    return FrontVerdict.FRONT


def _singular_values(j: np.ndarray) -> np.ndarray:
    """np.linalg.svd(j, compute_uv=False) of a stack of (n, 2) matrices [u v], each
    scaled by its largest entry: sigma_1^2 is the larger eigenvalue of u, v's Gram
    matrix, and sigma_1 sigma_2 = |u| |v - (u.v / |u|^2) u| with u the longer column."""
    scale = np.abs(j).max(axis=(1, 2))
    u, v = np.moveaxis(j / np.where(scale > 0.0, scale, 1.0)[:, None, None], 2, 0)
    uu, vv, uv = (u * u).sum(axis=1), (v * v).sum(axis=1), (u * v).sum(axis=1)
    s1 = np.sqrt((uu + vv + np.hypot(uu - vv, 2.0 * uv)) / 2.0)
    swap = (vv > uu)[:, None]
    u, v, uu = np.where(swap, v, u), np.where(swap, u, v), np.maximum(uu, vv)
    w = v - (uv / np.where(uu > 0.0, uu, 1.0))[:, None] * u
    s2 = np.sqrt(uu * (w * w).sum(axis=1)) / np.where(s1 > 0.0, s1, 1.0)
    return np.stack([s1, s2], axis=1) * scale[:, None]


# ---------------------------------------------------------------------------
# Samples of the engine's four constructed pairs

PAIR_NAMES = ("focal_h_mu", "focal_d_mu", "dual_eh_evolute_h", "dual_ed_evolute_d")
# the side of each pair and its theta-surface: the focal surface, paired
# with mu, or the dual of the evolute, paired with the evolute
PAIR_SURFACES = dict(zip(PAIR_NAMES, ((H, H.focal), (D, D.focal),
                                      (H, H.dual), (D, D.dual))))


def _pair(pair: str):
    if pair not in PAIR_SURFACES:
        raise InvalidInputError(f"unknown pair {pair!r}; expected one of {PAIR_NAMES}")
    return PAIR_SURFACES[pair]


def pair_sample(model: FramedCurveModel, pair: str, t, theta) -> DualPairSample:
    """The (f, g) sample of one named dual pair at (t, theta); for arrays
    t and theta, the batch of the samples at each (t[i], theta[i]) where
    the pair and the Frenet frame are defined, in order.

    Partials are exact in frame coordinates: the frame vectors satisfy
    the pairing identities after re-orthonormalization, so the residuals
    report transcription errors rather than interpolation noise.
    """
    side, surface = _pair(pair)
    dual = surface == side.dual
    if np.ndim(t):
        return _batch(model, side, dual, np.asarray(t, dtype=float),
                      np.asarray(theta, dtype=float), (SurfaceUndefinedError, FrameDegenerateError))
    batch = _batch(model, side, dual, np.array([t], dtype=float),
                   np.array([theta], dtype=float), ())
    return DualPairSample(*(MinkVec.from_array(getattr(batch, leg)) for leg in LEGS),
                          side.fibration)


def _batch(model, side, dual: bool, ts, thetas, skip: tuple) -> DualPairSample:
    """The samples at each (ts[i], thetas[i]) as columns.  A flagged row
    raises through _raise_rows what the per-sample path raised there: the
    Frenet queries, the definedness rule, a leg row that is not finite, and
    for the dual of an evolute, the evolute's own evaluations.  An error of
    `skip` leaves the sample out instead, as it would be alone."""
    frames, data, r, suspect = _focal._columns(side, model, ts)
    c, s = (x[:, None] for x in _focal._fiber(side, thetas, dual))
    with np.errstate(all="ignore"):
        p = _focal._points(data, frames, r, c, s, dual)
        pt, pth = (_focal._dual_partials if dual else _focal._focal_partials)(
            side, data, frames, r, c, s)
        zero = np.zeros_like(p)
        checked, checks = [p, pt, pth], []
        if dual:
            vecs, _, checks = _evolute._evolute_columns(side, model, ts, frames)
            legs = ((vecs[0], vecs[1], zero), (p, pt, pth))
            (f, ft, fth), (g, gt, gth) = legs if side.evolute_first else legs[::-1]
        else:
            f, ft, fth, gth = p, pt, pth, zero
            g, gt = frames[:, 3], data.M * frames[:, 0] - data.A * frames[:, 1]
            checked += [g, gt]
    keep = ~_focal._raise_rows(model, data, suspect, [
        _focal._rule(side, model, data, dual), _focal._finite(*checked), *checks], skip)
    return DualPairSample(f[keep], g[keep], ft[keep], fth[keep], gt[keep], gth[keep],
                          side.fibration)


def pair_theta_range(pair: str) -> tuple:
    """Natural fiber window for sampling: compact fibers get [0, 2pi)."""
    side, surface = _pair(pair)
    # the focal fiber is (cos, sin) when kappa < 0, the dual one when kappa > 0
    compact = side.kappa < 0 if surface == side.focal else side.kappa > 0
    return (0.0, 2.0 * math.pi) if compact else (-3.0, 3.0)
