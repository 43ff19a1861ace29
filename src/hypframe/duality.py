"""Numeric Legendrian-duality verification.

A dual pair sample carries the two legs of a candidate isotropic lift
and their first partials; the five residuals are the pairing of the legs
and the four contact-form pullback coefficients.  A grid of samples gets
a frontal / front / not-isotropic verdict, with the immersion test done
through singular values of the stacked derivative matrix.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import evolute as _evolute
from . import focal as _focal
from .errors import InvalidInputError
from .focal import D, H, Fibration
from .framedcurve import FramedCurveModel
from .minkowski import MinkVec, Quadric, membership_residual, mink_dot
from .tolerances import DEFAULT, Tolerances


class FrontVerdict(enum.Enum):
    FRONTAL = "Frontal"
    FRONT = "Front"
    NOT_ISOTROPIC = "NotIsotropic"


@dataclass(frozen=True)
class DualPairSample:
    f: MinkVec
    g: MinkVec
    df_du: MinkVec
    df_dv: MinkVec
    dg_du: MinkVec
    dg_dv: MinkVec
    fibration: Fibration

    def membership_residuals(self):
        first = Quadric.H3 if self.fibration is Fibration.DELTA1 else Quadric.S31
        return (membership_residual(self.f, first),
                membership_residual(self.g, Quadric.S31))


def isotropy_residuals(sample: DualPairSample):
    """(r0, r1, r2, r3, r4): leg pairing and the four pullback coefficients."""
    return (mink_dot(sample.f, sample.g),
            mink_dot(sample.df_du, sample.g),
            mink_dot(sample.df_dv, sample.g),
            mink_dot(sample.f, sample.dg_du),
            mink_dot(sample.f, sample.dg_dv))


def front_verdict(samples, tol: Tolerances = DEFAULT,
                  rank_rtol: float | None = None) -> FrontVerdict:
    """Judge a sampled lift: NotIsotropic, Front, or Frontal.

    Front requires the 8x2 joint derivative matrix of (f, g) to have
    numeric rank 2 at every sample (sigma_min > rank_rtol * sigma_max).
    """
    if rank_rtol is None:
        rank_rtol = tol.rank_rtol
    if not samples:
        raise InvalidInputError("front_verdict needs at least one sample")
    immersion = True
    for s in samples:
        if max(abs(r) for r in isotropy_residuals(s)) > tol.dual:
            return FrontVerdict.NOT_ISOTROPIC
        col_u = np.concatenate([s.df_du.as_array(), s.dg_du.as_array()])
        col_v = np.concatenate([s.df_dv.as_array(), s.dg_dv.as_array()])
        sv = np.linalg.svd(np.stack([col_u, col_v], axis=1), compute_uv=False)
        if sv[1] <= rank_rtol * sv[0]:
            immersion = False
    return FrontVerdict.FRONT if immersion else FrontVerdict.FRONTAL


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


def pair_sample(model: FramedCurveModel, pair: str, t: float,
                theta: float) -> DualPairSample:
    """Build the (f, g) sample of one named dual pair at (t, theta).

    Partials are exact in frame coordinates: the frame vectors satisfy
    the pairing identities after re-orthonormalization, so the residuals
    report transcription errors rather than interpolation noise.
    """
    side, surface = _pair(pair)
    # the public bindings, looked up per call so that a rebound module
    # attribute (a profiler's wrapper) is the one called
    point, partials, evolute = {
        H.focal: (_focal.focal_h_point, _focal.focal_h_partials, None),
        D.focal: (_focal.focal_d_point, _focal.focal_d_partials, None),
        H.dual: (_evolute.dual_of_evolute_h, _evolute.dual_of_evolute_h_partials,
                 _evolute.evolute_h),
        D.dual: (_evolute.dual_of_evolute_d, _evolute.dual_of_evolute_d_partials,
                 _evolute.evolute_d),
    }[surface]
    frame = model.frenet_frame_at(t)
    data = model.frenet_data_at(t)
    zero = MinkVec(0.0, 0.0, 0.0, 0.0)
    p = point(model, t, theta)
    pt, pth = partials(model, t, theta)
    if evolute is None:
        g = MinkVec.from_array(frame[3])
        gt = MinkVec.from_array(data.M * frame[0] - data.A * frame[1])
        return DualPairSample(p, g, pt, pth, gt, zero, side.fibration)
    es = evolute(model, t)
    legs = ((es.point, es.derivative1, zero), (p, pt, pth))
    (f, ft, fth), (g, gt, gth) = legs if side.evolute_first else legs[::-1]
    return DualPairSample(f, g, ft, fth, gt, gth, side.fibration)


def pair_theta_range(pair: str) -> tuple:
    """Natural fiber window for sampling: compact fibers get [0, 2pi)."""
    side, surface = _pair(pair)
    # the focal fiber is (cos, sin) when kappa < 0, the dual one when kappa > 0
    compact = side.kappa < 0 if surface == side.focal else side.kappa > 0
    return (0.0, 2.0 * math.pi) if compact else (-3.0, 3.0)
