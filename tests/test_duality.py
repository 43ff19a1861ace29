import numpy as np
import pytest

from hypframe import MinkVec, front_verdict, isotropy_residuals, mink_dot
from hypframe.duality import (PAIR_NAMES, DualPairSample, Fibration,
                              FrontVerdict, _singular_values, pair_sample, pair_theta_range)
from hypframe.errors import InvalidInputError
from hypframe.tolerances import DEFAULT

from oracles import fd_partials


def _samples_for(model, pair, n, rng, tlo, thi):
    th_lo, th_hi = pair_theta_range(pair)
    out = []
    for _ in range(n):
        t = float(rng.uniform(tlo, thi))
        th = float(rng.uniform(th_lo, th_hi))
        out.append(pair_sample(model, pair, t, th))
    return out


def test_pair_residuals_all_four(model_ce_h, model_ce_d):
    rng = np.random.default_rng(51)
    models = {"focal_h_mu": model_ce_h, "focal_d_mu": model_ce_d,
              "dual_eh_evolute_h": model_ce_h, "dual_ed_evolute_d": model_ce_d}
    for pair in PAIR_NAMES:
        model = models[pair]
        for s in _samples_for(model, pair, 200, rng, 0.0, 4.0):
            assert max(abs(r) for r in isotropy_residuals(s)) <= 1e-8
            rf, rg = s.membership_residuals()
            # self-pairings carry an eps * |leg|^2 evaluation floor
            assert abs(rf) <= 1e-8 * (1.0 + s.f.max_abs() ** 2)
            assert abs(rg) <= 1e-8 * (1.0 + s.g.max_abs() ** 2)


def test_pair_residuals_with_fd_partials(model_ce_h_dense):
    # independent route: partials by central differences instead of the
    # engine's frame-exact expressions
    from hypframe.focal import focal_h_point

    rng = np.random.default_rng(53)
    for _ in range(50):
        t = float(rng.uniform(0.2, 1.8))
        th = float(rng.uniform(-1.5, 1.5))
        f = focal_h_point(model_ce_h_dense, t, th)
        ft, fth = fd_partials(
            lambda a, b: focal_h_point(model_ce_h_dense, a, b).as_array(), t, th)
        mu_fn = lambda a: model_ce_h_dense.frame_at(a)[3]
        gt = (mu_fn(t + 1e-5) - mu_fn(t - 1e-5)) / 2e-5
        s = DualPairSample(f, MinkVec.from_array(mu_fn(t)),
                           MinkVec.from_array(ft), MinkVec.from_array(fth),
                           MinkVec.from_array(gt), MinkVec(0, 0, 0, 0),
                           Fibration.DELTA1)
        assert max(abs(r) for r in isotropy_residuals(s)) <= 1e-8


def test_constant_pair_zero_residuals():
    zero = MinkVec(0, 0, 0, 0)
    s = DualPairSample(MinkVec(1, 0, 0, 0), MinkVec(0, 1, 0, 0),
                       zero, zero, zero, zero, Fibration.DELTA1)
    assert isotropy_residuals(s) == (0.0, 0.0, 0.0, 0.0, 0.0)
    assert front_verdict([s]) is FrontVerdict.FRONTAL


def test_perturbed_pair_detected(model_ce_h):
    s = pair_sample(model_ce_h, "focal_h_mu", 1.0, 0.5)
    g_bad = s.g + 0.1 * s.f
    bad = DualPairSample(s.f, g_bad, s.df_du, s.df_dv, s.dg_du, s.dg_dv,
                         s.fibration)
    r0 = isotropy_residuals(bad)[0]
    assert r0 == pytest.approx(-0.1 * abs(mink_dot(s.f, s.f)), abs=1e-6)
    assert front_verdict([bad]) is FrontVerdict.NOT_ISOTROPIC


def test_focal_pair_is_front(model_ce_h):
    rng = np.random.default_rng(57)
    samples = _samples_for(model_ce_h, "focal_h_mu", 40, rng, 0.0, 4.0)
    assert front_verdict(samples) is FrontVerdict.FRONT


def test_front_verdict_monotone_in_rank_tol(model_ce_h):
    rng = np.random.default_rng(59)
    samples = _samples_for(model_ce_h, "focal_h_mu", 25, rng, 0.0, 4.0)
    order = [FrontVerdict.FRONT, FrontVerdict.FRONTAL]
    prev = None
    for rtol in (1e-9, 1e-6, 1e-3, 1e-1, 0.5, 0.99):
        v = front_verdict(samples, DEFAULT.with_overrides({"rank_rtol": rtol}))
        assert v in order
        if prev is not None:
            # raising the threshold can only move Front -> Frontal
            assert order.index(v) >= order.index(prev)
        prev = v
    assert front_verdict(samples, DEFAULT.with_overrides({"rank_rtol": 0.999999})) \
        is FrontVerdict.FRONTAL


def _jacobians(rng, ratios):
    """8x2 matrices with singular values (s, s * ratio), s log-uniform in
    [1e-3, 1e3], in random orthonormal bases of the columns and rows."""
    q = np.linalg.qr(rng.normal(size=(len(ratios), 8, 2)))[0]
    r = np.linalg.qr(rng.normal(size=(len(ratios), 2, 2)))[0]
    s = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), len(ratios)))
    return (q * np.stack([s, s * ratios], axis=1)[:, None, :]) @ r


def test_closed_form_singular_values_match_the_svd():
    """sigma within 8 eps of sigma_1, and the rank verdict of the SVD, except
    within 1e-12 sigma_1 of the threshold, at ratios sigma_2 / sigma_1
    log-uniform in [1e-14, 1] and on both sides of each rank_rtol."""
    rng = np.random.default_rng(67)
    x = rng.normal(size=8)
    exact = [np.zeros((8, 2)), np.stack([x, np.zeros(8)], axis=1),
             np.stack([np.zeros(8), x], axis=1), np.stack([x, -4.0 * x], axis=1)]
    rtols = np.array([DEFAULT.rank_rtol, 1e-9, 1e-3, 0.5])
    # 1e-2 relative, and 1e-10 and 1e-11 of sigma_1, below and above each rtol
    near = rtols[:, None] + np.array([-1e-2, 0, 0, 0, 0, 1e-2]) * rtols[:, None] \
        + np.array([0, -1e-10, -1e-11, 1e-11, 1e-10, 0])
    ratios = np.concatenate([np.exp(rng.uniform(np.log(1e-14), 0.0, 20000)), near.ravel()])
    j = np.concatenate([exact, _jacobians(rng, ratios)])
    got, want = _singular_values(j), np.linalg.svd(j, compute_uv=False)
    assert (np.abs(got - want).max(axis=1) <= 8 * 2.0 ** -52 * want[:, 0]).all()
    assert (got[:4, 1] == 0.0).all()  # zero columns and exact rank one
    for i, rtol in enumerate(rtols):
        far = (np.abs(want[:, 1] - rtol * want[:, 0]) > 1e-12 * want[:, 0]) | (want[:, 0] == 0)
        assert far[:4].all() and far[len(j) - near.size:].reshape(near.shape)[i].all()
        assert np.array_equal((got[:, 1] <= rtol * got[:, 0])[far],
                              (want[:, 1] <= rtol * want[:, 0])[far]), rtol


def test_front_verdict_with_a_zero_column():
    """A zero derivative column is rank deficient (sigma_2 = 0); a second,
    independent one makes the pair a front."""
    zero = MinkVec(0, 0, 0, 0)
    f, g, f_u = MinkVec(1, 0, 0, 0), MinkVec(0, 1, 0, 0), MinkVec(0, 0, 1, 0)
    s = DualPairSample(f, g, f_u, zero, zero, zero, Fibration.DELTA1)
    assert front_verdict([s]) is FrontVerdict.FRONTAL
    s = DualPairSample(f, g, f_u, zero, zero, MinkVec(0, 0, 0, 1), Fibration.DELTA1)
    assert front_verdict([s]) is FrontVerdict.FRONT


def test_front_verdict_requires_samples():
    with pytest.raises(InvalidInputError):
        front_verdict([])


def test_unknown_pair_rejected(model_ce_h):
    with pytest.raises(InvalidInputError):
        pair_sample(model_ce_h, "nope", 1.0, 0.0)
