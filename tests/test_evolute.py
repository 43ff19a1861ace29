import math

import numpy as np
import pytest

from hypframe import (CurvatureQuartet, EvolutePointType, Quadric,
                      SingularityType, classify_dual_d, classify_dual_h,
                      correspondence_check, dual_of_evolute_d,
                      dual_of_evolute_h, eval_expr, evolute_d, evolute_h,
                      integrate_frame, lambda_dual_d, lambda_dual_h,
                      membership_residual, mink_dot, psi_probe)
from hypframe.errors import EvoluteUndefinedError
from hypframe.evolute import (dual_of_evolute_d_partials,
                              dual_of_evolute_h_partials)
from hypframe.focal import (D, H, _eps_values, focal_d_partials, focal_d_point,
                            focal_h_partials, focal_h_point)

from oracles import bisect_sign_change, cofactor_det4, central_diff, fd_partials

SQ3 = math.sqrt(3.0)


def test_evolute_h_example(model_ce_h):
    es = evolute_h(model_ce_h, 1.3)
    f = model_ce_h.frenet_frame_at(1.3)
    expect = (2.0 * f[0] - f[1]) / SQ3
    assert np.abs(es.point.as_array() - expect).max() <= 1e-12
    assert es.point_type is EvolutePointType.REGULAR_POINT
    assert es.epsilon == pytest.approx(-1.0 / SQ3, abs=1e-12)


def test_evolute_h_normalization(model_ce_h):
    rng = np.random.default_rng(37)
    for _ in range(100):
        t = float(rng.uniform(0.0, 4.0))
        es = evolute_h(model_ce_h, t)
        assert abs(membership_residual(es.point, Quadric.H3)) <= 1e-9


def test_evolute_undefined_cases(model_ce_d):
    geo = integrate_frame(CurvatureQuartet.from_strings("1", "0", "0", "0"),
                          (0.0, 1.0, 11), step=1e-3)
    with pytest.raises(Exception):
        evolute_h(geo, 0.5)  # frame degenerate before sigma even matters
    with pytest.raises(EvoluteUndefinedError):
        evolute_h(model_ce_d, 0.5)  # sigma_F = -3 < 0


def test_evolute_d_example(model_ce_d):
    es = evolute_d(model_ce_d, 0.9)
    f = model_ce_d.frenet_frame_at(0.9)
    expect = (f[0] - 2.0 * f[1]) / SQ3
    assert np.abs(es.point.as_array() - expect).max() <= 1e-12
    assert abs(membership_residual(es.point, Quadric.S31)) <= 1e-9
    assert es.epsilon == pytest.approx(-2.0 / SQ3, abs=1e-12)
    assert es.point_type is EvolutePointType.REGULAR_POINT


def test_evolute_d_undefined_on_hyperbolic_side(model_ce_h):
    with pytest.raises(EvoluteUndefinedError):
        evolute_d(model_ce_h, 0.5)


def test_evolute_derivative_matches_fd(model_ce_h_dense):
    for t in (0.4, 0.9, 1.5):
        es = evolute_h(model_ce_h_dense, t)
        fd = central_diff(lambda x: evolute_h(model_ce_h_dense, x).point.as_array(),
                          t, h=1e-6)
        assert np.abs(es.derivative1.as_array() - fd).max() <= 1e-6


def test_evolute_derivative_epsilon_triple(model_sw):
    # E' = eps1 gamma + eps2 n1 + eps3 n2 with the epsilon triple built
    # from theta(t) and the common factor theta' - M N / sqrt(A^2 - M^2)
    for t in (-0.9, -0.3, 0.4, 1.1):
        data = model_sw.frenet_data_at(t)
        es = evolute_h(model_sw, t)
        f = model_sw.frenet_frame_at(t)
        root = math.sqrt(data.disc_h)
        theta = math.atanh(data.W / data.Dh)
        eps = es.epsilon
        e1 = math.sinh(theta) * data.A / root * eps
        e2 = math.sinh(theta) * (-data.M) / root * eps
        e3 = math.cosh(theta) * eps
        expect = e1 * f[0] + e2 * f[1] + e3 * f[2]
        assert np.abs(es.derivative1.as_array() - expect).max() <= 1e-8


def test_eps_cross_path_consistency(model_ce_h, model_sw, model_ce_d, model_sw_d):
    for model, side in ((model_ce_h, "h"), (model_sw, "h"),
                        (model_ce_d, "d"), (model_sw_d, "d")):
        fe = model.frenet
        path = fe.eps_h_path if side == "h" else fe.eps_d_path
        closed = fe.eps_h_closed if side == "h" else fe.eps_d_closed
        for t in model.ts[3::20]:
            a = eval_expr(path, float(t))
            b = eval_expr(closed, float(t))
            assert abs(a - b) <= 1e-8 * (1.0 + abs(a))


def test_dual_of_evolute_h_points(model_ce_h):
    t = 1.1
    f = model_ce_h.frenet_frame_at(t)
    p0 = dual_of_evolute_h(model_ce_h, t, 0.0)
    assert np.abs(p0.as_array() - f[3]).max() == 0.0
    p_half = dual_of_evolute_h(model_ce_h, t, math.pi / 2.0)
    expect = (-1.0 * f[0] + 2.0 * f[1]) / SQ3
    assert np.abs(p_half.as_array() - expect).max() <= 1e-12
    assert abs(membership_residual(p_half, Quadric.S31)) <= 1e-9


def test_dual_of_evolute_h_isotropy(model_ce_h):
    rng = np.random.default_rng(41)
    for _ in range(60):
        t = float(rng.uniform(0.0, 4.0))
        th = float(rng.uniform(0.0, 2.0 * math.pi))
        p = dual_of_evolute_h(model_ce_h, t, th)
        ft, fth = dual_of_evolute_h_partials(model_ce_h, t, th)
        e = evolute_h(model_ce_h, t).point
        for v in (p, ft, fth):
            assert abs(mink_dot(v, e)) <= 1e-8


def test_dual_of_evolute_d_points(model_ce_d):
    t = 0.8
    f = model_ce_d.frenet_frame_at(t)
    p0 = dual_of_evolute_d(model_ce_d, t, 0.0)
    assert np.abs(p0.as_array() - f[3]).max() == 0.0
    p1 = dual_of_evolute_d(model_ce_d, t, 1.0)
    assert abs(membership_residual(p1, Quadric.S31)) <= 1e-9


def test_dual_of_evolute_d_isotropy(model_ce_d):
    rng = np.random.default_rng(43)
    for _ in range(60):
        t = float(rng.uniform(0.0, 4.0))
        th = float(rng.uniform(-2.0, 2.0))
        p = dual_of_evolute_d(model_ce_d, t, th)
        ft, fth = dual_of_evolute_d_partials(model_ce_d, t, th)
        e = evolute_d(model_ce_d, t).point
        for v in (p, ft, fth):
            assert abs(mink_dot(v, e)) <= 1e-8


@pytest.mark.parametrize("pointfn, partfn, fixture", [
    (focal_h_point, focal_h_partials, "model_ce_h_dense"),
    (focal_d_point, focal_d_partials, "model_ce_d_dense"),
    (dual_of_evolute_h, dual_of_evolute_h_partials, "model_ce_h_dense"),
    (dual_of_evolute_d, dual_of_evolute_d_partials, "model_ce_d_dense"),
], ids=["focal_h", "focal_d", "dual_eh", "dual_ed"])
def test_partials_match_finite_differences(pointfn, partfn, fixture, request):
    # the isotropy tests pair the partials with mu or E, blind to an error
    # along a vector orthogonal to it (mu itself, for the duals of evolutes)
    model = request.getfixturevalue(fixture)
    for t, th in ((1.0, 0.4), (1.0, -0.7), (0.5, 1.3), (1.5, 2.6)):
        fd = fd_partials(lambda a, b: pointfn(model, a, b).as_array(), t, th)
        for exact, approx in zip(partfn(model, t, th), fd):
            assert np.abs(exact.as_array() - approx).max() <= 1e-6


def test_lambda_dual_values(model_ce_h, model_ce_d):
    assert lambda_dual_h(model_ce_h, 1.0, 0.0) == 0.0
    # determinant-consistent sign: + sin(theta) sqrt(sigma_F) / (A^2 - M^2)
    assert lambda_dual_h(model_ce_h, 1.0, math.pi / 2.0) == pytest.approx(
        math.sqrt(12.0) / 3.0, abs=1e-12)
    assert lambda_dual_d(model_ce_d, 0.8, 0.0) == 0.0
    assert lambda_dual_d(model_ce_d, 0.8, 1.0) == pytest.approx(
        -math.sinh(1.0) * SQ3 / 3.0, abs=1e-12)


def test_lambda_dual_determinant_identity(model_ce_h_dense, model_ce_d_dense):
    rng = np.random.default_rng(47)
    cases = [
        (model_ce_h_dense, dual_of_evolute_h, lambda_dual_h, evolute_h,
         (0.0, 2.0 * math.pi)),
        (model_ce_d_dense, dual_of_evolute_d, lambda_dual_d, evolute_d,
         (-1.5, 1.5)),
    ]
    for model, pointfn, lamfn, efn, (tlo, thi) in cases:
        for _ in range(60):
            t = float(rng.uniform(0.2, 1.8))
            th = float(rng.uniform(tlo, thi))
            ft, fth = fd_partials(
                lambda a, b: pointfn(model, a, b).as_array(), t, th)
            rows = [pointfn(model, t, th).as_array(), ft, fth,
                    efn(model, t).point.as_array()]
            det = cofactor_det4(rows)
            lam = lamfn(model, t, th)
            scale = 1.0 + abs(lam) + float(
                np.prod([np.linalg.norm(r) for r in rows]))
            assert abs(det - lam) <= 1e-7 * scale


def test_classify_dual_h_cuspidal_edge(model_ce_h):
    rec = classify_dual_h(model_ce_h, 1.2)
    assert rec.type is SingularityType.CUSPIDAL_EDGE
    assert rec.surface == "dual_eh"
    assert rec.param.theta == 0.0
    # the pi fiber point carries the same type
    assert classify_dual_h(model_ce_h, 1.2, math.pi).type is rec.type


def test_classify_dual_h_cross_cap(model_sw):
    # epsilon of the swept family changes sign at t = 0
    t0 = bisect_sign_change(lambda t: _eps_values(model_sw, t, H)[0],
                            -0.2, 0.3)
    rec = classify_dual_h(model_sw, t0)
    assert rec.type is SingularityType.CUSPIDAL_CROSS_CAP
    es = evolute_h(model_sw, t0)
    assert es.point_type is EvolutePointType.CUSP_234
    # two independent epsilon paths agree at the located point
    assert rec.diagnostics["epsilon"] == pytest.approx(es.epsilon, abs=1e-8)


def test_classify_dual_d_cuspidal_edge(model_ce_d):
    rec = classify_dual_d(model_ce_d, 1.0)
    assert rec.type is SingularityType.CUSPIDAL_EDGE
    assert rec.surface == "dual_ed"


def test_classify_dual_d_cross_cap(model_sw_d):
    eps = lambda t: _eps_values(model_sw_d, t, D)[0]
    ts = np.linspace(0.1, 1.9, 50)
    vals = [eps(float(t)) for t in ts]
    bracket = next((i for i in range(len(ts) - 1)
                    if vals[i] * vals[i + 1] < 0), None)
    assert bracket is not None, "family should exhibit an epsilon crossing"
    t0 = bisect_sign_change(eps, float(ts[bracket]), float(ts[bracket + 1]))
    rec = classify_dual_d(model_sw_d, t0)
    assert rec.type is SingularityType.CUSPIDAL_CROSS_CAP
    assert evolute_d(model_sw_d, t0).point_type is EvolutePointType.CUSP_234


def test_dual_epsilon_matches_evolute_epsilon(model_ce_h, model_ce_d):
    for model, classify, efn, ts in (
            (model_ce_h, classify_dual_h, evolute_h, (0.5, 1.7, 3.1)),
            (model_ce_d, classify_dual_d, evolute_d, (0.4, 1.3, 2.6))):
        for t in ts:
            rec = classify(model, t)
            es = efn(model, t)
            assert rec.diagnostics["epsilon"] == pytest.approx(es.epsilon, abs=1e-8)


def test_psi_probe(model_sw):
    probe = psi_probe(model_sw, 0.0, side="h", delta=1e-2)
    assert probe["vanishes_at_t0"]
    assert all(p < 0 for p in probe["psi_left"] + probe["psi_right"])
    slope = abs(probe["epsilon_prime_at_t0"])
    assert probe["slope_left"] == pytest.approx(slope, rel=1e-2)
    assert probe["slope_right"] == pytest.approx(-slope, rel=1e-2)
    regular = psi_probe(model_sw, 0.8, side="h", delta=1e-2)
    assert not regular["vanishes_at_t0"]


def test_correspondence_hyperbolic_quartet(model_ce_h):
    rep = correspondence_check(model_ce_h)
    assert rep.hyperbolic.status == "checked"
    assert rep.hyperbolic.max_image_distance <= 1e-8
    assert all(rep.hyperbolic.agreements.values())
    assert rep.hyperbolic.failures == []
    assert rep.desitter.status == "skipped"
    assert rep.desitter.reason
    assert rep.all_agree()


def test_correspondence_desitter_quartet(model_ce_d):
    rep = correspondence_check(model_ce_d)
    assert rep.desitter.status == "checked"
    assert rep.desitter.max_image_distance <= 1e-8
    assert all(rep.desitter.agreements.values())
    assert rep.hyperbolic.status == "skipped"


def test_correspondence_degenerate_quartet():
    geo = integrate_frame(CurvatureQuartet.from_strings("1", "0", "0", "0"),
                          (0.0, 1.0, 11), step=1e-3)
    rep = correspondence_check(geo)
    assert rep.hyperbolic.status == "skipped" and rep.hyperbolic.reason
    assert rep.desitter.status == "skipped" and rep.desitter.reason


def test_correspondence_sweep_events(model_sw, model_sw_d):
    rep = correspondence_check(model_sw)
    leg = rep.hyperbolic
    assert leg.events, "the swept family must produce an epsilon crossing"
    for ev in leg.events:
        assert ev["focal_type"] == "Swallowtail"
        assert ev["evolute_type"] == "Cusp234"
        assert ev["dual_type"] == "CuspidalCrossCap"
        assert ev["sw_iff_cusp"] and ev["sw_iff_ccr"]
    assert all(leg.agreements.values())

    rep_d = correspondence_check(model_sw_d)
    leg_d = rep_d.desitter
    assert leg_d.events
    for ev in leg_d.events:
        assert ev["focal_type"] == "Swallowtail"
        assert ev["dual_type"] == "CuspidalCrossCap"
    assert all(leg_d.agreements.values())


# ---------------------------------------------------------------------------
# The self-duality tables under M A' - M' A = 0 (M proportional to A)

TABLE_CS = (0.3, 0.5, 0.9)


def _table_model_h(c):
    a = "2+0.3*sin(t)"
    q = CurvatureQuartet.from_strings(f"{c}*({a})", "1", a, "0")
    return integrate_frame(q, (0.0, 3.0, 151), step=1e-3)


def _table_model_d(c):
    a = "1+0.2*sin(t)"
    q = CurvatureQuartet.from_strings(f"({a})/{c}", "1", a, "0")
    return integrate_frame(q, (0.0, 3.0, 151), step=1e-3)


@pytest.mark.parametrize("c", TABLE_CS)
def test_selfduality_table_hyperbolic(c):
    from hypframe import classify_h, singular_locus_h

    model = _table_model_h(c)
    recs = singular_locus_h(model, ts=model.ts[::10])
    assert recs
    for r in recs:
        assert r.param.theta == pytest.approx(0.0, abs=1e-10)
        assert classify_h(model, r) is SingularityType.CUSPIDAL_EDGE
    for t in model.ts[::10]:
        rec = classify_dual_h(model, float(t))
        assert rec.type is SingularityType.CUSPIDAL_EDGE
        assert rec.type is not SingularityType.CUSPIDAL_CROSS_CAP


@pytest.mark.parametrize("c", TABLE_CS)
def test_selfduality_table_desitter(c):
    from hypframe import classify_d, singular_locus_d

    model = _table_model_d(c)
    recs = singular_locus_d(model, ts=model.ts[::10])
    assert recs
    thetas = {round(r.param.theta, 9) for r in recs}
    assert thetas == {0.0, round(math.pi, 9)}
    for r in recs:
        assert classify_d(model, r) is SingularityType.CUSPIDAL_EDGE
    for t in model.ts[::10]:
        rec = classify_dual_d(model, float(t))
        assert rec.type is SingularityType.CUSPIDAL_EDGE


def test_table_negative_case_m_zero():
    # with M = 0 the hyperbolic fiber point (t, 0) is not a cuspidal edge
    q = CurvatureQuartet.from_strings("0", "1", "2", "0")
    model = integrate_frame(q, (0.0, 1.0, 51), step=1e-3)
    from hypframe import classify_h, singular_locus_h

    recs = singular_locus_h(model, ts=[0.5])
    assert recs
    for r in recs:
        assert classify_h(model, r) is not SingularityType.CUSPIDAL_EDGE
