import math

import numpy as np
import pytest

from hypframe import (CurvatureQuartet, Quadric, SingularityType,
                      classify_d, classify_h, focal_d_point, focal_h_point,
                      integrate_frame, lambda_d, lambda_h,
                      membership_residual, singular_locus_d,
                      singular_locus_h, surface_grid)
from hypframe.errors import InvalidInputError, SurfaceUndefinedError
from hypframe.focal import (D, H, SingularPointRecord, SurfaceParam, focal_d_partials,
                            focal_h_partials)
from hypframe.minkowski import MinkVec, mink_dot

from oracles import cofactor_det4, constraint_residuals, fd_partials

SQ3 = math.sqrt(3.0)


def test_focal_h_point_example(model_ce_h):
    t, p = 1.3, focal_h_point(model_ce_h, 1.3, 0.0)
    f = model_ce_h.frenet_frame_at(t)
    expect = (2.0 * f[0] - f[1]) / SQ3
    assert np.abs(p.as_array() - expect).max() <= 1e-12
    assert abs(membership_residual(p, Quadric.H3)) <= 1e-9


def test_focal_h_membership_and_constraints(model_ce_h):
    rng = np.random.default_rng(23)
    for _ in range(40):
        t = float(rng.uniform(0.0, 4.0))
        th = float(rng.uniform(-2.0, 2.0))
        p = focal_h_point(model_ce_h, t, th)
        assert abs(membership_residual(p, Quadric.H3)) <= 1e-9
        res = constraint_residuals(model_ce_h, t, p, H)
        assert abs(res["linear"]) <= 1e-9
        assert abs(res["quadric"]) <= 1e-9
        assert abs(res["mu_component"]) <= 1e-9


def test_focal_h_undefined_on_desitter_side(model_ce_d):
    with pytest.raises(SurfaceUndefinedError):
        focal_h_point(model_ce_d, 1.0, 0.3)
    with pytest.raises(SurfaceUndefinedError):
        lambda_h(model_ce_d, 1.0, 0.3)


def test_focal_d_point_examples(model_ce_d):
    t = 0.9
    f = model_ce_d.frenet_frame_at(t)
    p0 = focal_d_point(model_ce_d, t, 0.0)
    expect = (f[0] - 2.0 * f[1]) / SQ3
    assert np.abs(p0.as_array() - expect).max() <= 1e-12
    assert abs(membership_residual(p0, Quadric.S31)) <= 1e-9
    p_half = focal_d_point(model_ce_d, t, math.pi / 2.0)
    assert np.abs(p_half.as_array() - f[2]).max() <= 1e-12
    res = constraint_residuals(model_ce_d, t, p0, D)
    assert abs(res["linear"]) <= 1e-9 and abs(res["quadric"]) <= 1e-9


def test_focal_d_undefined_on_hyperbolic_side(model_ce_h):
    with pytest.raises(SurfaceUndefinedError):
        focal_d_point(model_ce_h, 1.0, 0.3)


def test_lambda_closed_forms(model_ce_h, model_ce_d):
    for th in (-1.0, 0.0, 0.4, 2.0):
        assert lambda_h(model_ce_h, 1.1, th) == pytest.approx(
            -(2.0 * SQ3 / 3.0) * math.sinh(th), abs=1e-12)
    for th in (0.0, 0.7, math.pi, 5.0):
        assert lambda_d(model_ce_d, 0.8, th) == pytest.approx(
            -(SQ3 / 3.0) * math.sin(th), abs=1e-12)


def test_lambda_determinant_identity(model_ce_h_dense, model_ce_d_dense):
    rng = np.random.default_rng(29)
    cases = [
        (model_ce_h_dense, focal_h_point, lambda_h, (-1.5, 1.5)),
        (model_ce_d_dense, focal_d_point, lambda_d, (0.0, 2.0 * math.pi)),
    ]
    for model, pointfn, lamfn, (tlo, thi) in cases:
        for _ in range(60):
            t = float(rng.uniform(0.2, 1.8))
            th = float(rng.uniform(tlo, thi))
            ft, fth = fd_partials(
                lambda a, b: pointfn(model, a, b).as_array(), t, th)
            rows = [pointfn(model, t, th).as_array(), ft, fth,
                    model.frame_at(t)[3]]
            det = cofactor_det4(rows)
            lam = lamfn(model, t, th)
            scale = 1.0 + abs(lam) + float(
                np.prod([np.linalg.norm(r) for r in rows]))
            assert abs(det - lam) <= 1e-7 * scale


def test_focal_isotropy_with_mu(model_ce_h, model_ce_d):
    rng = np.random.default_rng(31)
    for model, pointfn, partfn in (
            (model_ce_h, focal_h_point, focal_h_partials),
            (model_ce_d, focal_d_point, focal_d_partials)):
        for _ in range(40):
            t = float(rng.uniform(0.0, 4.0))
            th = float(rng.uniform(-1.5, 1.5))
            p = pointfn(model, t, th)
            ft, fth = partfn(model, t, th)
            mu = MinkVec.from_array(model.frame_at(t)[3])
            assert abs(mink_dot(p, mu)) <= 1e-8
            assert abs(mink_dot(ft, mu)) <= 1e-8
            assert abs(mink_dot(fth, mu)) <= 1e-8


def test_singular_locus_h_constant_quartet(model_ce_h):
    recs = singular_locus_h(model_ce_h)
    assert len(recs) == len(model_ce_h.ts)
    for r in recs:
        assert r.param.theta == 0.0
        assert abs(r.lam) <= 1e-8
        assert not r.whole_fiber


def test_singular_locus_h_root_check(model_sigma_sign):
    recs = singular_locus_h(model_sigma_sign)
    assert recs, "sigma_F > 0 region must produce records"
    for r in recs:
        assert abs(r.diagnostics["lambda_at_root"]) <= 1e-8
        assert r.sigma_f > 0


def test_sigma_dichotomy(model_sigma_sign):
    # sigma_F = 12 - 4 t^2: records exactly where sigma_F > 0
    recs = singular_locus_h(model_sigma_sign)
    emitted = {round(r.param.t, 12) for r in recs}
    for t in model_sigma_sign.ts:
        sigma = 12.0 - 4.0 * t * t
        if sigma > 1e-6:
            assert round(float(t), 12) in emitted
        elif sigma < -1e-6:
            assert round(float(t), 12) not in emitted


def test_singular_locus_h_requires_domain(model_ce_d):
    with pytest.raises(SurfaceUndefinedError):
        singular_locus_h(model_ce_d)


def test_singular_locus_d_two_roots(model_ce_d):
    recs = singular_locus_d(model_ce_d, ts=model_ce_d.ts[:20])
    per_t = {}
    for r in recs:
        per_t.setdefault(r.param.t, []).append(r.param.theta)
        assert abs(r.diagnostics["lambda_at_root"]) <= 1e-8
    for thetas in per_t.values():
        assert thetas == [0.0, pytest.approx(math.pi)]


def test_singular_locus_d_branch_refinement():
    # Dd = 0.7 (t - 1) sqrt(M^2 - 1) sweeps the root theta(t) through
    # ~2.5 radians around t = 1; on a 4-point grid adjacent roots jump by
    # more than pi/2, so the locus must refine the grid there
    q = CurvatureQuartet.from_strings("2+0.5*t", "0.7*(t-1)", "1", "0")
    model = integrate_frame(q, (0.05, 2.0, 4), step=1e-3)
    recs = singular_locus_d(model)
    normal = [r for r in recs if not r.whole_fiber]
    assert len(normal) > 2 * 4, "refinement should add intermediate records"
    for r in normal:
        assert abs(r.diagnostics["lambda_at_root"]) <= 1e-8
    ts = sorted({r.param.t for r in normal})
    assert any(t not in model.ts for t in ts)


def test_whole_fiber_emission():
    # W = 0 identically and N = t: at t = 0 the whole fiber is singular
    q = CurvatureQuartet.from_strings("1", "t", "2", "0")
    model = integrate_frame(q, (-0.5, 0.5, 101), step=1e-3)
    recs = singular_locus_h(model, ts=[0.0])
    assert recs and all(r.whole_fiber for r in recs)
    assert len({r.param.theta for r in recs}) == len(recs)


def test_classify_h_cuspidal_edge(model_ce_h):
    recs = singular_locus_h(model_ce_h, ts=[1.0, 2.0, 3.0])
    for r in recs:
        assert classify_h(model_ce_h, r) is SingularityType.CUSPIDAL_EDGE
        assert r.nondegenerate
        assert "epsilon" in r.diagnostics


def test_classify_h_swallowtail(model_sw):
    rec = SingularPointRecord(surface="focal_h",
                              param=SurfaceParam(0.0, math.atanh(-0.25)),
                              lam=0.0, sigma_f=15.0)
    assert classify_h(model_sw, rec) is SingularityType.SWALLOWTAIL
    assert rec.diagnostics["branch"] == "a"


def test_classify_d_cuspidal_edge(model_ce_d):
    recs = singular_locus_d(model_ce_d, ts=[0.5, 1.5])
    for r in recs:
        assert classify_d(model_ce_d, r) is SingularityType.CUSPIDAL_EDGE


def test_classify_h_branch_b_cases():
    # W = t, N = 2t + t^2 vanish together at t = 0
    q = CurvatureQuartet.from_strings("-(t^2)/2", "2*t+t^2", "1", "0")
    model = integrate_frame(q, (-0.5, 0.5, 101), step=1e-3)
    beaks = SingularPointRecord(surface="focal_h",
                                param=SurfaceParam(0.0, math.atanh(0.5)),
                                lam=0.0, sigma_f=0.0)
    assert classify_h(model, beaks) is SingularityType.CUSPIDAL_BEAKS
    assert beaks.diagnostics["branch"] == "b"
    edge = SingularPointRecord(surface="focal_h",
                               param=SurfaceParam(0.0, 0.9),
                               lam=0.0, sigma_f=0.0)
    assert classify_h(model, edge) is SingularityType.CUSPIDAL_EDGE


def test_classify_d_branch_b_cases():
    q = CurvatureQuartet.from_strings("2+t^2", "2*t+t^2", "1", "0")
    model = integrate_frame(q, (-0.5, 0.5, 101), step=1e-3)
    beaks = SingularPointRecord(surface="focal_d",
                                param=SurfaceParam(0.0, -math.pi / 6.0),
                                lam=0.0, sigma_f=0.0)
    assert classify_d(model, beaks) is SingularityType.CUSPIDAL_BEAKS
    edge = SingularPointRecord(surface="focal_d",
                               param=SurfaceParam(0.0, 1.0),
                               lam=0.0, sigma_f=0.0)
    assert classify_d(model, edge) is SingularityType.CUSPIDAL_EDGE


def test_classify_degenerate_outcome():
    # W = 0 and Dh = 2 sqrt(3) t: at (0, 0) every stated test fails
    q = CurvatureQuartet.from_strings("1", "t", "2", "0")
    model = integrate_frame(q, (-0.5, 0.5, 101), step=1e-3)
    rec = SingularPointRecord(surface="focal_h", param=SurfaceParam(0.0, 0.0),
                              lam=0.0, sigma_f=0.0)
    assert classify_h(model, rec) is SingularityType.DEGENERATE_UNCLASSIFIED


_EXCLUDED_A = {SingularityType.CUSPIDAL_CROSS_CAP, SingularityType.CUSPIDAL_LIPS,
               SingularityType.CUSPIDAL_BEAKS}
_EXCLUDED_B = {SingularityType.CUSPIDAL_CROSS_CAP, SingularityType.CUSPIDAL_LIPS,
               SingularityType.SWALLOWTAIL}


def test_exclusions(model_ce_h, model_ce_d, model_sw):
    # branch (a) never yields cross caps (nor the degenerate-branch types);
    # branch (b) never yields swallowtails, lips, or cross caps
    for model, locus, classify in (
            (model_ce_h, singular_locus_h, classify_h),
            (model_sw, singular_locus_h, classify_h)):
        for r in locus(model):
            ty = classify(model, r)
            banned = _EXCLUDED_B if r.diagnostics["branch"] == "b" else _EXCLUDED_A
            assert ty not in banned
    for r in singular_locus_d(model_ce_d, ts=model_ce_d.ts[::40]):
        ty = classify_d(model_ce_d, r)
        banned = _EXCLUDED_B if r.diagnostics["branch"] == "b" else _EXCLUDED_A
        assert ty not in banned
    degens = [
        ("1", "t", "2", "0", singular_locus_h, classify_h, (-0.5, 0.5, 101)),
        ("-(t^2)/2", "2*t+t^2", "1", "0", singular_locus_h, classify_h, (-0.5, 0.5, 101)),
    ]
    for m, n, a, b, locus, classify, dom in degens:
        model = integrate_frame(CurvatureQuartet.from_strings(m, n, a, b),
                                dom, step=1e-3)
        for r in locus(model, ts=[0.0]):
            ty = classify(model, r)
            assert ty not in _EXCLUDED_B or r.diagnostics["branch"] == "a"


def test_desitter_condition_pair_equivalence(model_ce_d, model_sw_d):
    # on the de Sitter domain (A > 0, M^2 > A^2) the zero pattern of N
    # matches that of A N sqrt(M^2 - A^2)
    for model in (model_ce_d, model_sw_d):
        for t in model.ts[::25]:
            data = model.frenet_data_at(float(t))
            scale = 1.0 + abs(data.N) + abs(data.Dd)
            assert (abs(data.N) <= 1e-8 * scale) == (abs(data.Dd) <= 1e-8 * scale)


def test_surface_grid(model_ce_h):
    ts = [0.5, 1.0]
    thetas = [-0.3, 0.3]
    grid = surface_grid(model_ce_h, "focal_h", ts, thetas)
    assert grid.shape == (2, 2, 4)
    for i in range(2):
        for j in range(2):
            p = MinkVec.from_array(grid[i, j])
            assert abs(membership_residual(p, Quadric.H3)) <= 1e-9
    assert surface_grid(model_ce_h, "focal_h", [], []).size == 0


def test_surface_grid_error_names_index(model_ce_h):
    with pytest.raises(SurfaceUndefinedError) as err:
        surface_grid(model_ce_h, "focal_d", [0.5], [0.0])
    assert "i=0" in str(err.value)
    with pytest.raises(InvalidInputError):
        surface_grid(model_ce_h, "nope", [0.5], [0.0])
