"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; every
tolerance is pinned here and nowhere else.
"""

import json
import math
import os

import numpy as np
import pytest

from hypframe import (CurvatureQuartet, MinkVec, eval_expr, evolute_d,
                      evolute_h, integrate_frame, lambda_d, lambda_dual_d,
                      lambda_dual_h, lambda_h, load_spec, mink_dot,
                      run_pipeline, scalar_invariants, singular_locus_h,
                      wedge3)
from hypframe.duality import PAIR_NAMES, isotropy_residuals, pair_sample, pair_theta_range
from hypframe.evolute import (classify_dual_d, classify_dual_h,
                              correspondence_check, dual_of_evolute_d,
                              dual_of_evolute_h)
from hypframe.focal import (SingularityType, classify_d, classify_h,
                            focal_d_point, focal_h_point, singular_locus_d)
from hypframe.propagation import gram_residual

from oracles import cofactor_det4, central_diff, fd_partials

SPEC_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "specs")


def _ok(num, name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {num:02d} PASS {name}{suffix}")


def test_criterion_01_minkowski_identities():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        x0, x1, x2, x3 = (MinkVec.from_array(v) for v in rng.uniform(-3, 3, (4, 4)))
        w = wedge3(x1, x2, x3)
        det = cofactor_det4([list(x0), list(x1), list(x2), list(x3)])
        mags = 1.0 + max(v.max_abs() for v in (x0, x1, x2, x3)) ** 4
        worst = max(worst, abs(mink_dot(x0, w) - det) / mags)
        for xi in (x1, x2, x3):
            worst = max(worst, abs(mink_dot(xi, w)) / mags)
        assert worst <= 1e-10
    _ok(1, "Minkowski wedge-determinant identities", f"worst {worst:.2e}")


def test_criterion_02_frame_fidelity(model_ce_h, model_ce_d):
    geo = integrate_frame(CurvatureQuartet.from_strings("1", "0", "0", "0"),
                          (0.0, 2.0, 2001), step=1e-3)
    worst_geo = 0.0
    for i, t in enumerate(geo.ts):
        expect_g = np.array([math.cosh(t), 0.0, 0.0, math.sinh(t)])
        expect_mu = np.array([math.sinh(t), 0.0, 0.0, math.cosh(t)])
        worst_geo = max(worst_geo,
                        np.abs(geo.frames[i][0] - expect_g).max(),
                        np.abs(geo.frames[i][3] - expect_mu).max())
    assert worst_geo <= 1e-8

    worst_pair = 0.0
    for model in (model_ce_h, model_ce_d):
        assert model.step == pytest.approx(1e-3)
        assert (model.t0, model.t1) == (0.0, 4.0)
        worst_pair = max(worst_pair,
                         max(gram_residual(f) for f in model.frames))
    assert worst_pair <= 1e-9
    _ok(2, "frame fidelity",
        f"geodesic {worst_geo:.2e}, pairings {worst_pair:.2e}")


def test_criterion_03_invariant_formulas():
    # independent substitution: derivatives by central differences of the
    # parsed curvature functions, combined per the defining displays
    def substitution(quartet_strings, t):
        q = CurvatureQuartet.from_strings(*quartet_strings)
        m, n, a, b = (lambda s: (lambda x: eval_expr(s, x)))(q.m), None, None, None
        fm = lambda x: eval_expr(q.m, x)
        fn = lambda x: eval_expr(q.n, x)
        fa = lambda x: eval_expr(q.a, x)
        fb = lambda x: eval_expr(q.b, x)
        da, db, dm = (float(central_diff(f, t)) for f in (fa, fb, fm))
        a_, b_, m_, n_ = fa(t), fb(t), fm(t), fn(t)
        ab2 = a_ * a_ + b_ * b_
        f_ = a_ * db - da * b_ + n_ * ab2
        g_ = m_ * db - dm * b_ + m_ * a_ * n_
        h_ = m_ * da - dm * a_ - m_ * b_ * n_
        sigma_ = f_ * f_ - g_ * g_ - h_ * h_
        big_a = math.sqrt(ab2)
        big_n = f_ / ab2
        d_biga = float(central_diff(lambda x: math.sqrt(
            eval_expr(q.a, x) ** 2 + eval_expr(q.b, x) ** 2), t))
        w = m_ * d_biga - dm * big_a
        sigma_f = ab2 * big_n ** 2 * (ab2 - m_ * m_) - w * w
        return f_, g_, h_, sigma_, sigma_f

    q1 = ("1", "1", "2", "0")
    inv = scalar_invariants(CurvatureQuartet.from_strings(*q1))
    for t in (0.0, 0.7, 2.4):
        vals = [eval_expr(e, t) for e in (inv.f, inv.g, inv.h, inv.sigma)]
        oracle = substitution(q1, t)
        for got, want in zip(vals, (4.0, 2.0, 0.0, 12.0)):
            assert abs(got - want) <= 1e-10
        for got, want in zip(vals, oracle[:4]):
            assert abs(got - want) <= 1e-6  # FD oracle noise only
    model1 = integrate_frame(CurvatureQuartet.from_strings(*q1), (0.0, 1.0, 11))
    assert abs(model1.frenet_data_at(0.5).sigma_f - 12.0) <= 1e-10
    assert abs(substitution(q1, 0.5)[4] - 12.0) <= 1e-6

    q2 = ("2", "1", "1", "0")
    model2 = integrate_frame(CurvatureQuartet.from_strings(*q2), (0.0, 1.0, 11))
    assert abs(model2.frenet_data_at(0.5).sigma_f - (-3.0)) <= 1e-10
    assert abs(substitution(q2, 0.5)[4] - (-3.0)) <= 1e-6
    _ok(3, "invariant formulas (4,2,0,12), sigma_F=12 and -3")


def test_criterion_04_duality_suite(model_ce_h, model_ce_d):
    rng = np.random.default_rng(104)
    models = {"focal_h_mu": model_ce_h, "focal_d_mu": model_ce_d,
              "dual_eh_evolute_h": model_ce_h, "dual_ed_evolute_d": model_ce_d}
    worst = 0.0
    for pair in PAIR_NAMES:
        model = models[pair]
        th_lo, th_hi = pair_theta_range(pair)
        for _ in range(200):
            t = float(rng.uniform(model.t0, model.t1))
            th = float(rng.uniform(th_lo, th_hi))
            s = pair_sample(model, pair, t, th)
            worst = max(worst, max(abs(r) for r in isotropy_residuals(s)))
        assert worst <= 1e-8, pair
    _ok(4, "duality suite: four pairs x 200 samples", f"worst {worst:.2e}")


def test_criterion_05_lambda_determinant_equivalence(model_ce_h_dense,
                                                     model_ce_d_dense):
    rng = np.random.default_rng(105)
    mu_of = lambda model: (lambda t: model.frame_at(t)[3])
    cases = [
        ("lambda_h", model_ce_h_dense, focal_h_point, lambda_h,
         mu_of(model_ce_h_dense), (-1.5, 1.5)),
        ("lambda_d", model_ce_d_dense, focal_d_point, lambda_d,
         mu_of(model_ce_d_dense), (0.0, 2.0 * math.pi)),
        ("lambda_dual_h", model_ce_h_dense, dual_of_evolute_h, lambda_dual_h,
         lambda t: evolute_h(model_ce_h_dense, t).point.as_array(),
         (0.0, 2.0 * math.pi)),
        ("lambda_dual_d", model_ce_d_dense, dual_of_evolute_d, lambda_dual_d,
         lambda t: evolute_d(model_ce_d_dense, t).point.as_array(),
         (-1.5, 1.5)),
    ]
    worst = 0.0
    for name, model, pointfn, lamfn, partner, (tlo, thi) in cases:
        for _ in range(200):
            t = float(rng.uniform(0.2, 1.8))
            th = float(rng.uniform(tlo, thi))
            ft, fth = fd_partials(
                lambda a, b: pointfn(model, a, b).as_array(), t, th)
            rows = [pointfn(model, t, th).as_array(), ft, fth,
                    np.asarray(partner(t))]
            det = cofactor_det4(rows)
            lam = lamfn(model, t, th)
            scale = 1.0 + abs(lam) + float(
                np.prod([np.linalg.norm(r) for r in rows]))
            rel = abs(det - lam) / scale
            worst = max(worst, rel)
            assert rel <= 1e-7, name
    _ok(5, "lambda = det(F, F_t, F_theta, partner) on all four surfaces",
        f"worst relative {worst:.2e}")


def test_criterion_06_sigma_dichotomy(model_sigma_sign):
    recs = singular_locus_h(model_sigma_sign)
    emitted = {round(float(r.param.t), 12) for r in recs}
    n_pos = n_neg = 0
    for t in model_sigma_sign.ts:
        data = model_sigma_sign.frenet_data_at(float(t))
        scale = (data.A * data.N) ** 2 * abs(data.disc_h) + data.W ** 2
        key = round(float(t), 12)
        if data.sigma_f > 1e-8 * (1.0 + scale):
            assert key in emitted
            n_pos += 1
        else:
            assert key not in emitted
            n_neg += 1
    assert n_pos and n_neg, "family must straddle the sigma_F sign change"
    _ok(6, "sigma_F dichotomy for the singular locus",
        f"{n_pos} emitting / {n_neg} silent grid points")


def test_criterion_07_correspondence(model_ce_h, model_ce_d):
    for model, leg_name in ((model_ce_h, "hyperbolic"), (model_ce_d, "desitter")):
        rep = correspondence_check(model)
        leg = getattr(rep, leg_name)
        assert leg.status == "checked"
        assert leg.max_image_distance <= 1e-8
        assert all(leg.agreements.values()), leg.failures

    located = []
    for alpha in (0.4, 0.5, 0.6):
        q = CurvatureQuartet.from_strings(f"{alpha}*t", "1", "2", "0")
        model = integrate_frame(q, (-1.45, 1.47, 293), step=1e-3)
        leg = correspondence_check(model).hyperbolic
        assert leg.status == "checked"
        assert all(leg.agreements.values()), leg.failures
        assert leg.events, f"alpha={alpha}: no epsilon crossing located"
        for ev in leg.events:
            assert ev["focal_type"] == "Swallowtail"
            assert ev["evolute_type"] == "Cusp234"
            assert ev["dual_type"] == "CuspidalCrossCap"
            assert ev["sw_iff_cusp"] and ev["sw_iff_ccr"]
            located.append((alpha, ev["t"]))
        assert leg.max_image_distance <= 1e-8
    _ok(7, "correspondence and swallowtail/cusp/cross-cap events",
        f"events at {', '.join(f'a={a}: t={t:.2e}' for a, t in located)}")


def test_criterion_08_selfduality_tables():
    for c in (0.3, 0.5, 0.9):
        # hyperbolic side: M = c A with A = 2 + 0.3 sin t
        a = "2+0.3*sin(t)"
        q = CurvatureQuartet.from_strings(f"{c}*({a})", "1", a, "0")
        model = integrate_frame(q, (0.0, 3.0, 121), step=1e-3)
        seen = set()
        for r in singular_locus_h(model, ts=model.ts[::8]):
            assert abs(r.param.theta) <= 1e-10          # S = {(t, 0)}
            seen.add(classify_h(model, r))
        assert seen == {SingularityType.CUSPIDAL_EDGE}  # N != 0 and M != 0
        dual_seen = {classify_dual_h(model, float(t)).type
                     for t in model.ts[::8]}
        assert dual_seen == {SingularityType.CUSPIDAL_EDGE}

        # de Sitter side: A = c M with A = 1 + 0.2 sin t
        a = "1+0.2*sin(t)"
        q = CurvatureQuartet.from_strings(f"({a})/{c}", "1", a, "0")
        model = integrate_frame(q, (0.0, 3.0, 121), step=1e-3)
        seen = set()
        for r in singular_locus_d(model, ts=model.ts[::8]):
            assert min(abs(r.param.theta), abs(r.param.theta - math.pi)) <= 1e-9
            seen.add(classify_d(model, r))
        assert seen == {SingularityType.CUSPIDAL_EDGE}  # N != 0: always CE
        dual_seen = {classify_dual_d(model, float(t)).type
                     for t in model.ts[::8]}
        assert dual_seen == {SingularityType.CUSPIDAL_EDGE}  # always CE
    _ok(8, "self-duality tables for M A' - M' A = 0 (c = 0.3, 0.5, 0.9)",
        "all rows CuspidalEdge, no cross caps")


def test_criterion_09_epsilon_cross_path(model_ce_h, model_ce_d,
                                         model_sw, model_sw_d):
    worst = 0.0
    for model, side in ((model_ce_h, "h"), (model_sw, "h"),
                        (model_ce_d, "d"), (model_sw_d, "d")):
        fe = getattr(model.frenet, side)
        path, closed = fe.eps_path, fe.eps_closed
        for t in model.ts[1:-1:5]:
            sigma = model.frenet_data_at(float(t)).sigma_f
            if side == "h" and sigma <= 1e-8:
                continue
            if side == "d" and sigma >= -1e-8:
                continue
            a = eval_expr(path, float(t))
            b = eval_expr(closed, float(t))
            rel = abs(a - b) / (1.0 + abs(a))
            worst = max(worst, rel)
            assert rel <= 1e-8
    _ok(9, "epsilon cross-path consistency (theta-branch vs closed form)",
        f"worst {worst:.2e}")


def test_criterion_10_determinism(tmp_path):
    for name in ("cuspidal_edge_hyperbolic", "cuspidal_edge_desitter",
                 "swallowtail_family"):
        spec = load_spec(os.path.join(SPEC_DIR, name + ".json"))
        outs = []
        for run in ("a", "b"):
            out = tmp_path / f"{name}_{run}"
            report = run_pipeline(spec, out_dir=str(out))
            files = {p: (out / p).read_bytes() for p in sorted(os.listdir(out))}
            outs.append((report.to_json(), files))
        assert outs[0][0] == outs[1][0], "report JSON must be byte-identical"
        assert sorted(outs[0][1]) == sorted(outs[1][1])
        for key in outs[0][1]:
            assert outs[0][1][key] == outs[1][1][key], key
    _ok(10, "byte-identical outputs across reruns of the bundled specs")
