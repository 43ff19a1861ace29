import math

import numpy as np
import pytest

from hypframe import CurvatureQuartet, eval_expr, integrate_frame, scalar_invariants
from hypframe.errors import (FrameDegenerateError, InvalidInputError,
                             NumericError)
from hypframe.framedcurve import FrenetExprs, wedge_residual
from hypframe.minkowski import METRIC
from hypframe.propagation import coefficient_matrix_values, gram_residual
from hypframe.symexpr import ExprDomainError

from oracles import central_diff, frenet_frame

Q_CE_H = CurvatureQuartet.from_strings("1", "1", "2", "0")
Q_CE_D = CurvatureQuartet.from_strings("2", "1", "1", "0")
Q_GEO = CurvatureQuartet.from_strings("1", "0", "0", "0")


def coefficient_matrix(q, t):
    """The generator C(t) of the frame ODE, from the quartet's values at t."""
    return coefficient_matrix_values(*(eval_expr(e, t) for e in q))


def test_coefficient_matrix_examples():
    c = coefficient_matrix(Q_GEO, 0.3)
    assert np.array_equal(c, np.array([
        [0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]], dtype=float))
    c = coefficient_matrix(Q_CE_H, 1.1)
    assert np.array_equal(c, np.array([
        [0, 0, 0, 1], [0, 0, 1, 2], [0, -1, 0, 0], [1, -2, 0, 0]], dtype=float))


def test_coefficient_matrix_lorentz_antisymmetry():
    rng = np.random.default_rng(1)
    q = CurvatureQuartet.from_strings("sin(t)", "t^2-1", "cosh(t)", "0.3*t")
    for _ in range(20):
        t = float(rng.uniform(-2, 2))
        c = coefficient_matrix(q, t)
        assert np.abs(c @ METRIC + METRIC @ c.T).max() == 0.0


def test_geodesic_closed_form():
    m = integrate_frame(Q_GEO, (0.0, 2.0, 201), step=1e-3)
    worst = 0.0
    for i, t in enumerate(m.ts):
        g, mu = m.frames[i][0], m.frames[i][3]
        expect_g = np.array([math.cosh(t), 0, 0, math.sinh(t)])
        expect_mu = np.array([math.sinh(t), 0, 0, math.cosh(t)])
        worst = max(worst, np.abs(g - expect_g).max(), np.abs(mu - expect_mu).max())
        assert np.abs(m.frames[i][1] - np.array([0, 1, 0, 0])).max() < 1e-12
        assert np.abs(m.frames[i][2] - np.array([0, 0, 1, 0])).max() < 1e-12
    assert worst <= 1e-8


def test_zero_quartet_constant_frames():
    q = CurvatureQuartet.from_strings("0", "0", "0", "0")
    m = integrate_frame(q, (0.0, 1.0, 11), step=1e-2)
    assert np.abs(m.frames - m.frames[0]).max() == 0.0


def test_richardson_half_step():
    full = integrate_frame(Q_CE_H, (0.0, 4.0, 41), step=4e-3)
    half = integrate_frame(Q_CE_H, (0.0, 4.0, 41), step=2e-3)
    assert np.abs(full.frames - half.frames).max() <= 1e-8


def test_richardson_half_step_nonautonomous():
    q = CurvatureQuartet.from_strings("sin(t)", "1", "2+0.5*cos(t)", "0.2*t")
    full = integrate_frame(q, (0.0, 3.0, 31), step=4e-3)
    half = integrate_frame(q, (0.0, 3.0, 31), step=2e-3)
    assert np.abs(full.frames - half.frames).max() <= 1e-8


def test_sample_invariants(model_ce_h, model_ce_d):
    for model in (model_ce_h, model_ce_d):
        assert max(gram_residual(f) for f in model.frames) <= 1e-9
        assert max(wedge_residual(f) for f in model.frames) <= 1e-9


def test_uniqueness_same_curvature():
    a = integrate_frame(Q_CE_H, (0.0, 4.0, 101), step=1e-3)
    b = integrate_frame(Q_CE_H, (0.0, 4.0, 101), step=2.5e-4)
    assert np.abs(a.frames - b.frames).max() <= 1e-8


def test_scalar_invariants_examples():
    inv = scalar_invariants(Q_CE_H)
    for t in (0.0, 0.6, 2.2):
        vals = [eval_expr(e, t) for e in (inv.f, inv.g, inv.h, inv.sigma)]
        assert vals == [4.0, 2.0, 0.0, 12.0]
    for q in (Q_GEO, CurvatureQuartet.from_strings("0", "0", "0", "0")):
        inv = scalar_invariants(q)
        assert [eval_expr(e, 0.9) for e in (inv.f, inv.g, inv.h, inv.sigma)] \
            == [0.0, 0.0, 0.0, 0.0]


def test_sigma_consistent_with_fgh():
    rng = np.random.default_rng(17)
    q = CurvatureQuartet.from_strings("sin(t)", "t", "2+cos(t)", "0.5*t")
    inv = scalar_invariants(q)
    for _ in range(100):
        t = float(rng.uniform(-2, 2))
        f, g, h = (eval_expr(e, t) for e in (inv.f, inv.g, inv.h))
        sigma = eval_expr(inv.sigma, t)
        expect = f * f - g * g - h * h
        assert abs(sigma - expect) <= 1e-10 * (1.0 + abs(expect))


def test_frenet_frame_and_data_examples(model_ce_h, model_ce_d):
    data = model_ce_h.frenet_data_at(1.3)
    n1, n2 = model_ce_h.frenet_frame_at(1.3)[1:3]
    f = model_ce_h.frame_at(1.3)
    assert np.abs(n1 - f[1]).max() < 1e-14
    assert np.abs(n2 - f[2]).max() < 1e-14
    assert (data.M, data.N, data.A, data.B) == (1.0, 1.0, 2.0, 0.0)
    assert data.sigma_f == pytest.approx(12.0, abs=1e-12)

    data_d = model_ce_d.frenet_data_at(0.9)
    assert (data_d.M, data_d.N, data_d.A) == (2.0, 1.0, 1.0)
    assert data_d.sigma_f == pytest.approx(-3.0, abs=1e-12)


def test_frenet_degenerate_error():
    m = integrate_frame(Q_GEO, (0.0, 1.0, 11), step=1e-3)
    with pytest.raises(FrameDegenerateError):
        m.frenet_data_at(0.5)


def _bits(a):
    return np.asarray(a).view(np.int64).tolist()


def test_frenet_frame_memo_hands_out_copies():
    q = CurvatureQuartet.from_strings("1+0.3*sin(t)", "t", "2+0.5*cos(t)", "0.4")
    model = integrate_frame(q, (0.0, 1.0, 11))
    want = _bits(frenet_frame(model, 0.35))
    for _ in range(3):  # the first call fills the memo, the others hit it
        got = model.frenet_frame_at(0.35)
        assert _bits(got) == want
        got[:] = 7.0
    # the same bits in the order a, b, a as afresh, on grid and off it
    fresh = integrate_frame(q, (0.0, 1.0, 11))
    for t in (0.35, 0.4, 0.35, 0.4, 0.4):
        assert _bits(model.frenet_frame_at(t)) == _bits(frenet_frame(fresh, t))


def test_frenet_memos_keep_signed_zeros_apart():
    # a(t) = t: at t = -0.0 the rotated n2 starts with -0.0, at 0.0 with 0.0
    q = CurvatureQuartet.from_strings("1", "1", "t", "1")
    model = integrate_frame(q, (0.0, 1.0, 11))
    for t in (0.0, -0.0, 0.0):
        got = model.frenet_frame_at(t)
        assert _bits(got) == _bits(frenet_frame(model, t))
        assert math.copysign(1.0, got[2, 0]) == math.copysign(1.0, t)
        assert math.copysign(1.0, model.frenet_data_at(t).t) == math.copysign(1.0, t)


def test_frenet_frame_raises_on_every_degenerate_call():
    # a^2 + b^2 = t^2 vanishes at t = 0
    model = integrate_frame(CurvatureQuartet.from_strings("1", "1", "t", "0"),
                            (-1.0, 1.0, 21))
    for t in (0.0, 0.0, 0.5, 0.0):
        if t == 0.0:
            with pytest.raises(FrameDegenerateError, match="a\\^2\\+b\\^2 = 0.0"):
                model.frenet_frame_at(t)
        else:
            model.frenet_frame_at(t)


def test_converted_frame_reproduces_frenet_quartet(model_ce_h):
    # re-derive (m, n, a, b) of the rotated frame by pairing FD derivatives;
    # dense grid keeps the interpolation derivative below the FD tolerance
    q = CurvatureQuartet.from_strings("1+0.3*sin(t)", "t", "2+0.5*cos(t)", "0.4")
    model = integrate_frame(q, (0.0, 2.0, 2001), step=1e-3)
    for t in (0.31, 0.9, 1.57):
        data = model.frenet_data_at(t)
        d = central_diff(lambda x: model.frenet_frame_at(x), t, h=1e-6)
        f = model.frenet_frame_at(t)
        signs = np.array([-1.0, 1, 1, 1])

        def pair(u, v):
            return float(np.dot(u * signs, v))

        m_re = pair(d[0], f[3])
        n_re = pair(d[1], f[2])
        a_re = pair(d[1], f[3])
        b_re = pair(d[2], f[3])
        assert m_re == pytest.approx(data.M, abs=1e-8)
        assert n_re == pytest.approx(data.N, abs=1e-8)
        assert a_re == pytest.approx(data.A, abs=1e-8)
        assert abs(b_re) <= 1e-8


def test_congruence_under_rotation():
    # a Lorentz motion of the initial frame moves every frame by it
    angle = 0.7
    rot = np.eye(4)
    rot[1, 1] = rot[2, 2] = math.cos(angle)
    rot[1, 2], rot[2, 1] = -math.sin(angle), math.sin(angle)
    a = integrate_frame(Q_CE_H, (0.0, 2.0, 101), step=1e-3)
    b = integrate_frame(Q_CE_H, (0.0, 2.0, 101), step=1e-3, initial=np.eye(4) @ rot.T)
    assert np.abs(a.frames[:, :3] @ rot.T - b.frames[:, :3]).max() <= 1e-9


def test_dense_output_accuracy(model_ce_h):
    # dense output stays pseudo-orthonormal and near the flow
    direct = integrate_frame(Q_CE_H, (0.0, 1.0005, 2), step=1e-4)
    f = model_ce_h.frame_at(1.0005)
    assert np.abs(f - direct.frames[-1]).max() <= 1e-9
    assert gram_residual(f) <= 1e-12


def test_frame_at_outside_domain(model_ce_h):
    with pytest.raises(InvalidInputError):
        model_ce_h.frame_at(4.5)


def test_initial_frame_validation():
    bad = np.eye(4)
    bad[1, 1] = 1.5
    with pytest.raises(InvalidInputError):
        integrate_frame(Q_CE_H, (0.0, 1.0, 11), initial=bad)
    flipped = np.eye(4)
    flipped[3, 3] = -1.0  # mu = +wedge orientation is rejected
    with pytest.raises(InvalidInputError):
        integrate_frame(Q_CE_H, (0.0, 1.0, 11), initial=flipped)


def test_domain_validation():
    with pytest.raises(InvalidInputError):
        integrate_frame(Q_CE_H, (0.0, 1.0, 1))
    with pytest.raises(InvalidInputError):
        integrate_frame(Q_CE_H, (1.0, 0.0, 11))
    with pytest.raises(InvalidInputError):
        integrate_frame(Q_CE_H, (0.0, 1.0, 11), step=-1.0)


def test_integration_propagates_domain_errors():
    q = CurvatureQuartet.from_strings("sqrt(t)", "0", "1", "0")
    with pytest.raises((ExprDomainError, NumericError)):
        integrate_frame(q, (-1.0, 1.0, 21), step=1e-2)


def test_model_metadata(model_ce_h):
    assert model_ce_h.t0 == 0.0 and model_ce_h.t1 == 4.0
    assert len(model_ce_h) == 401
    assert model_ce_h.max_drift <= 1e-9
    assert model_ce_h.frames.shape == (401, 4, 4)
    assert np.array_equal(model_ce_h.frames[0], np.eye(4))


def test_frenet_programs_share_subexpressions():
    """Work-count guard: the Frenet expressions of this non-polynomial
    quartet hold 1.3M tree nodes, but only about a thousand distinct ones."""
    fe = FrenetExprs(CurvatureQuartet.from_strings(
        "sin(t)", "1+0.1*t^2", "2+0.5*cos(t)", "0.2*t"))
    programs = [getattr(owner, name) for owner in (fe, fe.h, fe.d) for name in dir(owner)
                if name.endswith("_program")]
    assert len(programs) == 9
    assert len({id(op[1]) for p in programs for op in p.ops}) < 2000  # 1,016
    assert sum(len(p.ops) for p in programs) < 3000  # 2,555
