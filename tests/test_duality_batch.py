"""The duality samples of a pair are evaluated as one batch of columns.

Every leg, partial and residual of a batch must equal, bit for bit, the
sample that the one-at-a-time oracle builds at the same draw; where that
oracle raises, the batch raises the same error or leaves the sample out
the same way.
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from hypframe import CurvatureQuartet, integrate_frame, load_spec
from hypframe import duality, pipeline
from hypframe.duality import (LEGS, PAIR_NAMES, PAIR_SURFACES, isotropy_residuals,
                              pair_sample, pair_theta_range)
from hypframe.errors import FrameDegenerateError, InvalidInputError, SurfaceUndefinedError
from hypframe.focal import defined_runs
from hypframe.framedcurve import FramedCurveModel
from hypframe.symexpr import Program, compile, parse_expr

from oracles import duality_draws, duality_summary_loop, frame_at_loop, pair_sample_loop

SKIPPED = (SurfaceUndefinedError, FrameDegenerateError)

# name -> curvature quartet and domain; None reads specs/<name>.json
MODELS = {
    "cuspidal_edge_hyperbolic": None,
    "cuspidal_edge_desitter": None,
    "swallowtail_family": None,
    # the de Sitter surfaces are defined on two intervals with a gap between
    "gap": (("2.5*t^2-1", "1", "2", "0"), (-1.6, 1.6, 161)),
    "generic": (("sin(t)", "1+0.1*t^2", "2+0.5*cos(t)", "0.2*t"), (-2.0, 2.0, 201)),
}


def _model(name):
    if MODELS[name] is None:
        spec = load_spec(f"specs/{name}.json")
        return integrate_frame(spec.quartet(), spec.domain)
    quartet, domain = MODELS[name]
    return integrate_frame(CurvatureQuartet.from_strings(*quartet), domain)


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


def _outcome(fn, *args):
    try:
        return fn(*args), None
    except Exception as exc:  # noqa: BLE001 - the oracle's error is the expectation
        return None, (type(exc), str(exc))


def _batch_against_loop(model, pair, draws):
    """Assert that the batch of the draws is the oracle's kept samples, bit for bit."""
    ts, ths = (np.array(col) for col in zip(*draws))
    want = []
    for t, th in draws:
        try:
            want.append(pair_sample_loop(model, pair, t, th))
        except SKIPPED:
            continue
    batch = pair_sample(model, pair, ts, ths)
    assert len(batch.f) == len(want)
    for leg in LEGS:
        rows = np.array([getattr(s, leg).as_array() for s in want]).reshape(-1, 4)
        assert np.array_equal(_bits(getattr(batch, leg)), _bits(rows)), leg
    got = np.array(isotropy_residuals(batch)).reshape(5, -1)
    ref = np.array([isotropy_residuals(s) for s in want]).reshape(-1, 5).T
    assert np.array_equal(_bits(got), _bits(ref))
    return len(want)


@pytest.mark.parametrize("name", list(MODELS))
def test_batch_matches_the_one_sample_oracle_bitwise(name):
    model = _model(name)
    runs = defined_runs(model)
    rng = np.random.default_rng(20240229)
    kept = 0
    for pair in PAIR_NAMES:
        spans = [[float(model.ts[run[0]]), float(model.ts[run[-1]])]
                 for run in runs[PAIR_SURFACES[pair][1]]]
        if spans and sum(hi - lo for lo, hi in spans) > 0.0:
            draws = duality_draws(rng, spans, 200, pair_theta_range(pair))
            kept += _batch_against_loop(model, pair, draws)
    assert kept >= 400
    assert pipeline.duality_summary(model, runs) == duality_summary_loop(model, runs)


def test_summary_samples_each_stored_frame_once(monkeypatch):
    """On a surface defined on two intervals, the summary samples every grid
    point of both runs, at the grid's own t, bit for bit, and no other t."""
    model = _model("gap")
    runs = defined_runs(model)
    assert len(runs["focal_d"]) == 2
    calls = {}

    def recorded(model, pair, t, theta, _original=pair_sample):
        calls.setdefault(pair, []).append(np.array(t))
        return _original(model, pair, t, theta)

    monkeypatch.setattr(duality, "pair_sample", recorded)
    summary = pipeline.duality_summary(model, runs)
    for pair in PAIR_NAMES:
        index = [i for run in runs[PAIR_SURFACES[pair][1]] for i in run]
        if not index:
            assert pair not in calls and summary[pair]["status"] == "skipped"
            continue
        assert len(calls[pair]) == 1
        assert np.array_equal(_bits(calls[pair][0]), _bits(model.ts[index])), pair
        assert summary[pair]["samples"] == len(index)
    assert summary["focal_d_mu"]["status"] == "checked"


@pytest.mark.parametrize("name", list(MODELS))
def test_summary_angles_follow_the_golden_ratio_rule(name, monkeypatch):
    """Grid index i of a pair's runs is sampled at theta = lo + (hi - lo) *
    (((i + 1/2) phi) mod 1), bit for bit, which lies inside the pair's
    theta window (lo, hi)."""
    model = _model(name)
    runs = defined_runs(model)
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    calls = {}

    def recorded(model, pair, t, theta, _original=pair_sample):
        calls[pair] = np.array(theta, dtype=float)
        return _original(model, pair, t, theta)

    monkeypatch.setattr(duality, "pair_sample", recorded)
    summary = pipeline.duality_summary(model, runs)
    assert calls
    for pair, thetas in calls.items():
        lo, hi = pair_theta_range(pair)
        index = [i for run in runs[PAIR_SURFACES[pair][1]] for i in run]
        want = [lo + (hi - lo) * ((i + 0.5) * phi % 1.0) for i in index]
        assert np.array_equal(_bits(thetas), _bits(want)), pair
        assert ((thetas >= lo) & (thetas < hi)).all(), pair
        assert summary[pair]["samples"] == len(index)


def test_run_leaves_numpy_random_unimported(tmp_path):
    """`hypframe run` certifies the duality at the stored frames, with no
    random draws: numpy.random, whose import alone costs more than the
    duality stage, stays unimported.  Nor does `import hypframe.cli` import
    csv: the CSV outputs are written through % templates."""
    spec = os.path.join(os.path.dirname(__file__), os.pardir, "specs",
                        "cuspidal_edge_hyperbolic.json")
    code = ("import sys\n"
            "from hypframe import cli\n"
            "assert 'csv' not in sys.modules\n"
            f"assert cli.main(['run', '--spec', {spec!r}, '--out', {str(tmp_path)!r}]) == 0\n"
            "print(sorted(m for m in sys.modules if m.startswith('numpy.random')))\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.splitlines()[-1] == "[]"


def test_frames_at_matches_the_interpolation_loop(model_sw):
    model = model_sw
    span = max(abs(model.t0), abs(model.t1), 1.0)
    grid = model.ts[[0, 1, 2, 150, 298, 299, 300]]
    ts = np.concatenate([grid, grid + 1e-13 * span, grid - 1e-13 * span,
                         grid + 3e-13 * span, [model.t0, model.t1, 0.123456789]])
    ts = ts[(ts >= model.t0) & (ts <= model.t1)]
    got = model.frames_at(ts)
    want = np.array([frame_at_loop(model, float(t)) for t in ts])
    assert np.array_equal(_bits(got), _bits(want))
    for t in ts:
        want = frame_at_loop(model, float(t))
        assert np.array_equal(_bits(model.frame_at(float(t))), _bits(want))
    for t in (model.t1 + 1e-6, model.t0 - 0.5):
        with pytest.raises(InvalidInputError) as err:
            model.frames_at(np.array([0.0, t]))
        assert _outcome(frame_at_loop, model, t)[1] == (InvalidInputError, str(err.value))


@pytest.mark.parametrize("domain", [(0.0, 1.0, 3), (0.0, 1e-13, 3)],
                         ids=["three", "finer_than_a_hit"])
def test_frames_at_on_a_short_grid(domain):
    """A grid of three samples, and samples closer than the hit tolerance:
    a t within it of two grid points takes the nearest."""
    model = integrate_frame(CurvatureQuartet.from_strings("1", "1", "2", "0"), domain)
    ts = np.concatenate([model.ts, np.linspace(*domain[:2], 7)])
    want = np.array([frame_at_loop(model, float(t)) for t in ts])
    assert np.array_equal(_bits(model.frames_at(ts)), _bits(want))


def test_nan_frame_raises_the_oracles_error():
    model = integrate_frame(CurvatureQuartet.from_strings("1", "1", "2", "0"), (0.0, 1.0, 11))
    model.frames = model.frames.copy()
    model.frames[6, 1, 2] = np.nan
    draws = duality_draws(np.random.default_rng(7), [[0.0, 1.0]], 50, (-3.0, 3.0))
    ts, ths = (np.array(col) for col in zip(*draws))
    for pair in ("focal_h_mu", "dual_eh_evolute_h"):
        want = None
        for t, th in draws:
            _, want = _outcome(pair_sample_loop, model, pair, t, th)
            if want is not None:
                break
        assert want is not None and want[0] is InvalidInputError
        assert "non-finite component" in want[1]
        assert _outcome(pair_sample, model, pair, ts, ths)[1] == want


def test_vanishing_a2_b2_is_skipped():
    # a^2 + b^2 = t^2: the Frenet frame is undefined at t = 0 only
    model = integrate_frame(CurvatureQuartet.from_strings("1", "1", "t", "0"), (-1.0, 1.0, 21))
    draws = [(-0.55, 0.3), (0.0, 1.0), (0.25, 2.0), (-0.0, 0.5), (0.7, 4.0)]
    assert _batch_against_loop(model, "focal_d_mu", draws) == 3
    with pytest.raises(FrameDegenerateError, match=r"a\^2\+b\^2 = 0.0"):
        pair_sample(model, "focal_d_mu", 0.0, 1.0)


def test_domain_error_with_a_finite_root_is_replayed():
    """1/(1/t) is finite at t = 0 in IEEE arithmetic, but the scalar
    evaluation raises there, and so must the batch.  t = 0 is off the grid,
    where the integrator would raise first."""
    model = integrate_frame(CurvatureQuartet.from_strings("1", "1", "2+0.001/(1/t)", "0"),
                            (-1.0, 1.0, 20))
    draws = [(0.5, 0.1), (0.0, 0.2), (0.3, 0.3)]
    want = _outcome(pair_sample_loop, model, "focal_h_mu", 0.0, 0.2)[1]
    assert want is not None and "division by zero" in want[1]
    ts, ths = (np.array(col) for col in zip(*draws))
    assert _outcome(pair_sample, model, "focal_h_mu", ts, ths)[1] == want


@pytest.mark.parametrize("name, flagged", [("base_program", True), ("h.D_program", True),
                                           ("d.D_program", False)])
def test_frenet_columns_flag_where_the_queries_raise(name, flagged):
    """A program that raises at t = 0.3 only flags t = 0.3, and only if
    frenet_data_at evaluates it there: on the hyperbolic side it reads the
    Dh columns (A^2 > M^2), not the Dd ones."""
    model = integrate_frame(CurvatureQuartet.from_strings("1", "1", "2", "0"), (0.0, 1.0, 11))
    side, _, name = name.rpartition(".")
    owner = getattr(model.frenet, side) if side else model.frenet
    width = len(getattr(owner, name).outputs)
    setattr(owner, name, compile([parse_expr("1/(t-0.3)^2")] * width))
    ts = np.array([0.1, 0.3, 0.55])
    assert model.frenet_columns(ts)[2].tolist() == [False, flagged, False]
    assert (_outcome(model.frenet_data_at, 0.3)[1] is not None) == flagged


def test_duality_summary_does_no_per_sample_work(monkeypatch):
    """Work-count guard: a duality summary evaluates each checked pair as
    one batch on the grid table: no frames_at, frame_at or frenet_data_at
    call, and a fixed number of program replays per pair (one per program
    the pair reads)."""
    spec = load_spec("specs/swallowtail_family.json")
    model = integrate_frame(spec.quartet(), spec.domain)
    runs = defined_runs(model)
    calls = {"frames_at": 0, "frame_at": 0, "frenet_data_at": 0, "array": 0}
    for owner, name in ((FramedCurveModel, "frames_at"), (FramedCurveModel, "frame_at"),
                        (FramedCurveModel, "frenet_data_at"), (Program, "array")):
        original = getattr(owner, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    summary = pipeline.duality_summary(model, runs)
    checked = sum(info["status"] == "checked" for info in summary.values())
    assert checked == 2
    assert calls["frames_at"] == 0
    assert calls["frame_at"] == 0 and calls["frenet_data_at"] == 0
    assert calls["array"] <= 6 * checked


def test_one_sample_is_the_oracle_sample(model_ce_h, model_ce_d):
    for model, pairs in ((model_ce_h, ("focal_h_mu", "dual_eh_evolute_h")),
                         (model_ce_d, ("focal_d_mu", "dual_ed_evolute_d"))):
        for pair in pairs:
            got = pair_sample(model, pair, 1.2345, 0.678)
            want = pair_sample_loop(model, pair, 1.2345, 0.678)
            assert json.dumps([list(getattr(got, leg)) for leg in LEGS]) \
                == json.dumps([list(getattr(want, leg)) for leg in LEGS])
