"""The grid stages read one table of the model's whole grid.

The definedness scan, the loci and their classification, the
correspondence check and the meshes must give, bit for bit, what the
one-grid-point-at-a-time (or one-record-at-a-time) oracles give on a
model whose grid table is never built; where those raise, the stages
raise the same error.
"""

import enum
import importlib.util
import json
import math
import os
import struct
import tracemalloc
from itertools import chain

import numpy as np
import pytest

from hypframe import CurvatureQuartet, integrate_frame, load_spec, run_pipeline
from hypframe import cli, duality, evolute, focal, pipeline
from hypframe.errors import (EvoluteUndefinedError, InvalidInputError, NumericError,
                             SurfaceUndefinedError)
from hypframe.symexpr import ExprDomainError
from hypframe.evolute import LegReport, correspondence_check
from hypframe.focal import SingularPointRecord, defined_runs, surface_grid
from hypframe.loci import LociTable
from hypframe.framedcurve import FramedCurveModel
from hypframe.symexpr import Program, compile, parse_expr
from hypframe.tolerances import DEFAULT

from oracles import (classified_loci_loop, classify_dual_record, classify_record,
                     correspondence_check_loop, defined_runs_loop, duality_summary_loop,
                     evolute_rows_loop, evolute_sample, frenet_frame, lambda_dual_loop,
                     lambda_loop, pair_sample_loop, point_loop,
                     singular_locus_loop, surface_grid_rows)

SPEC_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "specs")
MESHES = ("focal_h", "focal_d", "dual_eh", "dual_ed")

# name -> curvature quartet, domain and tolerance overrides; None reads
# specs/<name>.json
MODELS = {
    "cuspidal_edge_hyperbolic": None,
    "cuspidal_edge_desitter": None,
    "swallowtail_family": None,
    # surfaces on two intervals, an evolute on two intervals, the sigma_F
    # threshold at the last grid point, and a^2 + b^2 = 0 at t = 0
    "two_intervals": (("2.5*t^2-1", "1", "2", "0"), (-1.6, 1.6, 161)),
    "evolute_gap_sin": (("3*sin(t)", "1", "1.5", "0"), (-1.6, 1.6, 161)),
    "evolute_gap_cubic": (("3*t^3-t", "0.5", "1.5", "0"), (-1.6, 1.6, 161)),
    "sigma_threshold": (("t", "1", "2", "0"), (0.0, 1.7320508074, 11)),
    "frame_gap": (("2", "1", "t", "0"), (-1.0, 1.0, 21)),
    "generic": (("sin(t)", "1+0.1*t^2", "2+0.5*cos(t)", "0.2*t"), (-2.0, 2.0, 201)),
    # N = n vanishes at t = 0, where the de Sitter epsilon branch has a pole
    # and falls back to the closed form
    "desitter_pole": (("2+0.5*t", "t", "1", "0"), (-1.0, 1.0, 21)),
    # coarse zero tests: many points decided near a threshold, in every
    # branch, and failed agreements
    "swallowtail_coarse": (("0.5*t", "1", "2", "0"), (-1.5, 1.5, 201), {"sing": 0.05}),
    "generic_coarse": (("sin(t)", "1+0.1*t^2", "2+0.5*cos(t)", "0.2*t"), (-2.0, 2.0, 201),
                       {"sing": 0.3}),
    "desitter_coarse": (("2+0.5*t", "0.7*t", "1", "0"), (-1.0, 2.0, 31), {"sing": 0.1}),
    # W = -0.4 and N = t, both zero at this tolerance: branch (b), with
    # failed agreements that name the focal type
    "branch_b_coarse": (("1+0.2*t", "t", "2", "0"), (-1.0, 1.0, 41), {"sing": 0.3}),
    # the d-locus branch jumps between grid points and is refined there
    "d_refinement": (("2+0.5*t", "0.7*(t-1)", "1", "0"), (0.05, 2.0, 4)),
    # (W, Dh) vanishes at t = 0: whole-fiber records
    "whole_fiber": (("1", "t", "2", "0"), (-0.5, 0.5, 101)),
}


def _model(name):
    """(model, theta grid) of a name of MODELS, integrated afresh."""
    if MODELS[name] is None:
        spec = load_spec(os.path.join(SPEC_DIR, name + ".json"))
        return integrate_frame(spec.quartet(), spec.domain), np.linspace(*spec.theta)
    quartet, domain, *tol = MODELS[name]
    return integrate_frame(CurvatureQuartet.from_strings(*quartet), domain,
                           tol=DEFAULT.with_overrides(*tol or [{}])), np.linspace(-1.0, 1.0, 5)


def _bits(x):
    """x with every float replaced by its bit pattern, recursively."""
    if isinstance(x, float):
        return ("float", struct.pack("<d", x))
    if isinstance(x, np.ndarray):
        return ("array", x.shape, np.ascontiguousarray(x, dtype=float).view(np.int64).tolist())
    if isinstance(x, enum.Enum):
        return x.value
    if isinstance(x, LociTable):  # its rows, each built into a record
        return _bits(list(x))
    if isinstance(x, (SingularPointRecord, LegReport)):  # the mutable records
        return _bits(vars(x))
    if isinstance(x, tuple) and hasattr(x, "_asdict"):  # the immutable ones, field by field
        return _bits(x._asdict())
    if isinstance(x, dict):
        return {k: _bits(v) for k, v in x.items()}
    if isinstance(x, (list, tuple, range)):
        return [_bits(v) for v in x]
    return x


def _outcome(fn, *args):
    try:
        return _bits(fn(*args))
    except Exception as exc:  # noqa: BLE001 - the oracle's error is the expectation
        return type(exc), str(exc)


def _loci_loop(model, runs):
    """classified_loci_loop's records in the order of classified_loci, a
    stable sort by surface."""
    return sorted(classified_loci_loop(model, runs), key=lambda r: r.surface)


def _compare(model, fresh, thetas):
    """Assert that every grid stage on model matches its oracle on fresh."""
    runs = defined_runs(model)
    assert _bits(runs) == _bits(defined_runs_loop(fresh))
    assert _outcome(correspondence_check, model, runs) \
        == _outcome(correspondence_check_loop, fresh, runs)
    assert _outcome(pipeline.classified_loci, model, runs) == _outcome(_loci_loop, fresh, runs)
    assert _outcome(pipeline.duality_summary, model, runs) \
        == _outcome(duality_summary_loop, fresh, runs)
    for surface in MESHES:
        for run in runs[surface]:
            ts = model.ts[run.start:run.stop]
            assert _outcome(surface_grid, model, surface, ts, thetas) \
                == _outcome(surface_grid_rows, fresh, surface, ts, thetas), surface
    assert "grid" in vars(model) and "grid" not in vars(fresh)
    return runs


@pytest.mark.parametrize("name", list(MODELS))
def test_grid_stages_match_the_per_point_oracles(name):
    (model, thetas), (fresh, _) = _model(name), _model(name)
    runs = _compare(model, fresh, thetas)
    assert any(runs.values())


@pytest.mark.parametrize("name", ["generic", "desitter_pole", "branch_b_coarse",
                                  "d_refinement", "whole_fiber"])
def test_single_records_off_the_grid_match_the_oracle(name):
    """A locus, a record and a dual record at t between grid points are
    length-1 batches of the column classifier: each row replays the
    per-point queries, bit for bit as one record at a time, errors too."""
    (model, _), (fresh, _) = _model(name), _model(name)
    runs = defined_runs(model)
    checked = 0
    for side, locus, classify, classify_dual in (
            (focal.H, focal.singular_locus_h, focal.classify_h, evolute.classify_dual_h),
            (focal.D, focal.singular_locus_d, focal.classify_d, evolute.classify_dual_d)):
        for i in list(chain.from_iterable(runs[side.focal]))[:-1:3]:
            t = 0.5 * float(model.ts[i] + model.ts[i + 1])

            def located(m, loop, t=t, side=side, locus=locus, classify=classify):
                # the table's rows, built into records that classify fills
                recs = singular_locus_loop(m, [t], side) if loop else list(locus(m, [t]))
                types = [classify_record(m, r, side) if loop else classify(m, r) for r in recs]
                return recs, types

            assert _outcome(located, model, False) == _outcome(located, fresh, True)
            checked += 1
        for i in list(chain.from_iterable(runs[side.dual]))[:-1:3]:
            t = 0.5 * float(model.ts[i] + model.ts[i + 1])
            for theta in side.dual_zeros:
                assert _outcome(classify_dual, model, t, theta) \
                    == _outcome(classify_dual_record, fresh, t, side, theta)
    assert checked and "grid" not in vars(fresh)


# each public per-point function of a side -> its per-point oracle
POINT_API = [
    (f"{module.__name__.rsplit('.', 1)[1]}.{name.format(side.label[0].lower())}",
     getattr(module, name.format(side.label[0].lower())), oracle, side)
    for side in (focal.H, focal.D)
    for module, name, oracle in (
        (focal, "focal_{}_point", lambda m, side, t, th: point_loop(m, side, t, th)),
        (focal, "lambda_{}", lambda m, side, t, th: lambda_loop(m, side, t, th)),
        (evolute, "dual_of_evolute_{}", lambda m, side, t, th: point_loop(m, side, t, th, True)),
        (evolute, "lambda_dual_{}", lambda m, side, t, th: lambda_dual_loop(m, side, t, th)))]


@pytest.mark.parametrize("name", ["generic", "desitter_pole"])
@pytest.mark.parametrize("table", [True, False])
def test_per_point_api_matches_the_oracles(name, table):
    """Each public per-point function is a length-1 batch of the column
    code: bit for bit the per-point oracle's value at a grid t, between
    grid points and at the de Sitter epsilon pole, and its error type and
    text where its surface is undefined (one side of each quartet)."""
    (model, _), (fresh, _) = _model(name), _model(name)
    if table:
        model.grid  # noqa: B018 - build the table, which grid ts then read
    ts = [float(model.ts[7]), 0.5 * float(model.ts[7] + model.ts[8]), 0.0, -0.0]
    for t in ts:
        for label, fn, oracle, side in POINT_API:
            for theta in (0.3, -1.2):
                assert _outcome(fn, model, t, theta) == _outcome(oracle, fresh, side, t, theta), \
                    (label, t, theta)
        for side, fn in ((focal.H, evolute.evolute_h), (focal.D, evolute.evolute_d)):
            assert _outcome(fn, model, t) == _outcome(evolute_sample, fresh, t, side), (side, t)
        for pair in duality.PAIR_NAMES:
            assert _outcome(duality.pair_sample, model, pair, t, 0.3) \
                == _outcome(pair_sample_loop, fresh, pair, t, 0.3), (pair, t)
    assert ("grid" in vars(model)) == table and "grid" not in vars(fresh)


def _specgen():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "specgen.py")
    spec = importlib.util.spec_from_file_location("specgen", path)
    specgen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(specgen)
    return specgen


# the committed specs, and the generated workloads at two seeds each
LOCI_SPECS = [*sorted(os.listdir(SPEC_DIR)),
              *(f"{name}:{seed}" for name in ("gen_h", "gen_d", "bounded", "boosted")
                for seed in (1, 2))]


def _spec_model(name, tmp_path):
    """A model of a committed spec (a file name in specs/) or of a generated
    workload ("name:seed"), integrated afresh with the spec's settings."""
    path = os.path.join(SPEC_DIR, name)
    if ":" in name:
        workload, seed = name.split(":")
        path = tmp_path / f"{workload}.json"
        path.write_text(_specgen().generate(workload, int(seed)))
    spec = load_spec(path)
    return integrate_frame(spec.quartet(), spec.domain, initial=spec.initial_frame,
                           tol=DEFAULT.with_overrides(spec.tolerances))


@pytest.mark.parametrize("name", LOCI_SPECS)
def test_loci_table_rows_match_the_oracle(name, tmp_path):
    """The loci table of a run, each row built into a record, is the one
    record at a time oracle's records, diagnostics included, bit for bit."""
    model, fresh = _spec_model(name, tmp_path), _spec_model(name, tmp_path)
    runs = defined_runs(model)
    table = pipeline.classified_loci(model, runs)
    assert isinstance(table, LociTable) and len(table)
    assert _bits(table) == _bits(_loci_loop(fresh, runs))
    assert "grid" not in vars(fresh)


def test_d_refinement_skips_an_undefined_midpoint(tmp_path, capsys):
    """The de Sitter root jumps by 1.91 rad between the two grid points of
    this quartet, and M^2 - A^2 = 0 at their midpoint t = 0.05, where the
    refinement finds the surface undefined and skips it: the table has the
    grid points' 4 rows, bit for bit the oracle's, and a run succeeds."""
    quartet, domain = ("1+(t-0.05)^2", "1", "1", "0"), (0.0, 0.1, 2)
    model, fresh = (integrate_frame(CurvatureQuartet.from_strings(*quartet), domain)
                    for _ in range(2))
    with pytest.raises(SurfaceUndefinedError, match=r"M\^2 - A\^2 = -?0\.0 at t=0\.05"):
        focal.focal_d_point(model, 0.05, 0.0)
    table = focal.singular_locus_d(model)
    assert table.t.tolist() == [0.0, 0.0, 0.1, 0.1]
    assert _bits(table) == _bits(singular_locus_loop(fresh, fresh.ts, focal.D))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "name": "d_refinement_skip", "curvature": dict(zip("mnab", quartet)),
        "domain": dict(zip(("t0", "t1", "samples"), domain)),
        "theta": {"min": -1.0, "max": 1.0, "samples": 5}}))
    assert cli.main(["run", "--spec", str(spec), "--out", str(tmp_path / "out")]) == 0
    assert "focal_d: defined on [[0.0, 0.1]]" in capsys.readouterr().out


@pytest.mark.parametrize("name", LOCI_SPECS)
def test_surface_blocks_are_in_report_order(name, tmp_path):
    """Putting the surface blocks in order puts the rows in (surface, t,
    theta) order, the order of the report and the loci CSV."""
    model = _spec_model(name, tmp_path)
    records = list(pipeline.classified_loci(model, defined_runs(model)))
    ordered = sorted(records, key=lambda r: (r.surface, r.param.t, r.param.theta))
    assert _bits(records) == _bits(ordered)


def test_loci_stage_holds_columns_not_records():
    """The loci of the large-grid quartet at 20,001 samples (60,003 rows)
    peak under 10 MB of traced memory, replays of the classifiers' programs
    over the grid included; one record object and dict per row took 57 MB."""
    model = integrate_frame(CurvatureQuartet.from_strings(
        "sin(t)", "1+0.1*t^2", "2+0.5*cos(t)", "0.2*t"), (-4.0, 4.0, 20001))
    runs = defined_runs(model)
    tracemalloc.start()
    try:
        loci = pipeline.classified_loci(model, runs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(loci) == 60003
    assert peak < 10e6, peak


def test_loci_query_no_grid_point_one_at_a_time(monkeypatch):
    """Work-count guard: on a committed spec, the loci and their
    classification read every grid row from the table's columns."""
    spec = load_spec(os.path.join(SPEC_DIR, "swallowtail_family.json"))
    model = integrate_frame(spec.quartet(), spec.domain)
    runs = defined_runs(model)
    queried, real = [], FramedCurveModel.frenet_data_at
    monkeypatch.setattr(FramedCurveModel, "frenet_data_at",
                        lambda self, t: queried.append(t) or real(self, t))
    records = pipeline.classified_loci(model, runs)
    assert len(records) == 603
    assert not set(queried) & set(model.ts.tolist())


def test_nan_frame_rows_replay_as_the_oracle():
    models = []
    for _ in range(2):
        model = integrate_frame(CurvatureQuartet.from_strings("1", "1", "2", "0"),
                                (0.0, 1.0, 11))
        model.frames = model.frames.copy()
        model.frames[6, 1, 2] = np.nan
        models.append(model)
    model, fresh = models
    _compare(model, fresh, np.linspace(-1.0, 1.0, 5))
    assert model.grid.suspect.tolist() == [i == 6 for i in range(11)]
    with pytest.raises(InvalidInputError, match="non-finite component"):
        correspondence_check(model)


@pytest.mark.parametrize("name", ["cuspidal_edge_hyperbolic", "cuspidal_edge_desitter",
                                  "swallowtail_family", "two_intervals", "generic",
                                  "desitter_pole"])
def test_evolute_rows_match_the_per_point_loop(monkeypatch, name):
    """`hypframe evolute` reads its rows from columns, bit for bit as the
    EvoluteSample loop, and builds no sample, not even at the de Sitter
    epsilon pole, where the closed form takes over."""
    (model, _), (fresh, _) = _model(name), _model(name)
    runs = defined_runs(model)
    want = evolute_rows_loop(fresh, runs)
    assert want
    calls = []
    for fn in ("evolute_h", "evolute_d"):
        real = getattr(evolute, fn)
        monkeypatch.setattr(evolute, fn, lambda m, t, real=real: calls.append(t) or real(m, t))
    assert _bits(evolute.evolute_rows(model, runs)) == _bits(want)
    assert calls == []


def test_evolute_rows_replay_a_nan_frame_as_the_loop():
    models = []
    for _ in range(2):
        model = integrate_frame(CurvatureQuartet.from_strings("1", "1", "2", "0"),
                                (0.0, 1.0, 11))
        model.frames = model.frames.copy()
        model.frames[6, 1, 2] = np.nan
        models.append(model)
    model, fresh = models
    runs = defined_runs(model)
    want = _outcome(evolute_rows_loop, fresh, runs)
    assert want[0] is InvalidInputError
    assert _outcome(evolute.evolute_rows, model, runs) == want


def test_vanishing_a2_b2_rows_replay_as_the_oracle():
    # a^2 + b^2 = t^2: the Frenet frame is undefined at t = 0 only
    (model, thetas), (fresh, _) = _model("frame_gap"), _model("frame_gap")
    runs = _compare(model, fresh, thetas)
    assert model.grid.suspect.tolist() == [i == 10 for i in range(21)]
    assert [(r.start, r.stop) for r in runs["focal_d"]] == [(0, 10), (11, 21)]


@pytest.mark.parametrize("name, source", [("eps_closed_program", "1/(t-0.5)^2"),
                                          ("evolute_program", "1/(t-0.5)^2"),
                                          ("eps_closed_program", "t-0.5")])
def test_injected_program_reads_as_the_oracle(name, source):
    """A program replaced by one that raises at the grid point t = 0.5, where
    the table holds NaN, or by one that vanishes there: the stages that read
    it raise, or classify, as the per-point path does."""
    models = [integrate_frame(CurvatureQuartet.from_strings("1", "1", "2", "0"), (0.0, 1.0, 5))
              for _ in range(2)]
    for model in models:
        width = len(getattr(model.frenet.h, name).outputs)
        setattr(model.frenet.h, name, compile([parse_expr(source)] * width))
    model, fresh = models
    runs = defined_runs(model)
    want = _outcome(correspondence_check_loop, fresh, runs)
    if source.startswith("1/"):
        assert want[0] is ExprDomainError and want[1].startswith("division by zero")
    else:
        assert not want["hyperbolic"]["agreements"]["dual_ce_iff_evolute_regular"]
    assert _outcome(correspondence_check, model, runs) == want
    assert _outcome(pipeline.classified_loci, model, runs) == _outcome(_loci_loop, fresh, runs)


def test_tangency_raises_the_oracles_error():
    """sigma_F touches zero between two grid points of the hyperbolic
    evolute's run, where the epsilon crossing is then classified."""
    models = [integrate_frame(CurvatureQuartet.from_strings(
        "1.13", "0.68-0.76*sin(-2.78*t)", "-1.23", "0"), (-1.6, 1.6, 41)) for _ in range(2)]
    model, fresh = models
    runs = defined_runs(model)
    assert _bits(runs) == _bits(defined_runs_loop(fresh))
    with pytest.raises(EvoluteUndefinedError) as err:
        correspondence_check(model, runs)
    assert str(err.value).startswith("sigma_F = 2.3")
    assert "is not positive: hyperbolic evolute undefined" in str(err.value)
    assert _outcome(correspondence_check_loop, fresh, runs) == (EvoluteUndefinedError,
                                                                str(err.value))


def test_signed_zero_does_not_read_the_zero_row():
    # a(t) = t: at t = -0.0 the rotated n2 starts with -0.0, at 0.0 with 0.0
    model = integrate_frame(CurvatureQuartet.from_strings("1", "1", "t", "1"), (0.0, 1.0, 11))
    fresh = integrate_frame(CurvatureQuartet.from_strings("1", "1", "t", "1"), (0.0, 1.0, 11))
    grid = model.grid
    assert grid.lookup(np.array([0.0, -0.0]))[1].tolist() == [True, False]
    for t in (0.0, -0.0, 0.0):
        got = model.frenet_frame_at(t)
        assert _bits(got) == _bits(frenet_frame(fresh, t))
        assert math.copysign(1.0, got[2, 0]) == math.copysign(1.0, t)
        got[:] = 7.0  # a fresh copy each call: the table is left as it was
        data = model.frenet_data_at(t)
        assert _bits(data) == _bits(fresh.frenet_data_at(t))
        assert math.copysign(1.0, data.t) == math.copysign(1.0, t)


def test_frenet_columns_at_grid_points_are_table_rows():
    (model, _), (fresh, _) = _model("generic"), _model("generic")
    ts = model.ts[[0, 7, 7, 200, 100]]
    model.grid  # noqa: B018 - build the table
    got, want = model.frenet_columns(ts), fresh.frenet_columns(ts)
    assert _bits(got[0]) == _bits(want[0]) and _bits(got[2]) == _bits(want[2])
    assert _bits(got[1]) == _bits(want[1])
    program = model.frenet.h.evolute_program
    assert _bits(model.program_columns(program, ts)) \
        == _bits(fresh.program_columns(program, ts))


def test_run_pipeline_evaluates_no_program_at_a_grid_point(monkeypatch):
    """Work-count guard: once the grid table is built, no stage of a run
    replays a program at a grid point one point at a time."""
    spec = load_spec(os.path.join(SPEC_DIR, "swallowtail_family.json"))
    grid = set()
    calls = {"at": 0, "at_grid": 0}
    integrate, at = pipeline.integrate_frame, Program.at

    def integrated(*args, **kwargs):
        model = integrate(*args, **kwargs)
        grid.update(model.ts.tolist())
        return model

    def counted(self, t, name_t=False):
        calls["at"] += 1
        calls["at_grid"] += t in grid
        return at(self, t, name_t)

    monkeypatch.setattr(pipeline, "integrate_frame", integrated)
    monkeypatch.setattr(Program, "at", counted)
    report = run_pipeline(spec)
    assert len(grid) == 201 and report.data["correspondence"]["hyperbolic"]["points"] > 0
    assert calls["at_grid"] == 0


def test_grid_stages_evaluate_each_program_once(monkeypatch):
    """Work-count guard: the scan, the loci, the correspondence check and
    the meshes evaluate each program over arrays once, for the table."""
    spec = load_spec(os.path.join(SPEC_DIR, "swallowtail_family.json"))
    model = integrate_frame(spec.quartet(), spec.domain)
    evaluated, array = [], Program.array

    def counted(self, t):
        evaluated.append(self)
        return array(self, t)

    monkeypatch.setattr(Program, "array", counted)
    runs = defined_runs(model)
    pipeline.classified_loci(model, runs)
    correspondence_check(model, runs)
    surface_grid(model, "focal_h", model.ts, np.linspace(*spec.theta))
    assert 7 <= len(evaluated) == len(set(evaluated))


def test_off_quadric_mesh_vertex_is_a_numeric_failure():
    """A frame whose gamma row is scaled puts the focal point of that grid
    row off H3; the mesh names the grid point and its t."""
    model = integrate_frame(CurvatureQuartet.from_strings("1", "1", "2", "0"), (0.0, 1.0, 11))
    model.frames = model.frames.copy()
    model.frames[4, 0] *= 1.001
    with pytest.raises(NumericError) as err:
        surface_grid(model, "focal_h", model.ts, [-0.5, 0.0, 0.5])
    assert str(err.value).startswith("grid point (i=4, j=0) at t=0.4: focal_h point MinkVec(")
    assert str(err.value).endswith(" is not on H3")
