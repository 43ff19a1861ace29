import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from hypframe import (CurvatureQuartet, MinkVec, export_loci_csv, export_obj,
                      integrate_frame, load_spec, project_hollow_ball, project_poincare,
                      run_pipeline)
import hypframe
from hypframe import pipeline
from hypframe.cli import main as cli_main
from hypframe.duality import PAIR_SURFACES
from hypframe.errors import InvalidInputError, NumericError
from hypframe.focal import SingularPointRecord, SingularityType, SurfaceParam
from hypframe.pipeline import SpecParseError, SpecValidationError
from hypframe.symexpr import MAX_DEPTH

SPEC_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "specs")


def _write_spec(tmp_path, doc, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


MINIMAL = {
    "name": "minimal",
    "curvature": {"m": "1", "n": "1", "a": "2", "b": "0"},
    "domain": {"t0": 0.0, "t1": 1.0, "samples": 11},
    "theta": {"min": -1.0, "max": 1.0, "samples": 5},
}


def test_load_spec_minimal(tmp_path):
    spec = load_spec(_write_spec(tmp_path, MINIMAL))
    assert spec.name == "minimal"
    assert spec.domain == (0.0, 1.0, 11)
    assert spec.outputs == ("report",)
    assert spec.digest.startswith("sha256:")


def test_load_spec_validation_errors(tmp_path):
    bad = dict(MINIMAL, domain={"t0": 0.0, "t1": 1.0, "samples": 1})
    with pytest.raises(SpecValidationError) as err:
        load_spec(_write_spec(tmp_path, bad))
    assert "domain.samples" in str(err.value)

    with pytest.raises(SpecValidationError):
        load_spec(_write_spec(tmp_path, dict(MINIMAL, extra=1)))

    bad = dict(MINIMAL, curvature={"m": "1+", "n": "1", "a": "2", "b": "0"})
    with pytest.raises(SpecValidationError) as err:
        load_spec(_write_spec(tmp_path, bad))
    assert "curvature.m" in str(err.value)

    bad = dict(MINIMAL, outputs=["nope"])
    with pytest.raises(SpecValidationError):
        load_spec(_write_spec(tmp_path, bad))

    bad = dict(MINIMAL, initial_frame=[1.0] * 15)
    with pytest.raises(SpecValidationError):
        load_spec(_write_spec(tmp_path, bad))

    bad = dict(MINIMAL, tolerances={"bogus": 1e-9})
    with pytest.raises(SpecValidationError):
        load_spec(_write_spec(tmp_path, bad))


def test_load_spec_parse_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(SpecParseError) as err:
        load_spec(str(path))
    assert "line 1" in str(err.value)


def test_project_poincare_examples():
    assert project_poincare(MinkVec(1, 0, 0, 0)) == (0.0, 0.0, 0.0)
    y = project_poincare(MinkVec(math.cosh(1.0), 0.0, 0.0, math.sinh(1.0)))
    assert y[2] == pytest.approx(math.tanh(0.5), abs=1e-15)
    assert y[2] == pytest.approx(0.46211715726000974, abs=1e-15)
    with pytest.raises(InvalidInputError):
        project_poincare(MinkVec(0, 1, 0, 0))


def test_project_poincare_inside_ball():
    rng = np.random.default_rng(61)
    for _ in range(50):
        v = rng.normal(size=3) * 2.0
        x0 = math.sqrt(1.0 + float(v @ v))
        y = project_poincare(MinkVec(x0, *v))
        assert np.linalg.norm(y) < 1.0


def test_project_hollow_ball_examples():
    assert project_hollow_ball(MinkVec(0, 1, 0, 0)) == (0.5, 0.0, 0.0)
    assert project_hollow_ball(MinkVec(0, 0, 1, 0)) == (0.0, 0.5, 0.0)
    with pytest.raises(InvalidInputError):
        project_hollow_ball(MinkVec(1, 0, 0, 0))
    rng = np.random.default_rng(67)
    for _ in range(50):
        v = rng.normal(size=3)
        x0 = rng.normal() * 2.0
        v = v / np.linalg.norm(v) * math.sqrt(1.0 + x0 * x0)
        y = project_hollow_ball(MinkVec(x0, *v))
        r = np.linalg.norm(y)
        assert 0.5 <= r < 1.0


def test_export_obj_counts(tmp_path):
    grid = np.zeros((2, 2, 4))
    for i in range(2):
        for j in range(2):
            v = np.array([0.3 * i, 0.2 * j, 0.1])
            x0 = math.sqrt(1.0 + v @ v)
            grid[i, j] = [x0, *v]
    path = tmp_path / "mesh.obj"
    export_obj(grid, project_poincare, path)
    lines = path.read_text().splitlines()
    assert sum(1 for ln in lines if ln.startswith("v ")) == 4
    assert sum(1 for ln in lines if ln.startswith("f ")) == 1
    assert lines[-1] == "f 1 2 4 3"

    # byte determinism
    again = tmp_path / "mesh2.obj"
    export_obj(grid, project_poincare, again)
    assert path.read_bytes() == again.read_bytes()

    empty = tmp_path / "empty.obj"
    export_obj(np.zeros((0, 0, 4)), project_poincare, empty)
    content = empty.read_text()
    assert content.startswith("#") and "v " not in content


def test_export_loci_csv(tmp_path):
    recs = [
        SingularPointRecord("focal_h", SurfaceParam(1.0, 0.0), 0.0, 12.0,
                            SingularityType.CUSPIDAL_EDGE, True),
        SingularPointRecord("focal_h", SurfaceParam(0.5, 0.0), 0.0, 12.0,
                            SingularityType.CUSPIDAL_EDGE, True),
        SingularPointRecord("dual_eh", SurfaceParam(0.5, 0.0), 0.0, 12.0,
                            SingularityType.CUSPIDAL_EDGE, True),
    ]
    path = tmp_path / "loci.csv"
    export_loci_csv(recs, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "surface,t,theta,lambda,sigma_F,type,nondegenerate"
    assert lines[1].startswith("dual_eh,0.5")
    assert lines[2].startswith("focal_h,0.5")
    assert lines[3].startswith("focal_h,1.0")
    assert "CuspidalEdge" in lines[1]

    empty = tmp_path / "empty.csv"
    export_loci_csv([], empty)
    assert empty.read_text().splitlines() == [
        "surface,t,theta,lambda,sigma_F,type,nondegenerate"]


@pytest.fixture(scope="module")
def hyperbolic_report(tmp_path_factory):
    spec = load_spec(os.path.join(SPEC_DIR, "cuspidal_edge_hyperbolic.json"))
    out = tmp_path_factory.mktemp("run_h")
    return run_pipeline(spec, out_dir=str(out)), out


def test_run_pipeline_hyperbolic(hyperbolic_report):
    report, out = hyperbolic_report
    data = report.data
    assert data["surfaces"]["focal_h"]["defined_intervals"] == [[0.0, 4.0]]
    assert data["surfaces"]["focal_d"]["defined_intervals"] == []
    assert data["surfaces"]["dual_eh"]["defined_intervals"] == [[0.0, 4.0]]
    assert data["surfaces"]["dual_ed"]["defined_intervals"] == []
    assert data["correspondence"]["hyperbolic"]["status"] == "checked"
    assert all(data["correspondence"]["hyperbolic"]["agreements"].values())
    assert data["correspondence"]["desitter"]["status"] == "skipped"
    assert data["duality"]["focal_h_mu"]["pass"]
    assert data["duality"]["dual_eh_evolute_h"]["pass"]
    assert data["duality"]["focal_d_mu"]["status"] == "skipped"
    types = {r["type"] for r in data["loci"]}
    assert types == {"CuspidalEdge"}
    names = sorted(os.listdir(out))
    assert names == ["cuspidal_edge_hyperbolic_dual_eh.obj",
                     "cuspidal_edge_hyperbolic_focal_h.obj",
                     "cuspidal_edge_hyperbolic_loci.csv",
                     "cuspidal_edge_hyperbolic_report.json"]


def test_run_pipeline_desitter(tmp_path):
    spec = load_spec(os.path.join(SPEC_DIR, "cuspidal_edge_desitter.json"))
    report = run_pipeline(spec, out_dir=str(tmp_path))
    data = report.data
    assert data["surfaces"]["focal_d"]["defined_intervals"] == [[0.0, 2.0]]
    assert data["surfaces"]["focal_h"]["defined_intervals"] == []
    assert data["correspondence"]["desitter"]["status"] == "checked"
    assert data["correspondence"]["hyperbolic"]["status"] == "skipped"
    assert data["duality"]["focal_d_mu"]["pass"]
    assert data["duality"]["dual_ed_evolute_d"]["pass"]


def test_run_pipeline_degenerate(tmp_path):
    doc = dict(MINIMAL, name="geodesic",
               curvature={"m": "1", "n": "0", "a": "0", "b": "0"})
    spec = load_spec(_write_spec(tmp_path, doc))
    report = run_pipeline(spec)
    data = report.data
    for surf in data["surfaces"].values():
        assert surf["defined_intervals"] == []
    assert data["loci"] == []
    assert data["correspondence"]["hyperbolic"]["status"] == "skipped"
    assert data["correspondence"]["hyperbolic"]["reason"]
    for pair in data["duality"].values():
        assert pair["status"] == "skipped" and pair["reason"]


def test_report_structure(hyperbolic_report):
    data = hyperbolic_report[0].data
    assert data["tool"]["name"] == "hypframe"
    assert data["tool"]["propagation_backend"] == "python"
    assert data["spec"]["digest"].startswith("sha256:")
    integ = data["integration"]
    for key in ("samples", "substep", "corrections", "max_drift", "max_drift_t"):
        assert key in integ


def test_cli_run_and_exit_codes(tmp_path, capsys):
    spec_path = os.path.join(SPEC_DIR, "cuspidal_edge_hyperbolic.json")
    out = tmp_path / "cli_out"
    assert cli_main(["run", "--spec", spec_path, "--out", str(out)]) == 0
    assert (out / "cuspidal_edge_hyperbolic_report.json").exists()
    capsys.readouterr()

    missing = str(tmp_path / "missing.json")
    assert cli_main(["run", "--spec", missing]) == 1

    bad = _write_spec(tmp_path, dict(MINIMAL, domain={"t0": 0, "t1": 1, "samples": 1}))
    assert cli_main(["run", "--spec", bad]) == 1

    # numeric failure: curvature leaves its domain mid-integration
    doc = dict(MINIMAL, name="broken",
               curvature={"m": "sqrt(t-0.5)", "n": "0", "a": "1", "b": "0"})
    assert cli_main(["run", "--spec", _write_spec(tmp_path, doc, "num.json")]) == 2
    capsys.readouterr()


def test_python_m_hypframe_is_the_cli(tmp_path, capsys, monkeypatch):
    """`python -m hypframe run` exits 0 and prints and writes what cli.main does."""
    spec_path = os.path.abspath(os.path.join(SPEC_DIR, "swallowtail_family.json"))
    src = os.path.dirname(os.path.dirname(os.path.abspath(hypframe.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    module, direct = tmp_path / "module", tmp_path / "direct"
    module.mkdir()
    direct.mkdir()
    proc = subprocess.run([sys.executable, "-m", "hypframe", "run", "--spec", spec_path,
                           "--out", "out"], cwd=module, env=env, capture_output=True,
                          text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    monkeypatch.chdir(direct)
    assert cli_main(["run", "--spec", spec_path, "--out", "out"]) == 0
    assert proc.stdout == capsys.readouterr().out

    def files(out):
        return {path.name: path.read_bytes() for path in out.iterdir()}

    written = files(module / "out")
    assert len(written) == 3 and written == files(direct / "out")


@pytest.mark.parametrize("curvature, domain", [
    # the de Sitter evolute turns to NaN with no domain error on the way
    (("2.41+1.45*sinh(2.96*t)", "-1.2-1.56*tanh(2.06*t)", "-0.61+0.05*t+1.44*t^2", "0"),
     (-1.6, 1.6, 81)),
    # perfbench's boosted workload at seed 19: the stored frames turn to NaN
    (("1.029313", "1.026701", "2.033930", "0"), (0.0, 40.0, 201)),
], ids=["silent_nan", "boosted_seed_19"])
def test_cli_run_exits_1_on_a_non_finite_point(tmp_path, capsys, curvature, domain):
    """The exit and text that perfbench's KNOWN_DEFECTS matches for the
    boosted long integrations."""
    doc = dict(MINIMAL, name="non_finite", curvature=dict(zip("mnab", curvature)),
               domain=dict(zip(("t0", "t1", "samples"), domain)))
    assert cli_main(["run", "--spec", _write_spec(tmp_path, doc), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.splitlines()[-1] \
        == "invalid input: non-finite component in MinkVec: nan"


@pytest.mark.parametrize("curvature, domain", [
    # perfbench's boosted workload at seeds 7 and 18: the stored frames are
    # finite, and only an interpolant of them turned to NaN
    (("1.008374", "1.013221", "1.949062", "0"), (0.0, 40.0, 201)),
    (("1.003307", "1.009729", "2.068557", "0"), (0.0, 40.0, 201)),
    # a curvature pole between two grid points and the integrator's nodes
    (("1/(t-0.00123)", "1", "2", "0"), (-1.0, 1.0, 21)),
], ids=["boosted_seed_7", "boosted_seed_18", "pole_between_nodes"])
def test_cli_run_certifies_duality_at_finite_stored_frames(tmp_path, capsys, curvature,
                                                           domain):
    """A run whose stored frames are finite writes its report, and each
    checked pair of its duality block has one finite residual sample per
    grid point of the pair's runs."""
    doc = dict(MINIMAL, name="finite_frames", curvature=dict(zip("mnab", curvature)),
               domain=dict(zip(("t0", "t1", "samples"), domain)))
    out = tmp_path / "out"
    assert cli_main(["run", "--spec", _write_spec(tmp_path, doc), "--out", str(out)]) == 0
    capsys.readouterr()
    assert sorted(p.name for p in out.iterdir()) == ["finite_frames_report.json"]
    data = json.loads((out / "finite_frames_report.json").read_text())
    t0, t1, samples = domain
    ts = t0 + ((t1 - t0) / (samples - 1)) * np.arange(samples)
    ts[-1] = t1
    checked = 0
    for pair, (_, surface) in PAIR_SURFACES.items():
        info = data["duality"][pair]
        if info["status"] != "checked":
            continue
        checked += 1
        intervals = data["surfaces"][surface]["defined_intervals"]
        points = sum(int(((ts >= lo) & (ts <= hi)).sum()) for lo, hi in intervals)
        assert info["samples"] == points, pair
        assert math.isfinite(info["max_residual"]), pair
    assert checked >= 2


def test_cli_subcommands_smoke(tmp_path, capsys):
    spec_path = os.path.join(SPEC_DIR, "cuspidal_edge_desitter.json")
    for sub in ("integrate", "dual", "classify", "verify", "evolute"):
        assert cli_main([sub, "--spec", spec_path]) == 0
        capsys.readouterr()
    assert cli_main(["focal", "--spec", spec_path, "--out", str(tmp_path)]) == 0
    assert cli_main(["integrate", "--spec", spec_path,
                     "--tol", "frame=1e-8"]) == 0
    assert cli_main(["integrate", "--spec", spec_path,
                     "--tol", "bogus=1"]) == 1
    for bad in ("zero=nan", "zero=inf", "zero=abc", "zero=-1"):
        assert cli_main(["integrate", "--spec", spec_path, "--tol", bad]) == 1
    capsys.readouterr()


def test_run_pipeline_non_polynomial_quartet(tmp_path):
    doc = dict(MINIMAL, name="generic",
               curvature={"m": "sin(t)", "n": "1+0.1*t^2", "a": "2+0.5*cos(t)",
                          "b": "0.2*t"},
               domain={"t0": -1.5, "t1": 1.5, "samples": 201})
    data = run_pipeline(load_spec(_write_spec(tmp_path, doc))).data
    leg = data["correspondence"]["hyperbolic"]
    assert leg["status"] == "checked"
    assert all(leg["agreements"].values())
    assert [(e["focal_type"], e["evolute_type"], e["dual_type"]) for e in leg["events"]] \
        == [("Swallowtail", "Cusp234", "CuspidalCrossCap")]
    assert abs(leg["events"][0]["t"]) < 1e-6
    checked = [p for p in data["duality"].values() if p["status"] == "checked"]
    assert len(checked) == 2 and all(p["pass"] for p in checked)


def test_cli_run_focal_d_on_two_intervals(tmp_path, capsys):
    """The de Sitter focal surface is defined on two intervals; refining the
    d-locus between them must not evaluate it inside the gap."""
    doc = dict(MINIMAL, name="two_intervals",
               curvature={"m": "2.5*t^2-1", "n": "1", "a": "2", "b": "0"},
               domain={"t0": -1.6, "t1": 1.6, "samples": 161},
               outputs=["report", "loci_csv", "focal_h_obj", "focal_d_obj",
                        "dual_eh_obj", "dual_ed_obj"])
    out = tmp_path / "out"
    assert cli_main(["run", "--spec", _write_spec(tmp_path, doc), "--out", str(out)]) == 0
    capsys.readouterr()
    data = json.loads((out / "two_intervals_report.json").read_text())
    assert len(data["surfaces"]["focal_d"]["defined_intervals"]) == 2
    for leg in data["correspondence"].values():
        assert leg["status"] == "checked"
        assert all(leg["agreements"].values())
    assert len(data["duality"]) == 4
    assert all(p["status"] == "checked" and p["pass"] for p in data["duality"].values())
    ts = -1.6 + (3.2 / 160) * np.arange(161)
    ts[-1] = 1.6
    # one sample per grid point of each pair's runs, none in the gap
    for pair, (_, surface) in PAIR_SURFACES.items():
        intervals = data["surfaces"][surface]["defined_intervals"]
        points = sum(int(((ts >= lo) & (ts <= hi)).sum()) for lo, hi in intervals)
        assert data["duality"][pair]["samples"] == points, pair

    # the focal_d mesh holds one patch per defined interval, joined by no face
    runs = data["surfaces"]["focal_d"]["defined_intervals"]
    assert runs[0][0] == -1.6 and runs[-1][1] == 1.6
    rows = [int(((ts >= lo) & (ts <= hi)).sum()) for lo, hi in runs]
    obj = (out / "two_intervals_focal_d.obj").read_text().splitlines()
    assert [ln for ln in obj if ln.startswith("# grid")] == [f"# grid {r} x 5" for r in rows]
    assert sum(ln.startswith("v ") for ln in obj) == 5 * sum(rows)
    faces = [[int(v) for v in ln.split()[1:]] for ln in obj if ln.startswith("f ")]
    assert len(faces) == 4 * sum(r - 1 for r in rows)
    assert set().union(*faces) == set(range(1, 5 * sum(rows) + 1))
    split = 5 * rows[0]
    assert all(max(f) <= split or min(f) > split for f in faces)


@pytest.mark.parametrize("m, n", [("3*sin(t)", "1"), ("3*t^3-t", "0.5")])
def test_cli_run_evolute_on_two_intervals(tmp_path, capsys, m, n):
    """The evolute is defined on two intervals; an epsilon sign change
    between them must not be bisected across the gap."""
    doc = dict(MINIMAL, name="evolute_gap", curvature={"m": m, "n": n, "a": "1.5", "b": "0"},
               domain={"t0": -1.6, "t1": 1.6, "samples": 161})
    out = tmp_path / "out"
    assert cli_main(["run", "--spec", _write_spec(tmp_path, doc), "--out", str(out)]) == 0
    capsys.readouterr()
    data = json.loads((out / "evolute_gap_report.json").read_text())
    assert len(data["surfaces"]["evolute_d"]["defined_intervals"]) == 2
    checked = [leg for leg in data["correspondence"].values() if leg["status"] == "checked"]
    assert checked and all(all(leg["agreements"].values()) for leg in checked)


# Valid specs that exited 2.  The scan and the evolute tested sigma_F
# against different thresholds, so the last grid point of the first spec
# was classified on a hyperbolic evolute that is undefined there.  In the
# second, a^2 + b^2 = 0 at t = 0 splits the de Sitter surfaces into two
# runs, and the d-locus was refined across the gap between them.
@pytest.mark.parametrize("curvature, domain, runs, events", [
    ({"m": "t", "n": "1", "a": "2", "b": "0"}, (0.0, 1.7320508074, 11),
     {"focal_h": [(0, 11)], "evolute_h": [(0, 10)], "dual_eh": [(0, 10)]},
     [("Swallowtail", "Cusp234", "CuspidalCrossCap")]),
    ({"m": "2", "n": "1", "a": "t", "b": "0"}, (-1.0, 1.0, 21),
     {"focal_d": [(0, 10), (11, 21)], "evolute_d": [(0, 10), (11, 21)],
      "dual_ed": [(0, 10), (11, 21)]}, []),
], ids=["sigma_threshold", "frame_gap"])
def test_every_subcommand_on_split_runs(tmp_path, capsys, curvature, domain, runs, events):
    t0, t1, samples = domain
    doc = dict(MINIMAL, name="split", curvature=curvature,
               domain={"t0": t0, "t1": t1, "samples": samples},
               outputs=["report", "loci_csv", "focal_h_obj", "focal_d_obj",
                        "dual_eh_obj", "dual_ed_obj"])
    spec = _write_spec(tmp_path, doc)
    for sub in ("integrate", "focal", "evolute", "dual", "classify", "verify", "run"):
        assert cli_main([sub, "--spec", spec, "--out", str(tmp_path / sub)]) == 0, sub
    capsys.readouterr()
    data = json.loads((tmp_path / "run" / "split_report.json").read_text())

    ts = t0 + (t1 - t0) / (samples - 1) * np.arange(samples)
    ts[-1] = t1
    for name, surface in data["surfaces"].items():
        expect = [[float(ts[a]), float(ts[b - 1])] for a, b in runs.get(name, [])]
        assert surface["defined_intervals"] == expect, name
    # every record lies inside a run of its surface, none in a gap
    for rec in data["loci"]:
        spans = data["surfaces"][rec["surface"]]["defined_intervals"]
        assert any(lo <= rec["t"] <= hi for lo, hi in spans)
    legs = [leg for leg in data["correspondence"].values() if leg["status"] == "checked"]
    assert legs and all(all(leg["agreements"].values()) for leg in legs)
    assert [(e["focal_type"], e["evolute_type"], e["dual_type"])
            for leg in legs for e in leg["events"]] == events
    assert all(p["pass"] for p in data["duality"].values() if p["status"] == "checked")


_FRAME_5E_11 = [1, 0, 0, 0, 0, 1, 0, 0, 0, 5e-11, 1, 0, 0, 0, 0, 1]  # <v1, v2> = 5e-11


@pytest.mark.parametrize("change, field", [
    ({"domain": 5}, "domain"),
    ({"theta": None}, "theta"),
    ({"domain": {"t0": 0, "t1": "inf", "samples": 11}}, "domain"),
    ({"theta": {"min": -1, "max": "inf", "samples": 5}, "outputs": ["focal_h_obj"]}, "theta"),
    ({"tolerances": {"zero": "abc"}}, "tolerances"),
    ({"tolerances": {"zero": "nan"}}, "tolerances"),
    ({"tolerances": {"sing": -1e-9}}, "tolerances"),
    ({"initial_frame": ["x"] + [0] * 15}, "initial_frame"),
    # within the old 1e-10 load check, outside integrate_frame's 1e-12
    ({"initial_frame": _FRAME_5E_11}, "initial_frame"),
], ids=["domain_int", "theta_null", "t1_inf", "theta_max_inf", "tol_text", "tol_nan",
        "tol_negative", "frame_text", "frame_residual"])
def test_load_spec_names_the_bad_field(tmp_path, capsys, change, field):
    path = _write_spec(tmp_path, dict(MINIMAL, **change))
    with pytest.raises(SpecValidationError) as err:
        load_spec(path)
    assert err.value.field == field
    assert cli_main(["run", "--spec", path, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"spec error: {field}: ")


def test_cli_non_finite_intermediate_exits_2(tmp_path, capsys):
    """exp(t^3) overflows past t = 8.92, and sin of it is NaN: a numeric
    failure located at that t, not a crash."""
    doc = dict(MINIMAL, curvature={"m": "sin(exp(t^3))", "n": "1", "a": "2", "b": "0"},
               domain={"t0": 0.0, "t1": 10.0, "samples": 11})
    assert cli_main(["run", "--spec", _write_spec(tmp_path, doc)]) == 2
    assert "curvature function 0 not finite at t=8.92" in capsys.readouterr().err


def test_cli_constant_zero_divisor_exits_2(tmp_path, capsys):
    """1/0 has two constant operands; the array replay used to divide them
    as Python floats and die with an untyped ZeroDivisionError."""
    doc = dict(MINIMAL, curvature={"m": "1+t*(1/0)", "n": "1", "a": "2", "b": "0"},
               domain={"t0": 0.5, "t1": 1.0, "samples": 11})
    assert cli_main(["run", "--spec", _write_spec(tmp_path, doc)]) == 2
    assert capsys.readouterr().err.startswith(
        "numeric failure: curvature function 0 at t=0.50")
    with pytest.raises(NumericError, match=r"at t=0\.50\d*: division by zero in '1/0'"):
        integrate_frame(CurvatureQuartet.from_strings("1+t*(1/0)", "1", "2", "0"),
                        (0.5, 1.0, 11))


def test_cli_off_quadric_mesh_vertex_exits_2(tmp_path, capsys):
    """On [0, 40] the frames of this constant quartet grow past 1e4 and leave
    the group; a focal_h mesh vertex off H3 is a numeric failure that names
    its grid point, not an invalid input."""
    doc = dict(MINIMAL, curvature={"m": "1.000244", "n": "1.034341", "a": "1.976286", "b": "0"},
               domain={"t0": 0.0, "t1": 40.0, "samples": 201})
    code = cli_main(["focal", "--spec", _write_spec(tmp_path, doc), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2, err
    assert re.match(r"numeric failure: grid point \(i=\d+, j=\d+\) at t=[0-9.]+: "
                    r"focal_h point MinkVec\(.*\) is not on H3$", err.strip()), err


def test_cli_wide_theta_window_exits_2(tmp_path, capsys):
    """cosh(theta) is past the libm range at theta = -1000: the fiber takes
    the IEEE value, and the mesh point that is not finite is a numeric
    failure that names its grid point, not a crash with OverflowError."""
    doc = dict(MINIMAL, curvature={"m": "1", "n": "1", "a": "2", "b": "0"},
               domain={"t0": 0.0, "t1": 1.0, "samples": 11},
               theta={"min": -1000.0, "max": 1000.0, "samples": 5}, outputs=["focal_h_obj"])
    code = cli_main(["run", "--spec", _write_spec(tmp_path, doc), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("numeric failure: grid point (i=0, j=0) at t=0.0: "), err


@pytest.mark.parametrize("sub", ["focal", "evolute", "dual", "classify", "verify", "run"])
def test_cli_frenet_domain_error_names_its_t(tmp_path, capsys, sub):
    """m = sqrt(t): the curvature is finite on [0, 1], but every Frenet
    program divides by zero in dm/dt at the grid point t = 0, and the error
    names that t."""
    doc = dict(MINIMAL, curvature={"m": "sqrt(t)", "n": "1", "a": "2", "b": "0"})
    code = cli_main([sub, "--spec", _write_spec(tmp_path, doc), "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err \
        == "numeric failure: division by zero in '1/(2*sqrt(t))' at t=0.0\n"


@pytest.mark.parametrize("sub", ["integrate", "focal", "evolute", "dual", "classify",
                                 "verify", "run"])
def test_cli_curvature_pole_at_a_sample_exits_2(tmp_path, capsys, sub):
    """m = 1/t has its pole at the grid point t = 0, between the Gauss nodes:
    the integrator checks the curvature at the samples too, so every
    subcommand fails there, integrate included."""
    doc = dict(MINIMAL, curvature={"m": "1/t", "n": "1", "a": "2", "b": "0"},
               domain={"t0": -1.0, "t1": 1.0, "samples": 21})
    code = cli_main([sub, "--spec", _write_spec(tmp_path, doc), "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err \
        == "numeric failure: curvature function 0 at t=0.0: division by zero in '1/t'\n"


@pytest.mark.parametrize("sub", ["verify", "run"])
def test_cli_epsilon_crossing_where_n_vanishes_exits_2(tmp_path, capsys, sub):
    """At this epsilon crossing N = W = Dh = 0, so sigma_F = 0 and the root
    theta = artanh(W / Dh) divides by zero: the evolute's definedness rule
    is checked first and names the t, where the run used to die with an
    untyped ZeroDivisionError."""
    doc = dict(MINIMAL, curvature={"m": "1.13", "n": "0.66-0.77*sin(-2.78*t)", "a": "-1.23",
                                   "b": "0"}, domain={"t0": -1.6, "t1": 1.6, "samples": 41})
    code = cli_main([sub, "--spec", _write_spec(tmp_path, doc), "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == (
        "numeric failure: sigma_F = 0.0 at t=-0.7596747671769937 is not positive: "
        "hyperbolic evolute undefined\n")


def test_run_leaves_the_unread_side_unbuilt(monkeypatch):
    """On a spec whose discriminant A^2 - M^2 is positive everywhere, a run
    reads no de Sitter theta, epsilon or evolute expression, so none is
    built; the hyperbolic ones are."""
    models, integrate = [], pipeline.integrate_frame
    monkeypatch.setattr(pipeline, "integrate_frame",
                        lambda *args, **kw: models.append(integrate(*args, **kw)) or models[0])
    run_pipeline(load_spec(os.path.join(SPEC_DIR, "cuspidal_edge_hyperbolic.json")))
    sides = models[0].frenet.h, models[0].frenet.d
    built = [{name for name in side.built if name.startswith(("theta", "eps", "evolute"))}
             for side in sides]
    assert {"eps_path_program", "evolute_program"} <= built[0] and built[1] == set()


@pytest.mark.parametrize("field, source, text", [
    ("m", "(" * 200 + "t" + ")" * 200, f"nesting deeper than {MAX_DEPTH} levels"),
    ("a", "+".join(["sin(t)"] * 1000), f"expression tree deeper than {MAX_DEPTH} levels"),
], ids=["parentheses", "sum"])
def test_cli_deep_expression_is_a_spec_error(tmp_path, capsys, field, source, text):
    """Both used to die inside the parser or the compiler with an untyped
    RecursionError."""
    doc = dict(MINIMAL, curvature=dict(MINIMAL["curvature"], **{field: source}))
    assert cli_main(["run", "--spec", _write_spec(tmp_path, doc)]) == 1
    assert capsys.readouterr().err.startswith(f"spec error: curvature.{field}: {text}")


# at the bound: the deepest quotient chain, sum and nesting that parse
AT_BOUND = ["(t+3)/(" * (MAX_DEPTH - 2) + "t+3" + ")" * (MAX_DEPTH - 2),
            "+".join(["sin(t)"] * (MAX_DEPTH - 1)),
            "(" * (MAX_DEPTH - 1) + "2+0.1*t" + ")" * (MAX_DEPTH - 1)]


@pytest.mark.parametrize("source", AT_BOUND, ids=["quotients", "sum", "parentheses"])
def test_cli_runs_a_curvature_at_the_depth_bound(tmp_path, capsys, source):
    """The Frenet expressions nest deeper than their input; a tree at the
    bound still runs through differentiation, compilation and every stage."""
    doc = dict(MINIMAL, curvature=dict(MINIMAL["curvature"], a=source),
               outputs=["report", "loci_csv", "focal_h_obj", "dual_eh_obj"])
    code = cli_main(["run", "--spec", _write_spec(tmp_path, doc), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 0 or (code == 2 and err.startswith("numeric failure: ")), err


def test_cli_focal_runs_only_the_focal_stages(tmp_path, capsys):
    """On this spec sigma_F touches zero inside the hyperbolic evolute's
    domain and the correspondence check fails; focal does not run it."""
    doc = dict(MINIMAL, name="tangency",
               curvature={"m": "1.13", "n": "0.68-0.76*sin(-2.78*t)", "a": "-1.23", "b": "0"},
               domain={"t0": -1.6, "t1": 1.6, "samples": 41})
    spec = _write_spec(tmp_path, doc)
    assert cli_main(["focal", "--spec", spec, "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "focal_h: defined on [[-1.6, 1.6]]", "focal_d: defined on nowhere",
        "wrote: tangency_focal_h.obj"]
    obj = (tmp_path / "out" / "tangency_focal_h.obj").read_text().splitlines()
    assert obj[1] == "# grid 41 x 5"
