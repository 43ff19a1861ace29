import json
import math
import os

import numpy as np
import pytest

from hypframe import (MinkVec, export_loci_csv, export_obj, load_spec,
                      project_hollow_ball, project_poincare, run_pipeline)
from hypframe.cli import main as cli_main
from hypframe.errors import InvalidInputError
from hypframe.focal import SingularPointRecord, SingularityType, SurfaceParam
from hypframe.pipeline import SpecParseError, SpecValidationError

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
    assert data["tool"]["propagation_backend"] in ("cython", "python")
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
    # every draw falls inside a defined run, none in the gap
    assert all(p["samples"] == 200 for p in data["duality"].values())

    # the focal_d mesh holds one patch per defined interval, joined by no face
    runs = data["surfaces"]["focal_d"]["defined_intervals"]
    assert runs[0][0] == -1.6 and runs[-1][1] == 1.6
    ts = -1.6 + (3.2 / 160) * np.arange(161)
    ts[-1] = 1.6
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
