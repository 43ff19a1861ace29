import ast
import errno
import importlib.util
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypframe import (CurvatureQuartet, MinkVec, correspondence_check, evolute_d, evolute_h,
                      export_loci_csv, export_obj, integrate_frame, load_spec,
                      project_hollow_ball, project_poincare, run_pipeline)
import hypframe
from hypframe import cli, evolute, pipeline
from hypframe.cli import main as cli_main
from hypframe.duality import PAIR_SURFACES
from hypframe.errors import IntegrationFailureError, InvalidInputError, NumericError
from hypframe.evolute import EvolutePointType
from hypframe.focal import SURFACES, SingularityType, defined_runs
from hypframe.framedcurve import FrenetExprs
from hypframe.loci import LOCI_SURFACES, TYPES, LociTable
from hypframe.pipeline import SpecParseError, SpecValidationError
from hypframe.symexpr import FUNCTIONS, MAX_DEPTH
from hypframe.tolerances import DEFAULT

from oracles import export_evolute_csv_writer, export_loci_csv_writer

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

    # a repeated product would be written and listed twice
    bad = dict(MINIMAL, outputs=["report", "focal_h_obj", "focal_h_obj", "loci_csv",
                                 "loci_csv"])
    with pytest.raises(SpecValidationError) as err:
        load_spec(_write_spec(tmp_path, bad))
    assert str(err.value) == "outputs: duplicate product 'focal_h_obj'"
    assert cli_main(["run", "--spec", _write_spec(tmp_path, bad), "--out",
                     str(tmp_path / "out")]) == 1
    assert not os.path.exists(tmp_path / "out")

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
    path.write_bytes(b'{"name": "\xff"}')
    with pytest.raises(SpecParseError, match="is not UTF-8"):
        load_spec(str(path))


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


def _loci_table(rows):
    """A loci table of rows (surface, t, theta, lambda, sigma_F, type,
    nondegenerate, whole_fiber), in their order."""
    tables = []
    for surface, *floats, ty, nondegenerate, whole_fiber in rows:
        table = LociTable(surface, *(np.array([x], dtype=float) for x in floats),
                          np.array([whole_fiber]))
        table.type, table.nondegenerate = np.array([TYPES.index(ty)]), np.array([nondegenerate])
        tables.append(table)
    return LociTable.join(tables)


def _records(table):
    """The records form of a loci table, which the report writes: one dict
    per row, in the report's key order."""
    return [{"surface": r.surface, "t": r.param.t, "theta": r.param.theta, "lambda": r.lam,
             "sigma_F": r.sigma_f, "type": r.type.value, "nondegenerate": r.nondegenerate,
             "whole_fiber": r.whole_fiber} for r in table]


def test_export_loci_csv(tmp_path):
    table = _loci_table([
        ("dual_eh", 0.5, 0.0, 0.0, 12.0, SingularityType.CUSPIDAL_EDGE, True, False),
        ("focal_h", 0.5, 0.0, 0.0, 12.0, SingularityType.SWALLOWTAIL, False, False),
        ("focal_h", 1.0, 0.0, 0.0, 12.0, SingularityType.CUSPIDAL_EDGE, True, True)])
    path = tmp_path / "loci.csv"
    export_loci_csv(table, path)
    assert path.read_bytes() == (b"surface,t,theta,lambda,sigma_F,type,nondegenerate\r\n"
                                 b"dual_eh,0.5,0.0,0.0,12.0,CuspidalEdge,true\r\n"
                                 b"focal_h,0.5,0.0,0.0,12.0,Swallowtail,false\r\n"
                                 b"focal_h,1.0,0.0,0.0,12.0,CuspidalEdge,true\r\n")

    empty = tmp_path / "empty.csv"
    export_loci_csv(LociTable.join([]), empty)
    assert empty.read_text().splitlines() == [
        "surface,t,theta,lambda,sigma_F,type,nondegenerate"]


def test_loci_csv_identifiers_need_no_quoting():
    """export_loci_csv writes surface names and type values as they are,
    which is what csv.writer does with text free of delimiters, quotes and
    line breaks."""
    names = [*SURFACES, *(ty.value for ty in SingularityType)]
    assert [name for name in names if set(name) & set(',"\r\n')] == []


@pytest.mark.parametrize("name", sorted(os.listdir(SPEC_DIR)))
def test_export_loci_csv_is_the_csv_writer_text(tmp_path, name):
    spec = load_spec(os.path.join(SPEC_DIR, name))
    model = integrate_frame(spec.quartet(), spec.domain, initial=spec.initial_frame,
                            tol=DEFAULT.with_overrides(spec.tolerances))
    records = pipeline.classified_loci(model, defined_runs(model))
    export_loci_csv(records, tmp_path / "new.csv")
    export_loci_csv_writer(records, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_export_loci_csv_writes_special_floats_as_csv_writer(tmp_path):
    specials = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, np.float64(-0.0),
                np.float64(math.nan), np.float64(1e308)]
    table = _loci_table([(surface, t, specials[i - 1], specials[i - 2], specials[i - 3], ty,
                          i % 2 == 0, i % 3 == 0) for i, (t, surface, ty) in enumerate(zip(
                              specials, [*LOCI_SURFACES] * 2, [*SingularityType] * 2))])
    export_loci_csv(table, tmp_path / "new.csv")
    export_loci_csv_writer(table, tmp_path / "old.csv")
    new = (tmp_path / "new.csv").read_bytes()
    assert new == (tmp_path / "old.csv").read_bytes()
    assert b"nan" in new and b"-inf" in new and b"-0.0" in new and b"5e-324" in new


@pytest.mark.parametrize("name", sorted(os.listdir(SPEC_DIR)))
def test_evolute_csv_matches_csv_writer(tmp_path, capsys, name):
    spec_path = os.path.join(SPEC_DIR, name)
    assert cli_main(["evolute", "--spec", spec_path, "--out", str(tmp_path)]) == 0
    wrote = capsys.readouterr().out.splitlines()[-1]
    spec = load_spec(spec_path)
    model = integrate_frame(spec.quartet(), spec.domain, initial=spec.initial_frame,
                            tol=DEFAULT.with_overrides(spec.tolerances))
    rows = evolute.evolute_rows(model, defined_runs(model))
    assert rows
    export_evolute_csv_writer(rows, tmp_path / "old.csv")
    new = tmp_path / (spec.name + "_evolute.csv")
    assert wrote == f"wrote {new}"
    assert new.read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_evolute_csv_writes_special_floats_as_csv_writer(tmp_path, capsys, monkeypatch):
    specials = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e308]
    rows = [(specials[i], "hd"[i % 2], specials[i - 1], specials[i - 2], ty.value)
            for i, ty in enumerate([*EvolutePointType] * 2)]
    monkeypatch.setattr(evolute, "evolute_rows", lambda model, runs: rows)
    spec = _write_spec(tmp_path, MINIMAL)
    assert cli_main(["evolute", "--spec", spec, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    export_evolute_csv_writer(rows, tmp_path / "old.csv")
    new = (tmp_path / "minimal_evolute.csv").read_bytes()
    assert new == (tmp_path / "old.csv").read_bytes()
    assert b"nan" in new and b"-inf" in new and b"-0.0" in new and b"5e-324" in new


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
    types = {r.type for r in data["loci"]}  # a loci table, its rows built into records
    assert types == {SingularityType.CUSPIDAL_EDGE}
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
    assert len(data["loci"]) == 0
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


# report strings: the item separator, what JSON escapes, the % of a
# template, non-ASCII text, a lone surrogate, and the key and the line of
# the loci table that the report writer replaces
TEXT = st.lists(st.sampled_from(["a", "t", ", ", '"', "\\", "%", "%s", "\x00", "\x1f", "\n",
                                 "\t", "\x7f", "\u03c8", "\u2028", "\ud800", "\U0001f600",
                                 "loci", '"loci": null', '\n  "loci": null']),
                max_size=4).map("".join)
SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308]
NUMBERS = st.one_of(st.floats(), st.integers(-2**70, 2**70),
                    st.sampled_from([*SPECIAL_FLOATS, 2**63, 2**64 + 1, -2**63 - 1]))
SCALARS = st.one_of(st.none(), st.booleans(), NUMBERS, TEXT)


@st.composite
def record_lists(draw):
    """A list of records with one key order and scalar values, a column of
    them mixing True and 1 (and False and 0); or the same with one record
    whose keys are reordered or differ, or which holds a nested value."""
    keys = draw(st.lists(TEXT, min_size=1, max_size=4, unique=True))
    flags = st.sampled_from([True, 1, 1.0, False, 0, -0.0])
    records = [{k: draw(SCALARS if j else flags) for j, k in enumerate(keys)}
               for _ in range(draw(st.integers(1, 5)))]
    i = draw(st.integers(0, len(records) - 1))
    change = draw(st.sampled_from([None, None, "reorder", "keys", "nested"]))
    if change == "reorder":
        records[i] = dict(reversed(records[i].items()))
    elif change == "keys":
        records[i] = dict(records[i], extra=None)
    elif change == "nested":
        records[i][keys[-1]] = [records[i][keys[-1]], {}]
    return records


REPORT_TREES = st.dictionaries(TEXT, st.recursive(
    st.one_of(SCALARS, record_lists()),
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(TEXT, inner, max_size=3)),
    max_leaves=12), max_size=4)


@st.composite
def loci_tables(draw):
    """A loci table of up to 4 rows, special floats among its floats."""
    floats = st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS))
    return _loci_table(draw(st.lists(st.tuples(
        st.sampled_from(LOCI_SURFACES), floats, floats, floats, floats,
        st.sampled_from(TYPES), st.booleans(), st.booleans()), max_size=4)))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(REPORT_TREES, st.one_of(st.none(), loci_tables()), st.integers(0, 4))
@example({"numbers": [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308, 2**63, -2**70],
          "loci": [{"surface": "a, b", "flag": True, "x": math.nan, "n": None},
                   {"surface": '"q" \\ \u03c8 \ud800 \x01', "flag": 1, "x": -0.0, "n": 2**64}],
          "empty": [[], {}, "", [{}]],
          "mixed": [{"a": 1, "b": 2}, {"b": 2, "a": 1}, {"a": 1}, {"a": [1, {}]}],
          "%s": ("tuple", 1)}, None, 0)
@example({'\n  "loci": null': '\n  "loci": null', "x": {"loci": None}, "y": ['"loci": null']},
         _loci_table([(surface, x, x, -x, x, ty, True, x != x)
                      for surface, x, ty in zip(LOCI_SURFACES, SPECIAL_FLOATS, TYPES)]), 1)
@example({"a": 1}, LociTable.join([]), 1)
def test_report_text_is_json_dumps_indent_2(data, table, position):
    """The report text is json.dumps(indent=2) of its data, a loci table
    under the top-level key "loci" (drawn at a position among the keys)
    written as its records."""
    records = data
    if table is not None:
        items = [*data.items()]
        data = dict([*items[:position], ("loci", table), *items[position:]])
        records = dict(data, loci=_records(table))
    assert pipeline.RunReport(data).to_json() == json.dumps(records, indent=2)


def _floats(obj) -> list:
    """The floats of a report tree, in the order json.dumps writes them."""
    if isinstance(obj, float):
        return [obj]
    if isinstance(obj, dict):
        obj = list(obj.values())
    return [x for item in obj for x in _floats(item)] if isinstance(obj, (list, tuple)) else []


def test_report_leaves_the_loci_floats_to_the_c_encoder(tmp_path, monkeypatch):
    """json.dumps takes the pure-Python encoder whenever indent is set: the
    report writer hands it the report's floats outside the loci table, and
    none of the table's, which grows with the grid."""
    spec = load_spec(os.path.join(SPEC_DIR, "swallowtail_family.json"))
    make_iterencode, encoded = json.encoder._make_iterencode, []

    def recording(markers, default, encoder, indent, floatstr, *args):
        def record(value, *rest, **kwargs):
            encoded.append(value)
            return floatstr(value, *rest, **kwargs)
        return make_iterencode(markers, default, encoder, indent, record, *args)

    monkeypatch.setattr(json.encoder, "_make_iterencode", recording)
    report = run_pipeline(spec, out_dir=str(tmp_path))
    monkeypatch.undo()
    outside = _floats({key: value for key, value in report.data.items() if key != "loci"})
    assert outside and len(report.data["loci"])
    assert list(map(repr, encoded)) == list(map(repr, outside))
    written = (tmp_path / "swallowtail_family_report.json").read_text(encoding="utf-8")
    # the loci table is written as a list of one dict per row
    assert written == json.dumps(dict(report.data, loci=_records(report.data["loci"])),
                                 indent=2) + "\n"


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


@pytest.mark.parametrize("argv, message", [
    (["plot", "--spec", "s.json"], "argument command: invalid choice: 'plot'"),
    (["run"], "the following arguments are required: --spec"),
    (["run", "--spec"], "argument --spec: expected one argument"),
], ids=["unknown_command", "missing_spec", "spec_without_path"])
def test_cli_usage_errors_exit_2(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        cli_main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("sub", ["run", "focal", "classify", "evolute"])
def test_cli_out_naming_a_file_is_an_output_error(tmp_path, capsys, sub):
    """--out naming an existing file used to end in a FileExistsError
    traceback; it is one line on stderr and exit 1."""
    out = tmp_path / "taken"
    out.write_text("")
    assert cli_main([sub, "--spec", _write_spec(tmp_path, MINIMAL), "--out", str(out)]) == 1
    error = FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST), str(out))
    assert capsys.readouterr().err == f"output error: {error}\n"


def _python_m_hypframe(args, cwd):
    """`python -m hypframe ARGS` in cwd, with this hypframe on the import path."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(hypframe.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "hypframe", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, check=False)


def test_python_m_hypframe_is_the_cli(tmp_path, capsys, monkeypatch):
    """`python -m hypframe run` exits 0 and prints and writes what cli.main does."""
    spec_path = os.path.abspath(os.path.join(SPEC_DIR, "swallowtail_family.json"))
    module, direct = tmp_path / "module", tmp_path / "direct"
    module.mkdir()
    direct.mkdir()
    proc = _python_m_hypframe(["run", "--spec", spec_path, "--out", "out"], module)
    assert proc.returncode == 0, proc.stderr
    monkeypatch.chdir(direct)
    assert cli_main(["run", "--spec", spec_path, "--out", "out"]) == 0
    assert proc.stdout == capsys.readouterr().out

    def files(out):
        return {path.name: path.read_bytes() for path in out.iterdir()}

    written = files(module / "out")
    assert len(written) == 3 and written == files(direct / "out")


@pytest.mark.parametrize("sub", ["integrate", "run"])
@pytest.mark.parametrize("change, error", [
    ({"domain": {"t0": -1e308, "t1": 1e308, "samples": 3}}, "spec error: domain: "),
    ({"domain": {"t0": 0, "t1": 1e308, "samples": 3}},
     "invalid input: domain needs over 2**62 substeps"),
    # a finite substep count too large for int64
    ({"domain": {"t0": 0, "t1": 1e300, "samples": 3}},
     "invalid input: domain needs over 2**62 substeps"),
    ({"theta": {"min": -1e308, "max": 1e308, "samples": 5},
      "outputs": ["report", "focal_h_obj"]}, "spec error: theta: "),
], ids=["domain_span", "substeps", "substeps_int64", "theta_span"])
def test_cli_overflowing_span_exits_1(tmp_path, sub, change, error):
    """A span or substep count that overflows used to end in an
    OverflowError traceback, or a RuntimeWarning and a NaN mesh point; it is
    one line on stderr and exit 1."""
    spec_path = _write_spec(tmp_path, dict(MINIMAL, **change))
    proc = _python_m_hypframe([sub, "--spec", spec_path, "--out", "out"], tmp_path)
    assert proc.returncode == 1
    assert proc.stderr.startswith(error) and proc.stderr.count("\n") == 1, proc.stderr


@pytest.mark.parametrize("sub", ["integrate", "run"])
def test_cli_domain_over_the_substep_limit_exits_1(tmp_path, sub):
    """A domain that asks for 5e17 substeps used to pass load_spec and then
    integrate without end; it is a spec error that names its substep count
    and the limit."""
    spec_path = _write_spec(tmp_path, dict(MINIMAL, name="huge_domain",
                                           domain={"t0": 0, "t1": 1e15, "samples": 3}))
    proc = _python_m_hypframe([sub, "--spec", spec_path, "--out", "out"], tmp_path)
    assert proc.returncode == 1
    assert proc.stderr == ("spec error: domain: asks for 500000000000000000 substeps, "
                           f"over the limit of {pipeline.MAX_SUBSTEPS}\n")


def test_substep_limit_is_the_integrators_count(tmp_path):
    """load_spec counts substeps by integrate_frame's own rule: a domain of
    exactly MAX_SUBSTEPS loads, one substep more does not."""
    limit = pipeline.MAX_SUBSTEPS
    span = limit * 2e-3  # one interval of substeps no longer than 2e-3
    assert pipeline.load_spec(_write_spec(tmp_path, dict(
        MINIMAL, domain={"t0": 0, "t1": span, "samples": 2}))).domain[1] == span
    with pytest.raises(SpecValidationError, match=f"asks for {limit + 1} substeps"):
        pipeline.load_spec(_write_spec(tmp_path, dict(
            MINIMAL, domain={"t0": 0, "t1": span + 1e-3, "samples": 2})))


@pytest.mark.parametrize("sub", ["integrate", "run"])
def test_cli_domain_over_the_sample_limit_exits_1(tmp_path, capsys, monkeypatch, sub):
    """The large-grid quartet at 10^7 samples asks for fewer substeps than
    MAX_SUBSTEPS, and used to die in NumPy's allocation error where the
    frames are stored; it is a spec error on domain.samples that names its
    count and the limit, raised before any stage runs."""
    spec_path = _write_spec(tmp_path, dict(
        MINIMAL, name="huge_samples", domain={"t0": -4, "t1": 4, "samples": 10 ** 7},
        curvature={"m": "sin(t)", "n": "1+0.1*t^2", "a": "2+0.5*cos(t)", "b": "0.2*t"}))
    monkeypatch.setattr(pipeline, "integrate_frame", None)  # a stage that ran would fail
    assert cli_main([sub, "--spec", spec_path, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "spec error: domain.samples: asks for 10000000 samples, over the limit of "
        f"{pipeline.MAX_SAMPLES}\n")
    assert not (tmp_path / "out").exists()


def test_sample_limit_admits_the_finest_measured_grid(tmp_path):
    """A domain of exactly MAX_SAMPLES samples loads, one sample more does
    not; the limit admits the 200,001 samples of the finest grid measured."""
    limit = pipeline.MAX_SAMPLES
    assert limit >= 200_001
    domain = {"t0": -4, "t1": 4, "samples": limit}
    spec = pipeline.load_spec(_write_spec(tmp_path, dict(MINIMAL, domain=domain)))
    assert spec.domain[2] == limit
    with pytest.raises(SpecValidationError, match=f"^domain.samples: asks for {limit + 1} samples"):
        pipeline.load_spec(_write_spec(tmp_path, dict(
            MINIMAL, domain=dict(domain, samples=limit + 1))))


@pytest.mark.parametrize("sub", ["focal", "run"])
def test_cli_mesh_over_the_point_limit_exits_1(tmp_path, capsys, monkeypatch, sub):
    """A mesh of 11 x 1e12 points used to reach export and end in NumPy's
    allocation error; it is a spec error on theta that names its point count
    and the limit, raised before any stage runs or any file is written."""
    spec_path = _write_spec(tmp_path, dict(
        MINIMAL, name="huge_theta", theta={"min": -1, "max": 1, "samples": 10 ** 12},
        outputs=["report", "focal_h_obj"]))
    monkeypatch.setattr(pipeline, "integrate_frame", None)  # a stage that ran would fail
    assert cli_main([sub, "--spec", spec_path, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "spec error: theta: asks for a mesh of 11000000000000 points, over the limit of "
        f"{pipeline.MAX_MESH_POINTS}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("outputs, refused", [(["report", "dual_ed_obj"], True),
                                              (["report"], False)])
def test_mesh_point_limit_applies_to_meshes_alone(tmp_path, monkeypatch, outputs, refused):
    """With the limit at 55, an 11 x 5 mesh runs and an 11 x 6 mesh is a spec
    error; without a mesh output, or without an output directory, 11 x 6 runs."""
    monkeypatch.setattr(pipeline, "MAX_MESH_POINTS", 55)
    spec = pipeline.load_spec(_write_spec(tmp_path, dict(MINIMAL, outputs=outputs)))
    pipeline.run_pipeline(spec, out_dir=str(tmp_path / "five"))
    six = spec._replace(theta=(-1.0, 1.0, 6))
    pipeline.run_pipeline(six)
    if refused:
        with pytest.raises(SpecValidationError, match="^theta: asks for a mesh of 66 points"):
            pipeline.run_pipeline(six, out_dir=str(tmp_path / "six"))
    else:
        pipeline.run_pipeline(six, out_dir=str(tmp_path / "six"))


_ONCE_NON_FINITE_FRAMES = pytest.mark.parametrize("curvature, domain, code, last", [
    # the de Sitter evolute turned to NaN, after a re-orthonormalization of a
    # frame at its rounding floor, with no domain error on the way
    (("2.41+1.45*sinh(2.96*t)", "-1.2-1.56*tanh(2.06*t)", "-0.61+0.05*t+1.44*t^2", "0"),
     (-1.6, 1.6, 81), 0, None),
    # perfbench's boosted workload at seed 19: the stored frames turned to NaN
    # (test_propagation checks them against expm)
    (("1.029313", "1.026701", "2.033930", "0"), (0.0, 40.0, 201), 0, None),
    # |F| grows like exp(30 t): the frames overflow
    (("30", "1", "2", "0"), (0.0, 40.0, 201), 2, "numeric failure: frame not finite at t=12.0"),
], ids=["silent_nan", "boosted_seed_19", "overflow"])


def _never_exits_1(tmp_path, capsys, curvature, domain, code, last, sub):
    doc = dict(MINIMAL, name="non_finite", curvature=dict(zip("mnab", curvature)),
               domain=dict(zip(("t0", "t1", "samples"), domain)))
    assert cli_main([sub, "--spec", _write_spec(tmp_path, doc), "--out", str(tmp_path)]) == code
    if last is not None:
        assert capsys.readouterr().err.splitlines()[-1] == last


@_ONCE_NON_FINITE_FRAMES
def test_cli_run_never_exits_1_on_frames_that_once_turned_non_finite(tmp_path, capsys,
                                                                     curvature, domain,
                                                                     code, last):
    """Frames at their rounding floor are no longer re-orthonormalized, and a
    frame that does overflow is a located numeric failure (exit 2), never
    MinkVec's invalid input (exit 1)."""
    _never_exits_1(tmp_path, capsys, curvature, domain, code, last, "run")


@_ONCE_NON_FINITE_FRAMES
def test_cli_integrate_never_exits_1_on_frames_that_once_turned_non_finite(
        tmp_path, capsys, curvature, domain, code, last):
    """integrate fails, or passes, as run does."""
    _never_exits_1(tmp_path, capsys, curvature, domain, code, last, "integrate")


def test_overflowing_frames_raise_at_the_first_non_finite_sample():
    with pytest.raises(IntegrationFailureError) as err:
        integrate_frame(CurvatureQuartet.from_strings("30", "1", "2", "0"), (0.0, 40.0, 201))
    assert err.value.worst_t == 12.0
    assert str(err.value) == "frame not finite at t=12.0"


def _random_curvature(rng):
    """A constant, a quadratic, or c0 + c1 f(k t) with f a DSL function."""
    c0, c1, c2 = (float(c) for c in rng.uniform(-2.0, 2.0, 3).round(3))
    kind = int(rng.integers(3))
    if kind == 0:
        return f"{c0}"
    if kind == 1:
        return f"{c0}+{c1}*t+{c2}*t^2"
    f = sorted(FUNCTIONS)[int(rng.integers(len(FUNCTIONS)))]
    return f"{c0}+{c1}*{f}({round(float(rng.uniform(0.2, 3.0)), 2)}*t)"


def test_random_quartets_never_raise_invalid_input(tmp_path):
    """A seeded sweep of 50 quartets over domains of length 1 to 40, b = 0
    half the time: each run passes or fails with a NumericError located at
    a t.  Frames re-orthonormalized at their rounding floor turned to NaN
    and raised MinkVec's InvalidInputError on 8 of these 50."""
    rng = np.random.default_rng(1)
    failed = 0
    for i in range(50):
        curvature = [_random_curvature(rng) for _ in "mnab"]
        if rng.random() < 0.5:
            curvature[3] = "0"
        half = float(rng.choice([0.5, 1.0, 2.0, 5.0, 20.0]))
        doc = dict(MINIMAL, name=f"sweep_{i}", curvature=dict(zip("mnab", curvature)),
                   domain={"t0": -half, "t1": half, "samples": 41})
        try:
            run_pipeline(load_spec(_write_spec(tmp_path, doc)))
        except NumericError as exc:
            assert "t=" in str(exc), (curvature, str(exc))
            failed += 1
    assert 0 < failed < 50


@pytest.mark.parametrize("curvature, domain", [
    # perfbench's boosted workload at seeds 7 and 18: the stored frames were
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


@pytest.mark.parametrize("sub", ["integrate", "run"])
@pytest.mark.parametrize("m, n, error", [
    # n leaves its domain for good at t = 2, m at t = 35
    ("log(35-t)", "sqrt(2-t)",
     "at t=35.00042264973081: log of non-positive value -0.0004226497308081889 in 'log(35-t)'"),
    # only between two samples, at nodes: n near t = 2.1, in the first chunk, m near 35.1
    ("sqrt((t-35.1)^2-0.0001)", "sqrt((t-2.1)^2-0.0001)",
     "at t=35.09042264973081: sqrt of negative value -8.27436182124966e-06 in "
     "'sqrt((t-35.1)^2-0.0001)'"),
], ids=["from_a_sample_on", "between_samples"])
def test_curvature_errors_keep_function_order(tmp_path, capsys, m, n, error, sub):
    """Each curvature function is checked at every node, then every sample,
    before the next: m is reported, at its first failing node, although n
    fails at an earlier t."""
    doc = dict(MINIMAL, name="two_poles", domain={"t0": 0.0, "t1": 40.0, "samples": 201},
               curvature={"m": m, "n": n, "a": "2", "b": "0"})
    assert cli_main([sub, "--spec", _write_spec(tmp_path, doc), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"numeric failure: curvature function 0 {error}\n"


def test_run_calls_no_linalg(tmp_path, capsys, monkeypatch):
    """No np.linalg function is on the path of `run`, `evolute` or an
    evolute sample: the front rank test takes its singular values in closed
    form, and an evolute sample has no singular values."""
    def called(*args, **kwargs):
        raise AssertionError("np.linalg called")

    for name in np.linalg.__all__:
        if name != "LinAlgError":
            monkeypatch.setattr(np.linalg, name, called)
    for name, evolute in (("cuspidal_edge_hyperbolic", evolute_h),
                          ("cuspidal_edge_desitter", evolute_d)):
        spec_path = os.path.join(SPEC_DIR, name + ".json")
        for sub in ("run", "evolute"):
            assert cli_main([sub, "--spec", spec_path, "--out", str(tmp_path / name)]) == 0
        spec = load_spec(spec_path)
        model = integrate_frame(spec.quartet(), spec.domain, initial=spec.initial_frame)
        assert evolute(model, float(model.ts[3])).point_type
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
    for bad in ("zero=nan", "zero=inf", "zero=abc", "zero=-1", "causal=1e-12"):
        assert cli_main(["integrate", "--spec", spec_path, "--tol", bad]) == 1
    capsys.readouterr()
    assert cli_main(["integrate", "--spec", spec_path, "--tol", "frame"]) == 1
    assert capsys.readouterr().err == \
        "spec error: --tol: expected name=value, got 'frame'\n"


def test_failing_correspondence_is_reported(tmp_path, capsys):
    """At sing = 0.05 the focal surface reads swallowtails near t = -0.93
    where the evolute is regular: verify names the agreements that fail and
    exits 2, and the report lists each failing grid point, as _leg gives it."""
    spec_path = os.path.join(SPEC_DIR, "swallowtail_family.json")
    assert cli_main(["verify", "--spec", spec_path, "--tol", "sing=0.05"]) == 2
    assert re.findall(r"^  (\w+): FAIL$", capsys.readouterr().out, re.M) == [
        "focal_ce_iff_evolute_regular", "focal_sw_iff_evolute_cusp", "focal_sw_iff_dual_ccr"]
    assert cli_main(["run", "--spec", spec_path, "--tol", "sing=0.05",
                     "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    data = json.loads((tmp_path / "swallowtail_family_report.json").read_text())
    failures = data["correspondence"]["hyperbolic"]["failures"]
    assert len(failures) == 18
    assert (failures[0]["t"], failures[0]["focal"], failures[0]["evolute"]) \
        == (-0.93, "Swallowtail", "RegularPoint")
    spec = load_spec(spec_path)
    model = integrate_frame(spec.quartet(), spec.domain,
                            tol=DEFAULT.with_overrides({"sing": 0.05}))
    leg = pipeline._leg_dict(correspondence_check(model, defined_runs(model)).hyperbolic)
    assert failures == json.loads(json.dumps(leg["failures"]))


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


_DROP = object()  # a change that leaves the key out of the document


@pytest.mark.parametrize("change, error", [
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
    # JSON values of the wrong type were coerced: int(2.7) == 2, float("0") == 0.0
    ({"domain": {"t0": 0, "t1": 1, "samples": 2.7}}, "domain.samples"),
    ({"domain": {"t0": 0, "t1": 1, "samples": 100.9}}, "domain.samples"),
    ({"domain": {"t0": 0, "t1": 1, "samples": "5"}}, "domain"),
    ({"domain": {"t0": "0", "t1": 1, "samples": 11}}, "domain"),
    ({"domain": {"t0": 0, "t1": True, "samples": 11}}, "domain"),
    ({"theta": {"min": False, "max": 1, "samples": 5}}, "theta"),
    ({"theta": {"min": -1, "max": 1, "samples": True}}, "theta"),
    ({"initial_frame": ["1", "0", "0", "0"] + [0] * 12}, "initial_frame"),
    ({"initial_frame": [True] + [0] * 15}, "initial_frame"),
    ({"initial_frame": [10 ** 400] + [0] * 15}, "initial_frame"),
    ({"domain": {"t0": 1, "t1": 1, "samples": 11}}, "domain.t1: must exceed domain.t0"),
    # json.dumps writes the JSON literals Infinity and NaN, which json.loads reads
    ({"domain": {"t0": 0, "t1": math.inf, "samples": 11}}, "domain: t0 and t1 must be finite"),
    ({"theta": {"min": math.nan, "max": 1, "samples": 5}}, "theta: min and max must be finite"),
    # finite ends whose span overflows: the integrator's substep count and
    # the mesh's linspace could not be taken
    ({"domain": {"t0": -1e308, "t1": 1e308, "samples": 3}},
     "domain: t0 and t1 must be finite, and so must t1 - t0"),
    ({"theta": {"min": -1e308, "max": 1e308, "samples": 5}, "outputs": ["focal_h_obj"]},
     "theta: min and max must be finite, and so must max - min"),
    ([MINIMAL], "document: top level must be an object"),
    ({"domain": _DROP}, "domain: missing required field"),
    ({"name": ""}, "name: must be a non-empty string"),
    ({"curvature": {"m": "1", "n": "1", "a": "2"}}, "curvature.b: missing"),
    # only an absent key or null takes the default
    ({"tolerances": 0}, "tolerances: must be an object"),
    ({"tolerances": False}, "tolerances: must be an object"),
    ({"tolerances": ""}, "tolerances: must be an object"),
    ({"tolerances": []}, "tolerances: must be an object"),
    ({"outputs": 0}, "outputs: must be a list"),
    ({"outputs": False}, "outputs: must be a list"),
    ({"outputs": ""}, "outputs: must be a list"),
    ({"outputs": {}}, "outputs: must be a list"),
    # a tolerance is a JSON number, as every other number of a spec
    ({"tolerances": {"sing": "1e-6"}}, "tolerances: tolerance 'sing' must be a JSON number"),
    ({"tolerances": {"sing": True}}, "tolerances: tolerance 'sing' must be a JSON number"),
], ids=["domain_int", "theta_null", "t1_inf", "theta_max_inf", "tol_text", "tol_nan",
        "tol_negative", "frame_text", "frame_residual", "samples_fraction",
        "samples_fraction_high", "samples_text", "t0_text", "t1_bool", "theta_min_bool",
        "samples_bool", "frame_numeric_text", "frame_bool", "frame_huge_int",
        "t1_not_above_t0", "t1_json_infinity", "theta_min_json_nan", "domain_span_overflow",
        "theta_span_overflow", "top_level_list",
        "domain_missing", "name_empty", "curvature_key_missing", "tol_zero", "tol_false",
        "tol_empty_text", "tol_list", "outputs_zero", "outputs_false", "outputs_empty_text",
        "outputs_object", "tol_numeric_text", "tol_bool"])
def test_load_spec_names_the_bad_field(tmp_path, capsys, change, error):
    """error is the field, or the field and the start of the message after it."""
    field = error.split(": ")[0]
    doc = change if isinstance(change, list) else {
        k: v for k, v in dict(MINIMAL, **change).items() if v is not _DROP}
    path = _write_spec(tmp_path, doc)
    with pytest.raises(SpecValidationError) as err:
        load_spec(path)
    assert err.value.field == field and str(err.value).startswith(error)
    assert cli_main(["run", "--spec", path, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"spec error: {field}: ")


def test_frame_drift_beyond_tolerance_exits_2(tmp_path, capsys):
    """At tol.frame = 0 any drift left after re-orthonormalization fails the
    run, located at the worst sample."""
    doc = dict(MINIMAL, curvature={"m": "0.2", "n": "1", "a": "2", "b": "0"},
               tolerances={"frame": 0})
    spec = load_spec(_write_spec(tmp_path, doc))
    with pytest.raises(IntegrationFailureError) as err:
        integrate_frame(spec.quartet(), spec.domain, tol=DEFAULT.with_overrides(spec.tolerances))
    text = str(err.value)
    assert re.fullmatch(r"frame drift \S+ survives re-orthonormalization near t=\S+", text)
    assert text.endswith(f"near t={err.value.worst_t!r}")
    assert cli_main(["run", "--spec", _write_spec(tmp_path, doc)]) == 2
    assert capsys.readouterr().err == f"numeric failure: {text}\n"


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
    """cosh(theta) overflows to inf at theta = -1000, and the mesh point
    that is not finite is a numeric failure that names its grid point, not
    a crash."""
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


@pytest.mark.parametrize("curvature, sides", [
    (("2.5*t^2-1", "1", "2", "0.1*t"), 2),
    (("sin(t)", "1+0.1*t^2", "2+0.5*cos(t)", "0.2*t"), 1),
], ids=["both_sides", "hyperbolic_only"])
def test_run_differentiates_the_evolute_once(tmp_path, monkeypatch, curvature, sides):
    """The evolute chain is E, E': a run differentiates the frame
    coefficients of E once per side whose evolute it builds, and that
    side's evolute program has the 8 coefficients of E and E'."""
    models, integrate = [], pipeline.integrate_frame
    monkeypatch.setattr(pipeline, "integrate_frame",
                        lambda *args, **kw: models.append(integrate(*args, **kw)) or models[0])
    calls, derivative = [], FrenetExprs.frame_coeff_derivative
    monkeypatch.setattr(FrenetExprs, "frame_coeff_derivative",
                        lambda self, coeffs: calls.append(coeffs) or derivative(self, coeffs))
    doc = dict(MINIMAL, curvature=dict(zip("mnab", curvature)),
               domain={"t0": -1.6, "t1": 1.6, "samples": 41})
    run_pipeline(load_spec(_write_spec(tmp_path, doc)), out_dir=str(tmp_path))
    built = [side.built["evolute_program"] for side in (models[0].frenet.h, models[0].frenet.d)
             if "evolute_program" in side.built]
    assert len(calls) == len(built) == sides
    assert [len(program.outputs) for program in built] == [8] * sides


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


def test_cli_integrate_prints_the_relative_residual_of_large_frames(tmp_path, capsys):
    """On this constant boosted quartet the frames grow to |F| near 1e8, so
    their absolute Gram residual is about 4e2 while their drift relative
    to |F| stays at rounding level; the printed residual is the relative one."""
    doc = dict(MINIMAL, name="boosted", domain={"t0": 0.0, "t1": 40.0, "samples": 201})
    assert cli_main(["integrate", "--spec", _write_spec(tmp_path, doc)]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert last.startswith("worst sample residual ")
    assert float(last.rsplit(" ", 1)[1]) <= DEFAULT.frame


# the stages of pipeline.STAGES that each subcommand runs, in call order
SUBCOMMAND_STAGES = {
    "integrate": ["integrate"],
    "focal": ["integrate", "definedness", "export"],
    "evolute": ["integrate", "definedness", "evolute_rows", "export"],
    "dual": ["integrate", "definedness", "duality"],
    "classify": ["integrate", "definedness", "loci", "export"],
    "verify": ["integrate", "definedness", "correspondence", "duality"],
    "run": ["integrate", "definedness", "loci", "correspondence", "duality", "export"],
}


@pytest.mark.parametrize("sub", list(SUBCOMMAND_STAGES))
def test_cli_runs_only_its_declared_stages(tmp_path, capsys, monkeypatch, sub):
    """Each subcommand runs its stages and no other, counted through
    pipeline.STAGES.  On the tangency spec sigma_F touches zero inside the
    hyperbolic evolute's domain and the correspondence stage fails; only
    the subcommands that run it fail."""
    calls = []
    monkeypatch.setattr(pipeline, "STAGES", tuple(
        (name, lambda v, name=name, run=run: calls.append(name) or run(v), inputs)
        for name, run, inputs in pipeline.STAGES))
    stages, out = SUBCOMMAND_STAGES[sub], str(tmp_path / "out")
    assert cli_main([sub, "--spec", _write_spec(tmp_path, MINIMAL), "--out", out]) == 0
    assert calls == stages
    capsys.readouterr()
    calls.clear()
    doc = dict(MINIMAL, name="tangency",
               curvature={"m": "1.13", "n": "0.68-0.76*sin(-2.78*t)", "a": "-1.23", "b": "0"},
               domain={"t0": -1.6, "t1": 1.6, "samples": 41})
    code = cli_main([sub, "--spec", _write_spec(tmp_path, doc, "tangency.json"), "--out", out])
    if "correspondence" in stages:
        assert code == 2
        assert calls == stages[:stages.index("correspondence") + 1]
        assert "sigma_F = 2.328082452860959e-30" in capsys.readouterr().err
        return
    assert code == 0
    assert calls == stages
    if sub == "focal":
        assert capsys.readouterr().out.splitlines() == [
            "focal_h: defined on [[-1.6, 1.6]]", "focal_d: defined on nowhere",
            "wrote: tangency_focal_h.obj"]
        obj = (tmp_path / "out" / "tangency_focal_h.obj").read_text().splitlines()
        assert obj[1] == "# grid 41 x 5"


@pytest.mark.skipif(not os.path.exists("/proc/self/smaps"), reason="reads /proc/self")
def test_stage_rss_reports_each_stage_of_run(tmp_path, capsys):
    path = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "stage_rss.py")
    spec = importlib.util.spec_from_file_location("stage_rss", path)
    stage_rss = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(stage_rss)
    stages = pipeline.STAGES
    assert stage_rss.main([_write_spec(tmp_path, MINIMAL)]) == 0
    assert pipeline.STAGES is stages
    lines = [line.split() for line in capsys.readouterr().out.splitlines()
             if line.startswith(("before", "after"))]
    assert [line[:2] for line in lines] == [
        [when, name] for name in SUBCOMMAND_STAGES["run"] for when in ("before", "after")]
    assert all(line[2::2] == ["VmHWM", "VmRSS", "_multiarray_umath"]
               and int(line[5]) > 0 for line in lines)


def test_cli_uses_no_private_name_of_another_module():
    """cli reaches the engine only through public names: no `from m import
    _x` and no `m._x` on a module it imports (dunder names are public)."""
    def private(name):
        return name.startswith("_") and not name.endswith("__")

    tree = ast.parse(open(cli.__file__, encoding="utf-8").read())
    modules, used = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import | ast.ImportFrom):
            for alias in node.names:
                modules.add(alias.asname or alias.name)
                if isinstance(node, ast.ImportFrom) and private(alias.name):
                    used.append(alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and private(node.attr)):
            used.append(f"{node.value.id}.{node.attr}")
    assert used == []
