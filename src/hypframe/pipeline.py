"""End-to-end pipeline: curve-spec ingestion, the stages of a run
(STAGES, which every subcommand runs a subset of), the report and exports.

A curve spec is a UTF-8 JSON document naming the four curvature
expressions, the parameter domain, the fiber window, and the requested
output products.  Runs are deterministic: the same spec produces
byte-identical OBJ, CSV and report files (reports carry no timestamp).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from collections import namedtuple
from itertools import chain
from typing import NamedTuple

import numpy as np

from . import __version__
from . import duality as _duality
from . import evolute as _evolute
from . import focal as _focal
from . import loci as _loci
from .errors import HypframeError, InvalidInputError
from .framedcurve import (CurvatureQuartet, FramedCurveModel, integrate_frame,
                          propagation_backend, substep_count, validate_initial_frame)
from .minkowski import ON_QUADRIC, Columns, MinkVec, Quadric, membership_residual
from .symexpr import ExprSyntaxError, parse_expr
from .tolerances import DEFAULT, Tolerances


class SpecError(HypframeError):
    """Problem with a curve-spec document (exit code 1)."""


class SpecParseError(SpecError):
    pass


class SpecValidationError(SpecError):
    def __init__(self, field_name, message):
        super().__init__(f"{field_name}: {message}")
        self.field = field_name


OUTPUT_PRODUCTS = ("report", "loci_csv", "focal_h_obj", "focal_d_obj",
                   "dual_eh_obj", "dual_ed_obj")

# The most CF4 substeps a spec's domain may ask of integrate_frame: 50 times
# the 200,000 of the finest spec run so far; (0, 1e15, 3) asks for 5e17.
MAX_SUBSTEPS = 10_000_000
# The most domain samples a spec may ask for: twice the 200,001 of the
# finest grid measured so far.  `run` of the large-grid quartet with the
# report and loci CSV peaked at 1,539 MB RSS at the limit (2-vCPU x86-64
# Linux), about 3.85 kB a sample.
MAX_SAMPLES = 400_001
# The most points (domain samples x theta samples) a mesh may have: about
# 20 times the 2001 x 101 of the finest grid run so far.  `run` with all six
# products peaked at 434 MB RSS at 2000 x 2000 (2-vCPU x86-64 Linux).
MAX_MESH_POINTS = 4_000_000


class CurveSpec(namedtuple("CurveSpec", "name curvature domain theta initial_frame "
                                        "tolerances outputs digest")):
    """A validated spec.  curvature is {"m": ..., "n": ..., "a": ..., "b": ...},
    domain (t0, t1, samples), theta (min, max, samples) and initial_frame 16
    reals, row-major, or None for the standard frame."""

    __slots__ = ()

    def __new__(cls, name: str, curvature: dict, domain: tuple, theta: tuple,
                initial_frame: tuple | None = None, tolerances: dict | None = None,
                outputs: tuple = ("report",), digest: str = ""):
        return tuple.__new__(cls, (name, curvature, domain, theta, initial_frame,
                                   {} if tolerances is None else tolerances, outputs, digest))

    def quartet(self) -> CurvatureQuartet:
        c = self.curvature
        return CurvatureQuartet.from_strings(c["m"], c["n"], c["a"], c["b"])


def _require_keys(obj, allowed, where):
    for key in obj:
        if key not in allowed:
            raise SpecValidationError(where, f"unknown key {key!r}")


def _object(doc, key, allowed):
    """doc[key], which must be an object with no key outside `allowed`."""
    obj = doc[key]
    if not isinstance(obj, dict):
        raise SpecValidationError(key, "must be an object with " + ", ".join(allowed))
    _require_keys(obj, allowed, key)
    return obj


def _is_number(x) -> bool:
    """Whether x is a JSON number: a bool or a string is not."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _range(doc, key, lo, hi) -> tuple:
    """(lo, hi, samples) of the object doc[key], each a JSON number: finite
    lo < hi with a finite hi - lo, and samples an integral value >= 2."""
    obj = _object(doc, key, (lo, hi, "samples"))
    try:
        a, b, n = obj[lo], obj[hi], obj["samples"]
        if not all(map(_is_number, (a, b, n))):
            raise TypeError(f"got {a!r}, {b!r}, {n!r}")
        a, b = float(a), float(b)
    except (KeyError, TypeError, OverflowError) as exc:
        raise SpecValidationError(key, f"needs numeric {lo}, {hi}, samples: {exc}") from exc
    if not math.isfinite(b - a):  # an infinite lo or hi, or a span that overflows
        raise SpecValidationError(key, f"{lo} and {hi} must be finite, and so must {hi} - {lo}")
    if not (isinstance(n, int) or n.is_integer()):
        raise SpecValidationError(f"{key}.samples", f"must be an integer, got {n!r}")
    n = int(n)
    if n < 2:
        raise SpecValidationError(f"{key}.samples", "must be >= 2")
    if not b > a:
        raise SpecValidationError(f"{key}.{hi}", f"must exceed {key}.{lo}")
    return a, b, n


def load_spec(path) -> CurveSpec:
    """Parse and validate a curve-spec JSON document."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise SpecParseError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise SpecParseError(f"{path} is not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecParseError(
            f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise SpecValidationError("document", "top level must be an object")
    _require_keys(doc, ("name", "curvature", "domain", "theta",
                        "initial_frame", "tolerances", "outputs"), "document")
    for key in ("name", "curvature", "domain", "theta"):
        if key not in doc:
            raise SpecValidationError(key, "missing required field")

    name = doc["name"]
    if not isinstance(name, str) or not name:
        raise SpecValidationError("name", "must be a non-empty string")

    curv = _object(doc, "curvature", ("m", "n", "a", "b"))
    for fn in ("m", "n", "a", "b"):
        if fn not in curv:
            raise SpecValidationError(f"curvature.{fn}", "missing")
        try:
            parse_expr(str(curv[fn]))
        except ExprSyntaxError as exc:
            raise SpecValidationError(f"curvature.{fn}", str(exc)) from exc

    t0, t1, nsamp = _range(doc, "domain", "t0", "t1")
    if nsamp > MAX_SAMPLES:
        raise SpecValidationError(
            "domain.samples", f"asks for {nsamp} samples, over the limit of {MAX_SAMPLES}")
    if (count := substep_count((t0, t1, nsamp))[0] * (nsamp - 1)) > MAX_SUBSTEPS:
        raise SpecValidationError(
            "domain", f"asks for {count} substeps, over the limit of {MAX_SUBSTEPS}")
    tmin, tmax, tns = _range(doc, "theta", "min", "max")

    frame = None
    if doc.get("initial_frame") is not None:
        vals = doc["initial_frame"]
        if not isinstance(vals, list) or len(vals) != 16 or not all(map(_is_number, vals)):
            raise SpecValidationError("initial_frame", "must be 16 reals, row-major")
        try:
            frame = tuple(float(v) for v in vals)
            validate_initial_frame(np.reshape(frame, (4, 4)))  # the rule integrate_frame applies
        except (OverflowError, ValueError) as exc:
            raise SpecValidationError("initial_frame", str(exc)) from exc

    # an absent key or null takes the default, and so does an empty outputs list
    tols = {} if doc.get("tolerances") is None else doc["tolerances"]
    if not isinstance(tols, dict):
        raise SpecValidationError("tolerances", "must be an object")
    try:
        DEFAULT.with_overrides(tols)
    except InvalidInputError as exc:
        raise SpecValidationError("tolerances", str(exc)) from exc
    for key, value in tols.items():  # with_overrides converts text and booleans
        if not _is_number(value):
            raise SpecValidationError(
                "tolerances", f"tolerance {key!r} must be a JSON number, got {value!r}")

    outputs = doc.get("outputs")
    if outputs in (None, []):
        outputs = ["report"]
    if not isinstance(outputs, list):
        raise SpecValidationError("outputs", "must be a list")
    for i, product in enumerate(outputs):
        if product not in OUTPUT_PRODUCTS:
            raise SpecValidationError(
                "outputs", f"unknown product {product!r}; known: {OUTPUT_PRODUCTS}")
        if product in outputs[:i]:
            raise SpecValidationError("outputs", f"duplicate product {product!r}")

    return CurveSpec(name=name,
                     curvature={k: str(curv[k]) for k in ("m", "n", "a", "b")},
                     domain=(t0, t1, nsamp), theta=(tmin, tmax, tns),
                     initial_frame=frame, tolerances=dict(tols),
                     outputs=tuple(outputs),
                     digest="sha256:" + hashlib.sha256(raw).hexdigest())


# ---------------------------------------------------------------------------
# Chart projections for meshing


def _chart(points, quadric: Quadric, den) -> np.ndarray:
    """(x1, x2, x3) / den(x0) for each row x of an (n, 4) array on quadric.

    The first row that is non-finite, off the quadric or has a zero
    denominator raises as the one-point chart always has: MinkVec's
    non-finite text, "point ... is not on H3" (or S31), or float division.
    """
    rows = Columns(*points.T)
    with np.errstate(all="ignore"):
        off = np.abs(membership_residual(rows, quadric)) > ON_QUADRIC
        d = den(rows.x0)
    bad = ~np.isfinite(points).all(axis=1) | off | (d == 0.0)
    if bad.any():
        i = int(np.argmax(bad))
        x = MinkVec.from_array(points[i])  # raises on a non-finite row
        if off[i]:
            raise InvalidInputError(f"point {x} is not on {quadric.value}")
        raise ZeroDivisionError("float division by zero")
    return points[:, 1:] / d[:, None]


def _poincare(points) -> np.ndarray:
    return _chart(points, Quadric.H3, lambda x0: 1.0 + x0)


def _hollow_ball(points) -> np.ndarray:
    return _chart(points, Quadric.S31, lambda x0: 1.0 + np.sqrt(1.0 + x0 * x0))


def project_poincare(x: MinkVec):
    """Poincare-ball chart of H3: (x1, x2, x3) / (1 + x0)."""
    return tuple(_poincare(x.as_array()[None])[0].tolist())


def project_hollow_ball(x: MinkVec):
    """Hollow-ball chart of S31: (x1, x2, x3) / (1 + sqrt(1 + x0^2))."""
    return tuple(_hollow_ball(x.as_array()[None])[0].tolist())


_CHARTS = {project_poincare: _poincare, project_hollow_ball: _hollow_ball}


def export_obj(grids, projection, path) -> None:
    """Write a row-major quad mesh of the projected grid points.

    grids is one array of shape (rows, cols, 4) or a sequence of them, one
    patch each (a surface defined on several intervals); the faces of a
    patch index only its own vertices.  projection is project_poincare or
    project_hollow_ball; each patch is charted as one array, and every
    patch is charted before the file is opened, so a bad vertex raises and
    leaves no file.  The text is then written one grid row at a time, so
    the memory it holds is one row, not the whole mesh.  Byte output is
    deterministic for identical input.
    """
    chart = _CHARTS.get(projection)
    if chart is None:
        raise InvalidInputError(f"unknown projection {projection!r}")
    if isinstance(grids, np.ndarray):
        grids = [grids]
    patches = [chart(grid.reshape(-1, 4)).reshape(*grid.shape[:2], 3)
               for grid in (np.asarray(g, dtype=float) for g in grids) if grid.size]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("# hypframe surface mesh\n")
        offset = 0
        for points in patches:
            rows, cols = points.shape[:2]
            fh.write(f"# grid {rows} x {cols}\n")
            # %r of Python floats is their repr, as the one-point writer prints them
            vertices = "v %r %r %r\n" * cols
            for row in points:
                fh.write(vertices % tuple(row.ravel().tolist()))
            faces = "f %d %d %d %d\n" * (cols - 1)
            quads = np.arange(offset + 1, offset + cols)[:, None] + [0, 1, cols + 1, cols]
            for i in range(rows - 1):
                fh.write(faces % tuple((quads + i * cols).ravel().tolist()))
            offset += rows * cols


def _take(texts, codes) -> list:
    """texts[code] for each code of the array codes (a boolean is 0 or 1)."""
    return [texts[code] for code in codes.tolist()]


_LOCI_KEYS = ("surface", "t", "theta", "lambda", "sigma_F", "type", "nondegenerate",
              "whole_fiber")


def _loci_columns(loci, quote) -> list:
    """The columns of a loci table as lists, in _LOCI_KEYS order: the
    surface names and type values as quote(text), the floats as Python
    floats, and nondegenerate and whole_fiber as "false" or "true"."""
    return [_take([quote(name) for name in _loci.LOCI_SURFACES], loci.surface),
            *(c.tolist() for c in (loci.t, loci.theta, loci.lam, loci.sigma_f)),
            _take([quote(ty.value) for ty in _loci.TYPES], loci.type),
            *(_take(("false", "true"), c) for c in (loci.nondegenerate, loci.whole_fiber))]


def _write_csv(path, header, template, rows) -> None:
    """Write csv.writer's bytes: the header, then the rows, each with as many
    fields as the header, through one %-template of a row.  Text fields are
    identifiers that need no quoting, and %r of a Python float is its repr."""
    values = tuple(chain.from_iterable(rows))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(header + "\r\n")
        fh.write((template + "\r\n") * (len(values) // (header.count(",") + 1)) % values)


def export_loci_csv(loci, path) -> None:
    """Write the singular points of a loci table in its row order."""
    _write_csv(path, ",".join(_LOCI_KEYS[:7]), "%s,%r,%r,%r,%r,%s,%s",
               zip(*_loci_columns(loci, str)[:7]))


# ---------------------------------------------------------------------------
# Full pipeline


# the golden-ratio conjugate, which spreads the fiber angles of the samples
_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def duality_summary(model: FramedCurveModel, runs) -> dict:
    """Isotropy residuals and front verdict of each dual pair, sampled once
    at each grid index i of the pair's defined runs (`runs`, from
    defined_runs): at the stored frame's t = model.ts[i] and theta = lo +
    (hi - lo) * (((i + 1/2) _PHI) mod 1), (lo, hi) being the pair's theta
    window."""
    out = {}
    for pair in _duality.PAIR_NAMES:
        index = list(chain.from_iterable(runs[_duality.PAIR_SURFACES[pair][1]]))
        if not index:
            out[pair] = {"status": "skipped", "reason": "surface not defined"}
            continue
        lo, hi = _duality.pair_theta_range(pair)
        samples = _duality.pair_sample(model, pair, model.ts[index],
                                       [lo + (hi - lo) * ((i + 0.5) * _PHI % 1.0) for i in index])
        # the pair's rule is the one that defined the runs, so no row is skipped
        assert len(samples.f) == len(index)
        worst = float(np.abs(_duality.isotropy_residuals(samples)).max())
        verdict = _duality.front_verdict(samples, model.tol)
        out[pair] = {"status": "checked", "samples": len(samples.f),
                     "max_residual": worst, "verdict": verdict.value,
                     "pass": worst <= model.tol.dual}
    return out


def classified_loci(model, runs) -> _loci.LociTable:
    """The classified singular points of both sides' focal surfaces over
    their defined runs (from defined_runs) and of the evolutes' duals at
    their fiber zeros: one loci table, in (surface, t, theta) order."""
    ts = model.ts
    tables = []
    # each side's public bindings, looked up per call so that a rebound
    # module attribute (a profiler's wrapper) is the one called
    for side, locus, classify, classify_dual in (
            (_focal.H, _focal.singular_locus_h, _focal.classify_h, _evolute.classify_dual_h),
            (_focal.D, _focal.singular_locus_d, _focal.classify_d, _evolute.classify_dual_d)):
        for run in runs[side.focal]:
            tables.append(locus(model, ts[run.start:run.stop]))
            classify(model, tables[-1])
        index = list(chain.from_iterable(runs[side.dual]))
        if index:  # else no epsilon program to compile
            tables.append(classify_dual(model, ts[index][:, None], side.dual_zeros))
    # each table is of one surface, with its rows in (t, theta) order, and a
    # surface's tables are in t order: a stable sort by surface orders the rows
    return _loci.LociTable.join(sorted((tab for tab in tables if len(tab)),
                                        key=lambda tab: tab.surface[0]))


def _leg_dict(leg):
    if leg.status == "skipped":
        return {"status": leg.status, "reason": leg.reason}
    return {"status": leg.status, "points": leg.points,
            "max_image_distance": leg.max_image_distance, "agreements": dict(leg.agreements),
            "events": leg.events, "failures": leg.failures}


def _slug(name: str) -> str:
    return "".join(c if (c.isalnum() or c in "-_") else "_" for c in name)


def _encoded(values) -> list:
    """The JSON text of each float in values, as json.dumps writes it: one
    json.dumps of their list, split on ", " (which no number contains)."""
    return json.dumps(values)[1:-1].split(", ")


def _loci_json(loci, indent) -> str:
    """The JSON text of a loci table as a list of one record per row,
    through one %-template of a record."""
    if not len(loci):
        return "[]"
    columns = _loci_columns(loci, json.dumps)
    columns[1:5] = map(_encoded, columns[1:5])
    inner = indent + "  "
    record = "{" + ",".join(f"{inner}  {json.dumps(k)}: %s" for k in _LOCI_KEYS) + inner + "}"
    values = tuple(chain.from_iterable(zip(*columns)))
    return "[" + inner + ("," + inner).join([record] * len(loci)) % values + indent + "]"


class RunReport(NamedTuple):
    """The report data of the stages a run_pipeline call ran, and the values
    beyond it that a renderer reads: the integrated model and the evolute
    rows (None where their stage did not run)."""

    data: dict
    model: FramedCurveModel | None = None
    evolute_rows: list | None = None

    def to_json(self) -> str:
        """json.dumps(self.data, indent=2), a loci table under "loci" written
        as its list of records.  json.dumps takes its pure-Python encoder
        whenever indent is set, so the table, which grows with the grid, is
        written by its template over its null, in the one top-level "loci"
        line: JSON escapes newlines in strings, and deeper keys indent further."""
        loci = self.data.get("loci")
        if not isinstance(loci, _loci.LociTable):
            return json.dumps(self.data, indent=2)
        head, tail = json.dumps(dict(self.data, loci=None), indent=2).split('\n  "loci": null')
        return "".join((head, '\n  "loci": ', _loci_json(loci, "\n  "), tail))

    def write(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(self.to_json().encode("utf-8"))
            fh.write(b"\n")


# ---------------------------------------------------------------------------
# Stages


def _report_data(v) -> dict:
    """The report data of the values of the stages run, in v."""
    spec, model, runs = v["spec"], v.get("integrate"), v.get("definedness")
    data = {
        "tool": {"name": "hypframe", "version": __version__,
                 "propagation_backend": propagation_backend()},
        "spec": {"name": spec.name, "digest": spec.digest,
                 "curvature": spec.curvature,
                 "domain": list(spec.domain), "theta": list(spec.theta)},
    }
    if model is not None:
        data["integration"] = {
            "samples": len(model.ts),
            "substep": model.step,
            "corrections": model.corrections,
            "max_drift_raw": model.max_drift_raw,
            "max_drift": model.max_drift,
            "max_drift_t": model.max_drift_t,
        }
    if runs is not None:
        data["surfaces"] = {name: {"defined_intervals": [
            [float(model.ts[r[0]]), float(model.ts[r[-1]])] for r in rs]}
            for name, rs in runs.items()}
    if "loci" in v:
        data["loci"] = v["loci"]
    if "correspondence" in v:
        data["correspondence"] = {name: _leg_dict(leg)
                                  for name, leg in v["correspondence"]._asdict().items()}
    if "duality" in v:
        data["duality"] = v["duality"]
    if "export" in v:
        data["outputs"] = v["export"]
    return data


# mesh product -> (surface, chart of its quadric)
_MESHES = {"focal_h_obj": ("focal_h", project_poincare),
           "focal_d_obj": ("focal_d", project_hollow_ball),
           "dual_eh_obj": ("dual_eh", project_hollow_ball),
           "dual_ed_obj": ("dual_ed", project_hollow_ball)}
# product -> the stage whose value it writes, beyond export's own inputs;
# evolute_csv is the evolute subcommand's, not a spec product
_READS = {"loci_csv": "loci", "evolute_csv": "evolute_rows"}


def _export(v) -> list:
    """Write the spec's output products into out_dir, nothing without one,
    in the order of spec.outputs and a mesh only where its surface is
    defined; the file names, the report's last (run_pipeline writes it)."""
    spec, out_dir, model, runs = v["spec"], v["out_dir"], v["integrate"], v["definedness"]
    if out_dir is None:
        return []
    os.makedirs(out_dir, exist_ok=True)
    base = _slug(spec.name)
    written = []
    for product in spec.outputs:
        if product == "loci_csv":
            written.append(base + "_loci.csv")
            export_loci_csv(v["loci"], os.path.join(out_dir, written[-1]))
        elif product == "evolute_csv":
            written.append(base + "_evolute.csv")
            _write_csv(os.path.join(out_dir, written[-1]),
                       "t,side,epsilon,epsilon_prime,point_type", "%r,%s,%r,%r,%s",
                       v["evolute_rows"])
        elif product in _MESHES and runs[_MESHES[product][0]]:
            surface, projection = _MESHES[product]
            thetas = np.linspace(*spec.theta)
            grids = [_focal.surface_grid(model, surface, model.ts[run.start:run.stop], thetas)
                     for run in runs[surface]]
            written.append(f"{base}_{surface}.obj")
            export_obj(grids, projection, os.path.join(out_dir, written[-1]))
    if "report" in spec.outputs:
        written.append(base + "_report.json")
    return written


# (name, run(values), the values it reads), in call order.  run reads the
# run's spec, tol and out_dir, or an earlier stage's value, kept under that
# stage's name.  integrate_frame and the engine's functions are looked up at
# call time, so that a rebound binding (a profiler's wrapper) is called.
_ON_RUNS = ("integrate", "definedness")
STAGES = (
    ("integrate", lambda v: integrate_frame(v["spec"].quartet(), v["spec"].domain,
                                            initial=v["spec"].initial_frame, tol=v["tol"]),
     ("spec", "tol")),
    ("definedness", lambda v: _focal.defined_runs(v["integrate"]), ("integrate",)),
    ("loci", lambda v: classified_loci(v["integrate"], v["definedness"]), _ON_RUNS),
    ("evolute_rows", lambda v: _evolute.evolute_rows(v["integrate"], v["definedness"]), _ON_RUNS),
    ("correspondence",
     lambda v: _evolute.correspondence_check(v["integrate"], v["definedness"]), _ON_RUNS),
    ("duality", lambda v: duality_summary(v["integrate"], v["definedness"]), _ON_RUNS),
    ("export", _export, ("spec", "out_dir", *_ON_RUNS)),
)
# `hypframe run`'s stages: all but the evolute rows
RUN_STAGES = ("integrate", "definedness", "loci", "correspondence", "duality", "export")


def run_pipeline(spec: CurveSpec, out_dir=None, tol: Tolerances | None = None,
                 stages=RUN_STAGES) -> RunReport:
    """Run the named stages and the stages they read, in STAGES order (export
    also reads the stages whose values its products write), then write the
    report if export ran and the spec asks for it: the report data of the
    stages run, with the model and the evolute rows.  A mesh to export over
    MAX_MESH_POINTS is a spec error, raised before any stage runs."""
    if tol is None:
        tol = DEFAULT.with_overrides(spec.tolerances)
    wanted = set(stages)
    if "export" in wanted:
        wanted.update(_READS[p] for p in spec.outputs if p in _READS)
        if out_dir is not None and _MESHES.keys() & set(spec.outputs) and (
                points := spec.domain[2] * spec.theta[2]) > MAX_MESH_POINTS:
            raise SpecValidationError("theta", f"asks for a mesh of {points} points, over "
                                               f"the limit of {MAX_MESH_POINTS}")
    for name, _, inputs in reversed(STAGES):
        if name in wanted:
            wanted.update(inputs)
    v = {"spec": spec, "tol": tol, "out_dir": out_dir}
    for name, run, _ in STAGES:
        if name in wanted:
            v[name] = run(v)
    report = RunReport(_report_data(v), v.get("integrate"), v.get("evolute_rows"))
    if out_dir is not None and "report" in spec.outputs and "export" in v:
        report.write(os.path.join(out_dir, v["export"][-1]))
    return report
