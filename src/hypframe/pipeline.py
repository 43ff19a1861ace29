"""End-to-end pipelines: curve-spec ingestion, full runs, and exports.

A curve spec is a UTF-8 JSON document naming the four curvature
expressions, the parameter domain, the fiber window, and the requested
output products.  Runs are deterministic: the same spec produces
byte-identical OBJ, CSV and report files (reports carry no timestamp).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from . import __version__
from . import duality as _duality
from . import evolute as _evolute
from . import focal as _focal
from .errors import HypframeError, InvalidInputError
from .framedcurve import (CurvatureQuartet, FrameSample, FramedCurveModel,
                          integrate_frame, propagation_backend,
                          validate_initial_frame)
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


@dataclass(frozen=True)
class CurveSpec:
    name: str
    curvature: dict            # {"m": ..., "n": ..., "a": ..., "b": ...}
    domain: tuple              # (t0, t1, samples)
    theta: tuple               # (min, max, samples)
    initial_frame: tuple | None = None
    tolerances: dict = field(default_factory=dict)
    outputs: tuple = ("report",)
    digest: str = ""

    def quartet(self) -> CurvatureQuartet:
        c = self.curvature
        return CurvatureQuartet.from_strings(c["m"], c["n"], c["a"], c["b"])

    def initial_sample(self) -> FrameSample | None:
        """The initial frame at t0; None for the standard frame."""
        if self.initial_frame is not None:
            return FrameSample.from_matrix(self.domain[0],
                                           np.array(self.initial_frame).reshape(4, 4))


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


def _range(doc, key, lo, hi) -> tuple:
    """(lo, hi, samples) of the object doc[key]: finite lo < hi, samples >= 2."""
    obj = _object(doc, key, (lo, hi, "samples"))
    try:
        a, b, n = float(obj[lo]), float(obj[hi]), int(obj["samples"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SpecValidationError(key, f"needs numeric {lo}, {hi}, samples: {exc}") from exc
    if not (math.isfinite(a) and math.isfinite(b)):
        raise SpecValidationError(key, f"{lo} and {hi} must be finite")
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
    tmin, tmax, tns = _range(doc, "theta", "min", "max")

    frame = None
    if doc.get("initial_frame") is not None:
        vals = doc["initial_frame"]
        if not isinstance(vals, list) or len(vals) != 16:
            raise SpecValidationError("initial_frame", "must be 16 reals, row-major")
        try:
            frame = tuple(float(v) for v in vals)
            # the rule integrate_frame applies; from_matrix rejects non-finite entries
            validate_initial_frame(FrameSample.from_matrix(t0, np.array(frame).reshape(4, 4)))
        except (TypeError, ValueError) as exc:
            raise SpecValidationError("initial_frame", str(exc)) from exc

    tols = doc.get("tolerances") or {}
    if not isinstance(tols, dict):
        raise SpecValidationError("tolerances", "must be an object")
    try:
        DEFAULT.with_overrides(tols)
    except InvalidInputError as exc:
        raise SpecValidationError("tolerances", str(exc)) from exc

    outputs = doc.get("outputs") or ["report"]
    if not isinstance(outputs, list):
        raise SpecValidationError("outputs", "must be a list")
    for product in outputs:
        if product not in OUTPUT_PRODUCTS:
            raise SpecValidationError(
                "outputs", f"unknown product {product!r}; known: {OUTPUT_PRODUCTS}")

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


def _fmt(v) -> str:
    """Shortest round-trip decimal of a float."""
    return repr(float(v))


def export_obj(grids, projection, path) -> None:
    """Write a row-major quad mesh of the projected grid points.

    grids is one array of shape (rows, cols, 4) or a sequence of them, one
    patch each (a surface defined on several intervals); the faces of a
    patch index only its own vertices.  projection is project_poincare or
    project_hollow_ball; each patch is charted as one array.  Byte output is
    deterministic for identical input.
    """
    chart = _CHARTS.get(projection)
    if chart is None:
        raise InvalidInputError(f"unknown projection {projection!r}")
    if isinstance(grids, np.ndarray):
        grids = [grids]
    lines = ["# hypframe surface mesh"]
    offset = 0
    for grid in grids:
        grid = np.asarray(grid, dtype=float)
        if not grid.size:
            continue
        rows, cols = grid.shape[0], grid.shape[1]
        lines.append(f"# grid {rows} x {cols}")
        # repr of Python floats, one grid row at a time so the float lists stay short
        lines.extend(f"v {y0!r} {y1!r} {y2!r}"
                     for row in chart(grid.reshape(-1, 4)).reshape(rows, cols, 3)
                     for y0, y1, y2 in row.tolist())
        lines.extend(f"f {a} {a + 1} {a + cols + 1} {a + cols}"
                     for i in range(offset + 1, offset + (rows - 1) * cols + 1, cols)
                     for a in range(i, i + cols - 1))
        offset += rows * cols
    with open(path, "wb") as fh:
        fh.write(("\n".join(lines) + "\n").encode("utf-8"))


def export_loci_csv(records, path) -> None:
    """Write singular-point records, ordered by (surface, t, theta)."""
    rows = sorted(records, key=lambda r: (r.surface, r.param.t, r.param.theta))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["surface", "t", "theta", "lambda", "sigma_F",
                         "type", "nondegenerate"])
        for r in rows:
            writer.writerow([r.surface, _fmt(r.param.t), _fmt(r.param.theta),
                             _fmt(r.lam), _fmt(r.sigma_f), r.type.value,
                             "true" if r.nondegenerate else "false"])


# ---------------------------------------------------------------------------
# Full pipeline


def _spans(ts, runs) -> list:
    """The [t_lo, t_hi] span of each index run of ts."""
    return [[float(ts[run[0]]), float(ts[run[-1]])] for run in runs]


# mesh product -> (surface, chart of its quadric)
_MESHES = {"focal_h_obj": ("focal_h", project_poincare),
           "focal_d_obj": ("focal_d", project_hollow_ball),
           "dual_eh_obj": ("dual_eh", project_hollow_ball),
           "dual_ed_obj": ("dual_ed", project_hollow_ball)}


def write_mesh(model: FramedCurveModel, runs, spec: CurveSpec, product, out_dir) -> list:
    """Write the mesh product (a key of _MESHES) of the spec's surface over
    its defined runs (from defined_runs) and the spec's theta grid to
    out_dir; the list of the file names written, empty where the surface
    is defined nowhere."""
    surface, projection = _MESHES[product]
    if not runs[surface]:
        return []
    thetas = np.linspace(*spec.theta)
    grids = [_focal.surface_grid(model, surface, model.ts[run.start:run.stop], thetas)
             for run in runs[surface]]
    name = f"{_slug(spec.name)}_{surface}.obj"
    export_obj(grids, projection, os.path.join(out_dir, name))
    return [name]


# the golden-ratio conjugate, which spreads the fiber angles of the samples
_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def duality_summary(model: FramedCurveModel, runs=None) -> dict:
    """Isotropy residuals and front verdict of each dual pair, sampled once
    at each grid index i of the pair's defined runs (`runs`, from the
    definedness scan, which runs here when they are not given): at the
    stored frame's t = model.ts[i] and theta = lo + (hi - lo) * (((i + 1/2)
    _PHI) mod 1), (lo, hi) being the pair's theta window."""
    if runs is None:
        runs = _focal.defined_runs(model)
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


def _classified_loci(model, runs):
    ts = model.ts
    records = []
    # each side's public bindings, looked up per call so that a rebound
    # module attribute (a profiler's wrapper) is the one called
    for side, locus, classify, classify_dual in (
            (_focal.H, _focal.singular_locus_h, _focal.classify_h, _evolute.classify_dual_h),
            (_focal.D, _focal.singular_locus_d, _focal.classify_d, _evolute.classify_dual_d)):
        for run in runs[side.focal]:
            recs = locus(model, ts[run.start:run.stop])
            classify(model, recs)
            records.extend(recs)
        index, zeros = list(chain.from_iterable(runs[side.dual])), side.dual_zeros
        if index:  # else no epsilon program to compile
            records.extend(classify_dual(model, np.repeat(ts[index], len(zeros)),
                                         np.tile(zeros, len(index))))
    return records


def _leg_dict(leg):
    if leg.status == "skipped":
        return {"status": leg.status, "reason": leg.reason}
    return {"status": leg.status, "points": leg.points,
            "max_image_distance": leg.max_image_distance, "agreements": dict(leg.agreements),
            "events": leg.events, "failures": leg.failures}


def _slug(name: str) -> str:
    return "".join(c if (c.isalnum() or c in "-_") else "_" for c in name)


@dataclass
class RunReport:
    data: dict

    def to_json(self) -> str:
        return json.dumps(self.data, indent=2)

    def write(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(self.to_json().encode("utf-8") + b"\n")


def run_pipeline(spec: CurveSpec, out_dir=None, tol: Tolerances | None = None) -> RunReport:
    """Integrate, classify, verify, and export everything the spec requests."""
    if tol is None:
        tol = DEFAULT.with_overrides(spec.tolerances)
    model = integrate_frame(spec.quartet(), spec.domain, initial=spec.initial_sample(), tol=tol)

    runs = _focal.defined_runs(model)
    records = _classified_loci(model, runs)
    corr = _evolute.correspondence_check(model, runs)
    dual = duality_summary(model, runs)

    written = []
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        base = os.path.join(out_dir, _slug(spec.name))
        for product in spec.outputs:
            if product == "loci_csv":
                path = base + "_loci.csv"
                export_loci_csv(records, path)
                written.append(os.path.basename(path))
            elif product in _MESHES:
                written += write_mesh(model, runs, spec, product, out_dir)
        if "report" in spec.outputs:
            written.append(_slug(spec.name) + "_report.json")

    report_data = {
        "tool": {"name": "hypframe", "version": __version__,
                 "propagation_backend": propagation_backend()},
        "spec": {"name": spec.name, "digest": spec.digest,
                 "curvature": spec.curvature,
                 "domain": list(spec.domain), "theta": list(spec.theta)},
        "integration": {
            "samples": len(model.ts),
            "substep": model.step,
            "corrections": model.corrections,
            "max_drift_raw": model.max_drift_raw,
            "max_drift": model.max_drift,
            "max_drift_t": model.max_drift_t,
        },
        "surfaces": {name: {"defined_intervals": _spans(model.ts, rs)}
                     for name, rs in runs.items()},
        "loci": [{
            "surface": r.surface, "t": r.param.t, "theta": r.param.theta,
            "lambda": r.lam, "sigma_F": r.sigma_f, "type": r.type.value,
            "nondegenerate": r.nondegenerate, "whole_fiber": r.whole_fiber,
        } for r in sorted(records, key=lambda r: (r.surface, r.param.t, r.param.theta))],
        "correspondence": {"hyperbolic": _leg_dict(corr.hyperbolic),
                           "desitter": _leg_dict(corr.desitter)},
        "duality": dual,
        "outputs": written,
    }
    report = RunReport(report_data)
    if out_dir is not None and "report" in spec.outputs:
        report.write(os.path.join(out_dir, _slug(spec.name) + "_report.json"))
    return report
