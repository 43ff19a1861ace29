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
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from . import duality as _duality
from . import evolute as _evolute
from . import focal as _focal
from .errors import (FrameDegenerateError, HypframeError, InvalidInputError,
                     NumericError, SurfaceUndefinedError)
from .framedcurve import (CurvatureQuartet, FrameSample, FramedCurveModel,
                          integrate_frame, propagation_backend)
from .minkowski import MinkVec, Quadric, membership_residual
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


# seed of the duality sampling: a run samples the same points every time
DUALITY_SEED = 20240229

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


def _require_keys(obj, allowed, where):
    for key in obj:
        if key not in allowed:
            raise SpecValidationError(where, f"unknown key {key!r}")


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

    curv = doc["curvature"]
    if not isinstance(curv, dict):
        raise SpecValidationError("curvature", "must be an object with m, n, a, b")
    _require_keys(curv, ("m", "n", "a", "b"), "curvature")
    for fn in ("m", "n", "a", "b"):
        if fn not in curv:
            raise SpecValidationError(f"curvature.{fn}", "missing")
        try:
            parse_expr(str(curv[fn]))
        except ExprSyntaxError as exc:
            raise SpecValidationError(f"curvature.{fn}", str(exc)) from exc

    dom = doc["domain"]
    _require_keys(dom, ("t0", "t1", "samples"), "domain")
    try:
        t0, t1, nsamp = float(dom["t0"]), float(dom["t1"]), int(dom["samples"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecValidationError("domain", f"needs numeric t0, t1, samples: {exc}")
    if nsamp < 2:
        raise SpecValidationError("domain.samples", "must be >= 2")
    if not t1 > t0:
        raise SpecValidationError("domain.t1", "must exceed domain.t0")

    th = doc["theta"]
    _require_keys(th, ("min", "max", "samples"), "theta")
    try:
        tmin, tmax, tns = float(th["min"]), float(th["max"]), int(th["samples"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecValidationError("theta", f"needs numeric min, max, samples: {exc}")
    if tns < 2:
        raise SpecValidationError("theta.samples", "must be >= 2")
    if not tmax > tmin:
        raise SpecValidationError("theta.max", "must exceed theta.min")

    frame = None
    if doc.get("initial_frame") is not None:
        vals = doc["initial_frame"]
        if not isinstance(vals, list) or len(vals) != 16:
            raise SpecValidationError("initial_frame", "must be 16 reals, row-major")
        frame = tuple(float(v) for v in vals)
        sample = FrameSample.from_matrix(t0, np.array(frame).reshape(4, 4))
        if sample.residual() > 1e-10:
            raise SpecValidationError(
                "initial_frame",
                f"frame residual {sample.residual():.3e} exceeds 1e-10")

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


def project_poincare(x: MinkVec):
    """Poincare-ball chart of H3: (x1, x2, x3) / (1 + x0)."""
    if abs(membership_residual(x, Quadric.H3)) > 1e-6:
        raise InvalidInputError(f"point {x} is not on H3")
    d = 1.0 + x.x0
    return (x.x1 / d, x.x2 / d, x.x3 / d)


def project_hollow_ball(x: MinkVec):
    """Hollow-ball chart of S31: (x1, x2, x3) / (1 + sqrt(1 + x0^2))."""
    if abs(membership_residual(x, Quadric.S31)) > 1e-6:
        raise InvalidInputError(f"point {x} is not on S31")
    d = 1.0 + math.sqrt(1.0 + x.x0 * x.x0)
    return (x.x1 / d, x.x2 / d, x.x3 / d)


def _fmt(v) -> str:
    """Shortest round-trip decimal of a float."""
    return repr(float(v))


def export_obj(grids, projection, path) -> None:
    """Write a row-major quad mesh of the projected grid points.

    grids is one array of shape (rows, cols, 4) or a sequence of them, one
    patch each (a surface defined on several intervals); the faces of a
    patch index only its own vertices.  projection maps a MinkVec to 3
    chart coordinates.  Byte output is deterministic for identical input.
    """
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
        for i in range(rows):
            for j in range(cols):
                y = projection(MinkVec.from_array(grid[i, j]))
                lines.append(f"v {_fmt(y[0])} {_fmt(y[1])} {_fmt(y[2])}")
        for i in range(rows - 1):
            for j in range(cols - 1):
                a = offset + i * cols + j + 1
                lines.append(f"f {a} {a + 1} {a + cols + 1} {a + cols}")
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


def _intervals(ts, mask):
    """Contiguous [t_lo, t_hi] runs where mask holds."""
    out = []
    start = None
    for i, ok in enumerate(mask):
        if ok and start is None:
            start = i
        elif not ok and start is not None:
            out.append([float(ts[start]), float(ts[i - 1])])
            start = None
    if start is not None:
        out.append([float(ts[start]), float(ts[-1])])
    return out


def _definedness(model: FramedCurveModel):
    """Per-surface defined intervals scanned on the sample grid."""
    ts = model.ts
    disc_h = np.empty(len(ts))
    sigma = np.empty(len(ts))
    degenerate = np.zeros(len(ts), dtype=bool)
    for i, t in enumerate(ts):
        try:
            data = model.frenet_data_at(float(t))
            disc_h[i] = data.disc_h
            sigma[i] = data.sigma_f
        except FrameDegenerateError:
            degenerate[i] = True
            disc_h[i] = np.nan
            sigma[i] = np.nan
    tolz = model.tol.zero
    masks = {}
    for side in (_focal.H, _focal.D):
        masks[side.focal] = ~degenerate & (side.kappa * disc_h > tolz)
        masks[side.evolute] = masks[side.focal] & (side.kappa * sigma > tolz)
        masks[side.dual] = masks[side.evolute]
    order = ("focal_h", "focal_d", "evolute_h", "evolute_d", "dual_eh", "dual_ed")
    return {name: _intervals(ts, masks[name]) for name in order}, masks


# mesh product -> (surface, chart of its quadric)
_MESHES = {"focal_h_obj": ("focal_h", project_poincare),
           "focal_d_obj": ("focal_d", project_hollow_ball),
           "dual_eh_obj": ("dual_eh", project_hollow_ball),
           "dual_ed_obj": ("dual_ed", project_hollow_ball)}


def _theta_grid(spec: CurveSpec):
    tmin, tmax, n = spec.theta
    return np.linspace(tmin, tmax, n)


def duality_summary(model: FramedCurveModel, intervals=None, per_pair=200) -> dict:
    """Isotropy residuals and front verdict of each dual pair at per_pair
    seeded random points inside the pair's defined runs (`intervals`, from
    the definedness scan, which runs here when they are not given)."""
    if intervals is None:
        intervals = _definedness(model)[0]
    rng = np.random.default_rng(DUALITY_SEED)
    out = {}
    for pair in _duality.PAIR_NAMES:
        runs = intervals[_duality.PAIR_SURFACES[pair][1]]
        total = sum(hi - lo for lo, hi in runs)
        if total <= 0.0:
            out[pair] = {"status": "skipped", "reason": "surface not defined"}
            continue
        th_lo, th_hi = _duality.pair_theta_range(pair)
        samples = []
        worst = 0.0
        for _ in range(per_pair):
            # t uniform on the union of the runs
            x = total * rng.random()
            for lo, hi in runs:
                if x <= hi - lo:
                    break
                x -= hi - lo
            t = lo + x
            th = th_lo + (th_hi - th_lo) * rng.random()
            try:
                s = _duality.pair_sample(model, pair, t, th)
            except (SurfaceUndefinedError, FrameDegenerateError):
                continue
            samples.append(s)
            res = _duality.isotropy_residuals(s)
            worst = max(worst, max(abs(r) for r in res))
        if not samples:
            out[pair] = {"status": "skipped", "reason": "no evaluable samples"}
            continue
        verdict = _duality.front_verdict(samples, model.tol)
        out[pair] = {"status": "checked", "samples": len(samples),
                     "max_residual": worst, "verdict": verdict.value,
                     "pass": worst <= model.tol.dual}
    return out


def _classified_loci(model, masks):
    ts = model.ts
    records = []
    # each side's public bindings, looked up per call so that a rebound
    # module attribute (a profiler's wrapper) is the one called
    for side, locus, classify, classify_dual in (
            (_focal.H, _focal.singular_locus_h, _focal.classify_h, _evolute.classify_dual_h),
            (_focal.D, _focal.singular_locus_d, _focal.classify_d, _evolute.classify_dual_d)):
        if masks[side.focal].any():
            recs = locus(model, ts[masks[side.focal]])
            for r in recs:
                classify(model, r)
            records.extend(recs)
        for t in ts[masks[side.dual]]:
            records.extend(classify_dual(model, float(t), theta) for theta in side.dual_zeros)
    return records


def _leg_dict(leg):
    out = {"status": leg.status}
    if leg.status == "skipped":
        out["reason"] = leg.reason
        return out
    out["points"] = leg.points
    out["max_image_distance"] = leg.max_image_distance
    out["agreements"] = dict(leg.agreements)
    out["events"] = leg.events
    out["failures"] = leg.failures
    return out


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
    quartet = spec.quartet()
    initial = None
    if spec.initial_frame is not None:
        initial = FrameSample.from_matrix(
            spec.domain[0], np.array(spec.initial_frame).reshape(4, 4))
    model = integrate_frame(quartet, spec.domain, initial=initial, tol=tol)

    intervals, masks = _definedness(model)
    records = _classified_loci(model, masks)
    corr = _evolute.correspondence_check(model)
    dual = duality_summary(model, intervals)

    written = []
    if out_dir is not None:
        import os

        os.makedirs(out_dir, exist_ok=True)
        base = os.path.join(out_dir, _slug(spec.name))
        thetas = _theta_grid(spec)
        for product in spec.outputs:
            if product == "loci_csv":
                path = base + "_loci.csv"
                export_loci_csv(records, path)
                written.append(os.path.basename(path))
            elif product in _MESHES:
                surface, projection = _MESHES[product]
                runs = intervals[surface]
                if not runs:
                    continue
                grids = [_focal.surface_grid(
                    model, surface, model.ts[(model.ts >= lo) & (model.ts <= hi)], thetas)
                    for lo, hi in runs]
                path = base + f"_{surface}.obj"
                export_obj(grids, projection, path)
                written.append(os.path.basename(path))
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
        "surfaces": {name: {"defined_intervals": runs}
                     for name, runs in intervals.items()},
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
        import os

        report.write(os.path.join(out_dir, _slug(spec.name) + "_report.json"))
    return report
