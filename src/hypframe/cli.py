"""Command-line interface.

Subcommands: integrate, focal, evolute, dual, classify, verify, run.
Every subcommand reads a curve-spec JSON via --spec; --out selects the
output directory and --tol name=value overrides a named tolerance.

Exit codes: 0 success, 1 spec validation error, 2 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from itertools import chain

import numpy as np

from . import __version__
from . import evolute as _evolute
from . import focal as _focal
from . import pipeline as _pipe
from .errors import InvalidInputError, NumericError
from .framedcurve import FrameSample, integrate_frame, propagation_backend
from .tolerances import DEFAULT


def _parse_tols(pairs):
    out = {}
    for item in pairs or ():
        if "=" not in item:
            raise _pipe.SpecValidationError("--tol", f"expected name=value, got {item!r}")
        name, value = item.split("=", 1)
        out[name] = value  # Tolerances.with_overrides checks the value
    return out


def _load(args):
    spec = _pipe.load_spec(args.spec)
    tol = DEFAULT.with_overrides({**spec.tolerances, **_parse_tols(args.tol)})
    return spec, tol


def _model(spec, tol):
    initial = None
    if spec.initial_frame is not None:
        initial = FrameSample.from_matrix(
            spec.domain[0], np.array(spec.initial_frame).reshape(4, 4))
    return integrate_frame(spec.quartet(), spec.domain, initial=initial, tol=tol)


def cmd_integrate(args) -> int:
    spec, tol = _load(args)
    model = _model(spec, tol)
    print(f"integrated {spec.name!r}: {len(model.ts)} samples on "
          f"[{model.t0}, {model.t1}], substep {model.step}")
    print(f"backend {propagation_backend()}, corrections {model.corrections}, "
          f"max drift {model.max_drift:.3e} (raw {model.max_drift_raw:.3e}) "
          f"near t={model.max_drift_t}")
    worst = max(s.residual() for s in model.samples())
    print(f"worst sample residual {worst:.3e}")
    return 0


def cmd_focal(args) -> int:
    spec, tol = _load(args)
    model = _model(spec, tol)
    runs = _focal.defined_runs(model)
    written = []
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        for product in ("focal_h_obj", "focal_d_obj"):
            written += _pipe.write_mesh(model, runs, spec, product, args.out)
    for name in ("focal_h", "focal_d"):
        print(f"{name}: defined on {_pipe._spans(model.ts, runs[name]) or 'nowhere'}")
    if args.out:
        print("wrote:", ", ".join(written) or "(nothing)")
    return 0


def cmd_evolute(args) -> int:
    spec, tol = _load(args)
    model = _model(spec, tol)
    runs = _focal.defined_runs(model)
    defined = {side: set(chain.from_iterable(runs["evolute_" + side])) for side in "hd"}
    rows = []
    for i, t in enumerate(model.ts):
        for side, fn in (("h", _evolute.evolute_h), ("d", _evolute.evolute_d)):
            if i in defined[side]:
                es = fn(model, float(t))
                rows.append((float(t), side, es.epsilon, es.epsilon_prime,
                             es.point_type.value))
    counts = {}
    for row in rows:
        counts[(row[1], row[4])] = counts.get((row[1], row[4]), 0) + 1
    for (side, ptype), k in sorted(counts.items()):
        print(f"evolute_{side}: {k} grid points {ptype}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, _pipe._slug(spec.name) + "_evolute.csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["t", "side", "epsilon", "epsilon_prime", "point_type"])
            for row in rows:
                w.writerow([_pipe._fmt(row[0]), row[1], _pipe._fmt(row[2]),
                            _pipe._fmt(row[3]), row[4]])
        print(f"wrote {path}")
    return 0


def cmd_dual(args) -> int:
    spec, tol = _load(args)
    model = _model(spec, tol)
    bad = False
    for pair, info in _pipe.duality_summary(model).items():
        if info["status"] == "skipped":
            print(f"{pair}: skipped ({info['reason']})")
            continue
        print(f"{pair}: max residual {info['max_residual']:.3e} over "
              f"{info['samples']} samples, verdict {info['verdict']}: "
              f"{'pass' if info['pass'] else 'FAIL'}")
        bad = bad or not info["pass"]
    return 2 if bad else 0


def cmd_classify(args) -> int:
    spec, tol = _load(args)
    model = _model(spec, tol)
    records = _pipe._classified_loci(model, _focal.defined_runs(model))
    counts = {}
    for r in records:
        counts[(r.surface, r.type.value)] = counts.get((r.surface, r.type.value), 0) + 1
    for (surface, ty), k in sorted(counts.items()):
        print(f"{surface}: {k} records {ty}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, _pipe._slug(spec.name) + "_loci.csv")
        _pipe.export_loci_csv(records, path)
        print(f"wrote {path}")
    return 0


def cmd_verify(args) -> int:
    spec, tol = _load(args)
    model = _model(spec, tol)
    runs = _focal.defined_runs(model)
    corr = _evolute.correspondence_check(model, runs)
    ok = True
    for name, leg in (("hyperbolic", corr.hyperbolic), ("desitter", corr.desitter)):
        if leg.status == "skipped":
            print(f"correspondence[{name}]: skipped ({leg.reason})")
            continue
        print(f"correspondence[{name}]: {leg.points} points, "
              f"max image distance {leg.max_image_distance:.3e}")
        for check, good in leg.agreements.items():
            print(f"  {check}: {'pass' if good else 'FAIL'}")
            ok = ok and good
        for ev in leg.events:
            print(f"  epsilon crossing at t={ev['t']:.12g}: focal {ev['focal_type']}, "
                  f"evolute {ev['evolute_type']}, dual {ev['dual_type']}")
    for pair, info in _pipe.duality_summary(model, runs).items():
        if info["status"] == "skipped":
            print(f"duality[{pair}]: skipped ({info['reason']})")
            continue
        print(f"duality[{pair}]: max residual {info['max_residual']:.3e} "
              f"({'pass' if info['pass'] else 'FAIL'}), verdict {info['verdict']}")
        ok = ok and info["pass"]
    return 0 if ok else 2


def cmd_run(args) -> int:
    spec, tol = _load(args)
    report = _pipe.run_pipeline(spec, out_dir=args.out or ".", tol=tol)
    data = report.data
    print(f"run {spec.name!r} complete "
          f"({data['integration']['samples']} samples, "
          f"{len(data['loci'])} singular records)")
    for name, surf in data["surfaces"].items():
        runs = surf["defined_intervals"]
        if runs:
            print(f"  {name}: defined on {runs}")
        else:
            print(f"  {name}: skipped (never defined)")
    print("wrote:", ", ".join(data["outputs"]) or "(report only)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypframe",
        description="Framed curves in hyperbolic 3-space: focal surfaces, "
                    "evolutes, dual surfaces and their singularities.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    handlers = {
        "integrate": cmd_integrate, "focal": cmd_focal, "evolute": cmd_evolute,
        "dual": cmd_dual, "classify": cmd_classify, "verify": cmd_verify,
        "run": cmd_run,
    }
    for name, handler in handlers.items():
        p = sub.add_parser(name)
        p.add_argument("--spec", required=True, help="curve-spec JSON document")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--tol", action="append", metavar="NAME=VALUE",
                       help="override a named tolerance (repeatable)")
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except _pipe.SpecError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return 1
    except InvalidInputError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
