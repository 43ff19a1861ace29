"""Command-line interface.

Subcommands: integrate, focal, evolute, dual, classify, verify, run.
Every subcommand reads a curve-spec JSON via --spec; --out selects the
output directory and --tol name=value overrides a named tolerance.

Exit codes: 0 success, 1 spec or output error, 2 numeric failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter

from . import __version__
from . import evolute as _evolute
from . import focal as _focal
from . import pipeline as _pipe
from .errors import InvalidInputError, NumericError
from .framedcurve import integrate_frame, propagation_backend, wedge_residual
from .propagation import gram_residual
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


def _model(args):
    """(spec, integrated model) of the --spec and --tol arguments."""
    spec, tol = _load(args)
    return spec, integrate_frame(spec.quartet(), spec.domain, initial=spec.initial_frame,
                                 tol=tol)


def cmd_integrate(args) -> int:
    spec, model = _model(args)
    print(f"integrated {spec.name!r}: {len(model.ts)} samples on "
          f"[{model.t0}, {model.t1}], substep {model.step}")
    print(f"backend {propagation_backend()}, corrections {model.corrections}, "
          f"max drift {model.max_drift:.3e} (raw {model.max_drift_raw:.3e}) "
          f"near t={model.max_drift_t}")
    worst = max(max(gram_residual(f), wedge_residual(f)) for f in model.frames)
    print(f"worst sample residual {worst:.3e}")
    return 0


def cmd_focal(args) -> int:
    spec, model = _model(args)
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


def _evolute_rows(model, runs) -> list:
    """(t, side, epsilon, epsilon', point type) at each grid point of the
    evolute runs, in grid order, as evolute_h / evolute_d give them: read
    from the columns of a run at a time, which raise as those do."""
    rows = []
    for run, side in sorted(((run, side) for side in (_focal.H, _focal.D)
                             for run in runs[side.evolute]), key=lambda e: e[0].start):
        ts = model.ts[run.start:run.stop]
        _, _, (eps, eps1, _), types = _evolute._samples(side, model, ts)
        rows += [(t, side.evolute[-1], *row, ty.value) for t, *row, ty in zip(
            ts.tolist(), *(c[:, 0].tolist() for c in (eps, eps1, types)))]
    return rows


def cmd_evolute(args) -> int:
    spec, model = _model(args)
    rows = _evolute_rows(model, _focal.defined_runs(model))
    for (side, ptype), k in sorted(Counter((row[1], row[4]) for row in rows).items()):
        print(f"evolute_{side}: {k} grid points {ptype}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, _pipe._slug(spec.name) + "_evolute.csv")
        # csv.writer's bytes, as in export_loci_csv: the rows hold Python floats
        lines = ["t,side,epsilon,epsilon_prime,point_type\r\n"]
        lines += ["%r,%s,%r,%r,%s\r\n" % row for row in rows]
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write("".join(lines))
        print(f"wrote {path}")
    return 0


def cmd_dual(args) -> int:
    spec, model = _model(args)
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
    spec, model = _model(args)
    records = _pipe._classified_loci(model, _focal.defined_runs(model))
    for (surface, ty), k in sorted(Counter((r.surface, r.type.value) for r in records).items()):
        print(f"{surface}: {k} records {ty}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, _pipe._slug(spec.name) + "_loci.csv")
        _pipe.export_loci_csv(records, path)
        print(f"wrote {path}")
    return 0


def cmd_verify(args) -> int:
    spec, model = _model(args)
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


HANDLERS = {
    "integrate": cmd_integrate, "focal": cmd_focal, "evolute": cmd_evolute,
    "dual": cmd_dual, "classify": cmd_classify, "verify": cmd_verify,
    "run": cmd_run,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypframe",
        description="Framed curves in hyperbolic 3-space: focal surfaces, "
                    "evolutes, dual surfaces and their singularities.")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("command", choices=HANDLERS)
    parser.add_argument("--spec", required=True, help="curve-spec JSON document")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--tol", action="append", metavar="NAME=VALUE",
                        help="override a named tolerance (repeatable)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return HANDLERS[args.command](args)
    except _pipe.SpecError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return 1
    except InvalidInputError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # --out names a file, or an output cannot be written
        print(f"output error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
