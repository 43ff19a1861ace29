"""Command-line interface.

Subcommands: integrate, focal, evolute, dual, classify, verify, run.
Every subcommand reads a curve-spec JSON via --spec; --out selects the
output directory and --tol name=value overrides a named tolerance.

Each subcommand is a set of pipeline.STAGES, the products it exports and
a renderer, which prints from what run_pipeline returns.  Exit codes: 0
success, 1 spec or output error, 2 numeric failure.  A subcommand's exit
code reflects only the stages it ran: dual and verify also exit 2 when one
of their checks fails, while run writes its files and exits 0, with the
failure recorded in its report.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter

from . import __version__
from . import pipeline as _pipe
from .errors import InvalidInputError, NumericError
from .loci import LOCI_SURFACES, TYPES
# not called here: perfbench's tracer rebinds cli.integrate_frame
from .framedcurve import integrate_frame  # noqa: F401
from .framedcurve import wedge_residual
from .propagation import gram_check
from .tolerances import DEFAULT


def _parse_tols(pairs):
    out = {}
    for item in pairs or ():
        if "=" not in item:
            raise _pipe.SpecValidationError("--tol", f"expected name=value, got {item!r}")
        name, value = item.split("=", 1)
        out[name] = value  # Tolerances.with_overrides checks the value
    return out


def _wrote(out, report) -> None:
    for name in report.data["outputs"]:
        print(f"wrote {os.path.join(out, name)}")


def show_integrate(out, report) -> int:
    model, run = report.model, report.data["integration"]
    print(f"integrated {report.data['spec']['name']!r}: {run['samples']} samples on "
          f"[{model.t0}, {model.t1}], substep {run['substep']}")
    print(f"backend {report.data['tool']['propagation_backend']}, "
          f"corrections {run['corrections']}, max drift {run['max_drift']:.3e} "
          f"(raw {run['max_drift_raw']:.3e}) near t={run['max_drift_t']}")
    # both residuals relative to the frame's size, as the integrator judges drift
    worst = max(gram_check(model.frames)[1].max(), wedge_residual(model.frames).max())
    print(f"worst sample residual {worst:.3e}")
    return 0


def show_focal(out, report) -> int:
    for name in ("focal_h", "focal_d"):
        runs = report.data["surfaces"][name]["defined_intervals"]
        print(f"{name}: defined on {runs or 'nowhere'}")
    if out:
        print("wrote:", ", ".join(report.data["outputs"]) or "(nothing)")
    return 0


def show_evolute(out, report) -> int:
    rows = report.evolute_rows
    for (side, ptype), k in sorted(Counter((row[1], row[4]) for row in rows).items()):
        print(f"evolute_{side}: {k} grid points {ptype}")
    _wrote(out, report)
    return 0


def show_dual(out, report) -> int:
    bad = False
    for pair, info in report.data["duality"].items():
        if info["status"] == "skipped":
            print(f"{pair}: skipped ({info['reason']})")
            continue
        print(f"{pair}: max residual {info['max_residual']:.3e} over "
              f"{info['samples']} samples, verdict {info['verdict']}: "
              f"{'pass' if info['pass'] else 'FAIL'}")
        bad = bad or not info["pass"]
    return 2 if bad else 0


def show_classify(out, report) -> int:
    loci = report.data["loci"]  # a focal.LociTable
    counts = Counter(zip(loci.surface.tolist(), loci.type.tolist()))
    for (surface, ty), k in sorted(((LOCI_SURFACES[s], TYPES[t].value), k)
                                   for (s, t), k in counts.items()):
        print(f"{surface}: {k} records {ty}")
    _wrote(out, report)
    return 0


def show_verify(out, report) -> int:
    ok = True
    for name, leg in report.data["correspondence"].items():
        if leg["status"] == "skipped":
            print(f"correspondence[{name}]: skipped ({leg['reason']})")
            continue
        print(f"correspondence[{name}]: {leg['points']} points, "
              f"max image distance {leg['max_image_distance']:.3e}")
        for check, good in leg["agreements"].items():
            print(f"  {check}: {'pass' if good else 'FAIL'}")
            ok = ok and good
        for ev in leg["events"]:
            print(f"  epsilon crossing at t={ev['t']:.12g}: focal {ev['focal_type']}, "
                  f"evolute {ev['evolute_type']}, dual {ev['dual_type']}")
    for pair, info in report.data["duality"].items():
        if info["status"] == "skipped":
            print(f"duality[{pair}]: skipped ({info['reason']})")
            continue
        print(f"duality[{pair}]: max residual {info['max_residual']:.3e} "
              f"({'pass' if info['pass'] else 'FAIL'}), verdict {info['verdict']}")
        ok = ok and info["pass"]
    return 0 if ok else 2


def show_run(out, report) -> int:
    data = report.data
    print(f"run {data['spec']['name']!r} complete "
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


# subcommand -> (the stages it asks run_pipeline for, the products it
# exports into --out, None for the spec's own, and its renderer)
SUBCOMMANDS = {
    "integrate": (("integrate",), (), show_integrate),
    "focal": (("definedness", "export"), ("focal_h_obj", "focal_d_obj"), show_focal),
    "evolute": (("evolute_rows", "export"), ("evolute_csv",), show_evolute),
    "dual": (("duality",), (), show_dual),
    "classify": (("loci", "export"), ("loci_csv",), show_classify),
    "verify": (("correspondence", "duality"), (), show_verify),
    "run": (_pipe.RUN_STAGES, None, show_run),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypframe",
        description="Framed curves in hyperbolic 3-space: focal surfaces, "
                    "evolutes, dual surfaces and their singularities.")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("command", choices=SUBCOMMANDS)
    parser.add_argument("--spec", required=True, help="curve-spec JSON document")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--tol", action="append", metavar="NAME=VALUE",
                        help="override a named tolerance (repeatable)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    stages, products, show = SUBCOMMANDS[args.command]
    try:
        spec = _pipe.load_spec(args.spec)
        tol = DEFAULT.with_overrides({**spec.tolerances, **_parse_tols(args.tol)})
        if products is None:  # run: the spec's outputs, by default into the working directory
            out = args.out or "."
        else:
            spec, out = spec._replace(outputs=products), args.out or None
        return show(out, _pipe.run_pipeline(spec, out_dir=out, tol=tol, stages=stages))
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
