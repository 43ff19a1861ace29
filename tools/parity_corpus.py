"""Write the spec corpus of a byte-identity check and print its paths.

    python3 tools/parity_corpus.py DIR
    python3 tools/compare_outputs.py OLD NEW $(python3 tools/parity_corpus.py DIR) --all-outputs

Run it from the root of a hypframe checkout.  The corpus is

* the committed specs in specs/ (their paths, not copies);
* the generated perfbench workloads gen_h, gen_d, bounded and boosted at
  seeds 1-5, and boosted at the seeds whose frames turn to NaN, from
  perfbench/specgen.py;
* the quartets that reach the engine's rare paths: surfaces and evolutes
  on two intervals, a sigma_F threshold at the last grid point, a^2 + b^2
  vanishing at a grid point, sigma_F touching zero between two grid
  points, a d-locus branch jump that is refined, a d-locus branch jump
  whose refinement midpoint is skipped, as the de Sitter focal surface
  is undefined there, whole-fiber records, an epsilon branch pole where
  the closed form takes over, a curvature whose de Sitter evolute turns
  to NaN without a domain error, a
  curvature with a pole at a grid point, a curvature whose derivative
  has a pole at a grid point, a theta window wide enough that
  cosh(theta) overflows, epsilon crossings where N = W = D = 0 on the
  hyperbolic side, a hyperbolic leg on which epsilon vanishes
  identically, a constant quartet whose sample intervals are each
  longer than a propagation chunk, a curvature with a pole between two
  grid points (and between the integrator's Gauss nodes), an epsilon
  that oscillates faster than the grid resolves, a spec name with
  non-ASCII text, a comma, quotes and a backslash, which the report
  escapes, a 401 x 41 grid whose meshes are written in many rows, an
  initial frame boosted in the (e0, e3) plane and rotated in the
  (e1, e2) plane, three initial frames the spec rejects (a non-finite
  entry, a pairing off by 5e-11, mu = +gamma ^ v1 ^ v2), and the
  swallowtail quartet at sing = 0.05, whose correspondence agreements
  fail and list their failures, a non-constant quartet whose 30,000
  distinct substeps span 15 propagation chunks, so that node values
  differ across every chunk boundary, a hyperbolic leg with 38
  genuine epsilon sign changes, each bisected, and a curvature that
  leaves its domain at once, whose located error prints every construct
  of the expression printer (a negative literal and exponent, unary
  minus, all four binary operators and parentheses), and a curvature
  with the literal -0, which the located error prints with its sign, and
  a geodesic, on which no surface is defined, so that the report holds
  an empty loci table, a constant quartet on 15 propagation chunks, whose
  interval propagators are reused across every chunk boundary, a
  non-constant quartet whose node values turn bit-constant from about
  t = 1.5, partway through a chunk, a domain that asks for 5e17
  substeps, which the spec rejects, and swallowtail_family's quartet
  with 1e12 theta samples and a mesh output, which every subcommand that
  writes that mesh rejects before it runs a stage, the large-grid quartet
  at 10^7 samples, which the spec rejects, and a quartet drawn by the
  property test whose legs grow to 1e5 on a bounded frame, so that its
  duality residual sits at the rounding floor, a quartet written in every
  lexical form of the DSL (a leading or trailing decimal point, an
  exponent with either sign or letter case, a double minus, a tab and a
  newline), and two curvatures the spec rejects: one with a superscript
  two, which is not a digit of the DSL, and one with an unclosed call;
* the large-grid spec (sin(t), 1+0.1*t^2, 2+0.5*cos(t), 0.2*t) on
  [-4, 4], 2,001 samples, 21 theta: about 6,000 loci records and
  several epsilon crossings.

Each generated spec is written to DIR, which is created if need be.
"""

from __future__ import annotations

import glob
import importlib.util
import json
import math
import os
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
SEEDS = range(1, 6)
WORKLOADS = ("gen_h", "gen_d", "bounded", "boosted")
# (workload, seed) pairs beyond SEEDS: boosted runs whose frames turn to NaN
EXTRA_SEEDS = (("boosted", 7), ("boosted", 18), ("boosted", 19))

# the theta window of a quartet that names none
THETA = (-1.0, 1.0, 5)
# name -> (curvature m, n, a, b; (t0, t1, samples)[; (theta min, max, samples)])
QUARTETS = {
    "gap": (("2.5*t^2-1", "1", "2", "0"), (-1.6, 1.6, 161)),
    "evolute_gap_sin": (("3*sin(t)", "1", "1.5", "0"), (-1.6, 1.6, 161)),
    "evolute_gap_cubic": (("3*t^3-t", "0.5", "1.5", "0"), (-1.6, 1.6, 161)),
    "split_sigma_threshold": (("t", "1", "2", "0"), (0.0, 1.7320508074, 11)),
    "split_frame_gap": (("2", "1", "t", "0"), (-1.0, 1.0, 21)),
    "sigma_tangency": (("1.13", "0.68-0.76*sin(-2.78*t)", "-1.23", "0"), (-1.6, 1.6, 41)),
    "d_refinement": (("2+0.5*t", "0.7*(t-1)", "1", "0"), (0.05, 2.0, 4)),
    "d_refinement_skip": (("1+(t-0.05)^2", "1", "1", "0"), (0.0, 0.1, 2)),
    "whole_fiber": (("1", "t", "2", "0"), (-0.5, 0.5, 101)),
    "desitter_pole": (("2+0.5*t", "t", "1", "0"), (-1.0, 1.0, 21)),
    "silent_nan": (("2.41+1.45*sinh(2.96*t)", "-1.2-1.56*tanh(2.06*t)",
                    "-0.61+0.05*t+1.44*t^2", "0"), (-1.6, 1.6, 81)),
    "grid_pole": (("1/t", "1", "2", "0"), (-1.0, 1.0, 21)),
    "wide_theta": (("1", "1", "2", "0"), (0.0, 1.0, 11), (-1000.0, 1000.0, 5)),
    "crossing_n_zero": (("1.13", "0.66-0.77*sin(-2.78*t)", "-1.23", "0"), (-1.6, 1.6, 41)),
    "frenet_pole": (("sqrt(t)", "1", "2", "0"), (0.0, 1.0, 11)),
    "eps_degenerate_h": (("0.5*sin(t)", "1", "2", "0"), (-1.6, 1.6, 161)),
    "long_interval_constant": (("0.2", "1", "2", "0"), (0.0, 50.0, 11)),
    "pole_between_nodes": (("1/(t-0.00123)", "1", "2", "0"), (-1.0, 1.0, 21)),
    "eps_alias": (("0.001*sin(600*t)", "1", "2", "0"), (-0.2, 0.2, 41)),
    "escaped_name": (("1", "1", "2", "0"), (0.0, 1.0, 11)),
    "fine_mesh": (("0.5*t", "1", "2", "0"), (-1.5, 1.5, 401), (-1.0, 1.0, 41)),
    **dict.fromkeys(("frame_boosted", "frame_nonfinite", "frame_pairing", "frame_flipped"),
                    (("0.5*t", "1", "2", "0"), (-1.5, 1.5, 61), (-1.0, 1.0, 7))),
    "swallowtail_coarse": (("0.5*t", "1", "2", "0"), (-1.5, 1.5, 201), (-1.0, 1.0, 21)),
    "many_chunks": (("0.2+0.05*sin(t)", "1", "2", "0.1*cos(t)"), (0.0, 60.0, 301)),
    "eps_many_crossings": (("0.3*sin(3*t)", "1", "2", "0"), (0.0, 40.0, 2001)),
    "printer_domain_error": (("log(-t^(-2)+(t-1)*-2/(3-t))", "1", "2", "0"), (0.5, 1.5, 11)),
    "negative_zero_literal": (("t+log(-0)", "1", "2", "0"), (0.0, 1.0, 11)),
    "geodesic": (("1", "0", "0", "0"), (0.0, 1.0, 11)),
    "constant_many_chunks": (("0.2", "1", "2", "0"), (0.0, 60.0, 301)),
    "saturated_quartet": (("2+tanh(40*(t-1))", "1", "2", "0"), (0.0, 30.0, 301)),
    "huge_domain": (("1", "1", "2", "0"), (0.0, 1e15, 3)),
    "huge_theta": (("0.5*t", "1", "2", "0"), (-1.5, 1.5, 201), (-1.0, 1.0, 10 ** 12)),
    "huge_samples": (("sin(t)", "1+0.1*t^2", "2+0.5*cos(t)", "0.2*t"), (-4.0, 4.0, 10 ** 7)),
    "focal_edge_floor": (("(-1.66)+(log(2+sin(-1.45)))", "(exp(0.3*t))+((-0.79)*(t))",
                          "1.83+-0.34", "t"), (-1.5, 1.5, 101)),
    "lexical_forms": ((".5*t - -1e-3*t^(3-1)", "1.", "2E+0 + 0*t^-2", "\t0.0e0\n"),
                      (-1.5, 1.5, 41)),
    "bad_character": (("0.5*t*\u00b2", "1", "2", "0"), (0.0, 1.0, 11)),
    "unclosed_call": (("sin(t", "1", "2", "0"), (0.0, 1.0, 11)),
    "large_grid": (("sin(t)", "1+0.1*t^2", "2+0.5*cos(t)", "0.2*t"), (-4.0, 4.0, 2001),
                   (-1.0, 1.0, 21)),
}
# spec names that differ from their file name: what the report must escape
NAMES = {"escaped_name": 'ψ-edge, "quoted" \\ name'}

# rows (gamma, v1, v2, mu): a boost by 0.8 in the (e0, e3) plane times a
# rotation by 0.7 in the (e1, e2) plane
_CH, _SH, _C, _S = math.cosh(0.8), math.sinh(0.8), math.cos(0.7), math.sin(0.7)
_BOOSTED = [_CH, 0, 0, _SH, 0, _C, -_S, 0, 0, _S, _C, 0, _SH, 0, 0, _CH]
# further document keys of a spec, beyond its quartet, domain and theta
EXTRA = {
    "frame_boosted": {"initial_frame": _BOOSTED},
    "frame_nonfinite": {"initial_frame": [1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1e999]},
    "frame_pairing": {"initial_frame": [1, 0, 0, 0, 0, 1, 0, 0, 0, 5e-11, 1, 0, 0, 0, 0, 1]},
    "frame_flipped": {"initial_frame": [1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, -1]},
    "swallowtail_coarse": {"tolerances": {"sing": 0.05}},
    "huge_theta": {"outputs": ["report", "focal_h_obj"]},
}


def corpus(out_dir) -> list:
    """Write the generated specs to out_dir; the paths of every corpus spec."""
    spec = importlib.util.spec_from_file_location(
        "specgen", os.path.join(ROOT, "perfbench", "specgen.py"))
    specgen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(specgen)
    os.makedirs(out_dir, exist_ok=True)
    paths = sorted(glob.glob(os.path.join(ROOT, "specs", "*.json")))
    pairs = [(name, seed) for name in WORKLOADS for seed in SEEDS] + list(EXTRA_SEEDS)
    texts = {f"{name}_{seed}": specgen.generate(name, seed) for name, seed in pairs}
    for name, (curvature, (t0, t1, samples), *theta) in QUARTETS.items():
        lo, hi, count = theta[0] if theta else THETA
        texts[name] = json.dumps({
            "name": NAMES.get(name, name),
            "curvature": dict(zip("mnab", curvature)),
            "domain": {"t0": t0, "t1": t1, "samples": samples},
            "theta": {"min": lo, "max": hi, "samples": count},
            **EXTRA.get(name, {}),
        }, indent=2) + "\n"
    for name, text in texts.items():
        path = os.path.join(out_dir, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        paths.append(path)
    return [os.path.relpath(p) for p in paths]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1 or argv[0].startswith("-"):
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    print("\n".join(corpus(argv[0])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
