"""Correctness checks on the outputs of one `hypframe run`.

Every check returns a list of (kind, message) failures; an empty list is
a pass.  The kinds are exit, drift, correspondence, duality, expect,
outputs, determinism and expm.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

# Expected singular structure, from the paper's correspondence theorems:
# constant quartets give cuspidal edges everywhere and no epsilon zero;
# the swallowtail family crosses epsilon = 0 once, where a swallowtail of
# the focal surface meets a (2,3,4)-cusp of the evolute and a cuspidal
# cross cap of its dual.
SWALLOWTAIL_EVENT = ("Swallowtail", "Cusp234", "CuspidalCrossCap")

# frames of a constant quartet against expm(t C) F0, relative to max |F|
EXPM_RTOL = 1e-8


def check_report(report, expect, tol_frame=1e-9):
    """Checks on a run report: drift, certificates and expected structure."""
    failures = []
    drift = report["integration"]["max_drift"]
    if not drift <= tol_frame:
        failures.append(("drift", f"max_drift {drift:.3e} > tol.frame {tol_frame:g}"))
    events = []
    for side, leg in report["correspondence"].items():
        if leg["status"] != "checked":
            continue
        bad = sorted(k for k, ok in leg["agreements"].items() if ok is not True)
        if bad:
            failures.append(("correspondence", f"{side}: {', '.join(bad)} false"))
        events.extend(leg["events"])
    for pair, info in report["duality"].items():
        if info["status"] == "checked" and info["pass"] is not True:
            failures.append(("duality", f"{pair}: max residual "
                             f"{info['max_residual']:.3e}, pass false"))
    if expect == "cuspidal_edge":
        types = sorted({r["type"] for r in report["loci"]} - {"CuspidalEdge"})
        if types:
            failures.append(("expect", f"loci of type {', '.join(types)}"))
        if events:
            failures.append(("expect", f"{len(events)} epsilon events, expected none"))
    elif expect == "swallowtail":
        typed = [(e["focal_type"], e["evolute_type"], e["dual_type"]) for e in events]
        if typed != [SWALLOWTAIL_EVENT]:
            failures.append(("expect", f"epsilon events {typed}, "
                             f"expected exactly [{SWALLOWTAIL_EVENT}]"))
    else:
        raise ValueError(f"unknown expectation {expect!r}")
    return failures


def digest_dir(path):
    """sha256 of every file in an output directory, by name."""
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def check_outputs(digests, report):
    """The directory holds exactly the files the report lists."""
    listed = sorted(report["outputs"])
    if sorted(digests) != listed:
        return [("outputs", f"wrote {sorted(digests)}, report lists {listed}")]
    return []


def check_same(first, later):
    """Byte-identical outputs across two runs of one spec."""
    differ = sorted(n for n in set(first) | set(later) if first.get(n) != later.get(n))
    if differ:
        return [("determinism", f"outputs differ between runs: {', '.join(differ)}")]
    return []


def coefficient_matrix(m, n, a, b):
    """Generator C of the frame equations F' = C F, rows (gamma, v1, v2, mu)."""
    return np.array([[0.0, 0.0, 0.0, m],
                     [0.0, 0.0, n, a],
                     [0.0, -n, 0.0, b],
                     [m, -a, -b, 0.0]])


def check_frames(quartet, ts, frames, rtol=EXPM_RTOL):
    """Integrated frames of a constant quartet against expm((t - t0) C) F0."""
    from scipy.linalg import expm

    c = coefficient_matrix(*quartet)
    f0 = frames[0]
    worst, worst_t = 0.0, float(ts[0])
    for t, f in zip(ts, frames):
        exact = expm((t - ts[0]) * c) @ f0
        err = float(np.abs(f - exact).max() / max(1.0, np.abs(exact).max()))
        if err > worst:
            worst, worst_t = err, float(t)
    if not worst <= rtol:
        return [("expm", f"frame differs from expm(t C) F0 by {worst:.3e} "
                 f"(relative) at t={worst_t:g}")]
    return []
