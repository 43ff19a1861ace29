"""Benchmark of `hypframe run`, end to end and per layer.

    python3 perfbench/run.py --workload seed_specs --seed 1 --seconds 15 --trace 0

Run it from the root of a hypframe checkout; it imports the engine from
``src/`` there and writes only under ``.perfbench_out/``.

One operation is ``hypframe.cli.main(["run", "--spec", S, "--out", D])``
with a fresh output directory, in a fresh Python process, so no
in-process cache survives from one run to the next.  Processes run one
at a time (a closed loop with one client) with BLAS/OpenMP pinned to one
thread.  A pass runs every spec of the workload once.

--trace 0  repeats passes until --seconds have elapsed and prints the
           end-to-end metrics: scaled_cpu_s (median over passes of the
           summed per-spec cli.main CPU times), setup_s (median of the
           CPU time of import + load_spec summed over the specs; extra
           set-up-only processes bring the sample count to SETUP_SAMPLES)
           and peak_rss_mb (median over passes of the largest peak RSS).
           Both times are rescaled to a nominal CPU speed, which each
           child samples while it runs (child.SpeedProbe): on a shared
           host the same work costs up to twice the CPU time, and the
           wall clock adds the time other guests hold the CPU.  The raw
           CPU and wall times of each pass are printed and recorded.
--trace 1  runs one untraced and one traced pass and prints the
           per-layer metrics of the traced one (see tracer.py).

Every run is checked (check.py) outside the timed region: exit code,
drift, correspondence and duality certificates, the expected singular
structure, byte-identical outputs across passes and, for constant
quartets, frames against expm(t C) F0.  A run whose first pass outlasts
--seconds (always generic_quartet) makes one pass; byte identity is then
checked by the traced runs, which compare the traced pass with the
untraced one.  The last stdout line is the JSON
result; the line before it is the run record (machine, versions, specs).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter

import check
import specgen

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
OUT_DIR = ".perfbench_out"
SETUP_SAMPLES = 5
CHILD_TIMEOUT = 170.0
# stop starting passes when the next one would end after this many seconds
RUN_LIMIT = 165.0
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS")

SEED_SPECS = {"cuspidal_edge_hyperbolic": "cuspidal_edge",
              "cuspidal_edge_desitter": "cuspidal_edge",
              "swallowtail_family": "swallowtail"}
WORKLOADS = {
    "seed_specs": tuple(SEED_SPECS),
    "generic_quartet": ("gen_h", "gen_d"),
    "long_integration": ("bounded", "boosted"),
}
# Failures that reproduce a documented engine defect, matched by kind and
# message.  They still count in `failed`; `correct` is false only for
# failures outside this table.
KNOWN_DEFECTS = {
    ("long_integration", "boosted"): (
        "on [0, 40] |F| grows past 1e5 and repeated re-orthonormalization "
        "corrupts the frames: they leave expm(t C) F0, the duality residuals "
        "(~1e-2) exceed the absolute tol.dual, and for some seeds the frames "
        "turn to NaN and the run exits 1",
        {"expm": r"differs from expm", "duality": r"pass false",
         "exit": r"returned 1: invalid input: non-finite component"}),
}


class Spec:
    def __init__(self, name, path, text, expect, generated):
        self.name, self.path, self.text = name, path, text
        self.expect, self.generated = expect, generated
        doc = json.loads(text)
        # hypframe's default tol.frame unless the spec overrides it
        self.tol_frame = float(doc.get("tolerances", {}).get("frame", 1e-9))
        try:
            self.constant = tuple(float(doc["curvature"][k]) for k in "mnab")
        except ValueError:
            self.constant = None

    def record(self):
        out = {"name": self.name, "sha256": specgen.sha256(self.text)}
        if self.generated:
            out["text"] = self.text
        else:
            out["path"] = os.path.relpath(self.path)
        return out


def workload_specs(workload, seed, work):
    specs = []
    for name in WORKLOADS[workload]:
        if name in SEED_SPECS:
            path = os.path.join("specs", name + ".json")
            with open(path, encoding="utf-8") as fh:
                specs.append(Spec(name, path, fh.read(), SEED_SPECS[name], False))
        else:
            text = specgen.generate(name, seed)
            path = os.path.join(work, name + ".json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            specs.append(Spec(name, path, text, specgen.TEMPLATES[name][2], True))
    return specs


def child_env(root):
    env = dict(os.environ)
    env.update({k: "1" for k in BLAS_ENV})
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


class Runner:
    def __init__(self, root, work, specs, workload):
        self.root, self.work, self.specs, self.workload = root, work, specs, workload
        self.env = child_env(root)
        self.passes = []        # per pass: {spec name: {data, error, out, extra}}
        self.failures = []      # (pass index, spec name, kind, message)
        self.setup_samples = []
        self.backend = None

    def child(self, mode, spec, out, extra=None):
        os.makedirs(out, exist_ok=True)
        result = out + ".json"
        cmd = [sys.executable, CHILD, mode, spec.path, out, result]
        if extra:
            cmd.append(extra)
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  timeout=CHILD_TIMEOUT, check=False)
        except subprocess.TimeoutExpired:
            return None, f"timed out after {CHILD_TIMEOUT:g} s"
        if proc.returncode != 0 or not os.path.exists(result):
            tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
            return None, f"process exited {proc.returncode}: {' '.join(tail)}"
        with open(result, encoding="utf-8") as fh:
            data = json.load(fh)
        src = os.path.join(self.root, "src") + os.sep
        if not data["module"].startswith(src):
            raise SystemExit(f"hypframe imported from {data['module']}, not {src}")
        self.backend = data["backend"]
        data["stderr"] = proc.stderr.decode(errors="replace").strip()
        return data, None

    def run_pass(self, mode):
        index = len(self.passes)
        runs = {}
        for spec in self.specs:
            out = os.path.join(self.work, f"pass{index}", spec.name)
            extra = None
            if mode == "trace":
                extra = os.path.join(self.root, OUT_DIR,
                                     f"spans_{self.workload}_{spec.name}.csv.gz")
            elif index == 0 and spec.constant is not None:
                extra = out + "_frames.npz"
            data, error = self.child(mode, spec, out, extra)
            runs[spec.name] = {"data": data, "error": error, "out": out, "extra": extra}
        self.passes.append(runs)
        self.check_pass(index)
        return runs

    def check_pass(self, index):
        runs = self.passes[index]
        for spec in self.specs:
            run = runs[spec.name]
            found = self.check_run(spec, run)
            if index > 0 and "digests" in run and "digests" in self.passes[0][spec.name]:
                found += check.check_same(self.passes[0][spec.name]["digests"],
                                          run["digests"])
            self.failures.extend((index, spec.name, kind, msg) for kind, msg in found)

    def check_run(self, spec, run):
        if run["error"]:
            return [("exit", run["error"])]
        if run["data"]["rc"] != 0:
            tail = run["data"]["stderr"].splitlines()[-1:]
            return [("exit", f"hypframe run returned {run['data']['rc']}: {' '.join(tail)}")]
        run["digests"] = check.digest_dir(run["out"])
        report_path = os.path.join(run["out"], spec.name + "_report.json")
        if not os.path.exists(report_path):
            return [("outputs", "no report written")]
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
        found = check.check_report(report, spec.expect, spec.tol_frame)
        found += check.check_outputs(run["digests"], report)
        if run["extra"] and run["extra"].endswith(".npz"):
            import numpy as np
            with np.load(run["extra"]) as z:
                found += check.check_frames(spec.constant, z["ts"], z["frames"])
        return found

    def setup_probe(self):
        total = 0.0
        for spec in self.specs:
            out = os.path.join(self.work, f"setup{len(self.setup_samples)}", spec.name)
            data, error = self.child("setup", spec, out)
            if error:
                raise SystemExit(f"set-up of {spec.name} failed: {error}")
            total += data["setup_s"] * data["scale"]
        self.setup_samples.append(total)

    def pass_sum(self, index, key, scaled=False):
        return sum(r["data"][key] * (r["data"]["scale"] if scaled else 1.0)
                   for r in self.passes[index].values() if r["data"])

    def pass_max(self, index, key):
        return max((r["data"][key] for r in self.passes[index].values() if r["data"]),
                   default=0.0)

    def attempted(self):
        return sum(len(p) for p in self.passes)

    def failed_runs(self):
        return sorted({(i, name) for i, name, _, _ in self.failures})

    def is_known(self, spec, kind, message):
        _, signatures = KNOWN_DEFECTS.get((self.workload, spec), ("", {}))
        return kind in signatures and re.search(signatures[kind], message) is not None

    def unexpected(self):
        return [f for f in self.failures if not self.is_known(*f[1:])]


def end_to_end(runner):
    n = len(runner.passes)
    scaled = [runner.pass_sum(i, "cpu_s", scaled=True) for i in range(n)]
    rss = [runner.pass_max(i, "peak_rss_mb") for i in range(n)]
    setups = [runner.pass_sum(i, "setup_s", scaled=True) for i in range(n)]
    setups += runner.setup_samples
    return {
        "scaled_cpu_s": (statistics.median(scaled), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }, {"scaled_cpu_s": scaled, "setup_s": setups, "peak_rss_mb": rss,
        "cpu_s": [runner.pass_sum(i, "cpu_s") for i in range(n)],
        "wall_s": [runner.pass_sum(i, "wall_s") for i in range(n)]}


def per_layer(runner):
    traced = runner.passes[1]
    calls, incl, own, counts = Counter(), Counter(), Counter(), Counter()
    distinct_t = tree = distinct = 0
    bytes_written = 0
    for name, run in traced.items():
        data = run["data"]
        if not data:
            continue
        calls.update(data["calls"])
        incl.update(data["incl"])
        own.update(data["own"])
        counts.update(data["counts"])
        distinct_t += data["frenet_distinct_t"]
        tree += data.get("tree_nodes", 0)
        distinct += data.get("distinct_nodes", 0)
        bytes_written += sum(os.path.getsize(os.path.join(run["out"], f))
                             for f in os.listdir(run["out"]))

    def c(*names):
        return sum(calls[n] for n in names)

    def s(*names):
        return sum(incl[n] for n in names)

    traced_wall = runner.pass_sum(1, "wall_s")
    pairs = c("duality.pair_sample")
    prop_s = s("propagation.propagate")
    substeps = counts["propagation.substeps"]
    m = {
        "symexpr.eval_calls": (c("symexpr.eval_expr"), "count"),
        "symexpr.eval_s": (s("symexpr.eval_expr"), "s"),
        "symexpr.tree_nodes": (tree, "count"),
        "symexpr.distinct_nodes": (distinct, "count"),
        "symexpr.vectorized_s": (s("symexpr.vectorized"), "s"),
        "propagation.propagate_s": (prop_s, "s"),
        "propagation.substeps": (substeps, "count"),
        "propagation.substeps_per_s": (substeps / prop_s if prop_s else 0.0, "1/s"),
        "propagation.corrections": (counts["propagation.corrections"], "count"),
        "framedcurve.integrate_self_s": (own["framedcurve.integrate_frame"], "s"),
        "framedcurve.frenet_data_calls": (c("framedcurve.frenet_data_at"), "count"),
        "framedcurve.frenet_data_distinct_t": (distinct_t, "count"),
        "framedcurve.frenet_data_self_s": (own["framedcurve.frenet_data_at"], "s"),
        "framedcurve.frame_at_calls": (c("framedcurve.frame_at"), "count"),
        "framedcurve.frame_at_s": (s("framedcurve.frame_at"), "s"),
        "focal.locus_s": (s("focal.singular_locus_h", "focal.singular_locus_d"), "s"),
        "focal.classify_calls": (c("focal.classify_h", "focal.classify_d"), "count"),
        "focal.classify_s": (s("focal.classify_h", "focal.classify_d"), "s"),
        "focal.point_calls": (c("focal.focal_h_point", "focal.focal_d_point"), "count"),
        "focal.point_s": (s("focal.focal_h_point", "focal.focal_d_point"), "s"),
        "focal.records": (counts["focal.records"], "count"),
        "evolute.correspondence_self_s": (own["evolute.correspondence_check"], "s"),
        "evolute.classify_dual_calls": (
            c("evolute.classify_dual_h", "evolute.classify_dual_d"), "count"),
        "evolute.classify_dual_s": (
            s("evolute.classify_dual_h", "evolute.classify_dual_d"), "s"),
        "evolute.evolute_calls": (c("evolute.evolute_h", "evolute.evolute_d"), "count"),
        "evolute.evolute_s": (s("evolute.evolute_h", "evolute.evolute_d"), "s"),
        "evolute.dual_point_calls": (
            c("evolute.dual_of_evolute_h", "evolute.dual_of_evolute_d"), "count"),
        "evolute.dual_point_s": (
            s("evolute.dual_of_evolute_h", "evolute.dual_of_evolute_d"), "s"),
        "evolute.events": (counts["evolute.events"], "count"),
        "duality.pair_sample_calls": (pairs, "count"),
        "duality.pair_sample_s": (s("duality.pair_sample"), "s"),
        "duality.sample_yield": (counts["duality.kept"] / pairs if pairs else 0.0, "ratio"),
        "duality.front_verdict_s": (s("duality.front_verdict"), "s"),
        "pipeline.load_spec_s": (s("pipeline.load_spec"), "s"),
        "pipeline.run_self_s": (own["pipeline.run_pipeline"], "s"),
        "pipeline.export_s": (s("pipeline.export_obj", "pipeline.export_loci_csv",
                                "pipeline.RunReport.write"), "s"),
        "pipeline.bytes_written": (bytes_written, "B"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.overhead_s": (traced_wall - runner.pass_sum(0, "wall_s"), "s"),
        "trace.unattributed_s": (own["cli.main"], "s"),
        "check.failed_share": (len(runner.failed_runs()) / runner.attempted(), "ratio"),
    }
    # self times partition the root spans: their sum is the traced cli.main time
    self_sum = sum(own.values())
    if abs(self_sum - incl["cli.main"]) > 1e-6 * max(1.0, self_sum):
        raise SystemExit(f"self times sum to {self_sum}, root spans to {incl['cli.main']}")
    unrestored = sorted({x for r in traced.values() if r["data"]
                         for x in r["data"]["not_restored"]})
    if unrestored:
        raise SystemExit(f"traced bindings not restored: {unrestored}")
    return m


def git_commit(root):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, timeout=30, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.decode().strip() if proc.returncode == 0 else "unknown"


def source_digest(root):
    h = hashlib.sha256()
    base = os.path.join(root, "src", "hypframe")
    for name in sorted(os.listdir(base)):
        path = os.path.join(base, name)
        if os.path.isfile(path):
            h.update(name.encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def declared_metrics(root, trace):
    """Metric names BENCHMARK.json lists for this mode, if the file is there."""
    path = os.path.join(root, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return {m["name"] for m in doc["per_layer" if trace else "end_to_end"]}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    # turn SIGTERM into an exception so the running child is killed and
    # waited for (subprocess.run does both on any exception)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = os.getcwd()
    for need in (os.path.join("src", "hypframe", "__init__.py"), "specs"):
        if not os.path.exists(os.path.join(root, need)):
            print(f"perfbench: {need} not found; run from a hypframe checkout",
                  file=sys.stderr)
            return 2
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    work = tempfile.mkdtemp(prefix="run_", dir=os.path.join(root, OUT_DIR))
    try:
        return measure(args, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, root, work):
    specs = workload_specs(args.workload, args.seed, work)
    runner = Runner(root, work, specs, args.workload)
    # compile the engine's bytecode before anything is timed
    runner.child("setup", specs[0], os.path.join(work, "warmup"))

    start = time.perf_counter()
    if args.trace:
        runner.run_pass("run")
        runner.run_pass("trace")
        metrics = per_layer(runner)
    else:
        while True:
            t0 = time.perf_counter()
            runner.run_pass("run")
            elapsed = time.perf_counter() - start
            last = time.perf_counter() - t0
            if elapsed >= args.seconds or elapsed + last > RUN_LIMIT:
                break
        while len(runner.passes) + len(runner.setup_samples) < SETUP_SAMPLES:
            runner.setup_probe()
        metrics, samples = end_to_end(runner)

    import numpy
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": len(runner.passes),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "propagation_backend": runner.backend,
        "blas_threads": {k: runner.env[k] for k in BLAS_ENV},
        "git_commit": git_commit(root), "source_sha256": source_digest(root),
        "loop": "closed, one client, one process per spec run",
        "specs": [s.record() for s in specs],
    }
    if not args.trace:
        record["samples"] = samples
    record["runs"] = [
        {"pass": i, "spec": name, **{k: run["data"][k] for k in
                                     ("cpu_s", "wall_s", "setup_s", "scale", "probes",
                                      "peak_rss_mb")}}
        for i, runs in enumerate(runner.passes) for name, run in runs.items()
        if run["data"]]
    record["failures"] = [
        {"pass": i, "spec": name, "kind": kind, "message": msg,
         "known_defect": runner.is_known(name, kind, msg)}
        for i, name, kind, msg in runner.failures]
    name = f"record_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    with open(os.path.join(root, OUT_DIR, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)

    declared = declared_metrics(root, args.trace)
    if declared is not None and set(metrics) != declared:
        raise SystemExit(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ declared)}")

    for i, spec, kind, msg in runner.failures:
        note = ""
        if runner.is_known(spec, kind, msg):
            note = f" [known defect: {KNOWN_DEFECTS[(args.workload, spec)][0]}]"
        print(f"FAIL pass {i} {spec}: {kind}: {msg}{note}")
    w = args.workload
    for key, (value, unit) in metrics.items():
        print(f"{w:>16} {key:<36} {value:>14.6g} {unit}")
    if not args.trace:
        for key in ("scaled_cpu_s", "cpu_s", "wall_s"):
            values = samples[key]
            print(f"{w:>16} {key + ' per pass':<36} {len(values)} passes, "
                  f"median {statistics.median(values):.4g} s, "
                  f"min {min(values):.4g} s, max {max(values):.4g} s")
    failed, attempted = len(runner.failed_runs()), runner.attempted()
    print(f"{w:>16} {'failed_share':<36} {failed / attempted:>14.6g} ratio "
          f"({failed} of {attempted} spec runs)")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": not runner.unexpected(),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
