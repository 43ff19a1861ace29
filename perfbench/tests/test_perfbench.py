"""Self-tests of the benchmark: checks, generator and tracer.

    python3 -m pytest perfbench/tests -q
"""

import copy
import json
import re

import pytest

import check
import specgen
from tracer import Tracer, expression_counts

SMALL = {
    "name": "small",
    "curvature": {"m": "1", "n": "1", "a": "2", "b": "0"},
    "domain": {"t0": 0.0, "t1": 1.0, "samples": 11},
    "theta": {"min": -1.0, "max": 1.0, "samples": 5},
    "outputs": ["report", "loci_csv", "focal_h_obj"],
}


def write_spec(tmp_path, doc=SMALL):
    path = tmp_path / (doc["name"] + ".json")
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run_cli(spec, out):
    from hypframe import cli
    assert cli.main(["run", "--spec", spec, "--out", str(out)]) == 0
    with open(out / "small_report.json", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("small")
    spec = write_spec(tmp)
    report = run_cli(spec, tmp / "out")
    return spec, tmp / "out", report


# -- correctness check -------------------------------------------------------


def test_real_report_passes(small_run):
    _, out, report = small_run
    assert check.check_report(report, "cuspidal_edge") == []
    assert check.check_outputs(check.digest_dir(out), report) == []


def test_flipped_agreement_is_rejected(small_run):
    report = copy.deepcopy(small_run[2])
    leg = report["correspondence"]["hyperbolic"]
    assert leg["status"] == "checked"
    name = sorted(leg["agreements"])[0]
    leg["agreements"][name] = False
    kinds = [k for k, _ in check.check_report(report, "cuspidal_edge")]
    assert kinds == ["correspondence"]


def test_failed_duality_and_wrong_structure_are_rejected(small_run):
    report = copy.deepcopy(small_run[2])
    report["duality"]["focal_h_mu"]["pass"] = False
    kinds = {k for k, _ in check.check_report(report, "swallowtail")}
    assert kinds == {"duality", "expect"}


def test_changed_byte_is_rejected(small_run, tmp_path):
    _, out, _ = small_run
    first = check.digest_dir(out)
    copy_dir = tmp_path / "copy"
    copy_dir.mkdir()
    for name in first:
        data = bytearray((out / name).read_bytes())
        if name.endswith(".obj"):
            data[len(data) // 2] ^= 1
        (copy_dir / name).write_bytes(bytes(data))
    found = check.check_same(first, check.digest_dir(copy_dir))
    assert len(found) == 1 and found[0][0] == "determinism"
    assert "focal_h.obj" in found[0][1]


def test_expm_check_accepts_engine_frames_and_rejects_perturbed():
    from hypframe import CurvatureQuartet, integrate_frame
    quartet = (1.0, 1.0, 2.0, 0.0)
    model = integrate_frame(CurvatureQuartet.from_strings(*map(str, quartet)),
                            (0.0, 2.0, 21))
    assert check.check_frames(quartet, model.ts, model.frames) == []
    frames = model.frames.copy()
    frames[-1, 1, 2] += 1e-6
    assert [k for k, _ in check.check_frames(quartet, model.ts, frames)] == ["expm"]


# -- spec generator ------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(specgen.TEMPLATES))
def test_generator_is_deterministic_per_seed(name):
    assert specgen.generate(name, 7) == specgen.generate(name, 7)
    assert specgen.generate(name, 7) != specgen.generate(name, 8)


@pytest.mark.parametrize("name", sorted(specgen.TEMPLATES))
def test_generator_keeps_shape_domain_and_bounds(name):
    number = re.compile(r"\d+\.\d+")
    template = specgen.TEMPLATES[name][0]
    for seed in range(20):
        doc = json.loads(specgen.generate(name, seed))
        other = json.loads(specgen.generate(name, seed + 100))
        assert doc["domain"] == other["domain"]
        for key, tmpl in zip("mnab", template):
            expr = doc["curvature"][key]
            assert number.sub("#", expr) == number.sub("#", other["curvature"][key])
            bases = [float(v) for v in re.findall(r"\{([0-9.]+)\}", tmpl)]
            values = [float(v) for v in number.findall(expr)]
            assert len(bases) == len(values)
            for base, value in zip(bases, values):
                assert abs(value / base - 1.0) <= specgen.PERTURBATION + 1e-6


# -- tracer --------------------------------------------------------------------


def engine_bindings():
    """Every function object the tracer may rebind, by qualified name."""
    import hypframe.cli as cli
    import hypframe.duality as duality
    import hypframe.evolute as evolute
    import hypframe.focal as focal
    import hypframe.framedcurve as framedcurve
    import hypframe.pipeline as pipeline
    import hypframe.symexpr as symexpr

    out = {}
    for mod in (cli, duality, evolute, focal, framedcurve, pipeline, symexpr,
                framedcurve._kernel):
        for name, value in vars(mod).items():
            if callable(value):
                out[f"{mod.__name__}.{name}"] = value
    for cls in (framedcurve.FramedCurveModel, pipeline.RunReport):
        for name, value in vars(cls).items():
            out[f"{cls.__name__}.{name}"] = value
    return out


def test_tracer_restores_every_binding(tmp_path):
    from hypframe import cli
    spec = write_spec(tmp_path)
    before = engine_bindings()
    tracer = Tracer()
    with tracer:
        assert tracer.timed("cli.main", cli.main,
                            ["run", "--spec", spec, "--out", str(tmp_path / "t")]) == 0
    after = engine_bindings()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())
    assert tracer.not_restored() == []

    calls, incl, own = tracer.totals()
    for name in ("symexpr.eval_expr", "symexpr.vectorized", "propagation.propagate",
                 "framedcurve.integrate_frame", "framedcurve.frenet_data_at",
                 "focal.singular_locus_h", "focal.classify_h", "focal.focal_h_point",
                 "evolute.correspondence_check", "evolute.classify_dual_h",
                 "duality.pair_sample", "duality.front_verdict",
                 "pipeline.load_spec", "pipeline.run_pipeline", "pipeline.export_obj",
                 "pipeline.RunReport.write"):
        assert calls[name] > 0, name
    assert calls["cli.main"] == 1
    assert sum(own.values()) == pytest.approx(incl["cli.main"], rel=1e-9)
    assert tracer.counts["propagation.substeps"] == 500
    assert len(tracer.models) == 1


def test_traced_outputs_match_untraced(small_run, tmp_path):
    from hypframe import cli
    spec, out, _ = small_run
    with Tracer() as tracer:
        tracer.timed("cli.main", cli.main, ["run", "--spec", spec, "--out", str(tmp_path)])
    assert check.check_same(check.digest_dir(out), check.digest_dir(tmp_path)) == []


def test_expression_counts_share_subtrees():
    from hypframe import CurvatureQuartet, integrate_frame
    model = integrate_frame(CurvatureQuartet.from_strings("0.5*t", "1", "2", "0.1*t"),
                            (0.0, 1.0, 5))
    before = expression_counts(model)
    model.frenet_data_at(0.5)
    tree, distinct = expression_counts(model)
    assert tree > before[0] and distinct >= before[1]
    assert 0 < distinct < tree



# -- known defects ---------------------------------------------------------------


def test_only_listed_failures_count_as_known(tmp_path):
    import run
    runner = run.Runner(str(tmp_path), str(tmp_path), [], "long_integration")
    runner.failures = [
        (0, "boosted", "expm", "frame differs from expm(t C) F0 by 1.0e+00"),
        (0, "boosted", "duality", "focal_h_mu: max residual 7.8e-03, pass false"),
        (1, "boosted", "exit", "hypframe run returned 1: invalid input: "
                               "non-finite component in MinkVec: nan"),
    ]
    assert runner.unexpected() == []
    assert runner.failed_runs() == [(0, "boosted"), (1, "boosted")]
    runner.failures += [(1, "boosted", "exit", "hypframe run returned 2: numeric failure"),
                        (1, "boosted", "determinism", "outputs differ between runs"),
                        (1, "bounded", "expm", "frame differs from expm(t C) F0")]
    assert [f[2] for f in runner.unexpected()] == ["exit", "determinism", "expm"]


def test_speed_probe_samples_and_is_subtracted():
    import signal
    import time

    from child import PROBE_INTERVAL, SpeedProbe

    probe = SpeedProbe()
    probe.start()
    try:
        cpu, spent = time.process_time(), probe.spent
        while time.process_time() - cpu < 20 * PROBE_INTERVAL:
            sum(i * i for i in range(1000))
        net = probe.net(cpu, spent)
    finally:
        probe.stop()
    assert signal.getsignal(signal.SIGPROF) is signal.SIG_DFL
    assert len(probe.samples) >= 10
    assert all(s > 0 for s in probe.samples)
    total = time.process_time() - cpu
    assert net == pytest.approx(total - probe.spent, abs=0.02)
    assert 0.0 < net < total
    assert probe.scale() > 0.0
