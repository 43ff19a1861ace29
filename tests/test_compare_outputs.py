"""The --numeric mode of tools/compare_outputs.py: float tokens are bounded,
everything else must be equal."""

import importlib.util
import json
import os

import pytest

PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "compare_outputs.py")
_spec = importlib.util.spec_from_file_location("compare_outputs", PATH)
compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare)


def _result(code=0, stdout="", files=None):
    return code, stdout, "", {k: v.encode("utf-8") for k, v in (files or {}).items()}


def test_float_tokens_are_found_alone():
    text = "v 0.1 -2.5e-3 3 sha256:3e41ab 0.1.0 t-0.5 x=nan [1.6, -1.6] inf"
    assert compare.FLOAT.findall(text) == ["0.1", "-2.5e-3", "0.5", "nan", "1.6", "-1.6",
                                           "inf"]


def test_float_differences_are_bounded_per_place():
    old = _result(stdout="drift 1.0e-12 near t=2.5, corrections 3\n",
                  files={"a.obj": "v 1.0 2.0 3.0\nf 1 2 3 4\n"})
    new = _result(stdout="drift 1.5e-12 near t=2.5, corrections 3\n",
                  files={"a.obj": "v 1.0 2.0000000000000004 3.0\nf 1 2 3 4\n"})
    floats, other = compare.numeric_differences(old, new)
    assert other == []
    assert floats.places["stdout"] == [1, pytest.approx(5e-13), pytest.approx(1 / 3)]
    count, err, rel = floats.places["file a.obj"]
    assert count == 1 and err == pytest.approx(4.4e-16) and rel == pytest.approx(2.2e-16)


def test_integers_words_and_structure_are_other_differences():
    old = _result(stdout="corrections 3 max 1.0\nok\n",
                  files={"a.csv": "t,type\n0.5,Cusp\n", "b.obj": "v 1.0\n"})
    new = _result(code=2, stdout="corrections 4 max 1.0\nok\n",
                  files={"a.csv": "t,type\n0.5,Edge\n", "c.obj": "v 1.0\n"})
    floats, other = compare.numeric_differences(old, new)
    assert floats.places == {}
    assert other == ["exit code: 0 -> 2",
                     "stdout line 1: 'corrections 3 max 1.0' -> 'corrections 4 max 1.0'",
                     "file a.csv line 2: '0.5,Cusp' -> '0.5,Edge'",
                     "file b.obj: only old", "file c.obj: only new"]


def test_reports_compare_by_key_path():
    doc = {"integration": {"corrections": 1, "max_drift": 1e-12},
           "loci": [{"t": 0.5, "type": "Cusp"}, {"t": 0.75, "type": "Edge"}],
           "pass": True}
    changed = json.loads(json.dumps(doc))
    changed["integration"]["max_drift"] = 2e-12
    changed["loci"][1]["t"] = 0.7500000000000001
    changed["integration"]["corrections"] = 2
    changed["pass"] = False
    floats, other = compare.numeric_differences(
        _result(files={"r.json": json.dumps(doc)}), _result(files={"r.json": json.dumps(changed)}))
    assert set(floats.places) == {"file r.json .integration.max_drift", "file r.json .loci[].t"}
    assert floats.places["file r.json .loci[].t"][0] == 1
    assert other == ["file r.json .integration.corrections: 1 -> 2",
                     "file r.json .pass: True -> False"]
    changed["loci"].pop()
    _, other = compare.numeric_differences(
        _result(files={"r.json": json.dumps(doc)}), _result(files={"r.json": json.dumps(changed)}))
    assert "file r.json .loci: 2 -> 1 items" in other


def test_every_parity_corpus_spec_loads(tmp_path):
    """Each corpus spec loads, but the three whose initial frame load_spec
    must reject and the domains over the substep and sample limits, each
    for its own reason."""
    from hypframe import load_spec
    from hypframe.pipeline import SpecValidationError

    path = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "parity_corpus.py")
    spec = importlib.util.spec_from_file_location("parity_corpus", path)
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    paths = corpus.corpus(str(tmp_path / "corpus"))
    assert len(paths) == len(set(paths)) == 3 + 4 * 5 + len(corpus.EXTRA_SEEDS) + len(corpus.QUARTETS)
    rejected = {"frame_nonfinite": "initial_frame: non-finite component in MinkVec: inf",
                "frame_pairing": "initial_frame: initial frame pairing residual 5.000e-11 "
                                 "exceeds 1e-12",
                "frame_flipped": "initial_frame: initial frame orientation must satisfy",
                "huge_domain": "domain: asks for 500000000000000000 substeps, over the "
                               "limit of 10000000$",
                "huge_samples": "domain.samples: asks for 10000000 samples, over the limit"}
    names = set()
    for p in paths:
        reason = rejected.pop(os.path.basename(p)[:-len(".json")], None)
        if reason is None:
            names.add(load_spec(p).name)
            continue
        with pytest.raises(SpecValidationError, match="^" + reason):
            load_spec(p)
    assert rejected == {}
    assert {"swallowtail_family", "gen_h", "boosted", "d_refinement", "whole_fiber"} <= names


def test_relative_trees_and_specs_are_run_from_absolute_paths(tmp_path, monkeypatch, capsys):
    """Each run starts in a fresh working directory: relative paths that are
    not resolved first are not found there, and both trees then fail alike."""
    for tree in ("old", "new"):
        (tmp_path / tree / "src" / "hypframe").mkdir(parents=True)
    (tmp_path / "spec.json").write_text("{}", encoding="utf-8")
    calls = []
    monkeypatch.setattr(compare, "run_one",
                        lambda tree, spec, sub, work: calls.append((tree, spec)) or _result())
    monkeypatch.chdir(tmp_path)
    assert compare.main(["old", "new", "spec.json"]) == 0
    spec = str(tmp_path / "spec.json")
    assert calls == [(str(tmp_path / tree), spec)
                     for _ in compare.SUBCOMMANDS for tree in ("old", "new")]
    assert capsys.readouterr().out.splitlines()[-1] == "7 runs, 0 differ"


@pytest.mark.parametrize("args", [["old", "new", "missing.json"],
                                  ["old", "absent", "spec.json"]], ids=["spec", "tree"])
def test_a_missing_spec_or_tree_is_an_error(tmp_path, monkeypatch, capsys, args):
    for tree in ("old", "new"):
        (tmp_path / tree / "src" / "hypframe").mkdir(parents=True)
    (tmp_path / "spec.json").write_text("{}", encoding="utf-8")
    monkeypatch.setattr(compare, "run_one", lambda *a: pytest.fail("ran a subcommand"))
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        compare.main(args)
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith(
        "not found: " + str(tmp_path / args[1 if args[1] == "absent" else 2]))


def test_each_place_names_the_values_behind_its_largest_differences():
    """A sign flip at rounding level has a relative difference of 2; the
    line for its place shows both values, so it reads as noise, and the
    largest absolute difference keeps its own pair."""
    old = _result(files={"loci.csv": "t,lambda\n0.5,1e-16\n0.75,3.0\n"})
    new = _result(files={"loci.csv": "t,lambda\n0.5,-1e-16\n0.75,3.0000000000000004\n"})
    floats, other = compare.numeric_differences(old, new)
    assert other == []
    assert floats.places["file loci.csv"] == [2, pytest.approx(4.4e-16), 2.0]
    assert floats.pairs["file loci.csv"] == [(3.0, 3.0000000000000004), (1e-16, -1e-16)]
    assert floats.line("file loci.csv") == (
        "2 differ, max abs 4.441e-16 (3.0 -> 3.0000000000000004), "
        "max rel 2.000e+00 (1e-16 -> -1e-16)")
