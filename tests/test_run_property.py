"""The whole run over every DSL function.

Hypothesis draws curvature quartets built from all of symexpr.FUNCTIONS
and the four binary operators; the argument of log, sqrt, artanh or tan is
sometimes kept inside the function's domain and sometimes not.  `hypframe
run` either succeeds, and then every agreement of each correspondence leg
it checked holds, or run_pipeline raises a typed error: the CLI's exit code
is that of its kind, its message names its t, and every expression it
quotes parses.
"""

import contextlib
import io
import json
import os
import re
import tempfile
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from hypframe import cli, pipeline
from hypframe.errors import HypframeError, NumericError
from hypframe.symexpr import FUNCTIONS, parse_expr

# a function whose domain is not the whole line -> its application to an
# argument u that keeps inside the domain
INSIDE = {"log": "log(2+sin({}))", "sqrt": "sqrt(2+sin({}))",
          "artanh": "artanh(0.5*sin({}))", "tan": "tan(0.9*atan({}))"}

coef = st.integers(-300, 300).map(lambda k: str(k / 100))
leaf = st.one_of(st.just("t"), coef, coef.map(lambda c: f"{c}*t"))


def _apply(drawn) -> str:
    name, u, inside = drawn
    return INSIDE[name].format(u) if inside and name in INSIDE else f"{name}({u})"


def _extend(inner):
    binary = st.tuples(inner, st.sampled_from("+-*/"), inner).map(
        lambda x: f"({x[0]}){x[1]}({x[2]})")
    applied = st.tuples(st.sampled_from(FUNCTIONS), inner, st.booleans()).map(_apply)
    return st.one_of(binary, applied)


expressions = st.recursive(leaf, _extend, max_leaves=3)


def _run(quartet, tmp) -> tuple:
    """(exit code of `hypframe run`, its report or None, the error that
    run_pipeline raised or None) on the quartet over [-1.5, 1.5]."""
    spec = os.path.join(tmp, "spec.json")
    with open(spec, "w", encoding="utf-8") as fh:
        json.dump({"name": "drawn", "curvature": dict(zip("mnab", quartet)),
                   "domain": {"t0": -1.5, "t1": 1.5, "samples": 41},
                   "theta": {"min": -1.0, "max": 1.0, "samples": 5}}, fh)
    outcome, real = {}, pipeline.run_pipeline

    def recorded(*args, **kwargs):
        try:
            outcome["report"] = real(*args, **kwargs)
        except Exception as exc:
            outcome["error"] = exc
            raise
        return outcome["report"]

    with mock.patch.object(pipeline, "run_pipeline", recorded), \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["run", "--spec", spec, "--out", tmp])
    return code, outcome.get("report"), outcome.get("error")


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(st.tuples(*[expressions] * 4))
def test_run_succeeds_or_raises_a_located_typed_error(quartet):
    with tempfile.TemporaryDirectory() as tmp:
        code, report, error = _run(quartet, tmp)
    if error is None:
        assert code == 0
        for leg in report.data["correspondence"].values():
            if leg["status"] == "checked":
                assert all(leg["agreements"].values()), leg
        return
    assert isinstance(error, HypframeError), error
    assert code == (2 if isinstance(error, NumericError) else 1)
    text = str(error)
    assert re.search(r"\bt=", text), text
    for quoted in re.findall(r" in '([^']*)'", text):
        parse_expr(quoted)
