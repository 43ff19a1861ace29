"""The engine's record classes: how they behave and what importing them costs.

Most records are tuples: a vector operator or a default value that the
tuple base would take over silently is pinned here.  Only Expr, the one
expression node class, and FrenetSide are dataclasses, whose creation
writes each generated method through exec at import time.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from hypframe import MinkVec
from hypframe.errors import InvalidInputError
from hypframe.evolute import EvolutePointType, EvoluteSample, LegReport
from hypframe.focal import SingularPointRecord, SurfaceParam
from hypframe.pipeline import CurveSpec
from hypframe.tolerances import DEFAULT, Tolerances

DATACLASSES = ["Expr", "FrenetSide"]


def test_import_creates_only_the_walked_dataclasses():
    """perfbench's expression_counts walks Expr and FrenetSide
    with dataclasses.fields; no other class pays for dataclass creation."""
    code = ("import dataclasses\n"
            "made = []\n"
            "process = dataclasses._process_class\n"
            "def counted(cls, *args, **kwargs):\n"
            "    made.append(cls.__name__)\n"
            "    return process(cls, *args, **kwargs)\n"
            "dataclasses._process_class = counted\n"
            "import hypframe.cli\n"
            "print(' '.join(made))\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert sorted(out.stdout.split()) == sorted(DATACLASSES)


def test_minkvec_operators_are_vector_operations():
    v, w = MinkVec(1, 2, 3, 4), MinkVec(0.5, -1, 0, 2)
    assert v + w == MinkVec(1.5, 1, 3, 6)
    assert v - w == MinkVec(0.5, 3, 3, 2)
    assert v * 2.0 == 2.0 * v == MinkVec(2, 4, 6, 8)
    assert v * 2 == 2 * v == MinkVec(2, 4, 6, 8)
    # a NumPy scalar on the left multiplies too; it does not take v for a sequence
    for s in (np.float64(2.0), np.int64(2)):
        assert type(s * v) is MinkVec and s * v == MinkVec(2, 4, 6, 8)
    assert -v == MinkVec(-1, -2, -3, -4)
    for result in (v + w, v - w, v * 2.0, 2.0 * v, -v):
        assert type(result) is MinkVec
    assert all(type(c) is float for c in MinkVec(1, np.float64(2), 3, 4))


def test_minkvec_reports_its_first_non_finite_component():
    with pytest.raises(InvalidInputError, match=r"^non-finite component in MinkVec: nan$"):
        MinkVec(1, math.nan, math.inf, 0)
    with pytest.raises(InvalidInputError, match=r"^non-finite component in MinkVec: -inf$"):
        MinkVec.from_array([0.0, -math.inf, math.nan, 1.0])


def test_reprs_keep_their_text():
    v = MinkVec(1, 0.5, -2, 0)
    assert repr(v) == str(v) == "MinkVec(x0=1.0, x1=0.5, x2=-2.0, x3=0.0)"
    assert repr(SurfaceParam(0.25, -1.0)) == "SurfaceParam(t=0.25, theta=-1.0)"
    assert repr(DEFAULT) == ("Tolerances(frame=1e-09, zero=1e-10, sing=1e-08, dual=1e-08, "
                             "rank_rtol=1e-06)")
    assert repr(LegReport("skipped", reason="r")) == (
        "LegReport(status='skipped', reason='r', points=0, max_image_distance=None, "
        "agreements={}, failures=[], events=[])")


def test_with_overrides_texts():
    tol = DEFAULT.with_overrides({"sing": "1e-6", "dual": 0})
    assert tol == Tolerances(sing=1e-6, dual=0.0) and DEFAULT.sing == 1e-8
    with pytest.raises(InvalidInputError, match=r"^unknown tolerance 'causal'$"):
        DEFAULT.with_overrides({"causal": 1e-3})
    for bad in (-1.0, "x", math.inf, None):
        with pytest.raises(InvalidInputError, match=(
                rf"^tolerance 'zero' must be a finite number >= 0, got {bad!r}$")):
            DEFAULT.with_overrides({"zero": bad})


def test_default_built_records_share_no_mutable_value():
    one = CurveSpec("a", {}, (0.0, 1.0, 3), (0.0, 1.0, 3))
    two = CurveSpec("b", {}, (0.0, 1.0, 3), (0.0, 1.0, 3))
    assert one.tolerances == {} and one.tolerances is not two.tolerances
    vec = MinkVec(1, 0, 0, 0)
    samples = [EvoluteSample(0.0, vec, vec, EvolutePointType.REGULAR_POINT, 1.0, 0.0)
               for _ in range(2)]
    assert samples[0].diagnostics == {} and samples[0].diagnostics is not samples[1].diagnostics
    records = [SingularPointRecord("focal_h", SurfaceParam(0.0, 0.0), 0.0, 1.0) for _ in range(2)]
    assert records[0].diagnostics is not records[1].diagnostics
    legs = [LegReport("checked") for _ in range(2)]
    for name in ("agreements", "failures", "events"):
        assert getattr(legs[0], name) is not getattr(legs[1], name)


def test_mutable_records_compare_field_by_field():
    rec = SingularPointRecord("focal_h", SurfaceParam(0.0, 0.5), 0.0, 1.0)
    other = SingularPointRecord("focal_h", SurfaceParam(0.0, 0.5), 0.0, 1.0)
    assert rec == other
    other.diagnostics["branch"] = "a"
    assert rec != other
    assert LegReport("checked") == LegReport("checked") != LegReport("skipped")
    assert rec != LegReport("checked")
