"""The definedness scan against the public point functions, on random
low-degree polynomial and trigonometric quartets."""

from hypothesis import given, settings
from hypothesis import strategies as st

from hypframe import (CurvatureQuartet, dual_of_evolute_d, dual_of_evolute_h,
                      evolute_d, evolute_h, focal_d_point, focal_h_point,
                      integrate_frame)
from hypframe.errors import FrameDegenerateError, SurfaceUndefinedError
from hypframe.focal import SURFACES, defined_runs
from hypframe.pipeline import classified_loci

# each surface's public point function, at fiber parameter 0
POINT = {
    "focal_h": lambda model, t: focal_h_point(model, t, 0.0),
    "focal_d": lambda model, t: focal_d_point(model, t, 0.0),
    "evolute_h": evolute_h,
    "evolute_d": evolute_d,
    "dual_eh": lambda model, t: dual_of_evolute_h(model, t, 0.0),
    "dual_ed": lambda model, t: dual_of_evolute_d(model, t, 0.0),
}

coef = st.integers(-25, 25).map(lambda k: k / 10)
poly = st.tuples(coef, coef, coef).map(
    lambda c: f"({c[0]}) + ({c[1]})*t + ({c[2]})*t^2")
trig = st.tuples(coef, coef, st.sampled_from(["sin", "cos"]), st.integers(1, 3)).map(
    lambda c: f"({c[0]}) + ({c[1]})*{c[2]}({c[3]}*t)")
quartets = st.tuples(*[st.one_of(poly, trig)] * 4)


def _accepts(point, model, t) -> bool:
    try:
        point(model, t)
    except (SurfaceUndefinedError, FrameDegenerateError):
        return False
    return True


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(quartets)
def test_runs_match_point_functions_and_classification_holds(quartet):
    model = integrate_frame(CurvatureQuartet.from_strings(*quartet), (-1.6, 1.6, 41))
    runs = defined_runs(model)
    assert list(runs) == list(SURFACES) == list(POINT)
    for name, point in POINT.items():
        inside = {i for run in runs[name] for i in run}
        accepted = {i for i, t in enumerate(model.ts) if _accepts(point, model, float(t))}
        assert inside == accepted, name
    classified_loci(model, runs)
