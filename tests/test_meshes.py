"""Column meshes and the array OBJ writer against their one-point oracles.

`surface_grid` evaluates a mesh row by row over whole theta arrays, and
`export_obj` charts whole arrays and writes blocks of lines, each block
one uint8 array: `meshtext.repr_fields` gives each coordinate's repr from
exact float64 arithmetic, or from repr itself outside 1e-4 <= |x| < 1.
`oracles.surface_grid_loop` and `oracles.export_obj_loop` do the same one
point at a time, with repr and f-strings.  Grids must agree bit for bit,
OBJ files byte for byte, and errors word for word; repr_fields must give
repr's bytes on every float of a seeded differential draw.
"""

import filecmp
import json
import os
import tracemalloc

import numpy as np
import pytest

from hypframe import CurvatureQuartet, MinkVec, integrate_frame, load_spec, run_pipeline
from hypframe import focal, meshtext, pipeline
from hypframe.errors import InvalidInputError, NumericError, SurfaceUndefinedError
from hypframe.focal import defined_runs, surface_grid
from hypframe.pipeline import export_obj, project_hollow_ball, project_poincare

from oracles import POINT_CHARTS, export_obj_loop, surface_grid_loop

SPEC_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "specs")
COMMITTED = ("cuspidal_edge_hyperbolic", "cuspidal_edge_desitter", "swallowtail_family")
ALL_OUTPUTS = ["report", "loci_csv", "focal_h_obj", "focal_d_obj", "dual_eh_obj",
               "dual_ed_obj"]
CHARTS = {"focal_h": project_poincare, "focal_d": project_hollow_ball,
          "dual_eh": project_hollow_ball, "dual_ed": project_hollow_ball}

# name -> (m, n, a, b), (t0, t1, samples); theta on [-1, 1] at 5 samples.
# The first five are the gap and split specs of test_pipeline.py: surfaces
# on several runs, and frames that vanish between them.
QUARTETS = {
    "two_intervals": (("2.5*t^2-1", "1", "2", "0"), (-1.6, 1.6, 161)),
    "frame_gap": (("2", "1", "t", "0"), (-1.0, 1.0, 21)),
    "evolute_gap_sin": (("3*sin(t)", "1", "1.5", "0"), (-1.6, 1.6, 161)),
    "evolute_gap_cubic": (("3*t^3-t", "0.5", "1.5", "0"), (-1.6, 1.6, 161)),
    "sigma_threshold": (("t", "1", "2", "0"), (0.0, 1.7320508074, 11)),
    "generic": (("sin(t)", "1+0.1*t^2", "2+0.5*cos(t)", "0.2*t"), (-1.5, 1.5, 201)),
}


def _committed(name):
    spec = load_spec(os.path.join(SPEC_DIR, name + ".json"))
    model = integrate_frame(spec.quartet(), spec.domain)
    return model, np.linspace(*spec.theta)


def _quartet(name):
    curvature, domain = QUARTETS[name]
    return integrate_frame(CurvatureQuartet.from_strings(*curvature), domain), \
        np.linspace(-1.0, 1.0, 5)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the two sides must fail alike
        return type(exc), str(exc)


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("case", [*COMMITTED, "two_intervals", "frame_gap", "generic"])
def test_grids_and_obj_match_the_oracle(tmp_path, case):
    model, thetas = _committed(case) if case in COMMITTED else _quartet(case)
    runs = defined_runs(model)
    for surface, chart in CHARTS.items():
        grids = []
        for run in runs[surface]:
            ts = model.ts[run.start:run.stop]
            # the grid rows, then the off-grid midpoints, where frames are interpolated
            for rows in (ts, 0.5 * (ts[:-1] + ts[1:])):
                got = _outcome(surface_grid, model, surface, rows, thetas)
                want = _outcome(surface_grid_loop, model, surface, rows, thetas)
                if isinstance(want, tuple):
                    assert got == want, surface
                    continue
                assert _same_bits(got, want), surface
                grids.append(want)
        export_obj(grids, chart, tmp_path / "columns.obj")
        export_obj_loop(grids, chart, tmp_path / "loop.obj")
        assert (tmp_path / "columns.obj").read_bytes() \
            == (tmp_path / "loop.obj").read_bytes(), surface


def test_undefined_second_row_names_it(model_sigma_sign):
    # sigma_F = 12 - 4 t^2: the dual of the hyperbolic evolute exists at 0, not at 1.9
    args = (model_sigma_sign, "dual_eh", [0.0, 1.9], [-0.5, 0.5])
    with pytest.raises(SurfaceUndefinedError) as err:
        surface_grid(*args)
    assert str(err.value).startswith("grid point (i=1, j=0): ")
    assert _outcome(surface_grid_loop, *args) == (SurfaceUndefinedError, str(err.value))
    # with no theta there is no point to be undefined, as in the one-point loop
    assert surface_grid(*args[:3], []).shape == surface_grid_loop(*args[:3], []).shape == (2, 0, 4)


def test_non_finite_frame_raises_as_the_oracle():
    model = integrate_frame(CurvatureQuartet.from_strings("1", "1", "2", "0"), (0.0, 1.0, 11))
    model.frames = model.frames.copy()
    model.frames[4, 2, 1] = np.nan
    args = (model, "focal_h", model.ts[2:7], [-0.5, 0.0, 0.5])
    with pytest.raises(NumericError) as err:
        surface_grid(*args)
    assert str(err.value).startswith("grid point (i=2, j=0) at t=0.4: focal_h point MinkVec(")
    assert str(err.value).endswith(" is not on H3")
    assert _outcome(surface_grid_loop, *args) == (NumericError, str(err.value))


@pytest.mark.parametrize("bad", [[0.5, 1.0, 0.0, 0.0], [np.nan, 0.0, 0.0, 0.0],
                                 [-1.0, 0.0, 0.0, 0.0]], ids=["off", "nan", "pole"])
def test_bad_vertex_among_valid_ones_raises_as_the_loop(tmp_path, bad):
    # rows 0 and 2 are valid H3 points; the bad vertex is the second of row 1
    grid = np.empty((3, 3, 4))
    for i in range(3):
        for j in range(3):
            v = np.array([0.3 * i, 0.2 * j, 0.1])
            grid[i, j] = [np.sqrt(1.0 + v @ v), *v]
    grid[1, 1] = bad
    grid[2, 2] = [0.5, 1.0, 0.0, 0.0]  # a later bad vertex must not be the one named
    want = _outcome(export_obj_loop, [grid[:1], grid], project_poincare, tmp_path / "a.obj")
    assert isinstance(want, tuple)
    assert _outcome(export_obj, [grid[:1], grid], project_poincare, tmp_path / "b.obj") == want
    assert not os.path.exists(tmp_path / "b.obj")


@pytest.mark.parametrize("chart", [project_poincare, project_hollow_ball],
                         ids=["poincare", "hollow_ball"])
def test_one_point_charts_match_the_scalar_oracle(chart):
    rng = np.random.default_rng(71)
    points = []
    for _ in range(200):
        v = rng.normal(size=3) * 2.0
        if chart is project_poincare:
            points.append([np.sqrt(1.0 + v @ v), *v])
        else:
            x0 = rng.normal() * 2.0
            points.append([x0, *(v / np.linalg.norm(v) * np.sqrt(1.0 + x0 * x0))])
    points += [[0.5, 1.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0],
               [0.0, 1.0, 0.0, 0.0], [1e200, 1e200, 0.0, 0.0]]
    for p in points:
        x = MinkVec(*p)
        got, want = _outcome(chart, x), _outcome(POINT_CHARTS[chart], x)
        assert repr(got) == repr(want), p
        assert [type(y) for y in got] == [type(y) for y in want], p


def _quadric_grid(rows, cols, chart, scale=1.0):
    """A rows x cols grid of points on the quadric that chart maps: H3 for
    the Poincare ball, S31 for the hollow ball.  scale shrinks an H3 grid
    toward the chart's origin; S31 has no points near it."""
    i, j = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
    v = scale * np.stack([0.3 * i - 0.2, 0.1 * j + 0.05, 0.07 * (i - j)], axis=-1)
    if chart is project_poincare:
        return np.concatenate([np.sqrt(1.0 + (v * v).sum(axis=-1))[..., None], v], axis=-1)
    x0 = 0.4 * (i - j) + 0.1
    v *= (np.sqrt(1.0 + x0 * x0) / np.linalg.norm(v, axis=-1))[..., None]
    return np.concatenate([x0[..., None], v], axis=-1)


@pytest.mark.parametrize("chart", [project_poincare, project_hollow_ball],
                         ids=["poincare", "hollow_ball"])
@pytest.mark.parametrize("shapes", [
    [(1, 4)], [(5, 1)], [(3, 4), (0, 4), (2, 3)],
    [(5, meshtext.BLOCK // 2 + 7)],
    [(2, meshtext.BLOCK), (meshtext.BLOCK + 1, 2)],
    [(4, 5, 1e-5)],
], ids=["one_row", "one_column", "empty_between", "blocks_end_mid_block",
        "blocks_end_on_a_boundary", "near_origin"])
def test_edge_shapes_write_the_loop_bytes(tmp_path, chart, shapes):
    # no faces, no face lines, and face offsets across an empty patch; a
    # patch of 2.5 blocks of vertices and 2 blocks and a bit of faces; a
    # patch of exactly 2 blocks of vertices, then one of exactly 1 block of
    # faces; and (in the Poincare ball) coordinates below 1e-4 in magnitude,
    # each of which takes repr itself
    grids = [_quadric_grid(rows, cols, chart, *scale) for rows, cols, *scale in shapes]
    export_obj(grids, chart, tmp_path / "rows.obj")
    export_obj_loop(grids, chart, tmp_path / "loop.obj")
    assert (tmp_path / "rows.obj").read_bytes() == (tmp_path / "loop.obj").read_bytes()


def test_export_obj_holds_one_row_of_text(tmp_path):
    # two patches of a 1001 x 101 grid; a writer that holds the whole text peaks
    # at about 12 x the input, one that holds a patch's vertex lines at about 3 x
    grid = _quadric_grid(1001, 101, project_poincare)
    grids = [grid[:500], grid]
    budget = 2 * sum(g.nbytes for g in grids)
    tracemalloc.start()
    try:
        export_obj(grids, project_poincare, tmp_path / "fine.obj")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= budget, (peak, budget)


def _repr_draws(rng, n):
    """Floats for the differential test of repr_fields, each sign: uniform
    on (-1, 1) and on each decade of [1e-4, 1); the powers of ten from 1e-5
    to 1 and their neighbours 1 and 2 ulps away; decimals of 1 to 17
    significant digits and their neighbours (repr's 15-digit path, trailing
    zeros and all); powers of two and multiples of 2^-20, some of them
    midpoints of 16 or 17 digits; and floats that take repr itself: zeros,
    subnormals, |x| < 1e-4, |x| >= 1, infinities and nan."""
    tens = 10.0 ** np.arange(-5, 1)
    up, down, near = tens, tens, [tens]
    for _ in range(2):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, 0.0)
        near += [up, down]
    digits = rng.integers(1, 18, n)
    mantissas = rng.integers(10 ** (digits - 1), 10 ** digits)
    short = np.array([float(f"{m}e{e - k}") for m, k, e in
                      zip(mantissas.tolist(), digits.tolist(), rng.integers(-3, 1, n).tolist())])
    x = np.concatenate([
        rng.uniform(-1.0, 1.0, n), 10.0 ** rng.integers(-4, 0, n) * rng.uniform(1.0, 10.0, n),
        *near, short, np.nextafter(short, np.inf), np.nextafter(short, 0.0),
        2.0 ** np.arange(-20, 1), rng.integers(1, 2 ** 20, n) * 2.0 ** -20,
        [0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 9.999999999999999e-05, 1.0, 1.5,
         123.456, 1e16, 1.7976931348623157e308, np.inf, np.nan]])
    return np.concatenate([x, -x])


def test_repr_fields_match_repr():
    x = _repr_draws(np.random.default_rng(20181), 100_000)
    got = meshtext.lines("v", meshtext.repr_fields(x), 1).split(b"\n")[:-1]
    want = [b"v " + repr(y).encode() for y in x.tolist()]
    assert len(got) == len(want)
    wrong = [(y, g) for y, g, w in zip(x.tolist(), got, want) if g != w]
    assert not wrong, (len(wrong), wrong[:5])


def test_export_obj_rejects_an_unknown_projection(tmp_path):
    with pytest.raises(InvalidInputError, match="unknown projection"):
        export_obj(np.zeros((2, 2, 4)), lambda x: (0.0, 0.0, 0.0), tmp_path / "a.obj")


def _spec(tmp_path, name):
    if name in COMMITTED:
        with open(os.path.join(SPEC_DIR, name + ".json"), encoding="utf-8") as fh:
            doc = json.load(fh)
    else:
        curvature, (t0, t1, samples) = QUARTETS[name]
        doc = {"name": name, "curvature": dict(zip("mnab", curvature)),
               "domain": {"t0": t0, "t1": t1, "samples": samples},
               "theta": {"min": -1.0, "max": 1.0, "samples": 5}}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(dict(doc, outputs=ALL_OUTPUTS)), encoding="utf-8")
    return load_spec(str(path))


@pytest.mark.parametrize("name", [*COMMITTED, *list(QUARTETS)[:5]])
def test_run_outputs_match_the_one_point_pipeline(tmp_path, monkeypatch, name):
    """The end-to-end byte gate: every output file of a run is the same
    whether meshes are evaluated and written by columns or one point at a
    time."""
    spec = _spec(tmp_path, name)
    run_pipeline(spec, out_dir=str(tmp_path / "columns"))
    with monkeypatch.context() as patch:
        patch.setattr(focal, "surface_grid", surface_grid_loop)
        patch.setattr(pipeline, "export_obj", export_obj_loop)
        run_pipeline(spec, out_dir=str(tmp_path / "loop"))
    names = sorted(os.listdir(tmp_path / "loop"))
    assert sorted(os.listdir(tmp_path / "columns")) == names
    assert sum(n.endswith(".obj") for n in names) >= 1
    match, mismatch, errors = filecmp.cmpfiles(tmp_path / "loop", tmp_path / "columns",
                                               names, shallow=False)
    assert (mismatch, errors) == ([], [])
