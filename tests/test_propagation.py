"""The batched propagation kernel against the substep-by-substep oracle
and against exact exponentials: the same exponential within rounding,
the same frames within rounding, the same result whatever the chunking."""

import importlib.util
import json
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypframe import propagation as kernel
from hypframe.errors import InvalidInputError
from hypframe.framedcurve import CurvatureQuartet, integrate_frame
from hypframe.symexpr import FUNCTIONS, eval_expr, vectorized
from hypframe.tolerances import DEFAULT

from oracles import chunk_propagators_without_reuse, gram_one
from oracles import expm4 as expm4_scalar
from oracles import propagate_loop, propagate_per_sample

ROADMAP_QUARTET = ("sin(t)", "1", "2+0.5*cos(t)", "0.2*t")
CONSTANT_QUARTET = ("0.2", "1", "2", "0")


def _node_data(quartet_strings, t0, t1, nint, nsub):
    q = CurvatureQuartet.from_strings(*quartet_strings)
    dt = (t1 - t0) / nint
    hs = np.full(nint, dt / nsub)
    substeps = np.full(nint, nsub, dtype=np.int64)
    starts = (t0 + dt * np.arange(nint)[:, None]
              + (dt / nsub) * np.arange(nsub)[None, :]).ravel()
    node_ts = np.stack([starts + kernel.GAUSS_C1 * dt / nsub,
                        starts + kernel.GAUSS_C2 * dt / nsub], axis=1)
    node_vals = np.empty((len(starts), 2, 4))
    for j, e in enumerate(q):
        node_vals[:, :, j] = vectorized(e)(node_ts)
    return node_vals, hs, substeps


def _relative(frames, ref):
    return np.abs(frames - ref).max() / np.abs(ref).max()


def _generators(rng, count, lo, hi):
    """count so(3,1) generators (m, n, a, b) with row-sum norms of C(w)
    log-uniform in [lo, hi]."""
    w = rng.uniform(-1.0, 1.0, (count, 4))
    norms = np.exp(rng.uniform(np.log(lo), np.log(hi), count))
    return w * (norms / _row_sum_norm(w))[:, None]


def _row_sum_norm(w):
    return np.abs(kernel.coefficient_matrix_values(*w.T)).sum(axis=2).max(axis=1)


def _edge_generators(rng):
    """Generators whose C(w) has row-sum norm exactly on the halving
    boundaries (and just off them), null generators (n = 0, m^2 = a^2 + b^2:
    C(w) nilpotent) and the zero generator."""
    signs = rng.choice([-1.0, 1.0], (7, 4))
    # |m| + |a| + |b| = norm is the largest row sum
    edges = signs * np.array([0.25, 0.25, 0.25, 0.5]) * np.array(
        [2.0 ** -5, 2.0 ** -4, 1.0, 4.0, 3 * 2.0 ** -5, 2.0 ** -5 * (1 + 2.0 ** -52),
         2.0 ** -5 * (1 - 2.0 ** -53)])[:, None]
    null = np.array([[5.0, 0.0, 3.0, 4.0], [-5.0, 0.0, 4.0, -3.0], [1.0, 0.0, 0.0, 1.0]])
    null = null[:, None] * np.array([1e-4, 2.0 ** -7, 0.1, 0.7])[:, None]
    return np.concatenate([edges, null.reshape(-1, 4), np.zeros((1, 4))])


def test_expm_generator_against_scipy():
    scipy_linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(71)
    ws = rng.uniform(-2.0, 2.0, (50, 4))
    for w, e in zip(ws, kernel.expm_generator(ws)):
        ref = scipy_linalg.expm(kernel.coefficient_matrix_values(*w))
        err = np.abs(e - ref).max()
        # both sides accumulate ~1e-13 relative through the squaring phase
        assert err <= 1e-12 * (1.0 + np.abs(ref).max())


def test_expm_generator_matches_taylor_oracle():
    """The basis form against the 12-term Taylor sum of the full matrix,
    on the halving boundaries and across squaring counts."""
    rng = np.random.default_rng(79)
    ws = np.concatenate([_generators(rng, 500, 1e-3, 6.0), _edge_generators(rng)])
    halvings = set()
    for w, e in zip(ws, kernel.expm_generator(ws)):
        x = kernel.coefficient_matrix_values(*w)
        ref = expm4_scalar(x)
        assert np.abs(e - ref).max() <= 1e-12 * (1.0 + np.abs(ref).max())
        halvings.add(int(np.ceil(np.log2(max(np.abs(x).sum(axis=1).max() * 32, 1.0)))))
    assert len(halvings) >= 8  # the stack really mixes squaring counts


def test_expm_generator_against_mpmath():
    """Within rounding of the exact exponential (50 digits) where no halving
    is needed, and within the squaring phase's growth where it is."""
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(83)
    ws = np.concatenate([_generators(rng, 120, 1e-4, 6.0), _edge_generators(rng)])
    got = kernel.expm_generator(ws)
    assert np.array_equal(got[-1], np.eye(4))
    with mpmath.workdps(50):
        for w, e in zip(ws, got):
            ref = mpmath.expm(mpmath.matrix(kernel.coefficient_matrix_values(*w).tolist()))
            ref = np.array(ref.tolist(), dtype=float)
            bound = 2.5e-16 if _row_sum_norm(w[None])[0] <= 2.0 ** -5 else 1e-12
            assert np.abs(e - ref).max() <= bound * (1.0 + np.abs(ref).max()), w


def test_expm_generator_stack_matches_each_alone():
    rng = np.random.default_rng(89)
    ws = np.concatenate([_generators(rng, 200, 1e-4, 6.0), _edge_generators(rng)])
    stack = kernel.expm_generator(ws)
    for w, e in zip(ws, stack):
        assert np.array_equal(e.view(np.int64), kernel.expm_generator(w[None])[0].view(np.int64))


def _every_substep(node_vals, h):
    """_substep_propagators computing every substep, repeated or not."""
    w1, w2, h = node_vals[:, 0], node_vals[:, 1], h[:, None]
    return (kernel.expm_generator(h * (kernel._CF4_B * w1 + kernel._CF4_A * w2))
            @ kernel.expm_generator(h * (kernel._CF4_A * w1 + kernel._CF4_B * w2)))


def _repeated_substeps():
    """(node_vals, h) of hand-built substeps: runs of equal rows, singletons,
    a change of h inside a run of equal node values, a -0.0/0.0 pair and NaN
    rows."""
    rng = np.random.default_rng(97)
    a, b, c = rng.uniform(-2.0, 2.0, (3, 2, 4))
    zero, negzero = c.copy(), c.copy()
    zero[0, 2], negzero[0, 2] = 0.0, -0.0
    nan = np.full((2, 4), np.nan)
    rows = [a, a, a, b, c, c, c, c, zero, negzero, nan, nan, nan, a, b, b]
    h = [1e-2] * 6 + [2e-2] * 2 + [1e-2] * 8
    return np.array(rows), np.array(h)


def test_substep_propagators_bit_identical_to_each_row_alone():
    node_vals, h = _repeated_substeps()
    with np.errstate(invalid="ignore"):
        got = kernel._substep_propagators(node_vals, h)
        want = [_every_substep(node_vals[i:i + 1], h[i:i + 1])[0] for i in range(len(h))]
    assert np.isnan(got[10:13]).all() and np.isfinite(np.delete(got, [10, 11, 12], axis=0)).all()
    assert np.array_equal(got.view(np.int64), np.array(want).view(np.int64))


def _perfbench_quartet(name, seed):
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "specgen.py")
    spec = importlib.util.spec_from_file_location("specgen", path)
    specgen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(specgen)
    return json.loads(specgen.generate(name, seed))["curvature"]


@pytest.mark.parametrize("seed", range(1, 6))
@pytest.mark.parametrize("name", ["bounded", "boosted"])
def test_uncorrected_frames_match_mpmath_expm(name, seed):
    """With corrections disabled, the frames of a long constant-quartet
    integration are expm(t C) F0 within 1e-11 of max |F|."""
    mpmath = pytest.importorskip("mpmath")
    curvature = _perfbench_quartet(name, seed)
    quartet = [curvature[k] for k in "mnab"]
    model = integrate_frame(CurvatureQuartet.from_strings(*quartet), (0.0, 40.0, 201),
                            tol=DEFAULT.with_overrides({"frame": 1e300}))
    assert model.corrections == 0
    c = kernel.coefficient_matrix_values(*map(float, quartet))
    with mpmath.workdps(50):
        step = mpmath.expm(mpmath.matrix((model.ts[1] * c).tolist()))
        f = mpmath.matrix(model.frames[0].tolist())
        ref = []
        for _ in model.ts:
            ref.append(np.array(f.tolist(), dtype=float))
            f = step * f
    assert _relative(model.frames, np.array(ref)) <= 1e-11


@pytest.mark.parametrize("seed", range(1, 21))
def test_boosted_frames_and_dense_output_follow_expm(seed):
    """perfbench's boosted quartets, whose frames left expm(t C) F0 by up to
    1.1 (relative) or turned to NaN: at the samples, and at 400 off-grid t
    through frames_at, within 1e-10 of |F|, with at most one
    re-orthonormalization."""
    scipy_linalg = pytest.importorskip("scipy.linalg")
    curvature = _perfbench_quartet("boosted", seed)
    quartet = [curvature[k] for k in "mnab"]
    model = integrate_frame(CurvatureQuartet.from_strings(*quartet), (0.0, 40.0, 201))
    assert model.corrections <= 1
    c = kernel.coefficient_matrix_values(*map(float, quartet))
    off = np.random.default_rng(seed).uniform(0.0, 40.0, 400)
    for ts, frames in ((model.ts, model.frames), (off, model.frames_at(off))):
        exact = np.array([scipy_linalg.expm(t * c) for t in ts])
        err = np.abs(frames - exact).max(axis=(1, 2)) / np.abs(exact).max(axis=(1, 2))
        assert err.max() <= 1e-10, ts[np.argmax(err)]


def test_orthonormalize_restores_frame():
    rng = np.random.default_rng(73)
    for _ in range(20):
        f = np.eye(4) + rng.uniform(-1e-4, 1e-4, (4, 4))
        g = kernel.pseudo_orthonormalize(f)
        assert kernel.gram_residual(g) <= 1e-14
        assert np.abs(g - f).max() <= 1e-3


@pytest.mark.parametrize("quartet", [ROADMAP_QUARTET, CONSTANT_QUARTET],
                         ids=["roadmap", "constant"])
def test_propagate_matches_oracle_loop(quartet):
    node_vals, hs, substeps = _node_data(quartet, 0.0, 40.0, 200, 100)
    f0 = np.eye(4)
    frames = kernel.propagate(node_vals, hs, substeps, f0, 1e-10)[0]
    ref = propagate_loop(node_vals, hs, substeps, f0, 1e-10)[0]
    assert _relative(frames, ref) <= 1e-10


def test_constant_quartet_against_scipy_expm():
    scipy_linalg = pytest.importorskip("scipy.linalg")
    q = CurvatureQuartet.from_strings(*CONSTANT_QUARTET)
    model = integrate_frame(q, (0.0, 40.0, 201))
    c = kernel.coefficient_matrix_values(0.2, 1.0, 2.0, 0.0)
    ref = np.array([scipy_linalg.expm(t * c) for t in model.ts])
    assert _relative(model.frames, ref) <= 1e-10


@pytest.mark.parametrize("nsub", [1, 2, 7, 16])
@pytest.mark.parametrize("quartet", [ROADMAP_QUARTET, CONSTANT_QUARTET],
                         ids=["roadmap", "constant"])
def test_chunking_is_bit_identical(monkeypatch, quartet, nsub):
    """Whatever the chunking, and so whatever runs of repeated substeps a
    chunk holds, the frames and counts are the same bits."""
    node_vals, hs, substeps = _node_data(quartet, 0.0, 3.0, 23, nsub)
    f0 = np.eye(4)
    whole = kernel.propagate(node_vals, hs, substeps, f0, 1e-10)
    for chunk in (nsub, 3 * nsub, 5 * nsub + 1):
        monkeypatch.setattr(kernel, "CHUNK_SUBSTEPS", chunk)
        out = kernel.propagate(node_vals, hs, substeps, f0, 1e-10)
        assert np.array_equal(out[0], whole[0])
        assert out[1:] == whole[1:]


def test_interval_longer_than_a_chunk(monkeypatch):
    node_vals, hs, substeps = _node_data(ROADMAP_QUARTET, 0.0, 3.0, 4, 50)
    f0 = np.eye(4)
    monkeypatch.setattr(kernel, "CHUNK_SUBSTEPS", 16)  # 4 segments per interval
    frames = kernel.propagate(node_vals, hs, substeps, f0, 1e-10)[0]
    ref = propagate_loop(node_vals, hs, substeps, f0, 1e-10)[0]
    assert _relative(frames, ref) <= 1e-12


@pytest.mark.parametrize("nsub, chunk", [(7, 2048), (50, 16)], ids=["chunks", "segments"])
def test_reused_substeps_give_the_bits_of_computed_ones(monkeypatch, nsub, chunk):
    """A constant quartet, whose substeps all repeat, propagates to the same
    bits as when every substep is exponentiated, through whole-interval
    chunks and through the segments of an interval longer than a chunk."""
    node_vals, hs, substeps = _node_data(CONSTANT_QUARTET, 0.0, 40.0, 20, nsub)
    f0 = np.eye(4)
    monkeypatch.setattr(kernel, "CHUNK_SUBSTEPS", chunk)
    reused = kernel.propagate(node_vals, hs, substeps, f0, 1e-10)
    monkeypatch.setattr(kernel, "_substep_propagators", _every_substep)
    computed = kernel.propagate(node_vals, hs, substeps, f0, 1e-10)
    assert np.array_equal(reused[0].view(np.int64), computed[0].view(np.int64))
    assert reused[1:] == computed[1:]


@pytest.mark.parametrize("quartet", [("1", "1", "2", "0"), ROADMAP_QUARTET],
                         ids=["constant", "roadmap"])
def test_chunk_size_does_not_change_the_frames(monkeypatch, quartet):
    """On [0, 40] (200 intervals of 100 substeps), an interval in segments of
    64, one interval a chunk and 20 a chunk give the same frames to the
    bit.  The constant quartet exponentiates the substeps of its first
    interval, and every later interval takes its product; in segments of
    64 and 36, it exponentiates the first segment of each length."""
    q = CurvatureQuartet.from_strings(*quartet)
    calls, expm = [], kernel.expm_generator
    monkeypatch.setattr(kernel, "expm_generator", lambda w: calls.append(len(w)) or expm(w))
    frames = []
    for chunk in (64, 100, 2048):
        monkeypatch.setattr(kernel, "CHUNK_SUBSTEPS", chunk)
        calls.clear()
        model = integrate_frame(q, (0.0, 40.0, 201))
        assert model.step == 2e-3
        frames.append(model.frames.view(np.int64))
        if quartet[0] == "1":
            assert calls == ([64, 64, 36, 36] if chunk == 64 else [100, 100]), chunk
    assert all(np.array_equal(f, frames[0]) for f in frames[1:])


def _bits(out):
    """The bytes of propagate's frames and of its four counts, NaN included."""
    return out[0].tobytes(), np.array(out[1:], dtype=float).tobytes()


def test_gram_check_of_a_stack_has_the_bits_of_each_frame_alone():
    """For every stack length from 1 to 40, and for a strided stack, the
    stacked Gram check gives each frame's residual and drift as one 2-D
    product of that frame gives them, bit for bit; gram_residual and
    gram_drift are its length-1 case."""
    rng = np.random.default_rng(101)
    group = kernel.expm_generator(_generators(rng, 40, 1e-3, 30.0))  # |F| up to about e^30
    noise = rng.standard_normal((40, 4, 4)) * np.exp(rng.uniform(-8.0, 8.0, (40, 1, 1)))
    wide = np.concatenate([group, noise])
    for n in range(1, 41):
        for stack in (group[:n], noise[-n:], wide[::2][:n], wide[1::2][-n:]):
            want = np.array([gram_one(f) for f in stack])
            assert np.column_stack(kernel.gram_check(stack)).tobytes() == want.tobytes(), n
    assert not wide[::2].flags.c_contiguous
    for f in wide:
        assert np.array([kernel.gram_residual(f), kernel.gram_drift(f)]).tobytes() == \
            np.array(gram_one(f)).tobytes()


@pytest.mark.parametrize("nsub, chunk", [(7, 7 + 1), (7, 3 * 7 + 1), (7, 5 * 7 + 1),
                                         (50, 16)],
                         ids=["1_interval", "3_intervals", "5_intervals", "segments"])
@pytest.mark.parametrize("quartet", [CONSTANT_QUARTET, ROADMAP_QUARTET, "runs"],
                         ids=["constant", "roadmap", "runs"])
def test_reused_intervals_give_the_bits_of_the_no_reuse_oracle(monkeypatch, quartet, nsub,
                                                              chunk):
    """Chunks of 1, 3 and 5 intervals (and one substep more), and the
    segments of an interval longer than a chunk: the interval propagators,
    and the frames and counts of propagate, are those of the oracle that
    exponentiates every substep and reuses no product, bit for bit.  "runs"
    holds node values constant over runs of 1 to 3 * nsub + 2 substeps, which
    start anywhere in an interval."""
    node_vals, hs, substeps = _node_data(CONSTANT_QUARTET if quartet == "runs" else quartet,
                                         0.0, 40.0, 24, nsub)
    if quartet == "runs":
        rng = np.random.default_rng(nsub + chunk)
        lengths = rng.integers(1, 3 * nsub + 3, len(node_vals))
        starts = np.cumsum(lengths)[np.cumsum(lengths) < len(node_vals)]
        node_vals = np.repeat(rng.uniform(-0.2, 0.2, (len(starts) + 1, 2, 4)),
                              np.diff(starts, prepend=0, append=len(node_vals)), axis=0)
    monkeypatch.setattr(kernel, "CHUNK_SUBSTEPS", chunk)
    got = np.concatenate([p for _, p in kernel.chunk_propagators(node_vals, hs, nsub)])
    want = next(chunk_propagators_without_reuse(node_vals, hs, nsub))[1]
    assert got.tobytes() == want.tobytes()
    reused = kernel.propagate(node_vals, hs, substeps, np.eye(4), 1e-10)
    monkeypatch.setattr(kernel, "chunk_propagators", chunk_propagators_without_reuse)
    assert _bits(reused) == _bits(kernel.propagate(node_vals, hs, substeps, np.eye(4), 1e-10))


def _counting_tree_product(monkeypatch):
    """The interval counts that each call of kernel._tree_product is handed."""
    counted, tree = [], kernel._tree_product
    monkeypatch.setattr(kernel, "_tree_product", lambda m: counted.append(len(m)) or tree(m))
    return counted


@pytest.mark.parametrize("chunk", [100, 300, 501, 2048])
def test_constant_quartet_multiplies_out_one_interval(monkeypatch, chunk):
    """A constant quartet on 200 intervals of 100 substeps runs the tree
    product on one interval per integration, whatever the chunking: every
    later interval repeats the bits of the one before it and takes its
    product.  A non-constant quartet runs it on every interval."""
    counted = _counting_tree_product(monkeypatch)
    monkeypatch.setattr(kernel, "CHUNK_SUBSTEPS", chunk)
    for quartet, intervals in ((CONSTANT_QUARTET, 1), (ROADMAP_QUARTET, 200)):
        counted.clear()
        integrate_frame(CurvatureQuartet.from_strings(*quartet), (0.0, 40.0, 201))
        assert sum(counted) == intervals, quartet


@pytest.mark.parametrize("nsub, computed", [(50, [16, 2]), (48, [16])], ids=["partial", "whole"])
def test_each_segment_of_a_long_interval_exponentiates_once(monkeypatch, nsub, computed):
    """In segments of 16, a constant quartet's segment that repeats the last
    segment of its length, in bits, takes its product; every other segment
    exponentiates its substeps, once.  Intervals of 50 substeps (16, 16, 16,
    2) compute the first segment of each length, those of 48 only the first
    segment of all.  A non-constant quartet computes every segment, each
    with one call per exponential."""
    counted = _counting_tree_product(monkeypatch)
    calls, expm = [], kernel.expm_generator
    monkeypatch.setattr(kernel, "expm_generator", lambda w: calls.append(len(w)) or expm(w))
    monkeypatch.setattr(kernel, "CHUNK_SUBSTEPS", 16)
    for quartet, segments in ((CONSTANT_QUARTET, len(computed)),
                              (ROADMAP_QUARTET, 4 * -(-nsub // 16))):
        node_vals, hs, _ = _node_data(quartet, 0.0, 40.0, 4, nsub)
        counted.clear()
        calls.clear()
        got = np.concatenate([p for _, p in kernel.chunk_propagators(node_vals, hs, nsub)])
        assert counted == [1] * segments and len(calls) == 2 * segments, quartet
        if quartet is CONSTANT_QUARTET:
            assert calls == [k for k in computed for _ in range(2)]
        want = next(chunk_propagators_without_reuse(node_vals, hs, nsub))[1]
        assert got.tobytes() == want.tobytes(), quartet


def test_long_interval_constant_computes_two_segments(monkeypatch):
    """The corpus spec long_interval_constant, 10 intervals of 2,500
    substeps, each in segments of 2,048 and 452: the tree product runs on
    the first segment of each length, two pieces per integration, and the
    propagators are the no-reuse oracle's, bit for bit."""
    counted = _counting_tree_product(monkeypatch)
    model = integrate_frame(CurvatureQuartet.from_strings(*CONSTANT_QUARTET), (0.0, 50.0, 11))
    assert model.step == 2e-3 and counted == [1, 1]
    node_vals, hs, _ = _node_data(CONSTANT_QUARTET, 0.0, 50.0, 10, 2500)
    counted.clear()
    got = np.concatenate([p for _, p in kernel.chunk_propagators(node_vals, hs, 2500)])
    assert counted == [1, 1]
    want = next(chunk_propagators_without_reuse(node_vals, hs, 2500))[1]
    assert got.tobytes() == want.tobytes()


_CONSTANT_PIECES = st.builds("{:.3f}".format, st.floats(-2.0, 2.0))


def _pieces(c):
    """A curvature component: a constant, a polynomial, a trig piece or a
    tanh that saturates to bit-constant values from about t = c + 0.5."""
    return st.one_of(
        _CONSTANT_PIECES,
        st.builds("{:.2f}+{:.2f}*t+{:.2f}*t^2".format, *[st.floats(-1.0, 1.0)] * 3),
        st.builds("{:.2f}*sin({:.1f}*t)+{:.2f}*cos(t)".format, st.floats(-1.0, 1.0),
                  st.floats(0.5, 5.0), st.floats(-1.0, 1.0)),
        st.just(f"2+tanh(40*(t-{c:.2f}))"))


@st.composite
def _reuse_cases(draw):
    """(quartet, nint, chunk, nsub): a constant quartet or one of any
    pieces, and nsub above the chunk, half the time a multiple of it."""
    pieces = _CONSTANT_PIECES if draw(st.booleans()) else _pieces(draw(st.floats(0.0, 2.5)))
    quartet = tuple(draw(pieces) for _ in range(4))
    chunk = draw(st.integers(2, 12))
    rest = draw(st.one_of(st.just(chunk), st.integers(1, chunk - 1)))
    return quartet, draw(st.integers(1, 6)), chunk, draw(st.integers(1, 4)) * chunk + rest


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(_reuse_cases())
def test_reuse_keeps_the_bits_of_the_no_reuse_oracle(case):
    """Whatever the quartet and the chunk, for intervals longer than a chunk
    the propagators are the no-reuse oracle's, bit for bit, and a constant
    quartet computes at most one piece of each length per integration."""
    quartet, nint, chunk, nsub = case
    node_vals, hs, _ = _node_data(quartet, 0.0, 3.0, nint, nsub)
    with pytest.MonkeyPatch.context() as mp:
        counted = _counting_tree_product(mp)
        mp.setattr(kernel, "CHUNK_SUBSTEPS", chunk)
        got = np.concatenate([p for _, p in kernel.chunk_propagators(node_vals, hs, nsub)])
        want = next(chunk_propagators_without_reuse(node_vals, hs, nsub))[1]
    assert got.tobytes() == want.tobytes()
    if all("t" not in piece for piece in quartet):
        assert counted == [1] * len({chunk, nsub % chunk} - {0})


@pytest.mark.parametrize("chunk", [3, 7, 9, 18])
@pytest.mark.parametrize("differ", ["negative_zero", "h_bits"])
def test_an_interval_that_differs_in_bits_only_is_recomputed(monkeypatch, differ, chunk):
    """Six intervals of three substeps, each pair the same bits, where
    intervals 2 and 4 differ from the one before them only in one node
    value's sign bit (-0.0 against 0.0), or only in the bits of h: those
    two are multiplied out anew, inside a chunk or at its start, and every
    propagator is the no-reuse oracle's, bit for bit."""
    base = np.random.default_rng(103).uniform(-1.0, 1.0, (3, 2, 4))
    base[1, 0, 2] = 0.0
    other, hs = base.copy(), np.full(6, 0.01)
    if differ == "negative_zero":
        other[1, 0, 2] = -0.0
    else:
        hs[2:4] = np.nextafter(0.01, 1.0)
    node_vals = np.concatenate([base, base, other, other, base, base])
    counted = _counting_tree_product(monkeypatch)
    monkeypatch.setattr(kernel, "CHUNK_SUBSTEPS", chunk)
    got = np.concatenate([p for _, p in kernel.chunk_propagators(node_vals, hs, 3)])
    assert sum(counted) == 3
    want = next(chunk_propagators_without_reuse(node_vals, hs, 3))[1]
    assert got.tobytes() == want.tobytes()


def test_dense_output_gives_each_t_its_bits_alone(monkeypatch):
    """frames_at on a constant quartet at off-grid ts with equal offsets, one
    sixteenth after and before grid points, multiplies out one interval
    per sign of the offset, and gives each t the bits it gets alone."""
    model = integrate_frame(CurvatureQuartet.from_strings(*CONSTANT_QUARTET), (0.0, 8.0, 33))
    ts = np.concatenate([model.ts[:-1] + 0.0625, model.ts[1:] - 0.0625])
    counted = _counting_tree_product(monkeypatch)
    got = model.frames_at(ts)
    assert sum(counted) == 2
    for t, f in zip(ts, got):
        assert f.tobytes() == model.frames_at(np.array([t]))[0].tobytes(), t


# quartet, tol_correct and what the fallback meets
FALLBACK_CASES = {
    # perfbench's bounded quartet at seed 1: corrections at three samples
    "corrections": (("0.208455", "0.972180", "2.021199", "0"), 1e-13),
    # |F| grows like exp(30 t): the frames overflow and stop being finite
    "not_finite": (("30", "1", "2", "0"), 1e-10),
}


@pytest.mark.parametrize("chunk", [3, 41, 2048])
@pytest.mark.parametrize("case", FALLBACK_CASES)
def test_per_sample_fallback_keeps_every_bit(monkeypatch, case, chunk):
    """From the first sample that takes a correction or is not finite, a
    chunk goes one sample at a time: the frames, the corrections, both
    drifts and the worst index are the per-sample oracle's, bit for bit,
    from the standard frame and from one whose first sample is corrected."""
    quartet, tol = FALLBACK_CASES[case]
    node_vals, hs, substeps = _node_data(quartet, 0.0, 40.0, 400, 2)
    monkeypatch.setattr(kernel, "CHUNK_SUBSTEPS", chunk)
    off = np.eye(4)
    off[1, 2] = 1e-11  # a pairing residual of 1e-11
    for f0 in (np.eye(4), off):
        got = kernel.propagate(node_vals, hs, substeps, f0, tol)
        assert _bits(got) == _bits(propagate_per_sample(node_vals, hs, substeps, f0, tol))
        if case == "corrections":
            assert got[1] >= 3 and np.isfinite(got[0]).all()
        else:
            assert np.isnan(got[3]) and np.isnan(got[0][-1]).all()


@pytest.mark.parametrize("name", ["bounded", "boosted"])
def test_perfbench_corrections_keep_every_bit(monkeypatch, name):
    """perfbench's bounded and boosted quartets at seed 1 each take a
    correction: integrate_frame gives the frames, corrections, both drifts
    and max_drift_t of the per-sample oracle, bit for bit."""
    curvature = _perfbench_quartet(name, 1)
    q = CurvatureQuartet.from_strings(*(curvature[k] for k in "mnab"))

    def run():
        model = integrate_frame(q, (0.0, 40.0, 201))
        stats = (model.corrections, model.max_drift_raw, model.max_drift, model.max_drift_t)
        return model.frames.tobytes(), np.array(stats).tobytes(), model.corrections

    got = run()
    monkeypatch.setattr(kernel, "propagate", propagate_per_sample)
    assert got == run() and got[2] == 1


def test_nonuniform_substeps_rejected():
    node_vals, hs, substeps = _node_data(ROADMAP_QUARTET, 0.0, 1.0, 4, 5)
    f0 = np.eye(4)
    uneven = np.array([5, 4, 6, 5])
    with pytest.raises(InvalidInputError):
        kernel.propagate(node_vals, hs, uneven, f0, 1e-10)
    with pytest.raises(InvalidInputError):
        kernel.propagate(node_vals[:-1], hs, substeps, f0, 1e-10)


def test_integrate_frame_matches_oracle_loop(monkeypatch):
    """The frames of integrate_frame, streamed to the kernel over several
    chunks, match the oracle loop on every node value at once."""
    q = CurvatureQuartet.from_strings("1", "1", "2", "0")
    monkeypatch.setattr(kernel, "CHUNK_SUBSTEPS", 300)  # 100 substeps an interval: 4 chunks
    model = integrate_frame(q, (0.0, 1.0, 11), step=1e-3)
    assert max(kernel.gram_residual(f) for f in model.frames) <= 1e-9
    assert model.max_drift <= model.tol.frame
    assert model.max_drift_t in model.ts
    monkeypatch.setattr(kernel, "propagate",
                        lambda nodes, *rest: propagate_loop(nodes[:], *rest))
    ref = integrate_frame(q, (0.0, 1.0, 11), step=1e-3)
    assert _relative(model.frames, ref.frames) <= 1e-12


def test_integrator_nodes_round_as_eval_expr(monkeypatch):
    """The curvature values that integrate_frame hands to the kernel, one
    chunk at a time, are eval_expr's at each Gauss node of the whole domain,
    bit for bit, for every DSL function and for ^."""
    q = CurvatureQuartet.from_strings("sin(3*t)+cos(t)*tan(t)", "1+sinh(2*t)*tanh(3*t)",
                                      "2+cosh(t)+exp(t)*log(2+t)",
                                      "sqrt(1+t)*atan(t)+artanh(t/2)+t^3")
    sources = "".join(map(str, q))
    assert "^" in sources and all(name + "(" in sources for name in FUNCTIONS)
    handed, substeps = [], kernel._substep_propagators

    def spy(node_vals, h):
        handed.append(node_vals.copy())
        return substeps(node_vals, h)

    monkeypatch.setattr(kernel, "_substep_propagators", spy)
    monkeypatch.setattr(kernel, "CHUNK_SUBSTEPS", 120)  # 50 substeps an interval: 5 chunks
    model = integrate_frame(q, (-0.5, 0.5, 11))
    monkeypatch.undo()
    assert [len(v) for v in handed] == [100] * 5
    # the Gauss nodes of the whole domain, as one array
    h = (0.5 - -0.5) / 10 / 50
    starts = (model.ts[:-1][:, None] + h * np.arange(50)[None, :]).ravel()
    node_ts = np.column_stack([starts + kernel.GAUSS_C1 * h, starts + kernel.GAUSS_C2 * h])
    node_vals = np.concatenate(handed)
    for j, e in enumerate(q):
        want = np.array([eval_expr(e, t) for t in node_ts.ravel().tolist()])
        assert node_vals[:, :, j].ravel().tobytes() == want.tobytes(), j


def test_integration_holds_one_chunk_of_node_values():
    """200,000 substeps of a non-constant quartet peak under a budget set by
    the chunk, not by the substep count: the node values of the whole
    domain alone would take 12.8 MB."""
    q = CurvatureQuartet.from_strings("0.2*sin(t)", "1", "2", "0.1*cos(t)")
    # the kernel's temporaries take about 0.85 kB per substep of a chunk
    budget = 1536 * kernel.CHUNK_SUBSTEPS
    tracemalloc.start()
    try:
        model = integrate_frame(q, (0.0, 400.0, 201))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert model.step == 2e-3 and model.t1 == 400.0  # 200 intervals of 1000 substeps
    assert peak <= budget, (peak, budget)


def test_expm_generator_holds_four_stacks_of_a_chunk():
    """The exponentials of a chunk hold at most four (k, 4, 4) stacks at once,
    besides their (k,) coefficient vectors: Y, Y^2, the odd part and the
    result, or the result and the squaring's operands and product."""
    k = kernel.CHUNK_SUBSTEPS
    ws = _generators(np.random.default_rng(97), k, 1e-4, 6.0)
    tracemalloc.start()
    try:
        kernel.expm_generator(ws)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5.5 * k * 128, peak / (k * 128)  # one stack is k * 128 bytes
