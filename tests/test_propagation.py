"""The batched propagation kernel against the substep-by-substep oracle:
same exponential bit for bit, same frames within rounding, same result
whatever the chunking."""

import numpy as np
import pytest

from hypframe import propagation as kernel
from hypframe.errors import InvalidInputError
from hypframe.framedcurve import CurvatureQuartet, FrameSample, integrate_frame
from hypframe.symexpr import vectorized

from oracles import expm4 as expm4_scalar
from oracles import propagate_loop

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


def test_expm4_against_scipy():
    scipy_linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(71)
    xs = np.array([rng.uniform(-2.0, 2.0, (4, 4)) for _ in range(50)])
    for x, e in zip(xs, kernel.expm4(xs)):
        ref = scipy_linalg.expm(x)
        err = np.abs(e - ref).max()
        # both sides accumulate ~1e-13 relative through the squaring phase
        assert err <= 1e-12 * (1.0 + np.abs(ref).max())


def test_expm4_matches_scalar_oracle_bitwise():
    rng = np.random.default_rng(79)
    xs = rng.uniform(-1.0, 1.0, (500, 4, 4))
    norms = np.exp(rng.uniform(np.log(1e-3), np.log(6.0), 500))
    xs *= (norms / np.abs(xs).sum(axis=2).max(axis=1))[:, None, None]
    # sign matrices scaled to row-sum norms exactly on the halving
    # boundaries (and just off them), and the zero matrix
    signs = rng.choice([-1.0, 1.0], (6, 4, 4))
    edges = signs * (np.array([2.0 ** -5, 2.0 ** -4, 1.0, 4.0, 3 * 2.0 ** -5, 0.0]) / 4)[:, None, None]
    xs = np.concatenate([xs, edges])
    halvings = set()
    for x, e in zip(xs, kernel.expm4(xs)):
        assert np.array_equal(e, expm4_scalar(x))
        halvings.add(int(np.ceil(np.log2(max(np.abs(x).sum(axis=1).max() * 32, 1.0)))))
    assert len(halvings) >= 8  # the stack really mixes squaring counts


def test_orthonormalize_restores_frame():
    rng = np.random.default_rng(73)
    for _ in range(20):
        f = np.eye(4) + rng.uniform(-1e-4, 1e-4, (4, 4))
        g = kernel.pseudo_orthonormalize(f)
        assert kernel.gram_residual(g) <= 1e-14
        assert np.abs(g - f).max() <= 1e-3


def test_orthonormalize_a_stack_as_each_frame_alone():
    """One call on a stack restores every frame with the bits of a call on
    it alone, boosted frames (|F| about 1e6) included."""
    rng = np.random.default_rng(74)
    c = kernel.coefficient_matrix_values(1.0, 1.0, 2.0, 0.0)
    boosted = np.array([kernel.expm4((t * c)[None])[0] for t in (15.0, 25.0, 30.0)])
    frames = np.concatenate([np.eye(4) + rng.uniform(-1e-4, 1e-4, (21, 4, 4)),
                             boosted * (1.0 + rng.uniform(-1e-9, 1e-9, (3, 4, 4)))])
    assert np.abs(frames).max() > 1e6
    want = np.array([kernel.pseudo_orthonormalize(f) for f in frames])
    for stack in (frames, frames.reshape(4, 6, 4, 4)):
        got = kernel.pseudo_orthonormalize(stack).reshape(want.shape)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("quartet", [ROADMAP_QUARTET, CONSTANT_QUARTET],
                         ids=["roadmap", "constant"])
def test_propagate_matches_oracle_loop(quartet):
    node_vals, hs, substeps = _node_data(quartet, 0.0, 40.0, 200, 100)
    f0 = FrameSample.standard(0.0).matrix()
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
def test_chunking_is_bit_identical(monkeypatch, nsub):
    node_vals, hs, substeps = _node_data(ROADMAP_QUARTET, 0.0, 3.0, 23, nsub)
    f0 = FrameSample.standard(0.0).matrix()
    whole = kernel.propagate(node_vals, hs, substeps, f0, 1e-10)
    for chunk in (nsub, 3 * nsub, 5 * nsub + 1):
        monkeypatch.setattr(kernel, "CHUNK_SUBSTEPS", chunk)
        out = kernel.propagate(node_vals, hs, substeps, f0, 1e-10)
        assert np.array_equal(out[0], whole[0])
        assert out[1:] == whole[1:]


def test_interval_longer_than_a_chunk(monkeypatch):
    node_vals, hs, substeps = _node_data(ROADMAP_QUARTET, 0.0, 3.0, 4, 50)
    f0 = FrameSample.standard(0.0).matrix()
    monkeypatch.setattr(kernel, "CHUNK_SUBSTEPS", 16)  # 4 segments per interval
    frames = kernel.propagate(node_vals, hs, substeps, f0, 1e-10)[0]
    ref = propagate_loop(node_vals, hs, substeps, f0, 1e-10)[0]
    assert _relative(frames, ref) <= 1e-12


def test_nonuniform_substeps_rejected():
    node_vals, hs, substeps = _node_data(ROADMAP_QUARTET, 0.0, 1.0, 4, 5)
    f0 = FrameSample.standard(0.0).matrix()
    uneven = np.array([5, 4, 6, 5])
    with pytest.raises(InvalidInputError):
        kernel.propagate(node_vals, hs, uneven, f0, 1e-10)
    with pytest.raises(InvalidInputError):
        kernel.propagate(node_vals[:-1], hs, substeps, f0, 1e-10)


def test_integrate_frame_matches_oracle_loop(monkeypatch):
    q = CurvatureQuartet.from_strings("1", "1", "2", "0")
    model = integrate_frame(q, (0.0, 1.0, 11), step=1e-3)
    assert max(s.pairing_residual() for s in model.samples()) <= 1e-9
    assert model.max_drift <= model.tol.frame
    assert model.max_drift_t in model.ts
    monkeypatch.setattr(kernel, "propagate", propagate_loop)
    ref = integrate_frame(q, (0.0, 1.0, 11), step=1e-3)
    assert _relative(model.frames, ref.frames) <= 1e-12
