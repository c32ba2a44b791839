import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ddimaging.decomposition import (
    OverlapLayout,
    bands,
    consensus_norm_sq,
    essential_domain,
    partition_rect,
    restrict_global,
    stack_sum,
)
from ddimaging.fields import inner, norm2
from ddimaging.models import ChanVese, HessianL1, TVL1Deblur, integrand, stencil_of
from ddimaging.operators import BlurKernel
from ddimaging.solvers import DecoupledAlm, default_inner

from conftest import BackwardTVDenoise, on_grid


# the stencils of the three shipped models; the stencil does not depend on
# the data or the weights, only on the operators (and the blur's width)
_F = np.full((2, 2), 0.5)
CCV = stencil_of(ChanVese(f=_F, alpha=1.0, c1=0.6, c2=0.1))
HESSL1 = stencil_of(HessianL1(f=_F, alpha=1.0))


def tvl1(halfwidth):
    return stencil_of(TVL1Deblur(f=_F, alpha=1.0, kernel=BlurKernel(halfwidth)))


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------


def test_bands_split_like_array_split():
    # sizes differ by at most one, the larger first, as in numpy's
    # array_split, with every edge a Python int
    assert bands(5, 2) == [0, 3, 5]
    for total in range(40):
        for parts in range(1, 12):
            edges = bands(total, parts)
            sizes = [len(b) for b in np.array_split(np.arange(total), parts)]
            assert edges == [0] + np.cumsum(sizes).tolist(), (total, parts)
            assert all(type(e) is int for e in edges)


def test_partition_2x2_of_4x4():
    tiles = partition_rect((4, 4), 2, 2)
    assert tiles == [(0, 2, 0, 2), (0, 2, 2, 4), (2, 4, 0, 2), (2, 4, 2, 4)]


def test_partition_remainder_goes_first():
    tiles = partition_rect((5, 4), 2, 1)
    assert tiles == [(0, 3, 0, 4), (3, 5, 0, 4)]


def test_partition_disjoint_cover_many_shapes():
    rng = np.random.default_rng(0)
    for _ in range(40):
        m = int(rng.integers(1, 12))
        n = int(rng.integers(1, 12))
        p = int(rng.integers(1, m + 1))
        q = int(rng.integers(1, n + 1))
        tiles = partition_rect((m, n), p, q)
        cover = np.zeros((m, n), dtype=int)
        for i0, i1, j0, j1 in tiles:
            assert 0 <= i0 < i1 <= m and 0 <= j0 < j1 <= n
            cover[i0:i1, j0:j1] += 1
        assert (cover == 1).all()
        heights = sorted({i1 - i0 for i0, i1, _, _ in tiles})
        assert heights[-1] - heights[0] <= 1


def test_partition_rejects_too_many_tiles():
    try:
        partition_rect((3, 3), 4, 1)
    except ValueError:
        pass
    else:
        raise AssertionError("empty tiles accepted")
    # tile counts are integers >= 1, and the message names them
    for bad in (0, -1, 2.0, 2.5, True, None):
        for name, call in (
                ("p", lambda: partition_rect((8, 8), bad, 2)),
                ("q", lambda: partition_rect((8, 8), 2, bad)),
                ("p", lambda: OverlapLayout.from_grid((8, 8), bad, 2, CCV))):
            try:
                call()
            except ValueError as exc:
                assert f"{name} must be an integer >= 1, got {bad!r}" in str(exc)
            else:
                raise AssertionError(f"{name}={bad!r} accepted")
    assert partition_rect((4, 4), np.int64(2), 2) == partition_rect((4, 4), 2, 2)


# ---------------------------------------------------------------------------
# essential domains, frozen shapes
# ---------------------------------------------------------------------------


def _mask(shape, pixels):
    m = np.zeros(shape, dtype=bool)
    for i, j in pixels:
        m[i, j] = True
    return m


def test_forward_one_of_top_left_tile():
    core = np.zeros((4, 4), dtype=bool)
    core[0:2, 0:2] = True
    got = essential_domain(core, CCV)
    want = _mask((4, 4), [(0, 0), (0, 1), (1, 0), (1, 1),
                          (2, 0), (2, 1), (0, 2), (1, 2)])
    assert np.array_equal(got, want)


def test_band_one_of_center_pixel():
    core = _mask((5, 5), [(2, 2)])
    got = essential_domain(core, tvl1(1))
    want = np.zeros((5, 5), dtype=bool)
    want[1:4, 1:4] = True
    assert np.array_equal(got, want)


def test_backfwd_of_single_pixel():
    core = _mask((4, 4), [(1, 1)])
    got = essential_domain(core, HESSL1)
    # plus shape with the two anti-diagonal corners, no main-diagonal ones
    want = _mask((4, 4), [(1, 1), (0, 1), (2, 1), (1, 0), (1, 2),
                          (0, 2), (2, 0)])
    assert np.array_equal(got, want)


def test_band_subsumes_forward_one():
    rng = np.random.default_rng(1)
    for _ in range(20):
        core = np.zeros((7, 8), dtype=bool)
        i0, j0 = int(rng.integers(0, 5)), int(rng.integers(0, 6))
        core[i0:i0 + int(rng.integers(1, 3)), j0:j0 + int(rng.integers(1, 3))] = True
        fwd = essential_domain(core, CCV)
        band = essential_domain(core, tvl1(1))
        assert (fwd <= band).all()


def test_enlargements_clip_to_grid():
    core = np.ones((3, 3), dtype=bool)
    for st in (CCV, tvl1(2), HESSL1):
        got = essential_domain(core, st)
        assert got.shape == (3, 3)
        assert got.all()
    # a band wider than the grid claims all of it
    core = np.zeros((5, 4), dtype=bool)
    core[3, 1] = True
    assert essential_domain(core, tvl1(10**6)).all()


def test_backward_gradient_enlarges_up_and_left():
    # the tile plus its one-pixel up and left shifts: no enlargement rule
    # written by hand matched this operator exactly
    f = np.full((7, 8), 0.5)
    layout = OverlapLayout.from_grid(f.shape, 3, 2, stencil_of(BackwardTVDenoise(f=f)))
    for s, (i0, i1, j0, j1) in enumerate(layout.tiles):
        tile = np.zeros(f.shape, dtype=bool)
        tile[i0:i1, j0:j1] = True
        want = tile.copy()
        want[:-1] |= tile[1:]
        want[:, :-1] |= tile[:, 1:]
        assert np.array_equal(on_grid(layout, s, layout.tilde[s]), want), s


def _band_2d_loop(mask, l):
    """Reference: the OR over the (2l+1)^2 offsets of the zero-padded mask."""
    m, n = mask.shape
    padded = np.pad(mask, l)
    out = np.zeros_like(mask)
    for di in range(-l, l + 1):
        for dj in range(-l, l + 1):
            out |= padded[l + di:l + di + m, l + dj:l + dj + n]
    return out


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(m=st.integers(1, 14), n=st.integers(1, 14), l=st.integers(1, 5),
       density=st.floats(0.0, 0.5), seed=st.integers(0, 2**32 - 1))
def test_band_matches_2d_loop(m, n, l, density, seed):
    mask = np.random.default_rng(seed).random((m, n)) < density
    # the blur's footprint takes in the gradient's
    got = essential_domain(mask, tvl1(l))
    assert np.array_equal(got, _band_2d_loop(mask, l))


# ---------------------------------------------------------------------------
# perturbation oracle: sufficiency and minimality of the enlargements
# ---------------------------------------------------------------------------


def _models_for(shape, rng, halfwidth=1):
    f = rng.uniform(0.1, 0.9, size=shape)
    return [
        ChanVese(f=f, alpha=1.0, c1=0.6, c2=0.1),
        TVL1Deblur(f=f, alpha=2.0, kernel=BlurKernel(halfwidth)),
        HessianL1(f=f, alpha=1.5),
    ]


def perturbation_check(model, layout, rng):
    """Verify each enlarged mask is sufficient and minimal for the integrand.

    Sufficiency: rewriting everything outside the enlarged mask leaves the
    integrand on the core bit-identical (three independent rewrites).
    Minimality: bumping any single pixel of the enlarged mask changes the
    integrand somewhere on its core (generic base image).
    """
    m, n = layout.shape
    u = rng.uniform(0.15, 0.85, size=(m, n))
    for s in range(layout.count):
        core = on_grid(layout, s, layout.core[s])
        tilde = on_grid(layout, s, layout.tilde[s])
        base = integrand(model, u)[core]
        assert np.isfinite(base).all()
        outside = ~tilde
        for _ in range(3):
            v = u.copy()
            v[outside] = rng.uniform(0.15, 0.85, size=int(outside.sum()))
            assert np.array_equal(integrand(model, v)[core], base), (
                "outside pixels leak into the core integrand", s)
        for i, j in zip(*np.nonzero(tilde)):
            v = u.copy()
            v[i, j] += 0.031
            if not np.array_equal(integrand(model, v)[core], base):
                continue
            raise AssertionError(
                f"pixel ({i},{j}) in the enlargement never affects core {s}")


def run_perturbation_oracle(shape, rng, halfwidth=1):
    m, n = shape
    for model in _models_for(shape, rng, halfwidth):
        st = stencil_of(model)
        for p in range(1, m + 1):
            for q in range(1, n + 1):
                layout = OverlapLayout.from_grid(shape, p, q, st)
                perturbation_check(model, layout, rng)


def test_perturbation_oracle_4x4():
    run_perturbation_oracle((4, 4), np.random.default_rng(7))


def test_perturbation_oracle_wider_band_4x4():
    run_perturbation_oracle((4, 4), np.random.default_rng(8), halfwidth=2)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(m=st.integers(1, 7), n=st.integers(1, 7), halfwidth=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_perturbation_oracle_random_grids(m, n, halfwidth, seed, data):
    # any grid up to 7x7, square or not, any tile counts (one-pixel tiles
    # included) and blur kernels up to 7 pixels wide, wider than most tiles;
    # and a backward gradient, whose footprint no shipped model has
    p = data.draw(st.integers(1, m), label="p")
    q = data.draw(st.integers(1, n), label="q")
    rng = np.random.default_rng(seed)
    backward = BackwardTVDenoise(f=rng.uniform(0.1, 0.9, size=(m, n)), alpha=1.5)
    for model in _models_for((m, n), rng, halfwidth) + [backward]:
        layout = OverlapLayout.from_grid((m, n), p, q, stencil_of(model))
        perturbation_check(model, layout, rng)


# ---------------------------------------------------------------------------
# layouts and consensus
# ---------------------------------------------------------------------------


def project(packed, layout):
    """The consensus projection of a packed field."""
    return restrict_global(stack_sum(packed, layout) / layout.counts, layout)


def random_packed(rng, layout):
    """Independent standard normal copies, zero off each enlarged mask."""
    on_patch = restrict_global(np.ones(layout.shape), layout)
    return rng.standard_normal(on_patch.shape) * on_patch


def test_layout_masks_cover_and_contain():
    layout = OverlapLayout.from_grid((6, 7), 2, 3, CCV)
    assert layout.count == 6
    core = np.stack([on_grid(layout, s, c) for s, c in enumerate(layout.core)])
    tilde = np.stack([on_grid(layout, s, t) for s, t in enumerate(layout.tilde)])
    assert (core.sum(axis=0) == 1).all()
    assert (core <= tilde).all()
    assert tilde.any(axis=0).all()
    assert layout.counts.min() >= 1.0
    assert np.array_equal(layout.interface, layout.counts >= 2)


def test_layout_is_linear_in_the_grid():
    # every mask lives on its window, so the layout holds O(M*N) bytes
    # whatever the subdomain count; (S, M, N) masks would take 2*S bytes a pixel
    for tiles in (8, 32):
        layout = OverlapLayout.from_grid((256, 256), tiles, tiles, CCV)
        arrays = [layout.counts, layout.interface, *layout.core, *layout.tilde]
        assert sum(a.nbytes for a in arrays) <= 16 * 256 * 256, tiles


def _shipped_models(f):
    """The three shipped models, TV-L1 at blur halfwidths 1 to 4."""
    return [ChanVese(f=f, alpha=1.0, c1=0.6, c2=0.1), HessianL1(f=f, alpha=1.0)] + [
        TVL1Deblur(f=f, alpha=1.0, kernel=BlurKernel(l)) for l in range(1, 5)]


@settings(derandomize=True, database=None, deadline=None, max_examples=125)
@given(m=st.integers(1, 12), n=st.integers(1, 12), data=st.data())
def test_windows_share_one_shape_and_hold_their_patches(m, n, data):
    # every shipped model's stencil on random grids and tile counts; every
    # partition has tiles on all four image edges, and one-pixel tiles are
    # included
    p = data.draw(st.integers(1, m), label="p")
    q = data.draw(st.integers(1, n), label="q")
    f = np.full((m, n), 0.5)
    for model in _shipped_models(f):
        stencil = stencil_of(model)
        layout = OverlapLayout.from_grid((m, n), p, q, stencil)
        shape = layout.tilde.shape[1:]
        assert layout.core.shape == layout.tilde.shape == (layout.count, *shape)
        heights, widths = [], []
        for s, (rs, cs) in enumerate(layout.windows):
            assert (rs.stop - rs.start, cs.stop - cs.start) == shape
            assert 0 <= rs.start and rs.stop <= m and 0 <= cs.start and cs.stop <= n
            tilde = on_grid(layout, s, layout.tilde[s])
            rows = np.flatnonzero(tilde.any(axis=1))
            cols = np.flatnonzero(tilde.any(axis=0))
            assert rs.start <= rows[0] and rows[-1] < rs.stop
            assert cs.start <= cols[0] and cols[-1] < cs.stop
            # the window meets every image edge its patch's bounding box meets
            assert rows[0] > 0 or rs.start == 0
            assert rows[-1] < m - 1 or rs.stop == m
            assert cols[0] > 0 or cs.start == 0
            assert cols[-1] < n - 1 or cs.stop == n
            heights.append(rows[-1] + 1 - rows[0])
            widths.append(cols[-1] + 1 - cols[0])
            grown = essential_domain(on_grid(layout, s, layout.core[s]), stencil)
            assert np.array_equal(tilde, grown)
        # the shape is the largest bounding box of any enlarged mask
        assert shape == (max(heights), max(widths))
        alm = DecoupledAlm(model, layout, 1.0, default_inner(model, 1.0))
        assert alm.u.shape == alm.lam.shape == layout.tilde.shape


def test_layout_counts_forward_one_cross():
    layout = OverlapLayout.from_grid((4, 4), 2, 2, CCV)
    # the pixel just below-right of the cross point is claimed three times
    assert layout.counts.max() == 3.0
    assert layout.counts[2, 2] == 3.0


def test_single_subdomain_is_whole_grid():
    layout = OverlapLayout.from_grid((5, 6), 1, 1, tvl1(2))
    assert layout.tilde[0].shape == (5, 6) and layout.tilde[0].all()
    assert (layout.counts == 1.0).all()
    packed = restrict_global(np.arange(30.0).reshape(5, 6), layout)
    assert np.array_equal(project(packed, layout), packed)


def test_consensus_average_example():
    layout = OverlapLayout.from_grid((4, 4), 2, 1, CCV)
    packed = restrict_global(np.ones((4, 4)), layout)
    packed[1:] *= 3.0
    out = project(packed, layout)
    tilde = [on_grid(layout, s, t) for s, t in enumerate(layout.tilde)]
    copies = [on_grid(layout, s, out[s]) for s in range(2)]
    shared = tilde[0] & tilde[1]
    assert (copies[0][shared] == 2.0).all()
    assert (copies[1][shared] == 2.0).all()
    only0 = tilde[0] & ~shared
    assert (copies[0][only0] == 1.0).all()


def test_consensus_idempotent_bitwise():
    rng = np.random.default_rng(2)
    layout = OverlapLayout.from_grid((8, 9), 2, 3, tvl1(1))
    once = project(random_packed(rng, layout), layout)
    twice = project(once, layout)
    assert np.array_equal(once, twice)


def test_consensus_self_adjoint_and_nonexpansive():
    rng = np.random.default_rng(3)
    for st in (CCV, tvl1(2), HESSL1):
        layout = OverlapLayout.from_grid((7, 7), 2, 2, st)
        for _ in range(20):
            a = random_packed(rng, layout)
            b = random_packed(rng, layout)
            lhs = inner(project(a, layout), b)
            rhs = inner(a, project(b, layout))
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
            assert norm2(project(a, layout)) <= norm2(a) * (1 + 1e-12)


def test_jump_vanishes_after_projection():
    rng = np.random.default_rng(4)
    layout = OverlapLayout.from_grid((6, 6), 3, 2, HESSL1)
    packed = random_packed(rng, layout)
    proj = project(packed, layout)
    tilde = [on_grid(layout, s, t) for s, t in enumerate(layout.tilde)]
    pairs = 0
    for s in range(layout.count):
        for t in range(s + 1, layout.count):
            shared = tilde[s] & tilde[t]
            if shared.any():
                pairs += 1
                jump = (on_grid(layout, s, proj[s])
                        - on_grid(layout, t, proj[t]))
                assert np.abs(jump)[shared].max() == 0.0
    assert pairs > 0
    assert norm2(proj - project(proj, layout)) <= 1e-12


def test_restrict_then_assemble_roundtrip():
    rng = np.random.default_rng(5)
    layout = OverlapLayout.from_grid((9, 5), 3, 2, CCV)
    u = rng.standard_normal((9, 5))
    packed = restrict_global(u, layout)
    assert np.allclose(stack_sum(packed, layout) / layout.counts, u,
                       rtol=0, atol=1e-15)


def test_assemble_ignores_inconsistency_direction():
    rng = np.random.default_rng(6)
    layout = OverlapLayout.from_grid((6, 8), 2, 2, tvl1(1))
    packed = random_packed(rng, layout)
    a = stack_sum(packed, layout) / layout.counts
    b = stack_sum(project(packed, layout), layout) / layout.counts
    assert np.allclose(a, b, rtol=0, atol=1e-13)


def test_stack_sum_keeps_channels_and_checks_shapes():
    rng = np.random.default_rng(7)
    layout = OverlapLayout.from_grid((16, 16), 2, 2, CCV)
    s, h, w = layout.core.shape
    packed = rng.standard_normal((2, s, h, w))
    total = stack_sum(packed, layout)
    assert total.shape == (2, 16, 16)
    for k in range(2):
        assert np.array_equal(total[k], stack_sum(packed[k], layout))
    # one copy too few or too many, a window of another shape, no stack
    for bad in ((s - 1, h, w), (s + 1, h, w), (s, h + 1, w), (h, w)):
        with pytest.raises(ValueError) as exc:
            stack_sum(np.zeros(bad), layout)
        assert str(bad) in str(exc.value) and str((s, h, w)) in str(exc.value)
    # an image larger, smaller or with channels
    for bad in ((20, 20), (10, 10), (2, 16, 16)):
        with pytest.raises(ValueError) as exc:
            restrict_global(np.zeros(bad), layout)
        assert str(bad) in str(exc.value) and str(layout.shape) in str(exc.value)


def test_consensus_norm_sq_matches_stacked_norm():
    rng = np.random.default_rng(8)
    layout = OverlapLayout.from_grid((7, 6), 2, 2, CCV)
    packed = random_packed(rng, layout)
    proj = project(packed, layout)
    avg = stack_sum(packed, layout) / layout.counts
    assert abs(consensus_norm_sq(avg, layout) - norm2(proj) ** 2) <= 1e-10


def test_pythagoras_for_projection():
    rng = np.random.default_rng(9)
    layout = OverlapLayout.from_grid((6, 6), 2, 3, HESSL1)
    packed = random_packed(rng, layout)
    proj = project(packed, layout)
    res = norm2(packed - proj)
    lhs = norm2(packed) ** 2
    rhs = norm2(proj) ** 2 + res ** 2
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, lhs)


def test_layout_rejects_overlapping_tiles():
    try:
        OverlapLayout((4, 4), [(0, 3, 0, 4), (2, 4, 0, 4)], CCV)
    except ValueError:
        pass
    else:
        raise AssertionError("overlapping tiles accepted")


def test_layout_rejects_gap():
    try:
        OverlapLayout((4, 4), [(0, 2, 0, 4)], CCV)
    except ValueError:
        pass
    else:
        raise AssertionError("uncovered pixels accepted")


def test_layout_rejects_empty_and_outside_tiles():
    for tiles in ([(0, 4, 0, 4), (2, 2, 0, 4)], [(0, 4, 0, 5)],
                  [(-1, 4, 0, 4)]):
        try:
            OverlapLayout((4, 4), tiles, CCV)
        except ValueError as exc:
            assert "empty or leaves" in str(exc)
        else:
            raise AssertionError(f"tiles {tiles} accepted")
