import numpy as np
from hypothesis import given, settings, strategies as st

from ddimaging.decomposition import (
    OverlapLayout,
    Stencil,
    assemble_global,
    consensus_norm_sq,
    consensus_residual,
    essential_domain,
    partition_rect,
    project_consensus,
    restrict_global,
)
from ddimaging.fields import inner, norm2
from ddimaging.models import ChanVese, HessianL1, TVL1Deblur, integrand, stencil_of
from ddimaging.operators import BlurKernel


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------


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
    got = essential_domain(core, Stencil("forward1"))
    want = _mask((4, 4), [(0, 0), (0, 1), (1, 0), (1, 1),
                          (2, 0), (2, 1), (0, 2), (1, 2)])
    assert np.array_equal(got, want)


def test_band_one_of_center_pixel():
    core = _mask((5, 5), [(2, 2)])
    got = essential_domain(core, Stencil("band", 1))
    want = np.zeros((5, 5), dtype=bool)
    want[1:4, 1:4] = True
    assert np.array_equal(got, want)


def test_backfwd_of_single_pixel():
    core = _mask((4, 4), [(1, 1)])
    got = essential_domain(core, Stencil("backfwd"))
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
        fwd = essential_domain(core, Stencil("forward1"))
        band = essential_domain(core, Stencil("band", 1))
        assert (fwd <= band).all()


def test_enlargements_clip_to_grid():
    core = np.ones((3, 3), dtype=bool)
    for st in (Stencil("forward1"), Stencil("band", 2), Stencil("backfwd")):
        got = essential_domain(core, st)
        assert got.shape == (3, 3)
        assert got.all()


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
        core = layout.core[s]
        base = integrand(model, u)[core]
        assert np.isfinite(base).all()
        outside = ~layout.tilde[s]
        for _ in range(3):
            v = u.copy()
            v[outside] = rng.uniform(0.15, 0.85, size=int(outside.sum()))
            assert np.array_equal(integrand(model, v)[core], base), (
                "outside pixels leak into the core integrand", s)
        for i, j in zip(*np.nonzero(layout.tilde[s])):
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
    # included) and blur kernels up to 7 pixels wide, wider than most tiles
    p = data.draw(st.integers(1, m), label="p")
    q = data.draw(st.integers(1, n), label="q")
    rng = np.random.default_rng(seed)
    for model in _models_for((m, n), rng, halfwidth):
        layout = OverlapLayout.from_grid((m, n), p, q, stencil_of(model))
        perturbation_check(model, layout, rng)


# ---------------------------------------------------------------------------
# layouts and consensus
# ---------------------------------------------------------------------------


def test_layout_masks_cover_and_contain():
    layout = OverlapLayout.from_grid((6, 7), 2, 3, Stencil("forward1"))
    assert layout.count == 6
    assert (layout.core.sum(axis=0) == 1).all()
    assert (layout.core <= layout.tilde).all()
    assert layout.tilde.any(axis=0).all()
    assert layout.counts.min() >= 1.0
    assert np.array_equal(layout.interface, layout.counts >= 2)


def test_layout_counts_forward_one_cross():
    layout = OverlapLayout.from_grid((4, 4), 2, 2, Stencil("forward1"))
    # the pixel just below-right of the cross point is claimed three times
    assert layout.counts.max() == 3.0
    assert layout.counts[2, 2] == 3.0


def test_single_subdomain_is_whole_grid():
    layout = OverlapLayout.from_grid((5, 6), 1, 1, Stencil("band", 2))
    assert layout.tilde[0].all()
    assert (layout.counts == 1.0).all()
    stacked = restrict_global(np.arange(30.0).reshape(5, 6), layout)
    assert np.array_equal(project_consensus(stacked, layout), stacked)


def test_consensus_average_example():
    layout = OverlapLayout.from_grid((4, 4), 2, 1, Stencil("forward1"))
    stacked = np.zeros((2, 4, 4))
    stacked[0] = 1.0 * layout.tilde[0]
    stacked[1] = 3.0 * layout.tilde[1]
    out = project_consensus(stacked, layout)
    shared = layout.tilde[0] & layout.tilde[1]
    assert (out[0][shared] == 2.0).all()
    assert (out[1][shared] == 2.0).all()
    only0 = layout.tilde[0] & ~shared
    assert (out[0][only0] == 1.0).all()


def test_consensus_idempotent_bitwise():
    rng = np.random.default_rng(2)
    layout = OverlapLayout.from_grid((8, 9), 2, 3, Stencil("band", 1))
    stacked = rng.standard_normal((layout.count, 8, 9)) * layout.tilde
    once = project_consensus(stacked, layout)
    twice = project_consensus(once, layout)
    assert np.array_equal(once, twice)


def test_consensus_self_adjoint_and_nonexpansive():
    rng = np.random.default_rng(3)
    for st in (Stencil("forward1"), Stencil("band", 2), Stencil("backfwd")):
        layout = OverlapLayout.from_grid((7, 7), 2, 2, st)
        for _ in range(20):
            a = rng.standard_normal((layout.count, 7, 7)) * layout.tilde
            b = rng.standard_normal((layout.count, 7, 7)) * layout.tilde
            lhs = inner(project_consensus(a, layout), b)
            rhs = inner(a, project_consensus(b, layout))
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
            assert norm2(project_consensus(a, layout)) <= norm2(a) * (1 + 1e-12)


def test_jump_vanishes_after_projection():
    rng = np.random.default_rng(4)
    layout = OverlapLayout.from_grid((6, 6), 3, 2, Stencil("backfwd"))
    stacked = rng.standard_normal((layout.count, 6, 6)) * layout.tilde
    proj = project_consensus(stacked, layout)
    pairs = 0
    for s in range(layout.count):
        for t in range(s + 1, layout.count):
            shared = layout.tilde[s] & layout.tilde[t]
            if shared.any():
                pairs += 1
                assert np.abs(proj[s] - proj[t])[shared].max() == 0.0
    assert pairs > 0
    assert consensus_residual(proj, layout) <= 1e-12


def test_restrict_then_assemble_roundtrip():
    rng = np.random.default_rng(5)
    layout = OverlapLayout.from_grid((9, 5), 3, 2, Stencil("forward1"))
    u = rng.standard_normal((9, 5))
    stacked = restrict_global(u, layout)
    assert np.allclose(assemble_global(stacked, layout), u, rtol=0, atol=1e-15)


def test_assemble_ignores_inconsistency_direction():
    rng = np.random.default_rng(6)
    layout = OverlapLayout.from_grid((6, 8), 2, 2, Stencil("band", 1))
    stacked = rng.standard_normal((layout.count, 6, 8)) * layout.tilde
    a = assemble_global(stacked, layout)
    b = assemble_global(project_consensus(stacked, layout), layout)
    assert np.allclose(a, b, rtol=0, atol=1e-13)


def test_consensus_norm_sq_matches_stacked_norm():
    rng = np.random.default_rng(8)
    layout = OverlapLayout.from_grid((7, 6), 2, 2, Stencil("forward1"))
    stacked = rng.standard_normal((layout.count, 7, 6)) * layout.tilde
    proj = project_consensus(stacked, layout)
    avg = assemble_global(stacked, layout)
    assert abs(consensus_norm_sq(avg, layout) - norm2(proj) ** 2) <= 1e-10


def test_pythagoras_for_projection():
    rng = np.random.default_rng(9)
    layout = OverlapLayout.from_grid((6, 6), 2, 3, Stencil("backfwd"))
    stacked = rng.standard_normal((layout.count, 6, 6)) * layout.tilde
    proj = project_consensus(stacked, layout)
    res = consensus_residual(stacked, layout)
    lhs = norm2(stacked) ** 2
    rhs = norm2(proj) ** 2 + res ** 2
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, lhs)


def test_layout_rejects_overlapping_tiles():
    try:
        OverlapLayout((4, 4), [(0, 3, 0, 4), (2, 4, 0, 4)], Stencil("forward1"))
    except ValueError:
        pass
    else:
        raise AssertionError("overlapping tiles accepted")


def test_layout_rejects_gap():
    try:
        OverlapLayout((4, 4), [(0, 2, 0, 4)], Stencil("forward1"))
    except ValueError:
        pass
    else:
        raise AssertionError("uncovered pixels accepted")
