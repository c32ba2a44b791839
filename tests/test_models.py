import math
import re
import sys

import numpy as np
import pytest

from ddimaging.decomposition import OverlapLayout
from ddimaging.fields import magnitude
from ddimaging.models import (
    HESSIAN,
    TV,
    Block,
    ChanVese,
    HessianL1,
    TVL1Deblur,
    energy,
    integrand,
    salt_pepper,
    stencil_of,
    threshold_half,
)
from ddimaging.operators import BlurKernel, blur, grad_plus, hessian
from ddimaging.solvers import DecoupledAlm, default_inner

from conftest import BackwardTVDenoise


# ---------------------------------------------------------------------------
# energies, frozen values
# ---------------------------------------------------------------------------


def test_ccv_energy_checkerboard():
    f = np.array([[1.0, 0.0], [0.0, 1.0]])
    model = ChanVese(f=f, alpha=1.0, c1=1.0, c2=0.0)
    # g = (f-1)^2 - f^2 = 1 - 2f, so <u, g> at u = f is -2; TV of the
    # checkerboard under forward differences is sqrt(2) + 1 + 1
    want = -2.0 + math.sqrt(2.0) + 2.0
    assert abs(energy(model, f) - want) <= 1e-14


def test_ccv_energy_zero_field():
    f = np.array([[1.0, 0.0], [0.0, 1.0]])
    model = ChanVese(f=f, alpha=1.0, c1=1.0, c2=0.0)
    assert energy(model, np.zeros((2, 2))) == 0.0


def test_ccv_energy_infinite_off_box():
    f = np.ones((3, 3)) * 0.5
    model = ChanVese(f=f, alpha=1.0, c1=0.6, c2=0.1)
    u = np.full((3, 3), 0.5)
    u[1, 1] = 1.5
    assert energy(model, u) == math.inf
    u[1, 1] = -0.01
    assert energy(model, u) == math.inf


def test_parameters_default_on_the_fields():
    rng = np.random.default_rng(12)
    f = rng.uniform(0, 1, size=(9, 8))
    u = rng.uniform(0, 1, size=f.shape)
    k = BlurKernel(1)
    for short, full in ((ChanVese(f=f), ChanVese(f=f, alpha=10.0, c1=0.6, c2=0.1)),
                        (TVL1Deblur(f=f, kernel=k), TVL1Deblur(f=f, kernel=k, alpha=10.0)),
                        (HessianL1(f=f), HessianL1(f=f, alpha=1.0))):
        assert energy(short, u) == energy(full, u), type(short).__name__


def test_tvl1_identity_constant_zero():
    f = np.full((4, 5), 0.7)
    model = HessianL1(f=f, alpha=3.0)
    assert energy(model, f) == 0.0


def test_tvl1_energy_direct_sum():
    rng = np.random.default_rng(0)
    k = BlurKernel(1)
    for _ in range(10):
        f = rng.uniform(0, 1, size=(6, 7))
        u = rng.uniform(0, 1, size=(6, 7))
        model = TVL1Deblur(f=f, alpha=2.5, kernel=k)
        want = 2.5 * np.abs(blur(u, k) - f).sum() + magnitude(grad_plus(u)).sum()
        got = energy(model, u)
        assert abs(got - want) <= 1e-12 * (1.0 + abs(want))


def test_hessl1_energy_direct_sum():
    rng = np.random.default_rng(1)
    for _ in range(10):
        f = rng.uniform(0, 1, size=(5, 8))
        u = rng.uniform(0, 1, size=(5, 8))
        model = HessianL1(f=f, alpha=1.5)
        want = 1.5 * np.abs(u - f).sum() + magnitude(hessian(u)).sum()
        assert abs(energy(model, u) - want) <= 1e-12 * (1.0 + abs(want))


def test_energy_lower_bounds():
    rng = np.random.default_rng(2)
    f = rng.uniform(0, 1, size=(8, 8))
    ccv = ChanVese(f=f, alpha=4.0, c1=0.6, c2=0.1)
    floor = -4.0 * np.abs(ccv.g).sum()
    for _ in range(20):
        u = rng.uniform(0, 1, size=(8, 8))
        assert energy(ccv, u) >= floor - 1e-12
        assert energy(TVL1Deblur(f=f, alpha=1.0, kernel=BlurKernel(1)), u) >= 0.0
        assert energy(HessianL1(f=f, alpha=1.0), u) >= 0.0


def test_model_constructors_reject_bad_parameters():
    f = np.full((4, 4), 0.5)
    kernel = BlurKernel(1)
    cases = [
        (lambda: ChanVese(f=f, alpha=0.0, c1=0.6, c2=0.1), "0.0"),
        (lambda: ChanVese(f=f, alpha=math.inf, c1=0.6, c2=0.1), "inf"),
        (lambda: ChanVese(f=f, alpha=1.0, c1=math.nan, c2=0.1), "nan"),
        (lambda: ChanVese(f=f, alpha=1.0, c1=0.6, c2=-math.inf), "-inf"),
        (lambda: ChanVese(f=f, alpha=1.0, c1=0.6, c2=0.6), "differ"),
        (lambda: ChanVese(f=f, alpha=1.0, c1=1e200, c2=1e199), "c1"),
        (lambda: ChanVese(f=f, alpha=1e308, c1=0.6, c2=-1.0), "non-finite"),
        (lambda: TVL1Deblur(f=f, alpha=math.nan, kernel=kernel), "nan"),
        (lambda: HessianL1(f=f, alpha=math.inf), "inf"),
        (lambda: HessianL1(f=f, alpha=-1.0), "-1.0"),
        # a subnormal alpha overflows the ball projection's |x| / alpha
        (lambda: HessianL1(f=f, alpha=1e-320), "alpha"),
        (lambda: TVL1Deblur(f=f, alpha=sys.float_info.min / 2, kernel=kernel), "alpha"),
        (lambda: ChanVese(f=f, alpha=5e-324, c1=0.6, c2=0.1), "alpha"),
        (lambda: HessianL1(f=np.full((2, 2), math.nan), alpha=1.0), "finite"),
        # alpha times the data's summed magnitude overflows, so the energy is
        # not finite at u = 0 or somewhere on the box: refused where the
        # saddle is built
        (lambda: ChanVese(f=f, alpha=1e308, c1=0.6, c2=0.1).saddle, "alpha = 1e+308"),
        (lambda: TVL1Deblur(f=f, alpha=1.7e308, kernel=kernel).saddle, "alpha = 1.7e+308"),
        (lambda: HessianL1(f=f, alpha=1e308).saddle, "alpha = 1e+308"),
    ]
    for make, named in cases:
        try:
            make()
        except ValueError as exc:
            assert named in str(exc), str(exc)
        else:
            raise AssertionError(f"accepted ({named})")
    # the smallest normal float is a valid weight, and so is the largest
    # alpha for which the energy stays finite: sum|f| = 8, sum|g| = 2.4
    HessianL1(f=f, alpha=sys.float_info.min)
    assert energy(HessianL1(f=f, alpha=2e307), np.zeros(f.shape)) == 1.6e308
    ccv = ChanVese(f=f, alpha=7e307, c1=0.6, c2=0.1)
    assert math.isfinite(energy(ccv, np.ones(f.shape)))
    # a sum that overflows by itself is the data's: a solve reports it
    assert HessianL1(f=np.full((4, 4), 1.7e308), alpha=1e-300).saddle.bound == 65.0


# ---------------------------------------------------------------------------
# integrand
# ---------------------------------------------------------------------------


def direct_integrand(model, u):
    """Independent pointwise recomputation of the energy density."""
    m, n = u.shape
    out = np.zeros((m, n))
    if isinstance(model, ChanVese):
        gp = grad_plus(u)
        for i in range(m):
            for j in range(n):
                if not (0.0 <= u[i, j] <= 1.0):
                    out[i, j] = math.inf
                    continue
                out[i, j] = (model.alpha * u[i, j] * model.g[i, j]
                             + math.hypot(gp[0, i, j], gp[1, i, j]))
        return out
    if isinstance(model, TVL1Deblur):
        au = blur(u, model.kernel)
        gp = grad_plus(u)
        for i in range(m):
            for j in range(n):
                out[i, j] = (model.alpha * abs(au[i, j] - model.f[i, j])
                             + math.hypot(gp[0, i, j], gp[1, i, j]))
        return out
    h = hessian(u)
    for i in range(m):
        for j in range(n):
            out[i, j] = (model.alpha * abs(u[i, j] - model.f[i, j])
                         + math.sqrt(float((h[:, i, j] ** 2).sum())))
    return out


def _all_models(rng, shape=(6, 6)):
    f = rng.uniform(0.05, 0.95, size=shape)
    return [
        ChanVese(f=f, alpha=3.0, c1=0.6, c2=0.1),
        TVL1Deblur(f=f, alpha=2.0, kernel=BlurKernel(1)),
        HessianL1(f=f, alpha=1.0),
    ]


def test_integrand_matches_direct_loops():
    rng = np.random.default_rng(3)
    for model in _all_models(rng):
        for _ in range(5):
            u = rng.uniform(0, 1, size=model.f.shape)
            got = integrand(model, u)
            want = direct_integrand(model, u)
            assert np.allclose(got, want, rtol=1e-13, atol=1e-14)


def test_integrand_sums_to_energy():
    rng = np.random.default_rng(4)
    for model in _all_models(rng, shape=(9, 7)):
        for _ in range(10):
            u = rng.uniform(0, 1, size=model.f.shape)
            e = energy(model, u)
            s = float(integrand(model, u).sum())
            assert abs(s - e) <= 1e-12 * (1.0 + abs(e))


def test_integrand_flags_infeasible_pixel():
    rng = np.random.default_rng(5)
    f = rng.uniform(0, 1, size=(4, 4))
    model = ChanVese(f=f, alpha=1.0, c1=0.6, c2=0.1)
    u = rng.uniform(0, 1, size=(4, 4))
    u[2, 1] = 1.25
    t = integrand(model, u)
    assert t[2, 1] == math.inf
    assert np.isfinite(np.delete(t.ravel(), 2 * 4 + 1)).all()


def test_integrand_zero_field_tvl1():
    f = np.array([[0.5, -0.25], [0.0, 1.0]])
    model = TVL1Deblur(f=f, alpha=1.0, kernel=BlurKernel(1))
    t = integrand(model, np.zeros((2, 2)))
    assert np.array_equal(t, np.abs(f))


def test_integrand_constant_ccv():
    f = np.full((3, 3), 0.4)
    model = ChanVese(f=f, alpha=2.0, c1=0.6, c2=0.1)
    u = np.full((3, 3), 0.8)
    t = integrand(model, u)
    assert np.allclose(t, 2.0 * 0.8 * model.g, rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# stencil mapping, noise, threshold
# ---------------------------------------------------------------------------


def test_stencil_of_mapping():
    # a stencil is the blocks' operators: the weights leave it alone, the
    # blur's width does not, and a layout built for one model's operators
    # is rejected for another's
    f = np.zeros((4, 4))
    for make in (lambda a: ChanVese(f=f, alpha=a, c1=0.6, c2=0.1),
                 lambda a: TVL1Deblur(f=f, alpha=a, kernel=BlurKernel(2)),
                 lambda a: HessianL1(f=f, alpha=a)):
        assert stencil_of(make(1.0)) == stencil_of(make(10.0))
    tvl1 = TVL1Deblur(f=f, alpha=1, kernel=BlurKernel(2))
    assert stencil_of(tvl1) != stencil_of(TVL1Deblur(f=f, alpha=1, kernel=BlurKernel(3)))
    layout = OverlapLayout.from_grid(f.shape, 2, 2, stencil_of(tvl1))
    DecoupledAlm(TVL1Deblur(f=f, alpha=10, kernel=BlurKernel(2)), layout, 1.0,
                 default_inner(tvl1, 1.0))
    for other in (TVL1Deblur(f=f, alpha=1, kernel=BlurKernel(3)),
                  ChanVese(f=f, alpha=1, c1=0.6, c2=0.1), HessianL1(f=f, alpha=1)):
        with pytest.raises(ValueError, match="does not match the model's"):
            DecoupledAlm(other, layout, 1.0, default_inner(other, 1.0))
    # the data leave it alone too, so a stencil holds no image
    g = np.random.default_rng(3).random((4, 4))
    a, b = stencil_of(BackwardTVDenoise(f=f)), stencil_of(BackwardTVDenoise(f=g, alpha=3.0))
    assert a == b and hash(a) == hash(b)
    for model in (tvl1, ChanVese(f=g, alpha=1, c1=0.6, c2=0.1), HessianL1(f=g, alpha=1),
                  BackwardTVDenoise(f=g)):
        assert all(blk.shift is None for blk in stencil_of(model))


def test_a_block_is_checked_where_it_is_declared():
    # an operator that ddimaging.operators does not define as a function,
    # and an argument that cannot be compared by hash (a mask or a weight
    # field), each raise a ValueError that names the block
    for op, adjoint, bad in (("forward1", None, "forward1"),
                             ("grad_plus", "adjoint_grad_pluss", "adjoint_grad_pluss"),
                             ("BlurKernel", "blur", "BlurKernel"), (3, None, 3)):
        with pytest.raises(ValueError, match=re.escape(
                f"Block({op!r}, {adjoint!r}): {bad!r} is not a function")):
            Block(op, adjoint, 1.0)
    for args in ((np.ones((2, 2)),), [BlurKernel(1)]):
        with pytest.raises(ValueError, match=re.escape(
                "Block('blur', 'blur'): args must be hashable")):
            Block("blur", "blur", 1.0, args=args)
    # a block with an operator declares K's largest absolute row and column
    # sums, two finite positive numbers; an identity block defaults to (1, 1)
    for sums in (None, (2,), (0, 4), (2, math.inf), (2, math.nan), "24", [2, 4]):
        with pytest.raises(ValueError, match=re.escape(
                f"Block('grad_plus', 'adjoint_grad_plus'): sums must be K's largest "
                f"absolute row and column sums, two finite positive numbers, got {sums!r}")):
            Block("grad_plus", "adjoint_grad_plus", 1.0, sums=sums)
    assert Block(None, None, 1.0).sums == (1.0, 1.0)


def _abs_sums(blk, shape):
    """The largest absolute row and column sums of the block's K as a dense
    matrix on an image of the given shape, its columns K of unit images."""
    cols = []
    for k in range(math.prod(shape)):
        e = np.zeros(math.prod(shape))
        e[k] = 1.0
        cols.append(blk.forward(e.reshape(shape)).ravel())
    a = np.abs(np.stack(cols, axis=1))
    return a.sum(axis=1).max(), a.sum(axis=0).max()


def test_declared_sums_are_the_operators_absolute_row_and_column_sums():
    # each built-in block's (R, C) is at least K's largest absolute row and
    # column sums on every grid, and equals them on a grid wider than K's
    # stencil, which holds a pixel whose every neighbour it reads; a blur
    # wider than the grid only lowers them
    f = np.zeros((4, 4))
    blocks = [HessianL1(f=f).saddle.blocks[0], TV, BackwardTVDenoise(f=f).saddle.blocks[1],
              HESSIAN] + [TVL1Deblur(f=f, kernel=BlurKernel(l)).saddle.blocks[0]
                          for l in (1, 4, 100)]
    assert [blk.op for blk in blocks] == [None, "grad_plus", "grad_minus", "hessian"] + ["blur"] * 3
    for blk in blocks:
        l = blk.args[0].halfwidth if blk.args else 1
        for shape in ((1, 1), (1, 4), (2, 2), (3, 2), (5, 4)):
            got = _abs_sums(blk, shape)
            assert all(g <= d * (1 + 1e-12) for g, d in zip(got, blk.sums)), (blk, shape, got)
        if l < 100:
            got = _abs_sums(blk, (2 * l + 3, 2 * l + 2))
            assert all(math.isclose(g, d, rel_tol=1e-12) for g, d in zip(got, blk.sums)), (
                blk, got)


def test_the_bound_is_the_sum_of_the_blocks_row_times_column_sums():
    # sum_b R_b*C_b: the identity and the blur 1, the gradients 8, the
    # Hessian 64
    f = np.zeros((4, 4))
    models = (ChanVese(f=f, c1=0.6, c2=0.1), TVL1Deblur(f=f, kernel=BlurKernel(4)),
              HessianL1(f=f), BackwardTVDenoise(f=f))
    assert [m.saddle.bound for m in models] == [8.0, 9.0, 65.0, 9.0]
    assert all(type(m.saddle.bound) is float for m in models)


def test_zero_dual_is_shaped_like_k_u():
    # on an image and on a stack of windows, for every shipped block
    f = np.random.default_rng(4).random((5, 6))
    stack = np.stack((f, f[::-1], f[:, ::-1]))
    for model in (ChanVese(f=f, alpha=1, c1=0.6, c2=0.1),
                  TVL1Deblur(f=f, alpha=1, kernel=BlurKernel(2)),
                  HessianL1(f=f, alpha=1), BackwardTVDenoise(f=f)):
        for blk in model.saddle.blocks:
            for x in (f, stack):
                want, got = np.zeros_like(blk.forward(x)), blk.zero_dual(x.shape)
                assert (got.shape, got.dtype) == (want.shape, want.dtype), (blk, x.shape)
                assert got.tobytes() == want.tobytes(), (blk, x.shape)


def test_salt_pepper_zero_probability():
    rng = np.random.default_rng(9)
    u = rng.uniform(0, 1, size=(16, 16))
    assert np.array_equal(salt_pepper(u, 0.0, seed=5), u)


def test_salt_pepper_full_probability():
    rng = np.random.default_rng(10)
    u = rng.uniform(0.2, 0.8, size=(16, 16))
    out = salt_pepper(u, 1.0, seed=5)
    assert np.isin(out, (0.0, 1.0)).all()


def test_salt_pepper_refuses_a_probability_outside_the_unit_interval():
    for p in (-0.1, 1.5, math.nan):
        with pytest.raises(ValueError, match=re.escape(f"must be in [0, 1], got {p!r}")):
            salt_pepper(np.zeros((4, 4)), p, seed=1)


def test_models_name_the_data_and_fields_they_refuse():
    makers = (lambda f: ChanVese(f=f, alpha=1.0, c1=0.6, c2=0.1),
              lambda f: TVL1Deblur(f=f, alpha=1.0, kernel=BlurKernel(1)),
              lambda f: HessianL1(f=f, alpha=1.0))
    for make in makers:
        for f in (np.zeros(5), np.zeros((2, 2, 2)), np.zeros((0, 3))):
            with pytest.raises(ValueError, match=re.escape(
                    f"data image must be a nonempty 2-D array, got shape {f.shape}")):
                make(f)
        model = make(np.zeros((4, 4)))
        for measure in (energy, integrand):
            with pytest.raises(ValueError, match=re.escape("shape mismatch: (4, 3) vs (4, 4)")):
                measure(model, np.zeros((4, 3)))


def test_salt_pepper_fraction_concentrates():
    u = np.full((256, 256), 0.5)
    out = salt_pepper(u, 0.2, seed=11)
    frac = float((out != 0.5).mean())
    assert abs(frac - 0.2) <= 0.01


def test_salt_pepper_reproducible_and_seed_sensitive():
    rng = np.random.default_rng(12)
    u = rng.uniform(0, 1, size=(32, 32))
    a = salt_pepper(u, 0.3, seed=7)
    b = salt_pepper(u, 0.3, seed=7)
    c = salt_pepper(u, 0.3, seed=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_salt_pepper_hits_both_extremes():
    u = np.full((64, 64), 0.5)
    out = salt_pepper(u, 0.5, seed=1)
    assert (out == 0.0).any() and (out == 1.0).any()


def test_threshold_rules():
    u = np.array([[0.49, 0.5], [0.51, 0.0]])
    out = threshold_half(u)
    assert np.array_equal(out, [[0.0, 1.0], [1.0, 0.0]])
    assert np.array_equal(threshold_half(out), out)
