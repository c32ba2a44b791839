import math

import numpy as np
import pytest

from ddimaging.decomposition import OverlapLayout
from ddimaging.fields import magnitude
from ddimaging.models import (
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
        (lambda: HessianL1(f=np.full((2, 2), math.nan), alpha=1.0), "finite"),
    ]
    for make, named in cases:
        try:
            make()
        except ValueError as exc:
            assert named in str(exc), str(exc)
        else:
            raise AssertionError(f"accepted ({named})")


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
                             + math.hypot(gp[i, j, 0], gp[i, j, 1]))
        return out
    if isinstance(model, TVL1Deblur):
        au = blur(u, model.kernel)
        gp = grad_plus(u)
        for i in range(m):
            for j in range(n):
                out[i, j] = (model.alpha * abs(au[i, j] - model.f[i, j])
                             + math.hypot(gp[i, j, 0], gp[i, j, 1]))
        return out
    h = hessian(u)
    for i in range(m):
        for j in range(n):
            out[i, j] = (model.alpha * abs(u[i, j] - model.f[i, j])
                         + math.sqrt(float((h[i, j] ** 2).sum())))
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


def test_salt_pepper_zero_probability():
    rng = np.random.default_rng(9)
    u = rng.uniform(0, 1, size=(16, 16))
    assert np.array_equal(salt_pepper(u, 0.0, seed=5), u)


def test_salt_pepper_full_probability():
    rng = np.random.default_rng(10)
    u = rng.uniform(0.2, 0.8, size=(16, 16))
    out = salt_pepper(u, 1.0, seed=5)
    assert np.isin(out, (0.0, 1.0)).all()


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
