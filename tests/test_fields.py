import contextlib
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ddimaging.fields import (
    inner,
    magnitude,
    norm2,
    project_ball,
    psnr,
)

from conftest import edge_specials, signed_zeros, three_layouts


def test_magnitude_scalar_field():
    u = np.array([[1.0, -2.0], [0.0, 3.5]])
    assert np.array_equal(magnitude(u), np.abs(u))


def test_magnitude_vector_field():
    p = np.array([[[3.0, 0.0]], [[4.0, 0.0]]])
    out = magnitude(p)
    assert out.shape == (1, 2)
    assert out[0, 0] == 5.0
    assert out[0, 1] == 0.0


def test_magnitude_four_channels():
    p = np.array([1.0, 1.0, 1.0, 1.0]).reshape(4, 1, 1)
    assert magnitude(p)[0, 0] == 2.0


def test_inner_matches_loop():
    rng = np.random.default_rng(7)
    for _ in range(20):
        shape = tuple(rng.integers(1, 6, size=int(rng.integers(2, 4))))
        u = rng.standard_normal(shape)
        v = rng.standard_normal(shape)
        want = 0.0
        for a, b in zip(u.ravel(), v.ravel()):
            want += a * b
        assert abs(inner(u, v) - want) <= 1e-12 * (1.0 + abs(want))


def test_inner_symmetric_bitwise():
    rng = np.random.default_rng(3)
    for _ in range(50):
        u = rng.standard_normal((9, 7))
        v = rng.standard_normal((9, 7))
        assert inner(u, v) == inner(v, u)


def test_norms_against_direct_sums():
    rng = np.random.default_rng(11)
    for _ in range(20):
        u = rng.standard_normal((5, 6))
        assert abs(norm2(u) - math.sqrt((u ** 2).sum())) <= 1e-12


def test_project_ball_example():
    p = np.array([[[3.0]], [[4.0]]])
    out = project_ball(p, 1.0)
    assert np.allclose(out[:, 0, 0], [0.6, 0.8], rtol=0, atol=1e-15)


def test_project_ball_interior_untouched():
    rng = np.random.default_rng(5)
    p = rng.uniform(-0.4, 0.4, size=(2, 8, 8))
    out = project_ball(p, 1.0)
    assert np.array_equal(out, p)


def test_project_ball_radius_and_direction():
    rng = np.random.default_rng(9)
    for _ in range(25):
        p = rng.standard_normal((2, 6, 6)) * 3.0
        r = float(rng.uniform(0.2, 2.0))
        out = project_ball(p, r)
        assert magnitude(out).max() <= r * (1.0 + 1e-12)
        # projection keeps directions: out is a nonnegative multiple of p
        cross = out[0] * p[1] - out[1] * p[0]
        assert np.abs(cross).max() <= 1e-10
        assert (out[0] * p[0] + out[1] * p[1]).min() >= -1e-15


def test_project_ball_scalar_field():
    q = np.array([[5.0, -0.2], [-3.0, 0.0]])
    out = project_ball(q, 2.0)
    assert np.array_equal(out, [[2.0, -0.2], [-2.0, 0.0]])


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(n=st.integers(1, 4), m=st.integers(1, 7), w=st.integers(1, 7),
       channels=st.sampled_from([(), (1,), (2,), (4,)]),
       r=st.floats(0.1, 3.0), seed=st.integers(0, 2**32 - 1))
def test_pointwise_maps_take_a_stack_image_by_image(n, m, w, channels, r, seed):
    # on a stack of n images (ndim 3) a field has a channel axis when it has
    # a fourth axis, the first; a scalar (1, m, w) stack is not a one-plane
    # channel field
    rng = np.random.default_rng(seed)
    stack = rng.standard_normal(channels + (n, m, w)) * 2.0
    mag = magnitude(stack, 3)
    proj = project_ball(stack, r, 3)
    assert mag.shape == (n, m, w) and proj.shape == stack.shape
    for i in range(n):
        image = stack[..., i, :, :]
        assert mag[i].tobytes() == magnitude(image).tobytes()
        assert proj[..., i, :, :].tobytes() == project_ball(image, r).tobytes()


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(lead=st.sampled_from([(), (1,), (3,)]), m=st.integers(1, 7),
       n=st.integers(1, 7), channels=st.sampled_from([1, 2, 4]),
       zeros=st.sampled_from([0.0, 0.3, 1.0]), r=st.floats(1e-3, 1e3),
       seed=st.integers(0, 2**32 - 1))
@example(lead=(), m=128, n=128, channels=4, zeros=0.1, r=1.0, seed=0)
@example(lead=(13,), m=33, n=33, channels=2, zeros=0.1, r=1.0, seed=1)
def test_pointwise_maps_match_the_channel_reduction_byte_for_byte(
        lead, m, n, channels, zeros, r, seed):
    # the channel sum runs in channel order, as numpy's reduction over the
    # channels does: the same bytes as np.sum(x * x, axis=0)
    rng = np.random.default_rng(seed)
    x = signed_zeros(rng, (channels,) + lead + (m, n), zeros)
    ndim = len(lead) + 2
    mag = np.sqrt(np.sum(x * x, axis=0))
    assert magnitude(x, ndim).tobytes() == mag.tobytes()
    want = x / np.maximum(1.0, mag / r)
    assert project_ball(x, r, ndim).tobytes() == want.tobytes()


def _ref_magnitude(x):
    """Image by image of a channel-first stack's field: the channel squares
    summed in channel order, then the root."""
    out = np.empty(x.shape[1:])
    for i in range(x.shape[1]):
        acc = x[0, i] * x[0, i]
        for k in range(1, len(x)):
            acc = acc + x[k, i] * x[k, i]
        out[i] = np.sqrt(acc)
    return out


def _ref_project_ball(x, r):
    """Image by image: each channel divided by max(1, magnitude / r)."""
    out, mag = np.empty(x.shape), _ref_magnitude(x)
    for i in range(x.shape[1]):
        out[:, i] = x[:, i] / np.maximum(1.0, mag[i] / r)
    return out


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(n=st.integers(1, 4), m=st.integers(1, 7), w=st.integers(1, 7),
       channels=st.sampled_from([1, 2, 4]), r=st.sampled_from([1.0, 0.5, 3.0, 1e-3]),
       specials=st.sampled_from([(), (np.nan,), (np.inf, -np.inf), (np.nan, np.inf, -np.inf)]),
       seed=st.integers(0, 2**32 - 1))
@example(n=4, m=7, w=7, channels=4, r=1.0, specials=(np.nan, np.inf, -np.inf), seed=0)
def test_pointwise_maps_match_the_slice_by_slice_oracle_on_stacks(
        n, m, w, channels, r, specials, seed):
    # a channel-first field on a stack of n images, C-contiguous, in Fortran
    # order or strided along its channel axis, with -0.0, NaN and +-inf on
    # the first and last rows and columns; only infinite input may warn
    # (inf / inf in the projection), so only it runs under errstate
    x = edge_specials(np.random.default_rng(seed), (channels, n, m, w), specials)
    quiet = np.errstate(invalid="ignore") if np.inf in specials else contextlib.nullcontext()
    with quiet:
        mag, proj = _ref_magnitude(x), _ref_project_ball(x, r)
        for y in three_layouts(x):
            assert magnitude(y, 3).tobytes() == mag.tobytes(), y.strides
            assert project_ball(y, r, 3).tobytes() == proj.tobytes(), y.strides


def test_pointwise_maps_reject_other_ranks():
    for bad, ndim in ((np.zeros(3), 2), (np.zeros((2, 2, 2, 2)), 2),
                      (np.zeros((2, 2)), 3)):
        for call in (lambda: magnitude(bad, ndim), lambda: project_ball(bad, 1.0, ndim)):
            try:
                call()
            except ValueError as exc:
                assert str(bad.shape) in str(exc)
            else:
                raise AssertionError(f"shape {bad.shape} accepted at ndim {ndim}")


def test_psnr_uniform_difference():
    a = np.zeros((10, 10))
    b = np.full((10, 10), 0.1)
    assert abs(psnr(a, b) - 20.0) <= 1e-12


def test_psnr_equal_is_infinite():
    a = np.linspace(0, 1, 16).reshape(4, 4)
    assert psnr(a, a) == math.inf


def test_psnr_of_an_overflowing_error_is_minus_infinite():
    # finite images whose squared error overflows: no warning, no math
    # domain error from log10(1/inf)
    for big in (1e200, -1e200, 1e308):
        assert psnr(np.full((2, 2), big), np.zeros((2, 2))) == -math.inf
    assert psnr(np.array([[1e308, -1e308]]), np.array([[-1e308, 1e308]])) == -math.inf


def test_psnr_matches_direct_formula():
    rng = np.random.default_rng(13)
    for _ in range(10):
        a = rng.uniform(0, 1, size=(12, 9))
        b = rng.uniform(0, 1, size=(12, 9))
        mse = ((a - b) ** 2).mean()
        assert abs(psnr(a, b) - 10.0 * math.log10(1.0 / mse)) <= 1e-10


def test_fields_name_what_they_refuse():
    for pair in (inner, psnr):
        with pytest.raises(ValueError, match=re.escape("shape mismatch: (2, 3) vs (3, 2)")):
            pair(np.zeros((2, 3)), np.zeros((3, 2)))
    for r in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match=re.escape(f"ball radius must be positive, got {r!r}")):
            project_ball(np.zeros((2, 3, 3)), r)
