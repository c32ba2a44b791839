import contextlib
import tracemalloc
import warnings

import numpy as np
from hypothesis import example, given, settings, strategies as st

from ddimaging.decomposition import OverlapLayout
from ddimaging.fields import inner
from ddimaging.models import ChanVese, HessianL1, TVL1Deblur, stencil_of
from ddimaging.operators import (
    BlurKernel,
    _adjoint_diff,
    _diff,
    adjoint_blur,
    adjoint_grad_minus,
    adjoint_grad_plus,
    adjoint_hessian,
    blur,
    grad_minus,
    grad_plus,
    hessian,
    op_norm_sq_estimate,
)

from conftest import edge_specials, on_grid, signed_zeros, three_layouts


def dense_matrix(op, in_shape, out_of):
    """Materialize a linear map as a dense matrix, columns from unit inputs."""
    size = int(np.prod(in_shape))
    cols = []
    for k in range(size):
        e = np.zeros(size)
        e[k] = 1.0
        cols.append(np.asarray(op(e.reshape(in_shape))).ravel())
    del out_of
    return np.stack(cols, axis=1)


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------


def test_dxp_example():
    u = np.array([[1.0, 3.0], [2.0, 4.0]])
    assert np.array_equal(grad_plus(u)[0], [[1.0, 1.0], [0.0, 0.0]])


def test_dyp_example():
    u = np.array([[1.0, 3.0], [2.0, 4.0]])
    assert np.array_equal(grad_plus(u)[1], [[2.0, 0.0], [2.0, 0.0]])


def test_backward_differences_drop_first_row_col():
    u = np.array([[1.0, 3.0], [2.0, 4.0]])
    assert np.array_equal(grad_minus(u), [[[0.0, 0.0], [1.0, 1.0]], [[0.0, 2.0], [0.0, 2.0]]])


def test_grad_plus_stacks_row_then_col():
    rng = np.random.default_rng(0)
    u = rng.standard_normal((6, 5))
    g = grad_plus(u)
    assert g.shape == (2, 6, 5)
    assert np.array_equal(g[0], _ref_dxp(u))
    assert np.array_equal(g[1], _ref_dyp(u))
    h = grad_minus(u)
    assert np.array_equal(h[0], _ref_dxm(u))
    assert np.array_equal(h[1], _ref_dym(u))


def test_difference_adjoints_are_dense_transposes():
    # each (axis, direction) pair's difference kernel, then the gradients
    # and the Hessian composed from them
    shape = (4, 5)
    for axis in (-2, -1):
        for forward in (True, False):
            a = dense_matrix(lambda u: _diff(u, axis, forward, np.empty(u.shape)), shape, None)
            b = dense_matrix(lambda p: _adjoint_diff(p, axis, forward, np.empty(p.shape)),
                             shape, None)
            assert np.array_equal(b, a.T), (axis, forward)
    for fwd, adj, channels in ((grad_plus, adjoint_grad_plus, 2),
                               (grad_minus, adjoint_grad_minus, 2),
                               (hessian, adjoint_hessian, 4)):
        a = dense_matrix(fwd, shape, None)
        b = dense_matrix(adj, (channels,) + shape, None)
        assert np.array_equal(b, a.T), fwd.__name__


def test_grad_and_hessian_adjoint_identity():
    rng = np.random.default_rng(42)
    for _ in range(200):
        m = int(rng.integers(2, 9))
        n = int(rng.integers(2, 9))
        u = rng.standard_normal((m, n))
        p = rng.standard_normal((2, m, n))
        lhs = inner(grad_plus(u), p)
        rhs = inner(u, adjoint_grad_plus(p))
        scale = max(1.0, abs(lhs))
        assert abs(lhs - rhs) <= 1e-12 * scale
        lhs = inner(grad_minus(u), p)
        rhs = inner(u, adjoint_grad_minus(p))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
        q = rng.standard_normal((4, m, n))
        lhs = inner(hessian(u), q)
        rhs = inner(u, adjoint_hessian(q))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_hessian_frozen_column():
    u = np.arange(3, dtype=np.float64).reshape(3, 1)
    h = hessian(u)
    assert np.array_equal(h[0].ravel(), [0.0, 0.0, -1.0])
    assert np.array_equal(h[1], np.zeros((3, 1)))


def test_hessian_channels_match_composed_differences():
    rng = np.random.default_rng(1)
    u = rng.standard_normal((7, 6))
    h = hessian(u)
    assert h.tobytes() == grad_minus(grad_plus(u)).swapaxes(0, 1).tobytes()
    assert np.array_equal(h[0], _ref_dxm(_ref_dxp(u)))
    assert np.array_equal(h[1], _ref_dym(_ref_dxp(u)))
    assert np.array_equal(h[2], _ref_dxm(_ref_dyp(u)))
    assert np.array_equal(h[3], _ref_dym(_ref_dyp(u)))


def test_hessian_annihilates_affine_interior():
    i = np.arange(8, dtype=np.float64)[:, None]
    j = np.arange(9, dtype=np.float64)[None, :]
    u = 3.0 + 2.0 * i + np.zeros_like(j) - 5.0 * j
    h = hessian(u)
    # second differences of an affine field vanish away from the border rows;
    # integer values keep the cancellation exact
    assert np.abs(h[..., 1:-1, 1:-1]).max() == 0.0


# The zeros_like/scatter-add/np.stack formulas of the first differences
# (x the row direction, y the column one; p forward, m backward) and their
# adjoints from before the operators wrote into one output, kept as the
# byte-for-byte oracle of the gradients' channels and of the Hessian.


def _ref_dxp(u):
    out = np.zeros_like(u, dtype=np.float64)
    out[..., :-1, :] = u[..., 1:, :] - u[..., :-1, :]
    return out


def _ref_dxm(u):
    out = np.zeros_like(u, dtype=np.float64)
    out[..., 1:, :] = u[..., 1:, :] - u[..., :-1, :]
    return out


def _ref_dyp(u):
    out = np.zeros_like(u, dtype=np.float64)
    out[..., :-1] = u[..., 1:] - u[..., :-1]
    return out


def _ref_dym(u):
    out = np.zeros_like(u, dtype=np.float64)
    out[..., 1:] = u[..., 1:] - u[..., :-1]
    return out


def _ref_adjoint_dxp(p):
    out = np.zeros_like(p, dtype=np.float64)
    out[..., 1:, :] += p[..., :-1, :]
    out[..., :-1, :] -= p[..., :-1, :]
    return out


def _ref_adjoint_dxm(p):
    out = np.zeros_like(p, dtype=np.float64)
    out[..., 1:, :] += p[..., 1:, :]
    out[..., :-1, :] -= p[..., 1:, :]
    return out


def _ref_adjoint_dyp(p):
    out = np.zeros_like(p, dtype=np.float64)
    out[..., 1:] += p[..., :-1]
    out[..., :-1] -= p[..., :-1]
    return out


def _ref_adjoint_dym(p):
    out = np.zeros_like(p, dtype=np.float64)
    out[..., 1:] += p[..., 1:]
    out[..., :-1] -= p[..., 1:]
    return out


def _ref_hessian(u):
    wx, wy = _ref_dxp(u), _ref_dyp(u)
    return np.stack((_ref_dxm(wx), _ref_dym(wx), _ref_dxm(wy), _ref_dym(wy)))


def _ref_adjoint_hessian(t):
    wx = _ref_adjoint_dxm(t[0]) + _ref_adjoint_dym(t[1])
    wy = _ref_adjoint_dxm(t[2]) + _ref_adjoint_dym(t[3])
    return _ref_adjoint_dxp(wx) + _ref_adjoint_dyp(wy)


def _same_bits(got, want, nan_as_one=False):
    """Equal shapes and bytes; with nan_as_one, every NaN counts as one value."""
    if nan_as_one:
        got, want = (np.where(np.isnan(a), np.nan, a) for a in (got, want))
    return got.shape == want.shape and got.tobytes() == want.tobytes()


_SPECIALS = ((), (np.nan,), (np.inf, -np.inf), (np.nan, np.inf, -np.inf))


# the single differences and their adjoints are reached as the gradients'
# channels, in all four (axis, direction) pairs
_STACKED_ORACLES = (
    (grad_plus, lambda u: np.stack((_ref_dxp(u), _ref_dyp(u))), ()),
    (grad_minus, lambda u: np.stack((_ref_dxm(u), _ref_dym(u))), ()),
    (adjoint_grad_plus, lambda p: _ref_adjoint_dxp(p[0]) + _ref_adjoint_dyp(p[1]), (2,)),
    (adjoint_grad_minus, lambda p: _ref_adjoint_dxm(p[0]) + _ref_adjoint_dym(p[1]), (2,)),
    (hessian, _ref_hessian, ()),
    (adjoint_hessian, _ref_adjoint_hessian, (4,)),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(lead=st.sampled_from([(), (1,), (3,)]), m=st.integers(1, 7),
       n=st.integers(1, 7), zeros=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
       specials=st.sampled_from(_SPECIALS), seed=st.integers(0, 2**32 - 1))
@example(lead=(), m=1, n=1, zeros=0.5, specials=(), seed=0)
@example(lead=(), m=1, n=6, zeros=0.5, specials=(), seed=1)
@example(lead=(), m=6, n=1, zeros=0.5, specials=(), seed=2)
@example(lead=(2,), m=1, n=1, zeros=0.5, specials=(), seed=3)
@example(lead=(), m=5, n=6, zeros=0.3, specials=_SPECIALS[3], seed=4)
def test_operators_match_the_stacked_formulas_byte_for_byte(lead, m, n, zeros, specials, seed):
    # raw bytes, so a -0.0 where the oracle has +0.0 fails: the frozen
    # solver digests hash raw bytes too.  A gradient's entry is one subtract
    # of two inputs; a sum of differences can meet an input NaN and an
    # inf - inf one, and which of the two it returns is numpy's choice, so
    # there every NaN counts as one value
    rng = np.random.default_rng(seed)
    mixed = np.nan in specials and np.inf in specials
    for op, ref, channels in _STACKED_ORACLES:
        shape = channels + lead + (m, n)
        x = signed_zeros(rng, shape, zeros)
        for v in specials:
            x[rng.random(shape) < 0.1] = v
        with np.errstate(invalid="ignore"):
            got, want = op(x), ref(x)
        assert got.dtype == want.dtype, op.__name__
        nan_as_one = mixed and op not in (grad_plus, grad_minus)
        assert _same_bits(got, want, nan_as_one), op.__name__


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(n=st.integers(1, 4), m=st.integers(1, 7), w=st.integers(1, 7), l=st.integers(1, 8),
       specials=st.sampled_from(_SPECIALS), seed=st.integers(0, 2**32 - 1))
@example(n=4, m=7, w=7, l=8, specials=_SPECIALS[3], seed=0)
@example(n=3, m=1, w=5, l=1, specials=_SPECIALS[2], seed=1)
@example(n=3, m=5, w=1, l=1, specials=_SPECIALS[2], seed=2)
def test_operators_match_the_slice_by_slice_oracle_on_stacks(n, m, w, l, specials, seed):
    # every operator on a stack of n images or on its channel-first field,
    # C-contiguous, in Fortran order or strided, against the formulas that
    # slice each image's pixel axes: a contiguous stack merges into one
    # axis whose shifts cross from each image into the next, and what they
    # compute there must never reach an output.  Those lanes may warn on
    # infinite input (inf - inf), so only those cases run under errstate;
    # NaN alone, like the layout's probe, warns nothing
    rng = np.random.default_rng(seed)
    kernel = BlurKernel(l)
    mixed = np.nan in specials and np.inf in specials
    oracles = _STACKED_ORACLES + (
        (lambda u: blur(u, kernel), lambda u: _frozen_blur(u, kernel), ()),)
    for op, ref, channels in oracles:
        x = edge_specials(rng, channels + (n, m, w), specials)
        nan_as_one = mixed and op not in (grad_plus, grad_minus)
        quiet = np.errstate(invalid="ignore") if np.inf in specials else contextlib.nullcontext()
        with quiet:
            want = ref(x)
            for y in three_layouts(x):
                assert _same_bits(op(y), want, nan_as_one), (op.__name__, y.strides)


# ---------------------------------------------------------------------------
# blur
# ---------------------------------------------------------------------------


def test_blur_center_impulse_example():
    u = np.zeros((3, 3))
    u[1, 1] = 9.0
    out = blur(u, BlurKernel(1))
    assert np.allclose(out, np.ones((3, 3)), rtol=0, atol=1e-14)


def test_blur_constant_corner_example():
    u = np.ones((5, 5))
    out = blur(u, BlurKernel(1))
    assert abs(out[0, 0] - 4.0 / 9.0) <= 1e-14
    assert abs(out[2, 2] - 1.0) <= 1e-14


def test_blur_matches_direct_window_sum():
    rng = np.random.default_rng(2)
    u = rng.standard_normal((9, 8))
    l = 2
    k = BlurKernel(l)
    out = blur(u, k)
    m, n = u.shape
    want = np.zeros_like(u)
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for a in range(i - l, i + l + 1):
                for b in range(j - l, j + l + 1):
                    if 0 <= a < m and 0 <= b < n:
                        acc += u[a, b]
            want[i, j] = acc / (2 * l + 1) ** 2
    assert np.allclose(out, want, rtol=0, atol=1e-12)


def test_blur_is_self_adjoint():
    rng = np.random.default_rng(3)
    k = BlurKernel(3)
    for _ in range(50):
        u = rng.standard_normal((11, 13))
        v = rng.standard_normal((11, 13))
        lhs = inner(blur(u, k), v)
        rhs = inner(u, blur(v, k))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_blur_kernel_validation():
    try:
        BlurKernel(0)
    except ValueError:
        pass
    else:
        raise AssertionError("halfwidth 0 accepted")
    assert BlurKernel(4).size == 9
    assert type(BlurKernel(np.int64(3)).halfwidth) is int
    for bad in (2.0, 2.5, True, -1, None):
        try:
            BlurKernel(bad)
        except ValueError as exc:
            assert f"halfwidth must be an integer >= 1, got {bad!r}" in str(exc)
        else:
            raise AssertionError(f"halfwidth {bad!r} accepted")


def _blur_2d_loop(u, kernel):
    """Reference: one shift-and-add per offset of the (2l+1)^2 window."""
    m, n = u.shape
    l = kernel.halfwidth
    acc = np.zeros_like(u)
    for di in range(-l, l + 1):
        for dj in range(-l, l + 1):
            a0, a1 = max(0, -di), m - max(di, 0)
            b0, b1 = max(0, -dj), n - max(dj, 0)
            if a0 < a1 and b0 < b1:
                acc[a0:a1, b0:b1] += u[a0 + di:a1 + di, b0 + dj:b1 + dj]
    return acc / float(kernel.size ** 2)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(m=st.integers(1, 12), n=st.integers(1, 12), l=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_blur_matches_2d_loop_and_is_exactly_local(m, n, l, seed, data):
    # 1xN, Nx1 and kernels wider than the image are all in range
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((m, n))
    k = BlurKernel(l)
    out = blur(u, k)
    assert np.allclose(out, _blur_2d_loop(u, k), rtol=0, atol=1e-14)
    i = data.draw(st.integers(0, m - 1), label="i")
    j = data.draw(st.integers(0, n - 1), label="j")
    v = u.copy()
    v[i, j] += 1e6
    window = np.zeros((m, n), dtype=bool)
    window[max(i - l, 0):i + l + 1, max(j - l, 0):j + l + 1] = True
    changed = blur(v, k) != out
    assert np.array_equal(changed, window)


def test_blur_wider_than_the_image():
    u = np.random.default_rng(4).standard_normal((5, 4))
    l = 10**6
    out = blur(u, BlurKernel(l))
    assert np.allclose(out, u.sum() / (2 * l + 1) ** 2, rtol=1e-12, atol=0)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(n=st.integers(1, 4), m=st.integers(1, 9), w=st.integers(1, 9),
       l=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_operators_map_a_stack_image_by_image(n, m, w, l, seed):
    # a stack axis passes through every operator, after the channel axis:
    # op(stack)[..., k, :, :] is op(stack[..., k, :, :]) bit for bit, n = 1
    # included
    rng = np.random.default_rng(seed)
    k = BlurKernel(l)
    for op, args, channels in ((grad_plus, (), ()), (grad_minus, (), ()),
                               (hessian, (), ()), (adjoint_grad_plus, (), (2,)),
                               (adjoint_grad_minus, (), (2,)),
                               (adjoint_hessian, (), (4,)), (blur, (k,), ()),
                               (adjoint_blur, (k,), ())):
        stack = rng.standard_normal(channels + (n, m, w))
        out = op(stack, *args)
        assert out.shape[-3] == n, op.__name__
        for i in range(n):
            assert (out[..., i, :, :].tobytes()
                    == op(stack[..., i, :, :], *args).tobytes()), op.__name__


def _non_contiguous(rng, x):
    """x's values as a transposed image, a stride-2 slice and a channel
    plane t[:, k] of a stack."""
    swapped = np.swapaxes(np.swapaxes(x, -1, -2).copy(), -1, -2)
    strided = np.zeros(x.shape[:-2] + (2 * x.shape[-2], 2 * x.shape[-1]))
    strided[..., ::2, ::2] = x
    stack = rng.standard_normal((x.shape[0], 3) + x.shape[1:])
    stack[:, 1] = x
    return swapped, strided[..., ::2, ::2], stack[:, 1]


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(m=st.integers(2, 8), n=st.integers(2, 8), l=st.integers(1, 5),
       seed=st.integers(0, 2**32 - 1))
def test_operators_take_non_contiguous_operands(m, n, l, seed):
    # a transposed image, a stride-2 slice and a channel plane t[:, k] of a
    # stack give, bit for bit, what a contiguous copy gives: an operator
    # that merges the two pixel axes must never write into a copy
    rng = np.random.default_rng(seed)
    k = BlurKernel(l)
    for op, args, channels in ((grad_plus, (), ()), (grad_minus, (), ()), (hessian, (), ()),
                               (adjoint_grad_plus, (), (2,)),
                               (adjoint_grad_minus, (), (2,)),
                               (adjoint_hessian, (), (4,)), (blur, (k,), ()),
                               (adjoint_blur, (k,), ())):
        x = rng.standard_normal(channels + (2, m, n))
        want = op(x, *args)
        for y in _non_contiguous(rng, x):
            assert not y.flags.c_contiguous and np.array_equal(y, x), op.__name__
            got = op(y, *args)
            assert got.shape == want.shape, op.__name__
            assert got.tobytes() == want.tobytes(), op.__name__


# ---------------------------------------------------------------------------
# the shift kernels as they were before they ran over the merged pixel axis
# ---------------------------------------------------------------------------

# Verbatim copies of blur, _diff and _adjoint_diff as they were when every
# shift-and-add sliced the two pixel axes in place, kept as the
# byte-for-byte oracle of the flat kernels.

_HEAD, _TAIL = slice(None, -1), slice(1, None)


def _frozen_cut(a, axis, index):
    """a indexed along its row (axis -2) or column (axis -1) pixel axis."""
    return a[(..., index) if axis == -1 else (..., index, slice(None))]


def _frozen_diff(u, axis, forward, out):
    np.subtract(_frozen_cut(u, axis, _TAIL), _frozen_cut(u, axis, _HEAD),
                out=_frozen_cut(out, axis, _HEAD if forward else _TAIL))
    _frozen_cut(out, axis, -1 if forward else 0)[...] = 0.0
    return out


def _frozen_adjoint_diff(p, axis, forward, out):
    q, head = _frozen_cut(p, axis, _HEAD if forward else _TAIL), _frozen_cut(out, axis, _HEAD)
    _frozen_cut(out, axis, 0)[...] = 0.0
    np.add(0.0, q, out=_frozen_cut(out, axis, _TAIL))
    np.subtract(head, q, out=head)
    return out


def _frozen_blur(u, kernel):
    u = np.asarray(u, dtype=np.float64)
    m, n = u.shape[-2:]
    l = kernel.halfwidth
    rows = np.zeros_like(u)
    for d in range(-min(l, n - 1), min(l, n - 1) + 1):
        rows[..., max(-d, 0):n - max(d, 0)] += u[..., max(d, 0):n + min(d, 0)]
    acc = np.zeros_like(u)
    for d in range(-min(l, m - 1), min(l, m - 1) + 1):
        acc[..., max(-d, 0):m - max(d, 0), :] += rows[..., max(d, 0):m + min(d, 0), :]
    return acc / float(kernel.size ** 2)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(lead=st.sampled_from([(), (2,), (2, 3)]), channels=st.sampled_from([0, 2, 4]),
       m=st.integers(1, 9), n=st.integers(1, 9), l=st.integers(1, 20),
       specials=st.sampled_from(_SPECIALS), seed=st.integers(0, 2**32 - 1))
@example(lead=(), channels=0, m=1, n=7, l=20, specials=_SPECIALS[3], seed=0)
@example(lead=(), channels=0, m=7, n=1, l=20, specials=_SPECIALS[3], seed=1)
@example(lead=(2,), channels=2, m=1, n=1, l=1, specials=_SPECIALS[1], seed=2)
def test_shift_kernels_match_their_frozen_copies_byte_for_byte(
        lead, channels, m, n, l, specials, seed):
    # normals over 16 decades, +-0.0, NaN and +-inf; on an image, a stack
    # or a channel plane x[..., k, :, :] of a field, into a fresh output;
    # 1xN, Nx1 and halfwidths past the image's size
    rng = np.random.default_rng(seed)
    shape = lead + ((channels,) if channels else ()) + (m, n)
    x = signed_zeros(rng, shape, 0.3)
    for v in specials:
        x[rng.random(shape) < 0.1] = v
    plane = (lambda a: a[..., 1, :, :]) if channels else (lambda a: a)
    u = plane(x)
    # NaN meets NaN only where an input NaN and inf + -inf both reach a sum:
    # which of the two an add returns is numpy's choice, not the kernel's (a
    # one-element in-place np.add returns its second operand's, a longer
    # one its first), and the blur's adds have other lengths than before
    nan_as_one = np.nan in specials and np.inf in specials
    with warnings.catch_warnings():
        # an input with NaN but no inf, like the layout's probe, raises no
        # floating-point warning; one with inf may (inf - inf)
        warnings.simplefilter("error")
        quiet = np.errstate(invalid="ignore") if np.inf in specials else contextlib.nullcontext()
        with quiet:
            for axis in (-2, -1):
                for forward in (True, False):
                    for new, old in ((_diff, _frozen_diff), (_adjoint_diff, _frozen_adjoint_diff)):
                        got = new(u, axis, forward, np.empty(u.shape))
                        want = old(u, axis, forward, np.empty(u.shape))
                        assert _same_bits(got, want), (new.__name__, axis, forward)
            got, want = blur(u, BlurKernel(l)), _frozen_blur(u, BlurKernel(l))
            assert _same_bits(got, want, nan_as_one), "blur"


def test_shift_kernels_refuse_an_output_they_cannot_write_in_place():
    # a channel plane of a stacked field is strided, so its flat axis would
    # be a copy and the differences would be lost
    u = np.ones((2, 4, 5))
    for kernel in (_diff, _adjoint_diff):
        for axis in (-2, -1):
            out = np.empty((2, 3, 4, 5))[:, 1]
            try:
                kernel(u, axis, True, out)
            except ValueError as exc:
                assert "C-contiguous" in str(exc)
            else:
                raise AssertionError(f"{kernel.__name__} wrote into a strided out")


def test_blur_holds_at_most_three_stack_sized_arrays():
    # the padded buffer, the row sums and the result
    u = np.ones((4, 40, 40))
    padded = u.nbytes * 48 * 48 // (40 * 40)
    tracemalloc.start()
    try:
        blur(u, BlurKernel(4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * padded + u.nbytes


# ---------------------------------------------------------------------------
# operator norms
# ---------------------------------------------------------------------------


def test_norm_estimate_identity():
    est = op_norm_sq_estimate(lambda x: x, lambda x: x, (16, 16), iters=5)
    assert abs(est - 1.0) <= 1e-12


def test_norm_estimate_grad_bounds():
    est = op_norm_sq_estimate(grad_plus, adjoint_grad_plus, (64, 64), iters=100)
    assert 7.5 < est <= 8.0 * (1.0 + 1e-12)


def test_norm_estimate_hessian_bound():
    est = op_norm_sq_estimate(hessian, adjoint_hessian, (64, 64), iters=100)
    assert est <= 64.0 * (1.0 + 1e-12)
    assert est > 40.0


def test_norm_estimate_blur_bound():
    k = BlurKernel(4)
    est = op_norm_sq_estimate(
        lambda x: blur(x, k), lambda x: blur(x, k), (64, 64), iters=100
    )
    assert 0.5 < est <= 1.0 * (1.0 + 1e-12)


def test_norm_estimate_scaling():
    est = op_norm_sq_estimate(lambda x: 3.0 * x, lambda x: 3.0 * x, (8, 8), iters=3)
    assert abs(est - 9.0) <= 1e-10


def test_norm_estimate_rejects_bad_iters():
    for bad in (0, -1, 2.5, 3.0, True, None):
        try:
            op_norm_sq_estimate(lambda x: x, lambda x: x, (4, 4), iters=bad)
        except ValueError as exc:
            assert f"iters must be an integer >= 1, got {bad!r}" in str(exc)
        else:
            raise AssertionError(f"iters={bad!r} accepted")
    assert op_norm_sq_estimate(lambda x: x, lambda x: x, (4, 4), iters=np.int64(2)) > 0


def test_norm_estimate_of_an_empty_shape_and_an_annihilating_operator():
    try:
        op_norm_sq_estimate(lambda x: x, lambda x: x, (0, 4))
    except ValueError as exc:
        assert "degenerate start vector of shape (0, 4)" in str(exc)
    else:
        raise AssertionError("an empty start vector accepted")
    # the first power step reaches the zero vector: the norm is exactly 0
    assert op_norm_sq_estimate(lambda x: 0.0 * x, lambda x: x, (4, 4)) == 0.0


# ---------------------------------------------------------------------------
# the models' dual blocks restricted to one subdomain
# ---------------------------------------------------------------------------


def _blocks_with_layouts():
    """Every declared dual block, with a 2x2 layout under its model's stencil.

    Covers the forward gradient (under forward1 and band(2)), the blur, the
    identity and the second differences.
    """
    shape = (6, 7)
    f = np.full(shape, 0.5)
    out = []
    for model in (ChanVese(f=f, alpha=1.0, c1=0.6, c2=0.1),
                  TVL1Deblur(f=f, alpha=1.0, kernel=BlurKernel(2)),
                  HessianL1(f=f, alpha=1.0)):
        layout = OverlapLayout.from_grid(shape, 2, 2, stencil_of(model))
        out.extend((blk, layout) for blk in model.saddle.blocks)
    return out


def _core_mask(blk, layout, s):
    core = on_grid(layout, s, layout.core[s])
    channels = blk.forward(np.zeros(layout.shape)).ndim == 3
    return core[..., None, :, :] if channels else core


def _restricted(blk, layout, s):
    """Forward core*K(tilde*u) and adjoint tilde*K*(core*w) of one block."""
    mask, tilde = _core_mask(blk, layout, s), on_grid(layout, s, layout.tilde[s])
    return (lambda u: blk.forward(u * tilde) * mask,
            lambda w: blk.transpose(w * mask) * tilde)


def test_restricted_adjoint_is_dense_transpose():
    for blk, layout in _blocks_with_layouts():
        for s in range(layout.count):
            op, adjoint = _restricted(blk, layout, s)
            fwd = dense_matrix(op, layout.shape, None)
            adj_in_shape = op(np.zeros(layout.shape)).shape
            adj = dense_matrix(adjoint, adj_in_shape, None)
            assert np.allclose(adj, fwd.T, rtol=0, atol=1e-14), (blk.op, s)


def test_restricted_matches_global_on_core():
    rng = np.random.default_rng(8)
    for blk, layout in _blocks_with_layouts():
        u = rng.standard_normal(layout.shape)
        for s in range(layout.count):
            op, _ = _restricted(blk, layout, s)
            got = op(u * on_grid(layout, s, layout.tilde[s]))
            want = blk.forward(u) * _core_mask(blk, layout, s)
            assert np.array_equal(got, want), (blk.op, s)


def test_core_values_ignore_extension_outside_patch():
    # the enlargement is big enough: junk outside it cannot reach the core
    rng = np.random.default_rng(9)
    for blk, layout in _blocks_with_layouts():
        u = rng.standard_normal(layout.shape)
        for s in range(layout.count):
            tilde = on_grid(layout, s, layout.tilde[s])
            inside = u * tilde
            junk = inside + 1e6 * rng.standard_normal(layout.shape) * ~tilde
            a = blk.forward(inside)
            b = blk.forward(junk)
            mask = _core_mask(blk, layout, s)
            assert np.array_equal(a * mask, b * mask), (blk.op, s)
