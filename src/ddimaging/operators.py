"""Discrete difference operators, uniform blur, and their exact adjoints.

Forward differences use the homogeneous Neumann convention: the difference is
zero at the last row/column.  Backward differences are zero at the first
row/column.  Adjoints scatter the transposed stencil, so each adjoint is the
exact matrix transpose of its forward operator including the boundary rows;
the identity <K u, w> == <u, K* w> then holds to round-off with no
boundary-case exceptions.

The gradients, the Hessian and their adjoints allocate their output once and
write each channel's differences straight into its plane, with no stacked or
zero-filled temporaries.  An adjoint's edge rows are 0.0 - p and 0.0 + p, and
its interior (0.0 + p[i-1]) - p[i], which is exactly what adding the stencil
into zeros gave, signed zeros included: no adjoint entry is ever -0.0.

Fields are planar: each channel is its own contiguous (M, N) plane, on an
axis just before the two pixel axes.  Vector fields stack (row-difference,
column-difference) planes, shape (2, M, N).  The composed second-order
operator hessian() stacks its four planes in the order (xx, xy, yx, yy)
where "x" means the row direction, shape (4, M, N).

Every operator acts on the two pixel axes of an image and passes leading
axes through: applied to a stack of equal-shape images (n, M, N), or to a
stack of their fields (n, c, M, N), it gives each image's result, bit for
bit, since each output is the same elementwise arithmetic on the same
inputs.
"""

from dataclasses import dataclass

import numpy as np

from .fields import check_count, norm2


# ---------------------------------------------------------------------------
# first differences
# ---------------------------------------------------------------------------


_HEAD, _TAIL = slice(None, -1), slice(1, None)


def _cut(a, axis, index):
    """a indexed along its row (axis -2) or column (axis -1) pixel axis."""
    return a[(..., index) if axis == -1 else (..., index, slice(None))]


def _diff(u, axis, forward, out):
    """Write u's forward or backward difference along axis into out.

    u[i+1] - u[i] lands on i (forward) or on i+1 (backward); the last
    (forward) or first (backward) row or column is zero.
    """
    np.subtract(_cut(u, axis, _TAIL), _cut(u, axis, _HEAD),
                out=_cut(out, axis, _HEAD if forward else _TAIL))
    _cut(out, axis, -1 if forward else 0)[...] = 0.0
    return out


def _adjoint_diff(p, axis, forward, out):
    """Write the adjoint of _diff(., axis, forward) applied to p into out.

    The two steps of scatter-adding the transposed stencil into zeros, the
    first one writing instead of adding: with q the entries of p that the
    difference writes, out[i+1] = 0.0 + q[i], then out[i] -= q[i].
    """
    q, head = _cut(p, axis, _HEAD if forward else _TAIL), _cut(out, axis, _HEAD)
    _cut(out, axis, 0)[...] = 0.0
    np.add(0.0, q, out=_cut(out, axis, _TAIL))
    np.subtract(head, q, out=head)
    return out


def dxp(u):
    """Forward row difference, zero at the last row."""
    return _diff(u, -2, True, np.empty_like(u, dtype=np.float64))


def dxm(u):
    """Backward row difference, zero at the first row."""
    return _diff(u, -2, False, np.empty_like(u, dtype=np.float64))


def dyp(u):
    """Forward column difference, zero at the last column."""
    return _diff(u, -1, True, np.empty_like(u, dtype=np.float64))


def dym(u):
    """Backward column difference, zero at the first column."""
    return _diff(u, -1, False, np.empty_like(u, dtype=np.float64))


def adjoint_dxp(p):
    return _adjoint_diff(p, -2, True, np.empty_like(p, dtype=np.float64))


def adjoint_dxm(p):
    return _adjoint_diff(p, -2, False, np.empty_like(p, dtype=np.float64))


def adjoint_dyp(p):
    return _adjoint_diff(p, -1, True, np.empty_like(p, dtype=np.float64))


def adjoint_dym(p):
    return _adjoint_diff(p, -1, False, np.empty_like(p, dtype=np.float64))


# ---------------------------------------------------------------------------
# gradients and the second-order composition
# ---------------------------------------------------------------------------


def _adjoint_sum(p, q, forward, out, scratch):
    """Write the row difference's adjoint of p plus the column one's of q
    into out, overwriting scratch."""
    _adjoint_diff(p, -2, forward, out)
    return np.add(out, _adjoint_diff(q, -1, forward, scratch), out=out)


def _gradient(u, forward):
    out = np.empty(u.shape[:-2] + (2,) + u.shape[-2:])
    _diff(u, -2, forward, out[..., 0, :, :])
    _diff(u, -1, forward, out[..., 1, :, :])
    return out


def grad_plus(u):
    """Forward gradient: (..., M, N) -> (..., 2, M, N)."""
    return _gradient(u, True)


def grad_minus(u):
    """Backward gradient: (..., M, N) -> (..., 2, M, N)."""
    return _gradient(u, False)


def adjoint_grad_plus(p):
    """Adjoint of grad_plus: (..., 2, M, N) -> (..., M, N)."""
    shape = p.shape[:-3] + p.shape[-2:]
    return _adjoint_sum(p[..., 0, :, :], p[..., 1, :, :], True, np.empty(shape),
                        np.empty(shape))


def adjoint_grad_minus(p):
    """Adjoint of grad_minus: (..., 2, M, N) -> (..., M, N)."""
    shape = p.shape[:-3] + p.shape[-2:]
    return _adjoint_sum(p[..., 0, :, :], p[..., 1, :, :], False, np.empty(shape),
                        np.empty(shape))


def hessian(u):
    """Backward-of-forward second differences: (..., M, N) -> (..., 4, M, N).

    Channel order (xx, xy, yx, yy): the backward x/y differences of the
    forward x derivative, then of the forward y derivative.
    """
    w = np.empty((2,) + u.shape)
    wx, wy = _diff(u, -2, True, w[0]), _diff(u, -1, True, w[1])
    out = np.empty(u.shape[:-2] + (4,) + u.shape[-2:])
    for k, (v, axis) in enumerate(((wx, -2), (wx, -1), (wy, -2), (wy, -1))):
        _diff(v, axis, False, out[..., k, :, :])
    return out


def adjoint_hessian(t):
    """Adjoint of hessian: (..., 4, M, N) -> (..., M, N)."""
    shape = t.shape[:-3] + t.shape[-2:]
    w = np.empty((3,) + shape)
    wx = _adjoint_sum(t[..., 0, :, :], t[..., 1, :, :], False, w[0], w[2])
    wy = _adjoint_sum(t[..., 2, :, :], t[..., 3, :, :], False, w[1], w[2])
    return _adjoint_sum(wx, wy, True, np.empty(shape), w[2])


# ---------------------------------------------------------------------------
# uniform blur
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlurKernel:
    """Uniform square kernel of side 2*halfwidth + 1 with zero padding."""

    halfwidth: int

    def __post_init__(self):
        check_count("halfwidth", self.halfwidth)
        object.__setattr__(self, "halfwidth", int(self.halfwidth))

    @property
    def size(self):
        return 2 * self.halfwidth + 1


def blur(u, kernel):
    """Mean over the (2l+1)^2 window, pixels outside the grid read as zero.

    The kernel is symmetric, so the operator is self-adjoint; the window sum
    always divides by the full tap count, which pulls values toward zero at
    the image border.

    Computed in two shift-and-add passes: each row is summed over the column
    offsets -l..l, then those sums are summed down each column over the row
    offsets -l..l, both in ascending order with zero padding.  Output (i, j)
    therefore reads exactly the pixels of its own window, however wide the
    image, which the subdomain enlargements and the window solves rely on; a
    running-sum or FFT filter would let roundoff from far-away pixels leak
    into every output.  Offsets that miss the grid entirely are skipped, so
    a kernel wider than the image costs no more than one as wide as it.
    """
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


def adjoint_blur(u, kernel):
    """Adjoint of blur (equal to blur: the kernel is symmetric)."""
    return blur(u, kernel)


# ---------------------------------------------------------------------------
# operator norm estimation
# ---------------------------------------------------------------------------


def op_norm_sq_estimate(op, adjoint, shape, iters=100, seed=0):
    """Power-iteration estimate of the squared operator norm.

    Iterates x <- op*(op(x)) from a seeded random start and returns the last
    Rayleigh quotient <x, op*(op(x))> = ||op(x)||^2 for unit x, which is a
    lower bound on the true squared norm and increases toward it.
    """
    check_count("iters", iters)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape)
    n = norm2(x)
    if n == 0.0:
        raise ValueError("degenerate start vector")
    x = x / n
    est = 0.0
    for _ in range(iters):
        y = adjoint(op(x))
        est = float(np.sum(x * y))
        n = norm2(y)
        if n == 0.0:
            return 0.0
        x = y / n
    return est

