"""Discrete difference operators, uniform blur, and their exact adjoints.

Forward differences use the homogeneous Neumann convention: the difference is
zero at the last row/column.  Backward differences are zero at the first
row/column.  Adjoints are built by scatter-adding the transposed stencil, so
each adjoint is the exact matrix transpose of its forward operator including
the boundary rows; the identity <K u, w> == <u, K* w> then holds to round-off
with no boundary-case exceptions.

Vector fields stack (row-difference, column-difference) along the last axis.
The composed second-order operator hessian() stacks its four channels in the
order (xx, xy, yx, yy) where "x" means the row direction.

Every operator acts on the two pixel axes of an image and passes leading
axes through: applied to a stack of equal-shape images (n, M, N), or to a
stack of their fields (n, M, N, c), it gives each image's result, bit for
bit, since each output is the same elementwise arithmetic on the same
inputs.
"""

from dataclasses import dataclass

import numpy as np

from .fields import check_count, norm2


# ---------------------------------------------------------------------------
# first differences
# ---------------------------------------------------------------------------


def dxp(u):
    """Forward row difference, zero at the last row."""
    out = np.zeros_like(u, dtype=np.float64)
    out[..., :-1, :] = u[..., 1:, :] - u[..., :-1, :]
    return out


def dxm(u):
    """Backward row difference, zero at the first row."""
    out = np.zeros_like(u, dtype=np.float64)
    out[..., 1:, :] = u[..., 1:, :] - u[..., :-1, :]
    return out


def dyp(u):
    """Forward column difference, zero at the last column."""
    out = np.zeros_like(u, dtype=np.float64)
    out[..., :-1] = u[..., 1:] - u[..., :-1]
    return out


def dym(u):
    """Backward column difference, zero at the first column."""
    out = np.zeros_like(u, dtype=np.float64)
    out[..., 1:] = u[..., 1:] - u[..., :-1]
    return out


def adjoint_dxp(p):
    out = np.zeros_like(p, dtype=np.float64)
    out[..., 1:, :] += p[..., :-1, :]
    out[..., :-1, :] -= p[..., :-1, :]
    return out


def adjoint_dxm(p):
    out = np.zeros_like(p, dtype=np.float64)
    out[..., 1:, :] += p[..., 1:, :]
    out[..., :-1, :] -= p[..., 1:, :]
    return out


def adjoint_dyp(p):
    out = np.zeros_like(p, dtype=np.float64)
    out[..., 1:] += p[..., :-1]
    out[..., :-1] -= p[..., :-1]
    return out


def adjoint_dym(p):
    out = np.zeros_like(p, dtype=np.float64)
    out[..., 1:] += p[..., 1:]
    out[..., :-1] -= p[..., 1:]
    return out


# ---------------------------------------------------------------------------
# gradients and the second-order composition
# ---------------------------------------------------------------------------


def grad_plus(u):
    """Forward gradient: (..., M, N) -> (..., M, N, 2)."""
    return np.stack((dxp(u), dyp(u)), axis=-1)


def grad_minus(u):
    """Backward gradient: (..., M, N) -> (..., M, N, 2)."""
    return np.stack((dxm(u), dym(u)), axis=-1)


def adjoint_grad_plus(p):
    """Adjoint of grad_plus: (..., M, N, 2) -> (..., M, N)."""
    return adjoint_dxp(p[..., 0]) + adjoint_dyp(p[..., 1])


def adjoint_grad_minus(p):
    """Adjoint of grad_minus: (..., M, N, 2) -> (..., M, N)."""
    return adjoint_dxm(p[..., 0]) + adjoint_dym(p[..., 1])


def hessian(u):
    """Backward-of-forward second differences: (..., M, N) -> (..., M, N, 4).

    Channel order (xx, xy, yx, yy): the backward x/y differences of the
    forward x derivative, then of the forward y derivative.
    """
    wx = dxp(u)
    wy = dyp(u)
    return np.stack((dxm(wx), dym(wx), dxm(wy), dym(wy)), axis=-1)


def adjoint_hessian(t):
    """Adjoint of hessian: (..., M, N, 4) -> (..., M, N)."""
    wx = adjoint_dxm(t[..., 0]) + adjoint_dym(t[..., 1])
    wy = adjoint_dxm(t[..., 2]) + adjoint_dym(t[..., 3])
    return adjoint_dxp(wx) + adjoint_dyp(wy)


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

