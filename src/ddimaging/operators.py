"""Gradients, the Hessian, uniform blur, and their exact adjoints.

Forward differences use the homogeneous Neumann convention: the difference is
zero at the last row/column.  Backward differences are zero at the first
row/column.  Adjoints scatter the transposed stencil, so each adjoint is the
exact matrix transpose of its forward operator including the boundary rows;
the identity <K u, w> == <u, K* w> then holds to round-off with no
boundary-case exceptions.

Fields are channel-first: a c-channel field on an image or stack of shape
s has shape (c,) + s, so each channel is one contiguous block, an (M, N)
plane for an image and an (n, M, N) stack of planes for a stack.  The
gradients grad_plus (forward) and grad_minus (backward) stack
(row-difference, column-difference) channels, shape (2, M, N), where "x"
means the row direction and "y" the column one; a single difference is one
of their channels.  The second-order operator hessian() is
grad_minus(grad_plus(u)) with its two channel axes merged, channels (xx,
xy, yx, yy), shape (4, M, N), and adjoint_hessian() is adjoint_grad_plus
of adjoint_grad_minus: both are composed from the gradients' kernels and
add no arithmetic of their own.

The gradients and their adjoints allocate their output once and write each
channel's differences straight into its plane (_diff and _adjoint_diff),
with no stacked or zero-filled temporaries.  An adjoint's edge rows are
0.0 - p and 0.0 + p, and its interior (0.0 + p[i-1]) - p[i], which is
exactly what adding the stencil into zeros gave, signed zeros included: no
adjoint entry is ever -0.0.

Every operator acts on the two pixel axes of an image and passes leading
axes through: applied to a stack of equal-shape images (n, M, N) it gives
(c, n, M, N), and its adjoint takes a stack's field (c, n, M, N), each
image's result bit for bit, since each output is the same elementwise
arithmetic on the same inputs.

Each shift-and-add is one contiguous 1-D numpy operation.  A difference
reads its operand and writes its output, which must be C-contiguous (a
ValueError otherwise), as one flat axis, an image's M*N values or a
stack's n*M*N, on which neighbours along a row are 1 apart and down a
column N apart; it is one subtract of that axis against itself shifted.  A
strided operand is read through one flat copy, which moves no bit.  A
column difference's shift crosses each row's end, and a row difference's
on a stack each image's end; what it computes there lands on a boundary
row or column, which is written afterwards.  The blur does the same on a
zero-padded copy of its input (see blur).  Every output entry takes the
same operands in the same order as the slice-by-slice formulas, so every
bit is theirs.  A discarded lane may compute inf - inf from a ±inf input
and raise numpy's "invalid value" RuntimeWarning; NaN and finite input
raise none.
"""

from dataclasses import dataclass

import numpy as np

from .fields import check_count, norm2


# ---------------------------------------------------------------------------
# first differences
# ---------------------------------------------------------------------------


def _cut(a, axis, index):
    """a indexed along its row (axis -2) or column (axis -1) pixel axis."""
    return a[(..., index) if axis == -1 else (..., index, slice(None))]


def _diff(u, axis, forward, out):
    """Write u's forward or backward difference along axis into out.

    u[i+1] - u[i] lands on i (forward) or on i+1 (backward); the last
    (forward) or first (backward) row or column is zero.  One subtract over
    the flattened operand, shifted by one row or one column; a column
    difference also takes one across each row's end, and a row difference
    on a stack one across each image's end, which lands on the zero column
    or row and is overwritten.
    """
    if not out.flags.c_contiguous:
        raise ValueError("out must be C-contiguous")
    s = 1 if axis == -1 else u.shape[-1]
    f, flat = u.reshape(-1), out.reshape(-1)
    np.subtract(f[s:], f[:-s], out=flat[:-s] if forward else flat[s:])
    _cut(out, axis, -1 if forward else 0)[...] = 0.0
    return out


def _adjoint_diff(p, axis, forward, out):
    """Write the adjoint of _diff(., axis, forward) applied to p into out.

    The two steps of scatter-adding the transposed stencil into zeros, the
    first one writing instead of adding: with q the entries of p that the
    difference writes, out[i+1] = 0.0 + q[i], then out[i] -= q[i], each over
    the flattened operands.  For a column difference, and for a row
    difference on a stack, the first step also runs across each row's or
    image's end into the first column or row, which is then zeroed, and the
    second into the last column or row, which is then written again as
    0.0 + q[-1].
    """
    if not out.flags.c_contiguous:
        raise ValueError("out must be C-contiguous")
    if out.shape[axis] == 1:
        out[...] = 0.0  # no differences, so no stencil to scatter
        return out
    s = 1 if axis == -1 else p.shape[-1]
    f, flat = p.reshape(-1), out.reshape(-1)
    q = f[:-s] if forward else f[s:]
    np.add(0.0, q, out=flat[s:])
    _cut(out, axis, 0)[...] = 0.0
    np.subtract(flat[:-s], q, out=flat[:-s])
    if axis == -1 or out.ndim > 2:
        np.add(0.0, _cut(p, axis, -2 if forward else -1), out=_cut(out, axis, -1))
    return out


# ---------------------------------------------------------------------------
# gradients and the second-order composition
# ---------------------------------------------------------------------------


def _gradient(u, forward, out=None):
    out = np.empty((2,) + u.shape) if out is None else out
    _diff(u, -2, forward, out[0])
    _diff(u, -1, forward, out[1])
    return out


def _adjoint_gradient(p, q, forward, out=None):
    """The row difference's adjoint of p plus the column one's of q."""
    out = _adjoint_diff(p, -2, forward, np.empty(p.shape) if out is None else out)
    return np.add(out, _adjoint_diff(q, -1, forward, np.empty(p.shape)), out=out)


def grad_plus(u):
    """Forward gradient: (...) image or stack -> (2, ...)."""
    return _gradient(u, True)


def grad_minus(u):
    """Backward gradient: (...) image or stack -> (2, ...)."""
    return _gradient(u, False)


def adjoint_grad_plus(p):
    """Adjoint of grad_plus: (2, ...) -> (...)."""
    return _adjoint_gradient(p[0], p[1], True)


def adjoint_grad_minus(p):
    """Adjoint of grad_minus: (2, ...) -> (...)."""
    return _adjoint_gradient(p[0], p[1], False)


def hessian(u):
    """Backward-of-forward second differences: (...) -> (4, ...).

    grad_minus(grad_plus(u)), the backward gradient of each forward channel
    written into two consecutive channels, so that they come in the order
    (xx, xy, yx, yy): the backward x/y differences of the forward x
    derivative, then of the forward y one.
    """
    g, h = grad_plus(u), np.empty((4,) + u.shape)
    _gradient(g[0], False, h[0:2])
    _gradient(g[1], False, h[2:4])
    return h


def adjoint_hessian(t):
    """Adjoint of hessian: (4, ...) -> (...).

    adjoint_grad_plus of adjoint_grad_minus applied to t as (2, 2, ...):
    each forward channel's backward-gradient pair, (xx, xy) and then (yx,
    yy), goes through adjoint_grad_minus into its plane of one (2, ...)
    field.
    """
    w = np.empty((2,) + t.shape[1:])
    _adjoint_gradient(t[0], t[1], False, w[0])
    _adjoint_gradient(t[2], t[3], False, w[1])
    return adjoint_grad_plus(w)


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


def _shift_sum(a, stride, taps, out):
    """Write a[k] + a[k + stride] + ... + a[k + (taps-1)*stride], added in
    that order, to out[k] for every k of the 1-D out."""
    size = out.size
    if taps == 1:
        np.copyto(out, a[:size])
    else:
        np.add(a[:size], a[stride:stride + size], out=out)
    for d in range(2, taps):
        np.add(out, a[d * stride:d * stride + size], out=out)
    return out


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
    into every output.  The offsets stop at lc = min(l, n - 1) columns and
    lr = min(l, m - 1) rows, past which they miss the grid entirely.

    Every add is one contiguous 1-D numpy operation.  The input is copied
    once, as u + 0.0, into a zero-padded buffer of shape (..., m + 2lr,
    n + 2lc), read as one flat axis.  The row pass adds the 2lc + 1 slices
    of that axis shifted by one, the column pass the 2lr + 1 slices of the
    row sums shifted by one padded row, written back into the padded buffer,
    and the sums are divided by k^2 once.  So each output adds the same
    pixels in the same order as a sum that skips the offsets off the grid,
    plus exact +0.0 pads: x + 0.0 == x for every x but -0.0, no partial sum
    is -0.0, and the copy turns an input -0.0 into +0.0, as starting such a
    sum from 0.0 does.  The passes also fill lanes that are no output: the
    2lc past each row's end and the 2lr rows past each image's end.  They
    are discarded, and they never mix two rows' values, since 2lc zeros
    separate consecutive rows: a lane past a row's end reads the end of
    that row or the start of the next, not both.  The row sums of the first
    and the last lr padded rows, zero rows, are written as zeros instead of
    summed.  A pass costs one add per padded pixel and offset, so a kernel
    as wide as the image pays for about nine times its pixels.
    """
    u = np.asarray(u, dtype=np.float64)
    m, n = u.shape[-2:]
    l = kernel.halfwidth
    lr, lc = min(l, m - 1), min(l, n - 1)
    padded = np.zeros(u.shape[:-2] + (m + 2 * lr, n + 2 * lc))
    np.add(u, 0.0, out=padded[..., lr:lr + m, lc:lc + n])
    flat, width = padded.reshape(-1), n + 2 * lc
    rows, edge = np.empty(flat.size - 2 * lc), lr * width
    rows[:edge] = rows[rows.size - edge:] = 0.0
    _shift_sum(flat[edge:], 1, 2 * lc + 1, rows[edge:rows.size - edge])
    _shift_sum(rows, width, 2 * lr + 1, flat[:rows.size - 2 * lr * width])
    del rows
    return np.divide(padded[..., :m, :n], float(kernel.size ** 2))


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
        raise ValueError(f"degenerate start vector of shape {x.shape}")
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

