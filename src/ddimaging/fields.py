"""Pixel fields, norms, pointwise projections, and the argument checks.

An image on an M x N pixel grid is a float64 array of shape (M, N), indexed
u[i, j] with i the row and j the column.  Vector fields (two channels) and
tensor fields (four channels) carry their channels along the last axis, so
their shapes are (M, N, 2) and (M, N, 4).  A stack of n equal-shape images
adds a leading axis, (n, M, N), and so does a stack of their fields, so a
field has a channel axis exactly when it has one more axis than the image
(or the stack) it lives on; magnitude() and project_ball() take that image's
ndim.  All functions here are pure: they never modify their arguments.
"""

import math
import numbers

import numpy as np


def check_count(name, value):
    """Raise unless value, the argument `name`, is an integer >= 1."""
    if (not isinstance(value, numbers.Integral) or isinstance(value, bool)
            or value < 1):
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


def check_positive(name, value):
    """Raise unless value, the argument `name`, is a finite positive real number."""
    if (not isinstance(value, numbers.Real) or isinstance(value, bool)
            or not (math.isfinite(value) and value > 0)):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


def magnitude(x, ndim=2):
    """Pointwise magnitude of a field on an ndim-axis image or stack.

    Scalars (x.ndim == ndim) give |x|; multi-channel fields (one more axis)
    give the root-sum-square over the trailing channel axis, the squares
    summed left to right into one array.  Returns an array of the image's
    shape.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == ndim:
        return np.abs(x)
    if x.ndim == ndim + 1:
        acc = x[..., 0] * x[..., 0]
        for k in range(1, x.shape[-1]):
            acc += x[..., k] * x[..., k]
        return np.sqrt(acc, out=acc)
    raise ValueError(f"expected a {ndim}-D or {ndim + 1}-D field, got shape {x.shape}")


def inner(u, v):
    """Euclidean inner product of two fields of identical shape.

    Summation is numpy's pairwise reduction over the flattened product,
    which is deterministic for a fixed shape and exactly symmetric in the
    two arguments.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"shape mismatch: {u.shape} vs {v.shape}")
    return float(np.sum(u * v))


def norm2(x):
    """Euclidean norm of a field (all entries, any shape)."""
    x = np.asarray(x, dtype=np.float64)
    return float(np.sqrt(np.sum(x * x)))


def project_ball(x, r, ndim=2):
    """Pointwise Euclidean projection onto the ball of radius r.

    Each pixel's channel vector (or scalar value) is rescaled onto the
    radius-r ball; pixels already inside are returned unchanged, bit for
    bit, since their scale factor is exactly 1.  x is a field on an
    ndim-axis image or stack, as in magnitude().
    """
    if not r > 0:
        raise ValueError(f"ball radius must be positive, got {r!r}")
    x = np.asarray(x, dtype=np.float64)
    scale = magnitude(x, ndim)
    np.maximum(1.0, np.divide(scale, r, out=scale), out=scale)
    return x / (scale[..., None] if x.ndim > ndim else scale)


def psnr(u, ref):
    """Peak signal-to-noise ratio in dB against a reference in [0, 1].

    Peak value is 1.0, so psnr = 10*log10(1/mse).  A zero mean squared
    error returns math.inf.
    """
    u = np.asarray(u, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    if u.shape != ref.shape:
        raise ValueError(f"shape mismatch: {u.shape} vs {ref.shape}")
    mse = float(np.mean((u - ref) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(1.0 / mse)
