"""Variational imaging models: saddle-point declarations, energies, integrands.

Every model minimizes, over images u on an M x N grid,

    J(u) = w*<u, c>  +  [u in [0,1]^(M x N)]  +  sum_b r_b * ||K_b u - f_b||_1

with K_b linear and ||.||_1 summing pointwise magnitudes.  Each model class
declares this structure once as a Saddle: its dual blocks (K_b, its adjoint,
the radius r_b that bounds the block's dual variable, K_b's largest absolute
row and column sums (R_b, C_b), an optional data shift f_b), the optional
linear term (w, c) and whether u is confined to the unit box.  The sums
give the primal-dual step sizes: each block's dual step and the primal
step (see solvers.step_sizes), and the bound sum_b R_b*C_b on the squared
norm of the stacked operator (K_b)_b, which limits the baseline's steps.
The blocks' operators alone decide each subdomain's enlargement (see
stencil_of).  Each parameter's default is its field's default, and the
class-level Defaults give the solver settings: the coupling weight eta,
the stop tolerance, the inner iteration budget and the baseline's primal
step.

* ChanVese:   alpha*<u, g> + box + ||grad u||_1 with g = (f - c1)^2 - (f - c2)^2
              (two-phase segmentation with fixed region values, minimized by
              a relaxed mask).
* TVL1Deblur: alpha*||A u - f||_1 + ||grad u||_1 with A a uniform blur.
* HessianL1:  alpha*||u - f||_1 + ||H u||_1 with H the backward-of-forward
              second differences (denoising; the data map is the identity).

energy(), integrand() and stencil_of() read the declaration, and so do the
solvers.  integrand() returns the pointwise energy density whose sum equals
energy(u), with +inf marking box violations.
"""

import inspect
import math
import sys
from dataclasses import dataclass, field, replace
from functools import cached_property, reduce
from operator import add
from typing import Optional

import numpy as np

from . import operators
from .fields import magnitude
# blur, grad_plus and hessian are applied through the blocks' operator names
from .operators import BlurKernel, blur, grad_plus, hessian  # noqa: F401


@dataclass(frozen=True)
class Block:
    """One dual block: the term radius * ||K u - shift||_1.

    sums = (R, C) are K's largest absolute row and column sums, sums of
    |K_ij| over j and over i, or upper bounds on them on every grid; they
    set the block's dual step 1/R and its share C of the primal step's
    denominator (see solvers.step_sizes), and R*C bounds ||K||^2.  The
    identity's (1, 1) is the default of a block without an operator; a
    block with one must declare them, or it raises a ValueError.

    K and its adjoint are named, not held (None is the identity), and each
    name must be a function of ddimaging.operators, applied as K(u, *args)
    with hashable args, or the block raises a ValueError naming itself.
    Blocks compare by (op, adjoint, args) alone (see stencil_of).  Names
    resolve at call time in a namespace ns, falling back to the operators
    module; the solvers pass their own module namespace, so a wrapper
    installed on one of its attributes (a profiler, a tracer) sees every
    application.  The block's dual has the shape of K u (see zero_dual).
    K must be linear and built from sums and scalings of its input, as
    every operator in the operators module is: a subdomain's enlargement is
    read off the adjoint applied to NaN (see decomposition.essential_domain).
    """

    op: Optional[str]
    adjoint: Optional[str]
    radius: float = field(compare=False)
    sums: Optional[tuple] = field(default=None, compare=False)
    shift: Optional[np.ndarray] = field(default=None, compare=False, repr=False)
    args: tuple = ()

    def __post_init__(self):
        block = f"Block({self.op!r}, {self.adjoint!r})"
        for name in (self.op, self.adjoint):
            if name is not None and not (isinstance(name, str) and inspect.isfunction(
                    getattr(operators, name, None))):
                raise ValueError(f"{block}: {name!r} is not a function of ddimaging.operators")
        try:
            hash(self.args)
        except TypeError as exc:
            raise ValueError(f"{block}: args must be hashable ({exc})") from None
        if self.sums is None and self.op is None:
            object.__setattr__(self, "sums", (1.0, 1.0))
        if not (isinstance(self.sums, tuple) and len(self.sums) == 2 and all(
                isinstance(x, (int, float)) and math.isfinite(x) and x > 0 for x in self.sums)):
            raise ValueError(f"{block}: sums must be K's largest absolute row and column "
                             f"sums, two finite positive numbers, got {self.sums!r}")

    def forward(self, u, ns=vars(operators)):
        return u if self.op is None else _operator(self.op, ns)(u, *self.args)

    def transpose(self, y, ns=vars(operators)):
        return y if self.adjoint is None else _operator(self.adjoint, ns)(y, *self.args)

    def zero_dual(self, shape):
        """Zeros shaped like K u for an image or stack u of the given shape:
        shape itself, or the channel-first (c,) + shape for a c-channel K."""
        return np.zeros(self.forward(np.zeros((1, 1))).shape[:-2] + shape)


def _operator(name, ns):
    return ns[name] if name in ns else getattr(operators, name)


# a forward difference's row holds -1 and 1, and each pixel enters two rows
# of each of the gradient's two channels; each of the Hessian's four
# channels is a difference of differences, with rows and columns of 4
TV = Block("grad_plus", "adjoint_grad_plus", 1.0, sums=(2, 4))
HESSIAN = Block("hessian", "adjoint_hessian", 1.0, sums=(4, 16))


@dataclass(frozen=True, eq=False)
class Saddle:
    """The saddle-point structure of a model (see the module docstring);
    with core and prox set, a local problem's (see solvers._local_saddle)."""

    blocks: tuple
    linear: Optional[tuple] = None  # (w, c)
    box: bool = False
    core: Optional[np.ndarray] = None
    prox: Optional[tuple] = None  # (eta, uhat)

    @property
    def bound(self):
        """sum_b R_b*C_b, a bound on the squared norm of the stacked operator
        (K_b)_b: ||K||^2 <= sum_b ||K_b||^2 <= sum_b ||K_b||_inf*||K_b||_1."""
        return float(sum(r * c for r, c in (blk.sums for blk in self.blocks)))


@dataclass(frozen=True)
class Defaults:
    """Solver settings; cp_tau=None runs the baseline at sigma = tau = 1/sqrt(bound)."""

    eta: float
    tol: float
    inner_iters: int
    cp_tau: Optional[float] = None


@dataclass(frozen=True, eq=False)
class ChanVese:
    f: np.ndarray
    alpha: float = 10.0
    c1: float = 0.6
    c2: float = 0.1

    defaults = Defaults(eta=1.0, tol=1e-4, inner_iters=10)

    def __post_init__(self):
        _check_params(self, alpha=self.alpha, c1=self.c1, c2=self.c2)
        if self.c1 == self.c2:
            raise ValueError("region values c1 and c2 must differ")
        with np.errstate(over="ignore", invalid="ignore"):
            g = (self.f - self.c1) ** 2 - (self.f - self.c2) ** 2
            finite = np.isfinite(self.alpha * g).all()
        if not finite:
            raise ValueError(f"c1 = {self.c1!r} and c2 = {self.c2!r} make the "
                             "linear term alpha*((f - c1)^2 - (f - c2)^2) non-finite")
        object.__setattr__(self, "g", g)

    @cached_property
    def saddle(self):
        return _checked(self, Saddle(blocks=(TV,), linear=(self.alpha, self.g), box=True))


@dataclass(frozen=True, eq=False)
class TVL1Deblur:
    f: np.ndarray
    kernel: BlurKernel
    alpha: float = 10.0

    defaults = Defaults(eta=10.0, tol=1e-3, inner_iters=50, cp_tau=0.02)

    def __post_init__(self):
        _check_params(self, alpha=self.alpha)

    @cached_property
    def saddle(self):
        # a mean: its rows and columns sum to 1, less where the window
        # leaves the grid
        data = Block("blur", "blur", self.alpha, sums=(1, 1), shift=self.f,
                     args=(self.kernel,))
        return _checked(self, Saddle(blocks=(data, TV)))


@dataclass(frozen=True, eq=False)
class HessianL1:
    f: np.ndarray
    alpha: float = 1.0

    defaults = Defaults(eta=20.0, tol=1e-3, inner_iters=50, cp_tau=0.02)

    def __post_init__(self):
        _check_params(self, alpha=self.alpha)

    @cached_property
    def saddle(self):
        data = Block(None, None, self.alpha, shift=self.f)
        return _checked(self, Saddle(blocks=(data, HESSIAN)))


def _check_params(model, **values):
    f = np.asarray(model.f)
    if f.ndim != 2 or f.size == 0:
        raise ValueError(f"data image must be a nonempty 2-D array, got shape {f.shape}")
    if not np.isfinite(f).all():
        raise ValueError("data image must be finite")
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    # a subnormal alpha, a block's radius, overflows the ball projection's
    # magnitude / radius
    if not model.alpha >= sys.float_info.min:
        raise ValueError(f"alpha must be positive and at least {sys.float_info.min!r} "
                         f"(the smallest normal float), got {model.alpha!r}")


def _checked(model, sd):
    """sd, the model's saddle, once alpha is checked against the data.

    Each data term's weight times its summed magnitude (r_b * sum|f_b| for a
    block with a shift, w * sum|c| for the linear term) must be a finite
    float, or the energy is not finite at u = 0 or somewhere on the box; a
    sum that overflows by itself is the data's, left to the solve to report.
    This runs where the saddle is first built rather than in the
    constructor, which so stays one pass over the data.
    """
    terms = [(blk.radius, blk.shift) for blk in sd.blocks if blk.shift is not None]
    for weight, a in terms + ([] if sd.linear is None else [sd.linear]):
        with np.errstate(over="ignore"):
            total = float(np.sum(np.abs(a)))
        if math.isfinite(total) and not math.isfinite(weight * total):
            raise ValueError(f"alpha = {model.alpha!r} is too large: a data term's weight "
                             f"times its summed magnitude, {weight!r} * {total!r}, "
                             "is not a finite float")
    return sd


def objective_terms(sd, u):
    """The weighted terms of the saddle's objective at u as (weight, density) pairs.

    The linear term comes first, then the blocks in declaration order; the
    density of the linear term is u*c, that of a block |K u - f| pointwise.
    With sd.core set these are the terms of a local problem: every density
    is masked to the core tiles, and u may be a stack of windows, with the
    data and core stacked alike.  The proximal term is not among them.  The
    operators resolve in this module.
    """
    out = []
    if sd.linear is not None:
        weight, c = sd.linear
        out.append((weight, u * c if sd.core is None else u * c * sd.core))
    for blk in sd.blocks:
        r = blk.forward(u, globals())
        if blk.shift is not None:
            r = r - blk.shift
        if sd.core is not None:
            r = r * sd.core
        out.append((blk.radius, magnitude(r, u.ndim)))
    return out


def weighted_sum(terms):
    """Sum of weight * (summed density) in term order."""
    return reduce(add, (w * float(np.sum(d)) for w, d in terms))


def _as_field(model, u):
    u = np.asarray(u, dtype=np.float64)
    if u.shape != model.f.shape:
        raise ValueError(f"shape mismatch: {u.shape} vs {model.f.shape}")
    return u


def _box_ok(u):
    return bool((u >= 0.0).all() and (u <= 1.0).all())


def energy(model, u):
    """Objective value at u; +inf outside the box for box-constrained models."""
    u = _as_field(model, u)
    if model.saddle.box and not _box_ok(u):
        return float("inf")
    return weighted_sum(objective_terms(model.saddle, u))


def integrand(model, u):
    """Pointwise energy density T(u) with sum(T) == energy(model, u).

    The weights are folded into the density.  For box-constrained models,
    pixels violating the box carry +inf.
    """
    u = _as_field(model, u)
    t = reduce(add, (w * d for w, d in objective_terms(model.saddle, u)))
    if model.saddle.box:
        bad = (u < 0.0) | (u > 1.0)
        if bad.any():
            t = np.where(bad, np.inf, t)
    return t


def stencil_of(model):
    """The model's blocks without their data: the operators that decide its
    enlargements, equal for two models whose blocks name the same ones."""
    return tuple(replace(b, shift=None) for b in model.saddle.blocks)


def salt_pepper(u, p, seed):
    """Salt-and-pepper corruption with per-pixel probability p.

    Corrupted pixels become 0 or 1 with equal probability.  Randomness comes
    from a counter-based (Philox) generator keyed by the seed, with the
    pixel's row-major index selecting its draw, so the result is independent
    of any traversal order and reproducible bit for bit.
    """
    u = np.asarray(u, dtype=np.float64)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"corruption probability must be in [0, 1], got {p!r}")
    gen = np.random.Generator(np.random.Philox(seed))
    hit = gen.random(u.shape) < p
    value = (gen.random(u.shape) < 0.5).astype(np.float64)
    return np.where(hit, value, u)


def threshold_half(u):
    """Binary mask u >= 1/2, ties mapping to 1."""
    return np.where(np.asarray(u, dtype=np.float64) >= 0.5, 1.0, 0.0)
