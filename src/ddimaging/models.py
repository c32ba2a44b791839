"""Variational imaging models: saddle-point declarations, energies, integrands.

Every model minimizes, over images u on an M x N grid,

    J(u) = w*<u, c>  +  [u in [0,1]^(M x N)]  +  sum_b r_b * ||K_b u - f_b||_1

with K_b linear and ||.||_1 summing pointwise magnitudes.  Each model class
declares this structure once as a Saddle: its dual blocks (K_b, its adjoint,
the radius r_b that bounds the block's dual variable, an optional data shift
f_b), the optional linear term (w, c), whether u is confined to the unit box,
and the bound on the squared norm of the stacked operator (K_b)_b, which
limits the primal-dual step sizes; the blocks' operators alone decide each
subdomain's enlargement (see stencil_of).  Each parameter's default is its
field's default, and the class-level Defaults give the solver settings: the
coupling weight eta, the stop tolerance, the inner iteration budget and the
baseline's primal step.

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

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import add
from typing import Optional

import numpy as np

from . import operators
from .decomposition import Stencil
from .fields import magnitude
# blur, grad_plus and hessian are applied through the blocks' operator names
from .operators import BlurKernel, blur, grad_plus, hessian  # noqa: F401


@dataclass(frozen=True, eq=False)
class Block:
    """One dual block: the term radius * ||K u - shift||_1.

    K and its adjoint are named, not held (None is the identity), and are
    resolved at call time in a namespace ns, falling back to the operators
    module.  The solvers pass their own module namespace, so a wrapper
    installed on one of its attributes (a profiler, a tracer) sees every
    application.  args follow the field in each call; the block's dual
    variable has the shape of K u, which the operator alone decides.  K
    must be linear and built from sums and scalings of its input, as every
    operator in the operators module is: a subdomain's enlargement is read
    off the adjoint applied to NaN (see decomposition.essential_domain).
    """

    op: Optional[str]
    adjoint: Optional[str]
    radius: float
    shift: Optional[np.ndarray] = None
    args: tuple = ()

    def forward(self, u, ns=vars(operators)):
        return u if self.op is None else _operator(self.op, ns)(u, *self.args)

    def transpose(self, y, ns=vars(operators)):
        return y if self.adjoint is None else _operator(self.adjoint, ns)(y, *self.args)


def _operator(name, ns):
    return ns[name] if name in ns else getattr(operators, name)


TV = Block("grad_plus", "adjoint_grad_plus", 1.0)
HESSIAN = Block("hessian", "adjoint_hessian", 1.0)


@dataclass(frozen=True, eq=False)
class Saddle:
    """The saddle-point structure of a model (see the module docstring);
    with core and prox set, a local problem's (see solvers._local_saddle)."""

    blocks: tuple
    bound: float
    linear: Optional[tuple] = None  # (w, c)
    box: bool = False
    core: Optional[np.ndarray] = None
    prox: Optional[tuple] = None  # (eta, uhat)


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
        return Saddle(blocks=(TV,), bound=8.0, linear=(self.alpha, self.g), box=True)


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
        data = Block("blur", "blur", self.alpha, shift=self.f, args=(self.kernel,))
        return Saddle(blocks=(data, TV), bound=9.0)


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
        return Saddle(blocks=(data, HESSIAN), bound=65.0)


def _check_params(model, **values):
    f = np.asarray(model.f)
    if f.ndim != 2 or f.size == 0:
        raise ValueError(f"data image must be a nonempty 2-D array, got shape {f.shape}")
    if not np.isfinite(f).all():
        raise ValueError("data image must be finite")
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if not model.alpha > 0:
        raise ValueError(f"alpha must be positive, got {model.alpha!r}")


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
            r = r * (sd.core[..., None] if r.ndim > u.ndim else sd.core)
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
    """The operators of the model's blocks, which decide its enlargements."""
    return Stencil(tuple((b.op, b.adjoint, b.args) for b in model.saddle.blocks))


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
