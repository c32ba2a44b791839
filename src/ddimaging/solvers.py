"""Decoupled augmented Lagrangian outer loop and the primal-dual iteration.

The global problem min E(u) is rewritten over per-subdomain copies that must
agree on overlaps.  One outer step, with eta the coupling weight and P the
consensus projection:

    uhat_s = (P utilde)_s - lambda_s / eta
    utilde_s <- argmin  E_s(utilde_s) + (eta/2) ||utilde_s - uhat_s||^2
    lambda   <- lambda + eta * (utilde - P utilde)

The local problems decouple completely, so the middle line runs many
subdomains at once.  The copies utilde and lambda are packed fields, (S, H,
W) stacks of one window per subdomain, all of the layout's one shape (see
decomposition.OverlapLayout).  A chunk is a slice of consecutive
subdomains, and its local problems run as that slice of the stack, and of
each block's channel-first dual stack, whose every channel is then one
contiguous (n, H, W) block; the chunks run on a pool of `workers` threads
when the step's work pays for them (see DecoupledAlm).
Only the consensus averaging sees more than one subdomain's copy, and it
always sums in ascending subdomain order, which makes runs with different
worker counts identical bit for bit.

A step skips the local solve of a subdomain whose last solve returned its
warm start bit for bit and whose uhat has the bits that solve was given:
such a call has exactly the inputs of the last one, so it would return the
same copy, duals, iteration count and gap.  That holds bit for bit because
a window's arithmetic does not depend on which windows share its stack,
gap mode solves one window per chunk, and only DecoupledAlm.step writes
the copies and the duals.  Away from a CCV segmentation's interface most
subdomains reach such a fixed point after a few outer steps.

Every model declares its saddle-point structure (models.Saddle), and one
routine, primal_dual(), solves both the local problems and the whole-image
baseline.  It is the primal-dual method of Chambolle & Pock, "A first-order
primal-dual algorithm for convex problems with applications to imaging"
(JMIV 2011): a local problem is eta-strongly convex, so after each step

    theta = 1/sqrt(1 + 2*gamma*tau),  tau <- theta*tau,  sigma_b <- sigma_b/theta

with gamma = _GAMMA_PER_ETA * eta = eta/2 (Alg. 2, which admits any
0 <= gamma <= eta), warm-started primal and dual variables, and steps reset
to step_sizes(sd) at every outer iteration: one dual step sigma_b = 1/R_b
per block b and the primal step tau = 1/sum_b C_b, (R_b, C_b) the block's
largest absolute row and column sums (models.Block).  That is the diagonal
preconditioning of Pock & Chambolle, "Diagonal preconditioning for first
order primal-dual algorithms in convex optimization" (ICCV 2011), at
alpha = 1, taken block by block.  Against the scalar steps sigma = tau =
1/sqrt(sum_b R_b*C_b) the local solves took before, it takes TV-L1 at
128^2 over 4x4 tiles to a relative energy gap of 1e-3 in 281 outer steps
instead of 347, and leaves Hessian-L1 (21) and CCV (1) where they were
(STEPS_31.json against STEPS_29.json).  scripts/steps_to_gap.py chose the
factor 1/2 when solves started at zero with scalar steps (STEPS_28.json):
TV-L1 then took 409 outer steps against 633 at eta/8, at the same cost per
step.  Gap mode pays in inner iterations: on the frozen test set-up CCV
needs 1.15x and TV-L1 2.1x those at eta/8, and at gamma = eta every model
needs 2.9-6.6x those at eta/2 (STEPS_31.json).  The baseline is the
model's own saddle, which has neither core nor prox, so gamma = 0 and
theta = 1 (Alg. 1), and it keeps the scalar steps of baseline_steps.

A local problem is a Saddle too (see _local_saddle): the model's, cut to
the subdomain's window, with its core masking every block to the tile,
(K u - f) * core, and its prox adding (eta/2)||u - uhat||^2; all S are
one Saddle over the stacked windows.  Its iterate stays on the enlarged
patch with no mask of its own, because the patch is the footprint of the
operators on the tile: K* of a dual that vanishes off the tile vanishes
off the patch.  Each block's dual is packed too, exactly +0.0 off each
subdomain's tile, and the tiles partition the image, so stack_sum()
assembles the global dual field exactly.

primal_dual() yields its iterates and never stops by itself; its callers own
the loop.  local_solve() runs a fixed iteration budget by default; its
gap-targeted mode instead runs until the local duality gap (an exact
suboptimality certificate, computed from the running dual variables) falls
below a tolerance, which the Lyapunov monotonicity tests rely on.  Every
solve, decomposed (solve_dd) or whole-image (solve_single, and cp_full, its
untimed form), runs one loop, _run(): it steps, takes the energy, records
one MetricsRow per iterate and, given a tolerance, applies the joint stop
rule (StopRule) between consecutive iterates.  Every solve starts at the
data image, clipped to [0, 1] when the model has the box constraint
(_start): solve_dd with the consensus average at that image, the copies at
its restriction and the multiplier and the duals at zero.  The iteration
converges from any start whose multiplier lies in the orthogonal complement
of the consensus subspace, and a zero multiplier does.
"""

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import reduce
from itertools import islice
from operator import add
from typing import Optional

import numpy as np

from .decomposition import bands, consensus_norm_sq, cut, restrict_global, stack_sum
from .fields import check_count, check_positive, inner, norm2, project_ball, psnr
from .models import energy, objective_terms, stencil_of, weighted_sum
# the blocks name their operators; primal_dual() and duality_gap()'s K* look
# the names up in this module at call time (K u in the gap resolves in models)
from .operators import (  # noqa: F401
    adjoint_grad_plus,
    adjoint_hessian,
    blur,
    grad_plus,
    hessian,
)

# gap mode: the local duality gap is checked every GAP_CHECK iterations, and
# a local solve stops after GAP_MAX_ITERS iterations whatever the gap
GAP_CHECK = 25
GAP_MAX_ITERS = 500_000
# an outer step runs its local solves as equal runs of consecutive
# subdomains whose stacked windows hold at most this many pixels (see _runs),
# whatever the worker count; a chunk's solve peaks at about 10 image-sized
# float arrays, some 5 MB at this size
_CHUNK_PX = 65_536
# and runs them on threads only when the windows it solves, times their
# pixels and the inner iterations, exceed _POOL_ITERS * _CHUNK_PX
# pixel-iterations (2.1M), computed at each step.  Any value between the two
# cases of WORKERS_35.json (scripts/workers.py) nearest the boundary splits
# them: CCV at 256^2 over 8x8, ccv-8x8's layout (0.70M, 1.01x on two
# threads), and CCV at 512^2 over 8x8 (2.70M, 1.35x)
_POOL_ITERS = 32
# a local solve accelerates at gamma = _GAMMA_PER_ETA * eta, eta its
# strong-convexity modulus (see primal_dual and scripts/steps_to_gap.py)
_GAMMA_PER_ETA = 0.5


@dataclass(frozen=True)
class InnerParams:
    """Inner-solver configuration for one local problem.

    gap_tol=None runs exactly `iters` iterations; otherwise iterations
    continue (up to GAP_MAX_ITERS) until the local duality gap is <= gap_tol,
    checked every GAP_CHECK iterations.  Every solve starts at
    step_sizes(sd), one dual step per block and the primal step, and eta
    sets the acceleration (see primal_dual).
    """

    iters: int
    gap_tol: Optional[float] = None

    def __post_init__(self):
        check_count("iters", self.iters)
        if self.gap_tol is not None:
            check_positive("gap_tol", self.gap_tol)


def default_inner(model, eta, **overrides):
    """The model's inner budget: its default iteration count, or the iters
    or gap_tol that overrides set.  eta is only checked finite and positive;
    the budget does not depend on it."""
    check_positive("eta", eta)
    base = dict(iters=model.defaults.inner_iters)
    base.update(overrides)
    return InnerParams(**base)


def step_sizes(sd):
    """A local solve's initial steps (sigmas, tau): one dual step per block.

    Pock & Chambolle's diagonal preconditioning at alpha = 1 ("Diagonal
    preconditioning for first order primal-dual algorithms in convex
    optimization", ICCV 2011), one step per block: sigma_b = 1/R_b and
    tau = 1/sum_b C_b, (R_b, C_b) the block's declared sums (models.Block).
    sigma_b times the absolute sum of any row of block b, and tau times
    that of any column of the stacked K, are then at most 1, which gives
    ||Sigma^(1/2) K T^(1/2)||^2 <= sum_b sigma_b*tau*R_b*C_b = 1, the
    condition of their preconditioned iteration.  A local problem's mask
    only lowers the sums, so the model's steps serve it.
    """
    sums = [blk.sums for blk in sd.blocks]
    return tuple(1.0 / r for r, _ in sums), 1.0 / sum(c for _, c in sums)


def baseline_steps(sd, tau=None):
    """The baseline's steps (sigmas, tau): one scalar sigma for every block,
    spending the whole admissible product sigma*tau = 1/sd.bound of
    Chambolle & Pock's Alg. 1.

    sigma = tau = 1/sqrt(bound), or sigma = 1/(bound*tau) given a tau.
    """
    bound = sd.bound
    if tau is None:
        tau = 1.0 / math.sqrt(bound)
        sigma = tau
    else:
        sigma = 1.0 / (bound * tau)
    return (sigma,) * len(sd.blocks), tau


# ---------------------------------------------------------------------------
# the primal-dual iteration
# ---------------------------------------------------------------------------


def acceleration_schedule(sigma, tau, gamma):
    """Chambolle & Pock's Alg. 2 step update: (theta, sigma/theta, tau*theta),
    sigma one dual step or an array of them, each scaled alike."""
    theta = 1.0 / math.sqrt(1.0 + 2.0 * gamma * tau)
    return theta, sigma / theta, tau * theta


def zero_duals(sd, u):
    """One zero dual field per block, shaped like K u on the image or stack u."""
    return [b.zero_dual(u.shape) for b in sd.blocks]


def _transpose_sum(sd, duals):
    """K* y: the blocks' adjoints summed in declaration order."""
    return reduce(add, (blk.transpose(y, globals())
                        for blk, y in zip(sd.blocks, duals)))


def primal_dual(sd, u, duals, sigmas, tau):
    """Primal-dual iteration on the saddle problem sd, block b's dual
    stepping by sigmas[b] and the primal by tau.

    Each step: dual ascent and ball projection per block, the primal
    resolvent (clamped to [0, 1] when sd.box) with the proximal term when
    sd.prox = (eta, uhat) is set, the acceleration schedule at gamma =
    _GAMMA_PER_ETA * eta = eta/2 (0 without a prox, so theta = 1), which
    scales every sigma_b by 1/theta and tau by theta, and the
    overrelaxation.  When sd.core is set every block's K u - f_b and the
    linear term are masked to it; a block's mask and sigma_b are one
    factor, core * sigma_b, the same bits as masking and then scaling,
    since core is 0 or 1.  Yields (u, duals) after every step and never
    ends: the caller owns the loop and stops it (islice for a fixed
    budget).  The arguments are not modified.

    A step works in place on the arrays it allocates: each block's dual is
    computed in the array its K returns and the new u in the one K*
    returns, but an array K or K* returns that shares memory with its
    input (an identity block's) is never written.  Every operation keeps
    its operands, so the iterates are those of the out-of-place formulas
    bit for bit.  Each yielded array is new.
    """
    duals = list(duals)
    lin = None if sd.linear is None else sd.linear[0] * sd.linear[1]
    gamma = 0.0 if sd.prox is None else _GAMMA_PER_ETA * sd.prox[0]
    if sd.core is not None and lin is not None:
        lin = lin * sd.core
    sigma = np.array(sigmas, dtype=np.float64)
    ubar = u
    while True:
        for b, blk in enumerate(sd.blocks):
            ku = blk.forward(ubar, globals())
            out = None if np.may_share_memory(ku, ubar) else ku
            if blk.shift is not None:
                ku = out = np.subtract(ku, blk.shift, out=out)
            step = sigma[b] if sd.core is None else sd.core * sigma[b]
            ku = np.multiply(ku, step, out=out)
            ku += duals[b]
            duals[b] = project_ball(ku, blk.radius, u.ndim, out=ku)
        v = _transpose_sum(sd, duals)
        out = None if any(np.may_share_memory(v, y) for y in duals) else v
        if lin is not None:
            v = out = np.add(v, lin, out=out)
        v = np.multiply(v, tau, out=out)
        np.subtract(u, v, out=v)
        if sd.prox is not None:
            eta, uhat = sd.prox
            v += (tau * eta) * uhat
            v /= 1.0 + tau * eta
        if sd.box:
            np.clip(v, 0.0, 1.0, out=v)
        theta, sigma, tau = acceleration_schedule(sigma, tau, gamma)
        ubar = (1.0 + theta) * v
        ubar -= theta * u
        u = v
        yield u, duals


def duality_gap(sd, u, duals):
    """Duality gap of a local problem sd, with core and prox set, at (u, duals).

    The primal value at u minus the dual value at duals; it bounds the
    suboptimality of u from above and vanishes at the saddle point.  The
    duals vanish off the core, so <f_b core, y_b> = <f_b, y_b>.
    """
    eta, uhat = sd.prox
    v = _transpose_sum(sd, duals)
    if sd.linear is not None:
        v = v + sd.linear[0] * sd.linear[1] * sd.core
    prim = (weighted_sum(objective_terms(sd, u))
            + 0.5 * eta * norm2(u - uhat) ** 2)
    w = uhat - v / eta
    if sd.box:
        w = np.clip(w, 0.0, 1.0)
    dual = inner(w, v) + 0.5 * eta * norm2(w - uhat) ** 2
    for blk, y in zip(sd.blocks, duals):
        if blk.shift is not None:
            dual = dual - inner(blk.shift, y)
    return prim - dual


def local_solve(sd, u, duals, prm):
    """Solve the local problem sd from a warm start with InnerParams prm.

    Returns (u, duals, iterations, last duality gap or None).  Raises
    NonFiniteEnergyError at the first duality gap that is not finite.
    """
    gap = None
    limit = prm.iters if prm.gap_tol is None else GAP_MAX_ITERS
    sigmas, tau = step_sizes(sd)
    steps = primal_dual(sd, u, duals, sigmas, tau)
    for it, (u, duals) in enumerate(islice(steps, limit), 1):
        if prm.gap_tol is not None and it % GAP_CHECK == 0:
            gap = duality_gap(sd, u, duals)
            _check_finite("local duality gap", gap, "inner iteration", it)
            if gap <= prm.gap_tol:
                break
    return u, duals, it, gap


# ---------------------------------------------------------------------------
# outer loop
# ---------------------------------------------------------------------------


@dataclass
class StepInfo:
    """One outer step: its consensus residual and d_n, each subdomain's
    inner iterations and last local gap (None at a fixed budget), and how
    many subdomains' local solves ran (the others were skipped, see
    DecoupledAlm)."""

    residual: float
    d_n: float
    inner_iters: list
    gaps: list
    solved: int


class DecoupledAlm:
    """State and one-step driver of the decoupled augmented Lagrangian loop.

    Holds the primal copies `u`, the multiplier `lam` and each block's dual
    (warm-started across outer steps) as (S, H, W) or channel-first (c, S,
    H, W) packed stacks whose alm.u[s] and alm.duals[b][..., s, :, :] are
    subdomain s's, and the consensus average `avg`, the global image.  A
    dual is +0.0 off its tile, so stack_sum(alm.duals[b], layout) is block
    b's global dual field.  alm.local holds the S local problems as one
    Saddle, built once (see _local_saddle), and alm.runs the chunks, slices
    of consecutive subdomains (see _runs).  A step computes one uhat for
    the whole layout, which it keeps as the record, and solves each chunk
    on its slice of the stacks and of alm.local, with prox (eta, uhat) set
    on a copy.  Gap mode solves one window per chunk, so each gap sums its
    own window.  The layout must be built for the model's grid and stencil,
    which the constructor checks.  `avg` starts at the data image (clipped
    to [0, 1] under the box, see _start) and the copies at its restriction,
    exactly +0.0 off the patches; the multiplier and the duals start at
    zero, which makes the multiplier orthogonal to the consensus subspace
    and keeps it so by induction.

    A step skips the local solve of every subdomain whose last solve
    returned its warm start (its copy and every block's dual) bit for bit
    and whose uhat has the bits that solve was given: the call would repeat
    that one, inputs and result, so the copy and duals stay as they are and
    the step reports the recorded inner iterations and gap.  The skip is
    exact, not a tolerance: a window's arithmetic does not depend on which
    windows share its stack, gap mode solves one window per chunk, and only
    step() writes `u` and `duals`.  The bits are compared as integers, so a
    -0.0 where +0.0 was counts as changed.  A chunk that skips some of its
    windows solves the others as one gathered stack (see _take).  The
    chunks run on the calling thread, whatever the worker count, when fewer
    than two of them have windows to solve or when the step's work, the
    windows to solve times their pixels times the inner iterations, is at
    most _POOL_ITERS * _CHUNK_PX pixel-iterations: a thread given less work
    costs more than it saves.  In WORKERS_35.json (2 vCPUs) every case of
    2.7M or more (CCV at 512^2, Hessian-L1 and TV-L1 at 256^2 and 512^2,
    all over 8x8) ran 1.35-1.72x as fast on two threads, and CCV at 256^2
    over 8x8 (0.70M) 1.01x as fast, for 2.7 MB more peak RSS.
    """

    def __init__(self, model, layout, eta, inner_prm, workers=1):
        if layout.shape != model.f.shape:
            raise ValueError(
                f"layout shape {layout.shape} does not match the model's "
                f"{model.f.shape}")
        if layout.stencil != stencil_of(model):
            raise ValueError(
                f"layout stencil {layout.stencil} does not match the model's "
                f"{stencil_of(model)}")
        check_positive("eta", eta)
        check_count("workers", workers)
        self.model = model
        self.layout = layout
        self.eta = float(eta)
        self.inner = inner_prm
        self.workers = workers
        self.avg = _start(model)
        # + 0.0 folds the -0.0 that negative data leaves off the patches
        self.u = restrict_global(self.avg, layout) + 0.0
        self.lam = np.zeros(layout.tilde.shape)
        self.duals = zero_duals(model.saddle, self.u)
        self.local = _local_saddle(model.saddle, layout)
        self.runs = _runs(layout, 0 if inner_prm.gap_tol is not None else _CHUNK_PX)
        # each subdomain's last local solve: whether it returned its warm
        # start bit for bit, the uhat it was given, and (iterations, gap)
        self._noop = np.zeros(layout.count, dtype=bool)
        self._uhat = np.zeros(layout.tilde.shape)
        self._counts = [None] * layout.count

    def _solve_chunk(self, sel):
        """Solve the windows `sel` of the stacks, a run's slice or an index array."""
        sd = replace(_take(self.local, sel), prox=(self.eta, self._uhat[sel]))
        u0, y0 = self.u[sel], [y[..., sel, :, :] for y in self.duals]
        u, duals, it, gap = local_solve(sd, u0, y0, self.inner)
        noop = reduce(np.logical_and, map(_same_bits, duals, y0), _same_bits(u, u0))
        # the workers run at once: step() wrote the _uhat record before any
        # started, and each writes only its own windows of u, the duals,
        # _noop and _counts
        self.u[sel] = u
        for y, d in zip(self.duals, duals):
            y[..., sel, :, :] = d
        self._noop[sel] = noop
        for s in np.arange(self.layout.count)[sel]:
            self._counts[s] = it, gap

    def step(self):
        """One outer iteration; returns its consensus residual and metrics.

        Only this method writes `u` and `duals`, which the skip of unchanged
        local solves relies on (see the class docstring).
        """
        lay = self.layout
        eta = self.eta
        uhat = restrict_global(self.avg, lay) - self.lam / eta
        todo = ~(self._noop & _same_bits(uhat, self._uhat))
        self._uhat = uhat
        work = [run if todo[run].all() else np.flatnonzero(todo[run]) + run.start
                for run in self.runs if todo[run].any()]
        solved = int(np.count_nonzero(todo))
        if (self.workers == 1 or len(work) < 2
                or solved * lay.tilde[0].size * self.inner.iters <= _POOL_ITERS * _CHUNK_PX):
            for sel in work:
                self._solve_chunk(sel)
        else:
            with ThreadPoolExecutor(max_workers=self.workers) as pool:
                list(pool.map(self._solve_chunk, work))
        avg_new = stack_sum(self.u, lay) / lay.counts
        resid_vec = self.u - restrict_global(avg_new, lay)
        self.lam += eta * resid_vec
        residual = norm2(resid_vec)
        d_n = (eta * consensus_norm_sq(self.avg - avg_new, lay)
               + eta * residual ** 2)
        self.avg = avg_new
        return StepInfo(residual=residual, d_n=d_n,
                        inner_iters=[it for it, _ in self._counts],
                        gaps=[gap for _, gap in self._counts],
                        solved=solved)

    def multiplier_consensus_norm(self):
        """Norm of the multiplier's consensus component (zero in theory)."""
        avg_lam = stack_sum(self.lam, self.layout) / self.layout.counts
        return math.sqrt(max(consensus_norm_sq(avg_lam, self.layout), 0.0))


def _same_bits(a, b):
    """Per window of two (..., n, H, W) float64 stacks: whether every bit of
    the window, in every channel, is the same."""
    same = a.view(np.uint64) == b.view(np.uint64)
    return same.all(axis=tuple(i for i in range(a.ndim) if i != a.ndim - 3))


def _runs(layout, limit):
    """Slices of consecutive subdomains whose stacked windows fit `limit` pixels.

    A run holds per = max(1, limit // (H * W)) subdomains at most, H by W
    the layout's window shape; the S subdomains split into ceil(S / per)
    runs between consecutive edges of decomposition.bands(S, ceil(S / per)),
    so their lengths differ by at most one, the longer first.
    """
    per = max(1, limit // layout.tilde[0].size)
    e = bands(layout.count, math.ceil(layout.count / per))
    return [slice(a, b) for a, b in zip(e, e[1:])]


def _with_data(sd, take, core):
    """sd with each block's shift and the linear term's c replaced by
    take() of them, and with `core`."""
    def data(a):
        return None if a is None else take(a)
    return replace(sd, blocks=tuple(replace(blk, shift=data(blk.shift)) for blk in sd.blocks),
                   linear=None if sd.linear is None else (sd.linear[0], data(sd.linear[1])),
                   core=core)


def _local_saddle(sd, layout):
    """The local problems of all the layout's subdomains as one Saddle.

    Subdomain s's problem is min J_s(u) + (eta/2)||u - uhat||^2, J_s the
    model's saddle sd with every term masked to the tile:
    r_b ||(K_b u - f_b) core||_1 and w*<u, c core>.  So the result is sd
    with each block's shift and the linear term's c cut to the windows and
    stacked, and with core the tiles' 0/1 float masks (faster to multiply
    than a boolean); a chunk's problems are _take() of it, with prox set to
    (eta, uhat).  The stacked windows, duals included, give the whole-grid
    problems' results bit for bit (decomposition.OverlapLayout says why):
    every step is elementwise over the stack, so each window sees the
    arithmetic it would see alone.
    """
    return _with_data(sd, lambda a: cut(a, layout.windows), layout.core.astype(np.float64))


def _take(sd, sel):
    """The local problems sd cut to the windows sel of its stack: views for
    a slice, gathered copies for an index array."""
    return _with_data(sd, lambda a: a[..., sel, :, :], sd.core[sel])


def lyapunov_metric(layout, eta, avg_a, lam_a, avg_b, lam_b):
    """eta-weighted squared distance between two (consensus, multiplier) pairs.

    Measures eta*||P(ua - ub)||^2 + (1/eta)*||lam_a - lam_b||^2 where the
    first term only needs the assembled averages, since projected stacked
    fields are determined by them.
    """
    return (eta * consensus_norm_sq(avg_a - avg_b, layout)
            + norm2(lam_a - lam_b) ** 2 / eta)


def _start(model):
    """The image every solve starts at: a new float64 copy of the data,
    clipped to [0, 1] when the model has the box constraint."""
    u0 = np.array(model.f, dtype=np.float64)
    return np.clip(u0, 0.0, 1.0, out=u0) if model.saddle.box else u0


# ---------------------------------------------------------------------------
# stop rule
# ---------------------------------------------------------------------------


class StopRule:
    """Joint relative energy-change and iterate-change criterion.

    Fires between consecutive iterates of a solve, the first compared with
    (E(u0), u0), when max(|e_prev - e|/|E(u0)|, ||u_prev - u||/||f||) < tol,
    with f the data image and u0 the start: f, clipped to [0, 1] when the
    model has the box constraint, off which E is +inf (see _start).
    Either scale falls back to 1 below 1e-12, so a black image solves.
    Raises ValueError when E(u0) is not finite while E(0), the data terms'
    weighted sum, is: the data are too large for the model.  When E(0)
    overflows too, the data's own sum does (see models._checked), and the
    solve reports it at its first step.
    """

    def __init__(self, model, tol):
        check_positive("tol", tol)
        self.tol = tol
        u0 = _start(model)
        with np.errstate(over="ignore"):
            e0 = energy(model, u0)
            if not math.isfinite(e0) and math.isfinite(energy(model, np.zeros(u0.shape))):
                raise ValueError(f"the energy at the data image is {e0!r}, not finite: "
                                 "the data are too large for the model")
            scales = abs(e0), norm2(model.f)
        self.e_scale, self.u_scale = (1.0 if x < 1e-12 else x for x in scales)
        self.prev = e0, u0

    def __call__(self, e, u):
        """True when the rule fires between the previous iterate and (e, u)."""
        (e_prev, u_prev), self.prev = self.prev, (e, u)
        rel_e = abs(e_prev - e) / self.e_scale
        rel_u = norm2(u_prev - u) / self.u_scale
        return max(rel_e, rel_u) < self.tol


# ---------------------------------------------------------------------------
# solves
# ---------------------------------------------------------------------------


class NonFiniteEnergyError(ArithmeticError):
    """A solve's energy or local duality gap became inf or NaN.

    The message names the step: the outer step of solve_dd, the iteration
    of solve_single and cp_full, or the inner iteration of a gap-mode
    local_solve.  Overflow or NaN in the iterates, or an energy too large
    for a float, leaves neither the image nor the stop rules meaningful, so
    the solve raises this instead of running on to its budget.
    """


def _check_finite(what, value, step, n):
    if not math.isfinite(value):
        raise NonFiniteEnergyError(f"the {what} at {step} {n} is {value!r}, not finite")


@dataclass
class MetricsRow:
    """One per-iteration record; None fields print as empty CSV cells."""

    n: int
    energy: float
    rel_gap: Optional[float] = None
    consensus_residual: Optional[float] = None
    d_n: Optional[float] = None
    psnr: Optional[float] = None
    elapsed_s: Optional[float] = None


@dataclass
class SolveResult:
    u: np.ndarray
    rows: list
    converged: bool
    iters: int
    # worst ||P lam|| / max(1, ||lam||) seen over the run; the multiplier
    # lives in the orthogonal complement of the consensus subspace, so this
    # stays at roundoff scale (identically 0 for a single subdomain)
    mult_ortho_max: float = 0.0


def _run(model, step, budget, stop, e_star, ground_truth, timing, on_row, unit):
    """The loop of every solve: at most `budget` calls of step().

    step() advances the solve and returns (u, consensus residual, d_n).
    Each iterate's energy is checked finite (the error names the `unit` and
    its number) and recorded in a MetricsRow, which on_row receives when
    given; the loop ends early when `stop`, a StopRule or None, fires.
    rel_gap is (e - e_star)/|e_star|, with the denominator 1 when
    |e_star| < 1e-12, and elapsed_s counts from this call.
    """
    gap_denom = 1.0 if e_star is None or abs(e_star) < 1e-12 else abs(e_star)
    start = time.perf_counter()
    rows = []
    converged = False
    for n in range(1, budget + 1):
        u, residual, d_n = step()
        e = energy(model, u)
        _check_finite("energy", e, unit, n)
        row = MetricsRow(
            n=n, energy=e,
            rel_gap=None if e_star is None else (e - e_star) / gap_denom,
            consensus_residual=residual, d_n=d_n,
            psnr=None if ground_truth is None else psnr(u, ground_truth),
            elapsed_s=(time.perf_counter() - start) if timing else None)
        rows.append(row)
        if on_row is not None:
            on_row(row)
        if stop is not None and stop(e, u):
            converged = True
            break
    return SolveResult(u=u, rows=rows, converged=converged, iters=n)


def solve_dd(model, layout, eta, inner_prm, tol, max_outer, workers=1,
             e_star=None, ground_truth=None, timing=True, on_row=None):
    """Run the decomposed solver until the stop rule or the budget.

    Emits one MetricsRow per outer iteration with the energy, consensus
    residual, consecutive-iterate metric, optional relative energy gap and
    PSNR, and cumulative wall time (None when timing is False); tol=None
    runs the whole budget.  Raises NonFiniteEnergyError at the first outer
    step whose energy is not finite.
    """
    check_count("max_outer", max_outer)
    stop = None if tol is None else StopRule(model, tol)
    alm = DecoupledAlm(model, layout, eta, inner_prm, workers=workers)
    ortho = [0.0]

    def step():
        info = alm.step()
        ortho.append(alm.multiplier_consensus_norm() / max(1.0, norm2(alm.lam)))
        return alm.avg, info.residual, info.d_n
    res = _run(model, step, max_outer, stop, e_star, ground_truth, timing,
               on_row, "outer step")
    res.mult_ortho_max = max(ortho)
    return res


def solve_single(model, tol, max_iters, e_star=None, ground_truth=None,
                 timing=True, on_row=None):
    """Whole-image solve (one subdomain) via the non-accelerated baseline.

    primal_dual() on the model's own saddle (no prox: gamma = 0) from the
    data (see _start) with zero duals, at the scalar steps
    baseline_steps(model.saddle, model.defaults.cp_tau); tol=None runs the
    whole budget.  Reports the same row schema as solve_dd; the consensus
    residual is identically zero and the consecutive-iterate metric is not
    defined without a coupling weight, so it stays empty.
    """
    check_count("max_iters", max_iters)
    stop = None if tol is None else StopRule(model, tol)
    sd = model.saddle
    sigmas, tau = baseline_steps(sd, model.defaults.cp_tau)
    u = _start(model)
    steps = primal_dual(sd, u, zero_duals(sd, u), sigmas, tau)
    return _run(model, lambda: (next(steps)[0], 0.0, None), max_iters, stop,
                e_star, ground_truth, timing, on_row, "iteration")


def cp_full(model, iters, on_iter=None):
    """The baseline for `iters` iterations, untimed: solve_single's SolveResult.

    It starts where solve_single does, at the (clipped) data.  The energy
    of every iterate is in the rows; the best of them is an upper bound on
    the minimum and serves as the reference energy.
    on_iter(row) receives each MetricsRow when provided.
    """
    check_count("iters", iters)
    return solve_single(model, None, iters, timing=False, on_row=on_iter)


def reference_energy(model, iters):
    """Best energy over a long baseline run (upper bound on the minimum)."""
    return min(r.energy for r in cp_full(model, iters).rows)
