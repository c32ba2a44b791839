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
subdomains, and its local problems run as that slice of the stack; the
chunks run on a pool of `workers` threads.  Only the consensus averaging
sees more than one subdomain's copy, and it always sums in ascending
subdomain order, which makes runs with different worker counts identical
bit for bit.

Every model declares its saddle-point structure (models.Saddle), and one
routine, primal_dual(), solves both the local problems and the whole-image
baseline.  It is the primal-dual method of Chambolle & Pock, "A first-order
primal-dual algorithm for convex problems with applications to imaging"
(JMIV 2011): a local problem is eta-strongly convex, so after each step

    theta = 1/sqrt(1 + 2*gamma*tau),  tau <- theta*tau,  sigma <- sigma/theta

with 0 <= gamma <= eta (Alg. 2), warm-started primal and dual variables, and
steps reset to step_sizes(sd) at every outer iteration.  The baseline is the
case eta = 0, gamma = 0 (so theta = 1, Alg. 1) on the model's own saddle,
which has neither core nor prox.

A local problem is a Saddle too (see _local_saddle): the model's, cut to
the subdomain's window, with its core masking every block to the tile,
(K u - f) * core, and its prox adding (eta/2)||u - uhat||^2.  Its iterate
stays on the enlarged patch with no mask of its own, because the patch is
the footprint of the operators on the tile: K* of a dual that vanishes off
the tile vanishes off the patch.  Each block's dual is packed too, exactly
+0.0 off each subdomain's tile, and the tiles partition the image, so
stack_sum() assembles the global dual field exactly.

primal_dual() yields its iterates and never stops by itself; its callers own
the loop.  local_solve() runs a fixed iteration budget by default; its
gap-targeted mode instead runs until the local duality gap (an exact
suboptimality certificate, computed from the running dual variables) falls
below a tolerance, which the Lyapunov monotonicity tests rely on.  Every
solve, decomposed (solve_dd) or whole-image (solve_single, and cp_full, its
untimed form), runs one loop, _run(): it steps, takes the energy, records
one MetricsRow per iterate and, given a tolerance, applies the joint stop
rule (StopRule) between consecutive iterates.
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

from .decomposition import consensus_norm_sq, cut, restrict_global, stack_sum
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

_BOUND_TOL = 1.0 + 1e-9
# gap mode: the local duality gap is checked every GAP_CHECK iterations, and
# a local solve stops after GAP_MAX_ITERS iterations whatever the gap
GAP_CHECK = 25
GAP_MAX_ITERS = 500_000
# an outer step runs its local solves as equal runs of consecutive
# subdomains whose stacked windows hold at most this many pixels (see _runs);
# a worker's working set grows with it (about 1 MB per chunk at this size)
_CHUNK_PX = 8_192


@dataclass(frozen=True)
class InnerParams:
    """Inner-solver configuration for one local problem.

    gap_tol=None runs exactly `iters` iterations; otherwise iterations
    continue (up to GAP_MAX_ITERS) until the local duality gap is <= gap_tol,
    checked every GAP_CHECK iterations.  The steps are step_sizes(sd).
    """

    gamma: float
    iters: int
    gap_tol: Optional[float] = None

    def __post_init__(self):
        if not (math.isfinite(self.gamma) and self.gamma >= 0):
            raise ValueError(f"gamma must be finite and nonnegative, got {self.gamma!r}")
        check_count("iters", self.iters)
        if self.gap_tol is not None:
            check_positive("gap_tol", self.gap_tol)


def default_inner(model, eta, **overrides):
    """Default inner parameters for a model at coupling weight eta.

    gamma = eta/8 accelerates within the local strong convexity.
    """
    check_positive("eta", eta)
    base = dict(gamma=0.125 * eta, iters=model.defaults.inner_iters)
    base.update(overrides)
    return InnerParams(**base)


def step_sizes(sd, tau=None):
    """Initial (sigma, tau) spending the whole admissible product 1/sd.bound.

    sigma = tau = 1/sqrt(bound), or sigma = 1/(bound*tau) given a tau.
    """
    bound = sd.bound
    if tau is None:
        step = 1.0 / math.sqrt(bound)
        return step, step
    return 1.0 / (bound * tau), tau


# ---------------------------------------------------------------------------
# the primal-dual iteration
# ---------------------------------------------------------------------------


def acceleration_schedule(sigma, tau, gamma):
    theta = 1.0 / math.sqrt(1.0 + 2.0 * gamma * tau)
    return theta, sigma / theta, tau * theta


def zero_duals(sd, u):
    """One zero dual field per block, shaped like K u on the image or stack u."""
    return [np.zeros_like(b.forward(u)) for b in sd.blocks]


def _transpose_sum(sd, duals):
    """K* y: the blocks' adjoints summed in declaration order."""
    return reduce(add, (blk.transpose(y, globals())
                        for blk, y in zip(sd.blocks, duals)))


def primal_dual(sd, u, duals, sigma, tau, gamma):
    """Primal-dual iteration on the saddle problem sd.

    Each step: dual ascent and ball projection per block, the primal
    resolvent (clamped to [0, 1] when sd.box) with the proximal term when
    sd.prox is set, the acceleration schedule and the overrelaxation.  When
    sd.core is set every block's K u - f_b and the linear term are masked to
    it.  Yields (u, duals) after every step and never ends: the caller owns
    the loop and stops it (islice for a fixed budget).  The arguments are
    not modified.
    """
    duals = list(duals)
    masks = [None] * len(duals)
    lin = None if sd.linear is None else sd.linear[0] * sd.linear[1]
    if sd.core is not None:
        masks = [sd.core[..., None] if y.ndim > u.ndim else sd.core
                 for y in duals]
        lin = None if lin is None else lin * sd.core
    ubar = u
    while True:
        for b, blk in enumerate(sd.blocks):
            ku = blk.forward(ubar, globals())
            if blk.shift is not None:
                ku = ku - blk.shift
            if masks[b] is not None:
                ku = ku * masks[b]
            duals[b] = project_ball(duals[b] + sigma * ku, blk.radius, u.ndim)
        v = _transpose_sum(sd, duals)
        if lin is not None:
            v = v + lin
        if sd.prox is None:
            unew = u - tau * v
        else:
            eta, uhat = sd.prox
            unew = (u - tau * v + (tau * eta) * uhat) / (1.0 + tau * eta)
        if sd.box:
            np.clip(unew, 0.0, 1.0, out=unew)
        theta, sigma, tau = acceleration_schedule(sigma, tau, gamma)
        ubar = (1.0 + theta) * unew - theta * u
        u = unew
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
    sigma, tau = step_sizes(sd)
    steps = primal_dual(sd, u, duals, sigma, tau, prm.gamma)
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
    residual: float
    d_n: float
    inner_iters: list
    gaps: list


class DecoupledAlm:
    """State and one-step driver of the decoupled augmented Lagrangian loop.

    Holds the primal copies `u`, the multiplier `lam` and each block's dual
    (warm-started across outer steps) as (S, H, W[, c]) packed stacks whose
    alm.u[s] and alm.duals[b][s] are subdomain s's, and the consensus
    average `avg`, the global image.  A dual is +0.0 off its tile, so
    stack_sum(alm.duals[b], layout) is block b's global dual field.  The
    local solves run in chunks, slices of consecutive subdomains (see
    _runs): alm.chunks holds one (run, saddle) pair per chunk, the saddle
    its local problems, built once (see _local_saddle), and each step
    solves it on its slice of the stacks with prox set to (eta, uhat) on a
    copy.  Gap mode solves one window per chunk, so each gap sums its own
    window.  The layout must be built for the model's grid and stencil,
    which the constructor checks.  All iterates start at zero, which makes the
    multiplier orthogonal to the consensus subspace and keeps it so by
    induction.
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
        if inner_prm.gamma > eta * _BOUND_TOL:
            raise ValueError(f"gamma = {inner_prm.gamma!r} must not exceed eta = {eta!r}")
        check_count("workers", workers)
        self.model = model
        self.layout = layout
        self.eta = float(eta)
        self.inner = inner_prm
        self.workers = workers
        self.u = np.zeros(layout.tilde.shape)
        self.lam = np.zeros(layout.tilde.shape)
        self.avg = np.zeros(layout.shape)
        self.duals = zero_duals(model.saddle, self.u)
        limit = 0 if inner_prm.gap_tol is not None else _CHUNK_PX
        self.chunks = [(run, _local_saddle(model.saddle, layout, run))
                       for run in _runs(layout, limit)]

    def _solve_chunk(self, chunk):
        (run, sd), lay = chunk, self.layout
        uhat = cut(self.avg, lay.windows[run]) * lay.tilde[run] - self.lam[run] / self.eta
        u, duals, it, gap = local_solve(replace(sd, prox=(self.eta, uhat)), self.u[run],
                                        [y[run] for y in self.duals], self.inner)
        # every worker writes its own slice of the stacks only
        self.u[run] = u
        for y, d in zip(self.duals, duals):
            y[run] = d
        return [it] * len(u), [gap] * len(u)

    def step(self):
        """One outer iteration; returns its consensus residual and metrics."""
        lay = self.layout
        eta = self.eta
        with ThreadPoolExecutor(max_workers=self.workers) as pool:
            results = list(pool.map(self._solve_chunk, self.chunks))
        avg_new = stack_sum(self.u, lay) / lay.counts
        resid_vec = self.u - restrict_global(avg_new, lay)
        self.lam += eta * resid_vec
        residual = norm2(resid_vec)
        d_n = (eta * consensus_norm_sq(self.avg - avg_new, lay)
               + eta * residual ** 2)
        self.avg = avg_new
        return StepInfo(residual=residual, d_n=d_n,
                        inner_iters=[i for its, _ in results for i in its],
                        gaps=[g for _, gaps in results for g in gaps])

    def multiplier_consensus_norm(self):
        """Norm of the multiplier's consensus component (zero in theory)."""
        avg_lam = stack_sum(self.lam, self.layout) / self.layout.counts
        return math.sqrt(max(consensus_norm_sq(avg_lam, self.layout), 0.0))


def _runs(layout, limit):
    """Slices of consecutive subdomains whose stacked windows fit `limit` pixels.

    A run holds per = max(1, limit // (H * W)) subdomains at most, H by W
    the layout's window shape; the S subdomains split into ceil(S / per)
    runs, whose lengths differ by at most one, the longer first.
    """
    per = max(1, limit // layout.tilde[0].size)
    return [slice(int(r[0]), int(r[-1]) + 1) for r in
            np.array_split(np.arange(layout.count), math.ceil(layout.count / per))]


def _local_saddle(sd, layout, run):
    """The local problems of the subdomains in `run`, a slice, as one Saddle.

    Subdomain s's problem is min J_s(u) + (eta/2)||u - uhat||^2, J_s the
    model's saddle sd with every term masked to the tile:
    r_b ||(K_b u - f_b) core||_1 and w*<u, c core>.  So the result is sd
    with each block's shift and the linear term's c cut to the windows of
    `run` and stacked, and with core their tiles' 0/1 float masks (faster
    to multiply than a boolean); each step sets prox to (eta, uhat).  The
    stacked windows, duals included, give the whole-grid problems' results
    bit for bit (decomposition.OverlapLayout says why): every step is
    elementwise over the stack, so each window sees the arithmetic it would
    see alone.
    """
    windows = layout.windows[run]

    def data(a):
        return None if a is None else cut(a, windows)
    return replace(sd, blocks=tuple(replace(blk, shift=data(blk.shift)) for blk in sd.blocks),
                   linear=None if sd.linear is None else (sd.linear[0], data(sd.linear[1])),
                   core=layout.core[run].astype(np.float64))


def lyapunov_metric(layout, eta, avg_a, lam_a, avg_b, lam_b):
    """eta-weighted squared distance between two (consensus, multiplier) pairs.

    Measures eta*||P(ua - ub)||^2 + (1/eta)*||lam_a - lam_b||^2 where the
    first term only needs the assembled averages, since projected stacked
    fields are determined by them.
    """
    return (eta * consensus_norm_sq(avg_a - avg_b, layout)
            + norm2(lam_a - lam_b) ** 2 / eta)


# ---------------------------------------------------------------------------
# stop rule
# ---------------------------------------------------------------------------


class StopRule:
    """Joint relative energy-change and iterate-change criterion.

    Fires between consecutive iterates of a solve started at u = 0 when
    max(|e_prev - e|/|E(f)|, ||u_prev - u||/||f||) < tol, with f the data
    image, clipped to [0, 1] in E(f) when the model has the box constraint
    (E is +inf off the box); either scale falls back to 1 below 1e-12, so a
    black image solves.
    """

    def __init__(self, model, tol):
        check_positive("tol", tol)
        self.tol = tol
        f_in_box = np.clip(model.f, 0.0, 1.0) if model.saddle.box else model.f
        scales = abs(energy(model, f_in_box)), norm2(model.f)
        self.e_scale, self.u_scale = (1.0 if x < 1e-12 else x for x in scales)
        u0 = np.zeros(model.f.shape)
        self.prev = energy(model, u0), u0

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

    primal_dual() at gamma = 0 on the model's own saddle from u = 0, at
    step_sizes(model.saddle, model.defaults.cp_tau); tol=None runs the
    whole budget.  Reports the same row schema as solve_dd; the consensus
    residual is identically zero and the consecutive-iterate metric is not
    defined without a coupling weight, so it stays empty.
    """
    check_count("max_iters", max_iters)
    stop = None if tol is None else StopRule(model, tol)
    sd = model.saddle
    sigma, tau = step_sizes(sd, model.defaults.cp_tau)
    u = np.zeros_like(model.f, dtype=np.float64)
    steps = primal_dual(sd, u, zero_duals(sd, u), sigma, tau, 0.0)
    return _run(model, lambda: (next(steps)[0], 0.0, None), max_iters, stop,
                e_star, ground_truth, timing, on_row, "iteration")


def cp_full(model, iters, tol=None, on_iter=None):
    """The baseline for `iters` iterations, untimed: solve_single's SolveResult.

    The energy of every iterate is in the rows; the best of them is an
    upper bound on the minimum and serves as the reference energy.
    on_iter(row) receives each MetricsRow when provided.
    """
    check_count("iters", iters)
    return solve_single(model, tol, iters, timing=False, on_row=on_iter)


def reference_energy(model, iters):
    """Best energy over a long baseline run (upper bound on the minimum)."""
    return min(r.energy for r in cp_full(model, iters).rows)
