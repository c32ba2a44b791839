"""Decoupled augmented Lagrangian outer loop and the primal-dual iteration.

The global problem min E(u) is rewritten over per-subdomain copies that must
agree on overlaps.  One outer step, with eta the coupling weight and P the
consensus projection:

    uhat_s = (P utilde)_s - lambda_s / eta
    utilde_s <- argmin  E_s(utilde_s) + (eta/2) ||utilde_s - uhat_s||^2
    lambda   <- lambda + eta * (utilde - P utilde)

The local problems decouple completely, so the middle line runs per
subdomain (optionally on a thread pool); only the consensus averaging sees
more than one subdomain, and it always sums in ascending subdomain order,
which makes runs with different worker counts identical bit for bit.

Every model declares its saddle-point structure (models.Saddle), and one
routine, primal_dual(), solves both the local problems and the whole-image
baseline.  It is the primal-dual method of Chambolle & Pock, "A first-order
primal-dual algorithm for convex problems with applications to imaging"
(JMIV 2011): a local problem is eta-strongly convex, so after each step

    theta = 1/sqrt(1 + 2*gamma*tau),  tau <- theta*tau,  sigma <- sigma/theta

with 0 <= gamma <= eta (Alg. 2), warm-started primal and dual variables, and
step sizes reset at every outer iteration.  The baseline is the case eta = 0,
gamma = 0 (so theta = 1, Alg. 1) with no masks.

primal_dual() yields its iterates and never stops by itself; its callers own
the loop.  local_solve() runs a fixed iteration budget by default; its
gap-targeted mode instead runs until the local duality gap (an exact
suboptimality certificate, computed from the running dual variables) falls
below a tolerance, which the Lyapunov monotonicity tests rely on.  cp_full()
records the energy trace and, given a tolerance, applies the same joint stop
rule as solve_dd() between consecutive iterates.
"""

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import reduce
from itertools import islice
from operator import add
from typing import Optional

import numpy as np

from .decomposition import consensus_norm_sq, restrict_global, stack_sum
from .fields import inner, norm2, project_ball, psnr
from .models import energy, objective_terms, stencil_of, weighted_sum
# the blocks name their operators; primal_dual() and duality_gap() look the
# names up in this module at call time
from .operators import (  # noqa: F401
    adjoint_grad_plus,
    adjoint_hessian,
    blur,
    grad_plus,
    hessian,
)

_BOUND_TOL = 1.0 + 1e-9


def _check_eta(eta):
    if not (math.isfinite(eta) and eta > 0):
        raise ValueError(f"eta must be finite and positive, got {eta!r}")


def check_tol(tol):
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")


@dataclass(frozen=True)
class InnerParams:
    """Inner-solver configuration for one local problem.

    gap_tol=None runs exactly `iters` iterations; otherwise iterations
    continue (up to max_iters) until the local duality gap is <= gap_tol,
    checked every gap_check iterations.
    """

    sigma0: float
    tau0: float
    gamma: float
    iters: int
    gap_tol: Optional[float] = None
    gap_check: int = 25
    max_iters: int = 500_000

    def __post_init__(self):
        for name in ("sigma0", "tau0", "gamma"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not (self.sigma0 > 0 and self.tau0 > 0):
            raise ValueError("step sizes must be positive")
        if self.gamma < 0:
            raise ValueError("gamma must be nonnegative")
        if self.iters < 1:
            raise ValueError("iters must be >= 1")
        if self.gap_tol is not None and not self.gap_tol > 0:
            raise ValueError("gap_tol must be positive")
        if self.gap_check < 1 or self.max_iters < 1:
            raise ValueError("gap_check and max_iters must be >= 1")


def default_inner(model, eta, **overrides):
    """Default inner parameters for a model at coupling weight eta.

    sigma0 = tau0 = 1/sqrt(bound) spend the whole admissible step product,
    and gamma = eta/8 accelerates within the local strong convexity.
    """
    _check_eta(eta)
    step = 1.0 / math.sqrt(model.saddle.bound)
    base = dict(sigma0=step, tau0=step, gamma=0.125 * eta,
                iters=model.defaults.inner_iters)
    base.update(overrides)
    return InnerParams(**base)


# ---------------------------------------------------------------------------
# the primal-dual iteration
# ---------------------------------------------------------------------------


def acceleration_schedule(sigma, tau, gamma):
    theta = 1.0 / math.sqrt(1.0 + 2.0 * gamma * tau)
    return theta, sigma / theta, tau * theta


def zero_duals(model, lead=()):
    """One zero dual array per block, with leading axes `lead`."""
    return [np.zeros(lead + model.f.shape + ((b.channels,) if b.channels else ()))
            for b in model.saddle.blocks]


@dataclass
class Local:
    """Subdomain s's problem min J_s(u) + (eta/2)||u - uhat||^2.

    J_s reads K u on the core tile only and u lives on the enlarged patch
    tilde, both 0/1 floats (faster to multiply than booleans); shifts and
    linear are the model's data shifts and linear vector masked to the core
    (None where the model has none).
    """

    core: np.ndarray
    tilde: np.ndarray
    shifts: list
    linear: Optional[np.ndarray]
    uhat: np.ndarray
    eta: float

    @classmethod
    def of(cls, model, layout, s, uhat, eta):
        core = layout.core[s].astype(np.float64)
        sd = model.saddle
        return cls(core=core, tilde=layout.tilde[s].astype(np.float64),
                   shifts=[None if b.shift is None else b.shift * core
                           for b in sd.blocks],
                   linear=None if sd.linear is None else sd.linear[1] * core,
                   uhat=uhat, eta=eta)


def _transpose_sum(model, duals):
    """K* y: the blocks' adjoints summed in declaration order."""
    return reduce(add, (blk.transpose(y, globals())
                        for blk, y in zip(model.saddle.blocks, duals)))


def primal_dual(model, u, duals, sigma, tau, gamma, local=None):
    """Primal-dual iteration on the model's saddle problem.

    Each step: dual ascent and ball projection per block, the primal
    resolvent (clamped to [0, 1] for box models), the acceleration schedule
    and the overrelaxation.  local=None is the whole image without a
    proximal term; with a Local the operators are masked to its core, the
    primal resolvent includes the proximal term and the iterate is confined
    to its patch.  Yields (u, duals) after every step and never ends: the
    caller owns the loop and stops it (islice for a fixed budget).  The
    arguments are not modified.
    """
    sd = model.saddle
    duals = list(duals)
    if local is None:
        masks = [None] * len(duals)
        shifts = [blk.shift for blk in sd.blocks]
        lin = None if sd.linear is None else sd.linear[1]
    else:
        masks = [local.core[..., None] if blk.channels else local.core
                 for blk in sd.blocks]
        shifts, lin = local.shifts, local.linear
    if lin is not None:
        lin = sd.linear[0] * lin
    ubar = u
    while True:
        for b, blk in enumerate(sd.blocks):
            ku = blk.forward(ubar, globals())
            if masks[b] is not None:
                ku = ku * masks[b]
            if shifts[b] is not None:
                ku = ku - shifts[b]
            duals[b] = project_ball(duals[b] + sigma * ku, blk.radius)
        v = _transpose_sum(model, duals)
        if lin is not None:
            v = v + lin
        if local is None:
            unew = u - tau * v
        else:
            unew = ((u - tau * v + (tau * local.eta) * local.uhat)
                    / (1.0 + tau * local.eta))
        if sd.box:
            np.clip(unew, 0.0, 1.0, out=unew)
        if local is not None:
            unew *= local.tilde
        theta, sigma, tau = acceleration_schedule(sigma, tau, gamma)
        ubar = (1.0 + theta) * unew - theta * u
        u = unew
        yield u, duals


def duality_gap(model, local, u, duals):
    """Duality gap of a local problem at (u, duals).

    The primal value at u minus the dual value at duals; it bounds the
    suboptimality of u from above and vanishes at the saddle point.
    """
    sd = model.saddle
    eta, uhat = local.eta, local.uhat
    v = _transpose_sum(model, duals) * local.tilde
    if local.linear is not None:
        v = v + sd.linear[0] * local.linear
    prim = (weighted_sum(objective_terms(model, u, globals(), local.core,
                                         local.shifts, local.linear))
            + 0.5 * eta * norm2(u - uhat) ** 2)
    w = uhat - v / eta
    if sd.box:
        w = np.clip(w, 0.0, 1.0)
    w = w * local.tilde
    dual = inner(w, v) + 0.5 * eta * norm2(w - uhat) ** 2
    for shift, y in zip(local.shifts, duals):
        if shift is not None:
            dual = dual - inner(shift, y)
    return prim - dual


def local_solve(model, local, u, duals, prm):
    """Solve one local problem from a warm start with InnerParams prm.

    Returns (u, duals, iterations, last duality gap or None).
    """
    gap = None
    limit = prm.iters if prm.gap_tol is None else prm.max_iters
    steps = primal_dual(model, u, duals, prm.sigma0, prm.tau0, prm.gamma, local)
    for it, (u, duals) in enumerate(islice(steps, limit), 1):
        if prm.gap_tol is not None and it % prm.gap_check == 0:
            gap = duality_gap(model, local, u, duals)
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

    Holds the stacked primal copies, the multiplier, one stacked dual array
    per block of the model (warm-started across outer steps), and the
    consensus average `avg`, the global image.  All iterates start at zero,
    which makes the multiplier orthogonal to the consensus subspace and
    keeps it so by induction.
    """

    def __init__(self, model, layout, eta, inner_prm, workers=1):
        if layout.stencil != stencil_of(model):
            raise ValueError(
                f"layout stencil {layout.stencil} does not match the model's "
                f"{stencil_of(model)}")
        _check_eta(eta)
        if inner_prm.gamma > eta * _BOUND_TOL:
            raise ValueError("gamma must not exceed eta")
        bound = 1.0 / model.saddle.bound
        if inner_prm.sigma0 * inner_prm.tau0 > bound * _BOUND_TOL:
            raise ValueError(
                f"sigma0*tau0 = {inner_prm.sigma0 * inner_prm.tau0} exceeds "
                f"the admissible bound {bound}")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.model = model
        self.layout = layout
        self.eta = float(eta)
        self.inner = inner_prm
        self.workers = workers
        s_count = layout.count
        m, n = layout.shape
        self.u = np.zeros((s_count, m, n))
        self.lam = np.zeros((s_count, m, n))
        self.avg = np.zeros((m, n))
        self.duals = zero_duals(model, (s_count,))
        self.n = 0

    def _solve_one(self, s):
        uhat = self.avg * self.layout.tilde[s] - self.lam[s] / self.eta
        local = Local.of(self.model, self.layout, s, uhat, self.eta)
        u, duals, it, gap = local_solve(self.model, local, self.u[s],
                                        [y[s] for y in self.duals], self.inner)
        self.u[s] = u
        for y, d in zip(self.duals, duals):
            y[s] = d
        return it, gap

    def step(self):
        """One outer iteration; returns its consensus residual and metrics."""
        lay = self.layout
        eta = self.eta
        if self.workers > 1:
            with ThreadPoolExecutor(max_workers=self.workers) as pool:
                results = list(pool.map(self._solve_one, range(lay.count)))
        else:
            results = [self._solve_one(s) for s in range(lay.count)]
        avg_new = stack_sum(self.u, lay) / lay.counts
        resid_vec = self.u - restrict_global(avg_new, lay)
        self.lam += eta * resid_vec
        residual = norm2(resid_vec)
        d_n = (eta * consensus_norm_sq(self.avg - avg_new, lay)
               + eta * residual ** 2)
        self.avg = avg_new
        self.n += 1
        return StepInfo(residual=residual, d_n=d_n,
                        inner_iters=[r[0] for r in results],
                        gaps=[r[1] for r in results])

    def multiplier_consensus_norm(self):
        """Norm of the multiplier's consensus component (zero in theory)."""
        avg_lam = stack_sum(self.lam, self.layout) / self.layout.counts
        return math.sqrt(max(consensus_norm_sq(avg_lam, self.layout), 0.0))


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


def stop_check(e_prev, e_cur, u_prev, u_cur, f, tol, e_f):
    """Joint relative energy-change and iterate-change criterion.

    True when max(|e_prev - e_cur|/|e_f|, ||u_prev - u_cur||/||f||) < tol,
    where e_f is the energy of the data image f (passed in precomputed);
    either denominator falls back to 1 below 1e-12, so a black image solves.
    """
    denom = abs(e_f)
    if denom < 1e-12:
        denom = 1.0
    f_norm = norm2(f)
    if f_norm < 1e-12:
        f_norm = 1.0
    rel_e = abs(e_prev - e_cur) / denom
    rel_u = norm2(u_prev - u_cur) / f_norm
    return max(rel_e, rel_u) < tol


class _StopRule:
    """stop_check between consecutive iterates of a solve started at u = 0."""

    def __init__(self, model, tol):
        check_tol(tol)
        self.model, self.tol = model, tol
        self.e_f = energy(model, model.f)
        u0 = np.zeros(model.f.shape)
        self.prev = energy(model, u0), u0

    def __call__(self, e, u):
        """True when the rule fires between the previous iterate and (e, u)."""
        (e_prev, u_prev), self.prev = self.prev, (e, u)
        return stop_check(e_prev, e, u_prev, u, self.model.f, self.tol, self.e_f)


# ---------------------------------------------------------------------------
# full-domain baseline
# ---------------------------------------------------------------------------


@dataclass
class CpResult:
    u: np.ndarray
    energies: np.ndarray
    converged: bool
    iters: int


def cp_full(model, iters, sigma=None, tau=None, tol=None, on_iter=None):
    """Non-accelerated primal-dual baseline on the whole image.

    primal_dual() at gamma = 0 without masks.  Runs `iters` iterations (or
    stops earlier when tol is given and the joint stop rule fires between
    consecutive iterates).  Records the energy after every iteration; the
    best value over the trace is an upper bound on the minimum and serves as
    the reference energy.  on_iter(n, u, e) is called after each iteration
    when provided.  Default steps are tau = the model's cp_tau with
    sigma = 1/(bound*tau), or sigma = tau = 1/sqrt(bound) without one.
    """
    stop = None if tol is None else _StopRule(model, tol)
    bound = model.saddle.bound
    cp_tau = model.defaults.cp_tau
    if cp_tau is None:
        sigma_d = tau_d = 1.0 / math.sqrt(bound)
    else:
        sigma_d, tau_d = 1.0 / (bound * cp_tau), cp_tau
    sigma = sigma_d if sigma is None else sigma
    tau = tau_d if tau is None else tau
    if sigma * tau > (1.0 / bound) * _BOUND_TOL:
        raise ValueError(
            f"sigma*tau = {sigma * tau} exceeds the admissible bound {1.0 / bound}")
    u = np.zeros_like(model.f, dtype=np.float64)
    steps = primal_dual(model, u, zero_duals(model), sigma, tau, 0.0)
    energies = []
    converged = False
    n = 0
    for n, (u, _) in enumerate(islice(steps, iters), 1):
        e = energy(model, u)
        energies.append(e)
        if on_iter is not None:
            on_iter(n, u, e)
        if stop is not None and stop(e, u):
            converged = True
            break
    return CpResult(u=u, energies=np.array(energies), converged=converged,
                    iters=n)


def reference_energy(model, iters):
    """Best energy over a long baseline run (upper bound on the minimum)."""
    res = cp_full(model, iters)
    return float(res.energies.min())


# ---------------------------------------------------------------------------
# end-to-end drivers
# ---------------------------------------------------------------------------


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


class _Rows:
    """The MetricsRows of one solve, timed from construction.

    rel_gap is (e - e_star)/|e_star|, with the denominator 1 when
    |e_star| < 1e-12.
    """

    def __init__(self, e_star, ground_truth, timing, on_row):
        self.e_star, self.ground_truth = e_star, ground_truth
        self.timing, self.on_row = timing, on_row
        self.gap_denom = 1.0 if e_star is None or abs(e_star) < 1e-12 else abs(e_star)
        self.rows = []
        self.start = time.perf_counter()

    def add(self, n, u, e, residual=0.0, d_n=None):
        """Record iterate n; the defaults are the whole-image solve's."""
        row = MetricsRow(
            n=n, energy=e,
            rel_gap=None if self.e_star is None else (e - self.e_star) / self.gap_denom,
            consensus_residual=residual, d_n=d_n,
            psnr=None if self.ground_truth is None else psnr(u, self.ground_truth),
            elapsed_s=(time.perf_counter() - self.start) if self.timing else None)
        self.rows.append(row)
        if self.on_row is not None:
            self.on_row(row)


def solve_dd(model, layout, eta, inner_prm, tol, max_outer, workers=1,
             e_star=None, ground_truth=None, timing=True, on_row=None):
    """Run the decomposed solver until the stop rule or the budget.

    Emits one MetricsRow per outer iteration with the energy, consensus
    residual, consecutive-iterate metric, optional relative energy gap and
    PSNR, and cumulative wall time (None when timing is False).
    """
    stop = _StopRule(model, tol)
    alm = DecoupledAlm(model, layout, eta, inner_prm, workers=workers)
    rows = _Rows(e_star, ground_truth, timing, on_row)
    converged = False
    mult_ortho = 0.0
    for n in range(1, max_outer + 1):
        info = alm.step()
        e = energy(model, alm.avg)
        mult_ortho = max(mult_ortho, alm.multiplier_consensus_norm()
                         / max(1.0, norm2(alm.lam)))
        rows.add(n, alm.avg, e, info.residual, info.d_n)
        if stop(e, alm.avg):
            converged = True
            break
    return SolveResult(u=alm.avg, rows=rows.rows, converged=converged,
                       iters=alm.n, mult_ortho_max=mult_ortho)


def solve_single(model, tol, max_iters, e_star=None, ground_truth=None,
                 timing=True, on_row=None):
    """Whole-image solve (one subdomain) via the primal-dual baseline.

    Reports the same row schema as solve_dd; the consensus residual is
    identically zero and the consecutive-iterate metric is not defined
    without a coupling weight, so it stays empty.
    """
    rows = _Rows(e_star, ground_truth, timing, on_row)
    res = cp_full(model, max_iters, tol=tol, on_iter=rows.add)
    return SolveResult(u=res.u, rows=rows.rows, converged=res.converged,
                       iters=res.iters)
