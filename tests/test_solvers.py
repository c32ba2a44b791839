import hashlib
import itertools
import json
import math
import sys
import time
import warnings
from dataclasses import dataclass, replace
from functools import cached_property, reduce
from itertools import islice
from operator import add
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ddimaging import models, operators, solvers
from ddimaging.decomposition import OverlapLayout, cut, restrict_global, stack_sum
from ddimaging.fields import magnitude, norm2, project_ball
from ddimaging.models import (
    Block,
    ChanVese,
    HessianL1,
    Saddle,
    TVL1Deblur,
    energy,
    objective_terms,
    stencil_of,
)
from ddimaging.operators import (
    BlurKernel,
    adjoint_grad_minus,
    adjoint_grad_plus,
    adjoint_hessian,
    blur,
    grad_minus,
    grad_plus,
    hessian,
)
from ddimaging.solvers import (
    DecoupledAlm,
    InnerParams,
    NonFiniteEnergyError,
    StopRule,
    acceleration_schedule,
    baseline_steps,
    cp_full,
    default_inner,
    duality_gap,
    local_solve,
    lyapunov_metric,
    primal_dual,
    reference_energy,
    solve_dd,
    solve_single,
    step_sizes,
    zero_duals,
)

from conftest import BackwardTVDenoise, blob_scene, camera_scene, count_pools, on_grid


def _local(model, core, uhat, eta):
    """The model's local problem on its grid: masked to core, proximal to uhat."""
    return replace(model.saddle, core=core, prox=(eta, uhat))


# ---------------------------------------------------------------------------
# schedule and parameter validation
# ---------------------------------------------------------------------------


def test_acceleration_schedule_one_step():
    theta, s1, t1 = acceleration_schedule(0.5, 0.25, 2.0)
    want = 1.0 / math.sqrt(2.0)
    assert theta == want
    assert s1 == 0.5 / want
    assert t1 == 0.25 * want


def test_schedule_preserves_step_product():
    sigma, tau = 1.0 / 3.0, 1.0 / 3.0
    prod0 = sigma * tau
    for _ in range(200):
        theta, sigma, tau = acceleration_schedule(sigma, tau, 1.25)
        assert 0.0 < theta < 1.0
        assert abs(sigma * tau - prod0) <= 1e-12 * prod0
    assert tau < 1.0 / 3.0 < sigma


def test_schedule_identity_without_strong_convexity():
    theta, s1, t1 = acceleration_schedule(0.7, 0.2, 0.0)
    assert theta == 1.0 and s1 == 0.7 and t1 == 0.2


def test_inner_params_validation():
    for bad in (dict(iters=0), dict(gap_tol=0.0), dict(gap_tol=math.nan),
                dict(gap_tol=math.inf), dict(gap_tol=-1e-9), dict(iters=2.5),
                dict(iters=True), dict(gap_tol=True), dict(gap_tol="x")):
        kw = dict(iters=5)
        kw.update(bad)
        try:
            InnerParams(**kw)
        except ValueError as exc:
            for name, value in bad.items():
                if name == "iters":
                    assert f"{name} must be an integer >= 1, got {value!r}" in str(exc)
                if name == "gap_tol":
                    assert f"gap_tol must be finite and positive, got {value!r}" in str(exc)
        else:
            raise AssertionError(f"accepted {bad}")
    assert InnerParams(iters=np.int64(3)).iters == 3


def test_step_bounds_and_defaults():
    f = np.zeros((4, 4))
    models = [ChanVese(f=f, alpha=1, c1=0.6, c2=0.1),
              TVL1Deblur(f=f, alpha=1, kernel=BlurKernel(4)),
              HessianL1(f=f, alpha=1)]
    blocks = [((0.5,), 0.25), ((1.0, 0.5), 0.2), ((1.0, 0.25), 1.0 / 17.0)]
    for model, bound, steps in zip(models, (1.0 / 8.0, 1.0 / 9.0, 1.0 / 65.0), blocks):
        assert 1.0 / model.saddle.bound == bound
        # a local solve starts at one sigma_b = 1/R_b per block and tau =
        # 1/sum_b C_b (Pock & Chambolle 2011), so sum_b sigma_b*tau*R_b*C_b,
        # which bounds ||Sigma^(1/2) K T^(1/2)||^2, is 1
        sigmas, tau = step_sizes(model.saddle)
        assert (sigmas, tau) == steps
        sums = [blk.sums for blk in model.saddle.blocks]
        assert math.isclose(sum(s * tau * r * c for s, (r, c) in zip(sigmas, sums)), 1.0)
        # the baseline's scalar steps stay within sigma*tau <= 1/bound
        # (Chambolle & Pock, Alg. 1)
        cp_tau = model.defaults.cp_tau
        sigmas, tau = baseline_steps(model.saddle, cp_tau)
        assert len(set(sigmas)) == 1 and len(sigmas) == len(sums)
        if cp_tau is None:
            assert sigmas[0] == tau == 1.0 / math.sqrt(model.saddle.bound)
        assert tau == (sigmas[0] if cp_tau is None else cp_tau)
        assert sigmas[0] * tau <= bound * (1.0 + 1e-9)
        prm = default_inner(model, eta=2.0)
        assert prm.iters == model.defaults.inner_iters


def test_alm_rejects_bad_configs():
    f = np.zeros((6, 6))
    model = ChanVese(f=f, alpha=1, c1=0.6, c2=0.1)
    layout = OverlapLayout.from_grid((6, 6), 2, 2, stencil_of(model))
    good = default_inner(model, eta=1.0)
    DecoupledAlm(model, layout, 1.0, good)
    for eta in (-1.0, math.inf, math.nan, True, "x", None):
        try:
            DecoupledAlm(model, layout, eta, good)
        except ValueError as exc:
            assert f"eta must be finite and positive, got {eta!r}" in str(exc)
        else:
            raise AssertionError(f"eta {eta!r} accepted")
    tvl1 = TVL1Deblur(f=f, alpha=1, kernel=BlurKernel(1))
    wrong = OverlapLayout.from_grid((6, 6), 2, 2, stencil_of(tvl1))
    try:
        DecoupledAlm(model, wrong, 1.0, good)
    except ValueError:
        pass
    else:
        raise AssertionError("stencil mismatch accepted")
    for tol in (math.nan, math.inf, 0.0, -1.0, True, "x"):
        for call in (lambda: solve_dd(model, layout, 1.0, good, tol, 3),
                     lambda: solve_single(model, tol, 3)):
            try:
                call()
            except ValueError as exc:
                assert f"tol must be finite and positive, got {tol!r}" in str(exc)
            else:
                raise AssertionError(f"tol {tol!r} accepted")
    # a layout built for another grid: smaller, larger, or narrower
    square = ChanVese(f=np.zeros((16, 16)), alpha=1, c1=0.6, c2=0.1)
    for shape in ((8, 8), (20, 20), (16, 12)):
        other = OverlapLayout.from_grid(shape, 2, 2, stencil_of(square))
        try:
            DecoupledAlm(square, other, 1.0, good)
        except ValueError as exc:
            assert f"{shape}" in str(exc) and "(16, 16)" in str(exc)
        else:
            raise AssertionError(f"{shape} layout accepted for a 16x16 model")
    # budgets and counts are integers >= 1, and the message names them
    for name, call in (
            ("workers", lambda v: DecoupledAlm(model, layout, 1.0, good, workers=v)),
            ("max_outer", lambda v: solve_dd(model, layout, 1.0, good, 1e-3, v)),
            ("max_iters", lambda v: solve_single(model, 1e-3, v)),
            ("iters", lambda v: cp_full(model, v)),
            ("iters", lambda v: reference_energy(model, v))):
        for bad in (0, -1, 2.5, 3.0, True, None):
            try:
                call(bad)
            except ValueError as exc:
                assert f"{name} must be an integer >= 1, got {bad!r}" in str(exc)
            else:
                raise AssertionError(f"{name}={bad!r} accepted")


# ---------------------------------------------------------------------------
# exhaustive oracles for tiny problems
# ---------------------------------------------------------------------------


def test_ccv_two_pixel_baseline_analytic():
    # g = (f-c1)^2 - (f-c2)^2 = 1 - 2f at c1=1, c2=0, so f = (0, 1) gives
    # E(a, b) = a - b + |b - a| over the unit box, with minimum 0 on the
    # whole face b >= a; the grid scan and the solver must both find it
    f = np.array([[0.0, 1.0]])
    model = ChanVese(f=f, alpha=1.0, c1=1.0, c2=0.0)
    assert np.array_equal(model.g, [[1.0, -1.0]])
    grid = np.linspace(0.0, 1.0, 1001)
    a = grid[:, None]
    b = grid[None, :]
    e_grid = model.g[0, 0] * a + model.g[0, 1] * b + np.abs(b - a)
    best = float(e_grid.min())
    assert best == 0.0
    res = cp_full(model, 3000)
    e_cp = energy(model, res.u)
    assert e_cp <= best + 1e-9
    assert best <= e_cp + 3e-3


def test_ccv_local_prox_matches_grid():
    rng = np.random.default_rng(21)
    f = rng.uniform(0, 1, size=(1, 2))
    model = ChanVese(f=f, alpha=1.5, c1=0.6, c2=0.1)
    eta = 2.0
    prm = default_inner(model, eta, gap_tol=1e-12)
    grid = np.linspace(0.0, 1.0, 1001)
    a = grid[:, None]
    b = grid[None, :]
    for _ in range(3):
        uhat = rng.uniform(-0.2, 1.2, size=(1, 2))
        e_grid = (model.alpha * (model.g[0, 0] * a + model.g[0, 1] * b)
                  + np.abs(b - a)
                  + 0.5 * eta * ((a - uhat[0, 0]) ** 2 + (b - uhat[0, 1]) ** 2))
        k = np.unravel_index(np.argmin(e_grid), e_grid.shape)
        u_star = np.array([[grid[k[0]], grid[k[1]]]])
        local = _local(model, np.ones((1, 2)), uhat, eta)
        u, _, it, gap = local_solve(local, np.zeros((1, 2)),
                                    zero_duals(local, model.f), prm)
        assert gap is not None and gap <= 1e-12
        assert np.abs(u - u_star).max() <= 2e-3
        e_solver = (model.alpha * (model.g[0, 0] * u[0, 0] + model.g[0, 1] * u[0, 1])
                    + abs(u[0, 1] - u[0, 0])
                    + 0.5 * eta * float(((u - uhat) ** 2).sum()))
        assert e_solver <= e_grid[k] + 1e-9


def hierarchical_grid_min(energy_fn, lo=-0.5, hi=1.5, steps=(0.1, 0.01, 0.001)):
    """Exhaustive coarse-to-fine 4-variable minimization.

    Each refinement searches +-15 cells of the next step around the current
    argmin (a +-1.5 coarse-cell window); the argmin is asserted to stay
    strictly inside every window, so the final point is the global grid
    minimizer at the finest step for any function whose coarse-level basin
    is wider than one cell (the strongly convex local objectives are).
    """
    centers = None
    e_best = None
    for step in steps:
        if centers is None:
            axes = [np.arange(lo, hi + 0.5 * step, step) for _ in range(4)]
        else:
            axes = [c + step * np.arange(-15, 16) for c in centers]
        e = energy_fn(axes[0][:, None, None, None],
                      axes[1][None, :, None, None],
                      axes[2][None, None, :, None],
                      axes[3][None, None, None, :])
        idx = np.unravel_index(np.argmin(e), e.shape)
        for k, i in enumerate(idx):
            assert 0 < i < len(axes[k]) - 1, "grid window clipped the basin"
        centers = [float(axes[k][idx[k]]) for k in range(4)]
        e_best = float(e[idx])
    return np.array(centers), e_best


def test_tvl1_local_prox_matches_grid():
    rng = np.random.default_rng(22)
    kernel = BlurKernel(1)
    alpha, eta = 2.0, 10.0
    f = rng.uniform(0.2, 0.8, size=(2, 2))
    model = TVL1Deblur(f=f, alpha=alpha, kernel=kernel)
    prm = default_inner(model, eta, gap_tol=1e-11)
    for _ in range(3):
        uhat = rng.uniform(0.1, 0.9, size=(2, 2))

        def e_fn(a, b, c, d):
            s = (a + b + c + d) / 9.0
            fid = sum(np.abs(s - f[i, j]) for i in range(2) for j in range(2))
            tv = (np.sqrt((c - a) ** 2 + (b - a) ** 2)
                  + np.abs(d - b) + np.abs(d - c))
            prox = ((a - uhat[0, 0]) ** 2 + (b - uhat[0, 1]) ** 2
                    + (c - uhat[1, 0]) ** 2 + (d - uhat[1, 1]) ** 2)
            return alpha * fid + tv + 0.5 * eta * prox

        u_star, e_star = hierarchical_grid_min(e_fn)
        local = _local(model, np.ones((2, 2)), uhat, eta)
        u, _, it, gap = local_solve(local, np.zeros((2, 2)),
                                    zero_duals(local, model.f), prm)
        assert gap is not None and gap <= 1e-11
        got = np.array([u[0, 0], u[0, 1], u[1, 0], u[1, 1]])
        assert np.abs(got - u_star).max() <= 2e-3
        e_got = e_fn(*got)
        assert e_got <= e_star + 1e-9


def test_hessl1_local_prox_matches_grid():
    rng = np.random.default_rng(23)
    alpha, eta = 1.5, 20.0
    f = rng.uniform(0.2, 0.8, size=(2, 2))
    model = HessianL1(f=f, alpha=alpha)
    prm = default_inner(model, eta, gap_tol=1e-11)
    for _ in range(3):
        uhat = rng.uniform(0.1, 0.9, size=(2, 2))

        def e_fn(a, b, c, d):
            # second differences on a 2x2 grid, from the operator definitions
            mag01 = np.sqrt(((d - b) - (c - a)) ** 2 + (b - a) ** 2)
            mag10 = np.sqrt((c - a) ** 2 + ((d - c) - (b - a)) ** 2)
            mag11 = np.sqrt((d - b) ** 2 + (d - c) ** 2)
            fid = (np.abs(a - f[0, 0]) + np.abs(b - f[0, 1])
                   + np.abs(c - f[1, 0]) + np.abs(d - f[1, 1]))
            prox = ((a - uhat[0, 0]) ** 2 + (b - uhat[0, 1]) ** 2
                    + (c - uhat[1, 0]) ** 2 + (d - uhat[1, 1]) ** 2)
            return alpha * fid + mag01 + mag10 + mag11 + 0.5 * eta * prox

        u_star, e_star = hierarchical_grid_min(e_fn)
        local = _local(model, np.ones((2, 2)), uhat, eta)
        u, _, it, gap = local_solve(local, np.zeros((2, 2)),
                                    zero_duals(local, model.f), prm)
        assert gap is not None and gap <= 1e-11
        got = np.array([u[0, 0], u[0, 1], u[1, 0], u[1, 1]])
        assert np.abs(got - u_star).max() <= 2e-3
        assert e_fn(*got) <= e_star + 1e-9


def test_gap_certifies_suboptimality():
    # J(u) - J(u*) <= gap(u, p) along the iteration, u* from a long solve
    rng = np.random.default_rng(24)
    f = rng.uniform(0, 1, size=(6, 6))
    model = ChanVese(f=f, alpha=2.0, c1=0.6, c2=0.1)
    eta = 1.0
    uhat = rng.uniform(-0.1, 1.1, size=(6, 6))
    local = _local(model, np.ones((6, 6)), uhat, eta)

    def local_energy_at(u):
        from ddimaging.operators import grad_plus
        return (model.alpha * float(np.sum(u * model.g))
                + float(np.sum(magnitude(grad_plus(u))))
                + 0.5 * eta * norm2(u - uhat) ** 2)

    prm_exact = default_inner(model, eta, gap_tol=1e-13)
    u_star, _, _, _ = local_solve(local, np.zeros((6, 6)),
                                  zero_duals(local, model.f), prm_exact)
    e_star = local_energy_at(u_star)
    for iters in (5, 20, 80):
        prm = default_inner(model, eta, iters=iters)
        u, duals, _, _ = local_solve(local, np.zeros((6, 6)),
                                     zero_duals(local, model.f), prm)
        gap = duality_gap(local, u, duals)
        assert gap >= -1e-10
        assert local_energy_at(u) - e_star <= gap + 1e-10


def _cp_alg1(model, sigma, tau, iters):
    """Chambolle-Pock Alg. 1 written out per model from the (clipped) data,
    with its energy trace."""
    f = model.f
    u = np.clip(f, 0.0, 1.0) if isinstance(model, ChanVese) else f.copy()
    ubar = u.copy()
    p = np.zeros((2,) + f.shape)
    t = np.zeros((4,) + f.shape)
    q = np.zeros_like(f)
    energies = []
    for _ in range(iters):
        if isinstance(model, ChanVese):
            p = project_ball(p + sigma * grad_plus(ubar), 1.0)
            unew = np.clip(
                u - tau * (adjoint_grad_plus(p) + model.alpha * model.g), 0.0, 1.0)
        elif isinstance(model, TVL1Deblur):
            p = project_ball(p + sigma * grad_plus(ubar), 1.0)
            q = project_ball(q + sigma * (blur(ubar, model.kernel) - f), model.alpha)
            unew = u - tau * (adjoint_grad_plus(p) + blur(q, model.kernel))
        else:
            t = project_ball(t + sigma * hessian(ubar), 1.0)
            q = project_ball(q + sigma * (ubar - f), model.alpha)
            unew = u - tau * (adjoint_hessian(t) + q)
        ubar = 2.0 * unew - u
        u = unew
        energies.append(energy(model, u))
    return u, np.array(energies)


def test_cp_full_is_primal_dual_at_eta_zero():
    # the baseline is the accelerated routine at eta = 0, so gamma = 0 and
    # theta = 1, on a single subdomain with unit masks, and both are the
    # plain Alg. 1 iteration, bit for bit, at the baseline's own scalar
    # steps, one sigma for every block (for TV-L1 and Hessian-L1 tau =
    # cp_tau, not 1/sqrt(bound)), all three from the data
    rng = np.random.default_rng(25)
    f = rng.uniform(0, 1, size=(12, 10))
    for model in (ChanVese(f=f, alpha=2.0, c1=0.6, c2=0.1),
                  TVL1Deblur(f=f, alpha=3.0, kernel=BlurKernel(1)),
                  HessianL1(f=f, alpha=1.0)):
        sigmas, tau = baseline_steps(model.saddle, model.defaults.cp_tau)
        (sigma,) = set(sigmas)
        res = cp_full(model, 300)
        local = _local(model, np.ones(f.shape), np.zeros(f.shape), 0.0)
        trace = []
        u0 = np.clip(f, 0.0, 1.0) if model.saddle.box else f.copy()
        steps = primal_dual(local, u0, zero_duals(local, model.f), sigmas, tau)
        for it, (u, _) in enumerate(islice(steps, 300), 1):
            trace.append(energy(model, u))
        u_alg1, trace_alg1 = _cp_alg1(model, sigma, tau, 300)
        assert it == res.iters == 300
        assert u.tobytes() == res.u.tobytes() == u_alg1.tobytes()
        energies = np.array([r.energy for r in res.rows])
        assert (np.array(trace).tobytes() == energies.tobytes()
                == trace_alg1.tobytes())


def _out_of_place_primal_dual(sd, u, duals, sigmas, tau):
    """primal_dual's recurrence written as its formulas, every operation
    into a new array, block b's dual stepping by sigmas[b]: the reference
    for its in-place steps."""
    duals = list(duals)
    masks = [None] * len(duals)
    lin = None if sd.linear is None else sd.linear[0] * sd.linear[1]
    gamma = 0.0 if sd.prox is None else 0.5 * sd.prox[0]
    if sd.core is not None:
        masks = [sd.core for y in duals]
        lin = None if lin is None else lin * sd.core
    ubar = u
    while True:
        for b, blk in enumerate(sd.blocks):
            ku = blk.forward(ubar)
            if blk.shift is not None:
                ku = ku - blk.shift
            if masks[b] is not None:
                ku = ku * masks[b]
            duals[b] = project_ball(duals[b] + sigmas[b] * ku, blk.radius, u.ndim)
        v = reduce(add, (blk.transpose(y) for blk, y in zip(sd.blocks, duals)))
        if lin is not None:
            v = v + lin
        if sd.prox is None:
            unew = u - tau * v
        else:
            eta, uhat = sd.prox
            unew = (u - tau * v + (tau * eta) * uhat) / (1.0 + tau * eta)
        if sd.box:
            np.clip(unew, 0.0, 1.0, out=unew)
        theta = 1.0 / math.sqrt(1.0 + 2.0 * gamma * tau)
        sigmas, tau = [s / theta for s in sigmas], tau * theta
        ubar = (1.0 + theta) * unew - theta * u
        u = unew
        yield u, duals


def test_primal_dual_is_its_out_of_place_recurrence():
    # primal_dual works in place on the arrays it allocates; its iterates are
    # the formulas' bit for bit, on an image and on a stack of windows, every
    # yielded u stays as it was yielded, and it writes into none of its
    # inputs: not u (a view into a larger stack, as alm.u[run] is), the
    # duals, the shifts, the linear term, uhat or the core.  An identity
    # block's K u is ubar itself and its K* y the dual itself.  Each block
    # steps by its own sigma_b, and a local solve, which starts at
    # step_sizes(sd), gives the recurrence's iterate bit for bit.
    rng = np.random.default_rng(41)
    shape = (11, 9)
    f = rng.uniform(0, 1, size=shape) - 0.2
    identity = Saddle(blocks=(Block(None, None, 0.3),))
    for sd in [m.saddle for m in (ChanVese(f=f + 0.2, alpha=2.0, c1=0.6, c2=0.1),
                                  TVL1Deblur(f=f, alpha=3.0, kernel=BlurKernel(1)),
                                  HessianL1(f=f, alpha=1.0))] + [identity]:
        stencil = tuple(replace(blk, shift=None) for blk in sd.blocks)
        layout = OverlapLayout.from_grid(shape, 2, 2, stencil)
        chunk = solvers._take(solvers._local_saddle(sd, layout), slice(1, layout.count))
        core = (rng.random(shape) < 0.6).astype(np.float64)
        cases = [sd, replace(sd, core=core, prox=(5.0, rng.normal(size=shape))),
                 replace(chunk, prox=(5.0, rng.normal(size=chunk.core.shape)))]
        for local in cases:
            stacked = local.core is not None and local.core.ndim == 3
            base = rng.normal(size=(len(layout.tilde) + 1,) + layout.tilde.shape[1:]
                              if stacked else (3,) + shape)
            u = base[2:] if stacked else base[1]
            assert u.base is base
            duals = [rng.normal(size=blk.zero_dual(u.shape).shape) for blk in local.blocks]
            inputs = [base, *duals, *(blk.shift for blk in local.blocks),
                      local.core, local.prox and local.prox[1],
                      local.linear and local.linear[1]]
            before = [None if a is None else a.tobytes() for a in inputs]
            sigmas, tau = step_sizes(local)
            got = primal_dual(local, u, duals, sigmas, tau)
            want = _out_of_place_primal_dual(local, u, duals, sigmas, tau)
            assert len(set(sigmas)) == len(sigmas)
            yielded = []
            for (u1, d1), (u2, d2) in islice(zip(got, want), 20):
                assert u1.tobytes() == u2.tobytes()
                assert [y.tobytes() for y in d1] == [y.tobytes() for y in d2]
                yielded.append((u1, u1.tobytes()))
            assert len(yielded) == 20
            assert all(a.tobytes() == b for a, b in yielded)
            if local.prox is not None:
                u3, d3, it, _ = local_solve(local, u, duals, InnerParams(iters=20))
                assert it == 20 and u3.tobytes() == u2.tobytes()
                assert [y.tobytes() for y in d3] == [y.tobytes() for y in d2]
            assert [None if a is None else a.tobytes() for a in inputs] == before


# ---------------------------------------------------------------------------
# outer loop mechanics
# ---------------------------------------------------------------------------


def _small_ccv(shape=(16, 16), seed=30):
    rng = np.random.default_rng(seed)
    f = (rng.uniform(0, 1, size=shape) > 0.5).astype(np.float64)
    f = 0.1 + 0.5 * f
    return ChanVese(f=f, alpha=2.0, c1=0.6, c2=0.1)


def test_single_subdomain_multiplier_stays_zero():
    model = _small_ccv()
    layout = OverlapLayout.from_grid((16, 16), 1, 1, stencil_of(model))
    alm = DecoupledAlm(model, layout, 1.0, default_inner(model, 1.0))
    for _ in range(5):
        info = alm.step()
        assert info.residual == 0.0
        assert not alm.lam.any()
        assert np.array_equal(alm.avg, alm.u[0])


def test_multiplier_orthogonal_over_100_steps():
    model = _small_ccv()
    layout = OverlapLayout.from_grid((16, 16), 3, 2, stencil_of(model))
    alm = DecoupledAlm(model, layout, 1.0,
                       default_inner(model, 1.0, iters=3))
    for _ in range(100):
        alm.step()
    lam_norm = norm2(alm.lam)
    assert lam_norm > 0.0
    assert alm.multiplier_consensus_norm() <= 1e-10 * max(1.0, lam_norm)


def test_dual_variables_stay_feasible():
    rng = np.random.default_rng(31)
    shape = (12, 12)
    f = rng.uniform(0, 1, size=shape)
    cases = [
        (ChanVese(f=f, alpha=2.0, c1=0.6, c2=0.1), 1.0),
        (TVL1Deblur(f=f, alpha=3.0, kernel=BlurKernel(1)), 10.0),
        (HessianL1(f=f, alpha=1.0), 20.0),
    ]
    for model, eta in cases:
        # a model's saddle poses the whole image: no local problem's fields
        assert model.saddle.core is None and model.saddle.prox is None
        layout = OverlapLayout.from_grid(shape, 2, 2, stencil_of(model))
        alm = DecoupledAlm(model, layout, eta,
                           default_inner(model, eta, iters=7))
        core = alm.local.core
        for _ in range(4):
            alm.step()
        # the float core is built once; a step sets prox on a copy
        assert alm.local.core is core and core.dtype == np.float64
        assert np.array_equal(core, layout.core)
        assert alm.local.prox is None
        assert len(alm.duals) == len(model.saddle.blocks)
        for blk, y in zip(model.saddle.blocks, alm.duals):
            channels = blk.forward(np.zeros(shape)).shape[:-2]
            assert y.shape == channels + layout.core.shape
            assert magnitude(y, 3).max() <= blk.radius * (1.0 + 1e-12)


def test_bitwise_determinism_across_worker_counts(monkeypatch):
    rng = np.random.default_rng(32)
    f = rng.uniform(0, 1, size=(18, 12))
    model = TVL1Deblur(f=f, alpha=2.0, kernel=BlurKernel(1))
    layout = OverlapLayout.from_grid((18, 12), 2, 2, stencil_of(model))
    runs = []
    # the workers share the packed copies and duals, each writing its own
    # slice of the stacks; a short switch interval interleaves them as often
    # as it can.  The layout fits one default chunk, so the four workers run
    # at a chunk of one window, which puts every step on the pool
    pools = count_pools(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 4):
            if workers > 1:
                monkeypatch.setattr(solvers, "_CHUNK_PX", layout.tilde[0].size)
            alm = DecoupledAlm(model, layout, 10.0,
                               default_inner(model, 10.0, iters=10),
                               workers=workers)
            for _ in range(8):
                alm.step()
            runs.append([alm.u.copy(), alm.lam.copy(), alm.avg.copy()] + alm.duals)
    finally:
        sys.setswitchinterval(interval)
    assert len(pools) == 8
    for a, b in zip(*runs):
        assert np.array_equal(a, b)


def test_concurrent_chunks_at_the_benchmark_layout(monkeypatch):
    # CCV at 256^2 over 8x8, the benchmark's ccv-8x8 layout, runs as two
    # chunks at the default chunk size, and at a chunk of 8 windows as
    # eight.  Its work is too small to pool at the default constants, so
    # the pool is forced at every step: two and four workers solve chunks at
    # once and write their slices of the shared stacks concurrently, and at
    # 8-window chunks solve partly skipped chunks at once from the third
    # step on, each writing its windows of the stacks and of the skip
    # records
    model = ChanVese(f=camera_scene(256, 256), alpha=10.0, c1=0.6, c2=0.1)
    eta = model.defaults.eta
    layout = OverlapLayout.from_grid(model.f.shape, 8, 8, stencil_of(model))
    pools = count_pools(monkeypatch)
    monkeypatch.setattr(solvers, "_POOL_ITERS", 0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for limit, steps in ((solvers._CHUNK_PX, 2), (8 * layout.tilde[0].size, 5)):
            monkeypatch.setattr(solvers, "_CHUNK_PX", limit)
            runs = []
            for workers in (1, 2, 4):
                alm = DecoupledAlm(model, layout, eta, default_inner(model, eta),
                                   workers=workers)
                assert len(alm.runs) >= 2
                infos, built = [], []
                for _ in range(steps):
                    pools.clear()
                    infos.append(alm.step())
                    built.append(len(pools))
                assert built == [0 if workers == 1 else 1] * steps, (limit, workers)
                runs.append((_alm_state(alm), infos))
            assert runs[0] == runs[1] == runs[2]
    finally:
        sys.setswitchinterval(interval)
    assert [info.solved for info in runs[0][1]] == [64, 64, 42, 22, 21]


def test_large_steps_pool_at_the_default_constants(monkeypatch):
    # Hessian-L1 at 256^2 over 8x8: 64 windows of 34x34 in two chunks at 50
    # inner iterations, 3.7M pixel-iterations a step, builds one pool per
    # step at two workers with nothing patched, and gives one worker's bytes
    model = HessianL1(f=camera_scene(256, 256), alpha=1.0)
    eta = model.defaults.eta
    layout = OverlapLayout.from_grid(model.f.shape, 8, 8, stencil_of(model))
    pools = count_pools(monkeypatch)
    runs = []
    for workers in (1, 2):
        alm = DecoupledAlm(model, layout, eta, default_inner(model, eta), workers=workers)
        assert len(alm.runs) == 2
        steps = []
        for _ in range(2):
            pools.clear()
            steps.append((alm.step().solved, len(pools)))
        assert steps == [(64, workers - 1)] * 2, workers
        runs.append(_alm_state(alm))
    assert runs[0] == runs[1]


def test_the_pool_threshold_splits_the_committed_measurements():
    # WORKERS_35.json (scripts/workers.py) times every case at 1 and 2
    # workers: the cases where a second thread paid are those whose first
    # step's work exceeds the threshold, and ccv-8x8's layout is not one
    cases = json.loads((Path(__file__).parent.parent / "WORKERS_35.json").read_text())["cases"]
    threshold = solvers._POOL_ITERS * solvers._CHUNK_PX
    measured = [c for c in cases if c["pays"] is not None]
    assert len(measured) >= 2
    for c in measured:
        assert c["identical"]
        assert (c["work"] > threshold) == c["pays"] == c["pooled"][0], c
    assert [c["pays"] for c in cases if (c["model"], c["side"]) == ("ccv", 256)] == [False]


# SHA-256 of alm.u and alm.lam, spread to (S, M, N) stacks by _stack_sha256,
# after 4 outer steps of the set-up in test_frozen_trajectory.  A refactor
# of the decomposed solver must reproduce them bit for bit; a change that
# alters the arithmetic on purpose re-derives them and records why.
FROZEN_TRAJECTORY = {
    "ccv": ("c2d63a648e86a2550b8baab6ba8efe50711b4d89ebbfe1c1e58b9cf3e64325b8",
            "e8a6cc34816e265562876694c2e07159237c384b520d78daca621214d1be1cfd"),
    "tvl1": ("a476fd590bae1f013853a5ad131475beda93c9fc2d73030b4355c7bbb648b04b",
             "1e0663c7f552533dc5203f578c3b0c13adb851d844111616c31099ab4162c84d"),
    "hessl1": ("b035fa055ef1a9869d3b341e06fb9ac237113fd63ef87b40dc6fac4dd0c76974",
               "140ff5f729bc2335a1c2cecf7f4cf8c3ec721f799f3f426289ab5397163300ca"),
}


def _stack_sha256(packed, layout):
    """SHA-256 of a packed field as an (S, M, N) stack, each copy zero off
    its window."""
    stack = np.stack([on_grid(layout, s, x) for s, x in enumerate(packed)])
    return hashlib.sha256(stack.tobytes()).hexdigest()


def _frozen_cases():
    f = np.random.default_rng(20260).random((20, 18))
    return {"ccv": ChanVese(f=f, alpha=10.0, c1=0.6, c2=0.1),
            "tvl1": TVL1Deblur(f=f, alpha=10.0, kernel=BlurKernel(1)),
            "hessl1": HessianL1(f=f, alpha=1.0)}


def test_frozen_trajectory(monkeypatch):
    # the layout fits one default chunk, so the two workers run at a chunk
    # of one window, which puts every step on the pool
    pools = count_pools(monkeypatch)
    default = solvers._CHUNK_PX
    for name, model in _frozen_cases().items():
        eta = model.defaults.eta
        layout = OverlapLayout.from_grid(model.f.shape, 3, 2, stencil_of(model))
        for workers in (1, 2):
            monkeypatch.setattr(solvers, "_CHUNK_PX",
                                default if workers == 1 else layout.tilde[0].size)
            pools.clear()
            alm = DecoupledAlm(model, layout, eta,
                               default_inner(model, eta, iters=7),
                               workers=workers)
            for _ in range(4):
                alm.step()
            assert len(pools) == (0 if workers == 1 else 4), (name, workers)
            got = tuple(_stack_sha256(a, layout) for a in (alm.u, alm.lam))
            assert got == FROZEN_TRAJECTORY[name], (name, workers)


# After 2 outer steps of the same set-up in gap mode (gap_tol 1e-5, workers
# 1): the per-step inner iteration counts, then the SHA-256 of alm.u and
# alm.lam as _stack_sha256 stacks and of each block's global dual field,
# stack_sum of its packed duals, plus 0.0 (which folds -0.0 into +0.0), its
# channel planes moved last (the duals were hashed channel-last when these
# were derived; the planar layout holds the same values).
FROZEN_GAP_TRAJECTORY = {
    "ccv": ([[200, 125, 175, 200, 150, 175], [150, 75, 125, 125, 75, 150]],
            "9d84df07b77868f56ab7015571c63dcfb4cc6384d4c98c0327ee9216af4af38a",
            "c3657daf85ba3cee1258a5cfc83b315aad4a0f8f81ffd9a6a0f859624dff46cd",
            ("de1f20dd9254a8b025081039bb5d6aac05c25938a38ea2ea1852290c4e9b79fd",)),
    "tvl1": ([[700, 750, 750, 750, 750, 600], [600, 725, 925, 475, 600, 1000]],
             "947861560f12e96878094bdd4e64b5d2492f01bee780a5d2ac8aca2900cb6297",
             "c792e0118f3c9fd85fdef7916ddcf1bd4aeb1dd4d2d59dad22170beab58c5367",
             ("8fdfa03dfa2e9e0ed6079da995af10b3eb9cd893d7f6ada1985f2167ff199b09",
              "35fbd14a508a76666ea6625ffa66b07d6191ab9dc38924b50a6cddb61c137165")),
    "hessl1": ([[150, 125, 100, 100, 175, 100], [150, 100, 125, 100, 100, 125]],
               "7d1a05cfc954652fd4655f7678bb40bc07c0f75cf9d4f0c539e15c16148dd71a",
               "359fcdc93527167776311b7643f7b7d85ce10a08efeebe7fe174b66c0e01aeb8",
               ("d4304d4f64efe376cb4fe5b5eed0e561da91bcdb991471ff94fb5ae866ab0fef",
                "2f8dadef35c8bfba0bbe2cb090840d0a24e69d6004c486c23e2a7653e24acb3d")),
}


def _channels_last(a):
    """A global (c, M, N) dual field with its planes moved last; an image as is."""
    return np.moveaxis(a, -3, -1) if a.ndim == 3 else a


def test_frozen_gap_trajectory():
    for name, model in _frozen_cases().items():
        eta = model.defaults.eta
        layout = OverlapLayout.from_grid(model.f.shape, 3, 2, stencil_of(model))
        alm = DecoupledAlm(model, layout, eta,
                           default_inner(model, eta, gap_tol=1e-5))
        iters = [alm.step().inner_iters for _ in range(2)]
        sha = [_stack_sha256(alm.u, layout), _stack_sha256(alm.lam, layout)]
        sha += [hashlib.sha256(_channels_last(stack_sum(y, layout) + 0.0).tobytes()).hexdigest()
                for y in alm.duals]
        assert (iters, sha[0], sha[1], tuple(sha[2:])) == FROZEN_GAP_TRAJECTORY[name], name


def test_blocks_may_name_any_operator():
    for module in (models, solvers):
        assert "grad_minus" not in vars(module)
    rng = np.random.default_rng(35)
    f = rng.uniform(0, 1, size=(10, 9))
    model = BackwardTVDenoise(f=f, alpha=1.5)
    u = rng.uniform(0, 1, size=f.shape)
    want = (1.5 * float(np.sum(np.abs(u - f)))
            + float(np.sum(magnitude(grad_minus(u)))))
    assert abs(energy(model, u) - want) <= 1e-12 * abs(want)
    energies = [r.energy for r in cp_full(model, 50).rows]
    assert np.isfinite(energies).all()
    assert energies[-1] < energy(model, np.zeros(f.shape))
    layout = OverlapLayout.from_grid(f.shape, 2, 2, stencil_of(model))
    alm = DecoupledAlm(model, layout, 10.0, default_inner(model, 10.0))
    info = alm.step()
    assert np.isfinite(alm.u).all() and math.isfinite(info.residual)
    assert info.inner_iters == [5] * layout.count


def test_a_diverging_iterate_with_a_finite_energy_reads_minus_infinite_psnr():
    # a solve given a ground truth records each iterate's PSNR after checking
    # its energy: an iterate whose error against the ground truth overflows
    # reads -inf and the solve runs on, to its budget or to a non-finite
    # energy, instead of failing in the PSNR
    f = np.zeros((4, 4))
    rows = []
    res = solvers._run(HessianL1(f=f), lambda: (np.full(f.shape, 1e200), 0.0, None), 2,
                       None, None, f, False, rows.append, "iteration")
    assert res.iters == 2 and [r.psnr for r in rows] == [-math.inf] * 2
    assert all(math.isfinite(r.energy) for r in rows)


@dataclass(frozen=True, eq=False)
class _StackedTVDenoise(BackwardTVDenoise):
    """BackwardTVDenoise with its TV block naming operators that are built
    from the gradient's channels with np.stack and a sum."""

    @cached_property
    def saddle(self):
        data = Block(None, None, self.alpha, shift=self.f)
        tv = Block("stacked_grad_minus", "stacked_adjoint_grad_minus", 1.0, sums=(2, 4))
        return Saddle(blocks=(data, tv))


def test_a_block_may_name_an_operator_built_by_stacking(monkeypatch):
    # the built-ins write into one output; an operator stacked the way they
    # used to be still runs, and its iterates are the built-in's bit for bit
    def stacked(u):
        g = grad_minus(u)
        return np.stack((g[0], g[1]))

    def summed_adjoint(p):
        # the adjoint of each channel alone, the other one zero
        zero = np.zeros(p.shape[1:])
        return (adjoint_grad_minus(np.stack((p[0], zero)))
                + adjoint_grad_minus(np.stack((zero, p[1]))))

    monkeypatch.setattr(operators, "stacked_grad_minus", stacked, raising=False)
    monkeypatch.setattr(operators, "stacked_adjoint_grad_minus", summed_adjoint,
                        raising=False)
    f = np.random.default_rng(37).uniform(0, 1, size=(10, 9))
    runs = []
    for model in (BackwardTVDenoise(f=f, alpha=1.5), _StackedTVDenoise(f=f, alpha=1.5)):
        layout = OverlapLayout.from_grid(f.shape, 2, 2, stencil_of(model))
        alm = DecoupledAlm(model, layout, 10.0, default_inner(model, 10.0))
        for _ in range(3):
            alm.step()
        runs.append((alm.u.tobytes(), alm.lam.tobytes(), cp_full(model, 30).u.tobytes()))
    assert runs[0] == runs[1]


def test_iterates_stay_on_their_patches():
    # a local problem reads u on its patch only and uhat vanishes off it, so
    # the primal copies and the multiplier stay exactly +0.0 on the rest of
    # their windows: the frozen digests hash those bytes too; the duals stay
    # exactly +0.0 off their tiles, which makes stack_sum of them exact
    f = np.random.default_rng(36).random((13, 11))
    for model in (ChanVese(f=f, alpha=10.0, c1=0.6, c2=0.1),
                  # shifted data drives the iterates negative
                  TVL1Deblur(f=f - 0.3, alpha=10.0, kernel=BlurKernel(2)),
                  HessianL1(f=f - 0.3, alpha=1.0),
                  BackwardTVDenoise(f=f, alpha=1.5)):
        eta = model.defaults.eta
        layout = OverlapLayout.from_grid(f.shape, 3, 2, stencil_of(model))
        alm = DecoupledAlm(model, layout, eta, default_inner(model, eta, iters=7))
        for _ in range(4):
            alm.step()
        for s, patch in enumerate(layout.tilde):
            u, lam = alm.u[s], alm.lam[s]
            assert not u[~patch].any() and not lam[~patch].any(), (type(model), s)
            assert u[patch].any(), (type(model), s)
        for x in (alm.u, alm.lam):
            assert not np.signbit(x[x == 0.0]).any(), type(model)
        for b, y in enumerate(alm.duals):
            for s, core in enumerate(layout.core):
                off = y[..., s, :, :][..., ~core]
                assert not off.any() and not np.signbit(off).any(), (type(model), b, s)


def test_solves_start_at_the_data():
    # every solve starts at the data, clipped to [0, 1] under the box: the
    # consensus average is that image, the copies its restriction (exactly
    # +0.0 off the patches, also where the data are negative), and the
    # multiplier and the duals start at zero, which keeps the multiplier
    # orthogonal to the consensus subspace
    f = 1.6 * np.random.default_rng(41).random((13, 11)) - 0.3
    for model in (ChanVese(f=f, alpha=10.0, c1=0.6, c2=0.1),
                  TVL1Deblur(f=f, alpha=10.0, kernel=BlurKernel(2)),
                  HessianL1(f=f, alpha=1.0),
                  BackwardTVDenoise(f=f, alpha=1.5)):
        u0 = np.clip(f, 0.0, 1.0) if model.saddle.box else f
        eta = model.defaults.eta
        layout = OverlapLayout.from_grid(f.shape, 3, 2, stencil_of(model))
        alm = DecoupledAlm(model, layout, eta, default_inner(model, eta))
        assert alm.avg.tobytes() == u0.tobytes(), type(model)
        assert np.array_equal(alm.u, restrict_global(u0, layout)), type(model)
        for s, patch in enumerate(layout.tilde):
            off = alm.u[s][~patch]
            assert not off.any() and not np.signbit(off).any(), (type(model), s)
        assert not alm.lam.any() and not np.signbit(alm.lam).any()
        for y in alm.duals:
            assert not y.any() and not np.signbit(y).any(), type(model)
        sd = model.saddle
        sigmas, tau = baseline_steps(sd, model.defaults.cp_tau)
        first, _ = next(primal_dual(sd, u0, zero_duals(sd, u0), sigmas, tau))
        assert solve_single(model, None, 1).u.tobytes() == first.tobytes(), type(model)


def test_one_worker_solves_on_the_calling_thread(monkeypatch):
    # at one worker the local solves run inline, with no pool, and give the
    # bits of a two-worker run
    f = np.random.default_rng(42).random((20, 18))
    model = TVL1Deblur(f=f, alpha=10.0, kernel=BlurKernel(1))
    eta = model.defaults.eta
    layout = OverlapLayout.from_grid(f.shape, 3, 2, stencil_of(model))
    prm = default_inner(model, eta, iters=5)
    # the layout fits one default chunk, and its 6 windows at 5 iterations
    # are far below the work that pays for a thread: at a chunk of one
    # window and a work threshold of one window's pixels, the two workers
    # solve every step on the pool
    pools = count_pools(monkeypatch)
    with monkeypatch.context() as patch:
        patch.setattr(solvers, "_CHUNK_PX", layout.tilde[0].size)
        patch.setattr(solvers, "_POOL_ITERS", 1)
        two = solve_dd(model, layout, eta, prm, None, 3, workers=2, timing=False)
    assert len(pools) == 3

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was built at workers=1")
    monkeypatch.setattr(solvers, "ThreadPoolExecutor", no_pool)
    one = solve_dd(model, layout, eta, prm, None, 3, workers=1, timing=False)
    assert one.u.tobytes() == two.u.tobytes()
    assert one.rows == two.rows


def test_data_whose_energy_overflows_is_refused():
    # the stop rule takes the energy at the data as its first value and its
    # scale: data at 1e150 solve, and at 1e160, where the magnitudes' squares
    # overflow, the energy there is not finite and the solve is refused
    # before its first step, without an overflow warning
    f = np.random.default_rng(28).random((20, 17))
    for scale, build in itertools.product(
            (1e150, 1e160), (lambda g: TVL1Deblur(f=g, alpha=1.0, kernel=BlurKernel(1)),
                             lambda g: HessianL1(f=g, alpha=1.0))):
        model = build(scale * f)
        eta = model.defaults.eta
        layout = OverlapLayout.from_grid(f.shape, 2, 2, stencil_of(model))
        runs = (lambda: solve_dd(model, layout, eta, default_inner(model, eta), 1e-3, 3),
                lambda: solve_single(model, 1e-3, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for run in runs:
                if scale == 1e150:
                    assert np.isfinite(run().u).all(), type(model)
                else:
                    with pytest.raises(ValueError, match="energy at the data image is inf"):
                        run()


def _window_step(alm):
    """One outer step of alm with a local solve per window: the loop that
    the chunked DecoupledAlm.step replaced, kept as its reference."""
    lay, eta, model = alm.layout, alm.eta, alm.model
    iters, gaps = [], []
    for s, win in enumerate(lay.windows):
        core = lay.core[s]
        uhat = alm.avg[win] * lay.tilde[s] - alm.lam[s] / eta
        local = _local(replace(model, f=model.f[win]), core.astype(np.float64), uhat, eta)
        u, duals, it, gap = local_solve(local, alm.u[s], [y[..., s, :, :] for y in alm.duals],
                                        alm.inner)
        alm.u[s] = u
        for y, d in zip(alm.duals, duals):
            y[..., s, :, :] = d
        iters.append(it)
        gaps.append(gap)
    avg_new = stack_sum(alm.u, lay) / lay.counts
    alm.lam += eta * (alm.u - restrict_global(avg_new, lay))
    alm.avg = avg_new
    return iters, gaps


def test_chunk_runs_fit_their_limit():
    lim = solvers._CHUNK_PX
    f = np.zeros((2, 2))
    ccv, hessl1, tvl1, tvl1_4 = (stencil_of(m) for m in (
        ChanVese(f=f, c1=0.6, c2=0.1), HessianL1(f=f),
        TVL1Deblur(f=f, kernel=BlurKernel(1)), TVL1Deblur(f=f, kernel=BlurKernel(4))))
    for side, p, stencil in itertools.product(
            (16, 40, 128, 256), (2, 3, 4, 8), (ccv, hessl1, tvl1, tvl1_4)):
        layout = OverlapLayout.from_grid((side, side), p, p, stencil)
        subdomains = range(layout.count)
        for limit in (0, 1, 100, 1_000, 4_000, lim, 3 * lim):
            runs = solvers._runs(layout, limit)
            assert all(isinstance(r, slice) for r in runs)
            assert [s for r in runs for s in subdomains[r]] == list(subdomains)
            sizes = [len(subdomains[r]) for r in runs]
            assert sizes == sorted(sizes, reverse=True)
            assert sizes[0] - sizes[-1] <= 1
            for r in runs:
                assert len(layout.tilde[r]) == 1 or layout.tilde[r].size <= limit
            if limit == 0:
                assert sizes == [1] * layout.count
    # the benchmark's layouts, CCV at 256^2 over 8x8 and TV-L1 at 128^2 over
    # 4x4 with a halfwidth-4 blur, and both models at 512^2 over 8x8
    for side, p, stencil, count in ((256, 8, ccv, 2), (128, 4, tvl1_4, 1),
                                    (512, 8, ccv, 5), (512, 8, tvl1_4, 6)):
        layout = OverlapLayout.from_grid((side, side), p, p, stencil)
        assert len(solvers._runs(layout, lim)) == count


def _alm_state(alm):
    return [a.tobytes() for a in [alm.u, alm.lam, alm.avg] + alm.duals]


def _chunked_runs_equal_the_window_loop(monkeypatch, model, p, q, inners, steps, default):
    """steps(prm) outer steps of model over p x q tiles for each inner budget
    prm, at the chunk limit `default` and at one that splits the windows in
    two, and at 1, 2 and 4 workers, each step's state, inner iterations and
    gaps checked against _window_step's; returns each budget's per-step
    solved counts, which must not depend on the limit or the worker count."""
    eta = model.defaults.eta
    layout = OverlapLayout.from_grid(model.f.shape, p, q, stencil_of(model))
    areas = sum(t.size for t in layout.tilde)
    solved = {}
    for limit in (default, areas // 2):
        monkeypatch.setattr(solvers, "_CHUNK_PX", limit)
        for prm in inners:
            for workers in (1, 2, 4):
                alm = DecoupledAlm(model, layout, eta, prm, workers=workers)
                ref = DecoupledAlm(model, layout, eta, prm)
                counts = []
                for _ in range(steps(prm)):
                    info = alm.step()
                    assert (info.inner_iters, info.gaps) == _window_step(ref)
                    assert _alm_state(alm) == _alm_state(ref), (
                        type(model).__name__, model.f.shape, limit, prm, workers)
                    counts.append(info.solved)
                assert solved.setdefault(prm, counts) == counts, (limit, prm, workers)
    return solved


def test_chunked_step_equals_the_window_loop(monkeypatch):
    # uneven tiles, a one-pixel-high tile row (9 rows over 5) and a grid no
    # larger than one window (3x3 over 2x2), so boxes grow and shift inward
    # to their chunk's shape; at the default chunk size and at one that
    # splits the windows into several chunks; gap mode solves one window per
    # chunk
    f = np.random.default_rng(39).random((20, 18))
    default = solvers._CHUNK_PX
    grids = (((20, 18), 3, 2), ((7, 5), 3, 2), ((9, 10), 5, 2), ((3, 3), 2, 2))
    for shape, p, q in grids:
        g = f[:shape[0], :shape[1]]
        for model in (ChanVese(f=g, alpha=10.0, c1=0.6, c2=0.1),
                      TVL1Deblur(f=g - 0.3, alpha=10.0, kernel=BlurKernel(2)),
                      HessianL1(f=g - 0.3, alpha=1.0),
                      BackwardTVDenoise(f=g, alpha=1.5)):
            eta = model.defaults.eta
            inners = [default_inner(model, eta, iters=7)]
            if shape == (7, 5):
                inners.append(default_inner(model, eta, gap_tol=1e-5))
            _chunked_runs_equal_the_window_loop(
                monkeypatch, model, p, q, inners,
                lambda prm: 4 if prm.gap_tol is None else 2, default)
    # CCV on the camera scene, where most windows reach a fixed point bit for
    # bit and their local solves are skipped, alone or beside solved windows
    # of their chunk
    model = ChanVese(f=camera_scene(32, 32), alpha=10.0, c1=0.6, c2=0.1)
    eta = model.defaults.eta
    fixed, gap = default_inner(model, eta), default_inner(model, eta, gap_tol=1e-5)
    solved = _chunked_runs_equal_the_window_loop(
        monkeypatch, model, 4, 4, [fixed, gap], lambda prm: 8, default)
    assert solved == {fixed: [16, 16, 11, 8, 8, 8, 8, 7], gap: [16, 16, 8, 8, 8, 8, 7, 7]}


def test_same_bits_compares_each_window_bit_for_bit():
    a = np.zeros((2, 3, 4, 5))
    b = a.copy()
    b[1, 2, 3, 4] = -0.0
    assert solvers._same_bits(a, a.copy()).tolist() == [True, True, True]
    # a -0.0 where +0.0 was, in any channel, changes its window only
    assert solvers._same_bits(a, b).tolist() == [True, True, False]
    assert solvers._same_bits(a[1], b[1]).tolist() == [True, True, False]
    nan = np.full((1, 2, 2), np.nan)
    assert solvers._same_bits(nan, nan.copy()).tolist() == [True]
    assert solvers._same_bits(nan, -nan).tolist() == [False]


def test_a_negative_zero_in_uhat_solves_its_window_again():
    # a window whose uhat differs from the one its last solve was given only
    # by a -0.0 where it held +0.0 has other inputs, and is solved again
    model = ChanVese(f=camera_scene(32, 32), alpha=10.0, c1=0.6, c2=0.1)
    eta = model.defaults.eta
    layout = OverlapLayout.from_grid(model.f.shape, 4, 4, stencil_of(model))
    alm, ref = (DecoupledAlm(model, layout, eta, default_inner(model, eta)) for _ in range(2))
    for _ in range(3):
        alm.step()
        ref.step()
    skip = [s for s, win in enumerate(layout.windows) if alm._noop[s] and (
        (alm.avg[win] * layout.tilde[s] - alm.lam[s] / eta).tobytes() == alm._uhat[s].tobytes())]
    s = next(s for s in skip if (alm._uhat[s] == 0.0).any())
    assert not np.signbit(alm._uhat[s]).any()
    alm._uhat[s][tuple(i[0] for i in np.nonzero(alm._uhat[s] == 0.0))] = -0.0
    assert (alm.step().solved, ref.step().solved) == (16 - len(skip) + 1, 16 - len(skip))
    assert _alm_state(alm) == _alm_state(ref)


def test_small_steps_solve_on_the_calling_thread(monkeypatch):
    # a step solves its chunks on the calling thread, whatever the worker
    # count, when fewer than two of them have windows to solve or when its
    # windows to solve times the inner iterations are no more than
    # _POOL_ITERS * _CHUNK_PX pixel-iterations: a single chunk, the steps
    # after the first on data whose every local solve is a fixed point, and
    # every step of the benchmark's ccv-8x8 layout, whose first step is
    # 64 windows of 33x33 at 10 iterations, 0.70M pixel-iterations
    pools = count_pools(monkeypatch)
    default = solvers._CHUNK_PX
    f = np.random.default_rng(42).random((20, 18))
    model = TVL1Deblur(f=f, alpha=10.0, kernel=BlurKernel(1))
    layout = OverlapLayout.from_grid(f.shape, 3, 2, stencil_of(model))
    alm = DecoupledAlm(model, layout, 10.0, default_inner(model, 10.0, iters=5), workers=2)
    assert len(alm.runs) == 1
    assert [alm.step().solved for _ in range(3)] == [6, 6, 6] and not pools
    # black data: u = 0 and zero duals solve every local problem exactly
    model = ChanVese(f=np.zeros((20, 18)), alpha=10.0, c1=0.6, c2=0.1)
    layout = OverlapLayout.from_grid(f.shape, 3, 2, stencil_of(model))
    monkeypatch.setattr(solvers, "_CHUNK_PX", 0)
    alm = DecoupledAlm(model, layout, 1.0, default_inner(model, 1.0), workers=2)
    assert len(alm.runs) == 6
    assert [alm.step().solved for _ in range(3)] == [6, 0, 0] and len(pools) == 1
    assert not alm.u.any() and not alm.lam.any()
    monkeypatch.setattr(solvers, "_CHUNK_PX", default)
    pools.clear()
    model = ChanVese(f=camera_scene(256, 256), alpha=10.0, c1=0.6, c2=0.1)
    layout = OverlapLayout.from_grid(model.f.shape, 8, 8, stencil_of(model))
    threshold = solvers._POOL_ITERS * default
    alm = DecoupledAlm(model, layout, 1.0, default_inner(model, 1.0), workers=2)
    assert len(alm.runs) == 2 and 64 * layout.tilde[0].size * 10 <= threshold
    steps = [(alm.step().solved, len(pools)) for _ in range(4)]
    assert steps == [(64, 0), (64, 0), (42, 0), (22, 0)]
    # at 40 inner iterations the same layout's full steps pool, 2.8M
    # pixel-iterations, and the steps the skips cut below 2.1M do not
    alm = DecoupledAlm(model, layout, 1.0, default_inner(model, 1.0, iters=40), workers=2)
    assert 64 * layout.tilde[0].size * 40 > threshold
    steps = [(alm.step().solved, len(pools)) for _ in range(4)]
    assert steps == [(64, 1), (64, 2), (22, 2), (22, 2)]


def test_whole_runs_solve_on_views(monkeypatch):
    # a step hands local_solve a run whose every window it solves as the
    # run's slice of the stacks, so the local problems, uhat, the warm start
    # and the duals it reads are views, and a partly skipped run as copies
    # gathered from its windows to solve: on the benchmark's ccv-8x8 layout
    # both runs are whole at steps 1 and 2 and partly skipped at step 4
    calls = []

    def spy(sd, u, duals, prm):
        calls.append((sd, u, duals))
        return local_solve(sd, u, duals, prm)
    monkeypatch.setattr(solvers, "local_solve", spy)
    model = ChanVese(f=camera_scene(256, 256), alpha=10.0, c1=0.6, c2=0.1)
    eta = model.defaults.eta
    layout = OverlapLayout.from_grid(model.f.shape, 8, 8, stencil_of(model))
    alm = DecoupledAlm(model, layout, eta, default_inner(model, eta), workers=2)
    local = alm.local
    assert len(alm.runs) == 2 and local.linear is not None

    def shared(sd, u, duals):
        pairs = [(sd.core, local.core), (sd.linear[1], local.linear[1]),
                 (sd.prox[1], alm._uhat), (u, alm.u)] + list(zip(duals, alm.duals))
        return [np.shares_memory(a, b) for a, b in pairs]
    for n in range(1, 5):
        calls.clear()
        solved = alm.step().solved
        assert all(sd.prox[0] == eta for sd, _, _ in calls)
        if n in (1, 2):
            assert solved == 64 and [len(u) for _, u, _ in calls] == [32, 32]
            assert all(all(shared(*call)) for call in calls)
        if n == 4:
            assert solved == 22 and [len(u) for _, u, _ in calls] == [11, 11]
            assert not any(any(shared(*call)) for call in calls)


def _whole_grid_solves(alm, state):
    """Each subdomain's local problem of the outer step from `state` (u, lam,
    avg and the duals), solved on the whole M x N grid with the model not
    cut: its core and uhat placed on the grid.  Returns the S iterates and
    the S dual lists."""
    lay, eta = alm.layout, alm.eta
    u, lam, avg, duals = state
    solves = []
    for s in range(lay.count):
        core = on_grid(lay, s, lay.core[s])
        uhat = avg * on_grid(lay, s, lay.tilde[s]) - on_grid(lay, s, lam[s]) / eta
        local = _local(alm.model, core.astype(np.float64), uhat, eta)
        d = [on_grid(lay, s, y[..., s, :, :]) for y in duals]
        u_s, d, _, _ = local_solve(local, on_grid(lay, s, u[s]), d, alm.inner)
        solves.append((core, u_s, d))
    return solves


def _drawn_model(kind, f, halfwidth):
    """The model `kind` on data f; shifted data drives the iterates negative."""
    return {"ccv": lambda: ChanVese(f=f, alpha=10.0, c1=0.6, c2=0.1),
            "tvl1": lambda: TVL1Deblur(f=f - 0.3, alpha=10.0, kernel=BlurKernel(halfwidth)),
            "hessl1": lambda: HessianL1(f=f - 0.3, alpha=1.0),
            "backward_tv": lambda: BackwardTVDenoise(f=f, alpha=1.5)}[kind]()


_KINDS = st.sampled_from(["ccv", "tvl1", "hessl1", "backward_tv"])


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(m=st.integers(1, 12), n=st.integers(1, 12), kind=_KINDS,
       halfwidth=st.integers(1, 20), workers=st.integers(1, 3),
       chunk_px=st.sampled_from([1, 40, solvers._CHUNK_PX]),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_local_solves_are_whole_grid_restrictions(m, n, kind, halfwidth, workers,
                                                  chunk_px, seed, data):
    # any grid up to 12x12, one-pixel tiles included, blurs wider than the
    # image, and chunks of one window up to the default size; shifted data
    # drives the iterates negative.  The pool is forced, so more than one
    # worker solves on threads whenever two chunks have windows to solve
    p = data.draw(st.integers(1, m), label="p")
    q = data.draw(st.integers(1, n), label="q")
    f = np.random.default_rng(seed).random((m, n))
    model = _drawn_model(kind, f, halfwidth)
    eta = model.defaults.eta
    prm = default_inner(model, eta, iters=4)
    layout = OverlapLayout.from_grid((m, n), p, q, stencil_of(model))
    with mock.patch.object(solvers, "_CHUNK_PX", chunk_px), \
            mock.patch.object(solvers, "_POOL_ITERS", 0):
        ref = DecoupledAlm(model, layout, eta, prm)
        alm = DecoupledAlm(model, layout, eta, prm, workers=workers)
        for _ in range(2):
            state = [alm.u.copy(), alm.lam.copy(), alm.avg.copy(), [y.copy() for y in alm.duals]]
            alm.step()
            ref.step()
            assert _alm_state(alm) == _alm_state(ref)
            for s, (core, u_s, d) in enumerate(_whole_grid_solves(alm, state)):
                assert on_grid(layout, s, alm.u[s]).tobytes() == u_s.tobytes(), s
                for y, d_b in zip(alm.duals, d):
                    assert (y[..., s, :, :][..., layout.core[s]].tobytes()
                            == d_b[..., core].tobytes()), s
            lam_norm = norm2(alm.lam)
            assert alm.multiplier_consensus_norm() <= 1e-10 * max(1.0, lam_norm)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(m=st.integers(1, 12), n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_assembled_ccv_dual_bounds_the_energy_from_below(m, n, seed, data):
    # the draws of test_local_solves_are_whole_grid_restrictions, for CCV:
    # the tiles' duals assemble into one global dual y with |y| <= 1, so
    # sum|grad u| >= <u, grad* y> and, for u in [0, 1], every energy is at
    # least D(y) = sum min(0, alpha*g + grad* y): weak duality.  The ball
    # projection's x / |x| may land an ulp outside the unit sphere
    p = data.draw(st.integers(1, m), label="p")
    q = data.draw(st.integers(1, n), label="q")
    model = _drawn_model("ccv", np.random.default_rng(seed).random((m, n)), 1)
    eta = model.defaults.eta
    layout = OverlapLayout.from_grid((m, n), p, q, stencil_of(model))
    alm = DecoupledAlm(model, layout, eta, default_inner(model, eta, iters=4))
    for _ in range(4):
        alm.step()
        y = stack_sum(alm.duals[0], layout)
        assert (magnitude(y) <= 1.0 + 4 * np.finfo(float).eps).all(), magnitude(y).max() - 1.0
        e = energy(model, alm.avg)
        d = float(np.minimum(0.0, model.alpha * model.g + adjoint_grad_plus(y)).sum())
        assert e >= d - 1e-12 * max(1.0, abs(e)), (e, d)


@settings(derandomize=True, database=None, deadline=None, max_examples=1000)
@given(m=st.integers(1, 12), n=st.integers(1, 12), kind=_KINDS,
       halfwidth=st.integers(1, 20), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_tile_terms_are_the_global_integrand_on_the_tile(m, n, kind, halfwidth, seed, data):
    # the draws of test_local_solves_are_whole_grid_restrictions: each
    # term's density over a chunk of all S windows, masked to the cores as
    # the local problems mask it, equals the whole image's on every tile
    p = data.draw(st.integers(1, m), label="p")
    q = data.draw(st.integers(1, n), label="q")
    rng = np.random.default_rng(seed)
    model = _drawn_model(kind, rng.random((m, n)), halfwidth)
    layout = OverlapLayout.from_grid((m, n), p, q, stencil_of(model))
    u = rng.random((m, n))
    sd = solvers._local_saddle(model.saddle, layout)
    tiles = objective_terms(sd, cut(u, layout.windows))
    whole = objective_terms(model.saddle, u)
    assert [w for w, _ in tiles] == [w for w, _ in whole]
    for (_, d_tiles), (_, d) in zip(tiles, whole):
        for s, (win, core) in enumerate(zip(layout.windows, layout.core)):
            assert d_tiles[s][core].tobytes() == d[win][core].tobytes(), s


def test_footprint_probe_is_capped_at_the_image():
    # an enlargement reaching past the image's larger side covers every
    # pixel, so the reach probe stops at the image: a kernel wider than the
    # image builds and steps as fast as one as wide as it
    f = np.random.default_rng(40).random((16, 16))
    start = time.perf_counter()
    wide = TVL1Deblur(f=f, alpha=10.0, kernel=BlurKernel(10**6))
    layout = OverlapLayout.from_grid(f.shape, 2, 2, stencil_of(wide))
    alm = DecoupledAlm(wide, layout, 10.0, default_inner(wide, 10.0))
    alm.step()
    assert time.perf_counter() - start < 1.0
    assert np.isfinite(alm.avg).all()


def test_step_metric_matches_lyapunov_helper():
    model = _small_ccv(seed=33)
    layout = OverlapLayout.from_grid((16, 16), 2, 2, stencil_of(model))
    alm = DecoupledAlm(model, layout, 1.5, default_inner(model, 1.5, iters=5))
    prev = (alm.avg.copy(), alm.lam.copy())
    for _ in range(6):
        info = alm.step()
        cur = (alm.avg.copy(), alm.lam.copy())
        d_direct = lyapunov_metric(layout, 1.5, prev[0], prev[1],
                                   cur[0], cur[1])
        assert abs(info.d_n - d_direct) <= 1e-10 * max(1.0, d_direct)
        assert lyapunov_metric(layout, 1.5, cur[0], cur[1], cur[0], cur[1]) == 0.0
        prev = cur


def test_lyapunov_monotone_on_small_run():
    model = _small_ccv(seed=34)
    layout = OverlapLayout.from_grid((16, 16), 2, 2, stencil_of(model))
    prm = default_inner(model, 1.0, gap_tol=1e-9)
    alm = DecoupledAlm(model, layout, 1.0, prm)
    snaps = [(alm.avg.copy(), alm.lam.copy())]
    ds = []
    for _ in range(30):
        info = alm.step()
        snaps.append((alm.avg.copy(), alm.lam.copy()))
        ds.append(info.d_n)
    # continue the same trajectory to a high-accuracy reference point
    for _ in range(400):
        if alm.step().residual <= 1e-10:
            break
    ref = (alm.avg.copy(), alm.lam.copy())
    es = [lyapunov_metric(layout, 1.0, a, l, ref[0], ref[1])
          for a, l in snaps]
    assert es[0] > 0.0
    for n in range(30):
        assert es[n + 1] <= es[n] + 1e-8
        assert es[n] - es[n + 1] >= ds[n] - 1e-8
        if n:
            assert ds[n] <= ds[n - 1] + 1e-8
        assert (n + 1) * ds[n] <= (1.0 + 1e-6) * es[0] + 1e-12


def test_warm_start_cuts_inner_iterations():
    model = _small_ccv(seed=35)
    layout = OverlapLayout.from_grid((16, 16), 2, 2, stencil_of(model))
    prm = default_inner(model, 1.0, gap_tol=1e-8)
    alm = DecoupledAlm(model, layout, 1.0, prm)
    first = max(alm.step().inner_iters)
    later = max(max(alm.step().inner_iters) for _ in range(3))
    assert later <= first


# ---------------------------------------------------------------------------
# stop rule and drivers
# ---------------------------------------------------------------------------


def _fires(model, prev, cur, tol=1e-4):
    """Whether a new StopRule for model fires between the iterates prev and
    cur, each an (energy, image) pair."""
    rule = StopRule(model, tol)
    rule.prev = prev
    return rule(*cur)


def test_stop_check_basic():
    # g = (1 - c1)^2 - (1 - c2)^2 = -1, so E(f) = -4*alpha = -10, ||f|| = 2
    f = np.ones((2, 2))
    model = ChanVese(f=f, alpha=2.5, c1=1.0, c2=0.0)
    assert energy(model, f) == -10.0
    u = np.ones((2, 2))
    assert _fires(model, (10.0, u), (10.0 + 1e-6, u))
    assert not _fires(model, (10.0, u), (10.1, u))
    v = u + 1e-2
    assert not _fires(model, (10.0, u), (10.0, v))
    # the first iterate is compared with (E(u0), u0), u0 the data clipped to
    # [0, 1], and each later one with the iterate before it
    rule = StopRule(model, 1e-4)
    assert rule.prev[0] == -10.0 and rule.prev[1].tobytes() == f.tobytes()
    assert rule(-10.0, f)
    rule = StopRule(model, 1e-4)
    assert not rule(0.0, np.zeros((2, 2)))
    assert rule(0.0, np.zeros((2, 2)))


def test_stop_check_denominator_fallback():
    # a black CCV image has E(f) = 0: |E(f)| below 1e-12 switches the
    # energy denominator to 1
    black = ChanVese(f=np.zeros((2, 2)), alpha=1.0, c1=0.6, c2=0.1)
    assert energy(black, black.f) == 0.0
    u = np.ones((2, 2))
    assert not _fires(black, (0.0, u), (5e-4, u))
    assert _fires(black, (0.0, u), (5e-5, u))


def test_stop_check_scales_box_models_at_the_clipped_data():
    # E is +inf off the box, so a CCV image with a pixel above 1 has
    # E(f) = inf; the energy scale is taken at f clipped to [0, 1], and an
    # energy change of 2*tol at a repeated iterate does not fire the rule
    f = np.random.default_rng(40).uniform(0, 1, size=(6, 6))
    f[2, 3] = 1.2
    model = ChanVese(f=f, alpha=2.0, c1=0.6, c2=0.1)
    assert energy(model, f) == math.inf
    tol = 1e-4
    rule = StopRule(model, tol)
    scale = abs(energy(model, np.clip(f, 0.0, 1.0)))
    assert math.isfinite(rule.e_scale) and rule.e_scale == scale
    e0, u0 = rule.prev
    assert not rule(e0 + 2 * tol * scale, u0.copy())


def test_stop_check_accepts_zero_data():
    # ||f|| below 1e-12 switches the iterate-change denominator to 1, so a
    # black image has a stop rule
    black = ChanVese(f=np.zeros((2, 2)), alpha=1.0, c1=0.6, c2=0.1)
    u = np.ones((2, 2))
    assert _fires(black, (1.0, u), (1.0, u + 2e-5))
    assert not _fires(black, (1.0, u), (1.0, u + 5e-4))


def test_non_finite_energy_stops_the_solve(monkeypatch):
    # rows of 1.7e308 in f overflow the iterates to inf and NaN.  numpy warns
    # of the overflow, and the warnings filter, unlike np.errstate, also
    # reaches the pool threads that run the local solves: at a chunk of one
    # window and the pool forced, two workers solve every step on the pool
    f = np.random.default_rng(38).random((8, 8))
    f[2:4] = 1.7e308
    pools = count_pools(monkeypatch)
    monkeypatch.setattr(solvers, "_POOL_ITERS", 0)
    for model in (TVL1Deblur(f=f, alpha=1.0, kernel=BlurKernel(1)),
                  HessianL1(f=f, alpha=1.0)):
        eta = model.defaults.eta
        layout = OverlapLayout.from_grid(f.shape, 2, 2, stencil_of(model))
        monkeypatch.setattr(solvers, "_CHUNK_PX", layout.tilde[0].size)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for workers in (1, 2):
                with pytest.raises(NonFiniteEnergyError, match="at outer step 1 is"):
                    solve_dd(model, layout, eta, default_inner(model, eta), 1e-3,
                             5, workers=workers)
                # gap mode stops at the first gap check, not at GAP_MAX_ITERS
                with pytest.raises(NonFiniteEnergyError,
                                   match="local duality gap at inner iteration 25 is"):
                    solve_dd(model, layout, eta,
                             default_inner(model, eta, gap_tol=1e-5), 1e-3, 5,
                             workers=workers)
                assert len(pools) == 2 * (workers - 1)
                pools.clear()
            with pytest.raises(NonFiniteEnergyError, match="at iteration 1 is"):
                cp_full(model, 5)


@pytest.mark.parametrize("kind", ["ccv", "tvl1", "hessl1"])
def test_huge_eta_solves_without_a_warning(kind):
    # a local solve accelerates at gamma proportional to eta, and sigma grows
    # by 1/theta at every inner iteration, the faster the larger gamma; up to
    # eta 1e100, at the smallest and largest alphas tried, the dual steps
    # stay finite: every operation runs without a warning and u is finite
    f = np.random.default_rng(28).random((20, 17))
    build = {"ccv": lambda a: ChanVese(f=f, alpha=a, c1=0.6, c2=0.1),
             "tvl1": lambda a: TVL1Deblur(f=f, alpha=a, kernel=BlurKernel(1)),
             "hessl1": lambda a: HessianL1(f=f, alpha=a)}[kind]
    for alpha, eta in itertools.product((1e-200, 1.0, 1e200), (1e6, 1e50, 1e100)):
        model = build(alpha)
        layout = OverlapLayout.from_grid(f.shape, 2, 2, stencil_of(model))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = solve_dd(model, layout, eta, default_inner(model, eta), None, 5)
        assert res.iters == 5 and np.isfinite(res.u).all(), (alpha, eta)


def test_reference_energy_is_trace_minimum():
    model = _small_ccv(seed=36)
    energies = np.array([r.energy for r in cp_full(model, 50).rows])
    assert reference_energy(model, 50) == energies.min()
    assert (energies >= energies.min()).all()


def test_cp_full_is_solve_single_untimed():
    # cp_full is the whole-image solve without timing: the same rows, field
    # for field, and on_iter receives each of them as it is made
    model = _small_ccv(seed=39)
    seen = []
    res = cp_full(model, 40, on_iter=seen.append)
    assert len(seen) == res.iters == 40
    assert all(a is b for a, b in zip(seen, res.rows))
    single = solve_single(model, None, 40, timing=False)
    assert res.rows == single.rows
    assert res.u.tobytes() == single.u.tobytes()
    assert not res.converged and not single.converged
    assert all(r.elapsed_s is None and r.consensus_residual == 0.0
               and r.d_n is None for r in res.rows)


def test_solve_dd_budget_exhaustion():
    model = _small_ccv(seed=37)
    layout = OverlapLayout.from_grid((16, 16), 2, 2, stencil_of(model))
    res = solve_dd(model, layout, 1.0, default_inner(model, 1.0, iters=2),
                   tol=1e-30, max_outer=3, timing=False)
    assert not res.converged
    assert res.iters == 3
    assert [r.n for r in res.rows] == [1, 2, 3]
    assert all(r.elapsed_s is None for r in res.rows)
    assert all(r.d_n is not None and r.d_n >= 0.0 for r in res.rows)


def test_solve_dd_without_tol_runs_its_budget():
    # like solve_single, tol=None means no stop rule: every outer step of the
    # budget runs, the same steps as under a rule that never fires
    model = _small_ccv(seed=38)
    layout = OverlapLayout.from_grid((16, 16), 2, 2, stencil_of(model))
    prm = default_inner(model, 1.0, iters=2)
    res = solve_dd(model, layout, 1.0, prm, None, 4, timing=False)
    assert not res.converged and res.iters == 4
    ruled = solve_dd(model, layout, 1.0, prm, 1e-30, 4, timing=False)
    assert res.rows == ruled.rows and res.u.tobytes() == ruled.u.tobytes()


def test_solve_dd_reaches_baseline_energy(blob32):
    model = ChanVese(f=blob32, alpha=10.0, c1=0.6, c2=0.1)
    layout = OverlapLayout.from_grid(blob32.shape, 2, 2, stencil_of(model))
    e_star = reference_energy(model, 20_000)
    prm = default_inner(model, 1.0, gap_tol=1e-8)
    res = solve_dd(model, layout, 1.0, prm, tol=1e-6, max_outer=80,
                   e_star=e_star, timing=False)
    gap = (res.rows[-1].energy - e_star) / abs(e_star)
    assert gap <= 1e-6


def test_solve_single_row_schema(blob32):
    model = ChanVese(f=blob32, alpha=10.0, c1=0.6, c2=0.1)
    res = solve_single(model, tol=1e-4, max_iters=5_000,
                       ground_truth=blob32, timing=False)
    assert res.converged
    assert [r.n for r in res.rows] == list(range(1, res.iters + 1))
    last = res.rows[-1]
    assert last.consensus_residual == 0.0
    assert last.d_n is None
    assert last.psnr is not None and last.elapsed_s is None


def test_solve_dd_converges_and_segments(blob32):
    model = ChanVese(f=blob32, alpha=10.0, c1=0.6, c2=0.1)
    layout = OverlapLayout.from_grid(blob32.shape, 2, 2, stencil_of(model))
    res = solve_dd(model, layout, 1.0, default_inner(model, 1.0), tol=1e-4,
                   max_outer=300, workers=2, timing=True)
    assert res.converged
    assert res.rows[-1].elapsed_s is not None
    single = solve_single(model, tol=1e-4, max_iters=50_000)
    from ddimaging.models import threshold_half
    a = threshold_half(res.u)
    b = threshold_half(single.u)
    assert (a != b).mean() <= 0.005


def test_fields_are_planar(monkeypatch):
    # fields are channel-first, so each channel of a field is one contiguous
    # block, an (M, N) plane or an (n, M, N) stack of them, and no channel
    # read or write in the operators, magnitude or the ball projection
    # strides: for every field-valued operator on an image and a stack, for
    # the zero duals of a stack and for every chunk's slice of the packed
    # duals, each of whose channels is one C-contiguous block
    rng = np.random.default_rng(44)
    image = rng.random((7, 6))
    for name, c in (("grad_plus", 2), ("grad_minus", 2), ("hessian", 4)):
        for u in (image, np.stack((image, image[::-1], image[:, ::-1]))):
            out = getattr(operators, name)(u)
            assert out.shape == (c,) + u.shape, (name, u.shape)
            assert out.flags.c_contiguous, (name, u.shape)
    f = rng.random((20, 18))
    monkeypatch.setattr(solvers, "_CHUNK_PX", 200)
    for model in (ChanVese(f=f, alpha=10.0, c1=0.6, c2=0.1),
                  TVL1Deblur(f=f, alpha=10.0, kernel=BlurKernel(1)),
                  HessianL1(f=f, alpha=1.0)):
        eta = model.defaults.eta
        layout = OverlapLayout.from_grid(f.shape, 3, 2, stencil_of(model))
        s, h, w = layout.tilde.shape
        channels = [blk.forward(f).shape[:-2] for blk in model.saddle.blocks]
        duals = zero_duals(model.saddle, np.zeros((s, h, w)))
        assert [y.shape for y in duals] == [c + (s, h, w) for c in channels]
        alm = DecoupledAlm(model, layout, eta, default_inner(model, eta, iters=3))
        assert len(alm.runs) > 1
        alm.step()
        for run in alm.runs:
            n = len(range(s)[run])
            for y, c in zip(alm.duals, channels):
                d = y[..., run, :, :]
                assert d.shape == c + (n, h, w)
                # each channel of the chunk's dual is one C-contiguous block
                assert all(channel.flags.c_contiguous for channel in (d if c else [d]))
