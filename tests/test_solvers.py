import hashlib
import itertools
import math
import sys
import time
import warnings
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import islice
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
    adjoint_dxm,
    adjoint_dym,
    adjoint_grad_plus,
    adjoint_hessian,
    blur,
    dxm,
    dym,
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

from conftest import BackwardTVDenoise, blob_scene, on_grid


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
    for bad in (dict(gamma=-0.1), dict(iters=0), dict(gap_tol=0.0),
                dict(gamma=math.inf), dict(gap_tol=math.nan),
                dict(gap_tol=math.inf), dict(gap_tol=-1e-9), dict(iters=2.5),
                dict(iters=True), dict(gap_tol=True), dict(gap_tol="x")):
        kw = dict(gamma=0.1, iters=5)
        kw.update(bad)
        try:
            InnerParams(**kw)
        except ValueError as exc:
            for name, value in bad.items():
                if name == "iters":
                    assert f"{name} must be an integer >= 1, got {value!r}" in str(exc)
                if name == "gap_tol":
                    assert f"gap_tol must be finite and positive, got {value!r}" in str(exc)
                if name == "gamma":
                    assert f"gamma must be finite and nonnegative, got {value!r}" in str(exc)
        else:
            raise AssertionError(f"accepted {bad}")
    assert InnerParams(gamma=0.1, iters=np.int64(3)).iters == 3


def test_step_bounds_and_defaults():
    f = np.zeros((4, 4))
    models = [ChanVese(f=f, alpha=1, c1=0.6, c2=0.1),
              TVL1Deblur(f=f, alpha=1, kernel=BlurKernel(4)),
              HessianL1(f=f, alpha=1)]
    for model, bound in zip(models, (1.0 / 8.0, 1.0 / 9.0, 1.0 / 65.0)):
        assert 1.0 / model.saddle.bound == bound
        # the local solves' and the baseline's steps, the only ones in use,
        # stay within sigma*tau <= 1/bound (Chambolle & Pock, Alg. 1 and 2)
        sigma, tau = step_sizes(model.saddle)
        assert sigma == tau == 1.0 / math.sqrt(model.saddle.bound)
        assert sigma * tau <= bound * (1.0 + 1e-9)
        cp_tau = model.defaults.cp_tau
        sigma, tau = step_sizes(model.saddle, cp_tau)
        assert tau == (sigma if cp_tau is None else cp_tau)
        assert sigma * tau <= bound * (1.0 + 1e-9)
        prm = default_inner(model, eta=2.0)
        assert prm.gamma == 0.125 * 2.0
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
    try:
        DecoupledAlm(model, layout, 1.0, default_inner(model, 1.0, gamma=2.0))
    except ValueError as exc:
        assert "2.0" in str(exc) and "1.0" in str(exc)
    else:
        raise AssertionError("gamma > eta accepted")
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
                     lambda: solve_single(model, tol, 3),
                     lambda: cp_full(model, 3, tol=tol)):
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
    """Chambolle-Pock Alg. 1 written out per model, with its energy trace."""
    f = model.f
    u = np.zeros_like(f)
    ubar = u.copy()
    p = np.zeros(f.shape + (2,))
    t = np.zeros(f.shape + (4,))
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
    # the baseline is the accelerated routine at eta = 0 and gamma = 0 (so
    # theta = 1) on a single subdomain with unit masks, and both are the
    # plain Alg. 1 iteration, bit for bit, at the baseline's own steps (for
    # TV-L1 and Hessian-L1 tau = cp_tau, not 1/sqrt(bound))
    rng = np.random.default_rng(25)
    f = rng.uniform(0, 1, size=(12, 10))
    for model in (ChanVese(f=f, alpha=2.0, c1=0.6, c2=0.1),
                  TVL1Deblur(f=f, alpha=3.0, kernel=BlurKernel(1)),
                  HessianL1(f=f, alpha=1.0)):
        sigma, tau = step_sizes(model.saddle, model.defaults.cp_tau)
        res = cp_full(model, 300)
        local = _local(model, np.ones(f.shape), np.zeros(f.shape), 0.0)
        trace = []
        steps = primal_dual(local, np.zeros(f.shape), zero_duals(local, model.f),
                            sigma, tau, 0.0)
        for it, (u, _) in enumerate(islice(steps, 300), 1):
            trace.append(energy(model, u))
        u_alg1, trace_alg1 = _cp_alg1(model, sigma, tau, 300)
        assert it == res.iters == 300
        assert u.tobytes() == res.u.tobytes() == u_alg1.tobytes()
        energies = np.array([r.energy for r in res.rows])
        assert (np.array(trace).tobytes() == energies.tobytes()
                == trace_alg1.tobytes())


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
        cores = [sd.core for _, sd in alm.chunks]
        for _ in range(4):
            alm.step()
        # each chunk's float core is built once; a step sets prox on a copy
        for (run, sd), core in zip(alm.chunks, cores):
            assert sd.core is core and sd.core.dtype == np.float64
            assert np.array_equal(sd.core, layout.core[run])
            assert sd.prox is None
        assert len(alm.duals) == len(model.saddle.blocks)
        for blk, y in zip(model.saddle.blocks, alm.duals):
            assert y.shape == layout.core.shape + blk.forward(np.zeros(shape)).shape[2:]
            assert magnitude(y, 3).max() <= blk.radius * (1.0 + 1e-12)


def test_bitwise_determinism_across_worker_counts():
    rng = np.random.default_rng(32)
    f = rng.uniform(0, 1, size=(18, 12))
    model = TVL1Deblur(f=f, alpha=2.0, kernel=BlurKernel(1))
    layout = OverlapLayout.from_grid((18, 12), 2, 2, stencil_of(model))
    runs = []
    # the workers share the packed copies and duals, each writing its own
    # slice of the stacks; a short switch interval interleaves them as often
    # as it can
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 4):
            alm = DecoupledAlm(model, layout, 10.0,
                               default_inner(model, 10.0, iters=10),
                               workers=workers)
            for _ in range(8):
                alm.step()
            runs.append([alm.u.copy(), alm.lam.copy(), alm.avg.copy()] + alm.duals)
    finally:
        sys.setswitchinterval(interval)
    for a, b in zip(*runs):
        assert np.array_equal(a, b)


# SHA-256 of alm.u and alm.lam, spread to (S, M, N) stacks by _stack_sha256,
# after 4 outer steps of the set-up in test_frozen_trajectory.  A refactor
# of the decomposed solver must reproduce them bit for bit; a change that
# alters the arithmetic on purpose re-derives them and records why.
FROZEN_TRAJECTORY = {
    "ccv": ("462a90fa01d03b79a682fe25dcea493fbc4a5dd0d160e0fccd2ea51ab53f8d42",
            "7521653f46bc749c975f7ea9ff53b49095e6aec704a235c656183b289b460f18"),
    "tvl1": ("bfa7c3ee7af0abded8b990a3fbf55df09e1b02a8c844f5f731889a930bdcf5b0",
             "43b85762bd33b72d5a61925df61bf890a4f14de2966176d8d89e1d2446779e24"),
    "hessl1": ("96e18f5f65b940e164e9649a0de6780f1a80e9ea20ef2d9e519ea2c2d1076099",
               "35a27a7327ff6dbfd1bb8feb296f8ade918edd62b3fd96661043077ca6d382a5"),
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


def test_frozen_trajectory():
    for name, model in _frozen_cases().items():
        eta = model.defaults.eta
        layout = OverlapLayout.from_grid(model.f.shape, 3, 2, stencil_of(model))
        for workers in (1, 2):
            alm = DecoupledAlm(model, layout, eta,
                               default_inner(model, eta, iters=7),
                               workers=workers)
            for _ in range(4):
                alm.step()
            got = tuple(_stack_sha256(a, layout) for a in (alm.u, alm.lam))
            assert got == FROZEN_TRAJECTORY[name], (name, workers)


# After 2 outer steps of the same set-up in gap mode (gap_tol 1e-5, workers
# 1): the per-step inner iteration counts, then the SHA-256 of alm.u and
# alm.lam as _stack_sha256 stacks and of each block's global dual field,
# stack_sum of its packed duals, plus 0.0 (which folds -0.0 into +0.0).
FROZEN_GAP_TRAJECTORY = {
    "ccv": ([[125, 175, 100, 150, 75, 100], [150, 75, 100, 50, 50, 75]],
            "e9368611f9b95766e07c010954d5a8844730ed795c8f8b652b7fa49039910b28",
            "6cb1b6213e82bc1e4e0c543ae3a48b1c7ef25a67eb91974f6b98a527358166ce",
            ("475e95ee3bca4580822af47fa4b85d38d53d3380e61eee45db78bec15bd1f2f1",)),
    "tvl1": ([[375, 400, 525, 375, 525, 350], [400, 600, 375, 375, 450, 325]],
             "cf91e3efe02541346de8bc75d92650424fe93f6900edf0cb22d0d9f6b6abc9f4",
             "9540962a2dc6a06df793f95868743c3f87563259f8f989b5518538d5f70e87ac",
             ("4626ae48bb1105e5382286779d51d867d2e773c411e5c5e08f084c8e963e484d",
              "46b6468e590c86e13d21e08f5772cebdcd0258d8e3c75506f7e3fadf4da3a24f")),
    "hessl1": ([[1650, 925, 1150, 825, 850, 700], [1050, 1025, 900, 775, 1100, 1300]],
               "29d8de2b5d2b5755a50140406ded73db0fac28d91b4b05ad8a46544cc01c657f",
               "18d633f1d4eeb344b095473f00b4bb02bde5c9a2da0964afa2e7b843b681aa54",
               ("1a670cb0314c68eb35acd158a56feb0a714ebfbaa51d2d21700af1aa2cad0da1",
                "a6c498b52f3fe93f9a03023612458b4bf3deec890ed498faa17c4f49cb146640")),
}


def test_frozen_gap_trajectory():
    for name, model in _frozen_cases().items():
        eta = model.defaults.eta
        layout = OverlapLayout.from_grid(model.f.shape, 3, 2, stencil_of(model))
        alm = DecoupledAlm(model, layout, eta,
                           default_inner(model, eta, gap_tol=1e-5))
        iters = [alm.step().inner_iters for _ in range(2)]
        sha = [_stack_sha256(alm.u, layout), _stack_sha256(alm.lam, layout)]
        sha += [hashlib.sha256((stack_sum(y, layout) + 0.0).tobytes()).hexdigest()
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


@dataclass(frozen=True, eq=False)
class _StackedTVDenoise(BackwardTVDenoise):
    """BackwardTVDenoise with its TV block naming operators that are built
    from the 1-D differences with np.stack and a sum."""

    @cached_property
    def saddle(self):
        data = Block(None, None, self.alpha, shift=self.f)
        tv = Block("stacked_grad_minus", "stacked_adjoint_grad_minus", 1.0)
        return Saddle(blocks=(data, tv), bound=9.0)


def test_a_block_may_name_an_operator_built_by_stacking(monkeypatch):
    # the built-ins write into one output; an operator stacked the way they
    # used to be still runs, and its iterates are the built-in's bit for bit
    monkeypatch.setattr(operators, "stacked_grad_minus", raising=False,
                        value=lambda u: np.stack((dxm(u), dym(u)), axis=-1))
    monkeypatch.setattr(operators, "stacked_adjoint_grad_minus", raising=False,
                        value=lambda p: adjoint_dxm(p[..., 0]) + adjoint_dym(p[..., 1]))
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
                off = y[s][~core]
                assert not off.any() and not np.signbit(off).any(), (type(model), b, s)


def _window_step(alm):
    """One outer step of alm with a local solve per window: the loop that
    the chunked DecoupledAlm.step replaced, kept as its reference."""
    lay, eta, model = alm.layout, alm.eta, alm.model
    iters, gaps = [], []
    for s, win in enumerate(lay.windows):
        core = lay.core[s]
        uhat = alm.avg[win] * lay.tilde[s] - alm.lam[s] / eta
        local = _local(replace(model, f=model.f[win]), core.astype(np.float64), uhat, eta)
        u, duals, it, gap = local_solve(local, alm.u[s], [y[s] for y in alm.duals],
                                        alm.inner)
        alm.u[s] = u
        for y, d in zip(alm.duals, duals):
            y[s] = d
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
    # the benchmark's layouts: CCV at 256^2 over 8x8 and TV-L1 at 128^2 over
    # 4x4 with a halfwidth-4 blur
    for side, p, stencil, count in ((256, 8, ccv, 10), (128, 4, tvl1_4, 4)):
        layout = OverlapLayout.from_grid((side, side), p, p, stencil)
        assert len(solvers._runs(layout, lim)) == count


def _alm_state(alm):
    return [a.tobytes() for a in [alm.u, alm.lam, alm.avg] + alm.duals]


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
            layout = OverlapLayout.from_grid(shape, p, q, stencil_of(model))
            areas = sum(t.size for t in layout.tilde)
            inners = [default_inner(model, eta, iters=7)]
            if shape == (7, 5):
                inners.append(default_inner(model, eta, gap_tol=1e-5))
            for limit in (default, areas // 2):
                monkeypatch.setattr(solvers, "_CHUNK_PX", limit)
                for prm in inners:
                    for workers in (1, 2, 4):
                        alm = DecoupledAlm(model, layout, eta, prm, workers=workers)
                        ref = DecoupledAlm(model, layout, eta, prm)
                        for _ in range(4 if prm.gap_tol is None else 2):
                            info = alm.step()
                            assert (info.inner_iters, info.gaps) == _window_step(ref)
                            assert _alm_state(alm) == _alm_state(ref), (
                                type(model).__name__, shape, limit, prm, workers)


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
        d = [on_grid(lay, s, y[s]) for y in duals]
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
    # drives the iterates negative
    p = data.draw(st.integers(1, m), label="p")
    q = data.draw(st.integers(1, n), label="q")
    f = np.random.default_rng(seed).random((m, n))
    model = _drawn_model(kind, f, halfwidth)
    eta = model.defaults.eta
    prm = default_inner(model, eta, iters=4)
    layout = OverlapLayout.from_grid((m, n), p, q, stencil_of(model))
    with mock.patch.object(solvers, "_CHUNK_PX", chunk_px):
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
                assert y[s][layout.core[s]].tobytes() == d_b[core].tobytes(), s
        lam_norm = norm2(alm.lam)
        assert alm.multiplier_consensus_norm() <= 1e-10 * max(1.0, lam_norm)


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
    sd = solvers._local_saddle(model.saddle, layout, slice(0, layout.count))
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
    # the first iterate is compared with E(0) at u = 0, and each later one
    # with the iterate before it
    rule = StopRule(model, 1e-4)
    assert not rule(-10.0, f)
    assert rule(-10.0, f)


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


def test_non_finite_energy_stops_the_solve():
    # rows of 1.7e308 in f overflow the iterates to inf and NaN.  numpy warns
    # of the overflow, and the warnings filter, unlike np.errstate, also
    # reaches the pool threads that run the local solves
    f = np.random.default_rng(38).random((8, 8))
    f[2:4] = 1.7e308
    for model in (TVL1Deblur(f=f, alpha=1.0, kernel=BlurKernel(1)),
                  HessianL1(f=f, alpha=1.0)):
        eta = model.defaults.eta
        layout = OverlapLayout.from_grid(f.shape, 2, 2, stencil_of(model))
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
            with pytest.raises(NonFiniteEnergyError, match="at iteration 1 is"):
                cp_full(model, 5)


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
