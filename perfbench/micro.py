"""Operator microbenchmark: nanoseconds per pixel at whole-image and window shapes.

256 and 128 are the whole images of the benchmark workloads; 40 and 33 are
about the essential-domain windows of one tile of ``tvl1-4x4`` (32-pixel
tiles plus a 4-pixel band) and ``ccv-8x8`` (32-pixel tiles plus one pixel).
On small windows numpy's fixed cost per call dominates, which is what
cropping or batching local solves has to contend with.
"""

import statistics
import time

import numpy as np

SIDES = (256, 128, 40, 33)


def _cases(ddimaging, side, rng):
    ops, fields = ddimaging.operators, ddimaging.fields
    kernel = ddimaging.BlurKernel(4)
    u = rng.random((side, side))
    p = rng.standard_normal((side, side, 2))
    t = rng.standard_normal((side, side, 4))
    return (("blur", ops, "blur", (u, kernel)),
            ("blur_adj", ops, "adjoint_blur", (u, kernel)),
            ("grad", ops, "grad_plus", (u,)),
            ("grad_adj", ops, "adjoint_grad_plus", (p,)),
            ("hessian", ops, "hessian", (u,)),
            ("hessian_adj", ops, "adjoint_hessian", (t,)),
            ("project_ball", fields, "project_ball", (p, 1.0)))


def per_call_seconds(fn, args=(), batch_s=0.01, batches=5):
    """Time per call in each of ``batches`` batches.

    The batch length doubles until one batch takes ``batch_s``, so calls of
    a few microseconds are timed over many repetitions.
    """
    n = 1
    while True:
        start = time.perf_counter()
        for _ in range(n):
            fn(*args)
        if time.perf_counter() - start >= batch_s:
            break
        n *= 2
    times = []
    for _ in range(batches):
        start = time.perf_counter()
        for _ in range(n):
            fn(*args)
        times.append((time.perf_counter() - start) / n)
    return times


def run(ddimaging, seed):
    """Returns ({metric name: ns/px}, [names of operators that are missing])."""
    rng = np.random.default_rng([seed, 7])
    out, missing = {}, []
    for side in SIDES:
        for op, module, attr, args in _cases(ddimaging, side, rng):
            name = f"micro.{op}.{side}"
            fn = getattr(module, attr, None)
            if fn is None:
                out[name] = 0.0
                missing.append(f"{module.__name__}.{attr}")
            else:
                out[name] = statistics.median(per_call_seconds(fn, args)) / (side * side) * 1e9
    return out, missing
