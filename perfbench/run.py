"""ddimaging benchmark: time to solution on three solver workloads.

Run from the repository root (numpy and the standard library only; the
package is imported from ``src/`` of the same checkout):

    python3 perfbench/run.py --workload ccv-8x8 --seed 1 --seconds 25 --trace 0

Workloads (inputs are generated from ``--seed``; the library only sees the
arrays):

* ``ccv-8x8``: convex Chan-Vese segmentation of a 256x256 scene over 8x8
  tiles (64 subdomains), model defaults, ``workers=2``, run to the stop rule.
  Many tiles and cheap local work, so decomposition overhead dominates.
* ``tvl1-4x4``: TV-L1 deblurring of a 128x128 scene blurred with a box
  kernel of halfwidth 4, 4x4 tiles, ``workers=1``, a fixed budget of 3 outer
  steps.  Dominated by the blur operator.
* ``hessl1-full``: Hessian-L1 denoising of a 128x128 scene with 20 %
  salt-and-pepper noise, solved by ``cp_full`` on the whole image for 1000
  iterations.  Bypasses the decomposition entirely.

The scene is the procedural camera scene of the test suite plus a seeded
uniform perturbation of +-0.003.  That leaves the true segmentation phase
unchanged and keeps the amount of work the same on every seed: ``ccv-8x8``
stops after 8 outer steps (its stop criterion reads about 7e-5 against the
tolerance 1e-4 there, and about 1.7e-4 one step earlier), where a +-0.02
perturbation made it stop after 8 or 9 depending on the seed.

``--trace 0`` times end-to-end: back-to-back solves until ``--seconds`` have
passed (at least one), with set-up (model, layout and inner parameters)
timed in short groups before and after each solve, reporting medians.  ``--trace 1`` ignores ``--seconds``: it
runs an untraced solve, the same solve with every layer boundary traced
(and, for ``ccv-8x8``, again at one worker), a second untraced solve and the
operator microbenchmark, and reports the per-layer metrics.

Every solve is checked: finite output of the right shape, the multiplier's
consensus component at most 1e-10, convergence and a mask error of at most
0.005 for ``ccv-8x8``, a PSNR above the corrupted input's for the others,
and an output (SHA-256 of ``u``) and step count equal to the run's first
solve, whatever its worker count.  A solve failing any check counts as
failed.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A record of each run
(metadata, per-solve figures, output digests, spans) is written under
``.perfbench/``.

Exits with code 2, printing no result, when the checkout holds no
``src/ddimaging`` package.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import micro
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

C1, C2 = 0.6, 0.1
PERTURB = 0.003
NOISE_SP = 0.2
HALFWIDTH = 4
MULT_ORTHO_BOUND = 1e-10
MASK_ERR_BOUND = 0.005


@dataclass(frozen=True)
class Workload:
    model: str    # "ccv", "tvl1" or "hessl1"
    side: int     # the image is side x side
    tiles: int    # tiles per side; 0 runs cp_full on the whole image
    budget: int   # outer-step budget (solve_dd) or iteration count (cp_full)
    workers: int
    to_stop: bool  # the solve must stop by the stop rule within the budget


WORKLOADS = {
    "ccv-8x8": Workload("ccv", 256, 8, 100, 2, True),
    "tvl1-4x4": Workload("tvl1", 128, 4, 3, 1, False),
    "hessl1-full": Workload("hessl1", 128, 0, 1000, 1, False),
}
# --smoke: the same pipelines at a size that runs in seconds.
SMOKE = {
    "ccv-8x8": dict(side=64),
    "tvl1-4x4": dict(side=64),
    "hessl1-full": dict(side=64, budget=50),
}

END_TO_END_UNITS = {
    "solve_s": "s",
    "step_ms": "ms",
    "setup_s": "s",
    "outer_iters": "count",
    "psnr_db": "dB",
    "energy_excess": "energy",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name):
    if name.startswith("micro."):
        return "ns/px"
    last = name.rsplit(".", 1)[1]
    if last in ("s", "self_s", "wait_s"):
        return "s"
    if last in ("calls", "iters", "missing"):
        return "count"
    return {"px": "px", "speedup": "x", "state_bytes": "B"}.get(last, "ratio")


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def camera_scene(m, n):
    """The test suite's piecewise-smooth camera scene in [0, 1]."""
    y = np.arange(m, dtype=np.float64)[:, None] / (m - 1.0)
    x = np.arange(n, dtype=np.float64)[None, :] / (n - 1.0)
    u = 0.74 + 0.08 * y + np.zeros_like(x)
    u = np.where(y >= 0.62, 0.44 + 0.05 * x, u)
    u = np.where((y >= 0.50) & (y < 0.62) & (x >= 0.04) & (x < 0.16), 0.58, u)
    u = np.where((y >= 0.54) & (y < 0.62) & (x >= 0.80) & (x < 0.93), 0.63, u)
    head = ((y - 0.22) ** 2 + ((x - 0.42) * n / m) ** 2) <= 0.065 ** 2
    torso = (((y - 0.42) / 0.16) ** 2 + (((x - 0.42) * n / m) / 0.09) ** 2) <= 1.0
    arm = (y >= 0.30) & (y < 0.36) & (x >= 0.42) & (x < 0.58)
    cam = (y >= 0.24) & (y < 0.34) & (x >= 0.55) & (x < 0.64)
    u = np.where(head | torso | arm, 0.10, u)
    u = np.where(cam, 0.16, u)
    for x0, x1 in ((0.44, 0.34), (0.50, 0.50), (0.56, 0.66)):
        xc = x0 + (x1 - x0) * np.clip((y - 0.56) / 0.26, 0.0, 1.0)
        leg = (y >= 0.56) & (y < 0.82) & (np.abs(x - xc) < 0.9 / n)
        u = np.where(leg, 0.12, u)
    return u


def box_blur(u, halfwidth):
    """Mean over the (2l+1)^2 window with zero padding (the model's blur)."""
    k = 2 * halfwidth + 1
    m, n = u.shape
    padded = np.pad(u, halfwidth)
    acc = np.zeros_like(u)
    for i in range(k):
        for j in range(k):
            acc += padded[i:i + m, j:j + n]
    return acc / float(k * k)


@dataclass
class Inputs:
    data: np.ndarray       # what the model is built on
    reference: np.ndarray  # clean scene, or the true phase for segmentation
    energy_floor: float    # pointwise lower bound of the model energy


def make_inputs(wl, seed):
    rng = np.random.default_rng([seed, 1])
    shape = (wl.side, wl.side)
    clean = np.clip(camera_scene(*shape) + rng.uniform(-PERTURB, PERTURB, shape),
                    0.0, 1.0)
    if wl.model == "ccv":
        g = (clean - C1) ** 2 - (clean - C2) ** 2
        return Inputs(clean, (g < 0).astype(np.float64),
                      10.0 * float(np.sum(np.minimum(g, 0.0))))
    if wl.model == "tvl1":
        return Inputs(box_blur(clean, HALFWIDTH), clean, 0.0)
    hit = rng.random(shape) < NOISE_SP
    salt = (rng.random(shape) < 0.5).astype(np.float64)
    return Inputs(np.where(hit, salt, clean), clean, 0.0)


# ---------------------------------------------------------------------------
# set-up, solve, checks
# ---------------------------------------------------------------------------


@dataclass
class Problem:
    model: object
    layout: object = None
    inner: object = None
    eta: float = 0.0
    tol: float = 0.0


def setup(dd, wl, data):
    """Model construction, OverlapLayout.from_grid and default_inner."""
    if wl.model == "hessl1":
        return Problem(dd.HessianL1(f=data, alpha=1.0))
    if wl.model == "ccv":
        model, eta, tol = dd.ChanVese(f=data, alpha=10.0, c1=C1, c2=C2), 1.0, 1e-4
    else:
        kernel = dd.BlurKernel(HALFWIDTH)
        model, eta, tol = dd.TVL1Deblur(f=data, alpha=10.0, kernel=kernel), 10.0, 1e-3
    layout = dd.OverlapLayout.from_grid(data.shape, wl.tiles, wl.tiles,
                                        dd.stencil_of(model))
    return Problem(model, layout, dd.default_inner(model, eta), eta, tol)


def solve(dd, wl, prob, workers):
    """One timed solve; returns (seconds, seconds of each step, result).

    Steps are outer steps for solve_dd and iterations for cp_full, timed by
    the per-step callback each of them offers.
    """
    stamps = [time.perf_counter()]
    if prob.layout is None:
        res = dd.cp_full(prob.model, wl.budget,
                         on_iter=lambda *_: stamps.append(time.perf_counter()))
    else:
        res = dd.solve_dd(prob.model, prob.layout, prob.eta, prob.inner,
                          prob.tol, wl.budget, workers=workers,
                          on_row=lambda _: stamps.append(time.perf_counter()))
    seconds = time.perf_counter() - stamps[0]
    return seconds, np.diff(stamps), res


def evaluate(dd, wl, inp, prob, seconds, steps, res):
    """Figures and failed checks of one solve."""
    u = np.ascontiguousarray(res.u, dtype=np.float64)
    iters = int(res.iters)
    row = {"solve_s": seconds, "outer_iters": iters,
           "step_ms": 1000.0 * float(np.median(steps)),
           "u_sha256": hashlib.sha256(u.tobytes()).hexdigest(), "failed": []}
    if u.shape != inp.data.shape or not np.isfinite(u).all():
        row["failed"].append("output is non-finite or has the wrong shape")
        return row
    row["psnr_db"] = dd.psnr(u, inp.reference)
    row["final_energy"] = dd.energy(prob.model, u)
    row["energy_excess"] = row["final_energy"] - inp.energy_floor
    if prob.layout is not None:
        row["mult_ortho_max"] = res.mult_ortho_max
        if not res.mult_ortho_max <= MULT_ORTHO_BOUND:
            row["failed"].append(f"mult_ortho_max {res.mult_ortho_max!r} > {MULT_ORTHO_BOUND}")
    if wl.to_stop and not res.converged:
        row["failed"].append(f"no convergence within {wl.budget} outer steps")
    if wl.model == "ccv":
        row["mask_err"] = float(np.mean(dd.threshold_half(u) != inp.reference))
        if not row["mask_err"] <= MASK_ERR_BOUND:
            row["failed"].append(f"mask_err {row['mask_err']!r} > {MASK_ERR_BOUND}")
    else:
        row["psnr_input_db"] = dd.psnr(inp.data, inp.reference)
        if not row["psnr_db"] > row["psnr_input_db"]:
            row["failed"].append(f"psnr_db {row['psnr_db']!r} not above the "
                                 f"input's {row['psnr_input_db']!r}")
    return row


def check_repeats(rows):
    """Every solve must reproduce the first one's output and step count."""
    first = rows[0]
    for row in rows[1:]:
        if (row["u_sha256"], row["outer_iters"]) != (first["u_sha256"], first["outer_iters"]):
            row["failed"].append("output digest or outer_iters differs from the first solve")


def array_bytes(obj):
    """Computed nbytes of the arrays (and lists of arrays) an object holds."""
    total = 0
    for value in vars(obj).values():
        items = value if isinstance(value, (list, tuple)) else (value,)
        total += sum(a.nbytes for a in items if isinstance(a, np.ndarray))
    return total


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


def _median_of(rows, key):
    """Median over the solves whose output was finite (0 when none was)."""
    values = [r[key] for r in rows if key in r]
    return statistics.median(values) if values else 0.0


def run_end_to_end(dd, wl, inp, seconds):
    # Set-up is timed in short groups between the solves, so that its median
    # samples the whole run rather than one moment of it.
    def time_setup():
        setup_times.extend(micro.per_call_seconds(
            lambda: setup(dd, wl, inp.data), batch_s=0.05, batches=3))

    setup_times, steps, rows = [], [], []
    time_setup()
    prob = setup(dd, wl, inp.data)
    start = time.perf_counter()
    while not rows or time.perf_counter() - start < seconds:
        secs, step_times, res = solve(dd, wl, prob, wl.workers)
        steps.extend(step_times)
        rows.append(evaluate(dd, wl, inp, prob, secs, step_times, res))
        time_setup()
    check_repeats(rows)
    solve_times = [r["solve_s"] for r in rows]
    metrics = {
        "solve_s": statistics.median(solve_times),
        "step_ms": 1000.0 * statistics.median(steps),
        "setup_s": statistics.median(setup_times),
        "outer_iters": statistics.median(r["outer_iters"] for r in rows),
        "psnr_db": _median_of(rows, "psnr_db"),
        "energy_excess": _median_of(rows, "energy_excess"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {"solve_s_min": min(solve_times), "repeats": len(rows),
             "setup_s_samples": setup_times}
    return metrics, rows, extra


def run_traced(dd, wl, inp, seed):
    prob = setup(dd, wl, inp.data)
    plain = solve(dd, wl, prob, wl.workers)
    rows = [evaluate(dd, wl, inp, prob, *plain)]

    tracer = tracing.install(dd)
    try:
        prob = setup(dd, wl, inp.data)
        traced = solve(dd, wl, prob, wl.workers)
        spans, tracer.spans = tracer.spans, []
        # the plain single-threaded baseline of the same problem
        one_worker = solve(dd, wl, prob, 1) if wl.workers > 1 else None
    finally:
        tracer.restore()
    rows.append(evaluate(dd, wl, inp, prob, *traced))
    if one_worker:
        rows.append(evaluate(dd, wl, inp, prob, *one_worker))
    # untraced solves on both sides of the traced one, so that drift in the
    # machine's speed over the run cancels out of the overhead to first order
    plain_after = solve(dd, wl, prob, wl.workers)
    rows.append(evaluate(dd, wl, inp, prob, *plain_after))
    check_repeats(rows)
    plain_s, traced_s = (plain[0] + plain_after[0]) / 2, traced[0]
    one_worker_s = one_worker[0] if one_worker else None

    tile_px = (wl.side // wl.tiles) ** 2 if wl.tiles else 0
    metrics = tracing.layer_metrics(spans, wl.workers, tile_px)
    metrics["solvers.pool.speedup"] = one_worker_s / traced_s if one_worker_s else 0.0
    micro_metrics, missing = micro.run(dd, seed)
    missing += tracer.missing
    state = 0
    if prob.layout is not None:
        alm_class = getattr(dd, "DecoupledAlm", None)
        if alm_class is None:
            missing.append("ddimaging.DecoupledAlm")
        else:
            alm = alm_class(prob.model, prob.layout, prob.eta, prob.inner)
            state = array_bytes(prob.layout) + array_bytes(alm)
            del alm
    metrics["decomposition.state_bytes"] = state
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1.0
    metrics["trace.missing"] = len(missing)
    metrics.update(micro_metrics)
    extra = {"plain_solve_s": [plain[0], plain_after[0]], "traced_solve_s": traced_s,
             "one_worker_traced_solve_s": one_worker_s, "missing": missing,
             "moves": tracing.MOVES}
    all_spans = spans + tracer.spans
    return metrics, rows, extra, all_spans


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def import_library():
    """Import ddimaging from this checkout's src/, or return None."""
    if not (SRC / "ddimaging" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import ddimaging
    if Path(ddimaging.__file__).resolve().parent != (SRC / "ddimaging").resolve():
        return None
    return ddimaging


def metadata(args):
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "smoke": args.smoke, "nproc": os.cpu_count(),
            "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrink the workload so that a run takes seconds")
    args = parser.parse_args(argv)

    dd = import_library()
    if dd is None:
        print(f"no ddimaging package under {SRC}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    if args.smoke:
        wl = replace(wl, **SMOKE[args.workload])
    inp = make_inputs(wl, args.seed)

    if args.trace:
        metrics, rows, extra, spans = run_traced(dd, wl, inp, args.seed)
        units = {name: per_layer_unit(name) for name in metrics}
    else:
        metrics, rows, extra = run_end_to_end(dd, wl, inp, args.seconds)
        spans = []
        units = END_TO_END_UNITS

    failed = sum(1 for r in rows if r["failed"])
    meta = metadata(args)
    for name, value in metrics.items():
        print(f"{args.workload:12s} {name:34s} {value!r} {units[name]}")
    for i, row in enumerate(rows):
        print(f"{args.workload:12s} solve {i}: u sha256 {row['u_sha256']} "
              f"outer_iters {row['outer_iters']} "
              f"{'FAILED: ' + '; '.join(row['failed']) if row['failed'] else 'ok'}")
    print(f"{args.workload:12s} fail_frac {failed}/{len(rows)}; "
          + ", ".join(f"{k} {v}" for k, v in meta.items()))
    if extra.get("missing"):
        print(f"{args.workload:12s} missing, reported as 0: {', '.join(extra['missing'])}")

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}.seed{args.seed}.trace{args.trace}"
    record = {"meta": meta, "workload": vars(wl), "metrics": metrics,
              "units": units, "solves": rows, **extra}
    Path(f"{stem}.json").write_text(json.dumps(record, indent=1))
    if spans:
        with open(f"{stem}.spans.jsonl", "w") as fh:
            for s in spans:
                fh.write(json.dumps(vars(s)) + "\n")

    print(json.dumps({
        "correct": failed == 0, "attempted": len(rows), "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
