"""Outer steps to a relative energy gap, per model and inner acceleration.

Run from the repository root (numpy and the standard library only; the
package is imported from ``src/`` of the same checkout):

    python3 scripts/steps_to_gap.py --out STEPS_31.json

Each case is one model at its default eta and inner budget, on one image
side of ``--sides`` over ``--tiles`` x ``--tiles`` tiles, with the local
solves accelerating at gamma = fraction * eta (``solvers._GAMMA_PER_ETA``,
set in this process to each of FRACTIONS).  The models are those of
``tests/test_acceptance.py`` on the camera scene of ``perfbench/run.py``:
CCV (alpha 10, c1 0.6, c2 0.1), TV-L1 on the scene blurred by a box of
halfwidth 4 (alpha 10) and Hessian-L1 on the scene with 20%
salt-and-pepper noise (alpha 1).  A case runs ``solve_dd`` for at most
MAX_OUTER steps, until the relative energy gap (E - E*) / |E*| first
reaches the smallest of GAPS, and records the outer steps and seconds to
each gap (null when the budget ran out first) and ``solve_s``, the seconds
the solve ran.  E* is the best energy of ``--ref-iters`` ``cp_full``
iterations, an upper bound on the minimum, so every gap reads low against
the true one.

It also records the inner iterations gap mode spends at each fraction on
the set-up of ``test_frozen_gap_trajectory`` in ``tests/test_solvers.py``:
a seeded 20x18 image over 3x2 tiles, 2 outer steps, gap_tol 1e-5.

The JSON written to ``--out`` holds the settings, the host, one record per
reference energy, per case and per gap-mode run.
"""

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import ddimaging as dd  # noqa: E402
from ddimaging import solvers  # noqa: E402
from run import camera_scene  # noqa: E402

MODELS = ("ccv", "tvl1", "hessl1")
FRACTIONS = (0.125, 0.25, 0.5, 1.0)
GAPS = (1e-2, 1e-3)
MAX_OUTER = 1000


class _Reached(Exception):
    """Raised from the row callback to end a solve at its last gap."""


def build_model(name, side):
    scene = camera_scene(side, side)
    if name == "ccv":
        return dd.ChanVese(f=scene, alpha=10.0, c1=0.6, c2=0.1)
    if name == "tvl1":
        kernel = dd.BlurKernel(4)
        return dd.TVL1Deblur(f=dd.blur(scene, kernel), alpha=10.0, kernel=kernel)
    return dd.HessianL1(f=dd.salt_pepper(scene, 0.2, seed=0), alpha=1.0)


def frozen_gap_model(name):
    """The model of tests/test_solvers.py's frozen trajectories."""
    f = np.random.default_rng(20260).random((20, 18))
    if name == "ccv":
        return dd.ChanVese(f=f, alpha=10.0, c1=0.6, c2=0.1)
    if name == "tvl1":
        return dd.TVL1Deblur(f=f, alpha=10.0, kernel=dd.BlurKernel(1))
    return dd.HessianL1(f=f, alpha=1.0)


def steps_to_gaps(model, layout, e_star):
    """Run solve_dd until the smallest gap or the budget; steps and seconds
    to each gap (None when not reached), solve_s and the rows run."""
    eta = model.defaults.eta
    rows = []

    def on_row(row):
        rows.append(row)
        if row.rel_gap <= min(GAPS):
            raise _Reached

    start = time.perf_counter()
    try:
        dd.solve_dd(model, layout, eta, dd.default_inner(model, eta), None, MAX_OUTER,
                    e_star=e_star, on_row=on_row)
    except _Reached:
        pass
    solve_s = time.perf_counter() - start
    steps, seconds = {}, {}
    for gap in GAPS:
        row = next((r for r in rows if r.rel_gap <= gap), None)
        steps[f"{gap:.0e}"] = None if row is None else row.n
        seconds[f"{gap:.0e}"] = None if row is None else row.elapsed_s
    return steps, seconds, solve_s, rows


def gap_mode_iters(name):
    """Inner iterations per local solve over 2 gap-mode outer steps."""
    model = frozen_gap_model(name)
    eta = model.defaults.eta
    layout = dd.OverlapLayout.from_grid(model.f.shape, 3, 2, dd.stencil_of(model))
    alm = dd.DecoupledAlm(model, layout, eta, dd.default_inner(model, eta, gap_tol=1e-5))
    start = time.perf_counter()
    per_step = [alm.step().inner_iters for _ in range(2)]
    return per_step, time.perf_counter() - start


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True, help="the JSON file to write")
    parser.add_argument("--sides", type=int, nargs="+", default=[64, 128])
    parser.add_argument("--tiles", type=int, default=4)
    parser.add_argument("--ref-iters", type=int, default=20_000)
    args = parser.parse_args(argv)

    record = {
        "command": ["python3", "scripts/steps_to_gap.py"] + list(
            sys.argv[1:] if argv is None else argv),
        "host": {"nproc": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version(), "numpy": np.__version__},
        "settings": {"sides": args.sides, "tiles": args.tiles, "ref_iters": args.ref_iters,
                     "fractions": FRACTIONS, "gaps": GAPS, "max_outer": MAX_OUTER,
                     "workers": 1, "models": MODELS},
        "references": [], "cases": [], "gap_mode": [],
    }
    default_fraction = solvers._GAMMA_PER_ETA
    try:
        for side in args.sides:
            for name in MODELS:
                model = build_model(name, side)
                start = time.perf_counter()
                e_star = dd.reference_energy(model, args.ref_iters)
                ref_s = time.perf_counter() - start
                record["references"].append({"model": name, "side": side, "e_star": e_star,
                                             "iters": args.ref_iters, "s": ref_s})
                print(f"{name} {side}^2: E* = {e_star!r} ({ref_s:.1f} s)", flush=True)
                layout = dd.OverlapLayout.from_grid(model.f.shape, args.tiles, args.tiles,
                                                    dd.stencil_of(model))
                for frac in FRACTIONS:
                    solvers._GAMMA_PER_ETA = frac
                    steps, seconds, solve_s, rows = steps_to_gaps(model, layout, e_star)
                    record["cases"].append({
                        "model": name, "side": side, "tiles": args.tiles, "fraction": frac,
                        "eta": model.defaults.eta, "inner_iters": model.defaults.inner_iters,
                        "steps": steps, "seconds": seconds, "solve_s": solve_s,
                        "outer_run": len(rows), "last_gap": rows[-1].rel_gap,
                        "energy_at_3": rows[2].energy if len(rows) > 2 else None})
                    print(f"  gamma/eta {frac}: steps {steps}, solve_s {solve_s:.2f}",
                          flush=True)
        for name in MODELS:
            for frac in FRACTIONS:
                solvers._GAMMA_PER_ETA = frac
                per_step, secs = gap_mode_iters(name)
                total = sum(map(sum, per_step))
                record["gap_mode"].append({"model": name, "fraction": frac,
                                           "inner_iters": total, "per_step": per_step,
                                           "s": secs})
                print(f"gap mode {name}, gamma/eta {frac}: {total} inner iterations "
                      f"({secs:.1f} s)", flush=True)
    finally:
        solvers._GAMMA_PER_ETA = default_fraction
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
