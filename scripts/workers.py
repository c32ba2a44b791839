"""Seconds per outer step and peak RSS at 1 and 2 workers, per model and layout.

Run from the repository root (numpy and the standard library only; the
package is imported from ``src/`` of the same checkout):

    python3 scripts/workers.py --out WORKERS_35.json

Each case is one model at its default eta and inner budget, on the camera
scene of ``perfbench/run.py`` with side S over T x T tiles, for each S:T
of ``--cases``.  The models are those of ``scripts/steps_to_gap.py``: CCV,
TV-L1 on the scene blurred by a box of halfwidth 4, and Hessian-L1 on the
scene with 20% salt-and-pepper noise.  A case records:

* the layout's window shape, its chunk count (``solvers._runs`` at
  ``solvers._CHUNK_PX``) and ``work``, the pixel-iterations of the first
  step (every window solved, times its pixels, times the inner
  iterations), the figure ``DecoupledAlm.step`` compares with
  ``solvers._POOL_ITERS * solvers._CHUNK_PX``;
* ``step_s``: the seconds of each of ``--steps`` outer steps
  (``DecoupledAlm.step``) of ``--repeats`` rounds, each round one run at 1
  worker and then one at 2, and ``median_step_s``, per worker count the
  median over the rounds of each run's median step.  The 2-worker runs set
  ``solvers._POOL_ITERS`` to 0 in this process, so they solve on two
  threads at every step with two chunks to solve, whatever the rule says;
* ``pays``: whether 2 workers were faster than 1 in every round and by at
  least PAYS in the median (null for a case of one chunk, which runs on
  the calling thread at any worker count, and for fewer than MIN_ROUNDS
  rounds, too few to tell);
* ``pooled``: per step, whether a 2-worker run at the default constants
  built a pool;
* ``peak_rss_mb``: per worker count, the peak resident set of a fresh
  process (this script with ``--child``) that builds the case and runs its
  steps, the pool forced as above at 2 workers.  It reads VmHWM from
  ``/proc/self/status`` where there is one, since Linux carries the
  parent's ``ru_maxrss`` across the exec of a child, and ``ru_maxrss``
  elsewhere;
* ``identical``: whether the copies, the multiplier, the average and the
  duals after the last step are byte-identical at 1 worker, at 2 with the
  pool forced and at 2 at the default constants.

The JSON written to ``--out`` holds the settings, the host and one record
per case.  The script exits with code 1 when a case's outputs differ.  It
also names every case where a second thread paid and the default
constants build no pool at the first step, or where the constants pool
and it did not pay; ``tests/test_solvers.py`` checks the committed file
against the constants.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import ddimaging as dd  # noqa: E402
from ddimaging import solvers  # noqa: E402
from steps_to_gap import build_model  # noqa: E402

MODELS = ("ccv", "tvl1", "hessl1")
# a second thread pays when it is faster in every round and by this factor
# in the median: on ccv-8x8's layout, up to 1.1x faster per step
# in-process, it gained the benchmark no time beyond the spread between runs
# and cost 4.6 MB of peak RSS
PAYS = 1.2
MIN_ROUNDS = 3


def build(name, side, tiles):
    model = build_model(name, side)
    layout = dd.OverlapLayout.from_grid(model.f.shape, tiles, tiles, dd.stencil_of(model))
    eta = model.defaults.eta
    return model, layout, eta, dd.default_inner(model, eta)


def run(case, workers, steps, forced):
    """`steps` outer steps of a fresh DecoupledAlm; the seconds of each, the
    solved count and whether it built a pool, and the digest of its state."""
    alm = dd.DecoupledAlm(*case, workers=workers)
    built = []

    class Counted(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    saved = solvers._POOL_ITERS, solvers.ThreadPoolExecutor
    solvers.ThreadPoolExecutor = Counted
    if forced:
        solvers._POOL_ITERS = 0
    secs, solved, pooled = [], [], []
    try:
        for _ in range(steps):
            before = len(built)
            start = time.perf_counter()
            info = alm.step()
            secs.append(time.perf_counter() - start)
            solved.append(info.solved)
            pooled.append(len(built) > before)
    finally:
        solvers._POOL_ITERS, solvers.ThreadPoolExecutor = saved
    digest = hashlib.sha256()
    for a in [alm.u, alm.lam, alm.avg] + alm.duals:
        digest.update(a.tobytes())
    return secs, solved, pooled, digest.hexdigest()


def peak_rss_mb():
    """This process's peak resident set in MB: VmHWM, or ru_maxrss."""
    try:
        with open("/proc/self/status") as fh:
            return next(int(line.split()[1]) for line in fh
                        if line.startswith("VmHWM:")) / 1024.0
    except (OSError, StopIteration):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child(spec):
    """--child NAME:SIDE:TILES:WORKERS:STEPS; prints the peak RSS and the digest."""
    name, side, tiles, workers, steps = spec.split(":")
    case = build(name, int(side), int(tiles))
    *_, digest = run(case, int(workers), int(steps), forced=int(workers) > 1)
    print(json.dumps({"peak_rss_mb": peak_rss_mb(), "sha256": digest}))


def measure(name, side, tiles, steps, repeats):
    case = build(name, side, tiles)
    model, layout, eta, prm = case
    window = layout.tilde.shape[1:]
    runs = solvers._runs(layout, 0 if prm.gap_tol is not None else solvers._CHUNK_PX)
    record = {"model": name, "side": side, "tiles": tiles, "eta": eta,
              "inner_iters": prm.iters, "windows": layout.count, "window": list(window),
              "chunks": len(runs), "work": layout.count * window[0] * window[1] * prm.iters,
              "step_s": {"1": [], "2": []}}
    digests = set()
    for _ in range(repeats):
        for workers in (1, 2):
            secs, solved, _, digest = run(case, workers, steps, forced=True)
            record["step_s"][str(workers)].append(secs)
            digests.add(digest)
    record["solved"] = solved
    medians = {w: [statistics.median(s) for s in runs_s]
               for w, runs_s in record["step_s"].items()}
    record["median_step_s"] = {w: statistics.median(m) for w, m in medians.items()}
    record["speedup"] = record["median_step_s"]["1"] / record["median_step_s"]["2"]
    record["pays"] = None if len(runs) < 2 or repeats < MIN_ROUNDS else (
        all(b < a for a, b in zip(medians["1"], medians["2"])) and record["speedup"] >= PAYS)
    _, _, record["pooled"], digest = run(case, 2, steps, forced=False)
    digests.add(digest)
    record["peak_rss_mb"] = {}
    for workers in (1, 2):
        out = subprocess.run(
            [sys.executable, __file__, "--child", f"{name}:{side}:{tiles}:{workers}:{steps}"],
            check=True, capture_output=True, text=True).stdout
        got = json.loads(out.strip().splitlines()[-1])
        record["peak_rss_mb"][str(workers)] = got["peak_rss_mb"]
        digests.add(got["sha256"])
    record["identical"] = len(digests) == 1
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", help="the JSON file to write")
    parser.add_argument("--cases", nargs="+", default=["128:4", "256:8", "512:8"],
                        help="image side and tiles per side, as SIDE:TILES")
    parser.add_argument("--steps", type=int, default=3)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child(args.child)
        return 0
    if not args.out:
        parser.error("--out is required")

    record = {
        "command": ["python3", "scripts/workers.py"] + list(
            sys.argv[1:] if argv is None else argv),
        "host": {"nproc": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version(), "numpy": np.__version__},
        "settings": {"cases": args.cases, "steps": args.steps, "repeats": args.repeats,
                     "models": MODELS, "chunk_px": solvers._CHUNK_PX,
                     "pool_iters": solvers._POOL_ITERS,
                     "threshold": solvers._POOL_ITERS * solvers._CHUNK_PX, "pays": PAYS},
        "cases": [],
    }
    wrong, disagree = [], []
    for spec in args.cases:
        side, tiles = map(int, spec.split(":"))
        for name in MODELS:
            case = measure(name, side, tiles, args.steps, args.repeats)
            record["cases"].append(case)
            med = case["median_step_s"]
            print(f"{name} {side}^2 over {tiles}x{tiles}: {case['chunks']} chunks, "
                  f"work {case['work'] / 1e6:.2f}M, step {1e3 * med['1']:.1f} -> "
                  f"{1e3 * med['2']:.1f} ms ({case['speedup']:.2f}x), pooled "
                  f"{case['pooled']}, peak RSS {case['peak_rss_mb']['1']:.1f} -> "
                  f"{case['peak_rss_mb']['2']:.1f} MB, identical {case['identical']}",
                  flush=True)
            if not case["identical"]:
                wrong.append(f"{name} {spec}")
            if case["pays"] is not None and case["pays"] != case["pooled"][0]:
                disagree.append(f"{name} {spec}")
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    if disagree:
        print(f"the rule and the measurement disagree at step 1: {disagree}")
    if wrong:
        print(f"outputs differ between the worker counts: {wrong}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
