"""Command-line harness: corrupt inputs, run solvers, evaluate energies.

Subcommands
-----------
corrupt   Apply uniform blur and/or salt-and-pepper noise to a PGM image.
solve     Run the decomposed solver (or the whole-image baseline for 1x1
          subdomains) and write the result image plus optional metrics CSV.
energy    Print the model energy of an image.

Exit status: 0 on success/convergence, 2 when the iteration budget ran out
before the stop rule fired, 1 on usage or I/O errors.
"""

import argparse
import dataclasses
import math
import re
import sys
from functools import partial

from .decomposition import OverlapLayout
from .models import (
    ChanVese,
    HessianL1,
    TVL1Deblur,
    energy,
    salt_pepper,
    stencil_of,
    threshold_half,
)
from .operators import BlurKernel, blur
from .pgmio import load_pgm, save_pgm
from .solvers import (MetricsRow, check_tol, default_inner, reference_energy,
                      solve_dd, solve_single)

MODELS = {"ccv": ChanVese, "tvl1": TVL1Deblur, "hessl1": HessianL1}

CSV_FIELDS = [f.name for f in dataclasses.fields(MetricsRow)]
CSV_HEADER = ",".join(CSV_FIELDS)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the harness reserves 2 for budget
    exhaustion, so usage errors exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fmt(value, spec=".17g"):
    if value is None:
        return ""
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return format(value, spec)


def write_metrics(rows, path):
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in rows:
            cells = [_fmt(getattr(r, name), ".6f" if name == "elapsed_s" else ".17g")
                     for name in CSV_FIELDS]
            fh.write(",".join(cells) + "\n")


def positive_int(text):
    """argparse type for counts and budgets: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _parse_subdomains(text):
    m = re.fullmatch(r"(\d+)x(\d+)", text)
    if not m:
        raise ValueError(f"--subdomains expects PxQ (e.g. 4x4), got {text!r}")
    p, q = int(m.group(1)), int(m.group(2))
    if p < 1 or q < 1:
        raise ValueError("subdomain counts must be >= 1")
    return p, q


def _build_model(args, f):
    alpha = args.alpha if args.alpha is not None else MODELS[args.model].defaults.alpha
    if args.model == "ccv":
        return ChanVese(f, alpha=alpha, c1=args.c1, c2=args.c2)
    if args.model == "tvl1":
        if args.kernel_halfwidth is None:
            raise ValueError("tvl1 needs --kernel-halfwidth")
        return TVL1Deblur(f, alpha=alpha, kernel=BlurKernel(args.kernel_halfwidth))
    return HessianL1(f, alpha=alpha)


def _mask_path(output):
    if output.endswith(".pgm"):
        return output[:-4] + ".mask.pgm"
    return output + ".mask.pgm"


def cmd_corrupt(args):
    u = load_pgm(args.input)
    if args.kernel_halfwidth is not None:
        u = blur(u, BlurKernel(args.kernel_halfwidth))
    if args.noise_sp is not None:
        u = salt_pepper(u, args.noise_sp, args.seed)
    save_pgm(u, args.output)
    return 0


def cmd_solve(args):
    f = load_pgm(args.input)
    ground_truth = load_pgm(args.ground_truth) if args.ground_truth else None
    model = _build_model(args, f)
    p, q = _parse_subdomains(args.subdomains)
    tol = args.tol if args.tol is not None else model.defaults.tol
    check_tol(tol)
    e_star = args.reference_energy
    if e_star is not None and not math.isfinite(e_star):
        raise ValueError(f"--reference-energy must be finite, got {e_star!r}")

    # every input is checked before the (possibly long) reference run
    if p * q == 1:
        for flag, value in (("--eta", args.eta), ("--inner-iters", args.inner_iters)):
            if value is not None:
                raise ValueError(f"{flag} is for decomposed runs, not --subdomains 1x1")
        run = partial(solve_single, model, tol, args.max_outer or 50_000)
    else:
        eta = args.eta if args.eta is not None else model.defaults.eta
        layout = OverlapLayout.from_grid(f.shape, p, q, stencil_of(model))
        inner_prm = default_inner(
            model, eta, iters=args.inner_iters or model.defaults.inner_iters)
        run = partial(solve_dd, model, layout, eta, inner_prm, tol,
                      args.max_outer or 500, workers=args.workers)

    if e_star is None and args.compute_reference_iters is not None:
        e_star = reference_energy(model, args.compute_reference_iters)
    result = run(e_star=e_star, ground_truth=ground_truth,
                 timing=not args.no_timing)

    if args.output:
        save_pgm(result.u, args.output)
        if args.model == "ccv":
            save_pgm(threshold_half(result.u), _mask_path(args.output))
    if args.metrics:
        write_metrics(result.rows, args.metrics)
    return 0 if result.converged else 2


def cmd_energy(args):
    u = load_pgm(args.input)
    model = _build_model(args, u)
    print(_fmt(energy(model, u)))
    return 0


def build_parser():
    parser = _Parser(prog="ddimaging",
                     description="Domain-decomposed variational imaging solvers")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_flags(sp):
        sp.add_argument("--model", choices=tuple(MODELS),
                        required=True, help="variational model")
        sp.add_argument("--alpha", type=float, default=None,
                        help="fidelity weight (default: 10/10/1 by model)")
        sp.add_argument("--c1", type=float, default=0.6,
                        help="foreground region value (ccv)")
        sp.add_argument("--c2", type=float, default=0.1,
                        help="background region value (ccv)")
        sp.add_argument("--kernel-halfwidth", type=int, default=None,
                        help="uniform blur halfwidth l, kernel side 2l+1 (tvl1)")

    sp = sub.add_parser("corrupt", help="blur and/or add salt-and-pepper noise")
    sp.add_argument("--input", required=True)
    sp.add_argument("--output", required=True)
    sp.add_argument("--kernel-halfwidth", type=int, default=None)
    sp.add_argument("--noise-sp", type=float, default=None,
                    help="salt-and-pepper corruption probability")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_corrupt)

    sp = sub.add_parser("solve", help="run a solver")
    add_model_flags(sp)
    sp.add_argument("--input", required=True)
    sp.add_argument("--ground-truth", default=None,
                    help="clean image for PSNR reporting")
    sp.add_argument("--output", default=None, help="result image path")
    sp.add_argument("--metrics", default=None, help="per-iteration CSV path")
    sp.add_argument("--subdomains", default="1x1",
                    help="PxQ subdomain grid (1x1 runs the whole-image baseline)")
    sp.add_argument("--eta", type=float, default=None,
                    help="coupling weight (default 1/10/20 by model; not for 1x1)")
    sp.add_argument("--tol", type=float, default=None,
                    help="stop tolerance (default 1e-4 ccv, 1e-3 otherwise)")
    sp.add_argument("--max-outer", type=positive_int, default=None,
                    help="iteration budget (outer steps, or baseline iterations for 1x1)")
    sp.add_argument("--inner-iters", type=positive_int, default=None,
                    help="inner iterations per outer step (default 10 ccv, 50 otherwise)")
    sp.add_argument("--workers", type=positive_int, default=1,
                    help="thread count for local solves (results identical for any count)")
    sp.add_argument("--reference-energy", type=float, default=None,
                    help="known minimum energy for the rel_gap column")
    sp.add_argument("--compute-reference-iters", type=positive_int, default=None,
                    help="compute the reference energy with this many baseline iterations")
    sp.add_argument("--no-timing", action="store_true",
                    help="leave elapsed_s empty so metrics files are bit-reproducible")
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("energy", help="print the model energy of an image")
    add_model_flags(sp)
    sp.add_argument("--input", required=True)
    sp.set_defaults(func=cmd_energy)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        # argparse exits on usage errors and --help; keep main() returning
        # instead of raising so the code is a plain value in either case
        return exc.code if isinstance(exc.code, int) else 1
    except (OSError, ValueError) as exc:
        print(f"ddimaging: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
