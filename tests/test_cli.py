import math
import subprocess
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ddimaging import cli
from ddimaging.cli import CSV_HEADER, main, write_metrics
from ddimaging.models import (TV, Block, ChanVese, Defaults, Saddle, salt_pepper,
                              threshold_half)
from ddimaging.operators import BlurKernel, blur
from ddimaging.models import energy
from ddimaging.pgmio import load_pgm, save_pgm
from ddimaging.solvers import MetricsRow

from conftest import blob_scene


def _write_scene(tmp_path, name="scene.pgm", shape=(24, 24)):
    u = blob_scene(*shape)
    path = tmp_path / name
    save_pgm(u, path, maxval=65535)
    return path, load_pgm(path)


# ---------------------------------------------------------------------------
# corrupt
# ---------------------------------------------------------------------------


def test_corrupt_blur_matches_library(tmp_path):
    src, u = _write_scene(tmp_path)
    out = tmp_path / "blurred.pgm"
    code = main(["corrupt", "--input", str(src), "--output", str(out),
                 "--kernel-halfwidth", "2"])
    assert code == 0
    got = load_pgm(out)
    want = blur(u, BlurKernel(2))
    assert np.abs(got - want).max() <= 0.5 / 255.0 + 1e-12


def test_corrupt_noise_is_seed_reproducible(tmp_path):
    src, u = _write_scene(tmp_path)
    a = tmp_path / "a.pgm"
    b = tmp_path / "b.pgm"
    for out in (a, b):
        code = main(["corrupt", "--input", str(src), "--output", str(out),
                     "--noise-sp", "0.3", "--seed", "9"])
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    got = load_pgm(a)
    want = salt_pepper(u, 0.3, 9)
    assert np.abs(got - want).max() <= 0.5 / 255.0 + 1e-12


def test_corrupt_without_options_is_quantized_copy(tmp_path):
    src, u = _write_scene(tmp_path)
    out = tmp_path / "copy.pgm"
    assert main(["corrupt", "--input", str(src), "--output", str(out)]) == 0
    assert np.abs(load_pgm(out) - u).max() <= 0.5 / 255.0 + 1e-12


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def test_solve_ccv_single_domain(tmp_path):
    src, u = _write_scene(tmp_path)
    out = tmp_path / "seg.pgm"
    csv = tmp_path / "metrics.csv"
    code = main(["solve", "--model", "ccv", "--alpha", "10",
                 "--input", str(src), "--output", str(out),
                 "--metrics", str(csv), "--ground-truth", str(src)])
    assert code == 0
    lines = csv.read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) >= 2
    first = lines[1].split(",")
    assert first[0] == "1"
    assert first[2] == ""          # no reference energy -> empty rel_gap
    assert first[3] == "0"         # single domain: zero consensus residual
    assert first[4] == ""          # no d_n without a coupling weight
    assert float(first[5]) > 0.0   # psnr vs supplied ground truth
    assert float(first[6]) >= 0.0
    mask = load_pgm(tmp_path / "seg.mask.pgm")
    assert np.isin(mask, (0.0, 1.0)).all()
    got = load_pgm(out)
    assert np.array_equal(threshold_half(got), mask)


def test_solve_decomposed_and_reference_gap(tmp_path):
    src, u = _write_scene(tmp_path)
    out = tmp_path / "dd.pgm"
    csv = tmp_path / "dd.csv"
    code = main(["solve", "--model", "ccv", "--alpha", "10",
                 "--input", str(src), "--subdomains", "2x2",
                 "--output", str(out), "--metrics", str(csv),
                 "--compute-reference-iters", "3000", "--no-timing"])
    assert code == 0
    lines = csv.read_text().strip().split("\n")
    last = lines[-1].split(",")
    assert last[2] != ""                  # rel_gap present
    assert abs(float(last[2])) <= 1e-2
    assert last[4] != ""                  # d_n recorded for the dd path
    assert last[6] == ""                  # --no-timing leaves elapsed empty
    model = ChanVese(f=u, alpha=10.0, c1=0.6, c2=0.1)
    e_out = energy(model, load_pgm(out))
    assert math.isfinite(e_out)


def test_solve_budget_exhaustion_exit_code(tmp_path):
    src, _ = _write_scene(tmp_path)
    code = main(["solve", "--model", "ccv", "--alpha", "10",
                 "--input", str(src), "--tol", "1e-12",
                 "--max-outer", "2", "--subdomains", "2x2"])
    assert code == 2


def test_solve_deterministic_across_workers(tmp_path):
    src, _ = _write_scene(tmp_path)
    outputs = []
    for tag, workers in (("w1", "1"), ("w4", "4")):
        out = tmp_path / f"{tag}.pgm"
        csv = tmp_path / f"{tag}.csv"
        code = main(["solve", "--model", "ccv", "--alpha", "10",
                     "--input", str(src), "--subdomains", "2x2",
                     "--workers", workers, "--output", str(out),
                     "--metrics", str(csv), "--no-timing",
                     "--max-outer", "40", "--tol", "1e-4"])
        assert code == 0
        outputs.append((out.read_bytes(), csv.read_bytes(),
                        (tmp_path / f"{tag}.mask.pgm").read_bytes()))
    assert outputs[0] == outputs[1]


def test_solve_tvl1_needs_kernel(tmp_path, capsys):
    src, _ = _write_scene(tmp_path)
    for command in ("solve", "energy"):
        capsys.readouterr()
        code = main([command, "--model", "tvl1", "--input", str(src)])
        assert code == 1, command
        assert "--model tvl1 needs --kernel-halfwidth" in capsys.readouterr().err


def test_flags_of_other_models_are_usage_errors(tmp_path, capsys):
    # a flag whose field the model lacks used to be accepted and ignored
    src, _ = _write_scene(tmp_path, shape=(16, 16))
    for model, flag, value in (("ccv", "--kernel-halfwidth", "1"),
                               ("hessl1", "--kernel-halfwidth", "1"),
                               ("tvl1", "--c1", "0.5"), ("tvl1", "--c2", "0.5"),
                               ("hessl1", "--c1", "0.5"), ("hessl1", "--c2", "0.5")):
        extra = ["--kernel-halfwidth", "1"] if model == "tvl1" else []
        for command in ("solve", "energy"):
            capsys.readouterr()
            code = main([command, "--model", model, "--input", str(src),
                         flag, value] + extra)
            assert code == 1, (command, model, flag)
            err = capsys.readouterr().err
            assert f"{flag} does not apply to --model {model}" in err, err


def test_solve_rejects_bad_subdomains(tmp_path):
    src, _ = _write_scene(tmp_path)
    code = main(["solve", "--model", "ccv", "--input", str(src),
                 "--subdomains", "2by2"])
    assert code == 1


def test_missing_input_is_io_error(tmp_path):
    code = main(["solve", "--model", "ccv",
                 "--input", str(tmp_path / "nope.pgm")])
    assert code == 1


def test_usage_error_exit_code(tmp_path, capsys, monkeypatch):
    def no_reference(model, iters):
        raise AssertionError("reference energy computed before input checks")

    # every case also asks for a long reference run, which must not start
    monkeypatch.setattr(cli, "reference_energy", no_reference)
    assert main(["solve", "--model", "nosuch", "--input", "x.pgm"]) == 1
    assert main([]) == 1
    src, _ = _write_scene(tmp_path)
    truth, _ = _write_scene(tmp_path, "truth.pgm", shape=(20, 24))
    missing = tmp_path / "nosuchdir" / "out.pgm"
    for flags, named in ((["--eta", "inf", "--subdomains", "2x2"], "eta"),
                         # a ground truth of another shape is found before
                         # any solving, not at the first metrics row
                         (["--ground-truth", str(truth), "--subdomains", "2x2"],
                          str(truth)),
                         (["--ground-truth", str(truth)], "20x24"),
                         # decimal integers only: int() reads 1_0 as 10
                         (["--workers", "1_0", "--subdomains", "2x2"], "--workers"),
                         (["--max-outer", "+5"], "--max-outer"),
                         (["--subdomains", "\u0663x\u0663"], "--subdomains"),
                         (["--subdomains", "0x3"], "--subdomains"),
                         (["--model", "tvl1", "--kernel-halfwidth", "1_0",
                           "--subdomains", "2x2"], "--kernel-halfwidth"),
                         (["--tol", "nan"], "tol"),
                         (["--tol", "nan", "--subdomains", "2x2"], "tol"),
                         (["--tol", "0"], "tol"),
                         (["--tol", "-1", "--subdomains", "2x2"], "tol"),
                         (["--alpha", "inf"], "alpha"),
                         (["--c1", "nan"], "c1"),
                         # (f - c1)^2 overflows: the linear term is not finite
                         (["--c1", "1e200", "--c2", "1e199", "--subdomains", "2x2"],
                          "c1"),
                         (["--reference-energy", "nan"], "--reference-energy"),
                         (["--reference-energy", "-inf", "--subdomains", "2x2"],
                          "--reference-energy"),
                         # a given reference energy and one to compute
                         (["--reference-energy", "1.0"],
                          "--reference-energy and --compute-reference-iters"),
                         (["--inner-iters", "0", "--subdomains", "2x2"], "iters"),
                         (["--subdomains", "30x30"], "30x30"),
                         (["--workers", "0", "--subdomains", "2x2"], "--workers"),
                         (["--max-outer", "0", "--subdomains", "2x2"], "--max-outer"),
                         (["--max-outer", "-3"], "--max-outer"),
                         (["--compute-reference-iters", "0"],
                          "--compute-reference-iters"),
                         # the whole-image baseline has no coupling weight
                         # and no inner solves
                         (["--eta", "inf"], "--eta"),
                         (["--eta", "1", "--subdomains", "1x1"], "--eta"),
                         (["--inner-iters", "0"], "--inner-iters"),
                         (["--inner-iters", "5"], "--inner-iters"),
                         (["--workers", "4"], "--workers"),
                         # a missing output directory is found before the
                         # solve, not when the result is written
                         (["--output", str(missing), "--subdomains", "2x2"],
                          str(missing)),
                         (["--metrics", str(missing), "--subdomains", "2x2"],
                          str(missing))):
        capsys.readouterr()
        code = main(["solve", "--model", "ccv", "--input", str(src),
                     "--compute-reference-iters", "20000"] + flags)
        assert code == 1, flags
        assert named in capsys.readouterr().err, flags
    code = main(["energy", "--model", "ccv", "--c1", "1e200", "--c2", "1e199",
                 "--input", str(src)])
    assert code == 1
    assert "c1" in capsys.readouterr().err
    code = main(["corrupt", "--input", str(src), "--output", str(tmp_path / "n.pgm"),
                 "--noise-sp", "0.1", "--seed", "-1"])
    assert code == 1
    assert "--seed" in capsys.readouterr().err


def test_unreadable_pgm_is_an_error_not_a_traceback(tmp_path, capsys):
    # a P2 sample beyond the int64 range used to escape as OverflowError
    src = tmp_path / "huge.pgm"
    src.write_text("P2\n2 2\n3\n1 2 3 100000000000000000000000\n")
    code = main(["energy", "--model", "hessl1", "--input", str(src)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("ddimaging: error: ") and str(src) in err
    assert "Traceback" not in err


def test_non_finite_energy_exit_code(tmp_path, capsys):
    # alpha = 1e308 keeps the iterates finite but overflows the energy
    src, _ = _write_scene(tmp_path, shape=(16, 16))
    for model, flags in (("tvl1", ["--kernel-halfwidth", "1"]), ("hessl1", [])):
        for grid, step in (("2x2", "outer step 1"), ("1x1", "iteration 1")):
            out = tmp_path / f"{model}-{grid}.pgm"
            capsys.readouterr()
            code = main(["solve", "--model", model, "--alpha", "1e308",
                         "--input", str(src), "--subdomains", grid,
                         "--output", str(out)] + flags)
            assert code == 3, (model, grid)
            err = capsys.readouterr().err
            assert err.startswith("ddimaging: error: the energy at " + step), err
            assert not out.exists()


def test_black_image_solves(tmp_path):
    # the stop rule divides by ||f||, with a fallback for an all-zero image
    src = tmp_path / "black.pgm"
    save_pgm(np.zeros((24, 24)), src)
    for model, grid in (("ccv", "2x2"), ("hessl1", "1x1")):
        out = tmp_path / f"{model}.pgm"
        code = main(["solve", "--model", model, "--input", str(src),
                     "--subdomains", grid, "--output", str(out)])
        assert code == 0, model
        assert not load_pgm(out).any(), model


# ---------------------------------------------------------------------------
# energy, metrics formatting, entry point
# ---------------------------------------------------------------------------


def test_energy_prints_value(tmp_path, capsys):
    src, u = _write_scene(tmp_path)
    code = main(["energy", "--model", "hessl1", "--alpha", "2",
                 "--input", str(src)])
    assert code == 0
    printed = float(capsys.readouterr().out.strip())
    from ddimaging.models import HessianL1
    assert abs(printed - energy(HessianL1(f=u, alpha=2.0), u)) <= 1e-10


@dataclass(frozen=True, eq=False)
class _TVL1Denoise:
    """alpha*||u - (f - c1)||_1 + ||grad u||_1, a model the CLI does not ship,
    with a field set (f, alpha, c1) that no shipped model has."""

    f: np.ndarray
    alpha: float = 1.0
    c1: float = 0.0

    defaults = Defaults(eta=10.0, tol=1e-3, inner_iters=50)

    @cached_property
    def saddle(self):
        data = Block(None, None, self.alpha, shift=self.f - self.c1)
        return Saddle(blocks=(data, TV), bound=9.0)


def test_energy_builds_the_named_model(tmp_path, capsys, monkeypatch):
    # a model added to MODELS is the one the CLI builds, from its own fields
    monkeypatch.setitem(cli.MODELS, "tvl1den", _TVL1Denoise)
    src, u = _write_scene(tmp_path)
    for flags, model in (([], _TVL1Denoise(f=u)),
                         (["--alpha", "2", "--c1", "0.25"],
                          _TVL1Denoise(f=u, alpha=2.0, c1=0.25))):
        code = main(["energy", "--model", "tvl1den", "--input", str(src)] + flags)
        assert code == 0, flags
        assert capsys.readouterr().out.strip() == format(energy(model, u), ".17g")
    code = main(["energy", "--model", "tvl1den", "--kernel-halfwidth", "1",
                 "--input", str(src)])
    assert code == 1
    assert "--kernel-halfwidth does not apply to --model tvl1den" in capsys.readouterr().err


def test_write_metrics_rendering(tmp_path):
    rows = [
        MetricsRow(n=1, energy=1.25, rel_gap=None, consensus_residual=0.5,
                   d_n=None, psnr=math.inf, elapsed_s=0.125),
        MetricsRow(n=2, energy=-3.0, rel_gap=1e-17, consensus_residual=0.0,
                   d_n=2.0, psnr=None, elapsed_s=None),
    ]
    path = tmp_path / "m.csv"
    write_metrics(rows, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert CSV_HEADER == "n,energy,rel_gap,consensus_residual,d_n,psnr,elapsed_s"
    assert lines[1] == "1,1.25,,0.5,,inf,0.125000"
    assert lines[2] == "2,-3,1.0000000000000001e-17,0,2,,"


def test_console_entry_point(tmp_path):
    src, _ = _write_scene(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "ddimaging", "energy", "--model", "ccv",
         "--input", str(src)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    float(proc.stdout.strip())
