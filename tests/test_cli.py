import math
import subprocess
import sys

import numpy as np

from ddimaging import cli
from ddimaging.cli import CSV_HEADER, main, write_metrics
from ddimaging.models import ChanVese, salt_pepper, threshold_half
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


def test_solve_tvl1_needs_kernel(tmp_path):
    src, _ = _write_scene(tmp_path)
    code = main(["solve", "--model", "tvl1", "--input", str(src)])
    assert code == 1


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
    for flags, named in ((["--eta", "inf", "--subdomains", "2x2"], "eta"),
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
                         (["--inner-iters", "5"], "--inner-iters")):
        capsys.readouterr()
        code = main(["solve", "--model", "ccv", "--input", str(src),
                     "--compute-reference-iters", "20000"] + flags)
        assert code == 1, flags
        assert named in capsys.readouterr().err, flags
    code = main(["energy", "--model", "ccv", "--c1", "1e200", "--c2", "1e199",
                 "--input", str(src)])
    assert code == 1
    assert "c1" in capsys.readouterr().err


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
