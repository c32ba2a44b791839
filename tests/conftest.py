import tempfile
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from ddimaging.models import Block, Defaults, Saddle


def pytest_configure(config):
    # The property tests run with database=None, but hypothesis also caches
    # the literals of local source files in its home directory, from
    # collection on: keep that in a directory removed when the run ends.
    home = tempfile.TemporaryDirectory(prefix="hypothesis-")
    config.add_cleanup(home.cleanup)
    set_hypothesis_home_dir(home.name)


def camera_scene(m=128, n=128):
    """Deterministic piecewise-smooth test image in [0,1], (m, n).

    A light sky with a mild vertical ramp over a darker ground, two blocky
    buildings on the horizon, and a dark figure (head, torso, arm, camera
    box, three thin tripod legs).  Values are chosen so that with c1=0.6,
    c2=0.1 the figure is the c2 phase and everything else the c1 phase.
    """
    i = np.arange(m, dtype=np.float64)[:, None]
    j = np.arange(n, dtype=np.float64)[None, :]
    y = i / (m - 1.0)
    x = j / (n - 1.0)
    u = 0.74 + 0.08 * y + np.zeros_like(x)
    ground = y >= 0.62
    u = np.where(ground, 0.44 + 0.05 * x, u)
    b1 = (y >= 0.50) & (y < 0.62) & (x >= 0.04) & (x < 0.16)
    b2 = (y >= 0.54) & (y < 0.62) & (x >= 0.80) & (x < 0.93)
    u = np.where(b1, 0.58, u)
    u = np.where(b2, 0.63, u)
    head = ((y - 0.22) ** 2 + ((x - 0.42) * n / m) ** 2) <= 0.065 ** 2
    torso = (((y - 0.42) / 0.16) ** 2 + (((x - 0.42) * n / m) / 0.09) ** 2) <= 1.0
    arm = (y >= 0.30) & (y < 0.36) & (x >= 0.42) & (x < 0.58)
    cam = (y >= 0.24) & (y < 0.34) & (x >= 0.55) & (x < 0.64)
    u = np.where(head | torso | arm, 0.10, u)
    u = np.where(cam, 0.16, u)
    for x0, x1 in ((0.44, 0.34), (0.50, 0.50), (0.56, 0.66)):
        t = np.clip((y - 0.56) / 0.26, 0.0, 1.0)
        xc = x0 + (x1 - x0) * t
        leg = (y >= 0.56) & (y < 0.82) & (np.abs(x - xc) < 0.9 / n)
        u = np.where(leg, 0.12, u)
    return np.ascontiguousarray(u)


def blob_scene(m=32, n=32):
    """Small binary-ish scene: bright disk plus bar on a dark background."""
    i = np.arange(m, dtype=np.float64)[:, None]
    j = np.arange(n, dtype=np.float64)[None, :]
    u = np.full((m, n), 0.15)
    disk = (i - 0.38 * m) ** 2 + (j - 0.40 * n) ** 2 <= (0.22 * m) ** 2
    bar = (np.abs(i - 0.70 * m) < 0.08 * m) & (j > 0.25 * n) & (j < 0.90 * n)
    u[disk | bar] = 0.85
    return u


def signed_zeros(rng, shape, zeros):
    """Random entries over magnitudes 1e-8 to 1e8, about a share `zeros` of
    them +0.0 or -0.0, so that neighbours hold every pair of signed zeros."""
    x = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, shape)
    at = rng.random(shape) < zeros
    x[at] = np.where(rng.random(shape) < 0.5, 0.0, -0.0)[at]
    return x


@dataclass(frozen=True, eq=False)
class BackwardTVDenoise:
    """alpha*||u - f||_1 + ||grad_minus u||_1: its TV block names operators
    that neither the models nor the solvers module imports."""

    f: np.ndarray
    alpha: float = 1.0

    defaults = Defaults(eta=10.0, tol=1e-3, inner_iters=5)

    @cached_property
    def saddle(self):
        data = Block(None, None, self.alpha, shift=self.f)
        tv = Block("grad_minus", "adjoint_grad_minus", 1.0)
        return Saddle(blocks=(data, tv), bound=9.0)


def on_grid(layout, s, a):
    """Window array a of subdomain s placed on an all-zero (M, N) grid.

    a is a mask (layout.core[s], layout.tilde[s]) or a field on the window
    (x[s] of a packed field x); trailing channel axes are kept.
    """
    out = np.zeros(layout.shape + a.shape[2:], dtype=a.dtype)
    out[layout.windows[s]] = a
    return out


@pytest.fixture(scope="session")
def scene128():
    return camera_scene(128, 128)


@pytest.fixture(scope="session")
def blob32():
    return blob_scene(32, 32)
