"""Rectangular partitions, enlarged subdomains, and the consensus projection.

The image grid is split into a P x Q grid of disjoint rectangular tiles.
Each tile is enlarged to the minimal pixel set whose values determine the
model integrand on the tile; the enlargement rule is a Stencil, one of

* forward1: the tile plus its one-pixel forward (down and right) shifts,
* band(l):  all pixels within Chebyshev distance l of the tile,
* backfwd:  the reads of second differences (backward of forward) at the
  tile, a plus shape with the two anti-diagonal corners in the interior.

Every subdomain lives on a window of one shape (H, W) for the whole layout,
and so do its tile and enlarged masks.  A packed field is an (S, H, W)
float64 array whose x[s] is subdomain s's copy on its window, and entries
outside the enlarged mask are identically zero.  The consensus projection
replaces every copy of a shared pixel by the mean over the subdomains whose
enlarged mask contains it, which is the orthogonal projection onto the
subspace of copies that agree on overlaps: restrict_global(stack_sum(x,
layout) / layout.counts, layout).  Per-pixel sums always run over ascending
subdomain index in a single pass, so results are reproducible bit for bit
regardless of how local work is scheduled.
"""

import numbers
from dataclasses import dataclass

import numpy as np

from .fields import check_count


# ---------------------------------------------------------------------------
# stencils
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Stencil:
    """Enlargement rule for a subdomain: kind in {forward1, band, backfwd}."""

    kind: str
    halfwidth: int = 0

    def __post_init__(self):
        if self.kind not in ("forward1", "band", "backfwd"):
            raise ValueError(f"unknown stencil kind {self.kind!r}")
        h = self.halfwidth
        if self.kind == "band":
            check_count("band stencil halfwidth", h)
        elif not isinstance(h, numbers.Integral) or isinstance(h, bool) or h != 0:
            # only a band has a width; another would name no model's layout
            raise ValueError(f"{self.kind} stencil needs halfwidth 0, got {h!r}")
        object.__setattr__(self, "halfwidth", int(h))

    @property
    def reach(self):
        """No enlargement claims pixels farther than this from the mask."""
        return self.halfwidth if self.kind == "band" else 1


def _shifted(mask, di, dj):
    """Shift a boolean mask by (di, dj), filling with False."""
    out = np.zeros_like(mask)
    r0, r1 = max(di, 0), mask.shape[0] + min(di, 0)
    c0, c1 = max(dj, 0), mask.shape[1] + min(dj, 0)
    if r0 < r1 and c0 < c1:
        out[r0:r1, c0:c1] = mask[r0 - di:r1 - di, c0 - dj:c1 - dj]
    return out


def _forward_one(mask):
    return mask | _shifted(mask, 1, 0) | _shifted(mask, 0, 1)


def _backfwd(mask):
    """Reads of the second-difference stencil at the masked pixels.

    In the interior this is the plus shape with the two anti-diagonal
    corners, i.e. the forward-one enlargement of the backward-one
    enlargement.  Backward differences are zero on the first row / column,
    which annihilates the channels read through them, so contributions are
    only collected where the corresponding channel survives; without this
    pruning a tile pinned to the top-left corner would claim neighbors that
    can never reach it.
    """
    below_top = mask.copy()
    below_top[0, :] = False
    right_of_edge = mask.copy()
    right_of_edge[:, 0] = False
    out = mask.copy()
    for di, dj in ((-1, 0), (1, 0), (-1, 1), (0, 1)):
        out |= _shifted(below_top, di, dj)
    for di, dj in ((0, -1), (1, -1), (1, 0), (0, 1)):
        out |= _shifted(right_of_edge, di, dj)
    return out


def essential_domain(mask, stencil):
    """Enlarge a subdomain mask by the given stencil, clipped to the grid."""
    mask = np.asarray(mask, dtype=bool)
    if stencil.kind == "forward1":
        return _forward_one(mask)
    if stencil.kind == "backfwd":
        return _backfwd(mask)
    # separable, like the blur: the column shifts, then the row shifts of
    # those; shifts past the grid's size would claim nothing
    m, n = mask.shape
    rows = mask.copy()
    for d in range(1, min(stencil.halfwidth, n - 1) + 1):
        rows |= _shifted(mask, 0, d) | _shifted(mask, 0, -d)
    out = rows.copy()
    for d in range(1, min(stencil.halfwidth, m - 1) + 1):
        out |= _shifted(rows, d, 0) | _shifted(rows, -d, 0)
    return out


# ---------------------------------------------------------------------------
# partitions and layouts
# ---------------------------------------------------------------------------


def partition_rect(shape, p, q):
    """Split an M x N grid into p x q rectangular tiles.

    Rows (and columns) are divided as evenly as possible with the larger
    bands first, e.g. 5 rows over 2 bands gives heights 3, 2.  Returns the
    tiles in row-major order as half-open index boxes (i0, i1, j0, j1).
    """
    m, n = shape
    check_count("p", p)
    check_count("q", q)
    if not (p <= m and q <= n):
        raise ValueError(f"cannot split {m}x{n} into {p}x{q} nonempty tiles")

    def edges(total, parts):
        base, rem = divmod(total, parts)
        sizes = [base + 1] * rem + [base] * (parts - rem)
        e = [0]
        for sz in sizes:
            e.append(e[-1] + sz)
        return e

    re = edges(m, p)
    ce = edges(n, q)
    return [
        (re[a], re[a + 1], ce[b], ce[b + 1])
        for a in range(p)
        for b in range(q)
    ]


class OverlapLayout:
    """Masks, windows and counts for one overlapping decomposition.

    Every window has the shape (H, W) of the largest bounding box of an
    enlarged mask.  Window s is the bounding box of subdomain s's enlarged
    mask grown or shifted inward to that shape inside the grid: it starts
    at row min(top, M - H) and column min(left, N - W), with (top, left)
    the bounding box's corner.  A local problem posed on its window equals the
    whole-grid problem bit for bit (see solvers._local_saddle).  On the core, K u
    reads only patch pixels, which lie in the bounding box, and the
    operators see the image border exactly where the whole grid does: the
    window lies inside the grid and meets its border wherever the bounding
    box does, a bounding box's last row or column is a core row or column
    only when it is also the image's, and elsewhere the window's border rows
    carry no core pixel, so the core mask removes what the window's Neumann
    edge changes there.  Off the patch, uhat and the duals hold zeros, so
    the iterate stays exactly +0.0 there, and the window's extra cells add
    exact zeros to every sum, the blur's too.  The duals vanish off the
    core, and their adjoints land inside the patch, so the window adds up
    the same nonzero terms in the same order.  A hand-made tiling of very
    unequal tiles pays S*H*W values per packed field.

    Attributes
    ----------
    shape : (M, N)
    tiles : list of half-open boxes, row-major
    windows : list of S (row slice, column slice), each H by W
    core, tilde : (S, H, W) bool
        Tile masks and their stencil enlargements, on their windows.
    counts : (M, N) float64
        How many enlarged masks contain each pixel (>= 1 everywhere).
    interface : (M, N) bool
        Pixels contained in two or more enlarged masks.
    """

    def __init__(self, shape, tiles, stencil):
        m, n = shape
        cover = np.zeros((m, n), dtype=np.intp)
        patches = []
        r = stencil.reach
        for s, (i0, i1, j0, j1) in enumerate(tiles):
            if not (0 <= i0 < i1 <= m and 0 <= j0 < j1 <= n):
                raise ValueError(f"tile {tiles[s]} is empty or leaves the {m}x{n} grid")
            cover[i0:i1, j0:j1] += 1
            a0, b0 = max(i0 - r, 0), max(j0 - r, 0)
            core = np.zeros((min(i1 + r, m) - a0, min(j1 + r, n) - b0), dtype=bool)
            core[i0 - a0:i1 - a0, j0 - b0:j1 - b0] = True
            grown = essential_domain(core, stencil)
            if not (core <= grown).all():
                raise RuntimeError("enlargement lost core pixels")
            i, j = np.nonzero(grown)
            trim = np.s_[i.min():i.max() + 1, j.min():j.max() + 1]
            patches.append((a0 + i.min(), b0 + j.min(), core[trim], grown[trim]))
        if cover.min() < 1:
            raise ValueError("tiles do not cover the grid")
        if cover.max() > 1:
            raise ValueError("tiles overlap")
        h, w = map(max, zip(*(grown.shape for *_, grown in patches)))
        self.core = np.zeros((len(patches), h, w), dtype=bool)
        self.tilde = np.zeros_like(self.core)
        self.counts = np.zeros((m, n))
        self.windows = []
        for s, (top, left, core, grown) in enumerate(patches):
            i0, j0 = min(top, m - h), min(left, n - w)
            self.windows.append(np.s_[i0:i0 + h, j0:j0 + w])
            place = np.s_[top - i0:top - i0 + grown.shape[0],
                          left - j0:left - j0 + grown.shape[1]]
            self.core[s][place], self.tilde[s][place] = core, grown
            self.counts[self.windows[s]] += self.tilde[s]
        self.shape = (m, n)
        self.stencil = stencil
        self.tiles = list(tiles)
        self.interface = self.counts >= 2.0

    @classmethod
    def from_grid(cls, shape, p, q, stencil):
        return cls(shape, partition_rect(shape, p, q), stencil)

    @property
    def count(self):
        return len(self.tiles)


def cut(a, windows):
    """The windows of a global array, stacked on a new leading axis."""
    return np.stack([a[w] for w in windows])


def restrict_global(u, layout):
    """Pack a global field into per-subdomain copies on the enlarged masks."""
    u = np.asarray(u, dtype=np.float64)
    if u.shape != layout.shape:
        raise ValueError(f"cannot restrict shape {u.shape} to a layout of shape {layout.shape}")
    return cut(u, layout.windows) * layout.tilde


def stack_sum(packed, layout):
    """Ascending-index single-pass sum of (S, H, W[, c]) copies: an (M, N[, c]) field."""
    if packed.shape[:3] != layout.core.shape:
        raise ValueError(f"cannot sum shape {packed.shape} on a layout of "
                         f"(S, H, W) {layout.core.shape}")
    total = np.zeros(layout.shape + packed.shape[3:], dtype=np.float64)
    for x, w in zip(packed, layout.windows):
        total[w] += x
    return total


def consensus_norm_sq(avg, layout):
    """Squared packed norm of the consistent field with average avg."""
    return float(np.sum(avg * avg * layout.counts))
