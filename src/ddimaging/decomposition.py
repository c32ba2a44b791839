"""Rectangular partitions, enlarged subdomains, and the consensus projection.

The image grid is split into a P x Q grid of disjoint rectangular tiles.
Each tile is enlarged to the minimal pixel set whose values determine the
model integrand on the tile; the enlargement rule is a Stencil, one of

* forward1: the tile plus its one-pixel forward (down and right) shifts,
* band(l):  all pixels within Chebyshev distance l of the tile,
* backfwd:  the reads of second differences (backward of forward) at the
  tile, a plus shape with the two anti-diagonal corners in the interior.

Subdomain s lives on its window, the bounding box of its enlarged mask, and
so do its tile and enlarged masks.  A packed field is a 1-D float64 vector
holding one copy of each window, back to back in ascending subdomain order;
OverlapLayout.view(x, s) is window s as a 2-D view, and entries outside the
enlarged mask are identically zero.  The consensus projection replaces every
copy of a shared pixel by the mean over the subdomains whose enlarged mask
contains it, which is the orthogonal projection onto the subspace of copies
that agree on overlaps: restrict_global(stack_sum(x, layout) / layout.counts,
layout).  Per-pixel sums always run over ascending subdomain index in a
single pass, so results are reproducible bit for bit regardless of how local
work is scheduled.
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

    Attributes
    ----------
    shape : (M, N)
    tiles : list of half-open boxes, row-major
    windows : list of (row slice, column slice)
        The bounding box of each enlarged mask.
    core, tilde : list of bool arrays, each of its window's shape
        Tile masks and their stencil enlargements, on their windows.
    offsets : list of S + 1 ints
        Where each window starts in a packed field; offsets[-1] is its size.
    counts : (M, N) float64
        How many enlarged masks contain each pixel (>= 1 everywhere).
    interface : (M, N) bool
        Pixels contained in two or more enlarged masks.
    """

    def __init__(self, shape, tiles, stencil):
        m, n = shape
        cover = np.zeros((m, n), dtype=np.intp)
        self.counts = np.zeros((m, n))
        self.core, self.tilde, self.windows, self.offsets = [], [], [], [0]
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
            win = np.s_[a0 + i.min():a0 + i.max() + 1, b0 + j.min():b0 + j.max() + 1]
            self.core.append(core[trim])
            self.tilde.append(grown[trim])
            self.counts[win] += self.tilde[-1]
            self.windows.append(win)
            self.offsets.append(self.offsets[-1] + self.tilde[-1].size)
        if cover.min() < 1:
            raise ValueError("tiles do not cover the grid")
        if cover.max() > 1:
            raise ValueError("tiles overlap")
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

    def view(self, packed, s):
        """Window s of a packed field, as a 2-D view."""
        return packed[self.offsets[s]:self.offsets[s + 1]].reshape(self.tilde[s].shape)


def restrict_global(u, layout):
    """Pack a global field into per-subdomain copies on the enlarged masks."""
    u = np.asarray(u, dtype=np.float64)
    return np.concatenate([(u[w] * t).ravel()
                           for w, t in zip(layout.windows, layout.tilde)])


def stack_sum(packed, layout):
    """Ascending-index single-pass sum of the per-subdomain copies."""
    total = np.zeros(layout.shape, dtype=np.float64)
    for s, w in enumerate(layout.windows):
        total[w] += layout.view(packed, s)
    return total


def consensus_norm_sq(avg, layout):
    """Squared packed norm of the consistent field with average avg."""
    return float(np.sum(avg * avg * layout.counts))
