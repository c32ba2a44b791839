"""Rectangular partitions, enlarged subdomains, and the consensus projection.

The image grid is split into a P x Q grid of disjoint rectangular tiles.
Each tile is enlarged to its essential domain, the minimal pixel set whose
values determine the model integrand on the tile, which the model's
operators alone decide.  A Stencil holds them, one (op, adjoint, args) per
dual block, and the enlargement of a mask is the mask plus every pixel that
some block's adjoint reaches from a dual that is NaN on the mask and 0.0
elsewhere.  NaN survives every sum and scaling, so these are exactly the
pixels the operator couples to the mask, whatever the dual's values.  A
block's operator must therefore be linear and built from sums and scalings
of its input, as every one in ddimaging.operators is.

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

from dataclasses import dataclass

import numpy as np

from . import operators
from .fields import check_count


# ---------------------------------------------------------------------------
# stencils
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Stencil:
    """The operators of a model's dual blocks: one (op, adjoint, args) each.

    op and adjoint name functions of ddimaging.operators, applied as
    op(u, *args), and None is the identity (see models.Block); two stencils
    are equal when they name the same operators with equal arguments.
    """

    blocks: tuple


def _apply(name, x, args):
    return x if name is None else getattr(operators, name)(x, *args)


def essential_domain(mask, stencil):
    """The mask plus every pixel that some block's adjoint reaches from it.

    Each block's dual, the mask's shape plus the channel axes that K gives
    a one-pixel image, is NaN on the mask, in every channel, and 0.0
    elsewhere; the pixels where its adjoint is NaN are the block's
    footprint (see the module docstring).
    """
    mask = np.asarray(mask, dtype=bool)
    out = mask.copy()
    for op, adjoint, args in stencil.blocks:
        y = np.zeros(mask.shape + _apply(op, np.zeros((1, 1)), args).shape[2:])
        y[mask] = np.nan
        out |= np.isnan(_apply(adjoint, y, args))
    return out


def _reach(stencil, side):
    """How far the enlargement of a pixel reaches, in Chebyshev distance.

    Probes the centre pixel of a grid c pixels wider on every side, with c
    from 8 doubling while the enlargement touches the grid's edge, up to
    `side`, the image's larger side: a reach that long takes in the whole
    image whatever the operator's width.
    """
    c = 8
    while True:
        centre = np.zeros((2 * c + 1, 2 * c + 1), dtype=bool)
        centre[c, c] = True
        i, j = np.nonzero(essential_domain(centre, stencil))
        r = int(max(np.abs(i - c).max(), np.abs(j - c).max()))
        if r < c or c >= side:
            return r
        c = min(2 * c, side)


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

    Each tile is enlarged (see essential_domain) on its box, the tile grown
    by the stencil's reach (see _reach) and clipped to the grid: the
    enlargement stops short of the box's edges inside the grid and meets
    the image's edges where the box does.  So it depends only on the box's
    shape and the tile's place in it, and is computed once for each
    distinct pair.

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
        for tile in tiles:
            i0, i1, j0, j1 = tile
            if not (0 <= i0 < i1 <= m and 0 <= j0 < j1 <= n):
                raise ValueError(f"tile {tile} is empty or leaves the {m}x{n} grid")
            cover[i0:i1, j0:j1] += 1
        if cover.min() < 1:
            raise ValueError("tiles do not cover the grid")
        if cover.max() > 1:
            raise ValueError("tiles overlap")
        r = _reach(stencil, max(m, n))
        by_box = {}
        patches = []
        for i0, i1, j0, j1 in tiles:
            a0, b0 = max(i0 - r, 0), max(j0 - r, 0)
            box = (min(i1 + r, m) - a0, min(j1 + r, n) - b0,
                   i0 - a0, i1 - a0, j0 - b0, j1 - b0)
            if box not in by_box:
                core = np.zeros(box[:2], dtype=bool)
                core[box[2]:box[3], box[4]:box[5]] = True
                tilde = essential_domain(core, stencil)
                i, j = np.nonzero(tilde)
                trim = np.s_[i.min():i.max() + 1, j.min():j.max() + 1]
                by_box[box] = i.min(), j.min(), core[trim], tilde[trim]
            di, dj, core, tilde = by_box[box]
            patches.append((a0 + di, b0 + dj, core, tilde))
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
