"""Span tracing of the ddimaging layers, installed from outside the package.

Each traced function is replaced, at the name through which the solver
modules look it up (``ddimaging.solvers.blur``, ``DecoupledAlm.step``, ...),
by a wrapper that records one span: name, start, end, parent span and the
work it was handed.  Parents come from a per-thread stack; a span opened on a
thread whose stack is empty (a pool worker) takes the innermost span open on
the installing thread as its parent, so local solves run with ``workers=2``
still nest under the outer step that dispatched them.  Spans stay in memory
until the run writes them out.  A name that no longer exists is recorded as
missing instead of failing the run.
"""

import itertools
import statistics
import threading
import time
from dataclasses import dataclass
from typing import Optional


@dataclass
class Span:
    id: int
    layer: str
    name: str
    start: float
    end: float
    parent: Optional[int]
    px: int = 0
    iters: int = 0

    @property
    def dur(self):
        return self.end - self.start


def pixels(a):
    """Pixel count of an image, vector or tensor field (channels excluded)."""
    shape = getattr(a, "shape", ())
    return shape[0] * shape[1] if len(shape) >= 2 else 0


def last_int(result):
    """Iteration count a local solve returns (the last int in its tuple)."""
    return next((x for x in reversed(result) if isinstance(x, int)), 0)


class Tracer:
    """Patches functions to record spans; ``restore`` undoes every patch."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = self._stack()
        self._patched = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer, name, fn, count_iters):
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main[-1] if self._main else None
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            px = pixels(args[0]) if args else 0
            iters = last_int(result) if count_iters else 0
            self.spans.append(Span(sid, layer, name, start, end, parent, px, iters))
            return result
        return traced

    def patch(self, layer, owner, attr, count_iters=False):
        """Trace ``owner.attr`` (a module function, method or classmethod)."""
        label = f"{getattr(owner, '__name__', owner)}.{attr}"
        raw = vars(owner).get(attr)
        if raw is None:
            self.missing.append(label)
            return
        if isinstance(raw, classmethod):
            new = classmethod(self._wrap(layer, label, raw.__func__, count_iters))
        else:
            new = self._wrap(layer, label, raw, count_iters)
        self._patched.append((owner, attr, raw))
        setattr(owner, attr, new)

    def restore(self):
        for owner, attr, raw in reversed(self._patched):
            setattr(owner, attr, raw)
        self._patched.clear()


def install(ddimaging):
    """Trace every layer boundary the benchmark reports on."""
    solvers, models = ddimaging.solvers, ddimaging.models
    alm = getattr(solvers, "DecoupledAlm", None)
    tracer = Tracer()
    for layer, owner, attrs in (
            ("operators.blur", solvers, ("blur",)),
            ("operators.blur", models, ("blur",)),
            ("operators.grad", solvers, ("grad_plus", "adjoint_grad_plus")),
            ("operators.grad", models, ("grad_plus",)),
            ("operators.hessian", solvers, ("hessian", "adjoint_hessian")),
            ("operators.hessian", models, ("hessian",)),
            ("fields.project_ball", solvers, ("project_ball",)),
            ("decomposition.consensus", solvers, ("stack_sum", "consensus_norm_sq")),
            ("decomposition.layout", ddimaging.OverlapLayout, ("from_grid",)),
            ("models.energy", solvers, ("energy",)),
            ("solvers.step", alm, ("step",)),
            ("solvers.mult_ortho", alm, ("multiplier_consensus_norm",)),
            ("solvers.cp", ddimaging, ("cp_full",))):
        for attr in attrs:
            if owner is None:
                tracer.missing.append(f"DecoupledAlm.{attr}")
            else:
                tracer.patch(layer, owner, attr)
    for attr in ("local_solve_ccv", "local_solve_tvl1", "local_solve_hessl1"):
        tracer.patch("solvers.local", solvers, attr, count_iters=True)
    return tracer


# Which end-to-end metric each per-layer metric should move, and where.
MOVES = {
    "operators.blur": "solve_s/step_ms on tvl1-4x4; nothing elsewhere",
    "operators.grad": "solve_s/step_ms on ccv-8x8 (and tvl1-4x4)",
    "operators.hessian": "solve_s/step_ms on hessl1-full",
    "fields.project_ball": "solve_s on ccv-8x8 and hessl1-full",
    "solvers.local": "step_ms most on ccv-8x8, less on tvl1-4x4, not on hessl1-full",
    "solvers.step.self_s": "step_ms on ccv-8x8",
    "solvers.mult_ortho.s": "step_ms on ccv-8x8",
    "solvers.pool": "solve_s on ccv-8x8 only",
    "solvers.cp.self_s": "solve_s on hessl1-full",
    "decomposition.consensus": "step_ms on ccv-8x8",
    "decomposition.layout.s": "setup_s (ccv-8x8, tvl1-4x4)",
    "decomposition.state_bytes": "peak_rss_mb on ccv-8x8",
    "models.energy": "solve_s on hessl1-full; negligible under solve_dd",
    "micro": "operator cost per pixel; explains step_ms on small windows",
}


def _sum(spans, attr="dur"):
    return sum((getattr(s, attr) for s in spans), 0.0 if attr == "dur" else 0)


def layer_metrics(spans, workers, tile_px):
    """Per-layer figures from the spans of one traced solve.

    ``tile_px`` is the pixel count of one tile, so that
    ``solvers.local.useful_frac`` is tile pixels over processed pixels.
    """
    by_layer = {}
    for s in spans:
        by_layer.setdefault(s.layer, []).append(s)
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    out = {}
    for layer in ("operators.blur", "operators.grad", "operators.hessian",
                  "fields.project_ball"):
        got = by_layer.get(layer, [])
        out[f"{layer}.s"] = _sum(got)
        out[f"{layer}.calls"] = len(got)
        out[f"{layer}.px"] = _sum(got, "px")

    local = by_layer.get("solvers.local", [])
    local_px = sum(s.px * s.iters for s in local)
    local_iters = _sum(local, "iters")
    out["solvers.local.s"] = _sum(local)
    out["solvers.local.calls"] = len(local)
    out["solvers.local.iters"] = local_iters
    out["solvers.local.px"] = local_px
    out["solvers.local.useful_frac"] = tile_px * local_iters / local_px if local_px else 0.0

    step_self = local_wall = busy = 0.0
    skews = []
    for step in by_layer.get("solvers.step", []):
        kids = children.get(step.id, [])
        locs = [k for k in kids if k.layer == "solvers.local"]
        wall = max(k.end for k in locs) - min(k.start for k in locs) if locs else 0.0
        local_wall += wall
        busy += _sum(locs)
        step_self += step.dur - wall - _sum(k for k in kids if k.layer != "solvers.local")
        if locs:
            durs = [k.dur for k in locs]
            skews.append(max(durs) / statistics.median(durs))
    out["solvers.local.skew"] = statistics.median(skews) if skews else 0.0
    out["solvers.step.self_s"] = step_self
    out["solvers.mult_ortho.s"] = _sum(by_layer.get("solvers.mult_ortho", []))
    out["solvers.pool.busy_frac"] = busy / (workers * local_wall) if local_wall else 0.0
    out["solvers.pool.wait_s"] = workers * local_wall - busy if local_wall else 0.0

    out["solvers.cp.self_s"] = sum(
        (c.dur - _sum(children.get(c.id, [])) for c in by_layer.get("solvers.cp", [])), 0.0)
    consensus = by_layer.get("decomposition.consensus", [])
    out["decomposition.consensus.s"] = _sum(consensus)
    out["decomposition.consensus.calls"] = len(consensus)
    out["decomposition.layout.s"] = _sum(by_layer.get("decomposition.layout", []))
    energy = by_layer.get("models.energy", [])
    out["models.energy.s"] = _sum(energy)
    out["models.energy.calls"] = len(energy)
    return out
