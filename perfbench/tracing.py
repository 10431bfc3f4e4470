"""Spans recorded around elastovb's layers, from outside the program.

Each layer is timed by replacing the public name its caller looks up with a
wrapper that opens a span (name, start, end, parent, pipeline) on an in-memory
recorder.  Counts that explain a layer's work (iterations, bytes, failures) are
attached to the span at the same boundary.  Nothing inside `src/` changes;
`patched()` restores every original name on exit.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager


class SpanRecorder:
    """Spans kept in memory as [id, parent, name, start, end, pipeline, attrs]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.pipeline = 0

    def start(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([sid, parent, name, time.perf_counter(), None, self.pipeline, None])
        self._stack.append(sid)
        return sid

    def end(self, sid: int, attrs: dict | None = None) -> None:
        span = self.spans[sid]
        span[4] = time.perf_counter()
        span[6] = attrs
        self._stack.pop()

    def to_json(self) -> list[dict]:
        keys = ("id", "parent", "name", "start", "end", "pipeline", "attrs")
        return [dict(zip(keys, s)) for s in self.spans]


def _mu_attrs(args, kwargs, result) -> dict:
    return {"accepted": sum(1 for r in result.reports if r.accepted),
            "halvings": sum(r.halvings for r in result.reports),
            "budget_exhausted": int(result.budget_exhausted)}


def _stiefel_attrs(args, kwargs, result) -> dict:
    ev = args[1] if len(args) > 1 else kwargs["ev"]
    d_y, d_psi = ev.G.shape
    _, trace = result
    # A = G^T G is re-formed on every call
    return {"iterations": max(len(trace) - 1, 0), "gram_flops": 2 * d_y * d_psi * d_psi}


def _adjoint_attrs(args, kwargs, result) -> dict:
    mesh = args[0]
    d_y = len(args[3] if len(args) > 3 else kwargs["Q"])
    # the dense (n_elems, 8, d_y) float64 temporary of the einsum contraction
    return {"bytes": mesh.n_elems * 8 * d_y * 8}


# (module or module.Class, attribute looked up by the caller, span name, attrs)
LAYER_HOOKS = [
    ("elastovb.config", "load_config", "config.load_config", None),
    ("elastovb.config", "generate_data", "config.generate_data", None),
    ("elastovb.config", "build_model", "config.build_model", None),
    ("elastovb.cli", "driver_run", "driver.run", None),
    ("elastovb.driver", "update_mu", "mean_update.update_mu", _mu_attrs),
    ("elastovb.mean_update", "gauss_newton_step", "mean_update.gn_step", None),
    ("elastovb.driver", "optimize_W", "stiefel.optimize_W", _stiefel_attrs),
    ("elastovb.driver", "q_fixed_point", "vb.q_fixed_point", None),
    ("elastovb.driver", "elbo", "vb.elbo", None),
    ("elastovb.cli", "run_is", "importance.run_is", None),
    ("elastovb.cli", "compare_vb_is", "importance.compare_vb_is", None),
    ("elastovb.forward.ForwardModel", "evaluate", "forward.evaluate", None),
    ("elastovb.forward", "_solve_reduced", "mesh_fem.solve", None),
    ("elastovb.forward", "adjoint_jacobian", "mesh_fem.adjoint", _adjoint_attrs),
]


def _resolve(target: str):
    try:
        return importlib.import_module(target)
    except ModuleNotFoundError:
        module, _, cls = target.rpartition(".")
        return getattr(importlib.import_module(module), cls)


def _traced(rec: SpanRecorder, name: str, fn, attrs_fn):
    def wrapper(*args, **kwargs):
        sid = rec.start(name)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            rec.end(sid, {"error": type(exc).__name__})
            raise
        rec.end(sid, attrs_fn(args, kwargs, result) if attrs_fn else None)
        return result
    return wrapper


class ForwardTally:
    """Forward evaluations attempted and raising, counted without timing them."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0


def _tallied(tally: ForwardTally, fn, error_type):
    def wrapper(*args, **kwargs):
        tally.attempted += 1
        try:
            return fn(*args, **kwargs)
        except error_type:
            tally.failed += 1
            raise
    return wrapper


@contextmanager
def patched(rec: SpanRecorder | None, tally: ForwardTally):
    """Install the layer wrappers (rec given) or only the forward tally."""
    import elastovb.forward as fwd

    originals = []
    try:
        if rec is not None:
            for target, attr, name, attrs_fn in LAYER_HOOKS:
                owner = _resolve(target)
                fn = getattr(owner, attr)
                originals.append((owner, attr, fn))
                setattr(owner, attr, _traced(rec, name, fn, attrs_fn))
        fn = fwd.ForwardModel.evaluate
        originals.append((fwd.ForwardModel, "evaluate", fn))
        fwd.ForwardModel.evaluate = _tallied(tally, fn, fwd.ForwardSolveError)
        yield
    finally:
        for owner, attr, fn in reversed(originals):
            setattr(owner, attr, fn)


def span_cost_s(n: int = 20000) -> float:
    """Cost of one wrapped call with an empty body, minus the bare call."""
    def noop():
        return None

    rec = SpanRecorder()
    wrapped = _traced(rec, "noop", noop, None)
    t0 = time.perf_counter()
    for _ in range(n):
        noop()
    bare = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(n):
        wrapped()
    return max((time.perf_counter() - t0 - bare) / n, 0.0)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    `spans` may be any slice of a recorder's list that holds whole trees.
    """
    pos = {s[0]: i for i, s in enumerate(spans)}
    out = [s[4] - s[3] for s in spans]
    for s in spans:
        if s[1] >= 0:
            out[pos[s[1]]] -= s[4] - s[3]
    return out


def root_names(spans: list[list]) -> list[str]:
    """Name of the outermost span above each span (parents precede children)."""
    pos = {s[0]: i for i, s in enumerate(spans)}
    roots: list[str] = []
    for s in spans:
        roots.append(s[2] if s[1] < 0 else roots[pos[s[1]]])
    return roots
