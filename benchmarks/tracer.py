"""In-memory span recorder for the femchp benchmark.

The benchmark opens a span around each of its own calls into femchp
(mesh construction, solves, verifiers).  A traced pass additionally wraps
a fixed set of module attributes so that calls made inside femchp become
child spans.  Each span stores its name, start, end and the index of its
parent; a layer's self time is its spans' duration minus the time their
children cover.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute path, span name).  Names that do not exist are
# recorded as absent and left alone, so the traced run survives their
# removal.
WRAP_TARGETS = (
    ("femchp.solver", "assemble_hessian", "solver.assemble_hessian"),
    ("femchp.solver", "residual", "energy.residual"),
    ("femchp.solver", "energy_value", "energy.energy_value"),
    ("femchp.field", "NodalField.element_gradients", "field.element_gradients"),
    ("femchp.convex", "project_point", "convex.project_point"),
    ("femchp.convex", "project_field", "convex.project_field"),
    ("femchp.convex", "finite_hull", "convex.finite_hull"),
    ("femchp.convex", "is_extreme", "convex.is_extreme"),
    ("femchp.verify", "beta_weights", "verify.beta_weights"),
    ("scipy.linalg", "cho_factor", "solver.factor"),
    ("scipy.linalg", "lu_factor", "solver.factor"),
    ("scipy.sparse.linalg", "splu", "solver.factor"),
    ("scipy.sparse.linalg", "factorized", "solver.factor"),
    ("scipy.linalg", "cho_solve", "solver.linsolve"),
    ("scipy.linalg", "lu_solve", "solver.linsolve"),
    ("scipy.sparse.linalg", "spsolve", "solver.linsolve"),
)

LAYERS = ("mesh", "solver", "energy", "field", "convex", "verify")


def _matrix_bytes(H) -> int:
    """Bytes held by a dense or scipy.sparse matrix."""
    if hasattr(H, "nbytes"):
        return int(H.nbytes)
    return sum(int(getattr(H, a).nbytes) for a in ("data", "indices", "indptr")
               if hasattr(H, a))


class Tracer:
    """Records spans with parents; ``install`` wraps the layer entry points."""

    def __init__(self):
        self.names: list = []
        self.start: list = []
        self.end: list = []
        self.parent: list = []
        self.failed: list = []
        self.hessian_bytes_max = 0
        self.absent: list = []
        self.wrapped: set = set()
        self._stack: list = []
        self._restore: list = []

    def _open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self.failed.append(False)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int, failed: bool = False) -> None:
        self.end[i] = time.perf_counter()
        self.failed[i] = failed
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        i = self._open(name)
        try:
            yield
        except BaseException:
            self._close(i, failed=True)
            raise
        self._close(i)

    def _wrap(self, name: str, fn):
        def wrapper(*args, **kwargs):
            i = self._open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self._close(i, failed=True)
                raise
            self._close(i)
            return out
        return wrapper

    def _record_hessian(self, fn):
        def wrapper(*args, **kwargs):
            H = fn(*args, **kwargs)
            self.hessian_bytes_max = max(self.hessian_bytes_max, _matrix_bytes(H))
            return H
        return wrapper

    def install(self) -> None:
        """Wrap every target that exists; remember the originals."""
        for module_name, path, span_name in WRAP_TARGETS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for p in parents:
                owner = getattr(owner, p, None)
            fn = getattr(owner, attr, None)
            if fn is None:
                self.absent.append(f"{module_name}.{path}")
                continue
            # a class attribute is read from __dict__ so the plain function
            # (not a bound method) is wrapped and later restored
            fn = vars(owner)[attr] if isinstance(owner, type) else fn
            wrapped = self._wrap(span_name, fn)
            if span_name == "solver.assemble_hessian":
                wrapped = self._record_hessian(wrapped)
            self._restore.append((owner, attr, fn))
            setattr(owner, attr, wrapped)
            self.wrapped.add(span_name)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, fn = self._restore.pop()
            setattr(owner, attr, fn)

    # -- summaries ---------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, failures, inclusive and self seconds."""
        n = len(self.names)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]
        out = defaultdict(lambda: {"calls": 0, "failures": 0, "total_s": 0.0, "self_s": 0.0})
        for i in range(n):
            row = out[self.names[i]]
            row["calls"] += 1
            row["failures"] += self.failed[i]
            row["total_s"] += dur[i]
            row["self_s"] += dur[i] - child[i]
        return dict(out)

    def top_level(self, prefix: str) -> list:
        """(start, end) of the benchmark's own (parentless) spans under a prefix."""
        return [(self.start[i], self.end[i]) for i in range(len(self.names))
                if self.parent[i] < 0 and self.names[i].startswith(prefix)]

    def top_level_s(self, prefix: str) -> float:
        """Duration of the benchmark's own spans under a prefix."""
        return sum(t1 - t0 for t0, t1 in self.top_level(prefix))

    def to_json(self) -> dict:
        table = sorted(set(self.names))
        index = {name: k for k, name in enumerate(table)}
        t0 = min(self.start, default=0.0)
        return {
            "names": table,
            "name": [index[s] for s in self.names],
            "start_s": [round(t - t0, 9) for t in self.start],
            "end_s": [round(t - t0, 9) for t in self.end],
            "parent": self.parent,
            "absent": self.absent,
        }
