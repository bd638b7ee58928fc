"""In-memory span recorder that wraps quathw's public functions from outside.

The package itself carries no tracing hooks.  ``Tracer.install`` replaces
every public function of the traced layers with a timing wrapper, in every
``quathw`` module namespace that binds it by name (``hw`` imports
``standard_eigenvalues`` from ``qmatrix``, ``cli`` imports from ``hw``,
``qpoly`` and ``matio``, and so on), so calls are recorded whichever module
they go through.  ``uninstall`` puts the originals back.

A span is ``[name, start_ns, end_ns, parent, op_id, size]``: ``parent`` is
the index of the enclosing span or -1, ``op_id`` the benchmark operation it
belongs to, and ``size`` an optional argument size.  Spans stay in memory;
``LayerStats`` turns them into per-operation figures after the run.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time

# prefix of the stderr line that carries a traced CLI child's spans
CHILD_MARKER = "QUATHW-BENCH-SPANS "

LAYERS = ("clinalg", "qmatrix", "hw", "qpoly", "matio", "cli")

# argument size recorded with each span of these functions
SIZE_OF = {"hw.min_cost_assignment": lambda args: len(args[0])}

# children of standard_eigenvalues_poly that the companion route needs;
# the rest of its time is the adjoint-polynomial cross-check
_POLY_PRIMARY = {"qpoly.monicize", "qpoly.companion", "qmatrix.standard_eigenvalues"}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.ops: list[tuple[int, int, int]] = []  # (op_id, start_ns, end_ns)
        self.op_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        size_of = SIZE_OF.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1, self.op_id,
                    size_of(args) if size_of else 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()

        return traced

    def _plan(self) -> None:
        namespaces = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == "quathw" or key.startswith("quathw."))
        ]
        for layer in LAYERS:
            module = sys.modules[f"quathw.{layer}"]
            for attr, fn in sorted(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            self._patches.append((ns, key, fn, wrapper))

    def install(self) -> None:
        if not self._patches:
            self._plan()
        for ns, key, _, wrapper in self._patches:
            setattr(ns, key, wrapper)

    def uninstall(self) -> None:
        for ns, key, original, _ in reversed(self._patches):
            setattr(ns, key, original)

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around a block that is not a wrapped function."""
        span = [name, time.perf_counter_ns(), 0,
                self._stack[-1] if self._stack else -1, self.op_id, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            self._stack.pop()
            span[2] = time.perf_counter_ns()

    def call(self, op_id: int, fn, *args):
        """Run one benchmark operation; its spans carry ``op_id``."""
        self.op_id = op_id
        start = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            self.ops.append((op_id, start, time.perf_counter_ns()))
            self.op_id = -1

    def merge(self, spans: list[list], op_id: int) -> None:
        """Append spans recorded in another process under ``op_id``."""
        base = len(self.spans)
        for name, start, end, parent, _, size in spans:
            self.spans.append([name, start, end, parent + base if parent >= 0 else -1,
                               op_id, size])


class LayerStats:
    """Per-operation aggregates of a span list."""

    def __init__(self, spans: list[list], ops: list[tuple[int, int, int]]):
        self.n_ops = max(len(ops), 1)
        child_ns = [0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self.calls: dict[str, int] = {}
        self.total_ns: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.max_size: dict[str, int] = {}
        top_ns: dict[int, int] = {}
        for idx, (name, start, end, parent, op_id, size) in enumerate(spans):
            dur = end - start
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total_ns[name] = self.total_ns.get(name, 0) + dur
            self.self_ns[name] = self.self_ns.get(name, 0) + dur - child_ns[idx]
            self.max_size[name] = max(self.max_size.get(name, 0), size)
            if parent < 0:
                top_ns[op_id] = top_ns.get(op_id, 0) + dur
        # share of each operation's window covered by its top-level spans
        self.coverage = {op_id: top_ns.get(op_id, 0) / max(end - start, 1)
                         for op_id, start, end in ops}
        self.op_ms = sum(end - start for _, start, end in ops) / 1e6 / self.n_ops

        # cross-check share and eigensolves of each polynomial eigenvalue query
        poly = "qpoly.standard_eigenvalues_poly"
        eig_under = {i: 0 for i, s in enumerate(spans) if s[0] == poly}
        cross_ns = 0
        for idx in eig_under:
            cross_ns += spans[idx][2] - spans[idx][1]
        for idx, (name, start, end, parent, _, _) in enumerate(spans):
            if parent in eig_under and name in _POLY_PRIMARY:
                cross_ns -= end - start
            if name == "clinalg.eigenvalues":
                up = parent
                while up >= 0:
                    if up in eig_under:
                        eig_under[up] += 1
                        break
                    up = spans[up][3]
        self.crosscheck_ms = cross_ns / 1e6 / self.n_ops
        self.eig_per_poly_query = min(eig_under.values(), default=0)

    def value(self, metric: str) -> float:
        """A per-layer metric by name: ``<layer>.<function>.<stat>``."""
        special = {
            "hw.min_cost_assignment.max_n": lambda: self.max_size.get("hw.min_cost_assignment", 0),
            "clinalg.eigenvalues.calls_per_op": lambda: self.eig_per_poly_query,
            "qpoly.standard_eigenvalues_poly.crosscheck_ms": lambda: self.crosscheck_ms,
            "cli.import_ms": lambda: self.total_ns.get("cli.import", 0) / 1e6 / self.n_ops,
        }
        if metric in special:
            return float(special[metric]())
        name, _, stat = metric.rpartition(".")
        if stat == "calls":
            return self.calls.get(name, 0) / self.n_ops
        if stat == "ms":
            return self.total_ns.get(name, 0) / 1e6 / self.n_ops
        if stat == "self_ms":
            return self.self_ns.get(name, 0) / 1e6 / self.n_ops
        raise KeyError(metric)
