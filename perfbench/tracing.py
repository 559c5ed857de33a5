"""Per-layer tracing installed from outside the program.

Wrappers replace public functions and methods in the ``convchar`` module
namespaces (every binding of the same object, so ``from .x import f`` copies
are caught too); nothing under ``src/`` changes.  Each wrapped call is a
span.  Spans are aggregated in memory as they close: per name, the number of
calls and the *self time*, which is the span's duration minus the time its
child spans cover.  A generator stream is traced per ``next()``: the first
one is its ``first_s`` span (it runs the DP and builds the first
character), the rest are ``next_s`` spans.

Work counters that do not depend on the machine are kept beside the spans:
characters yielded, characters scanned by each solver, and the DP cells
``(n - 2) * k^2`` of every DP run, computed from the arguments rather than
counted inside the DP.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from functools import wraps
from time import perf_counter

# Span name -> (module, attribute).  Methods name their class.
FUNCTIONS = {
    "trees.parse_newick": ("convchar.trees", "parse_newick"),
    "counting.count_convex": ("convchar.counting", "count_convex"),
    "characters.is_convex": ("convchar.characters", "is_convex"),
    "characters.parsimony_score": ("convchar.characters", "parsimony_score"),
    "solvers.agreement_forest_min_components": ("convchar.solvers", "agreement_forest_min_components"),
    "solvers.quartet_exact_partition": ("convchar.solvers", "quartet_exact_partition"),
    "solvers.optimize_objective": ("convchar.solvers", "optimize_objective"),
    "cli.main": ("convchar.cli", "main"),
}
METHODS = {
    "trees.canonical_newick": ("convchar.trees", "Tree", "canonical_newick"),
    "trees.Tree.restrict": ("convchar.trees", "Tree", "restrict"),
    "characters.Character.__init__": ("convchar.characters", "Character", "__init__"),
    "characters.Character.text": ("convchar.characters", "Character", "text"),
    "characters.Character.to_lists": ("convchar.characters", "Character", "to_lists"),
}
STREAM = "characters.enumerate_convex"
OUTPUT = "cli.output"
SOLVERS = tuple(name for name in FUNCTIONS if name.startswith("solvers."))
AGREEMENT = "solvers.agreement_forest_min_components"


def _dp_cells(tree, k: int) -> int:
    n = tree.n
    return (n - 2) * k * k if n >= max(k, 3) else 0


class Tracer:
    """Span aggregates and work counters of the current pass."""

    def __init__(self):
        self.enabled = False
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counters: Counter = Counter()
        self.solver: str | None = None      # innermost solver span open
        self._stack: list[float] = []       # child time of each open span
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.calls.clear()
        self.self_s.clear()
        self.counters.clear()

    def close(self, name: str, t0: float) -> None:
        """Close the innermost open span, started at ``t0``."""
        dt = perf_counter() - t0
        stack = self._stack
        self.calls[name] += 1
        self.self_s[name] += dt - stack.pop()
        if stack:
            stack[-1] += dt

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            self._stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(name, t0)
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def _wrap_solver(self, name: str, fn):
        inner = self._wrap(name, fn, lambda args, res: self.counters.update(
            {"solvers.scanned": res.characters_scanned,
             name + ".scanned": res.characters_scanned}))

        @wraps(fn)
        def wrapper(*args, **kwargs):
            outer, self.solver = self.solver, name
            try:
                return inner(*args, **kwargs)
            finally:
                self.solver = outer
        return wrapper

    def _after_is_convex(self, args, result) -> None:
        if self.solver == AGREEMENT:
            self.counters["agreement.is_convex"] += 1
            self.counters["agreement.is_convex_true"] += bool(result)

    def _after_count(self, args, result) -> None:
        tree, k = args[0], args[1] if len(args) > 1 else 1
        self.counters["counting.dp_cells"] += _dp_cells(tree, k)

    def _wrap_stream(self, fn):
        @wraps(fn)
        def wrapper(tree, k=1):
            gen = fn(tree, k)
            if not self.enabled:
                return gen
            self.calls[STREAM] += 1
            self.counters["counting.dp_cells"] += _dp_cells(tree, k)
            return self._stream(gen)
        return wrapper

    def _stream(self, gen):
        stat = STREAM + ".first_s"
        stack = self._stack
        try:
            while True:
                stack.append(0.0)
                t0 = perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self.close(stat, t0)
                self.counters[STREAM + ".chars"] += 1
                stat = STREAM + ".next_s"
                yield item
        finally:
            gen.close()

    def traced_write(self, write):
        """Wrap a sink's ``write`` as the ``cli.output`` span."""
        def wrapper(text):
            if not self.enabled:
                return write(text)
            self._stack.append(0.0)
            t0 = perf_counter()
            try:
                return write(text)
            finally:
                self.close(OUTPUT, t0)
                self.counters["cli.bytes_out"] += len(text)
        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Replace every binding of the traced functions in the loaded
        ``convchar`` modules."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "convchar" or name.startswith("convchar."))]
        after = {"counting.count_convex": self._after_count,
                 "characters.is_convex": self._after_is_convex}
        for name, (modname, attr) in FUNCTIONS.items():
            fn = getattr(sys.modules[modname], attr)
            if name in SOLVERS:
                wrapper = self._wrap_solver(name, fn)
            else:
                wrapper = self._wrap(name, fn, after.get(name))
            self._rebind(modules, fn, wrapper)
        fn = sys.modules["convchar.characters"].enumerate_convex
        self._rebind(modules, fn, self._wrap_stream(fn))
        for name, (modname, cls_name, attr) in METHODS.items():
            cls = getattr(sys.modules[modname], cls_name)
            fn = cls.__dict__[attr]
            self._undo.append((cls, attr, fn))
            setattr(cls, attr, self._wrap(name, fn))

    def _rebind(self, modules, fn, wrapper) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._undo.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    # -- report ----------------------------------------------------------------

    def take_self_times(self) -> dict:
        """Self times since the last call, per span name; clears them."""
        out = dict(self.self_s)
        self.self_s.clear()
        return out

    def snapshot(self) -> dict:
        """Call counts and work counters of the current pass."""
        return {"calls": dict(self.calls), "counters": dict(self.counters)}
