"""Span tracer that wraps the program's layer boundaries from outside.

Each traced name is replaced where its caller looks it up — a module
global of ``repro.driver``, a class attribute, or an attribute of
``repro.backend.codegen`` — and restored when :meth:`Tracer.installed`
exits.  Spans are kept in memory as ``[layer, start, end, parent,
request]`` lists; :meth:`Tracer.layer_totals` folds them into per-layer
self time (span time minus the time its direct child spans cover).
"""

from __future__ import annotations

import contextlib
import functools
import time
from typing import Callable, Dict, List, Optional

__all__ = ["Tracer"]

#: Layer of the bookkeeping spans the tracer records for its own work
#: (instruction counting), so that no program layer is charged for it.
TRACING = "tracing"


def module_instrs(module) -> int:
    """Instruction count of a module (every block of every function)."""
    return sum(len(block.instructions)
               for function in module.functions.values()
               for block in function.blocks)


class Tracer:
    """Nested-span recorder for one benchmark process (one thread)."""

    def __init__(self):
        self.spans: List[list] = []
        #: Module instruction count after each layer that transforms IR.
        self.ir_instrs: Dict[str, List[int]] = {}
        #: Index of the request being recorded; calls made while this is
        #: ``None`` (the benchmark's own oracle runs) are not traced.
        self.request: Optional[int] = None
        self._stack: List[int] = []
        self._open_runs = 0

    # -- recording ----------------------------------------------------------------

    def _open(self, layer: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, 0.0, 0.0, parent, self.request])
        self._stack.append(idx)
        return idx

    def _wrap(self, layer, fn: Callable, ir_module: Optional[Callable] = None):
        """``fn`` wrapped in a span; ``layer`` may be a callable choosing
        the layer name when the call starts.  ``ir_module(args, result)``
        names the module whose size is recorded after the call."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.request is None:
                return fn(*args, **kwargs)
            name = layer() if callable(layer) else layer
            idx = tracer._open(name)
            span = tracer.spans[idx]
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if ir_module is not None:
                count = tracer._open(TRACING)
                start = time.perf_counter()
                tracer.ir_instrs.setdefault(name, []).append(
                    module_instrs(ir_module(args, result)))
                tracer._stack.pop()
                tracer.spans[count][1:3] = [start, time.perf_counter()]
            return result

        return traced

    def _wrap_run(self, fn: Callable):
        """``Interpreter.run``: top level is ``vm.run``; a run nested inside
        it is the trap replay on the fallback interpreter, ``vm.replay``."""
        tracer = self
        inner = self._wrap(
            lambda: "vm.replay" if tracer._open_runs > 1 else "vm.run", fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._open_runs += 1
            try:
                return inner(*args, **kwargs)
            finally:
                tracer._open_runs -= 1

        return traced

    # -- installation ---------------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced name for the duration of the ``with`` block."""
        import repro.driver as driver
        from repro.backend import codegen
        from repro.passes.pass_manager import PassManager
        from repro.vm import Interpreter, Memory

        first = lambda args, result: args[0]  # noqa: E731
        targets = [
            (driver, "compile_parsimony", self._wrap("driver.compile", driver.compile_parsimony)),
            (driver, "compile_source", self._wrap("frontend", driver.compile_source,
                                                  lambda args, result: result)),
            (driver, "clone_module", self._wrap("driver.clone", driver.clone_module)),
            (driver, "vectorize_module", self._wrap("vectorizer", driver.vectorize_module, first)),
            (driver, "post_vectorize_cleanup", self._wrap("passes.cleanup",
                                                          driver.post_vectorize_cleanup, first)),
            (driver, "batch_module", self._wrap("batch", driver.batch_module, first)),
            (PassManager, "run", self._wrap("passes.pipeline", PassManager.run,
                                            lambda args, result: args[1])),
            (Interpreter, "__init__", self._wrap("vm.launch", Interpreter.__init__)),
            (Interpreter, "run", self._wrap_run(Interpreter.run)),
            (Memory, "alloc_array", self._wrap("vm.launch", Memory.alloc_array)),
            (Memory, "read_array", self._wrap("vm.launch", Memory.read_array)),
            (codegen, "emit_function", self._wrap("codegen.emit", codegen.emit_function)),
            (codegen, "compiled_code", self._wrap("codegen.emit", codegen.compiled_code)),
        ]
        saved = [(owner, name, owner.__dict__[name]) for owner, name, _ in targets]
        try:
            for owner, name, wrapper in targets:
                setattr(owner, name, wrapper)
            yield self
        finally:
            for owner, name, original in saved:
                setattr(owner, name, original)

    # -- analysis ---------------------------------------------------------------------

    def layer_totals(self) -> Dict[str, List[float]]:
        """``[self_s, inclusive_s, count]`` per layer.  Inclusive time
        counts only the outermost span of a layer, so nesting is not
        counted twice."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: Dict[str, List[float]] = {}
        for i, (layer, start, end, parent, _) in enumerate(spans):
            entry = totals.setdefault(layer, [0.0, 0.0, 0])
            entry[0] += (end - start) - child_time[i]
            entry[2] += 1
            outer = parent
            while outer >= 0 and spans[outer][0] != layer:
                outer = spans[outer][3]
            if outer < 0:
                entry[1] += end - start
        return totals

    def top_level_time(self) -> float:
        """Total duration of spans with no parent span."""
        return sum(end - start
                   for _, start, end, parent, _ in self.spans if parent < 0)
