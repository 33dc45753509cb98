"""Per-layer call counts and self times, recorded from outside the program.

A layer is one module of ``schroeder``.  ``install`` wraps every public
function of every layer and rebinds each name that refers to it in any
loaded ``schroeder`` module: the package re-exports, the ``from ... import``
copies in ``verify`` and ``cli``, and the kernel module's own globals, so
that calls made from inside ``pure.sweep_row_col`` are counted too.

Self time is a span's duration minus the time its child spans cover.  The
caller opens a root span around the timed section; its self time is the
time spent outside every layer, so the self times of all spans add up to
the root's duration.  Spans are aggregated per function in memory.
Methods of classes are not wrapped; their time is charged to the caller.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

PACKAGE = "schroeder"
# module name inside the package -> layer name in the reported metrics
LAYERS = {
    "_kernels": "kernels",
    "partitions": "partitions",
    "lattice": "lattice",
    "tableaux": "tableaux",
    "insertion": "insertion",
    "posets": "posets",
    "intervals": "intervals",
}


class Tracer:
    def __init__(self) -> None:
        # "layer.function" -> [calls, self_s]; root spans add [total_s]
        self.stats: dict[str, list] = {}
        self._stack: list[list[float]] = []  # per open span: [child time]

    def _enter(self) -> float:
        self._stack.append([0.0])
        return time.perf_counter()

    def _leave(self, stats: list, t0: float) -> float:
        elapsed = time.perf_counter() - t0
        children = self._stack.pop()[0]
        stats[1] += elapsed - children
        if self._stack:
            self._stack[-1][0] += elapsed
        return elapsed

    def root(self, name: str):
        """Context manager for a root span, such as one suite run.  Its
        stats carry a third entry, the span's total duration."""
        return _Root(self, self.stats.setdefault(name, [0, 0.0, 0.0]))

    def wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0])
        enter, leave = self._enter, self._leave

        if inspect.isgeneratorfunction(getattr(fn, "__wrapped__", fn)):
            # the work of a generator happens while it is iterated
            def iterate(gen):
                while True:
                    t0 = enter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        leave(stats, t0)
                    yield item

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                stats[0] += 1
                return iterate(fn(*args, **kwargs))

            return traced

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stats[0] += 1
            t0 = enter()
            try:
                return fn(*args, **kwargs)
            finally:
                leave(stats, t0)

        return traced


class _Root:
    def __init__(self, tracer: Tracer, stats: list) -> None:
        self.tracer, self.stats = tracer, stats

    def __enter__(self):
        self.stats[0] += 1
        self.t0 = self.tracer._enter()
        return self

    def __exit__(self, *exc):
        self.stats[2] += self.tracer._leave(self.stats, self.t0)
        return False


def _public_functions(module):
    """Public functions a layer module defines or, for the kernel package,
    re-exports from its backend."""
    prefix = module.__name__
    for name, obj in vars(module).items():
        if name.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if (getattr(obj, "__module__", None) or "").startswith(prefix):
            yield name, obj


def install(tracer: Tracer) -> None:
    """Wrap every public function of every layer and rebind every name that
    refers to one in the loaded ``schroeder`` modules."""
    wrappers = {}
    for module_name, layer in LAYERS.items():
        module = sys.modules[f"{PACKAGE}.{module_name}"]
        for name, fn in _public_functions(module):
            if id(fn) not in wrappers:
                wrappers[id(fn)] = tracer.wrap(f"{layer}.{name}", fn)
    loaded = [
        m for n, m in list(sys.modules.items())
        if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
    ]
    for module in loaded:
        for name, obj in list(vars(module).items()):
            wrapper = wrappers.get(id(obj))
            if wrapper is not None:
                setattr(module, name, wrapper)
