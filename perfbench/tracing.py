"""Spans around calls into the package's layers, recorded from outside it.

Tracer.install replaces a function by a timing wrapper in the namespace of
the module that calls it (the package's modules import their callees by
name), and FieldElement.inverse on its class.  A stack of open spans gives
each span's self time: its duration minus the time of the spans it opened.
Spans are aggregated by name in memory; nothing is written while timing.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager


class SpanStats:
    __slots__ = ("calls", "total", "self_time", "hits", "last")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.hits = 0
        self.last = 0.0


class Tracer:
    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self.counters: dict[str, float] = {}
        # one [child time] cell per open span
        self._stack: list[list[float]] = []
        self._undo: list = []

    def reset(self) -> None:
        self.stats = {}
        self.counters = {}

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _close(self, name: str, started: float, cell: list, hit: bool) -> None:
        duration = time.perf_counter() - started
        self._stack.pop()
        if self._stack:
            self._stack[-1][0] += duration
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = SpanStats()
        st.calls += 1
        st.total += duration
        st.self_time += duration - cell[0]
        st.last = duration
        if hit:
            st.hits += 1

    @contextmanager
    def span(self, name: str):
        cell = [0.0]
        self._stack.append(cell)
        started = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, started, cell, False)

    def wrap(self, name: str, fn, observe=None):
        stack = self._stack
        close = self._close
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            cell = [0.0]
            stack.append(cell)
            started = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(result)
                return result
            finally:
                close(name, started, cell, result is True)

        return traced

    def install(self, owner, attr: str, name: str, observe=None) -> None:
        """Replace owner.attr (a module global or a class attribute) by a
        traced wrapper recorded under name; observe, if given, sees each
        result."""
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, observe))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def get(self, name: str) -> SpanStats:
        return self.stats.get(name) or SpanStats()


def install_layer_spans(tracer: Tracer) -> None:
    """Wrap the public functions each layer calls in the other layers."""
    from hypchrom import augment, bundle, coloring, field, geometry, svg

    tracer.install(augment, "phase_augment", "augment.phase")
    tracer.install(augment, "circle_of", "augment.circle_of")
    tracer.install(augment, "intersect_circles", "augment.intersect_circles")
    tracer.install(augment, "is_unit_edge", "geometry.is_unit_edge")
    tracer.install(augment, "fe_sqrt", "field.fe_sqrt")
    for module in (augment, geometry, field):
        tracer.install(module, "fe_sign", "field.fe_sign")
    tracer.install(field.FieldElement, "inverse", "field.inverse")
    # certify_graph tests its pairs through the geometry module's own name
    tracer.install(geometry, "is_unit_edge", "geometry.certify.pair")
    tracer.install(bundle, "is_unit_edge", "bundle.verify")
    tracer.install(svg, "point_coords_numeric", "svg.point_coords_numeric")

    def search_stats(result):
        stats = result[1]
        tracer.count("coloring.nodes", stats.nodes_visited)
        tracer.count("coloring.forced", stats.forced_assignments)
        tracer.count("coloring.kernel_s", stats.elapsed)

    # find_coloring_reordered reaches the kernel through this name too
    tracer.install(coloring, "search_k_coloring", "coloring.search", search_stats)
