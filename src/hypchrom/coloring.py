"""Proper-coloring decisions by backtracking search with unit propagation.

A vertex with fewer than k neighbours can always be colored after the rest
of the graph, so search_k_coloring first peels such vertices until only the
k-core is left (Matula & Beck 1983), searches the core, and colors the
peeled vertices greedily afterwards.  The search branches saturation-first
(DSATUR, Brélaz 1979): each decision colors the uncolored vertex with the
fewest feasible colors, the highest degree within the core among ties and
then the lowest index, trying its feasible colors in increasing order;
vertices whose color is forced by propagation are never branched on.  The
search itself is the pure-Python bitset kernel in _colorsearch_py, which
breaks ties by index alone; search_k_coloring hands it the core's
neighbour bitmasks, relabeled by decreasing core degree, and maps the
coloring back.  A search that visits more than the kernel's node budget
hands its remaining subtrees to one forked worker per CPU of the process's
affinity set, and rebuilds the serial coloring and counters from theirs;
no worker outlives the search.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from . import _colorsearch_py

UNCOLORED = -1

logger = logging.getLogger(__name__)

#: name of the search kernel; perfbench/run.py imports it and records it
ACTIVE_BACKEND = "python"


class AdjacencyGraph:
    """Symmetric adjacency structure with a fixed vertex order."""

    __slots__ = ("n", "neighbors")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError(f"negative vertex count {n}")
        self.n = n
        # a set per vertex drops repeated edges in either orientation
        adj: list[set[int]] = [set() for _ in range(n)]
        for i, j in edges:
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i}, {j}) out of range")
            adj[i].add(j)
            adj[j].add(i)
        self.neighbors = tuple(tuple(sorted(nbrs)) for nbrs in adj)

    @property
    def size(self) -> int:
        return sum(map(len, self.neighbors)) // 2

    def edges(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(self.n) for j in self.neighbors[i] if i < j]

    def induced_prefix(self, m: int) -> "AdjacencyGraph":
        """Subgraph induced by the first m vertices, order preserved."""
        if not 0 <= m <= self.n:
            raise ValueError("prefix length out of range")
        return AdjacencyGraph(
            m, ((i, j) for i in range(m) for j in self.neighbors[i] if j < i)
        )

    @classmethod
    def from_graph(cls, g) -> "AdjacencyGraph":
        return cls(g.order, g.edges)


@dataclass
class SearchStats:
    """Counters of one search.

    nodes_visited: search nodes (calls of the kernel's recursive walk);
    max_depth: the largest number of branching decisions on one path;
    forced_assignments: vertices whose feasible set propagation narrowed to
    one color, counted at the end of each propagation round that found no
    conflict (so a round that ends in a conflict adds nothing);
    conflicts: branching assignments that propagation refuted;
    backtracks: branching assignments that propagation accepted but whose
    subtree holds no coloring;
    core_order: vertices the kernel searched (the order of the k-core);
    workers: the processes that searched at once, 1 when the search ran in
    the calling process alone (see _colorsearch_py.split_search);
    elapsed: wall-clock seconds from building the kernel's neighbour
    bitmasks (and the symmetry clique read from them) to its result, across
    every process that searched, starting and stopping them included.
    """

    nodes_visited: int
    max_depth: int
    forced_assignments: int
    conflicts: int
    backtracks: int
    core_order: int
    workers: int
    elapsed: float


class ColorableGraphError(ValueError):
    """The graph is k-colorable, so no prefix of it is a non-k-colorable
    witness."""


def greedy_seed_clique(masks: Sequence[int]) -> list[int]:
    """Greedy clique among the first 12 vertices, used to break color
    symmetry; bit w of masks[v] is set when w neighbours v."""
    clique: list[int] = []
    common = -1  # the vertices adjacent to every clique member: all at first
    for v in range(min(12, len(masks))):
        if common >> v & 1:
            clique.append(v)
            common &= masks[v]
    return clique


def k_core(g: AdjacencyGraph, k: int) -> tuple[list[int], list[int]]:
    """Peel g down to its k-core; returns (core, peeled).

    core lists the vertices of the k-core by decreasing degree within the
    core, ties by increasing index.  peeled lists the other vertices in the
    order they were removed: each has fewer than k neighbours among the
    core and the vertices peeled after it.
    """
    neighbors = g.neighbors
    deg = [len(nbrs) for nbrs in neighbors]
    removed = [d < k for d in deg]
    peeled = [v for v in range(g.n) if removed[v]]
    for v in peeled:  # grows while it is walked
        for w in neighbors[v]:
            if not removed[w]:
                deg[w] -= 1
                if deg[w] < k:
                    removed[w] = True
                    peeled.append(w)
    core = sorted(
        (v for v in range(g.n) if not removed[v]), key=lambda v: (-deg[v], v)
    )
    return core, peeled


def search_k_coloring(
    g: AdjacencyGraph,
    k: int,
    symmetry_break: bool = True,
) -> tuple[Optional[list[int]], SearchStats]:
    """Find a proper k-coloring or decide that none exists.

    g is k-colorable exactly when its k-core is: a vertex with fewer than k
    neighbours always has a color left once they are colored.  So the
    kernel searches only the k-core (see k_core), relabeled by decreasing
    degree within the core, and saturation ties go to the highest core
    degree, then the lowest index.  The kernel runs even when the core is
    empty, so its range check on k is the only one.  On success the peeled
    vertices are colored greedily in reverse peel order, each with the
    smallest color its neighbours do not use.  Returns (coloring, stats);
    the coloring is in g's numbering and verified against the whole of g
    before being returned.  With symmetry_break, a greedy clique among the
    highest-core-degree vertices (the first of the core order) is
    pre-colored (sound: any proper coloring can be permuted to agree on a
    clique); disable it to make depth statistics comparable across runs.
    """
    core, peeled = k_core(g, k)
    started = time.perf_counter()
    bits = [0] * g.n  # bit i for core[i], none for a peeled vertex
    for i, v in enumerate(core):
        bits[v] = 1 << i
    # the bits of distinct neighbours never carry, so their sum is their union
    masks = [sum(map(bits.__getitem__, g.neighbors[v])) for v in core]
    clique = greedy_seed_clique(masks) if symmetry_break else []
    relabeled, (nodes, depth, forced, conflicts, backtracks), workers = (
        _colorsearch_py.split_search(masks, k, [(v, c) for c, v in enumerate(clique[:k])])
    )
    elapsed = time.perf_counter() - started
    stats = SearchStats(
        nodes_visited=nodes,
        max_depth=depth,
        forced_assignments=forced,
        conflicts=conflicts,
        backtracks=backtracks,
        core_order=len(core),
        workers=workers,
        elapsed=elapsed,
    )
    if relabeled is None:
        return None, stats
    coloring = [UNCOLORED] * g.n
    for v, c in zip(core, relabeled):
        coloring[v] = c
    coloring = _greedy_extension(g, coloring, reversed(peeled), k)
    if coloring is None or not verify_coloring(g, coloring):
        raise AssertionError("search returned an improper coloring")
    return coloring, stats


def verify_coloring(g: AdjacencyGraph, coloring: Sequence[int]) -> bool:
    """Independent checker: a total assignment with no monochromatic edge."""
    if len(coloring) != g.n:
        return False
    if any(c == UNCOLORED for c in coloring):
        return False
    for i in range(g.n):
        ci = coloring[i]
        for j in g.neighbors[i]:
            if j > i and coloring[j] == ci:
                return False
    return True


def brute_force_k_colorable(g: AdjacencyGraph, k: int) -> bool:
    """Exhaustive enumeration over vertex-by-vertex assignments; prunes only
    on explicit edge conflicts.  Independent of the search machinery."""
    colors = [UNCOLORED] * g.n

    def extend(v: int) -> bool:
        if v == g.n:
            return True
        for c in range(k):
            if all(colors[w] != c for w in g.neighbors[v] if w < v):
                colors[v] = c
                if extend(v + 1):
                    return True
                colors[v] = UNCOLORED
        return False

    return extend(0)


def brute_force_chromatic(g: AdjacencyGraph, upper: int = 12) -> int:
    for k in range(1, upper + 1):
        if brute_force_k_colorable(g, k):
            return k
    raise ValueError(f"chromatic number exceeds {upper}")


def chromatic_number(g: AdjacencyGraph, upper_bound: int = 16) -> Optional[int]:
    """Smallest k <= upper_bound admitting a proper k-coloring, else None."""
    if upper_bound < 1:
        raise ValueError("upper_bound must be positive")
    if g.n == 0:
        return 0
    for k in range(1, upper_bound + 1):
        coloring, _ = search_k_coloring(g, k)
        if coloring is not None:
            return k
    return None


def _greedy_extension(
    g: AdjacencyGraph, coloring: Sequence[int], order: Iterable[int], k: int
) -> Optional[list[int]]:
    """Fill the UNCOLORED vertices of order in turn, each with the smallest
    color no colored neighbour uses; None when some vertex finds all k
    colors used."""
    out = list(coloring)
    for v in order:
        used = {out[w] for w in g.neighbors[v]}
        out[v] = next((c for c in range(k) if c not in used), UNCOLORED)
        if out[v] == UNCOLORED:
            return None
    return out


def minimal_non_k_prefix(g: AdjacencyGraph, k: int) -> int:
    """Smallest m such that the first m vertices induce no k-colorable
    subgraph.  Binary search; sound because non-colorability of a prefix is
    inherited by every longer prefix.  After an UNSAT probe the upper end
    drops to the highest index in the probe's k-core, plus one: that core is
    an induced subgraph of the shorter prefix and has no k-coloring itself.
    The whole graph is always searched, which also checks k.  Before
    searching a shorter probe, the coloring of the last SAT prefix (the
    empty one at first) is extended greedily; when verify_coloring accepts
    the extension, the probe is SAT without a search.  Logs one INFO line
    per probe; a probe decided greedily logs 0 nodes and core 0, as no
    vertex was searched.

    Raises ColorableGraphError if g itself is k-colorable."""
    witness: Optional[list[int]] = None  # a k-coloring of the last SAT prefix

    def upper_end(prefix: AdjacencyGraph) -> Optional[int]:
        """None if prefix is k-colorable, else its k-core's last index + 1."""
        nonlocal witness
        started = time.perf_counter()
        coloring = None
        if witness is not None:
            m = len(witness)
            holes = [UNCOLORED] * (prefix.n - m)
            coloring = _greedy_extension(prefix, witness + holes, range(m, prefix.n), k)
        if coloring is not None and verify_coloring(prefix, coloring):
            nodes, core, elapsed = 0, 0, time.perf_counter() - started
        else:
            coloring, stats = search_k_coloring(prefix, k)
            nodes, core, elapsed = stats.nodes_visited, stats.core_order, stats.elapsed
        logger.info(
            "prefix %d: %s, %d nodes, core %d, %.3f s",
            prefix.n,
            "SAT" if coloring is not None else "UNSAT",
            nodes,
            core,
            elapsed,
        )
        if coloring is not None:
            witness = coloring
            return None
        return max(k_core(prefix, k)[0]) + 1

    hi = upper_end(g)  # invariant: prefix hi is not k-colorable
    if hi is None:
        raise ColorableGraphError(f"graph is {k}-colorable; no prefix is a witness")
    witness = []
    lo = 1
    while lo < hi:
        mid = (lo + hi) // 2
        end = upper_end(g.induced_prefix(mid))
        if end is None:
            lo = mid + 1
        else:
            hi = end
    return hi


def smallest_last_order(g: AdjacencyGraph) -> list[int]:
    """Degeneracy (smallest-last) vertex order: repeatedly peel a minimum
    degree vertex, then reverse."""
    import heapq

    deg = [len(g.neighbors[v]) for v in range(g.n)]
    removed = [False] * g.n
    heap = [(deg[v], v) for v in range(g.n)]
    heapq.heapify(heap)
    peeled: list[int] = []
    while heap:
        d, v = heapq.heappop(heap)
        if removed[v] or d != deg[v]:
            continue
        removed[v] = True
        peeled.append(v)
        for w in g.neighbors[v]:
            if not removed[w]:
                deg[w] -= 1
                heapq.heappush(heap, (deg[w], w))
    peeled.reverse()
    return peeled


def find_coloring_reordered(
    g: AdjacencyGraph, k: int
) -> tuple[Optional[list[int]], SearchStats]:
    """Witness finder: run the search over a degeneracy order and map the
    coloring back to the original vertex numbering.

    search_k_coloring searches the k-core and breaks saturation ties by
    degree within the core and then by index, so on the graph renumbered
    in smallest-last order the degeneracy order breaks the ties among equal
    core degrees.  In smallest-last order every vertex has at most
    degeneracy-many earlier neighbors, which favors a short, greedy-like
    descent on satisfiable instances.  Verdicts agree with
    search_k_coloring on the original numbering; only the tie-breaking (and
    hence the witness) differs.
    """
    order = smallest_last_order(g)
    pos = [0] * g.n  # vertex v is renamed pos[v]
    for i, v in enumerate(order):
        pos[v] = i
    # g's lists are already symmetric and free of repeats, so the
    # constructor's edge list and per-vertex sets (about 4 ms at order 1378)
    # are skipped
    permuted = AdjacencyGraph.__new__(AdjacencyGraph)
    permuted.n = g.n
    permuted.neighbors = tuple(
        tuple(sorted([pos[w] for w in g.neighbors[v]])) for v in order
    )
    coloring, stats = search_k_coloring(permuted, k)
    if coloring is None:
        return None, stats
    back = [coloring[p] for p in pos]
    if not verify_coloring(g, back):
        raise AssertionError("permuted witness failed verification")
    return back, stats


def moser_spindle() -> AdjacencyGraph:
    """The 7-vertex, 11-edge double-rhombus graph (4-chromatic)."""
    from .geometry import SPINDLE_EDGES

    return AdjacencyGraph(7, SPINDLE_EDGES)
