"""Backtracking color search with unit propagation: the kernel behind
coloring.search_k_coloring.

Branching is saturation-first (DSATUR, Brélaz 1979): each decision colors
the uncolored vertex with the fewest feasible colors, the lowest index of
the graph it is given among ties, trying its feasible colors in increasing
order.  coloring.search_k_coloring hands it the graph relabeled by
decreasing degree, so ties go to the highest degree first.
"""

from __future__ import annotations

import sys

#: saturation entry of a colored vertex; exceeds any feasible-color count
COLORED = 33


def make_state(neighbors, k):
    """Search state for a k-coloring of the graph with adjacency lists
    neighbors (neighbors[v] holds the neighbors of vertex v).

    Returns (feasible, saturation, trail, stats, assign, rollback).
    feasible[v] is the bitmask of colors v may still take; saturation[v]
    counts them, or is COLORED once v is colored (feasible[v] is then the
    single bit of its color).  assign(v, bit) colors v with bit, one of its
    feasible colors, and propagates, returning False on a conflict.
    rollback(mark) restores feasible and saturation as they were when
    len(trail) was mark.  stats holds nodes visited, max depth, forced
    assignments and conflicts; only forced assignments are counted here.
    """
    if k < 1 or k > 32:
        raise ValueError("color count must be between 1 and 32")
    n = len(neighbors)
    full_mask = (1 << k) - 1
    feasible = [full_mask] * n
    # number of feasible colors of each uncolored vertex, COLORED once it is
    # colored (its feasible mask is then the single bit of its color)
    saturation = [k] * n
    trail: list = []      # (vertex, previous mask, previous saturation)
    log = trail.append
    stats = [0, 0, 0, 0]  # nodes visited, max depth, forced, conflicts

    def assign(v, color_bit):
        # colors v, strips the color from uncolored neighbors, and keeps
        # assigning any neighbor whose feasible set becomes a singleton;
        # False as soon as some feasible set empties
        queue = [(v, color_bit)]
        push = queue.append
        for u, bit in queue:
            if saturation[u] == COLORED:
                if feasible[u] == bit:
                    continue
                return False
            log((u, feasible[u], saturation[u]))
            feasible[u] = bit
            saturation[u] = COLORED
            for w in neighbors[u]:
                old = feasible[w]
                if old & bit:
                    s = saturation[w]
                    if s == COLORED or old == bit:
                        return False
                    new = old ^ bit
                    log((w, old, s))
                    feasible[w] = new
                    saturation[w] = s - 1
                    if s == 2:
                        stats[2] += 1
                        push((w, new))
        return True

    def rollback(trail_mark):
        for v, old, s in reversed(trail[trail_mark:]):
            feasible[v] = old
            saturation[v] = s
        del trail[trail_mark:]

    return feasible, saturation, trail, stats, assign, rollback


def search(neighbors, k, preassigned):
    """Depth-first search for a proper k-coloring, branching saturation-first.

    The graph is given by its adjacency lists, as for make_state.
    preassigned is a sequence of (vertex, color) pairs applied with full
    propagation before the search.  Returns (colors_or_None,
    (nodes_visited, max_depth, forced, conflicts)): nodes_visited counts
    search nodes (calls of the recursive walk), max_depth is the largest
    number of branching decisions on one path, forced counts feasible sets
    narrowed to one color by propagation, and conflicts counts branching
    assignments that propagation refuted.
    """
    feasible, saturation, trail, stats, assign, rollback = make_state(
        neighbors, k
    )

    for v, color in preassigned:
        bit = 1 << color
        if saturation[v] == COLORED:
            if feasible[v] == bit:
                continue
            return None, tuple(stats)
        if not feasible[v] & bit:
            return None, tuple(stats)
        if not assign(v, bit):
            return None, tuple(stats)

    # propagation leaves no uncolored vertex with a single feasible color
    # (for k >= 2), so the first vertex at the lowest possible saturation
    # is usually the branching vertex and a full minimum scan is rare
    lowest = 2 if k > 1 else 1

    def walk(depth):
        stats[0] += 1
        try:
            vertex = saturation.index(lowest)
        except ValueError:
            fewest = min(saturation, default=COLORED)
            if fewest == COLORED:
                return True
            vertex = saturation.index(fewest)
        depth += 1
        if depth > stats[1]:
            stats[1] = depth
        mask = feasible[vertex]
        while mask:
            bit = mask & -mask
            mask ^= bit
            t_mark = len(trail)
            if assign(vertex, bit):
                if walk(depth):
                    return True
            else:
                stats[3] += 1
            rollback(t_mark)
        return False

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, len(neighbors) + 512))
    try:
        found = walk(0)
    finally:
        sys.setrecursionlimit(old_limit)
    if not found:
        return None, tuple(stats)
    return [mask.bit_length() - 1 for mask in feasible], tuple(stats)
