"""Backtracking color search with unit propagation over bitsets: the kernel
behind coloring.search_k_coloring.

Vertex v is bit v of a Python int, so each set of vertices is one int: the
graph arrives as one mask of neighbours per vertex, and the search state is
1 + 2k of them (San Segundo, Rodríguez-Losada & Jiménez, "An exact
bit-parallel algorithm for the maximum clique problem", Comput. Oper. Res.
2011, for bitboards in exact graph search):

* uncolored: the vertices not yet colored;
* feasible[c]: the uncolored vertices where color c is still allowed;
* colored[c]: the vertices colored c.

A child state is built afresh from its parent's, so backtracking only drops
it.  Propagation runs in rounds.  In each round, for each color c, every
vertex forced to c is colored at once, the union of their neighbour masks
is formed, and c is stripped from those neighbours.  Then carry logic over
feasible finds the uncolored vertices with no color left (a conflict) and
those with exactly one; the ones among them that lost a color in the round
are forced in the next round.  Unit propagation has a unique fixpoint, so
this reaches the same state and the same conflicts as propagating one
vertex at a time.

Branching is saturation-first (DSATUR, Brélaz 1979): each decision colors
the uncolored vertex with the fewest feasible colors, the lowest index of
the graph it is given among ties, trying its feasible colors in increasing
order.  coloring.search_k_coloring hands it the k-core relabeled by
decreasing core degree, so ties go to the highest degree first.
"""

from __future__ import annotations

import sys
from itertools import accumulate
from operator import or_


def make_search(masks, k):
    """The search's root state and its propagation step for a k-coloring of
    the graph with neighbour bitmasks masks (bit w of masks[v] is set when
    w neighbours v).

    Returns (root, assign, stats).  A state is a tuple (uncolored, feasible,
    colored) of an int and two k-tuples of ints, as described above; in
    root every vertex is uncolored with every color feasible.
    assign(state, v, color) returns the state with v colored color and
    propagated to its fixpoint, or None on a conflict; it returns state
    itself if v is colored color already, and None if color is not
    feasible for v.  It never changes state.  stats is the list [nodes
    visited, max depth, forced, conflicts, backtracks], which search fills
    in; assign adds to forced the vertices each propagation round left with
    one color, in every round that ends without a conflict.
    """
    if k < 1 or k > 32:
        raise ValueError("color count must be between 1 and 32")
    n = len(masks)
    bits = [1 << v for v in range(n)]
    stats = [0, 0, 0, 0, 0]

    def propagate(uncolored, feasible, colored, forced):
        # colors each vertex of forced with its one feasible color, and then
        # every vertex that propagation forces in turn, updating the lists
        # feasible and colored in place.  No vertex of feasible[c]
        # neighbours colored[c], as coloring a vertex strips its color from
        # its neighbours, so only vertices forced to c together can clash.
        while forced:
            # one: the uncolored vertices with a feasible color; two: with two
            lost = one = two = 0
            for c, left in enumerate(feasible):
                batch = left & forced
                if batch:
                    v = batch.bit_length() - 1
                    hit = masks[v]
                    rest = batch ^ bits[v]
                    while rest:
                        v = rest.bit_length() - 1
                        hit |= masks[v]
                        rest ^= bits[v]
                    if hit & batch:
                        return None
                    colored[c] |= batch
                    uncolored ^= batch
                    left ^= batch
                    stripped = left & hit
                    lost |= stripped
                    left ^= stripped
                    feasible[c] = left
                two |= one & left
                one |= left
            if one != uncolored:
                return None
            # a vertex with one color left that lost none in this round was
            # never narrowed (k == 1 before any decision), so it is branched on
            forced = lost & ~two
            stats[2] += forced.bit_count()
        return uncolored, tuple(feasible), tuple(colored)

    def assign(state, v, color):
        uncolored, feasible, colored = state
        bit = bits[v]
        if colored[color] & bit:
            return state
        if not feasible[color] & bit:
            return None
        others = ~bit
        child = [left & others for left in feasible]
        child[color] = feasible[color]
        return propagate(uncolored, child, list(colored), bit)

    everyone = (1 << n) - 1
    return (everyone, (everyone,) * k, (0,) * k), assign, stats


def search(masks, k, preassigned):
    """Depth-first search for a proper k-coloring, branching saturation-first.

    The graph is given by its neighbour bitmasks, as for make_search.
    preassigned is a sequence of (vertex, color) pairs applied with full
    propagation before the search.  Returns (colors_or_None,
    (nodes_visited, max_depth, forced, conflicts, backtracks)):
    nodes_visited counts search nodes (calls of the recursive walk),
    max_depth is the largest number of branching decisions on one path,
    forced counts feasible sets narrowed to one color by propagation (see
    make_search), conflicts counts branching assignments that propagation
    refuted, and backtracks counts branching assignments that propagation
    accepted but whose subtree holds no coloring.
    """
    state, assign, stats = make_search(masks, k)
    for v, color in preassigned:
        state = assign(state, v, color) if 0 <= color < k else None
        if state is None:
            return None, tuple(stats)

    colors = range(k)

    def fewest(feasible):
        # the lowest-index vertex with the fewest feasible colors; for
        # j = 1, 2, ... in turn, layer[c] holds the vertices with at least j
        # feasible colors among colors 0..c, and above those with j + 1
        layer = list(accumulate(feasible, or_))
        while True:
            above = 0
            next_layer = [0]
            for c in range(1, k):
                above |= layer[c - 1] & feasible[c]
                next_layer.append(above)
            exact = layer[-1] ^ above
            if exact:
                return (exact & -exact).bit_length() - 1
            layer = next_layer

    def walk(state, depth):
        stats[0] += 1
        uncolored, feasible, colored = state
        if not uncolored:
            return colored
        depth += 1
        if depth > stats[1]:
            stats[1] = depth
        vertex = fewest(feasible)
        bit = 1 << vertex
        for c in colors:
            if feasible[c] & bit:
                child = assign(state, vertex, c)
                if child is None:
                    stats[3] += 1
                    continue
                found = walk(child, depth)
                if found is not None:
                    return found
                stats[4] += 1
        return None

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, len(masks) + 512))
    try:
        colored = walk(state, 0)
    finally:
        sys.setrecursionlimit(old_limit)
    if colored is None:
        return None, tuple(stats)
    coloring = [0] * len(masks)
    for c, members in enumerate(colored):
        while members:
            v = members.bit_length() - 1
            coloring[v] = c
            members ^= 1 << v
    return coloring, tuple(stats)
