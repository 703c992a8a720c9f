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

A long search is split across the CPUs of this process's affinity set, as
in Cube-and-Conquer (Heule, Kullmann, Wieringa & Biere, HVC 2011): after
NODE_BUDGET nodes in this process, the subtrees SPLIT_DEPTH decisions deep
that the walk has not yet entered go, in depth-first order, to a pool of
forked workers that run the same walk.  Their results are read in that
order up to the first coloring, so the coloring and every counter equal
the serial search's (see split_search).  The pool uses the fork start
method: the workers inherit the neighbour masks, and nothing is imported
again.  Python 3.12 and later warn when forking a process that has
threads, such as the thread numpy's OpenBLAS starts; that warning is an
error under -W error.
"""

from __future__ import annotations

import logging
import os
import sys
import time
from itertools import accumulate
from operator import or_

logger = logging.getLogger(__name__)

#: a split search defers the subtrees this many branching decisions deep
SPLIT_DEPTH = 5
#: nodes a search visits in its own process before it defers any subtree:
#: more than the final graph's 5-witness (711) and the order-226 graph's
#: 4-decision (37) take, so those never start a process
NODE_BUDGET = 1000
#: seconds a split search waits for its next subtree result before it checks
#: that no worker has died
POLL_S = 0.25


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


def make_walk(masks, k, split=-1, budget=0):
    """The depth-first search over the graph with neighbour bitmasks masks
    for a k-coloring, branching saturation-first.

    Returns (root, assign, walk, stats, deferred): root, assign and stats
    are those of make_search.  walk(state, depth) searches the subtree below
    state, a node depth branching decisions below the root, and returns the
    colored tuple of the first coloring it finds in depth-first order, or
    None.  Once stats counts budget nodes, walk enters no node split
    decisions deep: it appends (state, depth, the counters so far) to the
    list deferred and returns None, as if that subtree held no coloring.
    With split = -1 it defers nothing.
    """
    root, assign, stats = make_search(masks, k)
    colors = range(k)
    deferred = []

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
        if depth == split and stats[0] >= budget:
            deferred.append((state, depth, tuple(stats)))
            return None
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

    return root, assign, walk, stats, deferred


def search(masks, k, preassigned):
    """Depth-first search for a proper k-coloring, branching saturation-first,
    in this process alone.

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
    coloring, counts, _ = split_search(masks, k, preassigned, workers=1)
    return coloring, counts


def split_search(masks, k, preassigned, depth=SPLIT_DEPTH, workers=None,
                 budget=NODE_BUDGET):
    """search, with the subtrees depth decisions deep that the walk meets
    after its first budget nodes searched by a pool of forked processes.

    The parent walks the tree as search does until it has visited budget
    nodes.  From then on it defers each node depth decisions deep, with a
    snapshot of its counters, and walks on above them (see make_walk).  The
    deferred subtrees go in depth-first order to min(workers, subtrees)
    processes; each searches its subtrees with counters of its own.  The
    serial result is then rebuilt: up to the first deferred subtree that
    holds a coloring, the counters are the parent's snapshot there plus
    those of every subtree up to it (max_depth their maximum); when none
    does, the parent's final counters plus those of every subtree.  So the
    coloring and counters equal search's exactly.

    workers defaults to the number of CPUs in this process's affinity set,
    1 where the platform reports none.  With one worker, or where the
    platform cannot fork, nothing is deferred; a single deferred subtree is
    searched in this process.  A search that stays within budget nodes
    imports no multiprocessing.  Returns (colors_or_None, counters as for
    search, the number of processes that searched at once).  No worker
    outlives the call, on an early coloring or an error too.
    """
    if workers is None:
        workers = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    if not hasattr(os, "fork"):
        workers = 1
    state, assign, walk, stats, deferred = make_walk(
        masks, k, depth if workers > 1 else -1, budget
    )
    for v, color in preassigned:
        state = assign(state, v, color) if 0 <= color < k else None
        if state is None:
            return None, tuple(stats), 1

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, len(masks) + 512))
    try:
        colored = walk(state, 0)
        counts = tuple(stats)
        workers = max(1, min(workers, len(deferred)))
        if workers > 1:
            colored, counts = _replay_in_pool(masks, k, deferred, workers, colored, counts)
        elif deferred:
            results = map(_subtree_searcher(masks, k), [task[:2] for task in deferred])
            colored, counts = _replay(deferred, results, colored, counts)
    finally:
        sys.setrecursionlimit(old_limit)
    if colored is None:
        return None, counts, workers
    coloring = [0] * len(masks)
    for c, members in enumerate(colored):
        while members:
            v = members.bit_length() - 1
            coloring[v] = c
            members ^= 1 << v
    return coloring, counts, workers


def _add(a, b):
    """Counters of two stretches of one search, one after the other."""
    return (a[0] + b[0], max(a[1], b[1]), a[2] + b[2], a[3] + b[3], a[4] + b[4])


def _replay(deferred, results, colored, counts):
    """The serial (colored, counters) from the parent's walk, which ended
    with colored and counts, and the (colored, counters) of each deferred
    subtree in order, read only up to the first that holds a coloring."""
    done = (0, 0, 0, 0, 0)
    for (_, _, before), (found, sub) in zip(deferred, results):
        done = _add(done, sub)
        if found is not None:
            return found, _add(before, done)
    return colored, _add(counts, done)


def _replay_in_pool(masks, k, deferred, workers, colored, counts):
    """_replay over the deferred subtrees searched by a pool of workers
    forked processes, which it terminates before returning or raising.

    A pool replaces a worker that dies, say killed by the out-of-memory
    killer, and never yields the subtree that worker held.  Each worker
    counts itself in at start, so once the count is above workers a worker
    has died, and the next wait of POLL_S seconds for a result raises
    RuntimeError instead of waiting for ever."""
    import multiprocessing

    started = time.perf_counter()
    tasks = [task[:2] for task in deferred]
    context = multiprocessing.get_context("fork")
    starts = context.Value("i", 0)
    # forked, the workers inherit masks, the start count and the raised
    # recursion limit without pickling; only the subtrees' states and
    # results are pickled
    with context.Pool(workers, _start_worker, (masks, k, starts)) as pool:
        results = _checked_results(pool.imap(_search_subtree, tasks), starts, workers)
        found = _replay(deferred, results, colored, counts)
    logger.info(
        "split search: %d subtrees on %d workers, %.3f s",
        len(tasks), workers, time.perf_counter() - started,
    )
    return found


def _checked_results(iterator, starts, workers):
    """The results of a pool's imap iterator, in order; RuntimeError when a
    wait for one times out after more than workers processes started."""
    from multiprocessing import TimeoutError

    while True:
        try:
            yield iterator.next(timeout=POLL_S)
        except StopIteration:
            return
        except TimeoutError:
            if starts.value > workers:
                raise RuntimeError(
                    "a split-search worker died and its subtree was lost"
                ) from None


def _subtree_searcher(masks, k):
    """A function that searches one deferred subtree (state, depth) with
    fresh counters and returns (colored or None, its counters)."""
    _, _, walk, stats, _ = make_walk(masks, k)

    def search_subtree(task):
        stats[:] = [0, 0, 0, 0, 0]
        found = walk(*task)
        return found, tuple(stats)

    return search_subtree


#: in a pool worker, the searcher that _start_worker built for its search
_worker_search = None


def _start_worker(masks, k, starts):
    global _worker_search
    import signal

    # an interrupt reaches the parent, which terminates the pool
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    with starts.get_lock():
        starts.value += 1
    _worker_search = _subtree_searcher(masks, k)


def _search_subtree(task):
    return _worker_search(task)
