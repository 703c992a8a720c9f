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

Per node, the search's cost is the interpreter's dispatch of these
per-color steps, not the big-int work.  So the propagation, the assignment
of each color and the choice of the branching vertex are rendered from one
source template for the requested k (_render), with the k feasible and k
colored sets as locals f0.. and c0.. and every per-color step written out:
the forced batches (a single vertex takes a fast path), the carry and the
layers of fewest.  The code is compiled once per k in a process, on the
first search with that k, so forked workers inherit it.  The loop form it
was unrolled from is the tests' reference (tests/test_coloring.py): the
rendered kernel must match it in trees, counters and states.

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

import functools
import logging
import os
import sys
import time

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


def make_walk(masks, k, split=-1):
    """The depth-first search over the graph with neighbour bitmasks masks
    (bit w of masks[v] is set when w neighbours v) for a k-coloring,
    branching saturation-first.

    Returns (root, assign, walk, stats, deferred).  A state is a tuple
    (uncolored, feasible, colored) of an int and two k-tuples of ints, as
    described above; in root every vertex is uncolored with every color
    feasible.  assign(state, v, color) returns the state with v colored
    color and propagated to its fixpoint, or None on a conflict; it returns
    state itself if v is colored color already, and None if color is not
    feasible for v.  It never changes state.  stats is the list [nodes
    visited, max depth, forced, conflicts, backtracks], which walk fills
    in; assign adds to forced the vertices each propagation round left with
    one color, in every round that ends without a conflict.

    walk(state, depth) searches the subtree below state, a node depth
    branching decisions below the root, and returns the colored tuple of
    the first coloring it finds in depth-first order, or None.  Once stats
    counts NODE_BUDGET nodes, walk enters no node split decisions deep: it
    appends (state, depth, the counters so far) to the list deferred and
    returns None, as if that subtree held no coloring.  With split = -1 it
    defers nothing.
    """
    if k < 1 or k > 32:
        raise ValueError("color count must be between 1 and 32")
    n = len(masks)
    stats = [0, 0, 0, 0, 0]
    assign, steps, fewest = _kernel(k)(masks, [1 << v for v in range(n)], stats)
    everyone = (1 << n) - 1
    colors = range(k)
    deferred = []

    def walk(state, depth):
        if depth == split and stats[0] >= NODE_BUDGET:
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
                child = steps[c](uncolored, feasible, colored, vertex)
                if child is None:
                    stats[3] += 1
                    continue
                found = walk(child, depth)
                if found is not None:
                    return found
                stats[4] += 1
        return None

    return (everyone, (everyone,) * k, (0,) * k), assign, walk, stats, deferred


def search(masks, k, preassigned):
    """Depth-first search for a proper k-coloring, branching saturation-first,
    in this process alone.

    The graph is given by its neighbour bitmasks, as for make_walk.
    preassigned is a sequence of (vertex, color) pairs applied with full
    propagation before the search.  Returns (colors_or_None,
    (nodes_visited, max_depth, forced, conflicts, backtracks)):
    nodes_visited counts search nodes (calls of the recursive walk),
    max_depth is the largest number of branching decisions on one path,
    forced counts feasible sets narrowed to one color by propagation (see
    make_walk), conflicts counts branching assignments that propagation
    refuted, and backtracks counts branching assignments that propagation
    accepted but whose subtree holds no coloring.
    """
    coloring, counts, _ = split_search(masks, k, preassigned, workers=1)
    return coloring, counts


def split_search(masks, k, preassigned, workers=None):
    """search, with the subtrees SPLIT_DEPTH decisions deep that the walk
    meets after its first NODE_BUDGET nodes searched by a pool of forked
    processes.

    The parent walks the tree as search does until it has visited
    NODE_BUDGET nodes.  From then on it defers each node SPLIT_DEPTH
    decisions deep, with a snapshot of its counters, and walks on above
    them (see make_walk).  The deferred subtrees go in depth-first order to
    min(workers, subtrees) processes; each searches its subtrees with
    counters of its own.  The serial result is then rebuilt: up to the
    first deferred subtree that holds a coloring, the counters are the
    parent's snapshot there plus those of every subtree up to it
    (max_depth their maximum); when none does, the parent's final counters
    plus those of every subtree.  So the coloring and counters equal
    search's exactly.

    workers defaults to the number of CPUs in this process's affinity set,
    1 where the platform reports none.  With one worker, or where the
    platform cannot fork, nothing is deferred; a single deferred subtree is
    searched in this process.  A search that stays within NODE_BUDGET nodes
    imports no multiprocessing.  Returns (colors_or_None, counters as for
    search, the number of processes that searched at once).  No worker
    outlives the call, on an early coloring or an error too.
    """
    if workers is None:
        workers = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    if not hasattr(os, "fork"):
        workers = 1
    state, assign, walk, stats, deferred = make_walk(
        masks, k, SPLIT_DEPTH if workers > 1 else -1
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


@functools.cache
def _kernel(k):
    """The kernel for k colors: _render(k), compiled on first use in this
    process, so forked workers inherit it.  Calling it with (masks, bits,
    stats), bits[v] being 1 << v, returns (assign, steps, fewest): assign
    is make_walk's; steps[c](uncolored, feasible, colored, v) is assign
    of color c to the uncolored vertex v, where c is feasible, without
    assign's checks; fewest(feasible) is the branching vertex."""
    namespace = {}
    exec(compile(_render(k), f"<colorsearch kernel, k={k}>", "exec"), namespace)
    return namespace["kernel"]


def _render(k):
    """The source of the kernel for k colors: _KERNEL, with _STRIP and
    _STEP once per color, and the carry and fewest's layers written out
    over the locals f0.. (feasible) and c0.. (colored)."""
    colors = range(k)
    f = ", ".join(f"f{c}" for c in colors)
    cs = ", ".join(f"c{c}" for c in colors)
    # one: the vertices with a feasible color; two: with two
    carry = ["one = f0", "two = 0"] if k == 1 else ["two = f0 & f1", "one = f0 | f1"]
    for c in range(2, k):
        carry += [f"two |= one & f{c}", f"one |= f{c}"]
    # l{j}_{c}: the vertices with at least j feasible colors among 0..c; the
    # lowest of those with exactly j over all colors, for j = 1, 2, ...
    lowest = "return (exact & -exact).bit_length() - 1"
    layers = ["l1_0 = f0"] + [f"l1_{c} = l1_{c - 1} | f{c}" for c in range(1, k)]
    for j in range(2, k + 1):
        layers.append(f"l{j}_{j - 1} = l{j - 1}_{j - 2} & f{j - 1}")
        layers += [f"l{j}_{c} = l{j}_{c - 1} | l{j - 1}_{c - 1} & f{c}" for c in range(j, k)]
        layers += [f"exact = l{j - 1}_{k - 1} ^ l{j}_{k - 1}", "if exact:", f"    {lowest}"]
    layers += [f"exact = l{k}_{k - 1}", lowest]

    def lines(code, indent):
        return "".join(f"{' ' * indent}{line}\n" for line in code)

    return _KERNEL.format(
        f=f,
        cs=cs,
        strip="".join(_STRIP.format(c=c) for c in colors),
        carry=lines(carry, 12),
        steps="".join(
            _STEP.format(
                c=c, f=f, cs=cs, carry=lines(carry, 8),
                others=lines([f"f{d} &= others" for d in colors if d != c], 8),
            )
            for c in colors
        ),
        step_names=", ".join(f"step{c}" for c in colors),
        layers=lines(layers, 8),
    )


# The rendered kernel; see the module docstring for what propagate does,
# and make_walk for assign.  No vertex of feasible[c] neighbours
# colored[c], as coloring a vertex strips its color from its neighbours,
# so only vertices forced to c together can clash.  A forced vertex has one
# feasible color, so the batches of one round are disjoint and together
# are forced.
_KERNEL = """\
def kernel(masks, bits, stats):
    def propagate(uncolored, {f}, {cs}, forced):
        while forced:
            uncolored ^= forced
            lost = 0
{strip}{carry}\
            if one != uncolored:
                return None
            # a vertex with one color left that lost none in this round was
            # never narrowed (k == 1 before any decision), so it is branched on
            forced = lost & ~two
            stats[2] += forced.bit_count()
        return uncolored, ({f},), ({cs},)
{steps}
    steps = ({step_names},)

    def assign(state, v, color):
        uncolored, feasible, colored = state
        bit = bits[v]
        if colored[color] & bit:
            return state
        if not feasible[color] & bit:
            return None
        return steps[color](uncolored, feasible, colored, v)

    def fewest(feasible):
        # the lowest-index vertex with the fewest feasible colors
        {f}, = feasible
{layers}
    return assign, steps, fewest
"""

# one color's forced batch in a round of propagate: color it, and strip the
# color from the neighbours of the batch, which holds none of them once
# hit & batch is 0
_STRIP = """\
            batch = f{c} & forced
            if batch:
                if batch & (batch - 1):
                    hit = 0
                    rest = batch
                    while rest:
                        v = rest.bit_length() - 1
                        hit |= masks[v]
                        rest ^= bits[v]
                else:
                    hit = masks[batch.bit_length() - 1]
                if hit & batch:
                    return None
                c{c} |= batch
                stripped = f{c} & hit
                lost |= stripped
                f{c} ^= batch | stripped
"""

# assign of color c to the uncolored vertex v, where c is feasible: the
# first round of propagate, with the batch v alone, then the rounds it forces
_STEP = """
    def step{c}(uncolored, feasible, colored, v):
        {f}, = feasible
        {cs}, = colored
        bit = bits[v]
        hit = masks[v]
        if hit & bit:
            return None
        uncolored ^= bit
        c{c} |= bit
        lost = f{c} & hit
        f{c} ^= bit | lost
        others = ~bit
{others}{carry}\
        if one != uncolored:
            return None
        forced = lost & ~two
        if forced:
            stats[2] += forced.bit_count()
            return propagate(uncolored, {f}, {cs}, forced)
        return uncolored, ({f},), ({cs},)
"""
