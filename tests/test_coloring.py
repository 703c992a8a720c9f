import hashlib
import logging
import multiprocessing
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from hypchrom import _colorsearch_py
from hypchrom.coloring import (
    UNCOLORED,
    AdjacencyGraph,
    _greedy_extension,
    brute_force_chromatic,
    brute_force_k_colorable,
    chromatic_number,
    find_coloring_reordered,
    greedy_seed_clique,
    k_core,
    minimal_non_k_prefix,
    moser_spindle,
    search_k_coloring,
    smallest_last_order,
    verify_coloring,
)


def random_graph(rng, n, p):
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return AdjacencyGraph(n, edges)


graph_strategy = st.builds(
    lambda seed, n, p: random_graph(random.Random(seed), n, p),
    st.integers(0, 10**6),
    st.integers(1, 9),
    st.sampled_from([0.3, 0.5, 0.7]),
)


class TestAdjacencyGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            AdjacencyGraph(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            AdjacencyGraph(3, [(0, 3)])

    def test_symmetric_neighbors(self):
        g = AdjacencyGraph(4, [(0, 2), (2, 3)])
        assert g.neighbors[0] == (2,)
        assert g.neighbors[2] == (0, 3)
        assert g.size == 2

    def test_prefix(self, pipeline):
        g = AdjacencyGraph(5, [(0, 1), (1, 4), (3, 4)])
        sub = g.induced_prefix(4)
        assert sub.n == 4
        assert sub.edges() == [(0, 1)]
        # the final graph's prefixes equal the edge-filter construction
        g = AdjacencyGraph.from_graph(pipeline[-1])
        for m in (0, 1, 9, 622, 709, g.n):
            want = AdjacencyGraph(m, [(i, j) for i, j in g.edges() if j < m])
            assert g.induced_prefix(m).neighbors == want.neighbors, m
        with pytest.raises(ValueError):
            g.induced_prefix(g.n + 1)


def neighbor_masks(g):
    """The kernel's input for g: bit w of masks[v] is set when w neighbours v."""
    return [sum(1 << w for w in nbrs) for nbrs in g.neighbors]


def kernel_state(g, k):
    """The pure-Python kernel's root state, assign step and counters for g,
    as search() builds them."""
    return _colorsearch_py.make_search(neighbor_masks(g), k)


def feasible_mask(state, v):
    """The colors still feasible for uncolored vertex v, as a bitmask."""
    _, feasible, _ = state
    return sum(1 << c for c, members in enumerate(feasible) if members >> v & 1)


def color_of(state, v):
    """The color of vertex v in state, or None while v is uncolored."""
    uncolored, _, colored = state
    if uncolored >> v & 1:
        return None
    (color,) = [c for c, members in enumerate(colored) if members >> v & 1]
    return color


class TestAssignPropagate:
    def test_isolated_vertex_no_propagation(self):
        g = AdjacencyGraph(3, [(1, 2)])
        root, assign, stats = kernel_state(g, 3)
        state = assign(root, 0, 1)
        assert state is not None
        assert color_of(state, 0) == 1
        assert feasible_mask(state, 0) == 0
        assert stats[2] == 0
        assert feasible_mask(state, 1) == 0b111
        assert color_of(state, 1) is None

    def test_neighbor_loses_color_and_saturation(self):
        g = AdjacencyGraph(3, [(0, 1), (1, 2)])
        root, assign, stats = kernel_state(g, 3)
        state = assign(root, 1, 0)
        assert state is not None
        assert feasible_mask(state, 0) == feasible_mask(state, 2) == 0b110
        assert color_of(state, 0) is color_of(state, 2) is None
        assert stats[2] == 0

    def test_triangle_forces_third_color(self):
        g = AdjacencyGraph(3, [(0, 1), (0, 2), (1, 2)])
        root, assign, stats = kernel_state(g, 3)
        state = assign(root, 0, 0)
        assert state is not None
        state = assign(state, 1, 1)
        assert state is not None
        # vertex 2 was left with one feasible color and was force-assigned
        assert color_of(state, 2) == 2
        assert stats[2] == 1

    def test_spindle_conflict_under_three_colors(self):
        g = moser_spindle()
        root, assign, _ = kernel_state(g, 3)
        state = assign(root, 0, 0)
        assert state is not None
        # forces the rest of the first rhombus
        state = assign(state, 1, 1)
        assert state is not None
        assert color_of(state, 2) == 2 and color_of(state, 3) == 0
        # coloring the second rhombus apex empties a feasible set
        assert assign(state, 4, 1) is None

    def test_colored_vertex_keeps_its_color_only(self):
        g = AdjacencyGraph(2, [(0, 1)])
        root, assign, _ = kernel_state(g, 2)
        state = assign(root, 0, 0)
        assert state is not None
        assert assign(state, 0, 0) is state
        assert assign(state, 0, 1) is None

    @given(graph_strategy, st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_rollback_restores_bit_exact(self, g, seed):
        # there is no rollback: a child state is built afresh, so
        # backtracking drops it, and propagation must never change the
        # state it starts from
        rng = random.Random(seed)
        state, assign, _ = kernel_state(g, 4)

        def assign_random(state):
            v = rng.randrange(g.n)
            color = rng.randrange(4)
            if color_of(state, v) is None and feasible_mask(state, v) >> color & 1:
                return assign(state, v, color)
            return state

        def snapshot(state):
            uncolored, feasible, colored = state
            return uncolored, list(feasible), list(colored)

        # start from a partial coloring, as the search does below the root
        for _ in range(rng.randrange(3)):
            child = assign_random(state)
            if child is None:
                break
            state = child
        before = snapshot(state)
        assign_random(state)
        assert snapshot(state) == before


class TestSearch:
    def test_single_vertex_one_color(self):
        g = AdjacencyGraph(1, [])
        coloring, _ = search_k_coloring(g, 1)
        assert coloring == [0]

    def test_edgeless_graph_chromatic_one(self):
        g = AdjacencyGraph(5, [])
        assert chromatic_number(g) == 1

    def test_spindle_not_three_colorable(self):
        g = moser_spindle()
        coloring, _ = search_k_coloring(g, 3)
        assert coloring is None

    def test_spindle_chromatic_four_by_both_methods(self):
        g = moser_spindle()
        assert chromatic_number(g) == 4
        assert brute_force_chromatic(g) == 4

    def test_pipeline_phase_two_graph_chromatic_four(self, g42):
        adj = AdjacencyGraph.from_graph(g42)
        assert chromatic_number(adj) == 4

    def test_rejects_bad_k(self):
        g = AdjacencyGraph(2, [(0, 1)])
        with pytest.raises(ValueError):
            search_k_coloring(g, 0)
        with pytest.raises(ValueError):
            search_k_coloring(g, 33)

    def test_witness_always_verifies(self):
        rng = random.Random(5)
        for _ in range(25):
            g = random_graph(rng, rng.randint(1, 10), 0.5)
            for k in (2, 3, 4):
                coloring, _ = search_k_coloring(g, k)
                if coloring is not None:
                    assert verify_coloring(g, coloring)

    def test_verdict_matches_exhaustive_enumeration(self):
        rng = random.Random(99)
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 10), rng.choice([0.3, 0.5, 0.7]))
            for k in (2, 3, 4):
                coloring, _ = search_k_coloring(g, k)
                assert (coloring is not None) == brute_force_k_colorable(g, k)

    def test_symmetry_break_preserves_verdict(self):
        rng = random.Random(17)
        for _ in range(20):
            g = random_graph(rng, rng.randint(2, 9), 0.5)
            for k in (2, 3, 4):
                with_sb, _ = search_k_coloring(g, k, symmetry_break=True)
                without, _ = search_k_coloring(g, k, symmetry_break=False)
                assert (with_sb is None) == (without is None)

    def test_greedy_seed_clique_on_seed_graph(self, g9):
        adj = AdjacencyGraph.from_graph(g9)
        clique = greedy_seed_clique(neighbor_masks(adj))
        assert clique[:3] == [0, 1, 2]
        for i in clique:
            for j in clique:
                if i != j:
                    assert j in adj.neighbors[i]


def octahedron():
    """K(2,2,2): every vertex has degree 4, so the graph is its own 4-core."""
    return AdjacencyGraph(
        6, [(i, j) for i in range(6) for j in range(i + 1, 6) if j != i + 3]
    )


class TestStats:
    def test_stats_sanity(self):
        g = octahedron()
        coloring, stats = search_k_coloring(g, 4, symmetry_break=False)
        assert coloring is not None
        assert stats.core_order == g.n
        assert stats.max_depth <= g.n
        assert stats.nodes_visited >= g.n
        assert stats.forced_assignments >= 0
        assert stats.elapsed >= 0
        # the spindle has no vertex of degree 4 or more, so its 4-core is
        # empty and nothing is searched
        _, stats = search_k_coloring(moser_spindle(), 4, symmetry_break=False)
        assert stats.core_order == 0

    def test_unsat_depth_below_order(self):
        g = moser_spindle()
        _, stats = search_k_coloring(g, 3, symmetry_break=False)
        assert stats.max_depth <= g.n

    def test_spindle_three_coloring_meets_conflicts(self):
        _, stats = search_k_coloring(moser_spindle(), 3)
        assert stats.conflicts >= 1

    def test_path_has_no_conflicts(self):
        g = AdjacencyGraph(6, [(i, i + 1) for i in range(5)])
        for k in (2, 3):
            coloring, stats = search_k_coloring(g, k)
            assert coloring is not None
            assert stats.conflicts == 0
            assert stats.backtracks == 0

    def test_spindle_three_coloring_backtracks(self):
        # with the clique pre-colored, both colors of the first branching
        # vertex fail in propagation, so no subtree is entered
        _, stats = search_k_coloring(moser_spindle(), 3)
        assert (stats.nodes_visited, stats.conflicts, stats.backtracks) == (1, 2, 0)
        # without it, every subtree entered fails: all nodes but the root
        _, stats = search_k_coloring(moser_spindle(), 3, symmetry_break=False)
        assert (stats.nodes_visited, stats.conflicts, stats.backtracks) == (10, 12, 9)


def wheel(rim):
    """A rim cycle on vertices 0..rim-1 and a hub, the highest index, joined
    to every rim vertex."""
    edges = [(i, (i + 1) % rim) for i in range(rim)]
    edges += [(i, rim) for i in range(rim)]
    return AdjacencyGraph(rim + 1, edges)


class TestDegreeRelabel:
    @pytest.mark.parametrize("rim", [5, 6, 7, 8])
    def test_wheel_coloring_in_caller_numbering(self, rim):
        g = wheel(rim)
        assert k_core(g, 0)[0][0] == rim
        for k in (3, 4):
            for symmetry_break in (True, False):
                coloring, _ = search_k_coloring(g, k, symmetry_break=symmetry_break)
                assert (coloring is not None) == brute_force_k_colorable(g, k)
                if coloring is not None:
                    assert verify_coloring(g, coloring)

    def test_degree_order_is_permutation_ties_by_index(self, g42):
        adj = AdjacencyGraph.from_graph(g42)
        order = k_core(adj, 0)[0]
        assert sorted(order) == list(range(adj.n))
        for u, v in zip(order, order[1:]):
            du, dv = len(adj.neighbors[u]), len(adj.neighbors[v])
            assert du > dv or (du == dv and u < v)

    def test_order_226_four_coloring_counters(self, pipeline):
        # pins the tie-break rule: the 4-core in core-degree order takes 37
        # nodes here; the whole graph in whole-graph degree order took 57,
        # and ties by index alone 117.  Propagation in rounds counts 186
        # forced assignments (189 when a vertex at a time)
        (g226,) = [g for g in pipeline if g.order == 226]
        adj = AdjacencyGraph.from_graph(g226)
        coloring, stats = search_k_coloring(adj, 4)
        assert coloring is not None and verify_coloring(adj, coloring)
        assert stats.nodes_visited == 37
        assert stats.forced_assignments == 186


def seeded_instances():
    """(graph, k, preassigned) on four seeded random graphs: k = 1 to 5,
    each without and with two vertices pre-colored."""
    rng = random.Random(2)
    for _ in range(4):
        n = rng.randint(10, 16)
        g = random_graph(rng, n, rng.choice([0.3, 0.4, 0.5]))
        for k in range(1, 6):
            pre = [(v, c % k) for c, v in enumerate(rng.sample(range(n), 2))]
            yield g, k, []
            yield g, k, pre


# (nodes, max depth, conflicts, coloring as digits) of the kernel on each of
# seeded_instances(), recorded from the kernel that propagated one vertex at
# a time and kept a trail
SEEDED_TREES = [
    (1, 1, 1, None),
    (0, 0, 0, None),
    (1, 1, 2, None),
    (0, 0, 0, None),
    (34, 5, 36, None),
    (0, 0, 0, None),
    (18, 13, 6, '0101001210022323'),
    (11, 10, 0, '1000000202111313'),
    (16, 15, 0, '0101001120033224'),
    (15, 14, 0, '2001000102011313'),
    (1, 1, 1, None),
    (0, 0, 0, None),
    (1, 1, 2, None),
    (0, 0, 0, None),
    (4, 2, 6, None),
    (0, 0, 0, None),
    (17, 3, 24, None),
    (1, 1, 2, None),
    (10, 7, 3, '0012131402431'),
    (8, 5, 3, '2241431021033'),
    (1, 1, 1, None),
    (0, 0, 0, None),
    (1, 1, 2, None),
    (0, 0, 0, None),
    (4, 2, 6, None),
    (0, 0, 0, None),
    (17, 3, 24, None),
    (1, 1, 2, None),
    (11, 10, 0, '01230121321044'),
    (9, 8, 0, '01231404211243'),
    (1, 1, 1, None),
    (0, 0, 0, None),
    (1, 1, 2, None),
    (0, 0, 0, None),
    (4, 2, 6, None),
    (0, 0, 0, None),
    (8, 7, 1, '0013023123013'),
    (6, 5, 1, '1103023023003'),
    (13, 12, 0, '0013021324031'),
    (12, 11, 0, '0210123123113'),
]


class TestSearchTreePins:
    """The search tree is fixed by the branching rule and the propagation
    fixpoint, not by how propagation is computed."""

    def test_final_graph_four_coloring_tree(self, pipeline):
        adj = AdjacencyGraph.from_graph(pipeline[-1])
        coloring, stats = search_k_coloring(adj, 4)
        assert coloring is None
        assert (stats.nodes_visited, stats.max_depth, stats.conflicts) == (22933, 34, 22934)
        assert stats.backtracks == stats.nodes_visited - 1

    def test_prefix_709_four_coloring_tree(self, pipeline):
        prefix = AdjacencyGraph.from_graph(pipeline[-1]).induced_prefix(709)
        coloring, stats = search_k_coloring(prefix, 4)
        assert coloring is None
        assert (stats.nodes_visited, stats.max_depth, stats.conflicts) == (26468, 37, 26469)

    def test_reordered_five_witness_nodes(self, pipeline):
        adj = AdjacencyGraph.from_graph(pipeline[-1])
        coloring, stats = find_coloring_reordered(adj, 5)
        assert coloring is not None and verify_coloring(adj, coloring)
        assert stats.nodes_visited == 711

    @pytest.mark.parametrize("find, order, k, digest", [
        (search_k_coloring, 1378, 5,
         "dac7907f9a7f2eaa25b57cd180647e3852a13ad27e63825e1dd1317147c9c543"),
        (find_coloring_reordered, 1378, 5,
         "506bbfe9227bcd0498437a98ed048a452103a350daffbe81f38f70499ff67500"),
        (search_k_coloring, 226, 4,
         "7a9b401924476c1a87d851e21db6ca5e488c90b283f3a59e0a46fe78fd076c1a"),
    ], ids=["search-1378-5", "reordered-1378-5", "search-226-4"])
    def test_witness_digest(self, pipeline, find, order, k, digest):
        # the witness, mapped back to the caller's numbering, is fixed too;
        # SHA-256 of its colors as bytes
        (g,) = [g for g in pipeline if g.order == order]
        coloring, _ = find(AdjacencyGraph.from_graph(g), k)
        assert hashlib.sha256(bytes(coloring)).hexdigest() == digest

    def test_one_color_branches_on_every_vertex(self):
        # with k = 1 every vertex starts with a single feasible color; only
        # a vertex that propagation narrowed is forced, so each of these is
        # branched on, as when propagating one vertex at a time
        search = _colorsearch_py.search
        assert search((0, 0, 0), 1, []) == ([0, 0, 0], (4, 3, 0, 0, 0))
        assert search((0, 0, 0), 1, [(1, 0)]) == ([0, 0, 0], (3, 2, 0, 0, 0))
        assert search((0, 0b100, 0b10), 1, []) == (None, (2, 2, 0, 1, 1))

    def test_seeded_random_trees(self):
        got = []
        for g, k, pre in seeded_instances():
            coloring, (nodes, depth, _, conflicts, _) = _colorsearch_py.search(
                neighbor_masks(g), k, pre
            )
            digits = None if coloring is None else "".join(map(str, coloring))
            got.append((nodes, depth, conflicts, digits))
        assert got == SEEDED_TREES


def core_kernel_input(g, k):
    """The neighbour bitmasks and pre-colored clique that search_k_coloring
    hands the kernel for g."""
    core, _ = k_core(g, k)
    bits = [0] * g.n
    for i, v in enumerate(core):
        bits[v] = 1 << i
    masks = [sum(bits[w] for w in g.neighbors[v]) for v in core]
    return masks, [(v, c) for c, v in enumerate(greedy_seed_clique(masks)[:k])]


def failing_subtree(task):
    raise RuntimeError("subtree search failed")


class TestSplitSearch:
    """split_search hands subtrees to forked workers and replays their
    counters in depth-first order; its coloring and counters are search's."""

    def test_seeded_instances_equal_serial_search(self):
        pooled = 0
        for g, k, pre in seeded_instances():
            masks = neighbor_masks(g)
            *got, workers = _colorsearch_py.split_search(
                masks, k, pre, depth=2, workers=2, budget=0
            )
            assert tuple(got) == _colorsearch_py.search(masks, k, pre), (g.edges(), k, pre)
            pooled += workers == 2
        # the other 25 end above depth 2 (some in the pre-coloring), or
        # leave one subtree there, which this process searches itself
        assert pooled == 15
        assert multiprocessing.active_children() == []

    def test_prefix_708_stops_at_first_coloring(self, pipeline, caplog):
        # at depth 3 the tree has 8 subtrees and the 6th holds the first
        # coloring; the counters stop there, with subtrees still running
        prefix = AdjacencyGraph.from_graph(pipeline[-1]).induced_prefix(708)
        masks, pre = core_kernel_input(prefix, 4)
        with caplog.at_level(logging.INFO, logger="hypchrom"):
            coloring, counts, workers = _colorsearch_py.split_search(
                masks, 4, pre, depth=3, workers=2, budget=0
            )
        assert multiprocessing.active_children() == []
        assert (coloring, counts) == _colorsearch_py.search(masks, 4, pre)
        assert counts[0] == 11268 and workers == 2
        (record,) = [r for r in caplog.records if r.name == "hypchrom._colorsearch_py"]
        assert record.getMessage().startswith("split search: 8 subtrees on 2 workers, ")

    def test_worker_error_reaches_caller_and_ends_pool(self, monkeypatch):
        g, k, pre = next(
            (g, k, pre) for g, k, pre in seeded_instances() if k == 3 and not pre
        )
        monkeypatch.setattr(_colorsearch_py, "_search_subtree", failing_subtree)
        with pytest.raises(RuntimeError, match="subtree search failed"):
            _colorsearch_py.split_search(
                neighbor_masks(g), k, pre, depth=1, workers=2, budget=0
            )
        assert multiprocessing.active_children() == []

    def test_search_within_budget_starts_no_process(self):
        # the order-226 graph's 4-decision: 37 nodes, 36 decisions deep
        code = (
            "import sys\n"
            "from hypchrom.augment import DEFAULT_SCHEDULE, AugmentConfig, grow_pipeline\n"
            "from hypchrom.coloring import AdjacencyGraph, search_k_coloring\n"
            "from hypchrom.geometry import build_g9\n"
            "g = grow_pipeline(build_g9(), DEFAULT_SCHEDULE[:5], AugmentConfig.reference())[-1]\n"
            "_, stats = search_k_coloring(AdjacencyGraph.from_graph(g), 4)\n"
            "assert (g.order, stats.nodes_visited, stats.workers) == (226, 37, 1), stats\n"
            "assert 'multiprocessing' not in sys.modules\n"
        )
        src = os.path.dirname(os.path.dirname(_colorsearch_py.__file__))
        done = subprocess.run([sys.executable, "-W", "error", "-c", code],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr


def with_pendants(rng, base):
    """base with pendant paths and trees hung on it, vertices shuffled."""
    n = base.n
    edges = base.edges()
    for _ in range(rng.randint(1, 4)):
        edges.append((rng.randrange(n), n))  # the anchor may be a new vertex
        n += 1
    perm = list(range(n))
    rng.shuffle(perm)
    return AdjacencyGraph(n, [(perm[i], perm[j]) for i, j in edges])


class TestCorePeeling:
    def test_verdict_matches_exhaustive_enumeration(self):
        rng = random.Random(31)
        for _ in range(40):
            base = random_graph(rng, rng.randint(1, 7), rng.choice([0.3, 0.5, 0.7]))
            g = with_pendants(rng, base)
            for k in (2, 3, 4):
                coloring, stats = search_k_coloring(g, k)
                assert (coloring is not None) == brute_force_k_colorable(g, k)
                assert stats.core_order <= base.n
                if coloring is not None:
                    assert verify_coloring(g, coloring)

    def test_peel_order_leaves_fewer_than_k_later_neighbours(self):
        rng = random.Random(32)
        for _ in range(20):
            g = with_pendants(rng, random_graph(rng, rng.randint(1, 9), 0.5))
            for k in (2, 3, 4):
                core, peeled = k_core(g, k)
                assert sorted(core + peeled) == list(range(g.n))
                later = set(core)
                for v in reversed(peeled):
                    assert len(later.intersection(g.neighbors[v])) < k
                    later.add(v)
                for v in core:
                    assert len(set(core).intersection(g.neighbors[v])) >= k

    @pytest.mark.parametrize("g, k", [
        (AdjacencyGraph(6, [(i, i + 1) for i in range(5)]), 2),
        (AdjacencyGraph(7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)]), 2),
        (moser_spindle(), 4),
    ])
    def test_empty_core_is_colored_greedily(self, g, k):
        for symmetry_break in (True, False):
            coloring, stats = search_k_coloring(g, k, symmetry_break=symmetry_break)
            assert coloring is not None and verify_coloring(g, coloring)
            assert max(coloring) < k
            assert stats.core_order == 0

    def test_bad_k_rejected_when_core_is_empty(self):
        path = AdjacencyGraph(4, [(0, 1), (1, 2), (2, 3)])
        for g, k in ((path, 33), (path, 0), (AdjacencyGraph(0, []), 0)):
            with pytest.raises(ValueError):
                search_k_coloring(g, k)

    def test_order_226_four_core(self, pipeline):
        (g226,) = [g for g in pipeline if g.order == 226]
        _, stats = search_k_coloring(AdjacencyGraph.from_graph(g226), 4)
        assert stats.core_order == 194


class TestPrefix:
    def test_odd_cycle_completed_by_last_vertex(self):
        # pentagon plus a pendant path: the cycle closes at vertex 4, so the
        # minimal non-2-colorable prefix is 5
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (4, 5), (5, 6)]
        g = AdjacencyGraph(7, edges)
        assert minimal_non_k_prefix(g, 2) == 5

    def test_logs_one_line_per_probe(self, caplog):
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (4, 5), (5, 6)]
        g = AdjacencyGraph(7, edges)
        with caplog.at_level(logging.INFO, logger="hypchrom"):
            assert minimal_non_k_prefix(g, 2) == 5
        records = [r for r in caplog.records if r.name == "hypchrom.coloring"]
        # the full graph, whose 2-core (the pentagon 0-4) puts the upper
        # end at 5, then the binary search over [1, 5]: 3, 4
        probes = [r.getMessage().split(",")[0] for r in records]
        assert probes == ["prefix 7: UNSAT", "prefix 3: SAT", "prefix 4: SAT"]
        assert all(r.levelno == logging.INFO for r in records)
        assert all(" nodes, " in r.getMessage() for r in records)
        # the 2-core is the pentagon whenever the prefix closes it
        cores = [r.getMessage().split(", ")[2] for r in records]
        assert cores == ["core 5", "core 0", "core 0"]

    def test_unsat_probe_lowers_upper_end_to_its_core(self, caplog):
        # a triangle at 0-2, a path 2-3-4-5-6-7, and nothing odd after it:
        # the 2-core of every UNSAT prefix is the triangle, so after the
        # whole graph only prefixes below 3 are probed
        edges = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)]
        g = AdjacencyGraph(8, edges)
        with caplog.at_level(logging.INFO, logger="hypchrom"):
            assert minimal_non_k_prefix(g, 2) == 3
        probes = [
            r.getMessage().split(",")[0] for r in caplog.records if r.name == "hypchrom.coloring"
        ]
        assert probes == ["prefix 8: UNSAT", "prefix 2: SAT"]

    def test_greedy_extension_decides_sat_probes(self, caplog):
        # a hexagon 0-2-4-1-3-5-0, whose index order defeats greedy
        # 2-coloring at vertex 4 (0 and 1 both take color 0, though they lie
        # on opposite sides), then a triangle 6-7-8
        edges = [(0, 2), (2, 4), (4, 1), (1, 3), (3, 5), (5, 0), (6, 7), (7, 8), (6, 8)]
        g = AdjacencyGraph(9, edges)
        with caplog.at_level(logging.INFO, logger="hypchrom"):
            assert minimal_non_k_prefix(g, 2) == 9
        probes = [
            r.getMessage().split(", ")[:2]
            for r in caplog.records
            if r.name == "hypchrom.coloring"
        ]
        # 9 and 5 are searched; the witness of 5 extends greedily to 7 and 8
        assert [p[0] for p in probes] == [
            "prefix 9: UNSAT", "prefix 5: SAT", "prefix 7: SAT", "prefix 8: SAT",
        ]
        assert [p[1] for p in probes][2:] == ["0 nodes", "0 nodes"]
        assert all(p[1] != "0 nodes" for p in probes[:2])

    def test_greedy_extension(self):
        g = AdjacencyGraph(5, [(0, 2), (2, 4), (4, 1), (1, 3)])
        holes = [UNCOLORED] * 5
        assert _greedy_extension(g, holes, range(5), 2) is None
        assert _greedy_extension(g, [0, 1] + holes[2:], range(2, 5), 2) == [0, 1, 1, 0, 0]
        assert _greedy_extension(g, [0, 0] + holes[2:], range(2, 5), 3) == [0, 0, 1, 1, 2]
        # only the vertices of the order are filled, in its order, and each
        # sees its colored neighbours on either side
        assert _greedy_extension(g, [0] + holes[1:], [4, 2], 3) == [0, UNCOLORED, 1, UNCOLORED, 0]

    def test_rejects_colorable_graph(self):
        g = AdjacencyGraph(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError):
            minimal_non_k_prefix(g, 2)

    def test_unsat_monotone_over_prefixes(self):
        rng = random.Random(7)
        for _ in range(10):
            g = random_graph(rng, 9, 0.7)
            coloring, _ = search_k_coloring(g, 2)
            if coloring is not None:
                continue
            m = minimal_non_k_prefix(g, 2)
            below, _ = search_k_coloring(g.induced_prefix(m - 1), 2)
            assert below is not None
            for n in range(m, g.n + 1):
                above, _ = search_k_coloring(g.induced_prefix(n), 2)
                assert above is None


class TestReorderedWitness:
    def test_matches_fixed_order_verdict(self):
        rng = random.Random(8)
        for _ in range(20):
            g = random_graph(rng, rng.randint(1, 9), 0.5)
            for k in (2, 3):
                fixed, _ = search_k_coloring(g, k)
                reordered, _ = find_coloring_reordered(g, k)
                assert (fixed is None) == (reordered is None)
                if reordered is not None:
                    assert verify_coloring(g, reordered)

    def test_smallest_last_is_permutation(self, g42):
        adj = AdjacencyGraph.from_graph(g42)
        order = smallest_last_order(adj)
        assert sorted(order) == list(range(adj.n))
