import functools
import importlib.util
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from hypchrom import augment
from hypchrom.augment import (
    PHASE_LAYERS,
    AugmentConfig,
    IdenticalCirclesError,
    circle_of,
    grow_pipeline,
    intersect_circles,
    phase_augment,
    point_on_circle,
)
from hypchrom.field import GEN, ONE, RADIUS_SQ, ZERO, fe_sign
from hypchrom.geometry import (
    F_NUMERIC,
    Graph,
    GraphIntegrityError,
    ModulePoint,
    build_g9,
    certify_graph,
    is_unit_edge,
    lex_less,
)
from hypchrom.reference_data import reference_exclusion_table

# Published phase-1 data: octuple numerators, common denominator, source pair
TABLE1 = [
    ((0, 0, 1, 0, 0, 0, 0, -1), 1, (1, 2)),
    ((0, 2, 0, -1, 0, 0, 2, 0), 1, (1, 3)),
    ((16, 4, -6, -1, -16, 8, 0, 0), 2, (1, 5)),
    ((-16, 4, 2, 1, 48, -24, -8, 4), 2, (1, 6)),
    ((-96, 64, 36, -1, 592, -8, -164, -18), 58, (2, 7)),
    ((64, 112, 34, -9, 240, 72, -148, -12), 58, (2, 8)),
    ((8, 12, -4, -3, -16, 0, 8, 2), 2, (3, 4)),
    ((16, 4, -8, 1, -16, 8, 8, -2), 2, (3, 5)),
    ((16, 8, -10, -1, -16, -8, 12, 4), 2, (3, 9)),
    ((-104, -8, 126, 11, 16, 144, 52, -24), 58, (3, 9)),
    ((-100, 28, 52, 5, 176, -156, -8, 26), 29, (4, 6)),
    ((12, 10, -7, -3, 0, -4, 2, 1), 1, (4, 7)),
    ((-8, 0, 6, 1, 16, 0, -4, 0), 2, (4, 7)),
    ((32, 28, -16, -9, 16, 8, -8, -2), 2, (4, 8)),
    ((64, -12, -16, -1, -144, 88, 24, -10), 2, (5, 7)),
    ((12, 8, -6, -2, 0, 4, 0, -2), 1, (5, 8)),
    ((80, 24, 28, 25, 48, 200, -76, -14), 58, (5, 8)),
    ((-96, 6, 65, -1, 128, -8, 10, 11), 29, (6, 9)),
    ((12, 8, -5, -3, -16, -4, 8, 3), 1, (7, 9)),
]
ACCIDENTAL1 = {(11, 18), (11, 21), (12, 21), (12, 25), (17, 19), (17, 26)}

# Published phase-2 data: octuples and full neighbor lists
TABLE2 = [
    ((-16, -8, 12, 3, 16, 8, -12, -2), 2, (2, 10, 25)),
    ((-4, 2, 4, -1, 0, -4, 2, 0), 1, (2, 12, 15)),
    ((112, 82, -48, -17, -48, -8, 26, 10), 19, (3, 17, 23, 25)),
    ((40, 108, 10, -21, -48, -160, 64, 48), 38, (4, 12, 21)),
    ((8, 116, 60, 19, 16, -96, 120, 38), 82, (4, 17, 22, 26)),
    ((8, 12, -6, -1, 16, -16, 0, 4), 2, (4, 23, 24)),
    ((116, 70, -47, -21, -48, 68, 26, -9), 19, (5, 17, 18, 28)),
    ((0, 2, -1, 0, 16, 0, -6, 1), 1, (6, 11, 27)),
    ((-12, -8, 8, 2, 0, 4, 0, 0), 1, (6, 13, 18)),
    ((56, 60, -24, -18, 128, 72, -44, -14), 19, (7, 11, 21)),
    ((8, 12, -4, -3, 16, 0, 0, -2), 2, (7, 16, 28)),
    ((224, 132, -42, -1, 208, 392, -80, -80), 82, (7, 17, 19, 22)),
    ((16, 6, -11, 1, 0, 0, 2, -1), 1, (15, 21, 23)),
    ((16, 8, -12, 1, -16, -8, 20, -2), 2, (21, 27, 28)),
]
ACCIDENTAL2 = {(30, 32), (33, 34), (36, 38), (39, 40)}

# every PhaseReport counter of the default schedule, one row per phase:
# pairs, raw, prefiltered, distinct, existing, nonmodule, denominator,
# mismatch, excluded, accepted, new-old edges, screened pairs, exact tests
PHASE_COUNTERS = [
    (36, 70, 70, 22, 48, 0, 0, 0, 3, 19, 38, 342, 44),
    (378, 582, 346, 14, 292, 0, 0, 0, 0, 14, 46, 483, 50),
    (861, 1174, 708, 26, 612, 0, 0, 0, 0, 26, 84, 1417, 90),
    (2278, 2806, 1430, 53, 1244, 0, 0, 0, 2, 51, 162, 4743, 184),
    (7021, 7342, 3078, 109, 2676, 0, 0, 0, 2, 107, 346, 18404, 401),
    (25425, 22050, 7258, 277, 6216, 0, 0, 0, 2, 275, 894, 99825, 1059),
    (125250, 91664, 19729, 897, 16164, 18, 0, 0, 2, 877, 2902, 823503, 3602),
]


def table_point(nums, den):
    return ModulePoint.from_octuple([Fraction(v, den) for v in nums])


def squared_radius(circ):
    """The squared Euclidean radius R^2 rho of a circle."""
    return RADIUS_SQ * circ.rho


class TestCircleOf:
    def test_circle_at_origin(self, g9):
        circ = circle_of(g9.vertices[0])
        assert circ.center.x_elem.is_zero()
        assert circ.center.y_elem.is_zero()
        assert squared_radius(circ) == RADIUS_SQ

    def test_circle_of_axis_vertex_has_axis_center(self, g9):
        circ = circle_of(g9.vertices[1])
        assert circ.center.y_elem.is_zero()
        assert not circ.center.x_elem.is_zero()

    def test_neighbors_lie_on_circle_exactly(self, g9):
        for i, j in g9.edges:
            assert point_on_circle(g9.vertices[j], circle_of(g9.vertices[i]))
            assert point_on_circle(g9.vertices[i], circle_of(g9.vertices[j]))

    def test_nonneighbors_off_circle(self, g9):
        edges = g9.edge_set()
        for i in range(9):
            for j in range(9):
                if i != j and (min(i, j), max(i, j)) not in edges:
                    assert not point_on_circle(g9.vertices[j], circle_of(g9.vertices[i]))

    def test_radius_positive(self, g9):
        for v in g9.vertices:
            assert fe_sign(squared_radius(circle_of(v))) == 1


class TestIntersectCircles:
    def test_adjacent_seed_pair_yields_known_points(self, g9):
        points = intersect_circles(circle_of(g9.vertices[0]), circle_of(g9.vertices[1]))
        assert len(points) == 2
        assert all(isinstance(p, ModulePoint) for p in points)
        assert g9.vertices[2] in points  # the apex already in the seed graph
        assert table_point(*TABLE1[0][:2]) in points  # its mirror image

    def test_pair_with_two_new_points(self, g9):
        points = intersect_circles(circle_of(g9.vertices[3]), circle_of(g9.vertices[6]))
        assert set(points) == {table_point(*TABLE1[11][:2]), table_point(*TABLE1[12][:2])}

    def test_branch_labels_are_lexicographic(self, g9):
        # branch '-' is index 0, branch '+' index 1
        lo, hi = intersect_circles(circle_of(g9.vertices[3]), circle_of(g9.vertices[6]))
        assert (lo.to_floats()[0], lo.to_floats()[1]) < (hi.to_floats()[0], hi.to_floats()[1])

    def test_distant_circles_do_not_intersect(self, g9):
        # the one seed pair whose mutual distance exceeds twice the target
        found_empty = 0
        for i in range(9):
            for j in range(i + 1, 9):
                cands = intersect_circles(circle_of(g9.vertices[i]), circle_of(g9.vertices[j]))
                if not cands:
                    found_empty += 1
        assert found_empty == 1

    def test_nonmodule_intersection_returns_nothing(self, g28):
        c1 = circle_of(g28.vertices[1])
        c2 = circle_of(g28.vertices[23])
        # the circles do meet: two float intersection points exist
        (x1, y1), (x2, y2) = c1.center.to_floats(), c2.center.to_floats()
        r1, r2 = squared_radius(c1).to_float(), squared_radius(c2).to_float()
        d2 = (x2 - x1) ** 2 + (y2 - y1) ** 2
        a = (d2 + r1 - r2) / (2 * d2)
        assert r1 - a * a * d2 > 1e-6
        # but not in module points, so no candidate comes back
        assert intersect_circles(c1, c2) == []

    def test_tangent_circles_meet_once(self, g9):
        # X = 1/c, Y = 0 is exactly twice the target distance from the
        # origin, so the two circles touch at the seed vertex between them
        far = ModulePoint(ONE / GEN, ZERO)
        cands = intersect_circles(circle_of(g9.vertices[0]), circle_of(far))
        assert cands == [g9.vertices[1]]

    def test_tangent_pair_given_its_point_returns_it_alone(self, g9):
        far = ModulePoint(ONE / GEN, ZERO)
        c1, c2 = circle_of(g9.vertices[0]), circle_of(far)
        assert intersect_circles(c1, c2, g9.vertices[1]) == [g9.vertices[1]]

    def test_known_point_gives_the_square_root_result(self, g9, pipeline):
        # every survivor pair with one common neighbour in phases 1-6, given
        # that neighbour, yields the square-root path's points in its order
        pairs = 0
        for g, min_neighbors in zip([g9] + pipeline[:5], augment.DEFAULT_SCHEDULE):
            report = augment.PhaseReport(phase=0, min_neighbors=min_neighbors)
            coords, cands = augment._float_intersections(report, g)
            cands = augment._prefilter(report, cands, coords, min_neighbors)
            survivors = augment._dedup(report, g, cands, coords)
            for i, j, w in dict.fromkeys((i, j, w) for i, j, w, _, _ in survivors):
                if w is None:
                    continue
                c1, c2 = circle_of(g.vertices[i]), circle_of(g.vertices[j])
                known = intersect_circles(c1, c2, g.vertices[w])
                assert known == intersect_circles(c1, c2), (g.order, i, j)
                pairs += 1
        assert pairs == 444

    def test_all_g28_candidates_lie_on_both_circles(self, g28):
        # exact oracle: every candidate of every pair is on both circles and
        # at the target distance from both source vertices, and of two the
        # first (branch '-') is lexicographically smaller
        found = 0
        circles = [circle_of(v) for v in g28.vertices]
        for i in range(g28.order):
            for j in range(i + 1, g28.order):
                cands = intersect_circles(circles[i], circles[j])
                assert len(cands) <= 2
                if len(cands) == 2:
                    assert lex_less(cands[0], cands[1])
                for cand in cands:
                    assert point_on_circle(cand, circles[i])
                    assert point_on_circle(cand, circles[j])
                    assert is_unit_edge(cand, g28.vertices[i])
                    assert is_unit_edge(cand, g28.vertices[j])
                    found += 1
        assert found == 516

    def test_identical_circles_error(self, g9):
        circ = circle_of(g9.vertices[4])
        with pytest.raises(IdenticalCirclesError):
            intersect_circles(circ, circ)

    def test_intersections_match_float_geometry(self, g9):
        # oracle: plain floating-point circle intersection from the
        # Euclidean centers and radii
        rng = random.Random(4)
        pairs = [(i, j) for i in range(9) for j in range(i + 1, 9)]
        for i, j in pairs:
            c1 = circle_of(g9.vertices[i])
            c2 = circle_of(g9.vertices[j])
            cen1 = c1.center.to_floats()
            cen2 = c2.center.to_floats()
            r1 = squared_radius(c1).to_float()
            r2 = squared_radius(c2).to_float()
            dx, dy = cen2[0] - cen1[0], cen2[1] - cen1[1]
            d2 = dx * dx + dy * dy
            a = (d2 + r1 - r2) / (2 * d2)
            h2 = r1 - a * a * d2
            cands = intersect_circles(c1, c2)
            if h2 < -1e-12:
                assert cands == []
                continue
            base = (cen1[0] + a * dx, cen1[1] + a * dy)
            off = math.sqrt(max(h2, 0.0) / d2)
            expected = sorted(
                [
                    (base[0] - off * dy, base[1] + off * dx),
                    (base[0] + off * dy, base[1] - off * dx),
                ]
            )
            got = sorted(p.to_floats() for p in cands)
            assert len(got) == len(expected)
            for (gx, gy), (ex, ey) in zip(got, expected):
                assert gx == pytest.approx(ex, abs=1e-9)
                assert gy == pytest.approx(ey, abs=1e-9)


class TestPhase1:
    def test_reproduces_published_table(self, g28):
        assert g28.order == 28
        assert g28.size == 61
        for row, (nums, den, pair) in enumerate(TABLE1):
            vertex = g28.vertices[9 + row]
            origin = g28.origins[9 + row]
            assert vertex == table_point(nums, den), f"row {row + 10}"
            assert origin.source_pair == (pair[0] - 1, pair[1] - 1)
            assert origin.phase == 1

    def test_accidental_edges(self, g28):
        got = {(i + 1, j + 1) for i, j in g28.phase_report.accidental_edges}
        assert got == ACCIDENTAL1

    def test_exclusions_reported_not_silent(self, g9, g28):
        assert g28.phase_report.excluded_by_selection == 3
        # without the exclusions, the three phase-1 points arise at their pairs
        free = phase_augment(g9, 2, cfg=AugmentConfig(), phase_index=1)
        rows = [(pair, p) for ph, pair, p in reference_exclusion_table() if ph == 1]
        assert [pair for pair, _ in rows] == [(2, 6), (2, 9), (6, 8)]
        for pair, p in rows:
            origin = free.origins[free.vertices.index(p)]
            assert tuple(v + 1 for v in origin.source_pair) == pair

    def test_unfiltered_rule_keeps_all_module_candidates(self, g9):
        free = phase_augment(g9, 2, cfg=AugmentConfig(), phase_index=1)
        assert free.order == 31
        assert free.size == 67
        table = {table_point(nums, den) for nums, den, _ in TABLE1}
        assert table <= set(free.vertices[9:])
        extras = {p for ph, _, p in reference_exclusion_table() if ph == 1}
        assert len(extras) == 3
        assert extras <= set(free.vertices[9:])

    def test_table1_neighbor_counts(self, g28):
        # each published point is adjacent to exactly its listed seed pair
        for row, (nums, den, pair) in enumerate(TABLE1):
            v = g28.vertices[9 + row]
            nbrs = {t + 1 for t in range(9) if is_unit_edge(v, g28.vertices[t])}
            assert pair[0] in nbrs and pair[1] in nbrs


class TestPhase2:
    def test_reproduces_published_table(self, g42):
        assert g42.order == 42
        assert g42.size == 111
        for row, (nums, den, nbrs) in enumerate(TABLE2):
            vertex = g42.vertices[28 + row]
            assert vertex == table_point(nums, den), f"row {row + 29}"

    def test_published_neighbor_lists(self, g42):
        for row, (nums, den, nbrs) in enumerate(TABLE2):
            v = g42.vertices[28 + row]
            got = {t + 1 for t in range(28) if is_unit_edge(v, g42.vertices[t])}
            assert got == set(nbrs), f"row {row + 29}"

    def test_accidental_edges(self, g42):
        got = {(i + 1, j + 1) for i, j in g42.phase_report.accidental_edges}
        assert got == ACCIDENTAL2

    def test_every_new_vertex_has_three_neighbors(self, g42):
        for idx in range(28, 42):
            nbrs = [t for t in range(28) if is_unit_edge(g42.vertices[idx], g42.vertices[t])]
            assert len(nbrs) >= 3


def counts_reference(xs, ys, coords):
    """The neighbour prefilter as it was written before cosh d was formed on
    the hyperboloid: f = 2|c - v|^2 / (k_c k_v) elementwise per block,
    against the window f_e (1 -/+ NEIGHBOR_REL_TOL)."""
    vx = coords[:, 0]
    vy = coords[:, 1]
    kv = 1.0 - vx * vx - vy * vy
    counts = np.zeros(len(xs), dtype=np.int32)
    lo = F_NUMERIC * (1.0 - augment.NEIGHBOR_REL_TOL)
    hi = F_NUMERIC * (1.0 + augment.NEIGHBOR_REL_TOL)
    for start in range(0, len(xs), augment.CHUNK_SIZE):
        cx = xs[start : start + augment.CHUNK_SIZE, None]
        cy = ys[start : start + augment.CHUNK_SIZE, None]
        kc = 1.0 - cx * cx - cy * cy
        fmat = 2.0 * ((cx - vx) ** 2 + (cy - vy) ** 2) / (kc * kv)
        counts[start : start + augment.CHUNK_SIZE] = np.count_nonzero(
            (fmat >= lo) & (fmat <= hi), axis=1
        )
    return counts


def float_coords(g):
    return np.array(g.float_coords(), dtype=np.float64)


def pair_intersections_reference(centers, rad2):
    """_pair_intersections as it was written with (m, 2) arrays: the points
    stacked, oriented by np.where and interleaved by a reshape."""
    n = centers.shape[0]
    iu, ju = np.triu_indices(n, 1)
    ci = centers[iu]
    cj = centers[ju]
    dvec = cj - ci
    d2 = dvec[:, 0] ** 2 + dvec[:, 1] ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        a = (d2 + rad2[iu] - rad2[ju]) / (2.0 * d2)
        h2 = rad2[iu] - a * a * d2
    mask = (d2 > 0) & (h2 >= 0)
    iu, ju, a, h2, d2, ci, dvec = (
        iu[mask], ju[mask], a[mask], h2[mask], d2[mask], ci[mask], dvec[mask],
    )
    base = ci + a[:, None] * dvec
    scale = np.sqrt(h2 / d2)
    perp = np.stack([-dvec[:, 1], dvec[:, 0]], axis=1) * scale[:, None]
    p_plus = base + perp
    p_minus = base - perp
    swap = (p_plus[:, 0] < p_minus[:, 0]) | (
        (p_plus[:, 0] == p_minus[:, 0]) & (p_plus[:, 1] < p_minus[:, 1])
    )
    lo = np.where(swap[:, None], p_plus, p_minus)
    hi = np.where(swap[:, None], p_minus, p_plus)
    both = np.stack([lo, hi], axis=1).reshape(-1, 2)
    return np.repeat(iu, 2), np.repeat(ju, 2), both[:, 0], both[:, 1]


class TestFloatIntersections:
    def test_equal_to_reference_on_every_phase_input(self, g9, pipeline):
        for g in [g9] + pipeline[:6]:
            circles = augment._euclidean_circles(float_coords(g))
            got = augment._pair_intersections(*circles)
            want = pair_intersections_reference(*circles)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and np.array_equal(a, b), g.order

    def test_rows_in_processing_order(self, g9, pipeline):
        for g in [g9] + pipeline[:4]:
            coords = float_coords(g)
            pair_i, pair_j, xs, ys = augment._pair_intersections(
                *augment._euclidean_circles(coords)
            )
            # rows 2m and 2m + 1 are the two points of pair m
            assert len(xs) % 2 == 0
            assert (pair_i[::2] == pair_i[1::2]).all() and (pair_j[::2] == pair_j[1::2]).all()
            # the pairs i < j in lexicographic order, each once
            assert (pair_i < pair_j).all()
            assert (np.diff(pair_i[::2] * g.order + pair_j[::2]) > 0).all()
            # the lexicographically smaller point of each pair first
            x0, x1, y0, y1 = xs[::2], xs[1::2], ys[::2], ys[1::2]
            assert ((x0 < x1) | ((x0 == x1) & (y0 <= y1))).all()


class TestNeighborPrefilter:
    def test_equal_to_reference_on_every_phase_input(self, g9, pipeline):
        for g in [g9] + pipeline[:6]:
            coords = float_coords(g)
            _, _, xs, ys = augment._pair_intersections(*augment._euclidean_circles(coords))
            got = augment._numeric_neighbor_counts(xs, ys, coords)
            assert got.dtype == np.int32
            assert np.array_equal(got, counts_reference(xs, ys, coords)), g.order

    @pytest.mark.parametrize("rows", [1, 7, 10**6])
    def test_counts_do_not_depend_on_the_block_size(self, pipeline, monkeypatch, rows):
        coords = float_coords(pipeline[4])
        _, _, xs, ys = augment._pair_intersections(*augment._euclidean_circles(coords))
        want = augment._numeric_neighbor_counts(xs, ys, coords)
        assert len(xs) < 10**6
        monkeypatch.setattr(augment, "CHUNK_SIZE", rows)
        assert np.array_equal(augment._numeric_neighbor_counts(xs, ys, coords), want)

    def test_counts_at_one_block_and_its_neighbours(self, pipeline):
        # exactly one full block, one row short of it and one row over
        coords = float_coords(pipeline[4])
        _, _, xs, ys = augment._pair_intersections(*augment._euclidean_circles(coords))
        want = augment._numeric_neighbor_counts(xs, ys, coords)
        for n in (augment.CHUNK_SIZE - 1, augment.CHUNK_SIZE, augment.CHUNK_SIZE + 1):
            got = augment._numeric_neighbor_counts(xs[:n], ys[:n], coords)
            assert got.dtype == np.int32 and np.array_equal(got, want[:n]), n
            assert np.array_equal(got, counts_reference(xs[:n], ys[:n], coords)), n

    def test_edge_endpoints_count_each_other(self, pipeline):
        g = pipeline[3]
        coords = float_coords(g)
        for i, j in g.edges:
            for a, b in ((i, j), (j, i)):
                got = augment._numeric_neighbor_counts(
                    coords[a : a + 1, 0], coords[a : a + 1, 1], coords[b : b + 1]
                )
                assert got.tolist() == [1], (a, b)

    def test_candidate_outside_disk_counts_zero(self, g42):
        coords = float_coords(g42)
        # the mirror image z / |z|^2 of every vertex in the unit circle, and
        # points on the circles of radius 1.5 and 3
        rsq = (coords**2).sum(axis=1)
        mirror = coords[rsq > 0] / rsq[rsq > 0, None]
        angle = np.linspace(0.0, 2 * np.pi, 50)
        xs = np.concatenate([mirror[:, 0], 1.5 * np.cos(angle), 3.0 * np.sin(angle)])
        ys = np.concatenate([mirror[:, 1], 1.5 * np.sin(angle), 3.0 * np.cos(angle)])
        assert (xs * xs + ys * ys > 1.0).all()
        assert not augment._numeric_neighbor_counts(xs, ys, coords).any()


def dedup_reference(cands, coords):
    """The dedup as it was written before it asked the graph: a candidate
    within DEDUP_RADIUS of any vertex, found through a float grid of all
    vertices, is existing.  Returns the survivors and the existing count."""
    cell = 1.0 / augment.DEDUP_RADIUS
    existing_cells, seen_cells = {}, {}
    for x, y in coords:
        existing_cells.setdefault((round(x * cell), round(y * cell)), []).append((x, y))

    def near(cells, x, y):
        cx, cy = round(x * cell), round(y * cell)
        return any(
            math.hypot(px - x, py - y) <= augment.DEDUP_RADIUS
            for dx in (-1, 0, 1)
            for dy in (-1, 0, 1)
            for px, py in cells.get((cx + dx, cy + dy), ())
        )

    survivors, existing = [], 0
    for i, j, x, y in zip(*(a.tolist() for a in cands)):
        if near(existing_cells, x, y):
            existing += 1
        elif not near(seen_cells, x, y):
            seen_cells.setdefault((round(x * cell), round(y * cell)), []).append((x, y))
            survivors.append((i, j, x, y))
    return survivors, existing


def dedup(g, cands, coords):
    """_dedup's survivors as (i, j, x, y), and its existing count."""
    report = augment.PhaseReport(phase=0, min_neighbors=2)
    survivors = augment._dedup(report, g, cands, coords)
    assert report.distinct == len(survivors)
    return [(i, j, x, y) for i, j, _, x, y in survivors], report.dropped_existing


def edge_neighbors(g):
    """Each vertex's neighbours, read from g.edges."""
    near = [set() for _ in g.vertices]
    for a, b in g.edges:
        near[a].add(b)
        near[b].add(a)
    return near


def common_neighbor(g, i, j):
    """The w _dedup hands on with pair (i, j): the pair's one common
    neighbour, read from g.edges, or None when it has none or two."""
    near = edge_neighbors(g)
    common = near[i] & near[j]
    return min(common) if len(common) == 1 else None


def induced_subgraph(g):
    """g without every third vertex, numbered in order, as
    benchmarks/selection_search.py grows such graphs."""
    keep = [v for v in range(g.order) if v % 3]
    pos = {v: p for p, v in enumerate(keep)}
    return Graph(
        [g.vertices[v] for v in keep],
        [(pos[a], pos[b]) for a, b in g.edges if a in pos and b in pos],
    )


def rows(cands, keep):
    return tuple(a[keep] for a in cands)


class TestDedup:
    def test_equal_to_vertex_grid_on_every_phase_input(self, g9, pipeline):
        # on all raw candidates, a superset of the prefiltered ones growth
        # hands to _dedup, so incidences the prefilter drops are covered too;
        # last an induced subgraph, as benchmarks/selection_search.py grows
        for g in [g9] + pipeline[:6] + [induced_subgraph(pipeline[3])]:
            coords = float_coords(g)
            cands = augment._pair_intersections(*augment._euclidean_circles(coords))
            assert dedup(g, cands, coords) == dedup_reference(cands, coords), g.order

    def test_survivors_carry_the_pairs_one_common_neighbour(self, g9, pipeline):
        # w is the known point exact intersection intersects from: on all
        # raw candidates of every phase input and of an induced subgraph, a
        # survivor's pair has at most one common neighbour, read here from
        # the edge list, and w is that vertex, or None when there is none
        for g in [g9] + pipeline[:6] + [induced_subgraph(pipeline[3])]:
            coords = float_coords(g)
            cands = augment._pair_intersections(*augment._euclidean_circles(coords))
            report = augment.PhaseReport(phase=0, min_neighbors=2)
            survivors = augment._dedup(report, g, cands, coords)
            near = edge_neighbors(g)
            for i, j, w in dict.fromkeys((i, j, w) for i, j, w, _, _ in survivors):
                common = near[i] & near[j]
                assert len(common) <= 1 and w == min(common, default=None), (g.order, i, j)

    def test_existing_rows_match_a_vertex_exactly(self, g9, pipeline):
        dropped = 0
        for g, min_neighbors in zip([g9] + pipeline[:4], augment.DEFAULT_SCHEDULE):
            report = augment.PhaseReport(phase=0, min_neighbors=min_neighbors)
            coords, cands = augment._float_intersections(report, g)
            cands = augment._prefilter(report, cands, coords, min_neighbors)
            old, circles, on_vertex = set(g.vertices), {}, []
            for i, j, x, y in zip(*(a.tolist() for a in cands)):
                if (i, j) not in circles:
                    circles[i, j] = intersect_circles(
                        circle_of(g.vertices[i]), circle_of(g.vertices[j])
                    )
                exact = augment._match_exact_candidate(circles[i, j], x, y)
                on_vertex.append(exact is not None and circles[i, j][exact] in old)
            on_vertex = np.array(on_vertex)
            # every row on a vertex is dropped as existing, and no other row
            assert dedup(g, rows(cands, on_vertex), coords) == ([], on_vertex.sum())
            assert dedup(g, rows(cands, ~on_vertex), coords)[1] == 0
            dropped += on_vertex.sum()
        assert dropped == 48 + 292 + 612 + 1244 + 2676

    def test_grid_merges_only_exact_repeats(self, g9, pipeline):
        # every row the new-new grid drops as a repeat has the same exact
        # point, by the nearer-point rule, as the earlier survivor it met
        merges = []
        for g, min_neighbors in zip([g9] + pipeline[:4], augment.DEFAULT_SCHEDULE):
            report = augment.PhaseReport(phase=0, min_neighbors=min_neighbors)
            coords, cands = augment._float_intersections(report, g)
            cands = augment._prefilter(report, cands, coords, min_neighbors)
            survivors = [
                (i, j, x, y) for i, j, _, x, y in augment._dedup(report, g, cands, coords)
            ]
            kept = np.array([(x, y) for _, _, x, y in survivors])
            exact = {}

            def point(i, j, x, y):
                if (i, j) not in exact:
                    exact[i, j] = intersect_circles(
                        circle_of(g.vertices[i]), circle_of(g.vertices[j])
                    )
                return exact[i, j][augment._match_exact_candidate(exact[i, j], x, y)]

            # the grid compares a row only with the survivors before it
            repeats = before = 0
            for row in zip(*(a.tolist() for a in cands)):
                if before < len(survivors) and row == survivors[before]:
                    before += 1
                    continue
                dist = np.hypot(*(kept[:before] - row[2:]).T)
                near = np.flatnonzero(dist <= augment.DEDUP_RADIUS)
                if len(near):
                    assert point(*row) == point(*survivors[near[0]])
                    repeats += 1
            # every other dropped row was dropped as existing
            assert repeats + report.dropped_existing + len(survivors) == report.prefiltered
            merges.append(repeats)
        assert merges == [0, 40, 70, 133, 293]

    def test_pair_with_one_common_neighbor_keeps_its_other_point(self, g9):
        # seed vertices 1 and 2 are adjacent to vertex 3 alone of the others;
        # their circles meet there and at the first point of the phase-1 table
        nbrs = [{b for e in g9.edges for a, b in (e, e[::-1]) if a == v} for v in (0, 1)]
        assert nbrs[0] & nbrs[1] == {2}
        coords = float_coords(g9)
        cands = augment._pair_intersections(*augment._euclidean_circles(coords))
        pair = rows(cands, (cands[0] == 0) & (cands[1] == 1))
        survivors, existing = dedup(g9, pair, coords)
        assert existing == 1
        [(_, _, x, y)] = survivors
        assert math.dist((x, y), table_point(*TABLE1[0][:2]).to_floats()) < 1e-12

    def test_pair_with_two_common_neighbors_needs_no_float_test(self, g9):
        # seed vertices 1 and 4 share vertices 2 and 3, so both points of
        # the pair are vertices, wherever the float pass puts its rows
        coords = float_coords(g9)
        cands = augment._pair_intersections(*augment._euclidean_circles(coords))
        pair = rows(cands, (cands[0] == 0) & (cands[1] == 3))
        assert len(pair[2]) == 2
        shifted = pair[:2] + (pair[2] + 1e-6, pair[3])
        assert dedup(g9, shifted, coords) == ([], 2)

    def test_tangent_pair_yields_nothing_new(self, g9):
        # the pair of test_tangent_circles_meet_once: its one common
        # neighbour, g9.vertices[1], is where its circles touch.  The float
        # pass finds h^2 < 0 here, so the rows are those it gives at h = 0
        far = ModulePoint(ONE / GEN, ZERO)
        g = Graph([g9.vertices[0], g9.vertices[1], far], [(0, 1), (1, 2)])
        coords = float_coords(g)
        centers, rad2 = augment._euclidean_circles(coords)
        d = centers[2] - centers[0]
        d2 = d @ d
        foot = centers[0] + (d2 + rad2[0] - rad2[2]) / (2.0 * d2) * d
        cands = (np.array([0, 0]), np.array([2, 2]), np.full(2, foot[0]), np.full(2, foot[1]))
        assert dedup(g, cands, coords) == ([], 2)

    def test_missed_incidences_are_dropped_exactly(self, g28, g42, reference_cfg):
        # without the edge between seed vertices 1 and 2, the pairs through
        # it lose a common neighbour and the rule misses their points on
        # vertices 1 and 2; the exact layer drops those that survive dedup
        h = Graph(g28.vertices, [e for e in g28.edges if e != (0, 1)], g28.origins)
        out = phase_augment(h, 3, cfg=reference_cfg, phase_index=2)
        assert out.vertices == g42.vertices
        assert set(out.edges) == set(g42.edges) - {(0, 1)}
        report = augment.PhaseReport(phase=2, min_neighbors=3)
        coords, cands = augment._float_intersections(report, h)
        cands = augment._prefilter(report, cands, coords, 3)
        survivors = augment._dedup(report, h, cands, coords)
        in_dedup = report.dropped_existing
        assert in_dedup < g42.phase_report.dropped_existing
        found = augment._exact_intersection(report, h, survivors, reference_cfg, 2)
        assert list(found) == g42.vertices[28:]
        extra = len(survivors) - g42.phase_report.distinct
        assert extra > 0 and report.dropped_existing - in_dedup == extra


class TestPhaseLayers:
    def test_exact_intersection_first_occurrence_wins(self, g9, g28, g42):
        # row 29 of the published phase-2 table is adjacent to vertices 2, 10
        # and 25 of g28, so the pairs (2, 10) and (2, 25) both produce it
        point = g42.vertices[28]
        x, y = point.to_floats()
        apex_x, apex_y = g9.vertices[2].to_floats()
        pairs = [(1, 9, x, y), (1, 24, x + 1e-7, y), (0, 1, apex_x, apex_y)]
        survivors = [(i, j, common_neighbor(g28, i, j), *xy) for i, j, *xy in pairs]
        report = augment.PhaseReport(phase=2, min_neighbors=3)
        found = augment._exact_intersection(report, g28, survivors, AugmentConfig.reference(), 2)
        assert list(found) == [point]
        origin = found[point]
        assert origin.source_pair == (1, 9) and origin.phase == 2
        # the apex of the seed pair (1, 2) is already a vertex
        assert report.dropped_existing == 1

    def test_exact_intersection_takes_the_nearer_point(self, g28, g42):
        # the float row only chooses between the pair's exact points, however
        # far from them it lies: 2e-5 from row 29 of the phase-2 table
        point = g42.vertices[28]
        x, y = point.to_floats()
        report = augment.PhaseReport(phase=2, min_neighbors=3)
        found = augment._exact_intersection(
            report, g28, [(1, 9, common_neighbor(g28, 1, 9), x + 2e-5, y)],
            AugmentConfig.reference(), 2,
        )
        assert list(found) == [point]
        assert report.rejected_nonmodule == 0
        assert report.rejected_denominator == report.excluded_by_selection == 0

    def test_exact_intersection_intersects_each_pair_once(self, g9, monkeypatch):
        # pair (3, 9) of the seed gives two rows of the phase-1 table
        calls = []

        def counting_intersect(c1, c2, known=None):
            calls.append((c1, c2))
            return intersect_circles(c1, c2, known)

        monkeypatch.setattr(augment, "intersect_circles", counting_intersect)
        points = [table_point(*row[:2]) for row in TABLE1 if row[2] == (3, 9)]
        survivors = [(2, 8, common_neighbor(g9, 2, 8), *p.to_floats()) for p in points]
        report = augment.PhaseReport(phase=1, min_neighbors=2)
        found = augment._exact_intersection(report, g9, survivors, AugmentConfig(), 1)
        assert len(calls) == 1
        assert sorted(found, key=lambda p: p.to_floats()) == sorted(
            points, key=lambda p: p.to_floats()
        )
        assert {o.branch for o in found.values()} == {"-", "+"}

    def test_false_edge_adds_no_wrong_vertex(self, g28, g42, reference_cfg):
        # vertices 2 and 21 are not adjacent; with a false edge between them,
        # a surviving pair takes one of them as its common neighbour, a point
        # off its circles, so the other point it yields is wrong too
        assert not is_unit_edge(g28.vertices[1], g28.vertices[20])
        h = Graph(g28.vertices, list(g28.edges) + [(1, 20)], g28.origins)
        try:
            out = phase_augment(h, 3, cfg=reference_cfg, phase_index=2)
        except GraphIntegrityError:
            return
        for v, origin in zip(out.vertices[h.order :], out.origins[h.order :]):
            assert all(is_unit_edge(v, out.vertices[s]) for s in origin.source_pair)
        # the wrong point is rejected on its neighbour count: a vertex lost
        assert out.phase_report.rejected_neighbor_mismatch == 1
        assert set(out.vertices[h.order :]) < set(g42.vertices[h.order :])

    def test_neighbor_count_rejection_keeps_survivor_floats(self, g28):
        point = table_point(*TABLE2[0][:2])
        origin = augment.VertexOrigin((1, 9), "-", 2)
        found = {point: origin}
        report = augment.PhaseReport(phase=2, min_neighbors=4)
        accepted, origins, edges = augment._exact_neighbors(report, g28, found, 4)
        assert accepted == origins == edges == []
        assert report.rejected_neighbor_mismatch == 1
        assert (report.screened_pairs, report.exact_edge_tests) == (28, 3)
        report = augment.PhaseReport(phase=2, min_neighbors=3)
        accepted, origins, edges = augment._exact_neighbors(report, g28, found, 3)
        assert (accepted, origins) == ([point], [origin])
        assert edges == [(1, 28), (9, 28), (24, 28)]


class TestPipeline:
    def test_default_cfg_is_the_reference_selection(self, g9):
        got = phase_augment(g9, 2, phase_index=1)
        want = grow_pipeline(g9, (2,))[0]
        assert got.order == 28
        assert (got.vertices, got.edges, got.origins) == (
            want.vertices, want.edges, want.origins,
        )

    def test_empty_graph_passthrough(self):
        empty = Graph([], [])
        out = phase_augment(empty, 2, phase_index=1)
        assert out.order == 0 and out.size == 0

    def test_empty_schedule_returns_input(self, g9):
        assert grow_pipeline(g9, ()) == [g9]

    def test_single_phase_schedule(self, g9, reference_cfg):
        out = grow_pipeline(g9, (2,), cfg=reference_cfg)
        assert len(out) == 1
        assert (out[0].order, out[0].size) == (28, 61)

    def test_determinism(self, g9, reference_cfg, g42):
        again = grow_pipeline(g9, (2, 3), cfg=reference_cfg)[-1]
        assert [v.octuple for v in again.vertices] == [v.octuple for v in g42.vertices]
        assert again.edges == g42.edges

    def test_published_milestones(self, pipeline):
        milestones = [(g.order, g.size) for g in pipeline[:5]]
        assert milestones == [(28, 61), (42, 111), (68, 201), (119, 385), (226, 786)]

    def test_tail_phases_fully_certified_supersets(self, pipeline):
        # beyond the five reproduced milestones the rule accepts a certified
        # superset of the published graphs
        tail = pipeline[5]
        assert tail.order >= 455 and tail.size >= 1679
        rng = random.Random(0)
        for _ in range(50):
            i, j = rng.sample(range(tail.order), 2)
            expected = (min(i, j), max(i, j)) in tail.edge_set()
            assert is_unit_edge(tail.vertices[i], tail.vertices[j]) == expected

    def test_default_schedule_counters(self, pipeline):
        got = [
            (
                r.pairs_total, r.raw_candidates, r.prefiltered, r.distinct,
                r.dropped_existing, r.rejected_nonmodule, r.rejected_denominator,
                r.rejected_neighbor_mismatch, r.excluded_by_selection, r.accepted,
                r.new_old_edges, r.screened_pairs, r.exact_edge_tests,
            )
            for r in (g.phase_report for g in pipeline)
        ]
        assert got == PHASE_COUNTERS

    def test_nonmodule_rejections_per_phase(self, pipeline):
        counts = [g.phase_report.rejected_nonmodule for g in pipeline]
        assert counts == [0, 0, 0, 0, 0, 0, 18]

    def test_max_denominator_matches_octuple(self):
        rng = random.Random(11)
        for _ in range(200):
            octuple = [Fraction(rng.randint(-50, 50), rng.randint(1, 40)) for _ in range(8)]
            p = ModulePoint.from_octuple(octuple)
            assert augment._max_denominator(p) == max(q.denominator for q in p.octuple)

    @pytest.mark.parametrize("bound, rejected", [(4, [8, 8, 10]), (30, [6, 5, 11])])
    def test_denominator_bound(self, g9, bound, rejected):
        cfg = AugmentConfig.reference(denom_bound=bound)
        graphs = grow_pipeline(g9, [2, 3, 3], cfg=cfg)
        assert [g.phase_report.rejected_denominator for g in graphs] == rejected
        # every kept vertex is within the bound, in lowest terms
        assert all(q.denominator <= bound for v in graphs[-1].vertices for q in v.octuple)

    def test_screen_counters(self, g9, pipeline):
        n_old = g9.order
        for g in pipeline:
            r = g.phase_report
            # no candidate was rejected on its neighbour count, so every
            # exact hit is a recorded edge
            assert r.rejected_neighbor_mismatch == 0
            tested = r.accepted + r.rejected_neighbor_mismatch
            assert r.screened_pairs == tested * n_old + r.accepted * (r.accepted - 1) // 2
            assert r.exact_edge_tests == r.new_old_edges + len(r.accidental_edges)
            n_old = g.order
        assert sum(g.phase_report.exact_edge_tests for g in pipeline) == 5430

    def test_exact_edge_tests_counts_calls(self, g28, reference_cfg, monkeypatch):
        calls = []

        def counting_edge_test(p, q):
            calls.append(is_unit_edge(p, q))
            return calls[-1]

        monkeypatch.setattr(augment, "is_unit_edge", counting_edge_test)
        r = phase_augment(g28, 3, cfg=reference_cfg, phase_index=2).phase_report
        assert r.exact_edge_tests == len(calls) == sum(calls) == 50
        assert r.screened_pairs == 14 * 28 + 14 * 13 // 2

    def test_each_circle_built_once_per_pipeline(self, reference_cfg, monkeypatch):
        # a fresh seed, so that no vertex holds its circle yet
        built, endpoints, roots = [], set(), []
        circle, sqrt = augment.circle_of, augment.fe_sqrt
        exact_intersection = augment._exact_intersection

        def counting_circle_of(p):
            built.append(p)
            return circle(p)

        def counting_sqrt(d):
            roots.append(d)
            return sqrt(d)

        @functools.wraps(exact_intersection)
        def recording_exact_intersection(report, g, survivors, *args):
            endpoints.update(g.vertices[v] for i, j, _, _, _ in survivors for v in (i, j))
            return exact_intersection(report, g, survivors, *args)

        monkeypatch.setattr(augment, "circle_of", counting_circle_of)
        monkeypatch.setattr(augment, "_exact_intersection", recording_exact_intersection)
        monkeypatch.setattr(augment, "fe_sqrt", counting_sqrt)
        grow_pipeline(build_g9(), cfg=reference_cfg)
        assert len(built) == len(set(built)) == 427
        assert set(built) == endpoints
        # of the 1,381 pairs intersected, only those without one common
        # neighbour take a square root
        assert len(roots) == 165

    def test_circles_cleared_when_a_phase_raises(self, reference_cfg, monkeypatch):
        # a fresh seed, so that no circle comes from another test's growth
        g9, inputs, cached = build_g9(), [], []
        exact_neighbors = augment._exact_neighbors

        @functools.wraps(exact_neighbors)
        def failing_in_phase_2(report, g, *args):
            if report.phase == 2:
                # exact intersection has built circles for g28 by now
                inputs.append(g)
                cached.extend(v for v in g.vertices if v._circle is not None)
                raise GraphIntegrityError("injected")
            return exact_neighbors(report, g, *args)

        monkeypatch.setattr(augment, "_exact_neighbors", failing_in_phase_2)
        with pytest.raises(GraphIntegrityError, match="injected"):
            grow_pipeline(g9, (2, 3, 3), cfg=reference_cfg)
        (g28,) = inputs
        assert g28.order == 28 and cached
        assert all(v._circle is None for v in g9.vertices + g28.vertices)

    def test_phase_timings(self, pipeline):
        for g in pipeline:
            r = g.phase_report
            assert list(r.timings) == list(PHASE_LAYERS)
            assert all(t >= 0 for t in r.timings.values())
            assert sum(r.timings.values()) <= r.elapsed

    def test_all_vertices_inside_disk(self, pipeline):
        g = pipeline[4]
        for v in g.vertices:
            x, y = v.to_floats()
            assert x * x + y * y < 1.0


class TestSelectionSearch:
    @pytest.fixture(scope="class")
    def selection_search(self):
        # a script, not a module of the package: load it by path
        path = Path(__file__).resolve().parents[1] / "benchmarks" / "selection_search.py"
        spec = importlib.util.spec_from_file_location("selection_search", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_remove_vertices_keeps_a_certified_graph(
        self, g28, reference_cfg, selection_search
    ):
        # g28's phase-1 vertices of degree 3 are 17, 18, 24 and 25 (0-based)
        assert selection_search.deg3_new_vertices(g28, 9) == [17, 18, 24, 25]
        h = selection_search.remove_vertices(g28, {17, 18})
        keep = [v for v in range(g28.order) if v not in (17, 18)]
        pos = {v: p for p, v in enumerate(keep)}
        assert (h.order, h.size) == (26, 55)
        assert h.vertices == [g28.vertices[v] for v in keep]
        assert sorted(h.edges) == sorted(
            (pos[a], pos[b]) for a, b in g28.edges if a in pos and b in pos
        )
        assert h.origins == [g28.origins[v] for v in keep]
        assert certify_graph(h).ok
        grown = phase_augment(h, 3, cfg=reference_cfg, phase_index=2)
        assert (grown.order, grown.size) == (41, 108)
        assert certify_graph(grown).ok
