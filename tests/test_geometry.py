import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypchrom import geometry
from hypchrom.field import (
    EDGE_INVARIANT,
    GEN,
    MIN_POLY,
    ONE,
    RADIUS_SQ,
    SIN_SQ,
    FieldElement,
    fe_sign,
    fe_to_interval,
    interval_sqrt,
    root_bounds,
)
from hypchrom.geometry import (
    D_NUMERIC,
    SCREEN_PRIME,
    SCREEN_ROOT,
    Graph,
    GraphIntegrityError,
    ModulePoint,
    SEED_EDGES,
    SPINDLE_EDGES,
    build_g9,
    certify_graph,
    f_numeric,
    f_of,
    is_unit_edge,
    lex_less,
    point_coords_numeric,
    screened_pairs,
    spindle_numeric,
    verify_condition1,
)

DIST_APPROX = 1.375033509
RADIUS_APPROX = 0.596384351
COSB_APPROX = 0.9477621926


def hyp_dist_numeric(p, q):
    return math.acosh(1 + f_numeric(p, q))


# octuple entries small enough that the point stays inside the disk
disk_entries = st.integers(min_value=-8, max_value=8).map(lambda n: Fraction(n, 24))
disk_points = st.builds(
    lambda *vals: ModulePoint.from_octuple(vals), *([disk_entries] * 8)
)


class TestModulePoint:
    def test_octuple_roundtrip(self):
        oct_ = (1, Fraction(-3, 2), 0, 2, Fraction(5, 58), -1, 0, Fraction(1, 29))
        p = ModulePoint.from_octuple(oct_)
        assert p.octuple == tuple(Fraction(v) for v in oct_)
        assert ModulePoint.from_strings(p.as_strings()) == p

    @given(disk_points)
    @settings(max_examples=40, deadline=None)
    def test_string_roundtrip_keeps_raw_form(self, p):
        back = ModulePoint.from_strings(p.as_strings())
        assert back == p
        for e, f in ((back.x_elem, p.x_elem), (back.y_elem, p.y_elem)):
            assert (e._n, e._d) == (f._n, f._d)
        assert p.as_strings() == tuple(f"{q.numerator}/{q.denominator}" for q in p.octuple)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            ModulePoint.from_octuple([1, 2, 3])

    def test_origin_inside_disk(self):
        origin = ModulePoint.from_octuple([0] * 8)
        assert origin.is_inside_disk()
        assert origin.k_elem() == ONE

    @given(disk_points)
    @settings(max_examples=40, deadline=None)
    def test_disk_membership_matches_float(self, p):
        x, y = p.to_floats()
        r2 = x * x + y * y
        if abs(r2 - 1) > 1e-6:
            assert p.is_inside_disk() == (r2 < 1)


class TestDistanceQuantity:
    @given(disk_points, disk_points)
    @settings(max_examples=40, deadline=None)
    def test_symmetry(self, p, q):
        assert f_of(p, q) == f_of(q, p)

    @given(disk_points, disk_points)
    @settings(max_examples=40, deadline=None)
    def test_positive_for_distinct_points(self, p, q):
        if p == q:
            assert f_of(p, q).is_zero()
        else:
            assert fe_sign(f_of(p, q)) == 1

    def test_coincident_points_give_zero(self, g9):
        a4 = g9.vertices[3]
        assert f_of(a4, a4).is_zero()
        assert not is_unit_edge(a4, a4)

    @given(disk_points, disk_points)
    @settings(max_examples=30, deadline=None)
    def test_matches_float_formula(self, p, q):
        exact = f_of(p, q)
        lo, hi = fe_to_interval(exact, Fraction(1, 10**12))
        approx = f_numeric(p.to_floats(), q.to_floats())
        assert float(lo) - 1e-7 <= approx <= float(hi) + 1e-7


class TestSeedGraph:
    def test_order_and_size(self, g9):
        assert g9.order == 9
        assert g9.size == 17

    def test_third_vertex_octuple(self, g9):
        assert g9.vertices[2].octuple == tuple(
            Fraction(v) for v in (0, 0, 1, 0, 0, 0, 0, 1)
        )

    def test_all_edges_certified_exactly(self, g9):
        for i, j in g9.edges:
            assert is_unit_edge(g9.vertices[i], g9.vertices[j])
            assert f_of(g9.vertices[i], g9.vertices[j]) == EDGE_INVARIANT

    def test_all_nonedges_fail(self, g9):
        edges = g9.edge_set()
        nonedges = [
            (i, j)
            for i in range(9)
            for j in range(i + 1, 9)
            if (i, j) not in edges
        ]
        assert len(nonedges) == 19
        for i, j in nonedges:
            assert not is_unit_edge(g9.vertices[i], g9.vertices[j])

    def test_edge_distance_brackets_published_value(self, g9):
        for i, j in g9.edges:
            lo, hi = fe_to_interval(
                ONE + f_of(g9.vertices[i], g9.vertices[j]), Fraction(1, 10**12)
            )
            assert math.acosh(float(lo)) - 1e-9 <= DIST_APPROX <= math.acosh(float(hi)) + 1e-9

    def test_rotation_preserves_distance_quantity(self, g9):
        # the second rhombus is the rotated image of the first
        assert f_of(g9.vertices[0], g9.vertices[4]) == f_of(g9.vertices[0], g9.vertices[1])

    def test_first_seven_vertices_form_spindle(self, g9):
        spindle_set = set(SPINDLE_EDGES)
        seed_within_seven = {
            (i, j) for i, j in g9.edges if i < 7 and j < 7
        }
        assert seed_within_seven == spindle_set

    def test_certify_graph_clean(self, g9):
        report = certify_graph(g9)
        assert report.ok
        assert report.edges_checked == 17
        assert report.nonedges_checked == 19

    def test_certify_finds_dropped_and_false_edges(self, pipeline):
        g = pipeline[4]
        assert (g.order, g.size) == (226, 786)
        dropped = g.edges[400]
        report = certify_graph(
            Graph(g.vertices, [e for e in g.edges if e != dropped], g.origins)
        )
        assert report.failures == [("nonedge", *dropped)]
        edges = g.edge_set()
        false_pair = next(
            (i, j) for i in range(100, g.order) for j in range(i + 1, g.order)
            if (i, j) not in edges
        )
        report = certify_graph(Graph(g.vertices, g.edges + [false_pair], g.origins))
        assert report.failures == [("edge", *false_pair)]

    def test_certify_tests_exactly_the_screened_pairs(self, pipeline, monkeypatch):
        calls = []

        def counting_edge_test(p, q):
            calls.append((p, q))
            return is_unit_edge(p, q)

        monkeypatch.setattr(geometry, "is_unit_edge", counting_edge_test)
        report = certify_graph(pipeline[4])
        assert report.ok
        assert len(calls) == report.edges_checked == 786
        assert report.nonedges_checked == 226 * 225 // 2 - 786 == 24639

    def test_graph_rejects_repeated_pair_and_self_loop(self, g9):
        with pytest.raises(ValueError, match=r"duplicate edge \(0, 1\)"):
            Graph(g9.vertices, list(g9.edges) + [(1, 0)])
        with pytest.raises(ValueError, match=r"edge \(3, 3\) out of range"):
            Graph(g9.vertices, list(g9.edges) + [(3, 3)])

    def test_build_g9_names_first_failing_pair(self, monkeypatch):
        monkeypatch.setattr(geometry, "SEED_EDGES", SEED_EDGES[1:] + ((1, 6),))
        with pytest.raises(GraphIntegrityError, match=r"pair \(1, 2\)"):
            build_g9()

    def test_certify_flags_injected_edge(self, g9):
        bad = Graph(g9.vertices, list(g9.edges) + [(1, 6)], g9.origins)
        report = certify_graph(bad)
        assert not report.ok
        assert ("edge", 1, 6) in report.failures


class TestCondition1:
    def test_holds_for_seed_graph(self, g9):
        assert verify_condition1(g9)

    def test_fails_with_first_circumcenter_replaced(self, g9):
        verts = list(g9.vertices)
        verts[7] = verts[0]
        assert not verify_condition1(Graph(verts, SEED_EDGES[:0]))

    def test_fails_with_perturbed_second_circumcenter(self, g9):
        oct_ = list(g9.vertices[8].octuple)
        oct_[7] += 1
        verts = list(g9.vertices)
        verts[8] = ModulePoint.from_octuple(oct_)
        assert not verify_condition1(Graph(verts, []))

    def test_requires_nine_vertices(self, g9):
        with pytest.raises(ValueError):
            verify_condition1(Graph(g9.vertices[:5], []))


class TestSpindleNumeric:
    def test_radius_for_unit_distance(self):
        pts, edges = spindle_numeric(1.0)
        assert pts[1][0] == pytest.approx(math.tanh(0.5), abs=1e-12)
        assert pts[1][0] == pytest.approx(0.462117, abs=1e-6)

    @pytest.mark.parametrize("d", [1.0, 2.0, 3.0])
    def test_all_edges_close_at_distance(self, d):
        pts, edges = spindle_numeric(d)
        assert len(pts) == 7
        assert len(edges) == 11
        target = math.cosh(d) - 1
        for i, j in edges:
            fv = f_numeric(pts[i], pts[j])
            assert abs(fv - target) / target < 1e-12

    def test_construction_distance_matches_seed_vertices(self, g9):
        pts, _ = spindle_numeric(D_NUMERIC)
        coords = g9.float_coords()
        for k in range(7):
            assert pts[k][0] == pytest.approx(coords[k][0], abs=1e-12)
            assert pts[k][1] == pytest.approx(coords[k][1], abs=1e-12)

    def test_rejects_nonpositive_distance(self):
        with pytest.raises(ValueError):
            spindle_numeric(0.0)


class TestParams:
    def test_invariants(self):
        # D_NUMERIC is the distance whose f is the edge value
        assert math.cosh(D_NUMERIC) - 1 == pytest.approx(EDGE_INVARIANT.to_float(), rel=1e-14)

    def test_distance_value(self):
        assert D_NUMERIC == pytest.approx(DIST_APPROX, abs=1e-8)

    def test_second_rotation_cosine_identity(self):
        # 1 - (1-c)/(8 c^2 (1+c)) evaluates to the published cosine
        c = GEN
        elem = ONE - (ONE - c) / (8 * c * c * (ONE + c))
        lo, hi = fe_to_interval(elem, Fraction(1, 10**12))
        assert float(lo) - 1e-9 <= COSB_APPROX <= float(hi) + 1e-9


class TestNumericCoords:
    def test_origin(self, g9):
        np_ = point_coords_numeric(g9.vertices[0])
        assert np_.x == 0 and np_.y == 0
        assert np_.err_radius() <= 1e-12

    def test_second_vertex_on_axis(self, g9):
        np_ = point_coords_numeric(g9.vertices[1], err_radius=1e-10)
        assert np_.x == pytest.approx(RADIUS_APPROX, abs=1e-8)
        assert np_.y == 0

    def test_third_vertex_matches_figure(self, g9):
        np_ = point_coords_numeric(g9.vertices[2])
        assert np_.x == pytest.approx(0.4043, abs=5e-5)
        assert np_.y == pytest.approx(0.4385, abs=5e-5)

    def test_enclosure_contains_float_coords(self, g9):
        for v in g9.vertices:
            np_ = point_coords_numeric(v, err_radius=1e-13)
            x, y = v.to_floats()
            assert float(np_.x_lo) - 1e-12 <= x <= float(np_.x_hi) + 1e-12
            assert float(np_.y_lo) - 1e-12 <= y <= float(np_.y_hi) + 1e-12

    def test_bounds_independent_of_root_refinement(self, g9):
        # the enclosure is a function of the point and the width only, not
        # of how far earlier calls refined the root
        before = point_coords_numeric(g9.vertices[5], err_radius=1e-9)
        root_bounds(Fraction(1, 10**40))
        after = point_coords_numeric(g9.vertices[5], err_radius=1e-9)
        assert (before.x_lo, before.x_hi, before.y_lo, before.y_hi) == (
            after.x_lo, after.x_hi, after.y_lo, after.y_hi
        )


def coords_reference(p, err_radius):
    """point_coords_numeric in Fractions, as it was written before its
    integer form: the scale enclosures and the coordinate enclosures at
    width target/4, 16 times narrower per round, until both products are
    at most 2 * target wide.  Returns the bounds (x_lo, x_hi, y_lo, y_hi)."""

    def imul(a, b):
        ps = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
        return (min(ps), max(ps))

    target = Fraction(err_radius)
    width = target / 4
    while True:
        r_int = interval_sqrt(*fe_to_interval(RADIUS_SQ, width), width)
        s_int = interval_sqrt(*fe_to_interval(SIN_SQ, width), width)
        x_int = imul(r_int, fe_to_interval(p.x_elem, width))
        y_int = imul(imul(r_int, s_int), fe_to_interval(p.y_elem, width))
        if x_int[1] - x_int[0] <= 2 * target and y_int[1] - y_int[0] <= 2 * target:
            return x_int + y_int
        width /= 16


class TestNumericCoordsReference:
    @pytest.mark.parametrize("err", [1e-9, 1e-12, 1e-13])
    def test_equal_to_fraction_reference(self, g9, pipeline, err):
        for g in (g9, pipeline[4]):
            for v in g.vertices:
                got = point_coords_numeric(v, err_radius=err)
                ref = coords_reference(v, err)
                assert (got.x_lo, got.x_hi, got.y_lo, got.y_hi) == ref
                x_lo, x_hi, y_lo, y_hi = ref
                assert got.x == float((x_lo + x_hi) / 2)
                assert got.y == float((y_lo + y_hi) / 2)
                assert got.err_radius() == float(max(x_hi - x_lo, y_hi - y_lo) / 2)

    def test_refinement_rounds_equal_fraction_reference(self, monkeypatch):
        # every vertex of the default schedule meets the width test in the
        # first round; points far outside the disk widen the products past
        # the target there (the scale's own error times the coordinate), so
        # the later, 16 times narrower rounds run.  x and y take turns
        # deciding the round count.
        widths = []
        scale_enclosures = geometry._scale_enclosures

        def counting(wn, wd):
            widths.append((wn, wd))
            return scale_enclosures(wn, wd)

        monkeypatch.setattr(geometry, "_scale_enclosures", counting)
        mags = [3**e for e in range(13)]
        points = [ModulePoint(FieldElement(1), FieldElement(m)) for m in mags]
        points += [ModulePoint(FieldElement(m), FieldElement(1)) for m in mags]
        points.append(
            ModulePoint(FieldElement(-500, 77, Fraction(1, 3), 9), FieldElement(0, 0, 0, 999))
        )
        rounds = []
        for err in (1e-9, 1e-12):
            for p in points:
                widths.clear()
                got = point_coords_numeric(p, err_radius=err)
                assert (got.x_lo, got.x_hi, got.y_lo, got.y_hi) == coords_reference(p, err)
                # each round takes enclosures 16 times narrower than the last
                steps = [wd // widths[0][1] for _, wd in widths]
                assert steps == [16**r for r in range(len(widths))]
                rounds.append(len(widths))
        assert min(rounds) == 1 and max(rounds) >= 4

    def test_rejects_nonpositive_radius(self, g9):
        for err in (0, -1e-9):
            with pytest.raises(ValueError):
                point_coords_numeric(g9.vertices[3], err_radius=err)


class TestModularScreen:
    def test_prime_and_root(self):
        p, r = SCREEN_PRIME, SCREEN_ROOT
        assert all(p % q for q in range(2, math.isqrt(p) + 1))
        assert sum(coef * pow(r, k, p) for k, coef in enumerate(MIN_POLY)) % p == 0
        assert 16 % p != 0
        # the screen's sum of three products of residues and one residue
        # fits in uint64
        assert 3 * (p - 1) ** 2 + p < 2**64

    @pytest.fixture(scope="class")
    def screened_graphs(self, g28, g42, pipeline):
        assert pipeline[3].order == 119
        return [g28, g42, pipeline[3]]

    def test_recorded_edges_have_zero_residue(self, screened_graphs):
        for g in screened_graphs:
            assert set(g.edges) <= set(screened_pairs(g.vertices))

    def test_nonzero_residue_pairs_fail_exact_test(self, screened_graphs):
        for g in screened_graphs:
            v = g.vertices
            maybe = set(screened_pairs(v))
            ruled_out = [
                (i, j) for i in range(g.order) for j in range(i + 1, g.order)
                if (i, j) not in maybe
            ]
            assert not any(is_unit_edge(v[i], v[j]) for i, j in ruled_out)
            # the screen passes on the edges and nothing else here
            assert len(ruled_out) == g.order * (g.order - 1) // 2 - g.size

    def test_expanded_residual_matches_direct_form(self):
        # 2(1-c)*Delta - K_P*K_Q computed directly with Python integers
        p, r = SCREEN_PRIME, SCREEN_ROOT
        rng = np.random.default_rng(5)
        a = rng.integers(1, p, size=(200, 3))
        b = rng.integers(0, p, size=(200, 3))
        # the largest residues bound the screen's uint64 sums
        a[:3] = p - 1
        b[:3, :2] = p - 1

        def row(residues):
            return np.array(geometry._screen_row(*residues), dtype=np.uint64)

        for ra, rb in zip(a.tolist(), b.tolist()):
            delta = (ra[0] - rb[0]) ** 2 + (1 - r * r) * (ra[1] - rb[1]) ** 2
            rb[2] = 2 * (1 - r) * delta * pow(ra[2], -1, p) % p
            on, off, pa = row(rb), row(rb[:2] + [(rb[2] + 1) % p]), row(ra)
            assert geometry._may_be_edge(pa, on) and geometry._may_be_edge(on, pa)
            assert not geometry._may_be_edge(pa, off) and not geometry._may_be_edge(off, pa)

    def test_screened_pairs_match_brute_force(self, screened_graphs):
        no_image = ModulePoint(FieldElement(Fraction(1, SCREEN_PRIME)), FieldElement(0))
        # past the first block, so the point's pairs straddle a block boundary
        at = geometry._SCAN_BLOCK + 1

        def maybe(p, q):
            return p is no_image or q is no_image or is_unit_edge(p, q)

        for g in screened_graphs:
            verts = list(g.vertices)
            for points in (verts, verts[:at] + [no_image] + verts[at:]):
                n = len(points)
                brute = [
                    (i, j) for i in range(n) for j in range(i + 1, n)
                    if maybe(points[i], points[j])
                ]
                assert screened_pairs(points) == brute
                # the two-set form: these points against the graph's vertices
                across = [
                    (i, j) for i in range(n) for j in range(g.order)
                    if maybe(points[i], verts[j])
                ]
                assert screened_pairs(points, verts) == across
        # the last case: the order-119 graph's edges and the inserted point's pairs
        assert len(brute) == g.size + n - 1
        # each edge in both directions, and the inserted point against every vertex
        assert len(across) == 2 * g.size + g.order
        assert screened_pairs([]) == []
        assert screened_pairs(points, []) == screened_pairs([], points) == []

    def test_point_without_image_is_never_ruled_out(self, g28):
        p = SCREEN_PRIME
        for point in (
            ModulePoint(FieldElement(Fraction(1, p)), FieldElement(0)),
            ModulePoint(FieldElement(0), GEN * Fraction(3, 2 * p)),
        ):
            n = g28.order
            assert screened_pairs([point], g28.vertices) == [(0, j) for j in range(n)]
            assert screened_pairs(g28.vertices, [point]) == [(i, 0) for i in range(n)]
            assert screened_pairs([point, point]) == [(0, 1)]


class TestLexOrder:
    def test_orders_by_x_then_y(self, g9):
        a1, a2, a3 = g9.vertices[0], g9.vertices[1], g9.vertices[2]
        assert lex_less(a1, a2)
        assert not lex_less(a2, a1)
        assert lex_less(a3, a2)  # A3 has smaller x

    def test_irreflexive(self, g9):
        assert not lex_less(g9.vertices[4], g9.vertices[4])
