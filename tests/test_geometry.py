import math
import random
from array import array
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypchrom import geometry
from hypchrom.augment import circle_of, intersect_circles
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
    screened_pairs,
    spindle_numeric,
    unit_edges,
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
        batches = []

        def counting_edge_tests(points, pairs):
            batches.append(list(pairs))
            return unit_edges(points, pairs)

        monkeypatch.setattr(geometry, "unit_edges", counting_edge_tests)
        report = certify_graph(pipeline[4])
        assert report.ok
        # one batch of exactly the screened pairs
        assert [len(pairs) for pairs in batches] == [report.edges_checked] == [786]
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

    def test_certify_flags_vertex_outside_disk(self, g9):
        # x = 5R: K = 1 - 25 (2c - 1) < 0; it is at the target distance from no vertex
        outside = ModulePoint.from_octuple((0, 0, 0, 5, 0, 0, 0, 0))
        report = certify_graph(Graph(g9.vertices + [outside], g9.edges))
        assert not report.ok
        assert report.failures == [("disk", 9)]
        assert (report.edges_checked, report.nonedges_checked) == (17, 28)

    def test_build_g9_names_vertex_outside_disk(self, monkeypatch):
        octuples = geometry._SEED_OCTUPLES + ((0, 0, 0, 5, 0, 0, 0, 0),)
        monkeypatch.setattr(geometry, "_SEED_OCTUPLES", octuples)
        with pytest.raises(GraphIntegrityError, match=r"failed on vertex \(10\)$"):
            build_g9()

    def test_certify_flags_injected_edge(self, g9):
        bad = Graph(g9.vertices, list(g9.edges) + [(1, 6)], g9.origins)
        report = certify_graph(bad)
        assert not report.ok
        assert ("edge", 1, 6) in report.failures


# An independent reference for the exact test, from the definition of f:
# elements of Q(c) as (four integer numerators by ascending degree, one
# denominator), products reduced by 16 c^4 = -(1 - 2c - 12c^2 + 8c^3) one
# degree at a time, and the points entering only through their octuples.

def ref_elem(coeffs):
    fracs = [Fraction(v) for v in coeffs]
    den = math.lcm(*(f.denominator for f in fracs))
    return [int(f * den) for f in fracs], den


def ref_mul(a, b):
    (an, ad), (bn, bd) = a, b
    prod = [0] * 7
    for i, ai in enumerate(an):
        for j, bj in enumerate(bn):
            prod[i + j] += ai * bj
    den = ad * bd
    for deg in range(6, 3, -1):
        top, prod[deg] = prod[deg], 0
        prod = [MIN_POLY[4] * v for v in prod]
        den *= MIN_POLY[4]
        for i in range(4):
            prod[deg - 4 + i] -= top * MIN_POLY[i]
    return prod[:4], den


def ref_add(a, b):
    (an, ad), (bn, bd) = a, b
    return [u * bd + v * ad for u, v in zip(an, bn)], ad * bd


def ref_sub(a, b):
    (bn, bd) = b
    return ref_add(a, ([-v for v in bn], bd))


def ref_equal(a, b):
    (an, ad), (bn, bd) = a, b
    return all(u * bd == v * ad for u, v in zip(an, bn))


REF_ONE = ref_elem((1, 0, 0, 0))
REF_R2 = ref_elem((-1, 2, 0, 0))         # R^2 = 2c - 1
REF_S2 = ref_elem((1, 0, -1, 0))         # s^2 = 1 - c^2
REF_TWO_ONE_MINUS_C = ref_elem((2, -2, 0, 0))


def ref_coords(point):
    """X and Y, from the octuple [m, n, p, q, u, v, w, z]."""
    o = point.octuple
    return ref_elem(o[3::-1]), ref_elem(o[:3:-1])


def ref_norm(x, y):
    """x^2 + y^2 for the disk point (R X, R s Y): R^2 (X^2 + s^2 Y^2)."""
    return ref_mul(REF_R2, ref_add(ref_mul(x, x), ref_mul(REF_S2, ref_mul(y, y))))


def ref_k(point):
    """1 - x^2 - y^2."""
    return ref_sub(REF_ONE, ref_norm(*ref_coords(point)))


def ref_sq_distance(p, q):
    """(x_P - x_Q)^2 + (y_P - y_Q)^2."""
    (xp, yp), (xq, yq) = ref_coords(p), ref_coords(q)
    return ref_norm(ref_sub(xp, xq), ref_sub(yp, yq))


def ref_is_edge(p, q, kp=None, kq=None):
    """f(P, Q) = 2 |P - Q|^2 / (K_P K_Q) equals (2c-1)/(1-c), multiplied
    out: 2 (1-c) |P - Q|^2 = (2c-1) K_P K_Q."""
    kk = ref_mul(kp or ref_k(p), kq or ref_k(q))
    return ref_equal(
        ref_mul(REF_TWO_ONE_MINUS_C, ref_sq_distance(p, q)), ref_mul(REF_R2, kk)
    )


def ref_is_f(f, p, q, kp=None, kq=None):
    """f K_P K_Q = 2 |P - Q|^2, for the field element f."""
    kk = ref_mul(kp or ref_k(p), kq or ref_k(q))
    twice = ref_mul(ref_elem((2, 0, 0, 0)), ref_sq_distance(p, q))
    return ref_equal(ref_mul(ref_elem(f.coeffs), kk), twice)


def as_field(elem):
    nums, den = elem
    return FieldElement(*(Fraction(v, den) for v in nums))


# module point coordinates with zero entries and with denominators that the
# screen prime divides
screen_entries = st.one_of(
    st.just(Fraction(0)),
    st.builds(
        Fraction,
        st.integers(min_value=-30, max_value=30),
        st.sampled_from([1, 2, 3, 24, SCREEN_PRIME, 6 * SCREEN_PRIME]),
    ),
)
screen_points = st.builds(
    lambda *vals: ModulePoint.from_octuple(vals), *([screen_entries] * 8)
)


def on_base_circle(t: Fraction) -> ModulePoint:
    """A point at the target distance from the origin: X^2 + (1-c^2) Y^2 = 1,
    with X = (1 - u)/(1 + u), Y = 2t/(1 + u) and u = t^2 (1 - c^2)."""
    u = SIN_SQ * (t * t)
    inv = ONE / (ONE + u)
    return ModulePoint((ONE - u) * inv, inv * (2 * t))


class TestExactEdgeTest:
    """is_unit_edge, f_of and k_elem on the operand rows, against the
    Fraction reference above."""

    def test_equal_to_reference_on_order_226_graph(self, pipeline):
        g = pipeline[4]
        v = g.vertices
        ks = [ref_k(point) for point in v]
        rng = random.Random(226)
        pairs = set(screened_pairs(v))
        assert len(pairs) == g.size == 786
        pairs |= {tuple(sorted(rng.sample(range(g.order), 2))) for _ in range(2000)}
        hits = 0
        for i, j in sorted(pairs):
            edge = ref_is_edge(v[i], v[j], ks[i], ks[j])
            hits += edge
            for p, q in ((v[i], v[j]), (v[j], v[i])):
                assert is_unit_edge(p, q) == edge, (i, j)
                assert ref_is_f(f_of(p, q), v[i], v[j], ks[i], ks[j]), (i, j)
        assert hits == g.size

    @given(screen_points, screen_points)
    @settings(max_examples=60, deadline=None)
    def test_equal_to_reference_on_any_points(self, p, q):
        for a, b in ((p, q), (q, p)):
            assert is_unit_edge(a, b) == ref_is_edge(a, b)
        assert p.k_elem() == as_field(ref_k(p))
        if not (p.k_elem().is_zero() or q.k_elem().is_zero()):
            assert f_of(p, q) == f_of(q, p)
            assert ref_is_f(f_of(p, q), p, q)

    def test_perturbed_endpoint_is_not_an_edge(self, pipeline):
        g = pipeline[4]
        for i, j in g.edges[::97]:
            p, q = g.vertices[i], g.vertices[j]
            assert is_unit_edge(p, q)
            for at in range(8):
                for step in (Fraction(1, 7), Fraction(-1, 2**20)):
                    octuple = list(p.octuple)
                    octuple[at] += step
                    moved = ModulePoint.from_octuple(octuple)
                    assert not ref_is_edge(moved, q)
                    assert not is_unit_edge(moved, q) and not is_unit_edge(q, moved)

    def test_k_equals_direct_formula(self, g9, pipeline):
        for point in g9.vertices + pipeline[4].vertices:
            x, y = point.x_elem, point.y_elem
            k = point.k_elem()
            assert k == ONE - RADIUS_SQ * (x * x + SIN_SQ * y * y)
            assert k == as_field(ref_k(point))
        assert [v.k_elem() for v in g9.vertices[:3]] == [ONE, ONE - RADIUS_SQ, ONE - RADIUS_SQ]

    def test_rows_of_the_final_graph_fit_64_bits(self, pipeline):
        # the compact row; the largest entry is 18 bits on the default schedule
        rows = [v._operands() for v in pipeline[-1].vertices]
        assert {type(row) for row in rows} == {array}
        assert max(abs(e) for row in rows for e in row) < 2**20

    def test_row_too_wide_for_64_bits(self, g9):
        origin = g9.vertices[0]
        far = on_base_circle(Fraction(3**40, 2**70 + 1))
        assert isinstance(far._operands(), tuple)
        assert max(abs(e) for e in far._operands()) >= 2**63
        assert is_unit_edge(origin, far) and is_unit_edge(far, origin)
        assert ref_is_edge(origin, far)
        assert f_of(far, origin) == EDGE_INVARIANT
        assert ref_is_f(EDGE_INVARIANT, origin, far)
        assert far.k_elem() == as_field(ref_k(far)) == 2 * (ONE - GEN)
        assert far.is_inside_disk()
        # the screen reads the wide row too, and keeps the pair
        assert screened_pairs([origin, far]) == [(0, 1)]
        x, y = far.x_elem, far.y_elem
        moved = ModulePoint(x, y + FieldElement(Fraction(1, 3**30)))
        assert isinstance(moved._operands(), tuple)
        assert not is_unit_edge(origin, moved) and not ref_is_edge(origin, moved)


class TestBatchedEdgeTest:
    """unit_edges against is_unit_edge: one formula, so equal answers in
    int64 under the entry bound and in Python ints above it."""

    @pytest.fixture
    def block_dtypes(self, monkeypatch):
        """The dtype of each block unit_edges evaluates (is_unit_edge's rows
        are not recorded).  Wrapped int64 arithmetic is exact mod 2^64, so
        it keeps every true edge, and only a rare non-edge would show a
        missing bound; the dtype shows it."""
        dtypes = []
        residual_is_zero = geometry._residual_is_zero

        def recording(p, q):
            if isinstance(p, np.ndarray):
                dtypes.append(p.dtype)
            return residual_is_zero(p, q)

        monkeypatch.setattr(geometry, "_residual_is_zero", recording)
        return dtypes

    def test_int64_bound_holds_for_the_formula(self):
        # the formula evaluated on magnitude bounds: an entry counts 1, a
        # product the product of its factors, a sum or difference the sum of
        # its terms, so the largest count any partial sum reaches is the
        # total weight of unit_edges' docstring
        seen = []

        class Magnitude:
            def __init__(self, m):
                self.m = m
                seen.append(m)

            def __add__(self, other):
                return Magnitude(self.m + other.m)

            __sub__ = __add__

            def __mul__(self, other):
                return Magnitude(self.m * (other.m if isinstance(other, Magnitude) else abs(other)))

            __rmul__ = __mul__

            def __eq__(self, other):
                return True

        row = [Magnitude(1) for _ in range(25)]
        assert geometry._residual_is_zero(row, row) is True
        assert max(seen) == 856
        # every partial sum of products of entries below the bound fits int64
        bound = geometry._INT64_ENTRY_BOUND
        assert max(seen) * (bound - 1) ** 2 < 2**62

    def test_equal_on_the_final_graph(self, pipeline, block_dtypes):
        g = pipeline[-1]
        v = g.vertices
        rows = [point._operands() for point in v]
        assert max(abs(e) for row in rows for e in row) < geometry._INT64_ENTRY_BOUND
        maybe = screened_pairs(v)
        assert len(maybe) == g.size == 5447
        rng = random.Random(1378)
        edges = g.edge_set()
        others = []
        while len(others) < 10_000:
            pair = tuple(sorted(rng.sample(range(g.order), 2)))
            if pair not in edges:
                others.append(pair)
        for pairs in (maybe, others, [(j, i) for i, j in others[:500]]):
            assert unit_edges(v, pairs).tolist() == [is_unit_edge(v[i], v[j]) for i, j in pairs]
        assert unit_edges(v, maybe).all() and not unit_edges(v, others).any()
        assert set(block_dtypes) == {np.dtype(np.int64)}

    def test_rows_above_the_bound_take_python_ints(self, g9, block_dtypes):
        # the circles of two points on the base circle meet at the origin and
        # at a point whose row has 50-bit entries: int64 rows, but past the
        # bound, where int64 products would wrap
        origin = g9.vertices[0]
        p = on_base_circle(Fraction(1, 3))
        q = on_base_circle(Fraction(2, 7))
        wide = [r for r in intersect_circles(circle_of(p), circle_of(q)) if r != origin]
        assert len(wide) == 1
        [r] = wide
        assert isinstance(r._operands(), array)
        assert max(abs(e) for e in r._operands()) >= 2**32
        points = [origin, p, q, r]
        pairs = [(3, 1), (1, 3), (2, 3), (0, 3), (3, 0), (0, 1), (1, 2)]
        want = [is_unit_edge(points[i], points[j]) for i, j in pairs]
        assert want[:3] == [True] * 3 and want[3:5] == [False] * 2
        assert want == [ref_is_edge(points[i], points[j]) for i, j in pairs]
        assert unit_edges(points, pairs).tolist() == want
        assert block_dtypes == [np.dtype(object)]
        # and a tuple row, too wide for int64
        far = on_base_circle(Fraction(3**40, 2**70 + 1))
        assert isinstance(far._operands(), tuple)
        assert unit_edges([origin, far, p], [(0, 1), (1, 2)]).tolist() == [True, False]
        assert block_dtypes == [np.dtype(object)] * 2
        assert not ref_is_edge(far, p)

    def test_no_pairs(self, g9):
        for points in (g9.vertices, []):
            hits = unit_edges(points, [])
            assert hits.dtype == bool and hits.shape == (0,)


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
    """The float coordinates the SVG draws, ModulePoint.to_floats()."""

    def test_origin(self, g9):
        assert g9.vertices[0].to_floats() == (0.0, 0.0)

    def test_second_vertex_on_axis(self, g9):
        x, y = g9.vertices[1].to_floats()
        assert x == pytest.approx(RADIUS_APPROX, abs=1e-8)
        assert y == 0

    def test_third_vertex_matches_figure(self, g9):
        x, y = g9.vertices[2].to_floats()
        assert x == pytest.approx(0.4043, abs=5e-5)
        assert y == pytest.approx(0.4385, abs=5e-5)

    def test_enclosure_contains_float_coords(self, pipeline):
        # every vertex of the order-1378 graph reads within 1e-14 of the
        # midpoint of its exact enclosure at width 1e-17
        g = pipeline[-1]
        assert g.order == 1378
        for v in g.vertices:
            x_lo, x_hi, y_lo, y_hi = coords_reference(v, Fraction(1, 10**17))
            x, y = v.to_floats()
            assert abs(Fraction(x) - (x_lo + x_hi) / 2) <= 1e-14
            assert abs(Fraction(y) - (y_lo + y_hi) / 2) <= 1e-14

    def test_bounds_independent_of_root_refinement(self, g9, fresh_python):
        # the coordinates are a function of the point only, not of what the
        # process asked before: those of an interpreter that makes no other
        # query, and those of this one after a 1e-60 query
        before = fresh_python(
            "from fractions import Fraction\n"
            "from hypchrom.geometry import ModulePoint\n"
            f"p = ModulePoint.from_octuple({g9.vertices[5].octuple!r})\n"
            "print(p.to_floats())\n"
        )
        fe_to_interval(GEN, Fraction(1, 10**60))
        assert before == f"{g9.vertices[5].to_floats()}\n"


def coords_reference(p, err_radius):
    """Exact enclosures of a point's disk coordinates in Fractions: the
    scale R and R*s and the coordinates X, Y at width target/4, 16 times
    narrower per round, until both products are at most 2 * target wide.
    Returns the bounds (x_lo, x_hi, y_lo, y_hi)."""

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


def residue(elem):
    """The image mod p of a field element, with c sent to r."""
    p, r = SCREEN_PRIME, SCREEN_ROOT
    return sum(
        q.numerator * pow(q.denominator, -1, p) * pow(r, i, p)
        for i, q in enumerate(elem.coeffs)
    ) % p


def screen_row(x, y, k):
    """The screen's operand row of a point whose X, Y and K have the
    residues x, y and k mod p, from the formulas A = 2(1-r)(x^2 + (1-r^2)y^2),
    U*X = 4(1-r)x and V*Y = 4(1-r)(1-r^2)y, then the no-image flag 0."""
    p, r = SCREEN_PRIME, SCREEN_ROOT
    a = 2 * (1 - r) * (x * x + (1 - r * r) * y * y) % p
    return (x, y, k, a, 4 * (1 - r) * x % p, 4 * (1 - r) * (1 - r * r) * y % p, 0)


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
            return np.array(screen_row(*residues), dtype=np.uint64)

        for ra, rb in zip(a.tolist(), b.tolist()):
            delta = (ra[0] - rb[0]) ** 2 + (1 - r * r) * (ra[1] - rb[1]) ** 2
            rb[2] = 2 * (1 - r) * delta * pow(ra[2], -1, p) % p
            on, off, pa = row(rb), row(rb[:2] + [(rb[2] + 1) % p]), row(ra)
            assert geometry._may_be_edge(pa, on) and geometry._may_be_edge(on, pa)
            assert not geometry._may_be_edge(pa, off) and not geometry._may_be_edge(off, pa)

    def test_screen_rows_are_images_of_the_operand_rows(self, screened_graphs):
        # the screen reads every residue from the exact operand row; they
        # equal the residues of the formulas, from the point's X and Y
        p, r = SCREEN_PRIME, SCREEN_ROOT
        far = on_base_circle(Fraction(3**40, 2**70 + 1))
        assert isinstance(far._operands(), tuple)
        no_image = ModulePoint(FieldElement(Fraction(1, p)), FieldElement(0))
        points = list(screened_graphs[2].vertices) + [far, no_image]
        assert len(points) == 119 + 2
        rows = geometry._screen_rows(points)
        assert rows.dtype == np.uint64 and rows.shape == (len(points), 7)
        for point, row in zip(points[:-1], rows.tolist()):
            x, y = residue(point.x_elem), residue(point.y_elem)
            k = (1 - (2 * r - 1) * (x * x + (1 - r * r) * y * y)) % p
            assert tuple(row) == screen_row(x, y, k)
        assert rows[-1].tolist() == [0, 0, 0, 0, 0, 0, 1]

    def test_screened_pairs_match_brute_force(self, screened_graphs):
        no_image = ModulePoint(FieldElement(Fraction(1, SCREEN_PRIME)), FieldElement(0))
        # past the first block, so the point's pairs straddle a block boundary
        at = geometry._SCAN_BLOCK + 1

        def maybe(p, q):
            return p is no_image or q is no_image or is_unit_edge(p, q)

        for g in screened_graphs:
            verts = list(g.vertices)
            # the screen passes the recorded edges and nothing else here; the
            # brute-force check below shows it rules out no unit pair
            assert screened_pairs(verts) == g.edges
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
