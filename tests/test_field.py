import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hypchrom.field import (
    EDGE_INVARIANT,
    GEN,
    MIN_POLY,
    ONE,
    RADIUS_SQ,
    SIN_SQ,
    SQRT5,
    ZERO,
    FieldElement,
    _one_root_in,
    _parse_ratio,
    _root_levels,
    fe_sign,
    fe_sqrt,
    fe_to_interval,
    interval_sqrt,
)

# value quoted for the designated root and the target distance
ROOT_APPROX = 0.6778371470
DIST_APPROX = 1.375033509


def poly_reduce_oracle(coeffs):
    """Independent reduction: long division of an arbitrary-degree
    polynomial by the minimal polynomial, dense Fraction arithmetic."""
    coeffs = [Fraction(c) for c in coeffs]
    mp = [Fraction(c) for c in MIN_POLY]
    while len(coeffs) > 4:
        lead = coeffs[-1] / mp[-1]
        deg_gap = len(coeffs) - len(mp)
        for i, m in enumerate(mp):
            coeffs[deg_gap + i] -= lead * m
        assert coeffs[-1] == 0
        coeffs.pop()
    coeffs += [Fraction(0)] * (4 - len(coeffs))
    return tuple(coeffs)


small_rationals = st.fractions(
    min_value=-20, max_value=20, max_denominator=12
)
elements = st.builds(FieldElement, small_rationals, small_rationals, small_rationals, small_rationals)


class TestArithmetic:
    def test_generator_satisfies_minimal_polynomial(self):
        acc = ZERO
        for i, coef in enumerate(MIN_POLY):
            acc = acc + FieldElement(coef) * GEN**i
        assert acc.is_zero()

    def test_mul_c_by_c_cubed_against_division_oracle(self):
        # c * c^3 = c^4, reduced by the independent long-division oracle
        expected = poly_reduce_oracle([0, 0, 0, 0, 1])
        assert (GEN * GEN**3).coeffs == expected
        assert expected == (
            Fraction(-1, 16), Fraction(1, 8), Fraction(3, 4), Fraction(-1, 2),
        )

    @given(elements, elements)
    @settings(max_examples=60, deadline=None)
    def test_mul_matches_division_oracle(self, a, b):
        raw = [Fraction(0)] * 7
        ac, bc = a.coeffs, b.coeffs
        for i in range(4):
            for j in range(4):
                raw[i + j] += ac[i] * bc[j]
        assert (a * b).coeffs == poly_reduce_oracle(raw)

    def test_mul_identity(self):
        x = FieldElement(Fraction(3, 7), -2, Fraction(5, 11), 9)
        assert ONE * x == x
        assert x * ONE == x

    def test_div_gives_edge_invariant(self):
        f = (2 * GEN - ONE) / (ONE - GEN)
        assert f == EDGE_INVARIANT
        lo, hi = fe_to_interval(f, Fraction(1, 10**6))
        assert lo <= Fraction(11040, 10000) <= hi or abs(float(lo) - 1.1040) < 1e-4

    def test_division_by_zero_reported(self):
        with pytest.raises(ZeroDivisionError):
            ONE / ZERO
        with pytest.raises(ZeroDivisionError):
            ZERO.inverse()

    @given(elements)
    @settings(max_examples=80, deadline=None)
    def test_inverse_roundtrip(self, a):
        if a.is_zero():
            return
        assert a * (ONE / a) == ONE

    def test_inverse_of_generator_from_minimal_polynomial(self):
        # 1 = -c (16c^3 + 8c^2 - 12c - 2) on the minimal polynomial
        assert GEN.inverse() == FieldElement(2, 12, -8, -16)

    def test_inverse_with_zero_coefficients(self):
        c_inv = FieldElement(2, 12, -8, -16)
        assert (GEN**2).inverse() == c_inv**2
        assert (GEN**3).inverse() == c_inv**3
        assert FieldElement(0, 0, 3, 0).inverse() == c_inv**2 * Fraction(1, 3)
        assert FieldElement(Fraction(-7, 3)).inverse() == FieldElement(Fraction(-3, 7))
        for a in (
            FieldElement(0, 1, 0, 1),
            FieldElement(1, 0, 0, Fraction(1, 5)),
            FieldElement(0, Fraction(2, 3), Fraction(-1, 2), 0),
            FieldElement(7, 0, -2, 0),
        ):
            assert a * a.inverse() == ONE
            assert a.inverse().inverse() == a

    def test_constants_roundtrip(self):
        assert SQRT5.inverse() == SQRT5 * Fraction(1, 5)
        for a in (SQRT5, EDGE_INVARIANT, SIN_SQ):
            assert a * a.inverse() == ONE
            assert a.inverse().inverse() == a

    @given(elements, elements, elements)
    @settings(max_examples=40, deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


class TestSign:
    def test_sign_of_zero(self):
        assert fe_sign(ZERO) == 0

    def test_sign_refines_below_cached_levels(self):
        # from exp 20 on, c - lo and c - hi are too small for the levels
        # built at import to decide, so fe_sign halves on past them inside
        # the query, as fe_to_interval does for its own level: GEN's bounds
        # are the endpoints of the chain's level
        for exp in (20, 40, 80):
            lo, hi = fe_to_interval(GEN, Fraction(1, 10**exp))
            assert hi - lo <= Fraction(1, 10**exp)
            assert fe_sign(GEN - lo) == 1
            assert fe_sign(GEN - hi) == -1

    def test_sign_examples(self):
        assert fe_sign(2 * GEN - ONE) == 1
        assert fe_sign(GEN - ONE) == -1

    def test_sign_total_on_randomized_elements(self):
        import random

        rng = random.Random(12345)
        for _ in range(1000):
            coeffs = [
                Fraction(rng.randint(-50, 50), rng.randint(1, 40)) for _ in range(4)
            ]
            a = FieldElement(*coeffs)
            s = fe_sign(a)
            if a.is_zero():
                assert s == 0
            else:
                assert s in (-1, 1)
                assert (a.to_float() > 0) == (s > 0)


def minpoly_at(x):
    return sum(coef * x**i for i, coef in enumerate(MIN_POLY))


def root_level(k):
    """Level k of the root's bisection chain as bounds in Q."""
    lo, den = next(_root_levels(k))
    return Fraction(lo, den), Fraction(lo + 1, den)


class TestRootChain:
    def test_one_root_in(self):
        assert _one_root_in(27, 28, 40)
        # p(0) = 1, p(3/10) = -209/625 and p(1) = 11: two roots
        assert minpoly_at(Fraction(3, 10)) == Fraction(-209, 625)
        assert not _one_root_in(0, 40, 40)
        # p(28/40) and p(29/40) are both positive: no sign change
        assert not _one_root_in(28, 29, 40)

    def test_levels_follow_the_definition_across_the_built_chain(self):
        # level k is 1/(40 * 2^k) wide, one half of level k - 1, and has
        # endpoints where the minimal polynomial changes sign, on both sides
        # of level 55, the last one built at import
        prev_lo, prev_hi = root_level(51)
        for k in range(52, 61):
            lo, hi = root_level(k)
            assert hi - lo == Fraction(1, 40 << k)
            mid = (prev_lo + prev_hi) / 2
            assert (lo, hi) in ((prev_lo, mid), (mid, prev_hi))
            assert minpoly_at(lo) * minpoly_at(hi) < 0
            prev_lo, prev_hi = lo, hi

    def test_levels_nest_from_the_seed(self):
        # level 0 is the seed bracket; each level down to 51, where the test
        # above starts, lies inside the one before it
        bounds = [root_level(k) for k in range(52)]
        assert bounds[0] == (Fraction(27, 40), Fraction(28, 40))
        for (lo, hi), (prev_lo, prev_hi) in zip(bounds[1:], bounds):
            assert prev_lo <= lo < hi <= prev_hi


def interval_reference(a, target):
    """fe_to_interval from its specification, in Fractions: Horner in
    interval arithmetic on the coarsest level of the root's bisection chain
    (level k is 1/(40 * 2^k) wide) that is at most 1e-18 wide and gives a
    value at most target wide."""
    k = 0
    while Fraction(1, 40 << k) > min(target, Fraction(1, 10**18)):
        k += 1
    while True:
        lo, hi = root_level(k)
        assert hi - lo == Fraction(1, 40 << k)
        acc_lo = acc_hi = Fraction(0)
        for coef in reversed(a.coeffs):
            ps = (acc_lo * lo, acc_lo * hi, acc_hi * lo, acc_hi * hi)
            acc_lo, acc_hi = min(ps) + coef, max(ps) + coef
        if acc_hi - acc_lo <= target:
            return acc_lo, acc_hi
        k += 1


class TestIntervals:
    def test_bounds_equal_fraction_reference(self):
        assert fe_to_interval(GEN, Fraction(1, 10**6)) == (
            Fraction(488433139615636109, 720575940379279360),
            Fraction(976866279231272219, 1441151880758558720),
        )
        for a in (
            GEN,
            FieldElement(1, Fraction(2, 3), Fraction(-1, 5), 2),
            FieldElement(Fraction(-7, 3), 5, Fraction(1, 9), Fraction(-13, 2)),
            EDGE_INVARIANT,
        ):
            for exp in (6, 12, 30):
                target = Fraction(1, 10**exp)
                assert fe_to_interval(a, target) == interval_reference(a, target)

    def test_root_interval_brackets_published_value(self):
        # the published decimal is rounded to ten digits, so compare at 1e-9
        lo, hi = fe_to_interval(GEN, Fraction(1, 10**9))
        assert float(hi - lo) <= 1e-9
        assert abs(float(lo) - ROOT_APPROX) < 1e-9
        assert abs(float(hi) - ROOT_APPROX) < 1e-9

    def test_zero_interval(self):
        assert fe_to_interval(ZERO, Fraction(1, 10**9)) == (0, 0)

    def test_one_plus_f_brackets_cosh_of_distance(self):
        lo, hi = fe_to_interval(ONE + EDGE_INVARIANT, Fraction(1, 10**10))
        target = math.cosh(DIST_APPROX)
        assert float(lo) - 1e-8 <= target <= float(hi) + 1e-8

    def test_bounds_shrink_monotonically(self):
        a = FieldElement(1, Fraction(2, 3), Fraction(-1, 5), 2)
        widths = []
        for exp in (4, 8, 12):
            lo, hi = fe_to_interval(a, Fraction(1, 10**exp))
            widths.append(hi - lo)
            assert hi - lo <= Fraction(1, 10**exp)
        assert widths[0] >= widths[1] >= widths[2]

    def test_bounds_independent_of_root_refinement(self, fresh_python):
        # the bounds of an interpreter that makes no other query, and those
        # of this one after a 1e-60 query
        before = fresh_python(
            "from fractions import Fraction\n"
            "from hypchrom.field import FieldElement, fe_to_interval\n"
            "a = FieldElement(1, Fraction(2, 3), Fraction(-1, 5), 2)\n"
            "print([fe_to_interval(a, Fraction(1, 10**exp)) for exp in (6, 30)])\n"
        )
        a = FieldElement(1, Fraction(2, 3), Fraction(-1, 5), 2)
        fe_to_interval(GEN, Fraction(1, 10**60))
        after = [fe_to_interval(a, Fraction(1, 10**exp)) for exp in (6, 30)]
        assert before == f"{after}\n"

    @given(elements)
    @settings(max_examples=60, deadline=None)
    def test_interval_brackets_float_evaluation(self, a):
        lo, hi = fe_to_interval(a, Fraction(1, 10**12))
        x = a.to_float()
        assert float(lo) - 1e-9 <= x <= float(hi) + 1e-9

    def test_target_width_must_be_positive(self):
        with pytest.raises(ValueError):
            fe_to_interval(GEN, 0)

    def test_interval_sqrt_outward(self):
        lo, hi = interval_sqrt(Fraction(2), Fraction(2), Fraction(1, 10**12))
        assert float(lo) <= math.sqrt(2) <= float(hi)
        assert hi - lo <= Fraction(2, 10**12) + Fraction(2, 10**13)


class TestSqrt:
    def test_sqrt_of_generator_squared(self):
        assert fe_sqrt(GEN * GEN) == GEN
        # roots t1*c whose t1^2 is, in Q(sqrt5), a rational square, five
        # times a rational square, and a square that is not rational
        for t1 in (FieldElement(Fraction(3, 2)), SQRT5, ONE + SQRT5):
            assert fe_sqrt((t1 * GEN) ** 2) == t1 * GEN

    def test_sqrt_takes_nonnegative_branch(self):
        one_minus = ONE - GEN
        assert fe_sqrt(one_minus * one_minus) == one_minus
        minus = GEN - ONE  # negative value at the root
        assert fe_sqrt(minus * minus) == one_minus

    def test_sqrt_of_zero(self):
        assert fe_sqrt(ZERO) == ZERO

    def test_sqrt_of_negative_rejected(self):
        with pytest.raises(ValueError):
            fe_sqrt(GEN - ONE)

    def test_sqrt_absent_for_nonsquares(self):
        assert fe_sqrt(FieldElement(2)) is None
        assert fe_sqrt(FieldElement(3)) is None
        assert fe_sqrt(GEN) is None
        # 1 + sqrt5 has norm -4, not a square; 3 + sqrt5 has norm 4, a
        # square, and is still no square in Q(sqrt5) or Q(c)
        assert fe_sqrt(ONE + SQRT5) is None
        assert fe_sqrt(3 + SQRT5) is None

    def test_sqrt_of_five_is_the_embedded_radical(self):
        assert fe_sqrt(FieldElement(5)) == SQRT5
        assert SQRT5 * SQRT5 == FieldElement(5)

    @given(elements)
    @settings(max_examples=60, deadline=None)
    def test_sqrt_of_square_recovers_element(self, t):
        root = fe_sqrt(t * t)
        assert root is not None
        assert root == t or root == -t
        assert fe_sign(root) >= 0

    @given(elements.filter(lambda t: not t.is_zero()))
    @settings(max_examples=60, deadline=None)
    def test_generator_times_a_square_is_no_square(self, t):
        # c is no square in Q(c), so neither is c t^2 for t != 0
        assert fe_sqrt(GEN * t * t) is None

    @given(small_rationals, small_rationals)
    @settings(max_examples=60, deadline=None)
    def test_sqrt_of_a_square_in_q_sqrt5(self, a, b):
        # s^2 in Q(sqrt5) has a root t0 with t1 = 0: rational, five times
        # a rational, or irrational, by which of a, b is zero
        s = a + b * SQRT5
        root = fe_sqrt(s * s)
        assert root is not None
        assert root == s or root == -s
        assert fe_sign(root) >= 0


class TestSerialization:
    def test_rational_strings(self):
        assert FieldElement(Fraction(-3, 7)).as_strings()[0] == "-3/7"
        assert _parse_ratio("-3/7") == (-3, 7)
        assert _parse_ratio("5") == (5, 1)

    def test_parse_edge_cases(self):
        assert _parse_ratio("6/4") == (6, 4)
        assert _parse_ratio("3/-7") == (3, -7)
        assert _parse_ratio("12") == (12, 1)
        with pytest.raises(ZeroDivisionError):
            _parse_ratio("1/0")
        for bad in ("x/2", "1/y", "1/2/3", "3/", "", "1.5"):
            with pytest.raises(ValueError):
                _parse_ratio(bad)

    def test_element_from_unreduced_strings(self):
        a = FieldElement.from_strings(["6/4", "3/-7", "12", "0/9"])
        ref = FieldElement(Fraction(3, 2), Fraction(-3, 7), 12, 0)
        assert (a._n, a._d) == (ref._n, ref._d)
        assert a.coeffs == (Fraction(3, 2), Fraction(-3, 7), 12, 0)
        assert a.as_strings() == ("3/2", "-3/7", "12/1", "0/1")

    @given(elements)
    @settings(max_examples=40, deadline=None)
    def test_element_string_roundtrip(self, a):
        back = FieldElement.from_strings(a.as_strings())
        assert back == a
        assert (back._n, back._d) == (a._n, a._d)
        assert a.as_strings() == tuple(f"{q.numerator}/{q.denominator}" for q in a.coeffs)

    @given(
        st.lists(
            st.tuples(
                st.integers(-10**6, 10**6),
                st.integers(-10**4, 10**4).filter(lambda d: d != 0),
            ),
            min_size=4,
            max_size=4,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_from_strings_matches_fraction_reference(self, ratios):
        a = FieldElement.from_strings([f"{n}/{d}" for n, d in ratios])
        ref = FieldElement(*(Fraction(n, d) for n, d in ratios))
        assert (a._n, a._d) == (ref._n, ref._d)

    def test_element_strings_shape(self):
        assert len(GEN.as_strings()) == 4
        assert GEN.as_strings()[1] == "1/1"


class TestConstants:
    def test_derived_constants(self):
        assert SIN_SQ == ONE - GEN * GEN
        assert RADIUS_SQ == 2 * GEN - ONE
        assert EDGE_INVARIANT == RADIUS_SQ / (ONE - GEN)

    def test_float_generator_is_the_midpoint_of_the_1e18_enclosure(self):
        assert GEN.to_float() == 0.6778371469890411
        lo, hi = fe_to_interval(GEN, Fraction(1, 10**18))
        assert GEN.to_float() == float((lo + hi) / 2)
