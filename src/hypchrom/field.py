"""Exact arithmetic in the quartic number field Q(c).

The generator c is the real root near 0.6778 of

    16c^4 + 8c^3 - 12c^2 - 2c + 1 = 0.

Elements are polynomials of degree <= 3 in c with rational coefficients,
stored canonically (four integer numerators over one positive common
denominator, with overall gcd 1), so equality and hashing are structural.
Multiplication and inversion work on the integer numerators only.

Sign and interval queries evaluate the element on an isolating interval of
the root and bisect until the answer is unambiguous; they are exact, never
floating point.  The root's bisection chain is built once, at import,
down to the level at most 1e-18 wide; a query that needs a deeper level
halves on to it itself, so queries share no state and nothing is written
after import.  The bisection levels have power-of-two denominators, so
the evaluation is integer interval Horner, and only the bounds handed out
by fe_to_interval become Fractions.  Square roots are decided exactly
through the tower Q < Q(sqrt5) < Q(c): the quartic factors over Q(sqrt5),
so a field square root reduces to square roots in Q(sqrt5) and ultimately
to integer square roots.  Q(sqrt5) is a subfield, sqrt5 = 16c^3 + 8c^2 -
8c - 1, so its elements are FieldElements and the tower has no arithmetic
of its own.  Sign, interval and square-root arithmetic is integer-only.

Text is parsed into integer (num, den) pairs and elements are built from
them directly; as_strings writes the reduced pairs back.  Fractions are
made only where the API returns one: here FieldElement.coeffs,
fe_to_interval and interval_sqrt (and, in geometry.py, ModulePoint.octuple).
Nothing else on the load, growth or export paths builds one.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Optional

# 16c^4 + 8c^3 - 12c^2 - 2c + 1, coefficients by ascending degree
MIN_POLY = (1, -2, -12, 8, 16)


def _parse_ratio(text: str) -> tuple[int, int]:
    """Parse "num/den" (or a bare integer) into an integer pair (num, den),
    not reduced, den nonzero.  int() raises ValueError on a malformed part;
    a zero denominator raises ZeroDivisionError."""
    num, sep, den = text.partition("/")
    n = int(num)
    if not sep:
        return n, 1
    d = int(den)
    if d == 0:
        raise ZeroDivisionError(f"zero denominator in {text.strip()!r}")
    return n, d


# ---------------------------------------------------------------------------
# raw kernel: elements as (n0, n1, n2, n3, den), not necessarily reduced
# ---------------------------------------------------------------------------

def _reduced_powers():
    # c^4 from the minimal polynomial, then c^5 = c*c^4, c^6 = c*c^5,
    # re-reducing the degree-4 term each time.
    a0, a1, a2, a3, a4 = MIN_POLY
    c4 = [Fraction(-a0, a4), Fraction(-a1, a4), Fraction(-a2, a4), Fraction(-a3, a4)]
    powers = [c4]
    for _ in range(2):
        prev = powers[-1]
        shifted = [Fraction(0), prev[0], prev[1], prev[2]]
        top = prev[3]
        powers.append([shifted[i] + top * c4[i] for i in range(4)])
    out = []
    for p in powers:
        den = math.lcm(*(f.denominator for f in p))
        out.append(tuple(int(f * den) for f in p) + (den,))
    return out


_C4, _C5, _C6 = _reduced_powers()
_RED_DEN = math.lcm(_C4[4], _C5[4], _C6[4])
_T4 = tuple(n * (_RED_DEN // _C4[4]) for n in _C4[:4])
_T5 = tuple(n * (_RED_DEN // _C5[4]) for n in _C5[:4])
_T6 = tuple(n * (_RED_DEN // _C6[4]) for n in _C6[:4])
_BASIS = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


def _raw_mul(an, ad, bn, bd):
    a0, a1, a2, a3 = an
    b0, b1, b2, b3 = bn
    p4 = a1 * b3 + a2 * b2 + a3 * b1
    p5 = a2 * b3 + a3 * b2
    p6 = a3 * b3
    t40, t41, t42, t43 = _T4
    t50, t51, t52, t53 = _T5
    t60, t61, t62, t63 = _T6
    r = _RED_DEN
    return (
        (
            r * (a0 * b0) + p4 * t40 + p5 * t50 + p6 * t60,
            r * (a0 * b1 + a1 * b0) + p4 * t41 + p5 * t51 + p6 * t61,
            r * (a0 * b2 + a1 * b1 + a2 * b0) + p4 * t42 + p5 * t52 + p6 * t62,
            r * (a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0) + p4 * t43 + p5 * t53 + p6 * t63,
        ),
        r * ad * bd,
    )


def _raw_add(an, ad, bn, bd):
    if ad == bd:
        return (an[0] + bn[0], an[1] + bn[1], an[2] + bn[2], an[3] + bn[3]), ad
    return (
        (
            an[0] * bd + bn[0] * ad,
            an[1] * bd + bn[1] * ad,
            an[2] * bd + bn[2] * ad,
            an[3] * bd + bn[3] * ad,
        ),
        ad * bd,
    )


def _raw_sub(an, ad, bn, bd):
    if ad == bd:
        return (an[0] - bn[0], an[1] - bn[1], an[2] - bn[2], an[3] - bn[3]), ad
    return (
        (
            an[0] * bd - bn[0] * ad,
            an[1] * bd - bn[1] * ad,
            an[2] * bd - bn[2] * ad,
            an[3] * bd - bn[3] * ad,
        ),
        ad * bd,
    )


def _raw_is_zero(an) -> bool:
    return an[0] == 0 and an[1] == 0 and an[2] == 0 and an[3] == 0


def _raw_from_ratios(ratios):
    """(n0, n1, n2, n3), den of four (num, den) pairs: the numerators scaled
    to the lcm of the denominators, not reduced."""
    (a0, d0), (a1, d1), (a2, d2), (a3, d3) = ratios
    den = math.lcm(d0, d1, d2, d3)
    return (a0 * (den // d0), a1 * (den // d1), a2 * (den // d2), a3 * (den // d3)), den


def _normalize(an, ad):
    if ad < 0:
        an = (-an[0], -an[1], -an[2], -an[3])
        ad = -ad
    g = math.gcd(math.gcd(an[0], an[1]), math.gcd(an[2], an[3]))
    g = math.gcd(g, ad)
    if g > 1:
        an = (an[0] // g, an[1] // g, an[2] // g, an[3] // g)
        ad //= g
    return an, ad


class FieldElement:
    """An element a0 + a1*c + a2*c^2 + a3*c^3 of Q(c), in canonical form."""

    __slots__ = ("_n", "_d")

    def __init__(self, a0=0, a1=0, a2=0, a3=0):
        ratios = [Fraction(a).as_integer_ratio() for a in (a0, a1, a2, a3)]
        self._n, self._d = _normalize(*_raw_from_ratios(ratios))

    @classmethod
    def _from_raw(cls, an, ad) -> "FieldElement":
        self = object.__new__(cls)
        self._n, self._d = _normalize(an, ad)
        return self

    # -- accessors ---------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        d = self._d
        return tuple(Fraction(n, d) for n in self._n)

    def is_zero(self) -> bool:
        return _raw_is_zero(self._n)

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            return other
        if isinstance(other, int):
            return FieldElement._from_raw((other, 0, 0, 0), 1)
        if isinstance(other, Fraction):
            return FieldElement(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement._from_raw(*_raw_add(self._n, self._d, o._n, o._d))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement._from_raw(*_raw_sub(self._n, self._d, o._n, o._d))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement._from_raw(*_raw_sub(o._n, o._d, self._n, self._d))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement._from_raw(*_raw_mul(self._n, self._d, o._n, o._d))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, int):
            # scale the denominator; no inverse needed
            if other == 0:
                raise ZeroDivisionError("division by the zero element of Q(c)")
            return FieldElement._from_raw(self._n, self._d * other)
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o * self.inverse()

    def __neg__(self):
        n = self._n
        return FieldElement._from_raw((-n[0], -n[1], -n[2], -n[3]), self._d)

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def inverse(self) -> "FieldElement":
        """Multiplicative inverse by the adjugate of the multiplication
        matrix, in integers only.

        Column j of M is self*c^j, so M v = e0 solves self*v = 1; with
        the integer matrix B = RED_DEN * M from _raw_mul, v_i is
        RED_DEN * C_0i / det(B), where C_0i are the cofactors of the first
        row.  det(B) is RED_DEN^4 times the norm of self's numerator, which
        is nonzero since the minimal polynomial is irreducible."""
        if self.is_zero():
            raise ZeroDivisionError("division by the zero element of Q(c)")
        cols = [_raw_mul(self._n, 1, e, 1)[0] for e in _BASIS]
        # rows 1-3 of B, and the 2x2 minors of rows 2-3 on column pairs
        (b10, b20, b30), (b11, b21, b31), (b12, b22, b32), (b13, b23, b33) = (
            col[1:] for col in cols
        )
        m01 = b20 * b31 - b21 * b30
        m02 = b20 * b32 - b22 * b30
        m03 = b20 * b33 - b23 * b30
        m12 = b21 * b32 - b22 * b31
        m13 = b21 * b33 - b23 * b31
        m23 = b22 * b33 - b23 * b32
        cof = (
            b11 * m23 - b12 * m13 + b13 * m12,
            -(b10 * m23 - b12 * m03 + b13 * m02),
            b10 * m13 - b11 * m03 + b13 * m01,
            -(b10 * m12 - b11 * m02 + b12 * m01),
        )
        det = sum(col[0] * k for col, k in zip(cols, cof))
        scale = _RED_DEN * self._d
        return FieldElement._from_raw(tuple(scale * k for k in cof), det)

    # -- comparisons / hashing ----------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self._n == o._n and self._d == o._d

    def __hash__(self):
        return hash((self._n, self._d))

    def __repr__(self):
        return "FieldElement({}, {}, {}, {})".format(*self.coeffs)

    def __str__(self):
        return " ".join(self.as_strings())

    # -- evaluation ----------------------------------------------------------

    def to_float(self) -> float:
        x = _GEN_FLOAT
        n = self._n
        return (n[0] + x * (n[1] + x * (n[2] + x * n[3]))) / self._d

    # -- serialization --------------------------------------------------------

    def as_strings(self) -> tuple[str, str, str, str]:
        """The coefficients as reduced "num/den" strings."""
        d = self._d
        out = []
        for n in self._n:
            g = math.gcd(n, d)
            out.append(f"{n // g}/{d // g}")
        return tuple(out)

    @classmethod
    def from_strings(cls, parts) -> "FieldElement":
        if len(parts) != 4:
            raise ValueError("expected four coefficient strings")
        return cls._from_raw(*_raw_from_ratios([_parse_ratio(p) for p in parts]))


ZERO = FieldElement(0)
ONE = FieldElement(1)
GEN = FieldElement(0, 1)  # the generator c itself


# ---------------------------------------------------------------------------
# root isolation and interval evaluation
# ---------------------------------------------------------------------------

def _minpoly_at(num: int, den: int) -> int:
    """den^4 times the minimal polynomial at num/den: the same sign."""
    out = 0
    scale = 1
    for coef in reversed(MIN_POLY):
        out = out * num + coef * scale
        scale *= den
    return out


def _one_root_in(lo: int, hi: int, den: int) -> bool:
    """True when [lo, hi] / den, 0 <= lo < hi, holds exactly one root of the
    minimal polynomial: it changes sign there, and its derivative
    64x^3 + 24x^2 - 24x - 2 is at least
    (64 lo^3 + 24 lo^2 den - 24 hi den^2 - 2 den^3) / den^3 > 0 on it."""
    return (
        _minpoly_at(lo, den) * _minpoly_at(hi, den) < 0
        and 64 * lo**3 + 24 * lo**2 * den - 24 * hi * den**2 - 2 * den**3 > 0
    )


def _level(num: int, den: int) -> int:
    """The coarsest level of the root chain at most num/den wide (num, den > 0)."""
    # smallest k with 1/(40 * 2^k) <= num/den, i.e. 2^k >= ceil(den / (40 num))
    need = -(-den // (40 * num))
    return (need - 1).bit_length()


def _bisect(lo: int, den: int):
    """The chain from the level [lo, lo + 1] / den on, each level as (L, D):
    the interval [L, L + 1] / D, then the half of it that holds the root."""
    while True:
        yield lo, den
        lo, den = 2 * lo, 2 * den
        if _minpoly_at(lo, den) * _minpoly_at(lo + 1, den) > 0:
            lo += 1


# The bisection chain of the designated root: level k is the interval
# [L_k, L_k + 1] / (40 * 2^k), reached by k halvings of [27/40, 28/40], so
# it depends only on k.  It is built once, to the coarsest level at most
# 1e-18 wide, which carries the root to full double precision: c's float is
# that level's midpoint (int / int rounds correctly), and signs and
# intervals never use a coarser one.
if not _one_root_in(27, 28, 40):
    raise AssertionError("seed interval does not isolate the root")
_FLOAT_ROOT_LEVEL = _level(1, 10**18)
_LOWS = tuple(lo for lo, _ in itertools.islice(_bisect(27, 40), _FLOAT_ROOT_LEVEL + 1))
_GEN_FLOAT = (2 * _LOWS[-1] + 1) / (2 * (40 << _FLOAT_ROOT_LEVEL))


def _root_levels(start: int):
    """Levels start, start + 1, ... of the chain as (L, D).  Levels past
    _LOWS are halved on from its last one inside the call, never stored."""
    for k in range(start, _FLOAT_ROOT_LEVEL + 1):
        yield _LOWS[k], 40 << k
    deeper = _bisect(_LOWS[-1], 40 << _FLOAT_ROOT_LEVEL)
    yield from itertools.islice(deeper, max(start - _FLOAT_ROOT_LEVEL, 1), None)


def _interval_eval(n, lo: int, den: int) -> tuple[int, int]:
    """Bounds on n0 + n1 x + n2 x^2 + n3 x^3 over x in [lo, lo + 1] / den,
    as numerators over den^3: Horner in interval arithmetic.  x > 0, so
    each step multiplies a lower bound by the end of the interval that
    keeps it lowest, and an upper bound by the one that keeps it highest."""
    hi = lo + 1
    acc_lo = acc_hi = n[3]
    scale = 1
    for coef in (n[2], n[1], n[0]):
        scale *= den
        acc_lo = acc_lo * (lo if acc_lo >= 0 else hi) + coef * scale
        acc_hi = acc_hi * (hi if acc_hi >= 0 else lo) + coef * scale
    return acc_lo, acc_hi


def fe_sign(a: FieldElement) -> int:
    """Sign of a at the designated root: 0 exactly when a is the zero
    element, otherwise decided by interval refinement."""
    n = a._n
    if _raw_is_zero(n):
        return 0
    # the bounds are numerators over a._d * den^3 > 0, so they carry the
    # sign; any enclosure of the root decides it, so start from the deepest
    # level built at import and go 8 levels (256 times narrower) deeper per
    # round, up to level 20000
    levels = _root_levels(_FLOAT_ROOT_LEVEL)
    for lo, den in itertools.islice(levels, 0, 20001 - _FLOAT_ROOT_LEVEL, 8):
        vlo, vhi = _interval_eval(n, lo, den)
        if vlo > 0:
            return 1
        if vhi < 0:
            return -1
    raise ArithmeticError("sign refinement failed to terminate")


def fe_to_interval(a: FieldElement, target_width) -> tuple[Fraction, Fraction]:
    """Bounds in Q on the value of a at the root, at most target_width
    wide.  Bounds shrink monotonically as target_width decreases, and
    depend only on a and target_width: they are evaluated on the coarsest
    level of the root's bisection chain that gives a narrow enough value,
    and never on one coarser than _GEN_FLOAT's, so their midpoint is
    as accurate as a double can hold."""
    target = Fraction(target_width)
    if target <= 0:
        raise ValueError("target_width must be positive")
    n = a._n
    if _raw_is_zero(n):
        return Fraction(0), Fraction(0)
    tn, td = target.numerator, target.denominator
    for lo, den in _root_levels(max(_level(tn, td), _FLOAT_ROOT_LEVEL)):
        vlo, vhi = _interval_eval(n, lo, den)
        scale = a._d * den**3
        if (vhi - vlo) * td <= tn * scale:
            return Fraction(vlo, scale), Fraction(vhi, scale)


def interval_sqrt(lo: Fraction, hi: Fraction, target_width) -> tuple[Fraction, Fraction]:
    """Outward-rounded square root of a nonnegative rational interval."""
    if lo < 0:
        raise ValueError("interval must be nonnegative")
    target = Fraction(target_width)
    # scale so that integer square roots give the precision we need
    scale = 1
    while Fraction(2, scale) > target:
        scale <<= 1
    lo_s = math.isqrt((lo.numerator * scale * scale) // lo.denominator)
    hi_num = hi.numerator * scale * scale
    hi_s = math.isqrt(-(-hi_num // hi.denominator))
    return Fraction(lo_s, scale), Fraction(hi_s + 1, scale)


# ---------------------------------------------------------------------------
# square roots via the tower Q < Q(sqrt5) < Q(c)
# ---------------------------------------------------------------------------
#
# sqrt5 = 16c^3 + 8c^2 - 8c - 1 lies in Q(c), and the generator satisfies
# c^2 = u*c + 1/4 over Q(sqrt5) with u = (-1 + sqrt5)/4.  Elements of
# Q(sqrt5) are FieldElements like any other; only sqrt5 has a c^3 term, so
# the c^3 and constant numerators of one give its two coordinates.

SQRT5 = FieldElement(-1, -8, 8, 16)


def _q5(a: int, b: int, d: int) -> FieldElement:
    """(a + b*sqrt5)/d, d nonzero."""
    return FieldElement._from_raw((a - b, -8 * b, 8 * b, 16 * b), d)


_U = _q5(-1, 1, 4)               # u
_FOUR_QA = _q5(11, -1, 2)        # 4(u^2 + 1)
_INV_TWO_QA = _q5(11, 1, 29)     # 1 / (2(u^2 + 1))


def _rat_sqrt(n: int, d: int) -> Optional[int]:
    """r with sqrt(n/d) = r/d when n/d (d > 0) is a rational square, else
    None: n/d = n*d / d^2."""
    if n < 0:
        return None
    r = math.isqrt(n * d)
    return r if r * r == n * d else None


def _q5_sqrt(g: FieldElement) -> Optional[FieldElement]:
    """A square root in Q(sqrt5) of g, which lies in Q(sqrt5), or None
    when g is not a square there."""
    # g = (a + b sqrt5)/d, read off g's constant and c^3 numerators
    n0, n3 = g._n[0], g._n[3]
    a, b, d = 16 * n0 + n3, n3, 16 * g._d
    if b == 0:
        r = _rat_sqrt(a, d)
        if r is not None:
            return _q5(r, 0, d)
        r = _rat_sqrt(a, 5 * d)  # a/d = 5 (r / 5d)^2
        if r is not None:
            return _q5(0, r, 5 * d)
        return None
    # a square's norm (a^2 - 5b^2)/d^2 is a rational square m^2/d^2
    m = _rat_sqrt(a * a - 5 * b * b, 1)
    if m is None:
        return None
    for mm in (m, -m):
        # rational part t0 = sqrt((a + mm) / 2d) = r/2d, then t1 = b/r
        r = _rat_sqrt(a + mm, 2 * d)
        if not r:
            continue
        if r**4 + 20 * d * d * b * b == 4 * a * d * r * r:  # t0^2 + 5 t1^2 = a/d
            return _q5(r * r, 2 * d * b, 2 * d * r)
    return None


def fe_sqrt(d: FieldElement) -> Optional[FieldElement]:
    """Exact square root of d in Q(c), nonnegative branch, or None when d
    is not a square in the field.  Raises ValueError on negative input."""
    s = fe_sign(d)
    if s < 0:
        raise ValueError("square root of a negative element")
    if s == 0:
        return ZERO
    # d = d0 + d1 c with d0, d1 in Q(sqrt5), by c^2 = u c + 1/4 and
    # c^3 = ((5 - sqrt5)/8) c + (-1 + sqrt5)/16
    n0, n1, n2, n3 = d._n
    den = 16 * d._d
    d0 = _q5(16 * n0 + 4 * n2 - n3, n3, den)
    d1 = _q5(16 * n1 - 4 * n2 + 10 * n3, 4 * n2 - 2 * n3, den)
    # a root t0 + t1 c has w = t1^2 solving qa w^2 - qb w + qc = 0 with
    # qa = u^2 + 1 = (11 - sqrt5)/8, qb = 2 u d1 + 4 d0, qc = d1^2
    qb = 2 * _U * d1 + 4 * d0
    sq = _q5_sqrt(qb * qb - _FOUR_QA * d1 * d1)
    if sq is None:
        return None
    for qb_pm_sq in (qb + sq, qb - sq):
        t1 = _q5_sqrt(qb_pm_sq * _INV_TWO_QA)
        if t1 is None:
            continue
        if t1.is_zero():
            t0 = _q5_sqrt(d0)
            if t0 is None:
                continue
        else:
            # the c term of t^2 = d: 2 t0 t1 + u t1^2 = d1
            t0 = (d1 / t1 - _U * t1) / 2
        t = t0 + t1 * GEN
        # a safety check only: t0 solves the c term of t^2 = d by
        # construction, and the constant term then holds because t1^2
        # solves the quadratic, so no root reaching here fails it
        if t * t == d:
            return t if fe_sign(t) >= 0 else -t
    return None


# ---------------------------------------------------------------------------
# derived constants of the construction
# ---------------------------------------------------------------------------

SIN_SQ = ONE - GEN * GEN          # 1 - c^2
RADIUS_SQ = 2 * GEN - ONE         # 2c - 1, squared Euclidean radius of the base circle
EDGE_INVARIANT = RADIUS_SQ / (ONE - GEN)   # (2c-1)/(1-c), the value taken on edges
